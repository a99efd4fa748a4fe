"""Sparse multitone signals and random time-domain subsampling.

A signal is a sum of K complex exponentials on an N-point grid. Taking a
random subset of its time samples produces a measurement vector from which
the reconstruction pipeline recovers the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Complex, Number, Real

import numpy as np

from .csvio import read_signal_csv  # noqa: F401  traced by bench/spans.py

__all__ = [
    "SparseSpec",
    "SamplingPattern",
    "Measurement",
    "spectral_positioning",
    "synthesize",
    "random_pattern",
    "sample",
    "sum_sq_amplitudes",
    "estimate_sum_sq_amplitudes",
]


def _whole(values, what: str, below: int | None = None, least: int | None = None) -> np.ndarray:
    """``values`` as int64; rejects a value that is not a whole number or does not fit in
    64 bits instead of truncating or wrapping it, or that lies outside [0, ``below``) or
    under ``least``, naming ``what`` and the first such value. Integer, float and object
    data are read; bool, complex and text are refused by :func:`_typed`. Bounds
    are compared on Python ints or an array's extremes, so a valid call builds no mask."""
    raw = _typed(values, what, "a whole number")
    kind = raw.dtype.kind
    if kind == "f":  # float16/32 widened, so the 64-bit bounds compare without overflow
        raw = raw.astype(np.result_type(raw, np.float64), copy=False)
    if kind == "i":
        whole = raw.astype(np.int64)
    else:
        with np.errstate(invalid="ignore"):  # NaN and inf are reported below
            whole = np.where((raw < -2**63) | (raw >= 2**63), 0, raw).astype(np.int64)
            if np.any(raw != whole):
                bad = raw[raw != whole][0]
                need = "fit in 64 bits" if bad % 1 == 0 else "be a whole number"
                raise ValueError(f"{what} must {need}, got {bad}")
    if whole.size:
        lo, hi = (whole.item(),) * 2 if whole.ndim == 0 else (whole.min(), whole.max())
        if below is not None and (lo < 0 or hi >= below):
            raise ValueError(f"{what} {whole[(whole < 0) | (whole >= below)][0]} outside [0, {below})")
        if least is not None and lo < least:
            raise ValueError(f"{what} must be at least {least}, got {whole[whole < least][0]}")
    return whole


def _real(value, what: str) -> float:
    """``float(value)``, refusing bool, complex and text values by dtype as :func:`_whole` does."""
    _typed(value, what, "a real number")
    return float(value)


def _typed(values, what: str, noun: str, kinds: str = "iufO") -> np.ndarray:
    """``values`` as an array; a dtype kind outside ``kinds`` raises naming ``what`` and the
    dtype, so bool and text data are refused where numpy would read 0 or 1 or parse them.
    An object array is checked by what it holds: a bool, a non-number or, unless ``kinds``
    has ``c``, a complex element raises naming ``what`` and the element's type."""
    raw = np.asarray(values)
    if raw.dtype.kind not in kinds:
        raise ValueError(f"{what} must be {noun}, not {raw.dtype.name}")
    for x in raw.flat if raw.dtype.kind == "O" else ():
        imaginary = isinstance(x, Complex) and not isinstance(x, Real)
        if isinstance(x, bool) or not isinstance(x, Number) or imaginary and "c" not in kinds:
            raise ValueError(f"{what} must be {noun}, not {type(x).__name__}")
    return raw


@dataclass(frozen=True, eq=False)
class SparseSpec:
    """Definition of a K-component multitone signal.

    Parameters
    ----------
    n : int
        Signal length (number of time samples / frequency bins).
    components : sequence of (amplitude, freq_bin)
        One pair per tone. Amplitudes must be finite, strictly positive reals,
        bins distinct integers in [0, n).
    """

    n: int
    components: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(_whole(self.n, "signal length", least=2)))
        comps = tuple((_real(a, "amplitude"), int(_whole(k, "frequency bin", self.n)))
                      for a, k in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("at least one component required")
        if len(comps) >= self.n:
            raise ValueError(f"component count {len(comps)} must be smaller than "
                             f"signal length {self.n}")
        bins = [k for _, k in comps]
        if len(set(bins)) != len(bins):
            raise ValueError(f"duplicate frequency bins: {sorted(bins)}")
        for a, _ in comps:
            if not 0 < a < np.inf:
                raise ValueError(f"amplitude must be finite and strictly positive, got {a}")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.components], dtype=float)

    @property
    def freq_bins(self) -> np.ndarray:
        return np.array([k for _, k in self.components], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SamplingPattern:
    """Random selection of available time positions, in draw order."""

    n: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(_whole(self.n, "signal length", least=1)))
        pos = _whole(self.positions, "position", self.n)
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a nonempty 1-d sequence")
        if np.unique(pos).size != pos.size:
            raise ValueError("positions must be distinct")

    @property
    def n_a(self) -> int:
        """Number of available samples."""
        return int(self.positions.size)


@dataclass(frozen=True, eq=False)
class Measurement:
    """Available signal samples paired with the pattern that selected them."""

    values: np.ndarray
    pattern: SamplingPattern

    def __post_init__(self) -> None:
        vals = _typed(self.values, "measurement values", "numbers", "iufcO").astype(complex)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.pattern.n_a:
            raise ValueError(
                f"expected {self.pattern.n_a} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("measurement values must be finite")


def spectral_positioning(x_tp: np.ndarray, pos: np.ndarray, n: int) -> np.ndarray:
    """Place the amplitudes at their distinct bins; all other bins are zero."""
    x_tp = np.asarray(x_tp, dtype=complex)
    n = int(_whole(n, "signal length"))
    pos = _whole(pos, "frequency bin", n)
    if x_tp.size != pos.size:
        raise ValueError(f"{x_tp.size} amplitudes for {pos.size} positions")
    if np.unique(pos).size != pos.size:
        raise ValueError(f"duplicate frequency bins: {sorted(pos.tolist())}")
    spectrum = np.zeros(n, dtype=complex)
    spectrum[pos] = x_tp
    return spectrum


def synthesize(spec: SparseSpec) -> np.ndarray:
    """The multitone signal ``x[t] = sum_i amplitude_i * exp(2j*pi*bin_i*t/n)`` of ``spec``,
    formed as the pipeline forms its time signal: the amplitudes at their bins, then an
    inverse FFT without the 1/n scaling, whose twiddles keep every phase exact."""
    with np.errstate(over="ignore", invalid="ignore"):  # write_signal_csv, Measurement reject inf
        return np.fft.ifft(spectral_positioning(spec.amplitudes, spec.freq_bins, spec.n),
                           norm="forward")


def random_pattern(n: int, n_a: int, seed: int) -> SamplingPattern:
    """Draw ``n_a`` distinct positions from [0, n) uniformly without replacement.

    Deterministic for a fixed seed; positions are returned in draw order.
    """
    n = int(_whole(n, "signal length", least=1))
    n_a = int(_whole(n_a, "available count"))
    if not 1 <= n_a <= n:
        raise ValueError(f"available count {n_a} outside [1, {n}]")
    return SamplingPattern(n=n, positions=_draw(n, n_a, int(_whole(seed, "seed", least=0))))


def _draw(n: int, n_a: int, seed: int) -> np.ndarray:
    """The pattern draw rule: the first ``n_a`` of a seeded permutation of [0, n).
    ``montecarlo._patterns`` draws a run's patterns by this rule, bit for bit."""
    return np.random.default_rng(seed).permutation(n)[:n_a]


def sample(x: np.ndarray, pattern: SamplingPattern) -> Measurement:
    """Select the signal samples at the pattern's positions."""
    x = _typed(x, "signal samples", "numbers", "iufcO")
    if x.ndim != 1 or x.size != pattern.n:
        raise ValueError(f"signal length {x.size} does not match pattern length {pattern.n}")
    return Measurement(values=x[pattern.positions], pattern=pattern)


def sum_sq_amplitudes(spec: SparseSpec) -> float:
    """Sum of squared component amplitudes; inf when it overflows."""
    with np.errstate(over="ignore"):  # missing_noise_variance rejects inf by name
        return float(np.sum(spec.amplitudes**2))


def estimate_sum_sq_amplitudes(meas: Measurement) -> float:
    """Estimate the sum of squared amplitudes as the mean measurement power.

    For distinct-bin tones the cross terms average out, so the mean of
    ``|v|**2`` over the available samples approaches the oracle value.
    """
    return _mean_power(meas.values)


def _mean_power(values: np.ndarray) -> float:
    """The mean of ``|values|**2``: the estimate on a checked row of samples."""
    with np.errstate(over="ignore"):  # missing_noise_variance rejects inf by name
        return float(np.mean(np.abs(values) ** 2))

