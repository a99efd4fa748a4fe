"""Sparse multitone signals and random time-domain subsampling.

A signal is a sum of K complex exponentials on an N-point grid. Taking a
random subset of its time samples produces a measurement vector from which
the reconstruction pipeline recovers the full spectrum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .csvio import fmt, write_csv

__all__ = [
    "SparseSpec",
    "SamplingPattern",
    "Measurement",
    "synthesize",
    "random_pattern",
    "sample",
    "sum_sq_amplitudes",
    "estimate_sum_sq_amplitudes",
    "write_signal_csv",
    "read_signal_csv",
]


def _whole(values, what: str) -> np.ndarray:
    """``values`` as int64; rejects any value that is not a whole number
    instead of truncating it, and names the first one."""
    raw = np.asarray(values)
    if raw.dtype.kind in "iu":
        return raw.astype(np.int64)
    with np.errstate(invalid="ignore"):  # NaN and inf are reported below
        whole = raw.astype(np.int64)
    if np.any(raw != whole):
        raise ValueError(f"{what} must be a whole number, got {raw[raw != whole][0]}")
    return whole


@dataclass(frozen=True, eq=False)
class SparseSpec:
    """Definition of a K-component multitone signal.

    Parameters
    ----------
    n : int
        Signal length (number of time samples / frequency bins).
    components : sequence of (amplitude, freq_bin)
        One pair per tone. Amplitudes must be strictly positive reals,
        bins distinct integers in [0, n).
    """

    n: int
    components: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(a), int(_whole(k, "frequency bin"))) for a, k in self.components)
        object.__setattr__(self, "n", int(_whole(self.n, "signal length")))
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("at least one component required")
        if len(comps) >= self.n:
            raise ValueError("component count must be smaller than signal length")
        bins = [k for _, k in comps]
        if len(set(bins)) != len(bins):
            raise ValueError(f"duplicate frequency bins: {sorted(bins)}")
        for a, k in comps:
            if not a > 0:
                raise ValueError(f"amplitude must be strictly positive, got {a}")
            if not 0 <= k < self.n:
                raise ValueError(f"frequency bin {k} outside [0, {self.n})")

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
        pos = _whole(self.positions, "position")
        pos.flags.writeable = False
        object.__setattr__(self, "n", int(_whole(self.n, "signal length")))
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a nonempty 1-d sequence")
        if pos.size > self.n:
            raise ValueError(f"{pos.size} positions exceed signal length {self.n}")
        if np.unique(pos).size != pos.size:
            raise ValueError("positions must be distinct")
        if pos.min() < 0 or pos.max() >= self.n:
            raise ValueError(f"positions must lie in [0, {self.n})")

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
        vals = np.asarray(self.values, dtype=complex).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.pattern.n_a:
            raise ValueError(
                f"expected {self.pattern.n_a} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("measurement values must be finite")


def synthesize(spec: SparseSpec) -> np.ndarray:
    """Generate the multitone time signal defined by ``spec``.

    Returns the length-n complex vector with
    ``x[t] = sum_i amplitude_i * exp(2j*pi*bin_i*t/n)``.
    """
    t = np.arange(spec.n)
    phases = np.exp(2j * np.pi * np.outer(spec.freq_bins, t) / spec.n)
    return (spec.amplitudes[:, None] * phases).sum(axis=0)


def random_pattern(n: int, n_a: int, seed: int) -> SamplingPattern:
    """Draw ``n_a`` distinct positions from [0, n) uniformly without replacement.

    Deterministic for a fixed seed; positions are returned in draw order.
    """
    n = int(_whole(n, "signal length"))
    n_a = int(_whole(n_a, "available count"))
    if n < 1:
        raise ValueError("signal length must be positive")
    if not 1 <= n_a <= n:
        raise ValueError(f"available count {n_a} outside [1, {n}]")
    rng = np.random.default_rng(int(seed))
    positions = rng.permutation(n)[:n_a]
    return SamplingPattern(n=n, positions=positions)


def sample(x: np.ndarray, pattern: SamplingPattern) -> Measurement:
    """Select the signal samples at the pattern's positions."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size != pattern.n:
        raise ValueError(f"signal length {x.size} does not match pattern length {pattern.n}")
    return Measurement(values=x[pattern.positions], pattern=pattern)


def sum_sq_amplitudes(spec: SparseSpec) -> float:
    """Sum of squared component amplitudes."""
    return float(np.sum(spec.amplitudes**2))


def estimate_sum_sq_amplitudes(meas: Measurement) -> float:
    """Estimate the sum of squared amplitudes as the mean measurement power.

    For distinct-bin tones the cross terms average out, so the mean of
    ``|v|**2`` over the available samples approaches the oracle value.
    """
    return float(np.mean(np.abs(meas.values) ** 2))


def write_signal_csv(path, samples: np.ndarray) -> None:
    """Write a complex signal as ``index,re,im`` rows."""
    samples = np.asarray(samples, dtype=complex)
    write_csv(
        path,
        ["index", "re", "im"],
        ([i, fmt(v.real), fmt(v.imag)] for i, v in enumerate(samples)),
    )


def read_signal_csv(path) -> np.ndarray:
    """Read a signal written by :func:`write_signal_csv`; errors name the file.

    Each row's index must equal its position, 0 to n-1.
    """
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["index", "re", "im"]:
            raise ValueError(f"{path}: expected header 'index,re,im'")
        for row in reader:
            try:
                index, re, im = row
                if int(index) != len(values):
                    raise ValueError(f"index {index!r} where {len(values)} was expected")
                values.append(complex(float(re), float(im)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    x = np.asarray(values, dtype=complex)
    if x.size == 0:
        raise ValueError(f"{path}: no samples after the header")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: samples must be finite")
    return x
