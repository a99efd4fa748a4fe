"""Reference reconstruction pipeline in double precision.

The chain: form the initial DFT from the available samples placed at their
original time positions, model the spectral noise caused by the missing
samples, derive a detection threshold, pick the bins above it, and solve a
small least-squares system on a partial DFT matrix to recover the exact
amplitudes at the detected bins. The zero-filled spectrum is then inverted
back to the time domain. Apart from the two CSV writers at the end, everything
here is a pure function; the fixed-point counterpart of the threshold stage
lives in :mod:`csrecon.hw_datapath`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .csvio import write_csv
from .signal_model import (Measurement, SamplingPattern, _real, _whole,
                           estimate_sum_sq_amplitudes, spectral_positioning)

__all__ = [
    "ThresholdVariant",
    "AmpMode",
    "ThresholdConfig",
    "DetectionResult",
    "ReconstructionResult",
    "UnderdeterminedError",
    "SingularSystemError",
    "initial_dft",
    "missing_noise_variance",
    "threshold",
    "detect_positions",
    "effective_threshold",
    "build_cs_matrix",
    "hermitian",
    "ls_solve",
    "spectral_positioning",
    "idft",
    "reconstruct",
    "write_spectrum_csv",
    "write_detection_csv",
]


class UnderdeterminedError(ValueError):
    """More unknown bins than available measurements."""


class SingularSystemError(ValueError):
    """The normal-equation matrix is numerically singular."""


class ThresholdVariant(str, Enum):
    """Which closed form the threshold uses.

    ``paper``: T = (var/n) * sqrt(-log10(1 - P**(1/n)))
    ``ref10``: T = sqrt(-var * ln(1 - P**(1/n)))

    The ``ref10`` form matches the exponential tail statistics of the
    missing-sample noise and is the default; ``paper`` keeps the paper's
    base-10 form, linear in the variance, available for comparison.
    """

    PAPER = "paper"
    REF10 = "ref10"


class AmpMode(str, Enum):
    """Where the sum of squared amplitudes comes from: supplied by the
    caller (``oracle``) or estimated from the measurement power
    (``estimate``)."""

    ORACLE = "oracle"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class ThresholdConfig:
    """Detection settings: confidence level, threshold form, amplitude source."""

    p: float
    variant: ThresholdVariant = ThresholdVariant.REF10
    amp_mode: AmpMode = AmpMode.ORACLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real(self.p, "probability"))
        object.__setattr__(self, "variant", ThresholdVariant(self.variant))
        object.__setattr__(self, "amp_mode", AmpMode(self.amp_mode))
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"probability must lie strictly in (0, 1), got {self.p}")


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Threshold, modeled noise variance, and the detected bin indices."""

    threshold: float
    variance: float
    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64).copy()
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n_detected(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Solved amplitudes, zero-filled spectrum, time signal, and detection info."""

    amplitudes: np.ndarray
    spectrum: np.ndarray
    time_signal: np.ndarray
    detection: DetectionResult

    @property
    def empty_support(self) -> bool:
        """No bin was detected; the spectrum and time signal are zero."""
        return self.detection.n_detected == 0


def initial_dft(meas: Measurement) -> np.ndarray:
    """DFT of the available samples placed at their original time positions.

    Returns the length-n complex vector with
    ``V[f] = sum_a v[a] * exp(-2j*pi*f*positions[a]/n)``.
    Using the original positions in the exponent is what keeps the signal
    bins aligned with the full-data DFT.
    """
    return _dense_dft(meas.values, meas.pattern.positions, meas.pattern.n)


# not smaller: after 1-2 MiB blocks glibc maps the later stages' larger arrays afresh on every
# call (about 1000 page faults per 512×496 reconstruct); 4 MiB blocks keep them in the heap
_BLOCK_BYTES = 4 << 20


def _dense_dft(values: np.ndarray, positions: np.ndarray, n: int) -> np.ndarray:
    """:func:`initial_dft`'s kernel on raw arrays, which the Monte-Carlo runners check per run:
    ``exp(-2j*pi*outer(k, positions)/n) @ values``, built in place in equal blocks of rows in one
    buffer of at most ``_BLOCK_BYTES``. k·p is exact, and a bin is the same gemv row sum in any
    block of two rows or more; numpy sends one row to its dot, which sums otherwise. So the bits
    match while N_a <= 87381, where every block has three rows or more; past it, up to 1e-14 off."""
    positions = np.asarray(positions, dtype=complex)
    blocks = -(-n // max(1, _BLOCK_BYTES // (16 * len(positions))))
    edges = [n * i // blocks for i in range(blocks + 1)]
    buf = np.empty((-(-n // blocks), len(positions)), dtype=complex)
    spectrum = np.empty(n, dtype=complex)
    for lo, hi in zip(edges, edges[1:]):
        block = buf[:hi - lo]
        np.multiply.outer(np.arange(lo, hi, dtype=complex), positions, out=block)
        block *= -2j * np.pi
        block /= n
        np.matmul(np.exp(block, out=block), values, out=spectrum[lo:hi])
    return spectrum


def missing_noise_variance(n: int, n_a: int, sum_sq_amp: float) -> float:
    """Variance of the spectral noise caused by the missing samples.

    ``var = (n - n_a) * n_a / (n - 1) * sum_sq_amp``: randomly omitting
    samples perturbs every DFT bin, and the perturbation's second moment
    follows the without-replacement sampling variance of the phase sums.
    """
    n = int(_whole(n, "signal length", least=2))
    n_a = int(_whole(n_a, "available count"))
    sum_sq_amp = _real(sum_sq_amp, "sum of squared amplitudes")
    if not 1 <= n_a <= n:
        raise ValueError(f"available count {n_a} outside [1, {n}]")
    if not (math.isfinite(sum_sq_amp) and sum_sq_amp >= 0.0):
        raise ValueError(f"sum of squared amplitudes must be finite and nonnegative, got {sum_sq_amp}")
    return (n - n_a) * n_a / (n - 1) * sum_sq_amp


def _tail_probability(p: float, n: int) -> float:
    """``1 - p**(1/n)``, which both threshold paths take the logarithm of;
    rejects a length that is not a whole number of at least 2.

    Below 2**-26 the subtraction has lost half its digits, so there the value
    is ``-expm1(log(p)/n)``, which keeps full relative accuracy and stays
    positive for every p < 1; above it the subtraction stands, bit for bit."""
    n = int(_whole(n, "signal length", least=2))
    u = 1.0 - p ** (1.0 / n)
    return u if u >= 2.0**-26 else -math.expm1(math.log(p) / n)


def _threshold_terms(var: float, ln_u: float, n: int, variant: ThresholdVariant):
    """Both threshold stages' closed form as T = scale * sqrt(root_arg), with
    ``ln_u`` = ln(1 - p**(1/n)). The variance stays outside the root for
    ``paper``, so a term overflows only where T does; that raises."""
    if variant is ThresholdVariant.PAPER:
        scale, root_arg = var / n, -ln_u / math.log(10.0)
    else:
        scale, root_arg = 1.0, -var * ln_u
    for name, term in (("scale", scale), ("square-root argument", root_arg)):
        if not math.isfinite(term):
            raise ValueError(f"threshold overflows: {name} is {term}")
    return scale, root_arg


def threshold(var: float, n: int, cfg: ThresholdConfig) -> float:
    """Magnitude level separating signal bins from missing-sample noise.

    With confidence ``cfg.p`` all noise bins stay below the returned level.
    The argument of the square root is nonnegative for every valid input
    because 0 < 1 - p**(1/n) < 1 makes the logarithm negative.
    """
    var = _real(var, "variance")
    if not var >= 0.0:
        raise ValueError(f"variance must be nonnegative, got {var}")
    ln_u = math.log(_tail_probability(cfg.p, n))
    scale, root_arg = _threshold_terms(var, ln_u, n, cfg.variant)
    return scale * math.sqrt(root_arg)


def detect_positions(v_spec: np.ndarray, t: float) -> np.ndarray:
    """The comparator: ascending indices of the bins whose magnitude strictly
    exceeds :func:`effective_threshold`. ``v_spec`` is the spectrum or |V|."""
    t = _real(t, "threshold")
    if not t >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    return np.flatnonzero(_above(np.abs(v_spec), t)).astype(np.int64, copy=False)


def _above(mags: np.ndarray, t: float) -> np.ndarray:
    """The comparator rule on |V|, or on each row of a stack: above its row's level."""
    return mags > effective_threshold(t, mags)


def effective_threshold(t: float, v_spec: np.ndarray) -> float | np.ndarray:
    """Detection level: ``t`` or 1e-9 of the peak of |``v_spec``|, whichever is larger.
    A 2-d ``v_spec`` is a stack of spectra and gets one level per row, as a column.

    The floor keeps double-precision dust in bins that are zero in exact
    arithmetic from being detected when the modeled threshold is exactly
    zero (no missing samples); above it the floor has no effect.
    """
    level = np.fmax(_real(t, "threshold"), 1e-9 * np.abs(v_spec).max(axis=-1, initial=0.0, keepdims=True))
    return level if level.ndim > 1 else float(level[0])


def build_cs_matrix(n: int, pattern: SamplingPattern, pos: np.ndarray) -> np.ndarray:
    """Partial inverse-DFT matrix: available-sample rows, detected-bin columns.

    ``a[m, i] = (1/n) * exp(+2j*pi*positions[m]*pos[i]/n)``. With this
    convention the measurement equals the matrix applied to the unnormalized
    DFT restricted to the detected bins, so the solved amplitudes land on the
    same scale as the initial DFT. Entries come from an n-entry twiddle table
    at the phase index ``positions[m]*pos[i] mod n``, reduced exactly in int64.
    Any bin set, empty included, is built; :func:`ls_solve` decides the rest.
    """
    n = int(_whole(n, "signal length"))
    if n != pattern.n:
        raise ValueError(f"signal length {n} does not match pattern length {pattern.n}")
    pos = _whole(pos, "frequency bin", n)
    phase = np.outer(pattern.positions, pos)
    phase %= n  # in place, sparing a second array of the product's size
    angle = 2 * np.pi * np.arange(n) / n  # real: numpy's complex division rounds twice
    return (np.exp(1j * angle) / n)[phase]


def hermitian(mtx: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(mtx).conj().T


def ls_solve(a_cs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least-squares amplitudes on the detected bins.

    Forms the normal equations ``AᴴA x = Aᴴv`` and solves them with one LU
    factorization (LAPACK, through numpy). More columns than rows raise
    :class:`UnderdeterminedError`. The gate is the R of a QR of ``AᴴA``:
    :class:`SingularSystemError` is raised when R has a diagonal entry below
    1e-10 of the largest. A non-finite ``AᴴA`` or ``Aᴴv`` raises
    :class:`ValueError` before the gate; both are empty, so finite, for an
    empty support, whose solution is empty. For a consistent system, i.e. the
    true support under noiseless sampling, the solution is exactly n times the
    component amplitudes.
    """
    a_cs = np.asarray(a_cs, dtype=complex)
    v = np.asarray(v, dtype=complex)
    rows, cols = a_cs.shape
    if rows < cols:
        raise UnderdeterminedError(f"{cols} detected bins but only {rows} measurements")
    if v.shape != (rows,):
        raise ValueError(f"right-hand side length {v.shape} does not match {rows} rows")
    ah = hermitian(a_cs)
    with np.errstate(invalid="ignore", over="ignore"):  # reported below
        gram, rhs = ah @ a_cs, ah @ v
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise ValueError("least-squares system is not finite (NaN, inf or overflow in AᴴA or Aᴴv)")
    diag = np.abs(np.diag(np.linalg.qr(gram, mode="r")))
    if diag.size and (diag.max() == 0.0 or diag.min() < 1e-10 * diag.max()):
        raise SingularSystemError(
            "normal-equation matrix is numerically singular "
            f"(diagonal spread {diag.min():.3e} / {diag.max():.3e})"
        )
    return np.linalg.solve(gram, rhs)


def idft(x_spec: np.ndarray) -> np.ndarray:
    """Inverse DFT, ``x[t] = (1/n) * sum_f X[f] * exp(+2j*pi*f*t/n)``."""
    return np.fft.ifft(np.asarray(x_spec, dtype=complex))


def _reference_threshold(var: float, n: int, cfg: ThresholdConfig):
    """Threshold stage of the reference pipeline: the closed form, no record."""
    return threshold(var, n, cfg), None


def _detect(meas: Measurement, cfg: ThresholdConfig, sum_sq_amp: float | None, threshold_stage):
    """Part 1 of both pipelines: initial DFT, variance, threshold, comparator.

    ``threshold_stage(var, n, cfg)`` is the one stage the two pipelines do
    not share; it returns the threshold and a record of how it was computed.
    Returns the detection, the initial DFT and that record.
    """
    if cfg.amp_mode is AmpMode.ESTIMATE:
        sum_sq_amp = estimate_sum_sq_amplitudes(meas)
    elif sum_sq_amp is None:
        raise ValueError("oracle amplitude mode requires sum_sq_amp")
    var = missing_noise_variance(meas.pattern.n, meas.pattern.n_a, sum_sq_amp)
    t, record = threshold_stage(var, meas.pattern.n, cfg)
    v_spec = initial_dft(meas)  # last: every input is checked before the O(N·N_a) kernel
    pos = detect_positions(v_spec, t)
    return DetectionResult(threshold=t, variance=var, positions=pos), v_spec, record


def _solve(meas: Measurement, detection: DetectionResult) -> ReconstructionResult:
    """Parts 2 and 3: least squares on the detected bins, then the inverse DFT."""
    n = meas.pattern.n
    pos = detection.positions
    x_tp = ls_solve(build_cs_matrix(n, meas.pattern, pos), meas.values)
    spectrum = spectral_positioning(x_tp, pos, n)
    return ReconstructionResult(
        amplitudes=x_tp,
        spectrum=spectrum,
        time_signal=idft(spectrum),
        detection=detection,
    )


def reconstruct(
    meas: Measurement,
    cfg: ThresholdConfig,
    sum_sq_amp: float | None = None,
) -> ReconstructionResult:
    """Run the full pipeline on one measurement.

    ``sum_sq_amp`` is required in oracle amplitude mode and ignored in
    estimate mode, where the measurement power supplies it. An empty support is
    legitimate: the same solve on zero columns gives a zero spectrum, reported
    through ``empty_support``. Underdetermined and singular systems raise.
    """
    detection, _, _ = _detect(meas, cfg, sum_sq_amp, _reference_threshold)
    return _solve(meas, detection)


def write_spectrum_csv(path, spectrum: np.ndarray) -> None:
    """Write a spectrum as ``bin,re,im,magnitude`` rows."""
    spectrum = np.asarray(spectrum, dtype=complex)
    write_csv(
        path,
        ["bin", "re", "im", "magnitude"],
        ([i, v.real, v.imag, abs(v)] for i, v in enumerate(spectrum)),
    )


def write_detection_csv(path, detection: DetectionResult) -> None:
    """Write a one-row detection summary; positions are semicolon-separated."""
    write_csv(
        path,
        ["threshold", "variance", "n_detected", "positions"],
        [[detection.threshold, detection.variance, detection.n_detected,
          ";".join(str(int(p)) for p in detection.positions)]],
    )
