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

from .csvio import fmt, write_csv
from .signal_model import (Measurement, SamplingPattern, _whole, estimate_sum_sq_amplitudes,
                           spectral_positioning)

__all__ = [
    "ThresholdVariant",
    "AmpMode",
    "ThresholdConfig",
    "DetectionResult",
    "ReconstructionResult",
    "EmptySupportError",
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


class EmptySupportError(ValueError):
    """No bins were detected; there is nothing to solve for."""


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
        object.__setattr__(self, "p", float(self.p))
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
    n = meas.pattern.n
    freqs = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(freqs, meas.pattern.positions) / n)
    return kernel @ meas.values


def missing_noise_variance(n: int, n_a: int, sum_sq_amp: float) -> float:
    """Variance of the spectral noise caused by the missing samples.

    ``var = (n - n_a) * n_a / (n - 1) * sum_sq_amp``: randomly omitting
    samples perturbs every DFT bin, and the perturbation's second moment
    follows the without-replacement sampling variance of the phase sums.
    """
    n = int(_whole(n, "signal length", least=2))
    n_a = int(_whole(n_a, "available count"))
    sum_sq_amp = float(sum_sq_amp)
    if not 1 <= n_a <= n:
        raise ValueError(f"available count {n_a} outside [1, {n}]")
    if not (math.isfinite(sum_sq_amp) and sum_sq_amp >= 0.0):
        raise ValueError(f"sum of squared amplitudes must be finite and nonnegative, got {sum_sq_amp}")
    return (n - n_a) * n_a / (n - 1) * sum_sq_amp


def _tail_probability(p: float, n: int) -> float:
    """``1 - p**(1/n)``, which both threshold paths take the logarithm of;
    rejects a length that is not a whole number of at least 2, and a ``p`` so
    close to 1 that the result rounds to 0."""
    n = int(_whole(n, "signal length", least=2))
    u = 1.0 - p ** (1.0 / n)
    if u <= 0.0:
        raise ValueError(f"probability {p} is too close to 1 for length {n}")
    return u


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
    var = float(var)
    if not var >= 0.0:
        raise ValueError(f"variance must be nonnegative, got {var}")
    ln_u = math.log(_tail_probability(cfg.p, n))
    scale, root_arg = _threshold_terms(var, ln_u, n, cfg.variant)
    return scale * math.sqrt(root_arg)


def detect_positions(v_spec: np.ndarray, t: float) -> np.ndarray:
    """The comparator: ascending indices of the bins whose magnitude strictly
    exceeds :func:`effective_threshold`. ``v_spec`` is the spectrum or |V|."""
    if not t >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    mags = np.abs(v_spec)
    return np.flatnonzero(mags > effective_threshold(t, mags)).astype(np.int64, copy=False)


def effective_threshold(t: float, v_spec: np.ndarray) -> float:
    """Detection level: ``t`` or 1e-9 of the peak of |``v_spec``|, whichever is larger.

    The floor keeps double-precision dust in bins that are zero in exact
    arithmetic from being detected when the modeled threshold is exactly
    zero (no missing samples); above it the floor has no effect.
    """
    return max(float(t), 1e-9 * float(np.abs(v_spec).max(initial=0.0)))


def build_cs_matrix(n: int, pattern: SamplingPattern, pos: np.ndarray) -> np.ndarray:
    """Partial inverse-DFT matrix: available-sample rows, detected-bin columns.

    ``a[m, i] = (1/n) * exp(+2j*pi*positions[m]*pos[i]/n)``. With this
    convention the measurement equals the matrix applied to the unnormalized
    DFT restricted to the detected bins, so the solved amplitudes land on the
    same scale as the initial DFT. Entries come from an n-entry twiddle table
    at the phase index ``positions[m]*pos[i] mod n``, reduced exactly in int64.
    """
    n = int(_whole(n, "signal length"))
    if n != pattern.n:
        raise ValueError(f"signal length {n} does not match pattern length {pattern.n}")
    pos = _whole(pos, "frequency bin", n)
    if pos.size == 0:
        raise EmptySupportError("no detected bins to build the matrix from")
    if pos.size > pattern.n_a:
        raise UnderdeterminedError(
            f"{pos.size} detected bins but only {pattern.n_a} measurements"
        )
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
    factorization (LAPACK, through numpy). The gate is the R of a QR of
    ``AᴴA``: :class:`SingularSystemError` is raised when R has a diagonal
    entry below 1e-10 of the largest. A non-finite ``AᴴA`` or ``Aᴴv`` raises
    :class:`ValueError` before the gate. For a consistent system, i.e. the true
    support under noiseless sampling, the solution is exactly n times the
    component amplitudes.
    """
    a_cs = np.asarray(a_cs, dtype=complex)
    v = np.asarray(v, dtype=complex)
    rows, cols = a_cs.shape
    if rows < cols:
        raise UnderdeterminedError(f"{cols} unknowns but only {rows} measurements")
    if v.shape != (rows,):
        raise ValueError(f"right-hand side length {v.shape} does not match {rows} rows")
    ah = hermitian(a_cs)
    with np.errstate(invalid="ignore", over="ignore"):  # reported below
        gram, rhs = ah @ a_cs, ah @ v
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise ValueError("least-squares system is not finite (NaN, inf or overflow in AᴴA or Aᴴv)")
    diag = np.abs(np.diag(np.linalg.qr(gram, mode="r")))
    if diag.max() == 0.0 or diag.min() < 1e-10 * diag.max():
        raise SingularSystemError(
            "normal-equation matrix is numerically singular "
            f"(diagonal spread {diag.min():.3e} / {diag.max():.3e})"
        )
    return np.linalg.solve(gram, rhs)


def idft(x_spec: np.ndarray) -> np.ndarray:
    """Inverse DFT, ``x[t] = (1/n) * sum_f X[f] * exp(+2j*pi*f*t/n)``."""
    return np.fft.ifft(np.asarray(x_spec, dtype=complex))


def _reference_threshold(pattern: SamplingPattern, ssa: float, var: float, cfg: ThresholdConfig):
    """Threshold stage of the reference pipeline: the closed form, no record."""
    return threshold(var, pattern.n, cfg), None


def _detect(meas: Measurement, cfg: ThresholdConfig, sum_sq_amp: float | None, threshold_stage):
    """Part 1 of both pipelines: initial DFT, variance, threshold, comparator.

    ``threshold_stage(pattern, ssa, var, cfg)`` is the one stage the two
    pipelines do not share; it returns the threshold and a record of how it
    was computed. Returns the detection, the initial DFT and that record.
    """
    v_spec = initial_dft(meas)
    if cfg.amp_mode is AmpMode.ORACLE:
        if sum_sq_amp is None:
            raise ValueError("oracle amplitude mode requires sum_sq_amp")
        ssa = float(sum_sq_amp)
    else:
        ssa = estimate_sum_sq_amplitudes(meas)
    var = missing_noise_variance(meas.pattern.n, meas.pattern.n_a, ssa)
    t, record = threshold_stage(meas.pattern, ssa, var, cfg)
    pos = detect_positions(v_spec, t)
    return DetectionResult(threshold=t, variance=var, positions=pos), v_spec, record


def _solve(meas: Measurement, detection: DetectionResult) -> ReconstructionResult:
    """Parts 2 and 3: least squares on the detected bins, then the inverse DFT."""
    n = meas.pattern.n
    pos = detection.positions
    if pos.size == 0:
        x_tp = np.zeros(0, dtype=complex)
    else:
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
    estimate mode, where the measurement power supplies it. An empty support
    is a legitimate outcome reported through ``empty_support`` with a zero
    spectrum; underdetermined and singular systems raise instead.
    """
    detection, _, _ = _detect(meas, cfg, sum_sq_amp, _reference_threshold)
    return _solve(meas, detection)


def write_spectrum_csv(path, spectrum: np.ndarray) -> None:
    """Write a spectrum as ``bin,re,im,magnitude`` rows."""
    spectrum = np.asarray(spectrum, dtype=complex)
    write_csv(
        path,
        ["bin", "re", "im", "magnitude"],
        ([i, fmt(v.real), fmt(v.imag), fmt(abs(v))] for i, v in enumerate(spectrum)),
    )


def write_detection_csv(path, detection: DetectionResult) -> None:
    """Write a one-row detection summary; positions are semicolon-separated."""
    write_csv(
        path,
        ["threshold", "variance", "n_detected", "positions"],
        [[fmt(detection.threshold), fmt(detection.variance), detection.n_detected,
          ";".join(str(int(p)) for p in detection.positions)]],
    )
