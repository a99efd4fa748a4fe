"""Monte-Carlo harness: recovery sweeps, noise-model calibration, cross-path checks.

Each trial derives its own seed from the master seed and the trial index, so
results do not depend on execution order and can be distributed across
workers without changing the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hw_datapath import reconstruct_hardware, threshold_fixed
from .recon_core import (
    AmpMode,
    ReconstructionResult,
    ThresholdConfig,
    detect_positions,
    initial_dft,
    missing_noise_variance,
    reconstruct,
    threshold,
)
from .signal_model import (
    SparseSpec,
    _whole,
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)

__all__ = [
    "derive_trial_seed",
    "Metrics",
    "compute_metrics",
    "run_recovery_trials",
    "CalibrationTrial",
    "CalibrationResult",
    "run_variance_calibration",
    "XcheckTrial",
    "XcheckResult",
    "run_threshold_xcheck",
]


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial seed from (master seed, trial index)."""
    entropy = [int(_whole(master_seed, "master seed", least=0)),
               int(_whole(trial_index, "trial index", least=0))]
    seq = np.random.SeedSequence(entropy=entropy)
    return int(seq.generate_state(1)[0])


def _trials(x: np.ndarray, n_a: int, trials: int, master_seed: int):
    """Yield ``(trial, seed, meas)``: ``x`` sampled under each trial's own pattern."""
    for trial in range(int(_whole(trials, "trial count", least=1))):
        seed = derive_trial_seed(master_seed, trial)
        yield trial, seed, sample(x, random_pattern(x.size, n_a, seed))


def _oracle_model(spec: SparseSpec, n_a: int, cfg: ThresholdConfig):
    """The signal, its oracle sum of squared amplitudes and the model noise variance;
    refuses the estimate amplitude mode, which the noise model cannot honour."""
    if cfg.amp_mode is not AmpMode.ORACLE:
        raise ValueError("calibration and xcheck need the oracle amplitude mode, "
                         f"got '{cfg.amp_mode.value}'")
    ssa = sum_sq_amplitudes(spec)
    return synthesize(spec), ssa, missing_noise_variance(spec.n, n_a, ssa)


@dataclass(frozen=True)
class Metrics:
    """Quality figures for one reconstruction against the known truth."""

    support_exact: bool
    precision: float
    recall: float
    rel_mse_time: float
    threshold: float
    variance: float
    n_detected: int


def compute_metrics(
    result: ReconstructionResult,
    original: np.ndarray,
    true_support: np.ndarray,
) -> Metrics:
    """Support precision/recall and relative time-domain MSE."""
    original = np.asarray(original, dtype=complex)
    if original.shape != result.time_signal.shape:
        raise ValueError(f"original length {original.size} does not match "
                         f"reconstruction length {result.time_signal.size}")
    detected = set(int(i) for i in result.detection.positions)
    true = set(_whole(true_support, "true bin", original.size).ravel().tolist())
    hits = len(detected & true)
    precision = hits / len(detected) if detected else 1.0
    recall = hits / len(true) if true else 1.0
    denom = float(np.sum(np.abs(original) ** 2))
    err = float(np.sum(np.abs(result.time_signal - original) ** 2))
    rel_mse = err / denom if denom > 0.0 else err
    return Metrics(
        support_exact=detected == true,
        precision=precision,
        recall=recall,
        rel_mse_time=rel_mse,
        threshold=result.detection.threshold,
        variance=result.detection.variance,
        n_detected=result.detection.n_detected,
    )


def run_recovery_trials(
    spec: SparseSpec,
    n_a: int,
    cfg: ThresholdConfig,
    trials: int,
    master_seed: int,
    hardware: bool = False,
) -> list[Metrics]:
    """Reconstruct the same signal under independently drawn patterns."""
    x = synthesize(spec)
    ssa = sum_sq_amplitudes(spec)
    out = []
    for _, _, meas in _trials(x, n_a, trials, master_seed):
        if hardware:
            result, _ = reconstruct_hardware(meas, cfg, ssa)
        else:
            result = reconstruct(meas, cfg, ssa)
        out.append(compute_metrics(result, x, spec.freq_bins))
    return out


@dataclass(frozen=True)
class CalibrationTrial:
    trial: int
    seed: int
    noise_power_mean: float
    noise_mag_max: float
    all_below: bool


@dataclass(frozen=True)
class CalibrationResult:
    """Noise-model calibration over many random patterns.

    ``empirical_variance`` is the grand mean of |V|**2 over the non-signal
    bins, to be compared with ``model_variance``; ``p_hat`` is the fraction
    of trials where the pipelines' detection rule flagged no noise bin.
    """

    trials: tuple[CalibrationTrial, ...]
    threshold: float
    model_variance: float
    empirical_variance: float
    p_hat: float


def run_variance_calibration(
    spec: SparseSpec,
    n_a: int,
    cfg: ThresholdConfig,
    trials: int,
    master_seed: int,
) -> CalibrationResult:
    """Measure the noise-bin statistics of the initial DFT against the model.

    A trial counts as below the threshold when the pipelines' comparator,
    :func:`~csrecon.recon_core.detect_positions`, flags no noise bin.
    """
    x, _, var = _oracle_model(spec, n_a, cfg)
    t = threshold(var, spec.n, cfg)
    noise = np.ones(spec.n, dtype=bool)
    noise[spec.freq_bins] = False
    rows = []
    for trial, seed, meas in _trials(x, n_a, trials, master_seed):
        mags = np.abs(initial_dft(meas))
        noise_mags = mags[noise]
        all_below = not noise[detect_positions(mags, t)].any()
        rows.append(CalibrationTrial(trial, seed, float(np.mean(noise_mags**2)),
                                     float(noise_mags.max()), all_below))
    return CalibrationResult(
        trials=tuple(rows),
        threshold=t,
        model_variance=var,
        empirical_variance=float(np.mean([r.noise_power_mean for r in rows])),
        p_hat=sum(r.all_below for r in rows) / len(rows),
    )


@dataclass(frozen=True)
class XcheckTrial:
    trial: int
    seed: int
    support_match: bool


@dataclass(frozen=True)
class XcheckResult:
    """Reference vs fixed-point threshold agreement over random patterns.

    The thresholds depend on the signal and the sampling ratio, not on the
    pattern, so they and their relative error are run-level values.
    """

    trials: tuple[XcheckTrial, ...]
    threshold_ref: float
    threshold_fixed: float
    max_rel_err: float
    agreement_rate: float


def run_threshold_xcheck(
    spec: SparseSpec,
    n_a: int,
    cfg: ThresholdConfig,
    trials: int,
    master_seed: int,
) -> XcheckResult:
    """Compare thresholds and detected supports between the two paths."""
    x, ssa, var = _oracle_model(spec, n_a, cfg)
    t_ref = threshold(var, spec.n, cfg)
    t_fix = threshold_fixed(spec.n, n_a, ssa, cfg.p, cfg.variant).t_fixed
    rel_err = abs(t_fix - t_ref) / t_ref if t_ref > 0.0 else abs(t_fix)
    rows = []
    for trial, seed, meas in _trials(x, n_a, trials, master_seed):
        mags = np.abs(initial_dft(meas))
        pos_ref = detect_positions(mags, t_ref)
        pos_fix = detect_positions(mags, t_fix)
        rows.append(XcheckTrial(trial, seed, bool(np.array_equal(pos_ref, pos_fix))))
    return XcheckResult(
        trials=tuple(rows),
        threshold_ref=t_ref,
        threshold_fixed=t_fix,
        max_rel_err=rel_err,
        agreement_rate=sum(r.support_match for r in rows) / len(rows),
    )
