"""Monte-Carlo harness: recovery sweeps, noise-model calibration, cross-path checks.

Each trial derives its own seed from the master seed and the trial index, so
results do not depend on execution order and can be distributed across
workers without changing the outcome. A run seeds and draws all its trials in
one vectorised pass on the calling thread: a numpy restatement of
``SeedSequence``'s hash turns the trial indices into the trial seeds and each
seed into its pattern's ``PCG64`` state, and numpy's own permutation then
draws each pattern, so the seeds and patterns are those of
:func:`derive_trial_seed` and :func:`~csrecon.signal_model.random_pattern`
bit for bit. Every runner then takes the trials' |V| rows in chunks of at most
``_CHUNK_BYTES`` of spectra, each from one stacked initial DFT spread over the
usable CPUs with the bits of one call per trial; only the draws grow with T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hw_datapath import _fixed_threshold
from .recon_core import (
    _BLOCK_BYTES,
    AmpMode,
    DetectionResult,
    ReconstructionResult,
    ThresholdConfig,
    _above,
    _dense_dft,
    _levels,
    _mask_gram,
    _reference_threshold,
    _solve_stack,
    _twiddles,
    _underdetermined,
    idft,
    missing_noise_variance,
    threshold,
)
from .signal_model import (
    SparseSpec,
    _whole,
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
    """Stable per-trial seed from (master seed, trial index); a run derives the same seeds
    for all its trials at once (``_trial_seeds``)."""
    entropy = [int(_whole(master_seed, "master seed", least=0)),
               int(_whole(trial_index, "trial index", least=0))]
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1)[0])


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool of 4 uint32
# words, the hash of an entropy word into the pool, the mix of two pool words and the
# hash of the pool into output words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's hash: ``value`` (uint32, wrapping) hashed under the hash
    constant ``const``, and the constant the next step uses."""
    after = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(after)
    return value ^ (value >> 16), after


def _seed_hash(entropy: list[np.ndarray], words: int) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(words)`` for every column ``e`` of ``entropy``: a
    restatement of numpy's hash on uint32 arrays of one length, one array per entropy word
    (at most the pool's 4, so the hash's extra-entropy loop never runs; a missing word
    hashes as 0, as numpy pads) and one per output word. Pinned to numpy through its two
    callers' tests in ``tests/test_montecarlo.py``."""
    const, pool = _INIT_A, []
    for word in entropy + [np.zeros_like(entropy[0])] * (_POOL - len(entropy)):
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * word
                pool[dst] = mixed ^ (mixed >> 16)
    const, out = _INIT_B, []
    for i in range(words):
        word, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        out.append(word)
    return out


def _trial_seeds(master_seed: int, trials: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, i)`` for i in range(trials), as uint32: numpy's
    entropy words of the master seed (one below 2**32, else low then high) and the index.
    Pinned to numpy by ``test_run_seeds_equal_derive_trial_seed``."""
    words = [master_seed & _MASK32, master_seed >> 32] if master_seed >> 32 else [master_seed]
    entropy = [np.full(trials, w, dtype=np.uint32) for w in words]
    return _seed_hash(entropy + [np.arange(trials, dtype=np.uint32)], 1)[0]


def _patterns(n: int, n_a: int, seeds: np.ndarray) -> np.ndarray:
    """The (T, n_a) rows ``signal_model._draw(n, n_a, seed)`` for each uint32 seed. Each
    seed's 8 state words give ``PCG64(seed)``'s state by PCG's set-seq rule, which one reused
    generator takes through its public ``state`` setter before numpy's own permutation.
    Pinned to numpy by ``test_restated_draw_equals_draw``."""
    w = [word.astype(np.uint64) for word in _seed_hash([seeds], 8)]
    halves = [(w[2 * i] | w[2 * i + 1] << np.uint64(32)).tolist() for i in range(4)]
    rng = np.random.default_rng(0)  # its state is replaced before every draw
    pos = np.empty((seeds.size, n_a), dtype=np.int64)
    for row, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(*halves)):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        pos[row] = rng.permutation(n)[:n_a]
    return pos


def _draws(spec: SparseSpec, n_a: int, trials: int, master_seed: int):
    """The signal, each trial's seed, (T, n_a) positions and the signal there: random_pattern
    draws, whose rule makes distinct positions in [0, n) once 1 <= n_a <= n is checked. The
    trial count must stay below 2**32, as the trial indices are one uint32 word each."""
    n_a = int(_whole(n_a, "available count"))
    if not 1 <= n_a <= spec.n:
        raise ValueError(f"available count {n_a} outside [1, {spec.n}]")
    trials = int(_whole(trials, "trial count", least=1))
    if trials > _MASK32:
        raise ValueError(f"trial count must be below {_MASK32 + 1}, got {trials}")
    master_seed = int(_whole(master_seed, "master seed", least=0))
    seeds = _trial_seeds(master_seed, trials)
    x = synthesize(spec)
    pos = _patterns(x.size, n_a, seeds)
    values = x[pos]
    if not np.isfinite(values).all():
        raise ValueError("measurement values must be finite")
    return x, seeds.tolist(), pos, values


# the Monte-Carlo runners' byte budget: a chunk's (trials, N) complex stacks, and each stacked
# solve's (items, N_a, K) matrices with their conjugates, stay within it
_CHUNK_BYTES = _BLOCK_BYTES // 16


def _spectra(pos: np.ndarray, values: np.ndarray, n: int):
    """The runners' one initial-DFT call site: the (T, n_a) trials in equal chunks whose
    (trials, n) spectra fit ``_CHUNK_BYTES``, each as its trial slice and stacked |V| rows."""
    chunks = -(-len(pos) // max(1, _CHUNK_BYTES // (16 * n)))
    for i in range(chunks):
        span = slice(len(pos) * i // chunks, len(pos) * (i + 1) // chunks)
        yield span, np.abs(_dense_dft(values[span], pos[span], n))


def _noise_spectra(spec: SparseSpec, n_a: int, cfg: ThresholdConfig, trials: int, master_seed: int):
    """The noise model's variance and reference threshold, each trial's seed and the trials'
    |V| in ``_spectra`` chunks; refuses the estimate amplitude mode, as the model cannot honour it."""
    if cfg.amp_mode is not AmpMode.ORACLE:
        raise ValueError("calibration and xcheck need the oracle amplitude mode, "
                         f"got '{cfg.amp_mode.value}'")
    var = missing_noise_variance(spec.n, n_a, sum_sq_amplitudes(spec))
    t = threshold(var, spec.n, cfg)
    _, seeds, pos, values = _draws(spec, n_a, trials, master_seed)
    return var, t, seeds, _spectra(pos, values, spec.n)


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
    true = set(_whole(true_support, "true bin", original.size).ravel().tolist())
    return _metrics(result.detection, result.time_signal, original, true)


def _metrics(detection: DetectionResult, time_signal: np.ndarray, original: np.ndarray,
             true: set) -> Metrics:
    """:func:`compute_metrics` on checked inputs: ``true`` is the set of true bins."""
    detected = set(detection.positions.tolist())
    hits = len(detected & true)
    precision = hits / len(detected) if detected else 1.0
    recall = hits / len(true) if true else 1.0
    return Metrics(
        support_exact=detected == true,
        precision=precision,
        recall=recall,
        rel_mse_time=_rel_mse(time_signal, original),
        threshold=detection.threshold,
        variance=detection.variance,
        n_detected=detection.n_detected,
    )


def _rel_mse(time_signal: np.ndarray, original: np.ndarray) -> float:
    """sum |time_signal - original|**2 / sum |original|**2, or the error sum alone for an all-zero
    original. Where a plain sum overflows, both sums are taken over the signals divided by the
    peak |original|, so the ratio is finite wherever it is; elsewhere the plain sums stand."""
    with np.errstate(over="ignore"):  # an overflowing plain sum is redone scaled below
        denom = float(np.sum(np.abs(original) ** 2))
        err = float(np.sum(np.abs(time_signal - original) ** 2))
        if not (math.isfinite(denom) and math.isfinite(err)) and original.any():
            peak = np.abs(original).max()
            denom = float(np.sum(np.abs(original / peak) ** 2))
            err = float(np.sum(np.abs((time_signal - original) / peak) ** 2))
    return err / denom if denom > 0.0 else err


def run_recovery_trials(
    spec: SparseSpec,
    n_a: int,
    cfg: ThresholdConfig,
    trials: int,
    master_seed: int,
    hardware: bool = False,
) -> list[Metrics]:
    """Reconstruct the same signal under independently drawn patterns.

    Each trial's metrics have the bits of :func:`compute_metrics` on ``reconstruct`` of that
    trial's measurement, or on ``reconstruct_hardware`` with ``hardware``, and a run raises
    the error of the first trial that fails, whichever stage it fails in. The trials take their
    levels from the pipelines' level step, then run in the runners' chunks (``_spectra``),
    each with one comparator pass, one stacked solve per detected-bin count, one inverse DFT.
    """
    x, _, pos, values = _draws(spec, n_a, trials, master_seed)
    stage = _fixed_threshold if hardware else _reference_threshold
    levels, failure = _levels(values, spec.n, cfg, sum_sq_amplitudes(spec), stage)
    true = set(spec.freq_bins.tolist())
    out = []
    for span, mags in _spectra(pos[:len(levels)], values[:len(levels)], spec.n):
        out += _recover(x, pos[span], values[span], mags, levels[span], true)
    if failure is not None:
        raise failure
    return out


def _recover(x, pos, values, mags, levels, true) -> list[Metrics]:
    """:func:`run_recovery_trials` on one chunk of trials and |V| rows, against their thresholds."""
    n, n_a = x.size, pos.shape[1]
    above = _above(mags, np.array([[t] for _, t, _ in levels]))
    counts = above.sum(axis=1)
    spectra = np.zeros(mags.shape, dtype=complex)
    failures = []  # (trial in the chunk, its error)
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        if (error := _underdetermined(n_a, k)) is not None:  # every row fails, before any Gram
            failures.append((rows[0], error))
            continue
        bins = np.nonzero(above[rows])[1].reshape(rows.size, k)
        step = max(1, _CHUNK_BYTES // (32 * n_a * max(k, 1)))
        for s in range(0, rows.size, step):
            r, b = rows[s:s + step], bins[s:s + step]
            gram = _mask_gram(pos[r], b, n)
            amps, failure = _solve_stack(_twiddles(pos[r], b, n), values[r], gram)
            if failure is not None:
                failures.append((r[failure[0]], failure[1]))
                break
            spectra[r[:, None], b] = amps
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [_metrics(DetectionResult(t, var, np.flatnonzero(row)), signal, x, true)
            for row, signal, (var, t, _) in zip(above, idft(spectra), levels)]


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

    A trial counts as below the threshold when the pipelines' comparator rule, the
    one :func:`~csrecon.recon_core.detect_positions` applies, flags no noise bin.
    """
    var, t, seeds, chunks = _noise_spectra(spec, n_a, cfg, trials, master_seed)
    noise = np.ones(spec.n, dtype=bool)
    noise[spec.freq_bins] = False
    rows = []
    for span, mags in chunks:
        all_below = ~(_above(mags, t) & noise).any(axis=1)
        # row by row: np.mean along an axis sums in another order than on one row
        rows += [CalibrationTrial(i, seeds[i], float(np.mean(row**2)), float(row.max()), bool(b))
                 for i, (row, b) in enumerate(zip(mags[:, noise], all_below), span.start)]
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
    """Compare the pipelines' two threshold stages on one model variance, and the supports they detect."""
    var, t_ref, seeds, chunks = _noise_spectra(spec, n_a, cfg, trials, master_seed)
    t_fix = _fixed_threshold(var, spec.n, cfg)[0]
    rel_err = abs(t_fix - t_ref) / t_ref if t_ref > 0.0 else abs(t_fix)
    rows = []
    for span, mags in chunks:
        match = (_above(mags, t_ref) == _above(mags, t_fix)).all(axis=1)
        rows += [XcheckTrial(i, seeds[i], bool(m)) for i, m in enumerate(match, span.start)]
    return XcheckResult(
        trials=tuple(rows),
        threshold_ref=t_ref,
        threshold_fixed=t_fix,
        max_rel_err=rel_err,
        agreement_rate=sum(r.support_match for r in rows) / len(rows),
    )
