"""The reference and hardware pipelines share every stage but the threshold."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csrecon import recon_core
from csrecon.hw_datapath import (_fixed_threshold, part1_pipeline, reconstruct_hardware,
                                 threshold_fixed)
from csrecon.montecarlo import run_threshold_xcheck, run_variance_calibration
from csrecon.recon_core import (
    AmpMode,
    ReconstructionResult,
    SingularSystemError,
    ThresholdConfig,
    UnderdeterminedError,
    _detect,
    _reference_threshold,
    missing_noise_variance,
    reconstruct,
    threshold,
)
from csrecon.signal_model import (
    SparseSpec,
    estimate_sum_sq_amplitudes,
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)
from helpers import exact_tail_probability


def _measurement():
    spec = SparseSpec(n=64, components=[(1.0, 5), (1.5, 40)])
    return sample(synthesize(spec), random_pattern(64, 32, seed=3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("pipeline", [reconstruct, reconstruct_hardware, part1_pipeline])
def test_invalid_sum_sq_amp_rejected_on_every_path(pipeline, bad):
    meas = _measurement()
    with pytest.raises(ValueError, match="sum of squared amplitudes"):
        pipeline(meas, ThresholdConfig(p=0.99), bad)


@pytest.mark.parametrize("pipeline", [reconstruct, lambda *args: reconstruct_hardware(*args)[0]],
                         ids=["reference", "hardware"])
def test_empty_support_solves_to_positive_zeros_on_both_paths(pipeline):
    # an inflated amplitude oracle lifts the threshold above every bin
    result = pipeline(_measurement(), ThresholdConfig(p=0.99), 1e6)
    assert result.empty_support
    assert result.amplitudes.shape == (0,)
    for signal in (result.spectrum, result.time_signal):
        assert signal.shape == (64,)
        for part in (signal.real, signal.imag):
            assert np.all(part == 0.0) and not np.signbit(part).any()


@pytest.mark.parametrize("ssa, message", [
    (None, "oracle amplitude mode requires sum_sq_amp"),
    (math.nan, "sum of squared amplitudes must be finite and nonnegative, got nan"),
    (1e307, "threshold overflows: square-root argument is inf"),  # var = 16.25 * ssa
], ids=["missing", "nan", "overflow"])
@pytest.mark.parametrize("pipeline", [reconstruct, reconstruct_hardware, part1_pipeline])
def test_invalid_input_fails_before_the_initial_dft(monkeypatch, pipeline, ssa, message):
    def initial_dft(meas):
        raise AssertionError("the O(N·N_a) initial DFT ran before the inputs were checked")

    meas = _measurement()
    monkeypatch.setattr(recon_core, "initial_dft", initial_dft)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline(meas, ThresholdConfig(p=0.99), ssa)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_threshold_fixed_rejects_invalid_sum_sq_amp(bad):
    with pytest.raises(ValueError, match="sum of squared amplitudes"):
        threshold_fixed(64, 32, bad, 0.99)


def test_probability_next_to_one_gives_a_finite_threshold_on_both_paths():
    p = 0.9999999999999999  # 1 - p**(1/1024) rounds to 0; the exact value is 1.08e-19
    u = float(exact_tail_probability(p, 1024))
    var = missing_noise_variance(1024, 512, 1.0)
    want = math.sqrt(-var * math.log(u))
    assert threshold(var, 1024, ThresholdConfig(p=p)) == pytest.approx(want, rel=1e-12)
    assert threshold_fixed(1024, 512, 1.0, p).t_fixed == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("n, message", [
    (0, "signal length must be at least 2, got 0"),
    (-4, "signal length must be at least 2, got -4"),
    (64.5, "signal length must be a whole number, got 64.5"),
], ids=["zero", "negative", "fractional"])
@pytest.mark.parametrize("path", [
    lambda n: threshold(1.0, n, ThresholdConfig(p=0.99)),
    lambda n: threshold_fixed(n, 1, 1.0, 0.99),
], ids=["reference", "hardware"])
def test_invalid_length_rejected_alike_on_both_paths(path, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        path(n)


@pytest.mark.parametrize("variant, ssa", [("paper", 1e308), ("ref10", 1e307)])
def test_threshold_overflow_rejected_on_both_paths(variant, ssa):
    # n=64, n_a=32 gives var = 16.25 * ssa: inf for paper, whose scale var/n
    # overflows, and 1.6e308 for ref10, whose root argument -var * ln u does
    var = missing_noise_variance(64, 32, ssa)
    with pytest.raises(ValueError, match="threshold overflows"):
        threshold(var, 64, ThresholdConfig(p=0.99, variant=variant))
    with pytest.raises(ValueError, match="threshold overflows"):
        threshold_fixed(64, 32, ssa, 0.99, variant)


def test_paper_threshold_finite_where_squared_variance_overflows():
    # var = 1.6e161, so var**2 is inf, but T = var/n * sqrt(-log10 u) is 4.95e159
    var = missing_noise_variance(64, 32, 1e160)
    t_ref = threshold(var, 64, ThresholdConfig(p=0.99, variant="paper"))
    t_fix = threshold_fixed(64, 32, 1e160, 0.99, "paper").t_fixed
    assert t_ref == pytest.approx(4.95e159, rel=1e-3)
    assert abs(t_fix - t_ref) <= 1e-3 * t_ref


def test_paper_threshold_finite_where_q15_variance_overflows():
    # var = 1.6e305, so ldexp(var, 15) overflows a double; T = var/n * sqrt(-log10 u) is 4.95e303
    meas = sample(synthesize(SparseSpec(n=64, components=[(1e152, 5)])),
                  random_pattern(64, 32, seed=1))
    cfg = ThresholdConfig(p=0.99, variant="paper")
    ssa = 1e304
    ref = reconstruct(meas, cfg, ssa)
    hw, trace = reconstruct_hardware(meas, cfg, ssa)
    assert math.isfinite(ref.detection.threshold) and math.isfinite(hw.detection.threshold)
    assert ref.detection.threshold == pytest.approx(4.95e303, rel=1e-3)
    assert abs(hw.detection.threshold - ref.detection.threshold) <= 1e-3 * ref.detection.threshold
    assert trace.var_fixed == int(ref.detection.variance) << 15


@pytest.mark.parametrize("pipeline", [reconstruct, lambda *args: reconstruct_hardware(*args)[0]],
                         ids=["reference", "hardware"])
def test_memory_stays_bounded_at_large_n_on_both_paths(pipeline):
    # N=4096, N_a=2048: the whole initial-DFT kernel would be 128 MiB
    n, n_a = 4096, 2048
    bins = np.random.default_rng(16).permutation(n)[:16]
    spec = SparseSpec(n=n, components=[(1.0, int(k)) for k in bins])
    meas = sample(synthesize(spec), random_pattern(n, n_a, seed=5))
    tracemalloc.start()
    try:
        result = pipeline(meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    np.testing.assert_array_equal(result.detection.positions, np.sort(bins))


def _outcome(pipeline, meas, cfg, ssa):
    """The pipeline's result, or the type of the linear-algebra error it raised."""
    try:
        return pipeline(meas, cfg, ssa)
    except (SingularSystemError, UnderdeterminedError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=160),
    na_frac=st.floats(min_value=0.5, max_value=1.0),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p=st.floats(min_value=0.9, max_value=0.999),
    amp_mode=st.sampled_from(list(AmpMode)),
)
# positions {0, 2, 4, 6} alias bins 0 and 4, and both are detected: both paths
# raise SingularSystemError
@example(n=8, na_frac=0.5, k=1, seed=57658, p=0.9375, amp_mode=AmpMode.ORACLE)
@example(n=8, na_frac=0.5, k=1, seed=57658, p=0.9375, amp_mode=AmpMode.ESTIMATE)
def test_paths_differ_only_in_threshold(n, na_frac, k, seed, p, amp_mode):
    rng = np.random.default_rng(seed)
    k = min(k, n // 4)
    bins = rng.permutation(n)[:k]
    amps = rng.uniform(0.5, 2.0, size=k)
    spec = SparseSpec(n=n, components=list(zip(amps, bins)))
    n_a = max(1, min(n, round(na_frac * n)))
    meas = sample(synthesize(spec), random_pattern(n, n_a, seed))
    cfg = ThresholdConfig(p=p, amp_mode=amp_mode)
    ssa = sum_sq_amplitudes(spec)

    ref_detection, _, _ = _detect(meas, cfg, ssa, _reference_threshold)
    hw_detection, _, hw_trace = part1_pipeline(meas, cfg, ssa)
    ssa_used = ssa if amp_mode is AmpMode.ORACLE else estimate_sum_sq_amplitudes(meas)
    assert hw_trace == threshold_fixed(n, n_a, ssa_used, p, cfg.variant)
    ref = _outcome(reconstruct, meas, cfg, ssa)
    hw = _outcome(reconstruct_hardware, meas, cfg, ssa)

    if isinstance(ref, ReconstructionResult):
        np.testing.assert_array_equal(ref.detection.positions, ref_detection.positions)
    if isinstance(hw, tuple):
        hw, trace = hw
        np.testing.assert_array_equal(hw_detection.positions, hw.detection.positions)
        assert hw_trace == trace
        assert hw.detection.threshold == trace.t_fixed
        assert hw.detection.variance == ref_detection.variance
    if np.array_equal(ref_detection.positions, hw_detection.positions):
        if isinstance(ref, ReconstructionResult):
            assert isinstance(hw, ReconstructionResult)
            np.testing.assert_array_equal(hw.amplitudes, ref.amplitudes)
            np.testing.assert_array_equal(hw.time_signal, ref.time_signal)
        else:
            assert hw is ref


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=256),
    k=st.integers(min_value=1, max_value=4),
    na_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p=st.sampled_from([0.5, 0.9, 0.99]),
    j=st.integers(min_value=-60, max_value=60),
    amp_mode=st.sampled_from(list(AmpMode)),
    hardware=st.booleans(),
)
def test_ref10_detection_is_unchanged_by_scaling_the_amplitudes_by_a_power_of_two(
        n, k, na_frac, seed, p, j, amp_mode, hardware):
    # the signal, |V|, the variance (by 4**j) and T = sqrt(-var*ln u) all scale exactly, so the
    # comparator sees the same bins; paper's T, linear in the variance, does not scale with |V|
    rng = np.random.default_rng(seed)
    bins = rng.permutation(n)[:k].tolist()
    amps = rng.uniform(0.1, 10.0, size=k).tolist()
    pattern = random_pattern(n, max(1, min(n, round(na_frac * n))), seed)
    cfg = ThresholdConfig(p=p, amp_mode=amp_mode)
    stage = _fixed_threshold if hardware else _reference_threshold
    detected = []
    for scale in (1.0, 2.0**j):
        spec = SparseSpec(n=n, components=[(a * scale, b) for a, b in zip(amps, bins)])
        detection, _, _ = _detect(sample(synthesize(spec), pattern), cfg,
                                  sum_sq_amplitudes(spec), stage)
        detected.append(detection.positions.tobytes())
    assert detected[0] == detected[1]


def test_xcheck_agreement_is_pipeline_agreement():
    spec = SparseSpec(n=128, components=[(1.0, 9), (1.0, 70), (1.0, 101)])
    cfg = ThresholdConfig(p=0.99)
    ssa = sum_sq_amplitudes(spec)
    x = synthesize(spec)
    report = run_threshold_xcheck(spec, 64, cfg, trials=20, master_seed=5)
    for row in report.trials:
        meas = sample(x, random_pattern(spec.n, 64, row.seed))
        same = np.array_equal(
            reconstruct(meas, cfg, ssa).detection.positions,
            part1_pipeline(meas, cfg, ssa)[0].positions,
        )
        assert row.support_match == same


@pytest.mark.parametrize("n_a", [64, 128])
def test_calibration_counts_what_the_pipeline_detects(n_a):
    spec = SparseSpec(n=128, components=[(1.0, 37)])
    cfg = ThresholdConfig(p=0.9)
    ssa = sum_sq_amplitudes(spec)
    x = synthesize(spec)
    report = run_variance_calibration(spec, n_a, cfg, trials=100, master_seed=7)
    below = []
    for row in report.trials:
        meas = sample(x, random_pattern(spec.n, n_a, row.seed))
        detection, _, _ = _detect(meas, cfg, ssa, _reference_threshold)
        below.append(np.setdiff1d(detection.positions, spec.freq_bins).size == 0)
        assert row.all_below == below[-1]
    if n_a < spec.n:
        assert 0 < sum(below) < len(below)  # both outcomes are exercised
