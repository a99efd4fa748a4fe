"""The reference and hardware pipelines share every stage but the threshold."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csrecon.hw_datapath import part1_pipeline, reconstruct_hardware, threshold_fixed
from csrecon.montecarlo import run_threshold_xcheck
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
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)


def _measurement():
    spec = SparseSpec(n=64, components=[(1.0, 5), (1.5, 40)])
    return sample(synthesize(spec), random_pattern(64, 32, seed=3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("pipeline", [reconstruct, reconstruct_hardware, part1_pipeline])
def test_invalid_sum_sq_amp_rejected_on_every_path(pipeline, bad):
    meas = _measurement()
    with pytest.raises(ValueError, match="sum of squared amplitudes"):
        pipeline(meas, ThresholdConfig(p=0.99), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_threshold_fixed_rejects_invalid_sum_sq_amp(bad):
    with pytest.raises(ValueError, match="sum of squared amplitudes"):
        threshold_fixed(64, 32, bad, 0.99)


def test_probability_too_close_to_one_rejected_on_both_paths():
    p = 0.9999999999999999  # 1 - p**(1/1024) rounds to 0
    with pytest.raises(ValueError, match="too close to 1 for length 1024"):
        threshold(1.0, 1024, ThresholdConfig(p=p))
    with pytest.raises(ValueError, match="too close to 1 for length 1024"):
        threshold_fixed(1024, 512, 1.0, p)


@pytest.mark.parametrize("variant, ssa", [("paper", 1e160), ("ref10", 1e307)])
def test_threshold_overflow_rejected_on_both_paths(variant, ssa):
    # n=64, n_a=32 gives var = 16.25 * ssa; the root argument overflows to inf
    var = missing_noise_variance(64, 32, ssa)
    with pytest.raises(ValueError, match="threshold overflows"):
        threshold(var, 64, ThresholdConfig(p=0.99, variant=variant))
    with pytest.raises(ValueError, match="threshold overflows"):
        threshold_fixed(64, 32, ssa, 0.99, variant)


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
