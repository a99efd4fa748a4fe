import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrecon.csvio import write_trace_csv
from csrecon.hw_datapath import (
    comparator,
    part1_pipeline,
    reconstruct_hardware,
    threshold_fixed,
)
from csrecon.recon_core import (
    ThresholdConfig,
    ThresholdVariant,
    detect_positions,
    initial_dft,
    missing_noise_variance,
    threshold,
)
from csrecon.signal_model import (
    SamplingPattern,
    SparseSpec,
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)


def ssa_for_variance(var, n, n_a):
    """Invert the variance model to hit a target variance."""
    return var * (n - 1) / ((n - n_a) * n_a)


class TestThresholdFixed:
    def test_zero_variance(self):
        trace = threshold_fixed(128, 128, 5.0, 0.99)
        assert trace.t_fixed == 0.0
        assert trace.root_in == 0
        assert trace.root_out == (0, 0)

    def test_matches_reference_printed_form(self):
        ssa = 1.0
        var = missing_noise_variance(256, 128, ssa)
        t_ref = threshold(var, 256, ThresholdConfig(p=0.99, variant="paper"))
        trace = threshold_fixed(256, 128, ssa, 0.99, "paper")
        assert t_ref == pytest.approx(0.527, abs=5e-4)
        assert abs(trace.t_fixed - t_ref) <= 1e-3 * t_ref

    def test_matches_reference_tail_form(self):
        ssa = 3.0
        var = missing_noise_variance(256, 128, ssa)
        t_ref = threshold(var, 256, ThresholdConfig(p=0.99, variant="ref10"))
        trace = threshold_fixed(256, 128, ssa, 0.99, "ref10")
        assert t_ref == pytest.approx(44.2, abs=0.05)
        assert abs(trace.t_fixed - t_ref) <= 1e-3 * t_ref

    @pytest.mark.parametrize("variant", ["paper", "ref10"])
    @pytest.mark.parametrize("var", [1e-3, 1.0, 1e4, 1e9])
    def test_relative_error_spot_grid(self, variant, var):
        n, n_a = 256, 128
        ssa = ssa_for_variance(var, n, n_a)
        var_exact = missing_noise_variance(n, n_a, ssa)
        t_ref = threshold(var_exact, n, ThresholdConfig(p=0.9, variant=variant))
        trace = threshold_fixed(n, n_a, ssa, 0.9, variant)
        assert abs(trace.t_fixed - t_ref) <= 1e-3 * t_ref

    def test_monotone_in_variance(self):
        n, n_a = 256, 128
        vars_ = np.logspace(-2, 8, 60)
        ts = [
            threshold_fixed(n, n_a, ssa_for_variance(v, n, n_a), 0.99).t_fixed
            for v in vars_
        ]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_trace_internals_consistent(self):
        trace = threshold_fixed(256, 128, 3.0, 0.99, "ref10")
        root, rem = trace.root_out
        assert root * root + rem == trace.root_in
        assert trace.scale_shift % 2 == 0
        assert trace.log_term.raw < 0  # log of a value below one

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            threshold_fixed(128, 64, 1.0, 1.5)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=65536),
        na_frac=st.floats(min_value=0.0, max_value=1.0),
        p=st.floats(min_value=0.5, max_value=0.9999),
        log10_var=st.floats(min_value=-6.0, max_value=300.0),
        variant=st.sampled_from(list(ThresholdVariant)),
    )
    def test_relative_error_property(self, n, na_frac, p, log10_var, variant):
        n_a = 1 + round(na_frac * (n - 2))  # in [1, n - 1]
        ssa = ssa_for_variance(10.0**log10_var, n, n_a)
        t_ref = threshold(
            missing_noise_variance(n, n_a, ssa), n, ThresholdConfig(p=p, variant=variant)
        )
        t_fix = threshold_fixed(n, n_a, ssa, p, variant).t_fixed
        assert abs(t_fix - t_ref) <= 1e-3 * t_ref

    @settings(max_examples=300, deadline=None)
    @given(ssa=st.floats(min_value=0.0, max_value=3e302))
    def test_q15_variance_matches_float_rounding(self, ssa):
        # var = 16.25 * ssa stays below 5.5e303, where ldexp(var, 15) is still finite
        var = missing_noise_variance(64, 32, ssa)
        assert threshold_fixed(64, 32, ssa, 0.99, "paper").var_fixed == round(math.ldexp(var, 15))

    def test_q15_variance_exact_past_double_range(self):
        var = missing_noise_variance(64, 32, 1e306)  # 1.6e307: times 2**15 overflows a double
        trace = threshold_fixed(64, 32, 1e306, 0.99, "paper")
        assert trace.var_fixed == int(var) * 2**15
        assert math.isfinite(trace.t_fixed)


class TestComparator:
    def test_single_peak(self):
        bits = comparator(np.array([0, 10, 0, 0]), 5.0)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, [0, 1, 0, 0])

    def test_strict_at_zero(self):
        bits = comparator(np.zeros(4), 0.0)
        np.testing.assert_array_equal(bits, [0, 0, 0, 0])

    def test_matches_detect_positions(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.normal(size=64) + 1j * rng.normal(size=64)
            t = float(rng.uniform(0, 2))
            np.testing.assert_array_equal(
                np.flatnonzero(comparator(v, t)), detect_positions(v, t)
            )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            comparator(np.zeros(4), -1.0)


class TestPart1Pipeline:
    def test_full_sampling(self):
        spec = SparseSpec(n=32, components=[(1.0, 3), (2.0, 17)])
        x = synthesize(spec)
        meas = sample(x, SamplingPattern(n=32, positions=np.arange(32)))
        detection, v_spec, trace = part1_pipeline(
            meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec)
        )
        assert trace.t_fixed == 0.0
        np.testing.assert_array_equal(detection.positions, [3, 17])
        np.testing.assert_allclose(v_spec, initial_dft(meas), atol=1e-12)

    def test_agreement_with_reference(self):
        spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
        x = synthesize(spec)
        cfg = ThresholdConfig(p=0.99)
        ssa = sum_sq_amplitudes(spec)
        var = missing_noise_variance(256, 128, ssa)
        t_ref = threshold(var, 256, cfg)
        agree = 0
        for seed in range(50):
            meas = sample(x, random_pattern(256, 128, seed))
            detection, v_spec, _ = part1_pipeline(meas, cfg, ssa)
            if np.array_equal(detection.positions, detect_positions(v_spec, t_ref)):
                agree += 1
        assert agree >= 49

    def test_boundary_magnitudes_flip_outside_error_band(self):
        # place magnitudes 1% on either side of the reference threshold;
        # with the fixed threshold within 0.1% both paths agree on them
        n, n_a, ssa, p = 256, 128, 3.0, 0.99
        var = missing_noise_variance(n, n_a, ssa)
        t_ref = threshold(var, n, ThresholdConfig(p=p))
        t_fix = threshold_fixed(n, n_a, ssa, p).t_fixed
        v = np.zeros(n, dtype=complex)
        v[10] = t_ref * 1.01
        v[20] = t_ref * 0.99
        detected = np.flatnonzero(comparator(v, t_fix))
        np.testing.assert_array_equal(detected, detect_positions(v, t_ref))
        np.testing.assert_array_equal(detected, [10])


class TestReconstructHardware:
    def test_matches_reference_on_clean_case(self):
        spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(256, 128, seed=1))
        result, trace = reconstruct_hardware(
            meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec)
        )
        np.testing.assert_array_equal(result.detection.positions, [10, 60, 201])
        assert result.detection.threshold == trace.t_fixed
        rel_mse = np.sum(np.abs(result.time_signal - x) ** 2) / np.sum(np.abs(x) ** 2)
        assert rel_mse <= 1e-12

    def test_empty_support(self):
        spec = SparseSpec(n=16, components=[(1.0, 3)])
        meas = sample(synthesize(spec), random_pattern(16, 8, seed=7))
        result, _ = reconstruct_hardware(meas, ThresholdConfig(p=0.99), 1e6)
        assert result.empty_support
        np.testing.assert_array_equal(result.spectrum, np.zeros(16))


class TestTraceCsv:
    def test_stage_rows(self, tmp_path):
        trace = threshold_fixed(256, 128, 3.0, 0.99)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,raw_value,scaled_value"
        stages = [line.split(",")[0] for line in lines[1:]]
        assert stages == [
            "variance", "log2_term", "root_in", "root",
            "remainder", "scale_shift", "threshold",
        ]
