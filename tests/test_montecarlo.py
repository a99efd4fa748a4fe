import re

import numpy as np
import pytest

from csrecon.montecarlo import (
    compute_metrics,
    derive_trial_seed,
    run_recovery_trials,
    run_threshold_xcheck,
    run_variance_calibration,
)
from csrecon.recon_core import ThresholdConfig, reconstruct
from csrecon.signal_model import SparseSpec, random_pattern, sample, synthesize


@pytest.mark.parametrize("args, message", [
    ((42.9, 0), "master seed must be a whole number, got 42.9"),
    ((42, 0.5), "trial index must be a whole number, got 0.5"),
    ((2**63, 0), f"master seed must fit in 64 bits, got {2**63}"),
])
def test_trial_seed_inputs_must_be_whole(args, message):
    with pytest.raises(ValueError, match=message):
        derive_trial_seed(*args)


@pytest.mark.parametrize("args, message", [
    ((-1, 0), "master seed must be at least 0, got -1"),
    ((42, -1), "trial index must be at least 0, got -1"),
])
def test_trial_seed_inputs_must_be_nonnegative(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        derive_trial_seed(*args)


def test_trial_seeds_stable_and_distinct():
    assert derive_trial_seed(42, 0) == derive_trial_seed(42, 0)
    seeds = {derive_trial_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_trial_seed(42, 0) != derive_trial_seed(43, 0)


class TestComputeMetrics:
    def _result(self, seed=1):
        spec = SparseSpec(n=64, components=[(1.0, 5), (1.0, 20)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(64, 40, seed))
        return spec, x, reconstruct(meas, ThresholdConfig(p=0.99), 2.0)

    def test_exact_support(self):
        spec, x, res = self._result()
        m = compute_metrics(res, x, spec.freq_bins)
        assert m.support_exact
        assert m.precision == 1.0 and m.recall == 1.0
        assert m.rel_mse_time <= 1e-12
        assert m.n_detected == 2

    def test_partial_overlap(self):
        spec, x, res = self._result()
        # pretend the truth had an extra bin the detector missed
        m = compute_metrics(res, x, np.array([5, 20, 33]))
        assert not m.support_exact
        assert m.precision == 1.0
        assert m.recall == 2 / 3

    def test_false_positive(self):
        spec, x, res = self._result()
        m = compute_metrics(res, x, np.array([5]))
        assert not m.support_exact
        assert m.precision == 0.5
        assert m.recall == 1.0

    def test_original_length_must_match(self):
        spec, x, res = self._result()
        with pytest.raises(ValueError, match="original length 1 does not match reconstruction length 64"):
            compute_metrics(res, x[:1], spec.freq_bins)

    @pytest.mark.parametrize("truth, message", [
        ([3.7], "true bin must be a whole number, got 3.7"),
        ([5, 999], "true bin 999 outside [0, 64)"),
    ], ids=["fractional", "past-grid"])
    def test_true_bins_checked(self, truth, message):
        _, x, res = self._result()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_metrics(res, x, truth)

    def test_exactness_iff_unit_precision_and_recall(self):
        rng = np.random.default_rng(0)
        spec, x, res = self._result()
        for _ in range(50):
            truth = rng.choice(64, size=int(rng.integers(1, 5)), replace=False)
            m = compute_metrics(res, x, truth)
            assert m.support_exact == (m.precision == 1.0 and m.recall == 1.0)


def test_recovery_trials_reference_and_hardware():
    spec = SparseSpec(n=128, components=[(1.0, 9), (1.0, 40), (1.0, 100)])
    cfg = ThresholdConfig(p=0.99)
    for hardware in (False, True):
        metrics = run_recovery_trials(spec, 64, cfg, 20, master_seed=5, hardware=hardware)
        assert len(metrics) == 20
        assert sum(m.support_exact for m in metrics) >= 18


def test_recovery_trials_deterministic():
    spec = SparseSpec(n=64, components=[(1.0, 7)])
    cfg = ThresholdConfig(p=0.9)
    a = run_recovery_trials(spec, 32, cfg, 5, master_seed=3)
    b = run_recovery_trials(spec, 32, cfg, 5, master_seed=3)
    assert a == b


def test_variance_calibration_fields():
    spec = SparseSpec(n=128, components=[(1.0, 37)])
    report = run_variance_calibration(spec, 64, ThresholdConfig(p=0.9), 200, master_seed=7)
    assert len(report.trials) == 200
    assert abs(report.empirical_variance - report.model_variance) <= 0.1 * report.model_variance
    assert 0.0 <= report.p_hat <= 1.0
    assert report.threshold > 0.0


def test_variance_calibration_full_sampling_vacuous():
    spec = SparseSpec(n=64, components=[(1.0, 7)])
    report = run_variance_calibration(spec, 64, ThresholdConfig(p=0.9), 100, master_seed=1)
    assert report.model_variance == 0.0
    assert report.empirical_variance <= 1e-18
    assert report.p_hat == 1.0  # vacuous: threshold 0, noise bins exactly 0


def test_xcheck_zero_variance_agrees_everywhere():
    spec = SparseSpec(n=64, components=[(1.0, 7)])
    report = run_threshold_xcheck(spec, 64, ThresholdConfig(p=0.99), 50, master_seed=2)
    assert report.max_rel_err == 0.0
    assert report.agreement_rate == 1.0
    assert report.threshold_ref == 0.0 and report.threshold_fixed == 0.0


def test_xcheck_half_sampling():
    spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
    report = run_threshold_xcheck(spec, 128, ThresholdConfig(p=0.99), 50, master_seed=2)
    assert report.max_rel_err <= 1e-3
    assert report.agreement_rate >= 0.98


@pytest.mark.parametrize(
    "run", [run_recovery_trials, run_variance_calibration, run_threshold_xcheck]
)
def test_zero_trials_rejected(run):
    spec = SparseSpec(n=64, components=[(1.0, 7)])
    with pytest.raises(ValueError, match="trial count must be at least 1"):
        run(spec, 32, ThresholdConfig(p=0.9), 0, master_seed=1)


@pytest.mark.parametrize(
    "run", [run_recovery_trials, run_variance_calibration, run_threshold_xcheck]
)
def test_fractional_trial_count_rejected(run):
    spec = SparseSpec(n=64, components=[(1.0, 7)])
    with pytest.raises(ValueError, match="trial count must be a whole number, got 2.5"):
        run(spec, 32, ThresholdConfig(p=0.9), 2.5, master_seed=1)


@pytest.mark.parametrize("run", [run_variance_calibration, run_threshold_xcheck])
def test_noise_model_sweeps_refuse_estimate_amplitudes(run):
    spec = SparseSpec(n=64, components=[(1.0, 7)])
    cfg = ThresholdConfig(p=0.9, amp_mode="estimate")
    # a trial count of 0 is refused only when the first trial is drawn, so this message
    # shows that the mode is checked before any trial runs
    with pytest.raises(ValueError, match="^calibration and xcheck need the oracle amplitude mode, got 'estimate'$"):
        run(spec, 32, cfg, 0, master_seed=1)
