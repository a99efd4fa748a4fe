import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csrecon.hw_datapath import comparator
from csrecon.recon_core import (
    AmpMode,
    EmptySupportError,
    SingularSystemError,
    ThresholdConfig,
    ThresholdVariant,
    UnderdeterminedError,
    build_cs_matrix,
    detect_positions,
    effective_threshold,
    hermitian,
    idft,
    initial_dft,
    ls_solve,
    missing_noise_variance,
    reconstruct,
    spectral_positioning,
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
from helpers import brute_force_idft, brute_force_initial_dft


def full_measurement(x):
    n = len(x)
    return sample(x, SamplingPattern(n=n, positions=np.arange(n)))


class TestInitialDft:
    def test_full_sampling_orthogonality(self):
        x = synthesize(SparseSpec(n=8, components=[(1.0, 2)]))
        v = initial_dft(full_measurement(x))
        assert abs(v[2] - 8.0) <= 1e-12
        others = np.delete(v, 2)
        assert np.max(np.abs(others)) <= 1e-12

    def test_full_sampling_multitone_bins(self):
        # tone bins carry n times the amplitude, everything else is dust
        spec = SparseSpec(n=128, components=[(1.0, 5), (2.0, 17), (0.5, 99)])
        v = initial_dft(full_measurement(synthesize(spec)))
        np.testing.assert_allclose(
            v[spec.freq_bins], 128 * spec.amplitudes, atol=1e-9
        )
        noise = np.delete(v, spec.freq_bins)
        assert np.max(np.abs(noise)) <= 1e-9

    def test_single_sample_at_origin(self):
        pat = SamplingPattern(n=4, positions=[0])
        meas = sample(np.array([3 - 1j, 0, 0, 0]), pat)
        np.testing.assert_allclose(initial_dft(meas), np.full(4, 3 - 1j), atol=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        meas = sample(x, random_pattern(64, 20, seed=9))
        got = initial_dft(meas)
        want = brute_force_initial_dft(meas.values, meas.pattern.positions, 64)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_permutation_invariance(self):
        # the spectrum depends only on (value, position) pairs
        rng = np.random.default_rng(6)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        pat = random_pattern(32, 12, seed=2)
        order = rng.permutation(12)
        shuffled = SamplingPattern(n=32, positions=pat.positions[order])
        np.testing.assert_allclose(
            initial_dft(sample(x, pat)),
            initial_dft(sample(x, shuffled)),
            atol=1e-9,
        )


class TestMissingNoiseVariance:
    def test_no_missing_samples(self):
        assert missing_noise_variance(128, 128, 3.0) == 0.0

    def test_direct_arithmetic(self):
        got = missing_noise_variance(256, 128, 1.0)
        assert got == pytest.approx(16384 / 255, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            missing_noise_variance(1, 1, 1.0)
        with pytest.raises(ValueError):
            missing_noise_variance(8, 9, 1.0)
        with pytest.raises(ValueError):
            missing_noise_variance(8, 4, -1.0)

    def test_matches_monte_carlo(self):
        # empirical noise-bin power of the initial DFT against the model
        n, n_a = 128, 64
        spec = SparseSpec(n=n, components=[(1.0, 37)])
        x = synthesize(spec)
        powers = []
        for seed in range(2000):
            v = initial_dft(sample(x, random_pattern(n, n_a, seed)))
            noise = np.delete(v, 37)
            powers.append(np.mean(np.abs(noise) ** 2))
        model = missing_noise_variance(n, n_a, 1.0)
        assert abs(np.mean(powers) - model) <= 0.10 * model


class TestThreshold:
    def test_zero_variance(self):
        for variant in ThresholdVariant:
            cfg = ThresholdConfig(p=0.99, variant=variant)
            assert threshold(0.0, 256, cfg) == 0.0

    def test_printed_form(self):
        var = 16384 / 255
        cfg = ThresholdConfig(p=0.99, variant="paper")
        expected = math.sqrt(-(var**2) * math.log10(1.0 - 0.99 ** (1.0 / 256))) / 256
        assert threshold(var, 256, cfg) == pytest.approx(expected, rel=1e-12)
        assert threshold(var, 256, cfg) == pytest.approx(0.527, abs=5e-4)

    def test_tail_consistent_form(self):
        var = 49152 / 255  # three unit tones, half of 256 samples
        cfg = ThresholdConfig(p=0.99, variant="ref10")
        expected = math.sqrt(-var * math.log(1.0 - 0.99 ** (1.0 / 256)))
        assert threshold(var, 256, cfg) == pytest.approx(expected, rel=1e-12)
        assert threshold(var, 256, cfg) == pytest.approx(44.2, abs=0.05)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ThresholdConfig(p=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(p=1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            threshold(-1.0, 64, ThresholdConfig(p=0.9))


class TestDetectPositions:
    def test_single_peak(self):
        np.testing.assert_array_equal(detect_positions([0, 10, 0, 0], 5.0), [1])

    def test_all_below(self):
        assert detect_positions([1, 2, 3], 5.0).size == 0

    def test_exact_tie_excluded(self):
        np.testing.assert_array_equal(detect_positions([5.0, 5.0001, 3j], 5.0), [1])

    def test_sorted_ascending(self):
        pos = detect_positions([9, 0, 7, 0, 8], 1.0)
        np.testing.assert_array_equal(pos, [0, 2, 4])

    @staticmethod
    def assert_forms_agree(v, t):
        mags = np.abs(v)
        expected = np.flatnonzero(mags > max(t, 1e-9 * mags.max()))
        for got in (detect_positions(v, t), detect_positions(mags, t),
                    np.flatnonzero(comparator(v, t))):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_spectrum_and_magnitudes_agree(self, data):
        # entries mix exact zeros, exact ties at t, dust near 1e-9 of the
        # peak and ordinary values, so every side of the level is reached
        t = data.draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0]) | st.floats(0.0, 10.0))
        value = st.builds(complex, st.floats(-10, 10), st.floats(-10, 10))
        dust = st.builds(complex, st.floats(-1e-8, 1e-8), st.floats(-1e-8, 1e-8))
        entry = st.sampled_from([0j, complex(t), complex(-t), 1j * t]) | value | dust
        v = np.array(data.draw(st.lists(entry, min_size=1, max_size=64)), dtype=complex)
        self.assert_forms_agree(v, t)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 16])
    def test_all_zero_spectrum_detects_nothing(self, n, t):
        v = np.zeros(n, dtype=complex)
        self.assert_forms_agree(v, t)
        assert detect_positions(v, t).size == 0


class TestEffectiveThreshold:
    def test_floor_sets_level_at_zero_threshold(self):
        v = np.array([3.0, -4.0j, 1e-12, 0.0])
        assert effective_threshold(0.0, v) == 1e-9 * 4.0
        np.testing.assert_array_equal(detect_positions(v, effective_threshold(0.0, v)), [0, 1])
        np.testing.assert_array_equal(detect_positions(v, 0.0), [0, 1])

    def test_no_effect_above_floor(self):
        v = np.array([3.0, -4.0j, 1e-12, 0.0])
        for t in (4e-9, 1e-6, 3.5, 10.0):
            assert effective_threshold(t, v) == t


class TestBuildCsMatrix:
    def test_full_matrix_is_synthesis_matrix(self):
        pat = SamplingPattern(n=4, positions=np.arange(4))
        a = build_cs_matrix(4, pat, np.arange(4))
        t, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        expected = np.exp(2j * np.pi * t * k / 4) / 4
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_half_turn_column(self):
        pat = SamplingPattern(n=4, positions=[0, 2])
        a = build_cs_matrix(4, pat, [1])
        np.testing.assert_allclose(a, [[0.25], [-0.25]], atol=1e-15)

    def test_shape(self):
        pat = random_pattern(64, 32, seed=0)
        assert build_cs_matrix(64, pat, np.arange(5)).shape == (32, 5)

    def test_entry_magnitude(self):
        pat = random_pattern(32, 10, seed=1)
        a = build_cs_matrix(32, pat, [3, 7, 30])
        np.testing.assert_allclose(np.abs(a), 1 / 32, atol=1e-15)

    def test_empty_support(self):
        pat = random_pattern(8, 4, seed=0)
        with pytest.raises(EmptySupportError):
            build_cs_matrix(8, pat, np.array([], dtype=int))

    def test_underdetermined(self):
        pat = random_pattern(8, 2, seed=0)
        with pytest.raises(UnderdeterminedError):
            build_cs_matrix(8, pat, [1, 2, 3])


class TestHermitian:
    def test_real_diagonal_fixed(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        np.testing.assert_array_equal(hermitian(m), m)

    def test_imaginary_unit(self):
        np.testing.assert_array_equal(hermitian(np.array([[1j]])), [[-1j]])

    def test_involution(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        np.testing.assert_array_equal(hermitian(hermitian(m)), m)


class TestLsSolve:
    def test_full_sampling_tone(self):
        x = synthesize(SparseSpec(n=4, components=[(3.0, 1)]))
        meas = full_measurement(x)
        a = build_cs_matrix(4, meas.pattern, [1])
        np.testing.assert_allclose(ls_solve(a, meas.values), [12.0], atol=1e-9)

    def test_half_sampling_consistent(self):
        x = synthesize(SparseSpec(n=4, components=[(3.0, 1)]))
        pat = SamplingPattern(n=4, positions=[0, 2])
        meas = sample(x, pat)
        a = build_cs_matrix(4, pat, [1])
        np.testing.assert_allclose(ls_solve(a, meas.values), [12.0], atol=1e-9)

    def test_against_pseudo_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pat = random_pattern(32, 12, int(rng.integers(1 << 30)))
            a = build_cs_matrix(32, pat, rng.choice(32, size=4, replace=False))
            v = rng.normal(size=12) + 1j * rng.normal(size=12)
            got = ls_solve(a, v)
            want, *_ = np.linalg.lstsq(a, v, rcond=None)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_recovers_scaled_amplitudes(self):
        spec = SparseSpec(n=64, components=[(1.0, 4), (2.5, 20), (0.5, 51)])
        x = synthesize(spec)
        pat = random_pattern(64, 32, seed=3)
        meas = sample(x, pat)
        a = build_cs_matrix(64, pat, spec.freq_bins)
        got = ls_solve(a, meas.values)
        np.testing.assert_allclose(got, 64 * spec.amplitudes, rtol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exact_recovery_property(self, data):
        n = data.draw(st.integers(min_value=16, max_value=512), label="n")
        k = data.draw(st.integers(min_value=1, max_value=min(12, n // 2)), label="k")
        n_a = data.draw(st.integers(min_value=2 * k, max_value=n), label="n_a")
        bins = np.array(data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True), label="bins"))
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.1, 10.0, size=k) * np.exp(2j * np.pi * rng.uniform(size=k))
        x = amps @ np.exp(2j * np.pi * np.outer(bins, np.arange(n)) / n)
        pat = random_pattern(n, n_a, seed)
        a = build_cs_matrix(n, pat, bins)
        assume(np.linalg.cond(a) < 1e3)
        got = ls_solve(a, sample(x, pat).values)
        assert np.linalg.norm(got - n * amps) <= 1e-9 * np.linalg.norm(n * amps)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        pat = random_pattern(48, 20, seed=4)
        a = build_cs_matrix(48, pat, [2, 9, 30, 41])
        v = rng.normal(size=20) + 1j * rng.normal(size=20)
        x = ls_solve(a, v)
        residual = hermitian(a) @ (a @ x - v)
        assert np.max(np.abs(residual)) <= 1e-9

    def test_singular_system(self):
        # even-only sampling of an 8-point grid aliases bins 1 and 5
        pat = SamplingPattern(n=8, positions=[0, 2, 4, 6])
        a = build_cs_matrix(8, pat, [1, 5])
        np.testing.assert_allclose(a[:, 0], a[:, 1], atol=1e-15)
        with pytest.raises(SingularSystemError):
            ls_solve(a, np.ones(4, dtype=complex))

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            ls_solve(np.ones((2, 3), dtype=complex), np.ones(2))

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            ls_solve(np.eye(3, dtype=complex), np.ones(2))


class TestSpectralPositioning:
    def test_single_bin(self):
        np.testing.assert_array_equal(
            spectral_positioning([12.0], [1], 4), [0, 12, 0, 0]
        )

    def test_empty(self):
        np.testing.assert_array_equal(
            spectral_positioning(np.zeros(0), np.zeros(0, dtype=int), 4), np.zeros(4)
        )

    def test_all_bins_verbatim(self):
        vals = np.arange(4, dtype=complex)
        np.testing.assert_array_equal(spectral_positioning(vals, np.arange(4), 4), vals)

    def test_masking_identity(self):
        vals = np.array([1 + 2j, -3j])
        pos = np.array([5, 1])
        spectrum = spectral_positioning(vals, pos, 8)
        np.testing.assert_array_equal(spectrum[pos], vals)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectral_positioning([1.0, 2.0], [3], 8)


class TestIdft:
    def test_single_tone(self):
        x = idft([0, 12, 0, 0])
        expected = 3 * np.exp(2j * np.pi * np.arange(4) / 4)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_zeros(self):
        np.testing.assert_array_equal(idft(np.zeros(8)), np.zeros(8))

    def test_against_direct_sum(self):
        rng = np.random.default_rng(10)
        spectrum = rng.normal(size=24) + 1j * rng.normal(size=24)
        np.testing.assert_allclose(idft(spectrum), brute_force_idft(spectrum), atol=1e-9)

    def test_round_trip_full_sampling(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        v = initial_dft(full_measurement(x))
        np.testing.assert_allclose(idft(v), x, atol=1e-9)


class TestReconstruct:
    def test_full_sampling_exact(self):
        spec = SparseSpec(n=32, components=[(1.0, 3), (2.0, 17)])
        x = synthesize(spec)
        res = reconstruct(full_measurement(x), ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        assert res.detection.variance == 0.0
        assert res.detection.threshold == 0.0
        np.testing.assert_array_equal(res.detection.positions, [3, 17])
        np.testing.assert_allclose(res.time_signal, x, atol=1e-9)

    def test_half_sampling_exact(self):
        spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(256, 128, seed=1))
        res = reconstruct(meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        np.testing.assert_array_equal(res.detection.positions, [10, 60, 201])
        rel_mse = np.sum(np.abs(res.time_signal - x) ** 2) / np.sum(np.abs(x) ** 2)
        assert rel_mse <= 1e-12

    def test_spectrum_matches_full_dft_on_exact_support(self):
        spec = SparseSpec(n=128, components=[(2.0, 9), (1.0, 77)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(128, 80, seed=5))
        res = reconstruct(meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        np.testing.assert_array_equal(res.detection.positions, [9, 77])
        full = np.fft.fft(x)
        assert np.linalg.norm(res.spectrum - full) <= 1e-9 * np.linalg.norm(full)

    def test_spectrum_zero_off_support(self):
        spec = SparseSpec(n=64, components=[(1.0, 5)])
        x = synthesize(spec)
        res = reconstruct(
            sample(x, random_pattern(64, 48, seed=6)),
            ThresholdConfig(p=0.99),
            sum_sq_amplitudes(spec),
        )
        mask = np.ones(64, dtype=bool)
        mask[res.detection.positions] = False
        assert np.all(res.spectrum[mask] == 0)
        np.testing.assert_allclose(res.time_signal, idft(res.spectrum), atol=1e-12)

    def test_empty_support_flagged(self):
        # a wildly inflated amplitude oracle pushes the threshold above
        # every bin; the zero spectrum comes back flagged, not raised
        spec = SparseSpec(n=16, components=[(1.0, 3)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(16, 8, seed=7))
        res = reconstruct(meas, ThresholdConfig(p=0.99), sum_sq_amp=1e6)
        assert res.empty_support
        assert res.detection.n_detected == 0
        np.testing.assert_array_equal(res.spectrum, np.zeros(16))
        np.testing.assert_array_equal(res.time_signal, np.zeros(16))

    def test_estimate_mode(self):
        spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(256, 128, seed=1))
        cfg = ThresholdConfig(p=0.99, amp_mode=AmpMode.ESTIMATE)
        res = reconstruct(meas, cfg)
        np.testing.assert_array_equal(res.detection.positions, [10, 60, 201])

    def test_oracle_mode_requires_amplitudes(self):
        spec = SparseSpec(n=16, components=[(1.0, 3)])
        meas = sample(synthesize(spec), random_pattern(16, 8, seed=0))
        with pytest.raises(ValueError):
            reconstruct(meas, ThresholdConfig(p=0.99))
