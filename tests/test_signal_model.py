import numpy as np
import pytest
from scipy import stats

from csrecon.signal_model import (
    Measurement,
    SamplingPattern,
    SparseSpec,
    estimate_sum_sq_amplitudes,
    random_pattern,
    read_signal_csv,
    sample,
    sum_sq_amplitudes,
    synthesize,
    write_signal_csv,
)


class TestSparseSpec:
    def test_duplicate_bins_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSpec(n=8, components=[(1.0, 3), (2.0, 3)])

    def test_component_count_must_stay_below_length(self):
        with pytest.raises(ValueError):
            SparseSpec(n=2, components=[(1.0, 0), (1.0, 1)])

    def test_amplitude_must_be_positive(self):
        with pytest.raises(ValueError):
            SparseSpec(n=8, components=[(0.0, 1)])
        with pytest.raises(ValueError):
            SparseSpec(n=8, components=[(-1.0, 1)])

    def test_bin_range(self):
        with pytest.raises(ValueError):
            SparseSpec(n=8, components=[(1.0, 8)])

    def test_fractional_bin_rejected(self):
        with pytest.raises(ValueError, match="frequency bin must be a whole number, got 2.9"):
            SparseSpec(n=8, components=[(1.0, 2.9)])

    def test_whole_valued_floats_accepted(self):
        spec = SparseSpec(n=8.0, components=[(1.0, 2.0)])
        assert spec.n == 8 and type(spec.n) is int
        assert spec.components == ((1.0, 2),)

    def test_accessors(self):
        spec = SparseSpec(n=16, components=[(1.0, 2), (3.0, 9)])
        assert spec.k == 2
        np.testing.assert_array_equal(spec.freq_bins, [2, 9])
        np.testing.assert_array_equal(spec.amplitudes, [1.0, 3.0])


class TestSynthesize:
    def test_dc_tone(self):
        x = synthesize(SparseSpec(n=8, components=[(1.0, 0)]))
        np.testing.assert_allclose(x, np.ones(8), atol=1e-15)

    def test_quarter_turn_rotation(self):
        x = synthesize(SparseSpec(n=4, components=[(2.0, 1)]))
        np.testing.assert_allclose(x, [2, 2j, -2, -2j], atol=1e-12)

    def test_linear_in_amplitudes(self):
        comps = [(0.7, 3), (1.9, 11), (2.5, 40)]
        doubled = [(2 * a, k) for a, k in comps]
        x1 = synthesize(SparseSpec(n=64, components=comps))
        x2 = synthesize(SparseSpec(n=64, components=doubled))
        np.testing.assert_allclose(x2, 2 * x1, atol=1e-12)

    def test_parseval_full_sampling(self):
        spec = SparseSpec(n=128, components=[(1.0, 5), (2.0, 17), (0.5, 99)])
        x = synthesize(spec)
        power = np.sum(np.abs(x) ** 2) / spec.n
        assert abs(power - sum_sq_amplitudes(spec)) <= 1e-9 * sum_sq_amplitudes(spec)


class TestRandomPattern:
    def test_full_coverage_is_permutation(self):
        pat = random_pattern(4, 4, seed=123)
        assert sorted(pat.positions.tolist()) == [0, 1, 2, 3]

    def test_deterministic_per_seed(self):
        a = random_pattern(8, 4, seed=42)
        b = random_pattern(8, 4, seed=42)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = random_pattern(64, 32, seed=1)
        b = random_pattern(64, 32, seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            random_pattern(8, 9, seed=0)
        with pytest.raises(ValueError):
            random_pattern(8, 0, seed=0)

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="available count must be a whole number, got 2.5"):
            random_pattern(8, 2.5, 1)

    def test_fractional_length_rejected(self):
        with pytest.raises(ValueError, match="signal length must be a whole number, got 8.5"):
            random_pattern(8.5, 2, 1)

    def test_whole_valued_floats_accepted(self):
        np.testing.assert_array_equal(
            random_pattern(8.0, 2.0, 1).positions, random_pattern(8, 2, 1).positions
        )

    def test_uniform_inclusion(self):
        # per-position inclusion frequency over many seeds should sit at
        # n_a/n; also a chi-square check on the inclusion counts
        n, n_a, trials = 256, 128, 10_000
        counts = np.zeros(n)
        for seed in range(trials):
            counts[random_pattern(n, n_a, seed).positions] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.5) <= 0.02)
        _, pvalue = stats.chisquare(counts, f_exp=trials * n_a / n)
        assert pvalue > 0.001


class TestSample:
    def test_full_pattern_identity(self):
        x = synthesize(SparseSpec(n=8, components=[(1.0, 3)]))
        pat = SamplingPattern(n=8, positions=np.arange(8))
        np.testing.assert_array_equal(sample(x, pat).values, x)

    def test_positional_selection(self):
        x = np.array([2, 2j, -2, -2j])
        pat = SamplingPattern(n=4, positions=[0, 2])
        np.testing.assert_allclose(sample(x, pat).values, [2, -2])

    def test_length_mismatch(self):
        pat = SamplingPattern(n=4, positions=[0, 2])
        with pytest.raises(ValueError):
            sample(np.ones(5), pat)

    def test_values_follow_draw_order(self):
        x = np.arange(6, dtype=complex)
        pat = SamplingPattern(n=6, positions=[5, 0, 3])
        np.testing.assert_array_equal(sample(x, pat).values, [5, 0, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_values_rejected(self, bad):
        pat = SamplingPattern(n=4, positions=[0, 2])
        with pytest.raises(ValueError, match="finite"):
            Measurement(values=[1.0, bad], pattern=pat)


class TestSamplingPatternValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SamplingPattern(n=4, positions=[1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SamplingPattern(n=4, positions=[0, 4])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "positions,bad", [([1.5, 2.7], "1.5"), ([1.0, np.nan], "nan"), ([np.inf], "inf")]
    )
    def test_fractional_positions_rejected(self, positions, bad):
        with pytest.raises(ValueError, match=f"position must be a whole number, got {bad}$"):
            SamplingPattern(n=8, positions=positions)

    def test_fractional_length_rejected(self):
        with pytest.raises(ValueError, match="signal length must be a whole number, got 8.9"):
            SamplingPattern(n=8.9, positions=[1, 2])

    def test_whole_valued_floats_accepted(self):
        pat = SamplingPattern(n=8.0, positions=[1.0, 2.0])
        assert pat.n == 8 and type(pat.n) is int
        assert pat.positions.dtype == np.int64
        np.testing.assert_array_equal(pat.positions, [1, 2])

    def test_caller_array_stays_writeable(self):
        positions = np.array([3, 1])
        pat = SamplingPattern(n=4, positions=positions)
        assert positions.flags.writeable and not pat.positions.flags.writeable

    def test_measurement_length_checked(self):
        pat = SamplingPattern(n=4, positions=[0, 1])
        with pytest.raises(ValueError):
            Measurement(values=np.ones(3), pattern=pat)


class TestSumSqAmplitudes:
    def test_single(self):
        assert sum_sq_amplitudes(SparseSpec(n=4, components=[(1.0, 0)])) == 1.0

    def test_arithmetic(self):
        spec = SparseSpec(n=8, components=[(1.0, 0), (2.0, 1), (3.0, 2)])
        assert sum_sq_amplitudes(spec) == 14.0

    def test_estimate_mode_converges(self):
        spec = SparseSpec(n=128, components=[(1.0, 5), (2.0, 17), (0.5, 99)])
        x = synthesize(spec)
        estimates = [
            estimate_sum_sq_amplitudes(sample(x, random_pattern(128, 64, seed)))
            for seed in range(200)
        ]
        truth = sum_sq_amplitudes(spec)
        assert abs(np.mean(estimates) - truth) <= 0.10 * truth


class TestSignalCsv:
    def test_round_trip(self, tmp_path):
        x = synthesize(SparseSpec(n=16, components=[(1.5, 3), (0.25, 11)]))
        path = tmp_path / "sig.csv"
        write_signal_csv(path, x)
        np.testing.assert_array_equal(read_signal_csv(path), x)

    def test_header(self, tmp_path):
        path = tmp_path / "sig.csv"
        write_signal_csv(path, np.zeros(2, dtype=complex))
        assert path.read_text().splitlines()[0] == "index,re,im"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,2\n")
        with pytest.raises(ValueError):
            read_signal_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,re,im\n")
        with pytest.raises(ValueError, match="empty.csv: no samples"):
            read_signal_csv(path)

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("index,re,im\n0,1,0\n1,1\n")
        with pytest.raises(ValueError, match="short.csv, line 3"):
            read_signal_csv(path)

    @pytest.mark.parametrize(
        "indices, line", [(["0", "2", "1", "7"], 3), (["foo", "bar"], 2)]
    )
    def test_index_must_count_from_zero(self, tmp_path, indices, line):
        path = tmp_path / "idx.csv"
        path.write_text("index,re,im\n" + "".join(f"{i},1,0\n" for i in indices))
        with pytest.raises(ValueError, match=f"idx.csv, line {line}"):
            read_signal_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.csv"
        path.write_text(f"index,re,im\n0,1,0\n1,0,{bad}\n")
        with pytest.raises(ValueError, match="nan.csv: samples must be finite"):
            read_signal_csv(path)
