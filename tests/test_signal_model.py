import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from csrecon.csvio import read_signal_csv, write_signal_csv
from csrecon.signal_model import (
    Measurement,
    _whole,
    SamplingPattern,
    SparseSpec,
    estimate_sum_sq_amplitudes,
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)
from helpers import reduced_phase_tones


class TestSparseSpec:
    def test_duplicate_bins_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSpec(n=8, components=[(1.0, 3), (2.0, 3)])

    def test_component_count_must_stay_below_length(self):
        with pytest.raises(ValueError,
                           match="^component count 2 must be smaller than signal length 2$"):
            SparseSpec(n=2, components=[(1.0, 0), (1.0, 1)])
        with pytest.raises(ValueError, match="^at least one component required$"):
            SparseSpec(n=8, components=[])

    def test_amplitude_must_be_positive(self):
        with pytest.raises(ValueError):
            SparseSpec(n=8, components=[(0.0, 1)])
        with pytest.raises(ValueError):
            SparseSpec(n=8, components=[(-1.0, 1)])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match=f"finite and strictly positive, got {bad}"):
            SparseSpec(n=8, components=[(bad, 1)])

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

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^signal length must be at least 2, got -3$"):
            SparseSpec(n=-3, components=[(1.0, 0)])

    def test_accessors(self):
        spec = SparseSpec(n=16, components=[(1.0, 2), (3.0, 9)])
        assert spec.k == 2
        np.testing.assert_array_equal(spec.freq_bins, [2, 9])
        np.testing.assert_array_equal(spec.amplitudes, [1.0, 3.0])


@st.composite
def _tones(draw):
    """(n, distinct bins, positive amplitudes) for a valid SparseSpec."""
    n = draw(st.integers(min_value=2, max_value=16384))
    bins = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n - 1, 8), unique=True))
    amps = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(bins), max_size=len(bins)))
    return n, bins, amps


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

    @settings(max_examples=100, deadline=None)
    @given(tones=_tones())
    @example(tones=(16384, [16383], [1.0]))  # unreduced, the phase at k*t = 2.7e8 is off by 1.1e-11
    def test_exact_phase_property(self, tones):
        n, bins, amps = tones
        x = synthesize(SparseSpec(n=n, components=list(zip(amps, bins))))
        assert np.abs(x - reduced_phase_tones(n, bins, amps)).max() <= 1e-14 * sum(amps)


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

    def test_fractional_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a whole number, got 1.5"):
            random_pattern(64, 32, 1.5)

    def test_seed_past_int64_rejected(self):
        with pytest.raises(ValueError, match=re.escape(f"seed must fit in 64 bits, got {2**63}")):
            random_pattern(64, 32, 2**63)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            random_pattern(64, 32, -1)

    @pytest.mark.parametrize("n", [2**63, 2**64, 2.0**63])
    def test_length_past_int64_rejected(self, n):
        # a cast to int64 alone wraps 2**63 to -2**63, a nonpositive length
        with pytest.raises(ValueError, match=re.escape(f"signal length must fit in 64 bits, got {n}")):
            random_pattern(n, 2, 1)

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

    @pytest.mark.parametrize("bad", [
        np.array([True, False, True, True]),
        np.array(["1", "2", "3", "4"]),
        np.array([b"1", b"2", b"3", b"4"]),
        # an object array is checked by what it holds, here its first element
        np.array(["1", "2j", "3", "4"], dtype=object),
        np.array([True, 1, 2, 3], dtype=object),
        np.array([b"1", 2, 3, 4], dtype=object),
        np.array([None, 2, 3, 4], dtype=object),
    ], ids=["bool", "text", "bytes", "object-text", "object-bool", "object-bytes", "object-none"])
    def test_bool_and_text_samples_refused_by_dtype(self, bad):
        pat = SamplingPattern(n=4, positions=[0, 1, 2, 3])
        name = re.escape(type(bad[0]).__name__ if bad.dtype == object else bad.dtype.name)
        with pytest.raises(ValueError, match=f"^measurement values must be numbers, not {name}$"):
            Measurement(values=bad, pattern=pat)
        with pytest.raises(ValueError, match=f"^signal samples must be numbers, not {name}$"):
            sample(bad, pat)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.float32, np.complex64,
                                       complex, object])
    def test_numeric_samples_accepted(self, dtype):
        pat = SamplingPattern(n=4, positions=[2, 0])
        meas = sample(np.array([1, 2, 3, 4], dtype=dtype), pat)
        assert meas.values.dtype == complex
        np.testing.assert_array_equal(meas.values, [3, 1])


class TestSamplingPatternValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SamplingPattern(n=4, positions=[1, 1])
        # more positions than the length must repeat one
        with pytest.raises(ValueError, match="^positions must be distinct$"):
            SamplingPattern(n=2, positions=[0, 1, 0])

    @pytest.mark.parametrize("positions", [[], [[0, 1]]], ids=["empty", "2-d"])
    def test_positions_must_be_nonempty_1d(self, positions):
        with pytest.raises(ValueError, match="^positions must be a nonempty 1-d sequence$"):
            SamplingPattern(n=4, positions=positions)

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

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^signal length must be at least 1, got -3$"):
            SamplingPattern(n=-3, positions=[0])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_sample_not_written(self, tmp_path, bad):
        path = tmp_path / "inf.csv"
        with pytest.raises(ValueError, match="inf.csv: samples must be finite"):
            write_signal_csv(path, np.array([1.0, bad]))
        assert not path.exists()


def _whole_rejection(values, below, least):
    """The message ``_whole(values, "x", below, least)`` must raise, or None: the first
    value that is not whole or does not fit in int64, then the first outside
    [0, below), then the first under ``least``."""
    dtype = np.asarray(values).dtype
    if dtype.kind in "bcUS":
        return f"x must be a whole number, not {dtype.name}"
    flat = np.asarray(values, dtype=object).ravel().tolist()
    for v in flat if dtype.kind == "O" else ():  # an object array is refused by element type
        if isinstance(v, (bool, str, bytes)):
            return f"x must be a whole number, not {type(v).__name__}"
    for v in flat:
        shown = str(v) if isinstance(v, int) else str(np.float64(v))
        if isinstance(v, float) and not (np.isfinite(v) and v.is_integer()):
            return f"x must be a whole number, got {shown}"
        if not -2**63 <= v < 2**63:
            return f"x must fit in 64 bits, got {shown}"
    for v in flat:
        if below is not None and not 0 <= v < below:
            return f"x {int(v)} outside [0, {below})"
    for v in flat:
        if least is not None and v < least:
            return f"x must be at least {least}, got {int(v)}"
    return None


_near = st.integers(-80, 80)
_float = _near.map(float) | st.floats(-80, 80) | st.floats(allow_nan=True, allow_infinity=True)


@pytest.mark.filterwarnings("error")  # no dtype passes or fails through a numpy warning
@settings(max_examples=500, deadline=None)
@given(
    values=st.one_of(
        _near | st.integers(-2**70, 2**70),
        _float,
        st.lists(_near | st.integers(-2**63, 2**63 - 1), max_size=6).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(_float, max_size=6).map(lambda v: np.array(v, dtype=float)),
        # narrow floats, object arrays of Python ints, and the dtypes refused by name
        *(st.lists(_near.map(float) | st.floats(width=w), max_size=6).map(
            lambda v, t=t: np.array(v, dtype=t)) for w, t in ((16, np.float16), (32, np.float32))),
        st.lists(_near | st.integers(-2**70, 2**70), max_size=6).map(
            lambda v: np.array(v, dtype=object)),
        st.lists(_near | st.booleans() | st.sampled_from(["3", "x", b"3"]), min_size=1,
                 max_size=6).map(lambda v: np.array(v, dtype=object)),
        st.booleans(),
        st.lists(st.booleans(), max_size=6).map(lambda v: np.array(v, dtype=bool)),
        st.complex_numbers(max_magnitude=80),
        st.sampled_from(["3", "x", b"3"]),
        st.lists(_near.map(str), max_size=6).map(lambda v: np.array(v, dtype=str)),
    ),
    below=st.none() | st.integers(0, 64),
    least=st.none() | st.integers(-64, 64),
)
@example(values=2.0**63, below=None, least=None)
@example(values=np.array([3.0, -5.0, np.nan]), below=4, least=None)
@example(values=np.array([3, -5, 9]), below=None, least=0)
@example(values=True, below=None, least=None)
@example(values=3 + 0j, below=None, least=None)
@example(values=np.array([65504.0, 2.5], dtype=np.float16), below=None, least=None)
@example(values=np.array([2**70, 3], dtype=object), below=None, least=None)
@example(values=np.array([True], dtype=object), below=None, least=None)
@example(values=np.array([3, "3"], dtype=object), below=None, least=None)
def test_whole_checks_every_bound(values, below, least):
    message = _whole_rejection(values, below, least)
    if message is not None:
        with pytest.raises(ValueError) as info:
            _whole(values, "x", below, least=least)
        assert str(info.value) == message
    else:
        got = _whole(values, "x", below, least=least)
        assert got.dtype == np.int64 and got.shape == np.shape(values)
        assert got.ravel().tolist() == [int(v) for v in np.asarray(values, dtype=object).ravel()]


@pytest.mark.parametrize("number", [3, 3.0, np.int64(3), Fraction(3), Decimal(3)],
                         ids=["int", "float", "numpy-int", "fraction", "decimal"])
def test_object_array_of_numbers_accepted(number):
    assert _whole(np.array([number, 2], dtype=object), "x").tolist() == [3, 2]
    assert SparseSpec(n=8, components=[(np.array(number, dtype=object), 2)]).amplitudes[0] == 3.0
