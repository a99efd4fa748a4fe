import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csrecon.hw_primitives import (
    LOG_SCALE_BITS,
    decompose,
    log_lut_entries,
    lut_log2,
    lut_log10,
    nr_sqrt,
    nr_sqrt_batch,
)
from helpers import floor_sqrt_array, newton_isqrt

# table-step slope at the mantissa low end plus half-ulp entry rounding
LOG2_ERROR_BOUND = 2**-12 / math.log(2) + 2**-16


class TestDecompose:
    @pytest.mark.parametrize(
        "x,mantissa,exponent",
        [(1.0, 1.0, 0), (10.0, 1.25, 3), (0.375, 1.5, -2), (2.0, 1.0, 1)],
    )
    def test_known_values(self, x, mantissa, exponent):
        assert decompose(x) == (mantissa, exponent)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            decompose(bad)

    def test_exact_reproduction(self):
        rng = np.random.default_rng(3)
        xs = 10.0 ** rng.uniform(-300, 300, size=2000)
        for x in xs:
            m, e = decompose(float(x))
            assert 1.0 <= m < 2.0
            assert math.ldexp(m, e) == x

    def test_subnormal_input(self):
        x = 5e-324  # smallest positive double
        m, e = decompose(x)
        assert 1.0 <= m < 2.0
        assert math.ldexp(m, e) == x


class TestLogLut:
    def test_shape_and_endpoints(self):
        table = log_lut_entries()
        assert table.size == 4096
        assert table[0] == 0
        assert table[-1] < 1 << LOG_SCALE_BITS

    def test_nondecreasing(self):
        table = log_lut_entries()
        assert np.all(np.diff(table) >= 0)

    def test_grid_point(self):
        # entry 2048 corresponds to mantissa 1.5: round(2^15 * log2(1.5))
        assert log_lut_entries()[2048] == 19168


class TestLutLog2:
    def test_one_is_zero(self):
        assert lut_log2(1.0).raw == 0

    def test_two_is_exact(self):
        assert lut_log2(2.0).raw == 1 << LOG_SCALE_BITS

    def test_mantissa_on_grid(self):
        # 1.5 lands exactly on table index 2048
        assert lut_log2(1.5).raw == 19168

    def test_powers_of_two_exact(self):
        for e in range(-30, 31):
            assert lut_log2(2.0**e).raw == e << LOG_SCALE_BITS

    def test_error_bound(self):
        rng = np.random.default_rng(11)
        xs = 10.0 ** rng.uniform(-8, 8, size=100_000)
        worst = max(abs(lut_log2(float(x)).value - math.log2(x)) for x in xs)
        assert worst <= LOG2_ERROR_BOUND

    def test_monotone(self):
        rng = np.random.default_rng(12)
        xs = np.sort(10.0 ** rng.uniform(-6, 6, size=5000))
        raws = [lut_log2(float(x)).raw for x in xs]
        assert all(a <= b for a, b in zip(raws, raws[1:]))


class TestLutLog10:
    def test_one_exact(self):
        assert lut_log10(1.0) == 0.0

    @pytest.mark.parametrize("x,expected", [(10.0, 1.0), (100.0, 2.0)])
    def test_decades(self, x, expected):
        assert abs(lut_log10(x) - expected) <= 5e-4

    def test_decade_step_property(self):
        rng = np.random.default_rng(13)
        for x in 10.0 ** rng.uniform(-4, 4, size=500):
            assert abs(lut_log10(float(10 * x)) - lut_log10(float(x)) - 1.0) <= 1e-3


class TestNrSqrt:
    @pytest.mark.parametrize(
        "b,root,rem", [(0, 0, 0), (25, 5, 0), (2**32 - 1, 65535, 131070)]
    )
    def test_known_values(self, b, root, rem):
        assert nr_sqrt(b) == (root, rem)

    def test_exhaustive_small(self):
        for b in range(1 << 16):
            root, rem = nr_sqrt(b)
            assert root == newton_isqrt(b)
            assert root * root + rem == b

    def test_random_against_newton(self):
        rng = np.random.default_rng(17)
        for b in rng.integers(0, 1 << 32, size=20_000, dtype=np.uint64):
            root, rem = nr_sqrt(int(b))
            expected = newton_isqrt(int(b))
            assert root == expected
            assert rem == int(b) - expected * expected

    def test_boundaries(self):
        cases = [2**31, 2**32 - 1, 255**2, 256**2, 257**2, 256**2 - 1,
                 65534**2, 65535**2, 65535**2 + 1]
        for b in cases:
            root, rem = nr_sqrt(b)
            assert root == newton_isqrt(b)
            assert root * root + rem == b

    def test_floor_property(self):
        rng = np.random.default_rng(19)
        for b in rng.integers(0, 1 << 32, size=5000, dtype=np.uint64):
            root, rem = nr_sqrt(int(b))
            assert root * root <= int(b) < (root + 1) * (root + 1)
            assert 0 <= rem <= 2 * root

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nr_sqrt(-1)
        with pytest.raises(ValueError):
            nr_sqrt(1 << 32)

    def test_fractional_input_rejected(self):
        with pytest.raises(ValueError, match="input must be a whole number, got 2.5"):
            nr_sqrt(2.5)
        with pytest.raises(ValueError, match="input must be a whole number, got 8.7"):
            nr_sqrt_batch([8.7])

    def test_whole_valued_floats_accepted(self):
        assert nr_sqrt(4.0) == (2, 0)
        roots, rems = nr_sqrt_batch([8.0, 16.0])
        np.testing.assert_array_equal(roots, [2, 4])
        np.testing.assert_array_equal(rems, [4, 0])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(23)
        values = rng.integers(0, 1 << 32, size=4096, dtype=np.uint64)
        roots, rems = nr_sqrt_batch(values)
        for b, root, rem in zip(values, roots, rems):
            assert nr_sqrt(int(b)) == (root, rem)

    def test_batch_against_float_oracle(self):
        rng = np.random.default_rng(29)
        values = rng.integers(0, 1 << 32, size=1 << 18, dtype=np.uint64)
        roots, rems = nr_sqrt_batch(values)
        expected = floor_sqrt_array(values)
        np.testing.assert_array_equal(roots, expected)
        np.testing.assert_array_equal(rems, values.astype(np.int64) - expected**2)

    @settings(max_examples=2000, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(0)
    @example(1)
    @example(2**31)
    @example(2**32 - 1)
    @example(65535**2)
    @example(65535**2 + 1)
    @example(65535**2 - 1)
    def test_matches_isqrt_property(self, b):
        root, rem = nr_sqrt(b)
        assert type(root) is int and type(rem) is int
        assert root == math.isqrt(b)
        assert rem == b - root**2

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (3, 2)])
    def test_batch_keeps_shape_and_dtype(self, shape):
        values = np.arange(math.prod(shape), dtype=np.uint64).reshape(shape) * 1000 + 7
        roots, rems = nr_sqrt_batch(values)
        for out in (roots, rems):
            assert isinstance(out, np.ndarray)
            assert out.shape == shape
            assert out.dtype == np.int64
        np.testing.assert_array_equal(roots, floor_sqrt_array(values))
        np.testing.assert_array_equal(rems, values.astype(np.int64) - roots**2)
