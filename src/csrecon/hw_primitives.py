"""Software models of the FPGA-friendly numeric primitives.

Two primitives are modeled at bit level: a lookup-table logarithm working on
the mantissa/exponent split of a positive float, and a digit-by-digit
non-restoring square root over 32-bit unsigned integers. Both mirror what a
block-RAM table and a small adder/shifter datapath would compute, so results
are exactly reproducible integer for integer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .signal_model import _real, _whole

__all__ = [
    "LOG_SCALE_BITS",
    "LUT_INDEX_BITS",
    "FixedLog",
    "SqrtResult",
    "lut_log2",
    "lut_log10",
    "nr_sqrt",
    "nr_sqrt_batch",
    "log_lut_entries",
]

LOG_SCALE_BITS = 15  # log values are Q15: represented value = raw / 2**15
LUT_INDEX_BITS = 12  # 4096-entry table, a realistic block-RAM size

_LUT_SIZE = 1 << LUT_INDEX_BITS
_LOG_SCALE = 1 << LOG_SCALE_BITS
_LOG2_10 = math.log2(10.0)

_LOG_LUT = np.rint(_LOG_SCALE * np.log2(1.0 + np.arange(_LUT_SIZE) / _LUT_SIZE)).astype(np.int64)
_LOG_LUT.flags.writeable = False


def log_lut_entries() -> np.ndarray:
    """The 4096-entry base-2 log table (read-only); entry i holds
    round(2**15 * log2(1 + i/4096))."""
    return _LOG_LUT


class FixedLog(NamedTuple):
    """Q15 fixed-point logarithm: represented value is raw / 2**15."""

    raw: int

    @property
    def value(self) -> float:
        return self.raw / _LOG_SCALE


class SqrtResult(NamedTuple):
    root: int  # 16-bit floor square root
    remainder: int  # 17-bit remainder, input - root**2


def lut_log2(x: float) -> FixedLog:
    """Base-2 logarithm via table lookup on the truncated mantissa.

    x splits exactly, subnormals included, as mantissa * 2**exponent with the
    mantissa in [1, 2); raw = exponent * 2**15 + table[floor((mantissa - 1) * 2**12)].
    Exact at powers of two; worst-case error is one table step plus entry
    rounding, about 3.7e-4 in log2 units.
    """
    x = _real(x, "input")
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"expected a positive finite value, got {x}")
    m, e = math.frexp(x)  # x = (2m) * 2**(e-1), 2m in [1, 2)
    idx = int((2.0 * m - 1.0) * _LUT_SIZE)  # truncation, never interpolated
    return FixedLog(raw=(e - 1) * _LOG_SCALE + int(_LOG_LUT[idx]))


def lut_log10(x: float) -> float:
    """Base-10 logarithm derived from the base-2 table via the constant
    1/log2(10). Absolute error stays below 5e-4."""
    return lut_log2(x).value / _LOG2_10


def _nr_sqrt(b):
    """The non-restoring recurrence, on a Python int or int64 lanes alike.

    Two input bits per step, high pair first. The partial remainder's sign
    mask (0 or -1) drives one add/subtract unit without a branch: a
    nonnegative remainder subtracts ``4*root+1``, a negative one is not
    restored and adds ``4*root+3``. One end correction fixes a negative
    remainder.
    """
    root = rem = b & 0  # zero of b's type and shape
    for shift in range(30, -2, -2):
        sign = rem >> 63
        rem = (rem << 2) + ((b >> shift) & 3) - ((((root << 2) | 1) ^ sign) + sign)
        root = (root << 1) + 1 + (rem >> 63)
    rem += ((root << 1) | 1) & (rem >> 63)
    return root, rem


def nr_sqrt(b: int) -> SqrtResult:
    """Non-restoring square root of a 32-bit unsigned integer: the 16-bit
    floor root and the 17-bit remainder ``b - root**2``, as Python ints."""
    return SqrtResult(*_nr_sqrt(int(_whole(b, "input", 1 << 32))))


def nr_sqrt_batch(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nr_sqrt`'s recurrence on int64 lanes, keeping the input's shape;
    the tests use it to check the unit over millions of inputs at once."""
    root, rem = _nr_sqrt(_whole(values, "input", 1 << 32))
    return np.asarray(root), np.asarray(rem)
