import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csrecon.csvio import fmt, write_csv


@pytest.mark.parametrize("value, text", [
    (True, "true"),
    (False, "false"),
    (7, "7"),
    (2**70, "1180591620717411303424"),
    (np.int64(-3), "-3"),
    ("abc", "abc"),
    ("", ""),
    (0.1, "0.10000000000000001"),
    (np.float64(1 / 3), "0.33333333333333331"),
    (-0.0, "-0"),
], ids=["true", "false", "int", "int-past-64-bits", "numpy-int", "text", "empty-text",
        "float", "numpy-float", "negative-zero"])
def test_fmt_cell(value, text):
    assert fmt(value) == text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_bit_for_bit(x):
    assert struct.pack("<d", float(fmt(x))) == struct.pack("<d", x)
    assert fmt(np.float64(x)) == fmt(x)


def test_write_csv_formats_every_row_cell(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["flag", "value", "count", "name"], [[True, 0.5, 3, "x"], (False, -0.0, 0, "")])
    assert path.read_text() == "flag,value,count,name\ntrue,0.5,3,x\nfalse,-0,0,\n"
