import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csrecon import csvio, hw_datapath, recon_core, signal_model
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



def test_file_functions_live_in_csvio_and_old_names_are_the_same_objects():
    # bench/spans.py traces four of them under their old module names; a copy there would
    # leave a span timing a function nothing calls
    functions = {id(getattr(csvio, name)) for name in csvio.__all__}
    for name in ("write_signal_csv", "read_signal_csv", "write_spectrum_csv",
                 "write_detection_csv", "write_trace_csv"):
        assert name in csvio.__all__ and getattr(csvio, name).__module__ == "csrecon.csvio"
    anchors = {recon_core: {"write_spectrum_csv", "write_detection_csv"},
               hw_datapath: {"write_trace_csv"}, signal_model: {"read_signal_csv"}}
    for module, names in anchors.items():
        bound = {key for key, value in vars(module).items() if id(value) in functions}
        assert bound == names, module.__name__
        assert all(getattr(module, name) is getattr(csvio, name) for name in names)
        assert "csv" not in vars(module)
