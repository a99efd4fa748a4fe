"""Every file csrecon reads or writes, each cell through :func:`fmt`.

The signal (``index,re,im``), spectrum, detection and fixed-point trace files have a
function each here, whose docstring describes its rows; :mod:`csrecon.cli` builds its sweep,
metrics and LUT rows itself and writes them through :func:`write_csv`.
"""

import csv
import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["fmt", "write_csv", "write_signal_csv", "read_signal_csv", "write_spectrum_csv",
           "write_detection_csv", "write_trace_csv"]


def fmt(x) -> str:
    """A CSV cell: a bool as ``true``/``false``, a float to 17 significant digits (enough to
    read back bit-exactly), anything else, ints and text included, as ``str``."""
    return (format(float(x), ".17g") if isinstance(x, float)
            else str(x).lower() if isinstance(x, bool) else str(x))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row followed by ``rows`` to ``path``, each cell through :func:`fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(fmt, row) for row in rows)


def write_signal_csv(path, samples: np.ndarray) -> None:
    """Write a complex signal as ``index,re,im`` rows; rejects non-finite samples
    before the file is opened."""
    samples = np.asarray(samples, dtype=complex)
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: samples must be finite")
    write_csv(
        path,
        ["index", "re", "im"],
        ([i, v.real, v.imag] for i, v in enumerate(samples)),
    )


def read_signal_csv(path) -> np.ndarray:
    """Read a signal written by :func:`write_signal_csv`; errors name the file.

    Each row's index must equal its position, 0 to n-1.
    """
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["index", "re", "im"]:
            raise ValueError(f"{path}: expected header 'index,re,im'")
        for row in reader:
            try:
                index, re, im = row
                if int(index) != len(values):
                    raise ValueError(f"index {index!r} where {len(values)} was expected")
                values.append(complex(float(re), float(im)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    x = np.asarray(values, dtype=complex)
    if x.size == 0:
        raise ValueError(f"{path}: no samples after the header")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: samples must be finite")
    return x


def write_spectrum_csv(path, spectrum: np.ndarray) -> None:
    """Write a spectrum as ``bin,re,im,magnitude`` rows."""
    spectrum = np.asarray(spectrum, dtype=complex)
    write_csv(
        path,
        ["bin", "re", "im", "magnitude"],
        ([i, v.real, v.imag, abs(v)] for i, v in enumerate(spectrum)),
    )


def write_detection_csv(path, detection) -> None:
    """Write a ``DetectionResult`` as one summary row; positions are semicolon-separated."""
    write_csv(
        path,
        ["threshold", "variance", "n_detected", "positions"],
        [[detection.threshold, detection.variance, detection.n_detected,
          ";".join(str(int(p)) for p in detection.positions)]],
    )


def write_trace_csv(path, trace) -> None:
    """Dump a ``FixedThresholdTrace``'s datapath stages as ``stage,raw_value,scaled_value``."""
    half_shift = trace.scale_shift // 2
    rows = [
        ("variance", trace.var_fixed, trace.var_fixed / 2**15),
        ("log2_term", trace.log_term.raw, trace.log_term.value),
        ("root_in", trace.root_in, math.ldexp(trace.root_in, -trace.scale_shift)),
        ("root", trace.root_out.root, math.ldexp(trace.root_out.root, -half_shift)),
        ("remainder", trace.root_out.remainder, math.ldexp(trace.root_out.remainder, -trace.scale_shift)),
        ("scale_shift", trace.scale_shift, trace.scale_shift),
        ("threshold", "", trace.t_fixed),
    ]
    write_csv(path, ["stage", "raw_value", "scaled_value"], rows)
