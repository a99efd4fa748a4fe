"""CSV output shared by every writer: one float format, one writer."""

import csv
from collections.abc import Iterable, Sequence

__all__ = ["fmt", "write_csv"]


def fmt(x: float) -> str:
    """A float with 17 significant digits, enough to read back bit-exactly."""
    return format(float(x), ".17g")


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row followed by ``rows`` to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
