"""CSV output shared by every writer: one cell format, one writer; writers pass raw values."""

import csv
from collections.abc import Iterable, Sequence

__all__ = ["fmt", "write_csv"]


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
