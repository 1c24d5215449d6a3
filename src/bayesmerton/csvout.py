"""Chunked CSV writer for float columns, shared by every float-only export.

Each cell is ``repr(float)``, the shortest string that reads back to the
same double, so the files are exact and byte-identical across reruns.  The
bytes equal those of ``csv.writer(stream, lineterminator="\\n")`` given the
same ``repr`` strings: a float's repr never holds a comma, quote or newline,
so no cell is quoted.
"""

from __future__ import annotations

from typing import IO, Sequence

import numpy as np

#: Rows converted and written per ``stream.write`` call; bounds the text held
#: in memory to one chunk whatever the row count.
CHUNK_ROWS = 2048


def write_columns(stream: IO[str], header: Sequence[str], columns: Sequence) -> None:
    """Write a header line, then one row per index of the equal-length float columns."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = columns[0].size
    if any(c.shape != (n_rows,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    stream.write(",".join(header) + "\n")
    for start in range(0, n_rows, CHUNK_ROWS):
        rows = np.column_stack([c[start : start + CHUNK_ROWS] for c in columns]).tolist()
        stream.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))
