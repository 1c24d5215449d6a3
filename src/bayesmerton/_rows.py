"""CSV rows of float columns, each cell ``repr(float)``; standard library only.

:func:`format_chunk` is the one row formatter of ``cli.ColumnWriter``.  Run
as a script, this module is the helper interpreter that formats the chunks
the writer grants it::

    python -I -S _rows.py N_COLUMNS CHUNK_ROWS VALUES_FD DONE_FD < grants > rows.csv

Chunk k of the values file VALUES_FD holds its rows' native float64 values
column by column, ``8 * N_COLUMNS * CHUNK_ROWS`` bytes at offset k times
that (the last chunk may be shorter).  Each byte read from standard input
grants the next chunk, in order from chunk 0; the helper formats it, writes
its lines to standard output and one byte to DONE_FD.  It exits at the end
of standard input.  The writer appends to the values file through the same
file offset, so the helper reads it only with ``os.pread``, which leaves
the offset alone.  It imports nothing outside the standard library, so the
helper starts without numpy and without site-packages.
"""

import os
import sys
from array import array


def format_chunk(chunk: bytes, n_columns: int) -> str:
    """One CSV line per row of a chunk of native float64 values stored column by column."""
    values = array("d", chunk).tolist()
    rows = len(values) // n_columns
    columns = [map(repr, values[j * rows : (j + 1) * rows]) for j in range(n_columns)]
    return "".join([",".join(row) + "\n" for row in zip(*columns)])


def main(argv) -> None:
    n_columns, chunk_rows, values, done = (int(a) for a in argv[1:5])
    chunk_bytes = 8 * n_columns * chunk_rows
    write = sys.stdout.buffer.write
    k = 0
    while grants := os.read(0, 4096):
        for _ in grants:
            chunk = os.pread(values, chunk_bytes, k * chunk_bytes)
            write(format_chunk(chunk, n_columns).encode("ascii"))
            os.write(done, b".")
            k += 1


if __name__ == "__main__":
    main(sys.argv)
