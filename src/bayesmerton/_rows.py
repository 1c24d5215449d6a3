"""CSV rows of float columns, each cell ``repr(float)``; standard library only.

:func:`format_rows` is the one row formatter of ``cli.write_columns``.  Run
as a script, this module is the helper interpreter that formats the second
half of those rows::

    python -I -S _rows.py N_COLUMNS CHUNK_ROWS < values.f64 > rows.csv

It reads row-major native float64 values from standard input, CHUNK_ROWS
rows at a time, and writes each chunk's lines to standard output.  It
imports nothing outside the standard library, so the helper starts without
numpy and without site-packages.
"""

import sys
from array import array


def format_rows(columns) -> str:
    """One line per index of the equal-length float sequences, cells joined by commas."""
    return "".join([",".join(cells) + "\n" for cells in zip(*[map(repr, c) for c in columns])])


def main(argv) -> None:
    n_columns, chunk_rows = int(argv[1]), int(argv[2])
    read, write = sys.stdin.buffer.read, sys.stdout.buffer.write
    while block := read(8 * n_columns * chunk_rows):
        values = array("d", block).tolist()
        write(format_rows([values[j::n_columns] for j in range(n_columns)]).encode("ascii"))


if __name__ == "__main__":
    main(sys.argv)
