"""The row-at-a-time ``csv.writer`` CSV writer: the reference ``cli._write_csv`` is tested against.

This is the writer ``gridfreq.cli`` used before it formatted rows in blocks,
kept as it was apart from the explicit UTF-8 encoding.  The block writer
must write the same bytes for every table.
"""

import csv

import numpy as np


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row, every line ended with CRLF.

    A float array column is formatted ``%.15g``; the cells of any other
    column go to ``csv.writer`` as they are, so a node id that needs quotes
    gets them and None is left blank.
    """
    cells = [
        map("%.15g".__mod__, col) if isinstance(col, np.ndarray) and col.dtype.kind == "f"
        else col
        for col in columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells))
