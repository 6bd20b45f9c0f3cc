"""Binary and CSV serialization of scalar fields.

Binary layout (little-endian): 16-byte header = magic ``TOTF``, u32 n1,
u32 n2, u32 flags (bit 0 = zero-mean), followed by n1*n2 IEEE-754 float64
values in row-major order (x1 is the slow index).  CSV files carry the
header ``x1,x2,value`` and one row per node in the same row-major order,
printed with 17 significant digits so that a write/read round trip is
bit-exact.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import GridSizeError
from .grid import ScalarField, build_grid

MAGIC = b"TOTF"
_HEADER = struct.Struct("<4sIII")
FLAG_ZERO_MEAN = 1


def write_field_binary(f, path):
    flags = FLAG_ZERO_MEAN if f.zero_mean else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, f.grid.n1, f.grid.n2, flags))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field_binary(path):
    """Read a field written by :func:`write_field_binary`.

    The header's sizes must form a valid grid and match the file size
    exactly; anything else raises ``ValueError`` (``GridSizeError`` for
    the sizes) naming the path, before the payload is read.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, n1, n2, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        try:
            grid = build_grid(n1, n2)
        except GridSizeError as exc:
            raise GridSizeError(f"{path}: {exc}") from exc
        expected = _HEADER.size + 8 * n1 * n2
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, but a {n1} x {n2} field "
                             f"takes {expected}")
        raw = fh.read(8 * n1 * n2)
    values = np.frombuffer(raw, dtype="<f8").reshape(n1, n2).copy()
    return ScalarField(grid, values, zero_mean=bool(flags & FLAG_ZERO_MEAN))


def write_field_csv(f, path):
    """CSV export: x2 is formatted once per file, x1 once per row, and each
    row of the grid goes out as one string."""
    x2 = [f"{v:.17g}," for v in f.grid.nodes2().tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,value\n")
        for x1, row in zip(f.grid.nodes1().tolist(), f.values):
            head = f"{x1:.17g},"
            fh.write("".join([f"{head}{b}{v:.17g}\n"
                              for b, v in zip(x2, row.tolist())]))
