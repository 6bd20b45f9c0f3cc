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
    x1 = f.grid.nodes1()
    x2 = f.grid.nodes2()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,value\n")
        for i in range(f.grid.n1):
            for j in range(f.grid.n2):
                fh.write(f"{x1[i]:.17g},{x2[j]:.17g},{f.values[i, j]:.17g}\n")
