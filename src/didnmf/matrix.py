"""Row-major dense matrix substrate shared by every solver.

Matrices are plain float64 numpy arrays kept row-major (C-ordered): the
coordinate kernel's products and residual then read X and C row by row.
A worker holds its columns of X and C stacked in one array (see
`ColumnBlock`), which it reads or draws its columns of X into directly.

Two interchange formats are provided: a small binary one ("DMAT1", used
both on disk and on the wire, with a column-major body) and plain CSV for
small matrices.
"""

from __future__ import annotations

import os
import struct

import numpy as np

DMAT_MAGIC = b"DMAT"
DMAT_VERSION = 1
# magic(4s) + version(u32) + rows(u64) + cols(u64), little-endian, packed
_DMAT_HEADER = struct.Struct("<4sIQQ")
# bytes of the column-major body `read_dmat` reads and transposes at once
READ_CHUNK_BYTES = 1 << 20


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 row-major array (copies only if needed)."""
    m = np.asarray(a, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {m.ndim} dimensions")
    return m


def frob_norm_sq(a) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.vdot(a, a))


def partition_columns(n: int, p: int) -> list[tuple[int, int]]:
    """Split columns [0, n) into p contiguous (start, size) ranges.

    Sizes differ by at most one and the first n % p ranges carry the extra
    column. Every worker must own at least one column, so p > n is an error.
    """
    if n < 1 or p < 1:
        raise ValueError("partition_columns needs n >= 1 and p >= 1")
    if p > n:
        raise ValueError(f"cannot give {p} workers at least one of {n} columns")
    base, extra = divmod(n, p)
    ranges = []
    start = 0
    for r in range(p):
        size = base + (1 if r < extra else 0)
        ranges.append((start, size))
        start += size
    return ranges


class ColumnBlock:
    """One worker's contiguous slab of columns of X and C, stacked.

    The block is one row-major (M + K) x n_blk array `z` = [X; C], made
    here and filled by the caller (see `harness._rank_setup`). `x_block`
    = z[:M] and `c_block` = z[M:] are row views of it, each C-contiguous
    itself. `x_block` is read only; `c_block` is owned (written) by
    exactly one worker. The C sweep reads a column tile of X and C as one
    operand, so a tile's products take X and C in one call (see
    `kernels.c_rowwise_sweep`). A block's rank is its world's, and its
    width is `z.shape[1]`.
    """

    def __init__(self, m: int, k: int, size: int):
        self.z = np.empty((m + k, size))
        self.x_block = self.z[:m]
        self.c_block = self.z[m:]


def dmat_encode(a) -> bytes:
    """Serialize a matrix: 24-byte header, then float64 LE column-major body."""
    a = as_matrix(a)
    head = _DMAT_HEADER.pack(DMAT_MAGIC, DMAT_VERSION, a.shape[0], a.shape[1])
    return head + a.astype("<f8", copy=False).tobytes(order="F")


def _dmat_shape(head: bytes, total: int) -> tuple[int, int]:
    """Validate a DMAT1 header against the total byte count; (rows, cols)."""
    if len(head) < _DMAT_HEADER.size:
        raise ValueError("truncated DMAT1 header")
    magic, version, rows, cols = _DMAT_HEADER.unpack_from(head)
    if magic != DMAT_MAGIC:
        raise ValueError("bad DMAT1 magic")
    if version != DMAT_VERSION:
        raise ValueError(f"unsupported DMAT1 version {version}")
    expected = _DMAT_HEADER.size + 8 * rows * cols
    if total != expected:
        raise ValueError(
            f"DMAT1 payload length mismatch: have {total} bytes, "
            f"header implies {expected}")
    return rows, cols


def dmat_decode(buf: bytes) -> np.ndarray:
    """Inverse of dmat_encode; validates magic, version, and payload length."""
    rows, cols = _dmat_shape(buf, len(buf))
    body = np.frombuffer(buf, dtype="<f8", offset=_DMAT_HEADER.size)
    return np.array(body.reshape((rows, cols), order="F"),
                    dtype=np.float64, order="C")


def write_dmat(path, a) -> None:
    with open(path, "wb") as f:
        f.write(dmat_encode(a))


def _read_dmat_header(f) -> tuple[int, int]:
    return _dmat_shape(f.read(_DMAT_HEADER.size), os.fstat(f.fileno()).st_size)


def read_dmat_shape(path) -> tuple[int, int]:
    """(rows, cols) of a DMAT1 file, read from its header alone.

    The header is checked against the file's length, so a truncated or
    padded file fails here, before any of its body is read.
    """
    with open(path, "rb") as f:
        return _read_dmat_header(f)


def read_dmat(path, start: int = 0, size: int | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Columns [start, start + size) of a DMAT1 file (all by default).

    The body is column-major, so a column range is one byte range. It is
    read READ_CHUNK_BYTES at a time into one buffer, and each chunk's
    columns are transposed straight into the result: `out` if given (a
    rows x size float64 array, such as a block's `x_block`), else a new
    row-major array, the layout of every matrix a solver reads. Beside
    the result only that buffer is held, never a second copy of the block.
    """
    with open(path, "rb") as f:
        rows, cols = _read_dmat_header(f)
        if size is None:
            size = cols - start
        if start < 0 or size < 0 or start + size > cols:
            raise ValueError(f"columns [{start}, {start + size}) are outside "
                             f"the {cols} columns of {path}")
        if out is None:
            out = np.empty((rows, size))
        elif out.shape != (rows, size) or out.dtype != np.float64:
            raise ValueError(f"out is {out.dtype} {out.shape}, not float64 "
                             f"{(rows, size)}")
        width = max(1, READ_CHUNK_BYTES // (8 * max(rows, 1)))
        buf = np.empty(rows * min(width, size), dtype="<f8")
        f.seek(_DMAT_HEADER.size + 8 * rows * start)
        for a in range(0, size, width):
            w = min(width, size - a)
            chunk = buf[:rows * w]
            if f.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{path} ended inside its DMAT1 body")
            out[:, a:a + w] = chunk.reshape((w, rows)).T
    return out


def write_csv_matrix(path, a) -> None:
    """Plain CSV, one matrix row per line, round-trip-exact float formatting."""
    np.savetxt(path, as_matrix(a), delimiter=",", fmt="%.17g")


def read_csv_matrix(path) -> np.ndarray:
    return as_matrix(np.loadtxt(path, delimiter=",", ndmin=2))
