"""Factorization kernels: the Gram-form coordinate kernel and ANLS.

All minimize (1/2) ||X - B C||_F^2 over nonnegative B (M x K) and
C (K x N). Coordinate descent runs in Gram form: the C pass streams a
block's stacked [X; C] in column tiles sized for L2 and, in that one
pass, hands the basis step X C^T and C C^T and takes the residual, so
nothing M x N is formed and X is read once per iteration. The distributed workers (`distributed`) are
built from that kernel, and sequential coordinate descent is the dbcd
worker on a one-rank world. That kernel is Gram-form HALS (all rows of
C, then all columns of B), so HALS needs no step of its own.

ANLS is a sequential `harness` step: it updates B and the block's C in
place on a one-rank world, and its residual and time-cap flag take one
service reduction (`reduce_progress`).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .comm import allreduce_sum
from .matrix import ColumnBlock
from .nnls import DEGENERATE_NORM_TOL, nnls_rows

# bytes of X per column tile: with the tile's C, Q and residual rows the
# working set stays inside a per-core L2 cache. On a core with 2 MiB of L2
# (Xeon, 2 vCPUs), one BLAS thread, stacked [X; C] blocks, median sweep
# ms over 21 interleaved repetitions for 128 / 256 / 384 / 512 / 1024 KiB,
# in two runs:
# M=5, N=5e5, K=3: 10.01 / 8.65 / 8.63 / 9.04 / 10.65 and
#                  10.37 / 9.24 / 9.09 / 9.78 / 11.06;
# M=40, N=5e4, K=30: 34.28 / 29.64 / 28.78 / 28.03 / 28.54 and
#                    37.80 / 32.77 / 29.62 / 29.30 / 30.08.
TILE_BYTES = 384 * 1024


def tile_width(m: int) -> int:
    """Columns per tile for an m-row matrix: TILE_BYTES of X, at least one."""
    return max(1, TILE_BYTES // (8 * m))


def column_tiles(n: int, m: int) -> list[slice]:
    """Consecutive column ranges of [0, n), each `tile_width(m)` wide but the last."""
    step = tile_width(m)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def c_rowwise_sweep(Z, B) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One coordinate pass over C in Gram form, streamed over column tiles.

    Z is a block's stack [X; C] (`ColumnBlock.z`): X in its first M =
    B.shape[0] rows, C in the K rows below, row-major. Rows i = 0..K-1 of
    C are updated in order, every column at once:

        c_i := [p~_i + h_i^T C]_+

    with G = B^T B, h_i = -g_i / g_ii (h_ii = 0) and P~ = B~^T X, where
    column i of B~ is b_i / g_ii. This is the HALS row update
    c_i + (p_i - g_i^T C) / g_ii with the c_i terms cancelled exactly and
    1/g_ii folded into the products, i.e. c_ij := [b_i^T e_j / b_i^T b_i]_+
    with e_j the residual of column j minus b_i's share. Distinct columns
    never interact, so each tile T = Z[:, cols] = [X_t; C_t] is swept on
    its own, in three kinds of product:

    * Q = [B~^T | U] T, with U the strictly upper triangle of H: row i of
      Q is p~_i plus the share of the rows after i, not yet updated;
    * c_0 := [q_0]_+, then c_i := [q_i + L_i C_t[:i]]_+ with L the strictly
      lower triangle of H, which reads only the rows already updated;
    * C_t T^T = [S_t^T | V_t], the tile's part of S = X C^T and of
      V = C C^T.

    The tile's ||X_t - B C_t||^2 is added while it is still in cache, so
    nothing reads X again before the next pass. Rows with g_ii under the
    degeneracy floor are left untouched. B is only read; C- and
    Fortran-ordered B give the same result bit for bit.

    Returns (S, V, rr, skipped): S = X C^T and V = C C^T for the updated
    C, rr = ||X - B C||^2 for the updated C and this B, equal to
    `residual_sq` bit for bit, and the number of skipped rows.
    """
    m, k = B.shape
    BF = np.asfortranarray(B)
    G = BF.T @ BF
    # A = [B~^T | U] and L, copies, never views of B
    A = np.zeros((k, m + k))
    A[:, :m] = BF.T
    L = np.zeros((k, k))
    live = []
    for i in range(k):
        gii = float(G[i, i])
        if gii < DEGENERATE_NORM_TOL:
            continue
        live.append(i)
        A[i, :m] /= gii
        A[i, m + i + 1:] = G[i, i + 1:] / -gii
        L[i, :i] = G[i, :i] / -gii
    # per-tile operands are slices of buffers made once per call; Q and
    # each row's product write a C-contiguous `out`, which keeps numpy on
    # its gemm/gemv path
    width = tile_width(m)
    Q_buf, r_buf = np.empty(k * width), np.empty(width)
    E_buf = _tile_buffer(m)
    SV = np.zeros((k, m + k))
    rr = 0.0
    for cols in column_tiles(Z.shape[1], m):
        T = Z[:, cols]
        Xt, Ct = T[:m], T[m:]
        t = T.shape[1]
        Q, r = Q_buf[:k * t].reshape((k, t)), r_buf[:t]
        np.matmul(A, T, out=Q)
        for i in live:
            if i == 0:
                np.maximum(Q[0], 0.0, out=Ct[0])
                continue
            if i == 1:
                # numpy runs a product over one row off BLAS and slowly
                np.multiply(Ct[0], L[1, 0], out=r)
            else:
                np.matmul(L[i, :i], Ct[:i], out=r)
            r += Q[i]
            np.maximum(r, 0.0, out=Ct[i])
        SV += Ct @ T.T
        rr += _tile_residual_sq(Xt, Ct, BF, E_buf)
    return SV[:, :m].T, SV[:, m:], rr, k - len(live)


def b_column_partials(S, V, B, i: int) -> tuple[np.ndarray, float]:
    """Update sums for basis column i against the current B.

    From S = X C^T and V = C C^T: y = s_i - sum_{k != i} b_k v_ki, which
    is sum_j e_j c_ij + b_i ||c_i||^2 with E = X - B C, and z = v_ii =
    ||c_i||^2. Both are linear in (S, V), so column blocks' sums add.
    """
    v = V[:, i].copy()
    z = float(v[i])
    v[i] = 0.0
    return S[:, i] - B @ v, z


def b_column_apply(B, i: int, y, z: float) -> int:
    """Install b_i := [y / z]_+ from reduced sums.

    A z below the degeneracy floor leaves the column untouched. Returns
    the number of skipped updates, 0 or 1.
    """
    if z < DEGENERATE_NORM_TOL:
        return 1
    B[:, i] = np.maximum(y / z, 0.0)
    return 0


def _tile_buffer(m: int) -> np.ndarray:
    """Flat scratch of m * `tile_width(m)` doubles for `_tile_residual_sq`."""
    return np.empty(m * tile_width(m))


def _tile_residual_sq(Xt, Ct, BF, buf) -> float:
    """||X_t - B C_t||^2 of one column tile, with BF a Fortran B and buf a
    `_tile_buffer`; the one expression both `residual_sq` and
    `c_rowwise_sweep` sum, so their totals agree bit for bit.

    The tile's residual E is the row-major head of buf, so on a row-major
    X_t the subtract reads and writes contiguous rows and the dot product
    runs over one contiguous run of memory."""
    m, t = Xt.shape
    e = buf[:m * t]
    E = e.reshape((m, t))
    # a Fortran B and a row-major `out` make this one gemm on OpenBLAS's
    # fast path
    np.matmul(BF, Ct, out=E)
    np.subtract(Xt, E, out=E)
    return float(e @ e)


def residual_sq(X, B, C) -> float:
    """Exact ||X - B C||_F^2, summed tile by tile with no M x N temporary."""
    m = B.shape[0]
    BF, buf = np.asfortranarray(B), _tile_buffer(m)
    total = 0.0
    for cols in column_tiles(X.shape[1], m):
        total += _tile_residual_sq(X[:, cols], C[:, cols], BF, buf)
    return total


def over_time(deadline: float) -> float:
    """The time-cap flag: 1.0 once the clock is past `deadline`, else 0.0.

    A step reads it after its local compute, before its message, so the
    flagged iteration still completes and the run stops after it.
    """
    return 1.0 if time.perf_counter() > deadline else 0.0


def reduce_progress(world, local: float, deadline: float) -> tuple[float, bool]:
    """(sum of every rank's ||X - B C||^2, time-cap flag), by one service
    reduction: the stop test of a step whose own message cannot carry it."""
    out = allreduce_sum(world, np.array([local, over_time(deadline)]),
                        service=True)
    return float(out[0]), bool(out[1] > 0.0)


def anls_iterate(world, block: ColumnBlock, B: np.ndarray, state=None,
                 deadline: float = math.inf) -> tuple[float, int, bool]:
    """Alternating exact nonnegative least squares: all of C, then all of B."""
    X, C = block.x_block, block.c_block
    C[:] = nnls_rows(B.T @ B, X.T @ B).T
    B[:] = nnls_rows(C @ C.T, X @ C.T)
    resid, over = reduce_progress(world, residual_sq(X, B, C), deadline)
    return resid, 0, over
