"""Factorization kernels: the Gram-form coordinate kernel and ANLS.

All minimize (1/2) ||X - B C||_F^2 over nonnegative B (M x K) and
C (K x N). Coordinate descent runs in Gram form: the C pass streams X in
column tiles sized for L2 and, in that one pass, hands the basis step
X C^T and C C^T and takes the residual, so nothing M x N is formed and X
is read once per iteration. The distributed workers (`distributed`) are
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
from .nnls import nnls_rows

# squared-norm floor below which a closed-form update is skipped
DEGENERATE_NORM_TOL = 1e-12
# bytes of X per column tile: with the tile's C and B^T X rows the working
# set stays inside a per-core L2 cache. At M=5, K=3 on a core with 2 MiB
# of L2, 256 KiB swept fastest of 128 KiB to 1 MiB.
TILE_BYTES = 256 * 1024


def tile_width(m: int) -> int:
    """Columns per tile for an m-row matrix: TILE_BYTES of X, at least one."""
    return max(1, TILE_BYTES // (8 * m))


def column_tiles(n: int, m: int) -> list[slice]:
    """Consecutive column ranges of [0, n), each `tile_width(m)` wide but the last."""
    step = tile_width(m)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def c_rowwise_sweep(X, C, B) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One coordinate pass over C in Gram form, streamed over column tiles.

    Rows i = 0..K-1 are updated in order, every column at once:

        c_i := [(p_i - sum_{k != i} g_ik c_k) / g_ii]_+

    with G = B^T B formed once and P = B^T X_t once per tile. This is the
    HALS row update c_i + (p_i - g_i^T C) / g_ii with the c_i terms
    cancelled exactly, i.e. c_ij := [b_i^T e_j / b_i^T b_i]_+ with e_j the
    residual of column j minus b_i's share. Distinct columns never
    interact, so each tile is swept on its own, and its part of X C^T,
    C C^T and ||X - B C||^2 is added while it is still in cache: nothing
    reads X again before the next pass. Rows with g_ii under the
    degeneracy floor are left untouched.

    Returns (S, V, rr, skipped): S = X C^T and V = C C^T for the updated
    C, rr = ||X - B C||^2 for the updated C and this B, equal to
    `residual_sq` bit for bit, and the number of skipped rows.
    """
    m, k = B.shape
    G = B.T @ B
    rows = []
    for i in range(k):
        gii = float(G[i, i])
        if gii < DEGENERATE_NORM_TOL:
            continue
        g = G[i].copy()
        g[i] = 0.0
        rows.append((i, g, gii))
    Bt = np.ascontiguousarray(B.T)
    S = np.zeros((m, k))
    V = np.zeros((k, k))
    rr = 0.0
    for cols in column_tiles(X.shape[1], m):
        Xt, Ct = X[:, cols], C[:, cols]
        P = Bt @ Xt
        for i, g, gii in rows:
            r = g @ Ct
            np.subtract(P[i], r, out=r)
            r /= gii
            np.maximum(r, 0.0, out=Ct[i])
        S += Xt @ Ct.T
        # a copied right operand keeps numpy off its syrk path, which is
        # slower than gemm at this K
        V += Ct @ Ct.T.copy()
        rr += _tile_residual_sq(Xt, Ct, B)
    return S, V, rr, k - len(rows)


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


def _tile_residual_sq(Xt, Ct, B) -> float:
    """||X_t - B C_t||^2 of one column tile; the one expression both
    `residual_sq` and `c_rowwise_sweep` sum, so their totals agree bit
    for bit."""
    # T x M row-major on both sides, which is X's own column-major layout
    R = Xt.T - Ct.T @ B.T
    return float(np.vdot(R, R))


def residual_sq(X, B, C) -> float:
    """Exact ||X - B C||_F^2, summed tile by tile with no M x N temporary."""
    total = 0.0
    for cols in column_tiles(X.shape[1], B.shape[0]):
        total += _tile_residual_sq(X[:, cols], C[:, cols], B)
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
