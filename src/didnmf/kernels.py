"""Factorization kernels: the Gram-form coordinate kernel and the residual.

All minimize (1/2) ||X - B C||_F^2 over nonnegative B (M x K) and
C (K x N). Coordinate descent runs in Gram form: the C pass streams a
block's stacked [X; C] in column tiles sized for L2 and, in that one
pass, hands the basis step X C^T and C C^T and takes the residual, so
nothing M x N is formed and X is read once per iteration. The workers
of `distributed` are built from these kernels; dbcd on one rank is the
sequential method. That kernel is Gram-form HALS (all rows of C, then
all columns of B), so HALS needs no step of its own. The kernels are
local: no clock and no collective (the stop test is `distributed`'s).
"""

from __future__ import annotations

import numpy as np

from .nnls import DEGENERATE_NORM_TOL

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
    C (only V's lower triangle is ever read; see `b_column_partials`),
    rr = ||X - B C||^2 for the updated C and this B, equal to
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
    # its gemm/gemv path. Q is dead before the tile's residual E is
    # formed, so both sit at the head of one buffer
    width = tile_width(m)
    buf, r_buf = np.empty(max(k, m) * width), np.empty(width)
    SV = np.zeros((k, m + k))
    rr = 0.0
    for cols in column_tiles(Z.shape[1], m):
        T = Z[:, cols]
        Xt, Ct = T[:m], T[m:]
        t = T.shape[1]
        Q, r = buf[:k * t].reshape((k, t)), r_buf[:t]
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
        rr += _tile_residual_sq(Xt, Ct, BF, buf)
    return SV[:, :m].T, SV[:, m:], rr, k - len(live)


def b_column_partials(S, V, B, i: int) -> tuple[np.ndarray, float]:
    """Update sums for basis column i against the current B.

    From S = X C^T and V = C C^T: y = s_i - sum_{k != i} b_k v_ki, which
    is sum_j e_j c_ij + b_i ||c_i||^2 with E = X - B C, and z = v_ii =
    ||c_i||^2. Both are linear in (S, V), so column blocks' sums add.

    Only V's lower triangle is read: v_ki is V[i, k] for k <= i and
    V[k, i] for k > i. The sweep's V, whose upper triangle may round
    differently, and the V did unpacks from its message, whose upper
    triangle is zero, both give the [y, z] of the symmetric V they stand
    for, so did and dbcd read the same doubles.
    """
    v = V[i].copy()
    z = float(v[i])
    v[i] = 0.0
    v[i + 1:] = V[i + 1:, i]
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


def _tile_residual_sq(Xt, Ct, BF, buf) -> float:
    """||X_t - B C_t||^2 of one column tile, with BF a Fortran B and buf a
    flat scratch of at least m * `tile_width(m)` doubles; the one
    expression both `residual_sq` and `c_rowwise_sweep` sum, so their
    totals agree bit for bit.

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
    BF, buf = np.asfortranarray(B), np.empty(m * tile_width(m))
    total = 0.0
    for cols in column_tiles(X.shape[1], m):
        total += _tile_residual_sq(X[:, cols], C[:, cols], BF, buf)
    return total

