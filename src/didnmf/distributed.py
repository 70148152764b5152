"""Distributed workers: one column block per rank, replicated basis.

Each worker owns a contiguous slab of columns of X and C; the M x K basis
B is replicated and stays bit-identical across ranks because every B
update is computed from allreduced quantities with a deterministic
reduction order.

Three workers:

* dbcd: coordinate descent with one (y, z) reduction per basis column,
  so K collectives per iteration.
* did: the same iterate reorganized so every basis correction rides one
  (W, V) message, a single collective per iteration; the corrections are
  applied locally with a delta recurrence that undoes the interference
  between columns updated in the same sweep.
* dadmm: per-block splitting with scaled duals and one (Gram, right-hand
  side) reduction per iteration; both factor updates are solved exactly.

dbcd and did share the Gram-form, tile-streamed C pass of `kernels`,
which hands the basis step X C^T and C C^T instead of a residual;
sequential bcd is dbcd on a one-rank world. Every worker has the step
signature of `kernels`, `(world, block, B, state, deadline) ->
(||X - B C||^2 over all ranks, skipped, over_time)`, and packs each
collective's payload into one flat buffer.

did and dbcd need no collective of their own for the stop test. After
the C pass each rank takes rr = ||X_blk - B_old C_new||^2 and the
time-cap flag, and both ride the iteration's (first) message. Every
rank then holds the reduced sums and the realized move Delta of the
basis, and the new residual follows exactly:

    ||X - B_new C||^2 = rr - 2 <Delta, (X - B_old C) C^T> + <Delta^T Delta, C C^T>

did has every term in its one message (W and V); dbcd adds column i's
share, -2 db_i^T (y_i - b_i z_i) + z_i ||db_i||^2, as it moves b_i. A
result rounded below zero is reported as 0. dadmm reduces its residual
and flag in a service reduction after its collective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, allreduce_sum
from .kernels import (
    DEGENERATE_NORM_TOL,
    b_column_apply,
    b_column_partials,
    c_rowwise_sweep,
    over_time,
    reduce_progress,
    residual_sq,
)
from .matrix import ColumnBlock
from .nnls import nnls_rows


def did_c_phase(block: ColumnBlock, B: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Run the Gram-form coordinate pass over the block's C, then take
    the block's residual against the basis the pass used.

    Returns (S, V, rr, skipped): the block's X C^T and C C^T for the
    updated C, rr = ||X - B C||^2 for the updated C and the unmoved B,
    and the number of degenerate rows left untouched.
    """
    S, V, skipped = c_rowwise_sweep(block.x_block, block.c_block, B)
    return S, V, residual_sq(block.x_block, B, block.c_block), skipped


def did_build_message(B: np.ndarray, S: np.ndarray, V: np.ndarray,
                      rr: float, flag: float) -> np.ndarray:
    """Pack the block's (W, V, rr, flag) message into one flat buffer.

    W = X C^T - B C C^T, whose column i is sum_j e_j c_ij with
    E = X - B C, goes first in column-major order; then the lower triangle
    of V = C C^T, row by row: v_00; v_10 v_11; ...; then the block's
    residual rr and its time-cap flag. That is MK + K(K+1)/2 + 2 doubles.
    Only this function and `did_update_basis` know the layout.
    """
    k = V.shape[0]
    return np.concatenate([(S - B @ V).ravel(order="F")]
                          + [V[i, :i + 1] for i in range(k)] + [[rr, flag]])


def did_update_basis(B: np.ndarray, buf: np.ndarray) -> tuple[float, int, bool]:
    """Apply every basis-column correction carried by a reduced message.

    Column i moves by w_i / v_ii minus the interference of columns already
    moved this sweep, then projects to the nonnegative orthant:

        b_i := [b_i + w_i / v_ii - sum_{k < i} (v_ik / v_ii) delta_k]_+

    Dead columns (v_ii below the degeneracy floor) keep a zero delta, so
    every rank skips them identically. Returns (||X - B C||^2 for the
    moved B, from the identity in the module docstring and clamped at 0;
    the number skipped; the time-cap flag of any rank).
    """
    m, k = B.shape
    W = buf[:m * k].reshape((m, k), order="F")
    V = np.zeros((k, k))
    delta = np.zeros_like(B)
    skipped = 0
    row = m * k  # start of v_i0 .. v_ii in the buffer
    for i in range(k):
        v = buf[row:row + i + 1]
        V[i, :i + 1] = v
        row += i + 1
        vii = float(v[i])
        if vii < DEGENERATE_NORM_TOL:
            skipped += 1
            continue
        corr = W[:, i] / vii - delta[:, :i] @ (v[:i] / vii)
        b_new = np.maximum(B[:, i] + corr, 0.0)
        delta[:, i] = b_new - B[:, i]
        B[:, i] = b_new
    V += np.tril(V, -1).T
    rr, flag = buf[row], buf[row + 1]
    resid = rr - 2.0 * np.vdot(delta, W) + np.vdot(delta.T @ delta, V)
    return max(float(resid), 0.0), skipped, bool(flag > 0.0)


def did_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                       state=None, deadline: float = math.inf
                       ) -> tuple[float, int, bool]:
    """One incremental-update iteration; exactly one allreduce.

    Updates the block's C and the replicated B in place. Returns
    ||X - B C||^2 over all ranks for the new B and C, the degenerate-update
    count for this iteration and the time-cap flag. did keeps no state
    between iterations.
    """
    S, V, rr, skipped = did_c_phase(block, B)
    buf = allreduce_sum(world, did_build_message(B, S, V, rr,
                                                 over_time(deadline)))
    resid, basis_skipped, over = did_update_basis(B, buf)
    return resid, skipped + basis_skipped, over


def dbcd_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                        state=None, deadline: float = math.inf
                        ) -> tuple[float, int, bool]:
    """One distributed coordinate-descent iteration; K allreduces.

    The C pass is local; each basis column then reduces its flat [y, z]
    pair and every rank applies the identical closed-form update. The
    first pair also carries the block's rr and time-cap flag. On one
    rank this is sequential coordinate descent (`bcd`). Returns
    ||X - B C||^2 over all ranks, the degenerate-update count and the
    time-cap flag.
    """
    X, C = block.x_block, block.c_block
    S, V, skipped = c_rowwise_sweep(X, C, B)
    tail = [residual_sq(X, B, C), over_time(deadline)]  # rides the first [y, z]
    for i in range(B.shape[1]):
        y, z = b_column_partials(S, V, B, i)
        yz = allreduce_sum(world, np.concatenate([y, [z], tail]))
        if tail:
            resid, over = float(yz[-2]), bool(yz[-1] > 0.0)
            yz, tail = yz[:-2], []
        y, z = yz[:-1], float(yz[-1])
        b = B[:, i].copy()
        skipped += b_column_apply(B, i, y, z)
        d = B[:, i] - b
        resid += z * float(d @ d) - 2.0 * float(d @ (y - z * b))
    return max(resid, 0.0), skipped, over


@dataclass
class DadmmWorkerState:
    """Per-block splitting state: auxiliary target Y and scaled dual U."""

    U: np.ndarray
    Y: np.ndarray
    rho: float

    @classmethod
    def fresh(cls, block: ColumnBlock, B: np.ndarray,
              rho: float = 1.0) -> "DadmmWorkerState":
        if rho <= 0.0:
            raise ValueError("rho must be positive")
        return cls(U=np.zeros_like(block.x_block),
                   Y=B @ block.c_block,
                   rho=float(rho))


def dadmm_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                         st: DadmmWorkerState, deadline: float = math.inf
                         ) -> tuple[float, int, bool]:
    """One distributed splitting iteration; exactly one allreduce.

    Updates, in order: the scaled dual U, the auxiliary target Y, the
    local C block (exact nonnegative least squares), then the replicated
    B from the reduced Gram C C^T and right-hand side (U + Y) C^T, which
    travel as one flat [gram, rhs] buffer. Returns ||X - B C||^2 over
    all ranks, 0 skipped updates and the time-cap flag, which take one
    service reduction after the algorithmic one.
    """
    C = block.c_block
    m, k = B.shape
    BC = B @ C
    st.U += st.Y - BC
    st.Y = (block.x_block - st.rho * st.U + st.rho * BC) / (1.0 + st.rho)
    target = st.U + st.Y
    C[:] = nnls_rows(B.T @ B, target.T @ B).T
    buf = allreduce_sum(world, np.concatenate([(C @ C.T).ravel(order="F"),
                                               (target @ C.T).ravel(order="F")]))
    gram = buf[:k * k].reshape((k, k), order="F")
    B[:] = nnls_rows(gram, buf[k * k:].reshape((m, k), order="F"))
    resid, over = reduce_progress(world, residual_sq(block.x_block, B, C),
                                  deadline)
    return resid, 0, over
