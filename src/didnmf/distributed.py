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

dbcd and did share the Gram-form, tile-streamed C pass of `kernels`
(sequential bcd runs it too), which hands the basis step X C^T and C C^T
instead of a residual. Each worker returns its block's exact
||X - B C||^2 from a second tile pass after the basis update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, allreduce_sum
from .kernels import (
    DEGENERATE_NORM_TOL,
    b_column_apply,
    b_column_partials,
    c_rowwise_sweep,
    residual_sq,
)
from .matrix import ColumnBlock
from .nnls import nnls_rows


def did_c_phase(block: ColumnBlock, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the Gram-form coordinate pass over the block's C.

    Returns (S, V, skipped): the block's X C^T and C C^T for the updated
    C, and the number of degenerate rows left untouched.
    """
    return c_rowwise_sweep(block.x_block, block.c_block, B)


def did_build_message(B: np.ndarray, S: np.ndarray,
                      V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (W, V) payload from the block's sums.

    W = X C^T - B C C^T, whose column i is sum_j e_j c_ij with
    E = X - B C; V is the lower triangle of C C^T (the zero upper
    triangle travels too, which keeps the payload's meaning plain).
    """
    return S - B @ V, np.tril(V)


def did_update_basis(B: np.ndarray, W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Apply every basis-column correction carried by a reduced (W, V).

    Column i moves by w_i / v_ii minus the interference of columns already
    moved this sweep, then projects to the nonnegative orthant:

        b_i := [b_i + w_i / v_ii - sum_{k < i} (v_ik / v_ii) delta_k]_+

    Dead columns (v_ii below the degeneracy floor) keep a zero delta, so
    every rank skips them identically. Returns the M x K delta matrix.
    """
    k = B.shape[1]
    delta = np.zeros_like(B)
    for i in range(k):
        vii = float(V[i, i])
        if vii < DEGENERATE_NORM_TOL:
            continue
        corr = W[:, i] / vii - delta[:, :i] @ (V[i, :i] / vii)
        b_new = np.maximum(B[:, i] + corr, 0.0)
        delta[:, i] = b_new - B[:, i]
        B[:, i] = b_new
    return delta


def did_worker_iterate(world: CommWorld, block: ColumnBlock,
                       B: np.ndarray) -> tuple[float, int]:
    """One incremental-update iteration; exactly one allreduce.

    Returns the block's ||X - B C||^2 for the new B and C, and the
    degenerate-update count for this iteration.
    """
    S, V, skipped = did_c_phase(block, B)
    W, V = allreduce_sum(world, *did_build_message(B, S, V))
    did_update_basis(B, W, V)
    skipped += int(np.count_nonzero(np.diag(V) < DEGENERATE_NORM_TOL))
    return residual_sq(block.x_block, B, block.c_block), skipped


def dbcd_worker_iterate(world: CommWorld, block: ColumnBlock,
                        B: np.ndarray) -> tuple[float, int]:
    """One distributed coordinate-descent iteration; K allreduces.

    The C pass is local; each basis column then reduces its (y, z) pair
    and every rank applies the identical closed-form update. Returns the
    block's ||X - B C||^2 and the degenerate-update count.
    """
    S, V, skipped = c_rowwise_sweep(block.x_block, block.c_block, B)
    for i in range(B.shape[1]):
        y_local, z_local = b_column_partials(S, V, B, i)
        y, z = allreduce_sum(world, y_local, np.array([z_local]))
        skipped += b_column_apply(B, i, y, float(z[0]))
    return residual_sq(block.x_block, B, block.c_block), skipped


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
                         st: DadmmWorkerState) -> DadmmWorkerState:
    """One distributed splitting iteration; exactly one allreduce.

    Updates, in order: the scaled dual U, the auxiliary target Y, the
    local C block (exact nonnegative least squares), then the replicated
    B from the reduced Gram C C^T and right-hand side (U + Y) C^T.
    """
    C = block.c_block
    BC = B @ C
    st.U += st.Y - BC
    st.Y = (block.x_block - st.rho * st.U + st.rho * BC) / (1.0 + st.rho)
    target = st.U + st.Y
    C[:] = nnls_rows(B.T @ B, target.T @ B).T
    gram, rhs = allreduce_sum(world, C @ C.T, target @ C.T)
    B[:] = nnls_rows(gram, rhs)
    return st
