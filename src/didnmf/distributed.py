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
signature of `kernels`, `(world, block, B, state) -> (local ||X - B C||^2,
skipped)`, and packs each collective's payload into one flat buffer.
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


def did_build_message(B: np.ndarray, S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Pack the block's (W, V) message into one flat buffer.

    W = X C^T - B C C^T, whose column i is sum_j e_j c_ij with
    E = X - B C, goes first in column-major order; then the lower triangle
    of V = C C^T, row by row: v_00; v_10 v_11; ... That is
    MK + K(K+1)/2 doubles. Only this function and `did_update_basis`
    know the layout.
    """
    k = V.shape[0]
    return np.concatenate([(S - B @ V).ravel(order="F")]
                          + [V[i, :i + 1] for i in range(k)])


def did_update_basis(B: np.ndarray, buf: np.ndarray) -> int:
    """Apply every basis-column correction carried by a reduced message.

    Column i moves by w_i / v_ii minus the interference of columns already
    moved this sweep, then projects to the nonnegative orthant:

        b_i := [b_i + w_i / v_ii - sum_{k < i} (v_ik / v_ii) delta_k]_+

    Dead columns (v_ii below the degeneracy floor) keep a zero delta, so
    every rank skips them identically. Returns the number skipped.
    """
    m, k = B.shape
    W = buf[:m * k].reshape((m, k), order="F")
    delta = np.zeros_like(B)
    skipped = 0
    row = m * k  # start of v_i0 .. v_ii in the buffer
    for i in range(k):
        v = buf[row:row + i + 1]
        row += i + 1
        vii = float(v[i])
        if vii < DEGENERATE_NORM_TOL:
            skipped += 1
            continue
        corr = W[:, i] / vii - delta[:, :i] @ (v[:i] / vii)
        b_new = np.maximum(B[:, i] + corr, 0.0)
        delta[:, i] = b_new - B[:, i]
        B[:, i] = b_new
    return skipped


def did_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                       state=None) -> tuple[float, int]:
    """One incremental-update iteration; exactly one allreduce.

    Updates the block's C and the replicated B in place. Returns the
    block's ||X - B C||^2 for the new B and C, and the degenerate-update
    count for this iteration. did keeps no state between iterations.
    """
    S, V, skipped = did_c_phase(block, B)
    buf = allreduce_sum(world, did_build_message(B, S, V))
    skipped += did_update_basis(B, buf)
    return residual_sq(block.x_block, B, block.c_block), skipped


def dbcd_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                        state=None) -> tuple[float, int]:
    """One distributed coordinate-descent iteration; K allreduces.

    The C pass is local; each basis column then reduces its flat [y, z]
    pair and every rank applies the identical closed-form update. On one
    rank this is sequential coordinate descent (`bcd`). Returns the
    block's ||X - B C||^2 and the degenerate-update count.
    """
    S, V, skipped = c_rowwise_sweep(block.x_block, block.c_block, B)
    for i in range(B.shape[1]):
        y, z = b_column_partials(S, V, B, i)
        yz = allreduce_sum(world, np.append(y, z))
        skipped += b_column_apply(B, i, yz[:-1], float(yz[-1]))
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
                         st: DadmmWorkerState) -> tuple[float, int]:
    """One distributed splitting iteration; exactly one allreduce.

    Updates, in order: the scaled dual U, the auxiliary target Y, the
    local C block (exact nonnegative least squares), then the replicated
    B from the reduced Gram C C^T and right-hand side (U + Y) C^T, which
    travel as one flat [gram, rhs] buffer. Returns the block's
    ||X - B C||^2 and 0 skipped updates.
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
    return residual_sq(block.x_block, B, C), 0
