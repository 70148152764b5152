"""The solvers' steps: one column block per rank, replicated basis.

Each worker owns a contiguous slab of columns of X and C; the M x K basis
B is replicated and stays bit-identical across ranks because every B
update is computed from allreduced quantities with a deterministic
reduction order. Every worker is a step of the `harness` run loop, runs
on any number of ranks (one included) and packs each collective's
payload into one flat buffer.

* dbcd: coordinate descent. Its C phase, `did_c_phase` (the Gram-form C
  pass of `kernels`), is local; `move_basis` then allreduces each basis
  column's [y, z], so K collectives per iteration. bcd runs the same
  step.
* did: the same iterate with one collective per iteration. Each rank's
  message carries its Gram sums S = X C^T and V = C C^T, which add
  across blocks; rank 0 alone runs `move_basis` on the reduced sums,
  with no further collective, and the collective's reply carries the
  moved B (MK + 3 doubles, not the whole total) to every other rank.
  On one rank it is bcd bit for bit.
* anls and dadmm: `exact_pass` solves C on the block and then B from
  one reduced (Gram, right-hand side) pair, both exactly, against a
  target: X for anls (alternating nonnegative least squares), and for
  dadmm, per-block splitting with scaled duals, the target U + Y its
  splitting update makes.

did and dbcd need no collective of their own for the stop test: each
rank's rr = ||X_blk - B_old C_new||^2, which the C phase takes in its
one pass over X_blk, and its time-cap flag ride the iteration's (first)
message, and the rank that moves the basis (every rank for dbcd, rank 0
for did) adds each column's change of the residual (see `move_basis`)
to the reduced rr. A result rounded below zero is
reported as 0. `exact_pass` reduces its residual and flag in a service
reduction after its collective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, allreduce_sum
from .kernels import (
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
    """The C phase of did and dbcd: one Gram-form coordinate pass over
    the block's C, on its stacked [X; C], which also takes the block's
    residual.

    Returns (S, V, rr, skipped): the block's X C^T and C C^T for the
    updated C, rr = ||X - B C||^2 for the updated C and the unmoved B,
    and the number of degenerate rows left untouched.
    """
    return c_rowwise_sweep(block.z, B)


def did_build_message(S: np.ndarray, V: np.ndarray, rr: float,
                      flag: float) -> np.ndarray:
    """Pack the block's (S, V, rr, flag) message into one flat buffer.

    S = X C^T goes first in column-major order; then the lower triangle
    of V = C C^T, row by row: v_00; v_10 v_11; ...; then the block's
    residual rr and its time-cap flag. That is MK + K(K+1)/2 + 2 doubles.
    Only this function and `did_update_basis` know the layout.
    """
    return np.concatenate([S.ravel(order="F"), V[np.tri(len(V), dtype=bool)],
                           [rr, flag]])


def did_update_basis(B: np.ndarray, buf: np.ndarray) -> tuple[float, int, bool]:
    """Move every basis column from a reduced message, as bcd does.

    Unpacks the reduced S and V (V mirrored from its lower triangle) and
    runs `move_basis` on them with no further collective and no reduce.
    """
    m, k = B.shape
    S = buf[:m * k].reshape((m, k), order="F")
    V = np.zeros((k, k))
    V[np.tri(k, dtype=bool)] = buf[m * k:-2]
    V += np.tril(V, -1).T
    return move_basis(B, S, V, buf[-2:])


def move_basis(B: np.ndarray, S: np.ndarray, V: np.ndarray, tail,
               reduce=None) -> tuple[float, int, bool]:
    """Move basis columns 0..K-1 in order with the coordinate kernel.

    Column i's [y, z] (`b_column_partials` of (S, V) against the columns
    already moved) is reduced, and `b_column_apply` installs
    b_i := [y / z]_+. did and dbcd differ only in `reduce`: did's (S, V)
    and `tail` = [rr, flag] are already reduced and used as they are (no
    `reduce`); dbcd's `reduce` allreduces its rank's [y, z], column 0's
    followed by `tail`. Moving b_i by d changes ||X - B C||^2 by
    z ||d||^2 - 2 d^T (y - z b_i). Returns (rr plus those changes,
    clamped at 0; the number of columns skipped; the time-cap flag of
    any rank).
    """
    skipped = 0
    resid, over = tail
    for i in range(B.shape[1]):
        y, z = b_column_partials(S, V, B, i)
        if reduce is not None:
            yz = reduce(np.concatenate([y, [z], tail if i == 0 else []]))
            if i == 0:
                (resid, over), yz = yz[-2:], yz[:-2]
            y, z = yz[:-1], float(yz[-1])
        b = B[:, i].copy()
        skipped += b_column_apply(B, i, y, z)
        d = B[:, i] - b
        resid += z * float(d @ d) - 2.0 * float(d @ (y - z * b))
    return max(float(resid), 0.0), skipped, bool(over > 0.0)


def did_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                       state=None, deadline: float = math.inf
                       ) -> tuple[float, int, bool]:
    """One incremental-update iteration; exactly one allreduce.

    Every rank sends its message; rank 0 alone moves B on the total
    (`did_update_basis`) and replies with `did_basis_reply`, which every
    rank installs. Updates the block's C and the replicated B in place;
    did keeps no state between iterations.
    """
    S, V, rr, skipped = did_c_phase(block, B)
    m, k = B.shape
    reply = allreduce_sum(world, did_build_message(S, V, rr, over_time(deadline)),
                          finish=lambda total: did_basis_reply(B, total),
                          reply_size=m * k + 3)
    B[:] = reply[:m * k].reshape((m, k), order="F")
    resid, basis_skipped, over = reply[m * k:]
    return float(resid), skipped + int(basis_skipped), bool(over)


def did_basis_reply(B: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Rank 0's finishing step of did's collective: move B on the reduced
    message `total` and pack the reply, [B column-major, resid, basis
    skips, time-cap flag], MK + 3 doubles."""
    resid, skipped, over = did_update_basis(B, total)
    return np.concatenate([B.ravel(order="F"), [resid, skipped, over]])


def dbcd_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                        state=None, deadline: float = math.inf
                        ) -> tuple[float, int, bool]:
    """One distributed coordinate-descent iteration; K allreduces.

    The C phase (`did_c_phase`) is local; `move_basis` then allreduces
    each basis column's [y, z] (the first with the block's rr and
    time-cap flag), and every rank applies the identical update. This is
    also bcd's step.
    """
    S, V, rr, skipped = did_c_phase(block, B)
    resid, basis_skipped, over = move_basis(
        B, S, V, [rr, over_time(deadline)],
        lambda yz: allreduce_sum(world, yz))
    return resid, skipped + basis_skipped, over


@dataclass
class DadmmWorkerState:
    """Per-block splitting state: auxiliary target Y and scaled dual U."""

    U: np.ndarray
    Y: np.ndarray
    rho: float

    @classmethod
    def fresh(cls, block: ColumnBlock, B: np.ndarray,
              rho: float = 1.0) -> "DadmmWorkerState":
        if not rho > 0.0:
            raise ValueError("rho must be positive")
        return cls(U=np.zeros_like(block.x_block),
                   Y=B @ block.c_block,
                   rho=float(rho))


def dadmm_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                         st: DadmmWorkerState, deadline: float = math.inf
                         ) -> tuple[float, int, bool]:
    """One distributed splitting iteration; exactly one allreduce.

    Updates the scaled dual U and the auxiliary target Y, then runs
    `exact_pass` against the target U + Y.
    """
    BC = B @ block.c_block
    st.U += st.Y - BC
    st.Y = (block.x_block - st.rho * st.U + st.rho * BC) / (1.0 + st.rho)
    return exact_pass(world, block, B, st.U + st.Y, deadline)


def anls_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                 state=None, deadline: float = math.inf
                 ) -> tuple[float, int, bool]:
    """Alternating exact nonnegative least squares: `exact_pass` against X."""
    return exact_pass(world, block, B, block.x_block, deadline)


def exact_pass(world: CommWorld, block: ColumnBlock, B: np.ndarray, target,
               deadline: float) -> tuple[float, int, bool]:
    """Solve both factors exactly against the block's `target`; one allreduce.

    The block's C := NNLS of B^T B against B^T target, locally; then the
    replicated B := NNLS from the reduced Gram C C^T and right-hand side
    target C^T, which travel as one flat [gram, rhs] buffer. Returns
    ||X - B C||^2 over all ranks, 0 skipped updates and the time-cap
    flag, which take one service reduction after the algorithmic one.
    """
    C = block.c_block
    m, k = B.shape
    C[:] = nnls_rows(B.T @ B, target.T @ B).T
    buf = allreduce_sum(world, np.concatenate([(C @ C.T).ravel(order="F"),
                                               (target @ C.T).ravel(order="F")]))
    gram = buf[:k * k].reshape((k, k), order="F")
    B[:] = nnls_rows(gram, buf[k * k:].reshape((m, k), order="F"))
    resid, over = reduce_progress(world, residual_sq(block.x_block, B, C),
                                  deadline)
    return resid, 0, over
