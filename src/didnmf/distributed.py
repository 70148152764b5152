"""The solvers' steps: one column block per rank, replicated basis.

Each worker owns a contiguous slab of columns of X and C; the M x K basis
B is replicated. Rank 0 alone moves it, from reduced sums, and every
other rank installs what rank 0's reply carries (`comm.allreduce_sum`'s
finishing step). So every rank holds rank 0's B, bit for bit, by
construction, however each host rounds the arithmetic after the reduce.
Every worker is a step of the `harness` run loop, runs on any number of
ranks (one included) and packs each collective's payload into one flat
buffer.

* dbcd: coordinate descent. Its C phase, `did_c_phase` (the Gram-form C
  pass of `kernels`), is local. Then each basis column's [y, z] is
  reduced, so K collectives per iteration; rank 0 moves b_i on the
  total (`move_column`) and replies with b_i alone, M doubles. On one
  rank it is sequential coordinate descent, Gram-form HALS.
* did: the same iterate with one collective per iteration. Each rank's
  message carries its Gram sums S = X C^T and V's lower triangle, V =
  C C^T, and its residual, which add across blocks; rank 0 alone moves
  every column in turn (`did_update_basis`, `move_column` per column)
  on the reduced sums, with no further collective, and replies with the
  moved B and the `progress_tail`, MK + 2 doubles, not the whole total.
  On one rank it is dbcd bit for bit.
* anls and dadmm: `exact_pass` solves C on the block and then B from
  one reduced (Gram, right-hand side) pair, both exactly, against a
  target: X for anls (alternating nonnegative least squares), and for
  dadmm, per-block splitting with scaled duals, the target U + Y its
  splitting update makes. Rank 0 alone solves B and replies with it,
  MK doubles, not the K^2 + MK total.

Every stop decision is rank 0's, made in one place: the finishing step
that ends an iteration replies with a `progress_tail`, [residual
clamped at 0, time-cap flag], which `read_progress` alone unpacks, and
the flag is rank 0's clock against the deadline, read there and nowhere
else. So every rank stops on rank 0's numbers, after the flagged
iteration completes, and no message upward carries a flag. Only rank 0
moves B, so only rank 0 has basis skips to count: they stay in its
running [residual, skips] and travel in no message.
did and dbcd need no collective of their own for it: each rank's rr =
||X_blk - B_old C_new||^2, which the C phase takes in its one pass over
X_blk, rides the iteration's (first) message, and rank 0 adds each
column's change of the residual (see `move_column`) to the reduced rr.
`exact_pass` and e0 send each rank's residual in one service reduction
(`reduce_progress`), whose finishing step makes the same tail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, allreduce_sum
from .kernels import (
    b_column_apply,
    b_column_partials,
    c_rowwise_sweep,
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


def did_build_message(S: np.ndarray, V: np.ndarray, rr: float) -> np.ndarray:
    """Pack the block's (S, V, rr) message into one flat buffer.

    S = X C^T goes first in column-major order; then the lower triangle
    of V = C C^T, row by row: v_00; v_10 v_11; ...; then the block's
    residual rr. That is MK + K(K+1)/2 + 1 doubles, the paper's Gram sums
    and residual and nothing else. Only this function and
    `did_update_basis` know the layout.
    """
    return np.concatenate([S.ravel(order="F"), V[np.tri(len(V), dtype=bool)], [rr]])


def did_update_basis(B: np.ndarray, buf: np.ndarray, run: np.ndarray,
                     deadline: float) -> np.ndarray:
    """Rank 0's finishing step of did's collective: move basis columns
    0..K-1 in order on the reduced message `buf`, as dbcd does, with no
    further collective, and return the reply.

    Unpacks the reduced S and V's lower triangle (`b_column_partials`
    reads no other), and `move_column` installs each column's [y, z]
    against the columns already moved. `run`, rank 0's running
    [residual, basis skips] with no skips yet, takes the reduced rr and
    then every column's move, and keeps the skips. The reply is [B
    column-major, `progress_tail` against `deadline`], MK + 2 doubles.
    """
    m, k = B.shape
    S = buf[:m * k].reshape((m, k), order="F")
    V = np.zeros((k, k))
    V[np.tri(k, dtype=bool)] = buf[m * k:-1]
    run[0] = buf[-1]
    for i in range(k):
        move_column(B, i, *b_column_partials(S, V, B, i), run)
    return np.concatenate([B.ravel(order="F"), progress_tail(run, deadline)])


def move_column(B: np.ndarray, i: int, y, z: float, run: np.ndarray) -> None:
    """Install b_i := [y / z]_+ from column i's reduced [y, z]
    (`b_column_apply`), and add the move to `run`, the running [residual,
    skips]: moving b_i by d changes ||X - B C||^2 by
    z ||d||^2 - 2 d^T (y - z b_i).

    Only rank 0 calls it, in a finishing step: did's `did_update_basis`
    once per column, dbcd's `dbcd_column_reply` once per collective.
    """
    b = B[:, i].copy()
    run[1] += b_column_apply(B, i, y, z)
    d = B[:, i] - b
    run[0] += z * float(d @ d) - 2.0 * float(d @ (y - z * b))


def progress_tail(run, deadline: float) -> list:
    """The tail of the reply that ends an iteration, from rank 0's
    running residual `run[0]`: [resid clamped at 0, time-cap flag], the
    flag 1.0 once rank 0's clock is past `deadline`, else 0.0. Rank 0's
    basis skips stay in its `run` and are not sent.

    Only a finishing step calls it, so it is the one reader of the clock
    and every rank stops on what rank 0 read. `read_progress` unpacks it.
    """
    return [max(float(run[0]), 0.0), float(time.perf_counter() > deadline)]


def read_progress(tail, skipped: int) -> tuple[float, int, bool]:
    """A step's (resid, skips, over) from a reply's `progress_tail` and
    this rank's `skipped` updates: its C rows, and on rank 0 the basis
    columns too."""
    return float(tail[0]), skipped, bool(tail[1])


def did_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                       state=None, deadline: float = math.inf
                       ) -> tuple[float, int, bool]:
    """One incremental-update iteration; exactly one allreduce.

    Every rank sends its message; rank 0 alone moves B on the total and
    replies with it (`did_update_basis`), and every rank installs the
    reply. Updates the block's C and the replicated B in place; did
    keeps no state between iterations. Rank 0's basis skips stay in its
    `run`, so another rank counts its C rows alone.
    """
    S, V, rr, skipped = did_c_phase(block, B)
    run = np.zeros(2)  # rank 0's running [resid, basis skips]
    reply = allreduce_sum(world, did_build_message(S, V, rr), reply_size=B.size + 2,
                          finish=lambda total: did_update_basis(B, total, run, deadline))
    B[:] = reply[:B.size].reshape(B.shape, order="F")
    return read_progress(reply[B.size:], skipped + int(run[1]))


def dbcd_worker_iterate(world: CommWorld, block: ColumnBlock, B: np.ndarray,
                        state=None, deadline: float = math.inf
                        ) -> tuple[float, int, bool]:
    """One distributed coordinate-descent iteration; K allreduces.

    The C phase (`did_c_phase`) is local. Then each basis column's local
    [y, z] (`b_column_partials`; the first with the block's rr) is
    reduced, rank 0 alone moves b_i on the total (`dbcd_column_reply`),
    and every rank installs the b_i it replies with. The last reply also
    carries the `progress_tail`, so every rank stops on what rank 0
    computed and read. Rank 0's basis skips stay in its `run`.
    """
    S, V, rr, skipped = did_c_phase(block, B)
    m, k = B.shape
    run = np.zeros(2)  # rank 0's running [resid, basis skips]
    for i in range(k):
        y, z = b_column_partials(S, V, B, i)
        msg = np.concatenate([y, [z, rr] if i == 0 else [z]])
        # rank 0 runs `finish` inside the call, while `i` is this column
        reply = allreduce_sum(world, msg, reply_size=m + 2 * (i == k - 1),
                              finish=lambda t: dbcd_column_reply(B, i, t, run, deadline))
        B[:, i] = reply[:m]
    return read_progress(reply[m:], skipped + int(run[1]))


def dbcd_column_reply(B: np.ndarray, i: int, total: np.ndarray,
                      run: np.ndarray, deadline: float) -> np.ndarray:
    """Rank 0's finishing step of dbcd's collective for basis column i:
    move b_i on the reduced [y, z] (column 0's followed by rr, which
    starts `run`, rank 0's running [residual, basis skips]) and reply
    with b_i, M doubles; the last column's reply adds the 2-double
    `progress_tail` against `deadline`."""
    m, k = B.shape
    if i == 0:
        run[0] = total[m + 1]
    move_column(B, i, total[:m], float(total[m]), run)
    tail = progress_tail(run, deadline) if i == k - 1 else []
    return np.concatenate([B[:, i], tail])


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
    flag, from one `reduce_progress` after the algorithmic collective.
    """
    C = block.c_block
    m, k = B.shape
    C[:] = nnls_rows(B.T @ B, target.T @ B).T

    def basis(t):  # rank 0's finishing step: B from the reduced [gram, rhs]
        gram = t[:k * k].reshape((k, k), order="F")
        return nnls_rows(gram, t[k * k:].reshape((m, k), order="F")).ravel(order="F")

    B[:] = allreduce_sum(world, np.concatenate([(C @ C.T).ravel(order="F"),
                                                (target @ C.T).ravel(order="F")]),
                         finish=basis, reply_size=m * k).reshape((m, k), order="F")
    return reduce_progress(world, residual_sq(block.x_block, B, C), deadline)


def reduce_progress(world, local: float, deadline: float) -> tuple[float, int, bool]:
    """(||X - B C||^2 summed over every rank, 0 skips, time-cap flag):
    the stop test of a step whose own reply cannot carry it, and e0.

    Each rank sends only its `local` residual, in one service reduction;
    rank 0's finishing step replies with the total's `progress_tail`,
    2 doubles.
    """
    reply = allreduce_sum(world, [local], service=True, reply_size=2,
                          finish=lambda t: progress_tail(t, deadline))
    return read_progress(reply, 0)
