"""Helpers shared by the test files: an in-process world run rank by
rank, column blocks cut from a whole X and C and each algorithm's step
and state, for tests that drive a step without the run harness, a free
loopback address for a TCP world and the rank processes of one."""

import os
import socket
import subprocess
import sys

import didnmf
from didnmf.comm import make_inprocess_worlds, run_ranks
from didnmf.distributed import (
    DadmmWorkerState,
    anls_iterate,
    dadmm_worker_iterate,
    dbcd_worker_iterate,
    did_worker_iterate,
)
from didnmf.matrix import ColumnBlock, as_matrix, partition_columns


def run_world(size, fn, timeout=10.0):
    """Run fn(world) on each rank of an in-process world, with
    `comm.run_ranks`; return results by rank.

    fn may be a single callable used by all ranks or a list with one
    callable per rank. Raises the first per-rank exception (lowest rank).
    """
    fns = fn if isinstance(fn, list) else [fn] * size
    results, errors = run_ranks(
        size, make_inprocess_worlds(size, timeout=timeout).__getitem__,
        lambda world: fns[world.rank](world))
    for rank, exc in enumerate(errors):
        if exc is not None:
            raise AssertionError(f"rank {rank} failed: {exc!r}") from exc
    return results


def free_addr():
    """A loopback address with a port that is free now."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return ("127.0.0.1", s.getsockname()[1])


def start_tcp_ranks(p, argv, **popen_kw):
    """Start the P rank processes of one TCP world on a free loopback port.

    Each runs this interpreter with `argv`, `PYTHONPATH` at the package's
    source and `NMF_ADDR`, `NMF_WORLD` and its own `NMF_RANK` set; the
    keywords go to every `subprocess.Popen`. Returns the processes by
    rank.
    """
    src = os.path.dirname(os.path.dirname(didnmf.__file__))
    env = dict(os.environ, PYTHONPATH=src, NMF_ADDR="%s:%d" % free_addr(),
               NMF_WORLD=str(p))
    return [subprocess.Popen([sys.executable, *argv],
                             env=dict(env, NMF_RANK=str(r)), **popen_kw)
            for r in range(p)]


def make_column_blocks(X, C, p: int) -> list[ColumnBlock]:
    """Cut X and C into p stacked worker blocks, each holding copies."""
    X, C = as_matrix(X), as_matrix(C)
    if X.shape[1] != C.shape[1]:
        raise ValueError(
            f"X and C disagree on column count: {X.shape[1]} vs {C.shape[1]}")
    blocks = []
    for start, size in partition_columns(X.shape[1], p):
        block = ColumnBlock(X.shape[0], C.shape[0], size)
        block.x_block[...] = X[:, start:start + size]
        block.c_block[...] = C[:, start:start + size]
        blocks.append(block)
    return blocks


STEPS = {"anls": anls_iterate, "dadmm": dadmm_worker_iterate,
         "dbcd": dbcd_worker_iterate, "did": did_worker_iterate}


def fresh_state(alg, block, B):
    """The state `alg`'s step carries: dadmm's fresh splitting state, None
    for the other steps."""
    return DadmmWorkerState.fresh(block, B) if alg == "dadmm" else None
