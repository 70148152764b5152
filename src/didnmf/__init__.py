"""Distributed nonnegative matrix factorization toolkit.

Sequential solvers (coordinate descent, which is Gram-form HALS; ANLS)
and distributed ones (one column block per worker, replicated basis:
coordinate descent with K messages per iteration, the one-message did
worker, and splitting) over an allreduce layer with in-process and TCP
transports. Every solver is one step function driven by one run loop,
on either transport; see `harness.run`.
"""

from .harness import (
    RunConfig,
    RunMetrics,
    load_matrix,
    run,
    run_tcp_rank,
    synth_data,
    synth_lowrank,
)

__all__ = [
    "RunConfig",
    "RunMetrics",
    "load_matrix",
    "run",
    "run_tcp_rank",
    "synth_data",
    "synth_lowrank",
]
