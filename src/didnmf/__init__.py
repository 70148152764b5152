"""Distributed nonnegative matrix factorization toolkit.

Sequential solvers (coordinate descent, which is Gram-form HALS; ANLS;
ADMM) and their distributed counterparts (one column block per worker,
replicated basis) over an allreduce layer with in-process and TCP
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
