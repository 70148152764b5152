"""Distributed nonnegative matrix factorization toolkit.

Four solvers, each on one column block per worker with a replicated
basis, on any number of workers: coordinate descent (which is Gram-form
HALS) with K messages per iteration, the one-message did worker, and
alternating nonnegative least squares and splitting with one each, over
an allreduce layer with in-process and TCP transports. Every solver is
one step function driven by one run loop, on either transport; see
`harness.run`.

Importing the package loads no numpy: the names below resolve from
`harness` on first use, so `nmf` can start numpy's BLAS pool at one
thread before anything loads it (see `blas`).
"""

__all__ = [
    "RunConfig",
    "RunMetrics",
    "load_matrix",
    "run",
    "run_tcp_rank",
    "synth_data",
    "synth_lowrank",
]


def __getattr__(name):
    if name in __all__:
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
