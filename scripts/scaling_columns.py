#!/usr/bin/env python3
"""Column-count scaling of the one-message worker's per-iteration cost.

Times a fixed number of iterations at geometrically growing N with one
worker, reporting the fastest per-iteration compute time (scheduler noise
only adds time) and the ratio to the previous size. Linear scaling in N
shows up as ratios near the size step (10x here). BLAS runs one thread,
as it does inside a distributed run.
"""

import argparse
import time

import numpy as np

from didnmf.blas import one_blas_thread
from didnmf.comm import make_inprocess_worlds
from didnmf.distributed import did_worker_iterate
from didnmf.harness import init_factors, synth_data
from didnmf.matrix import make_column_blocks


def best_iteration_seconds(m, n, k, seed, iters):
    X = synth_data(m, n, seed)
    B0, C0 = init_factors(X, k, seed)
    block = make_column_blocks(X, C0, 1)[0]
    B = np.array(B0, order="F")
    [world] = make_inprocess_worlds(1)
    times = []
    with world, one_blas_thread():
        for _ in range(iters):
            t0 = time.perf_counter()
            did_worker_iterate(world, block, B)
            times.append(time.perf_counter() - t0)
    return float(np.min(times[1:]))  # first pass warms the caches


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--iters", type=int, default=9)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[10_000, 100_000, 1_000_000])
    args = ap.parse_args()

    print(f"one worker, {args.m} rows, rank {args.k}, fastest of "
          f"{args.iters - 1} timed iterations")
    header = f"{'N':>10s} {'s/iter':>10s} {'ratio':>7s}"
    print(header)
    print("-" * len(header))
    prev = None
    for n in args.sizes:
        sec = best_iteration_seconds(args.m, n, args.k, args.seed, args.iters)
        ratio = f"{sec / prev:7.2f}" if prev else f"{'-':>7s}"
        print(f"{n:10d} {sec:10.6f} {ratio}")
        prev = sec


if __name__ == "__main__":
    main()
