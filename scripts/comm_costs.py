#!/usr/bin/env python3
"""Communication-cost table for the three distributed solvers.

For each worker count, runs a fixed instance and reports allreduce calls
per iteration, service collectives per iteration, modeled bytes per
iteration (payload x 2 ceil(log2 P)), and the split between compute and
communication wall time. The one-message worker should show a K-fold
call advantage over per-column reduction at identical iterate quality,
and no service collective: its message carries the stopping residual,
so each iteration is one round trip.
"""

import argparse

from didnmf.harness import RunConfig, run, synth_lowrank


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iters", type=int, default=200)
    ap.add_argument("--workers", type=int, nargs="+", default=[2, 4, 8])
    args = ap.parse_args()

    X = synth_lowrank(args.m, args.n, args.k, args.seed)
    print(f"instance: {args.m} x {args.n}, rank {args.k}, "
          f"{args.iters} iterations (stopping disabled)")
    header = f"{'solver':8s} {'P':>3s} {'ar/iter':>8s} {'svc/iter':>8s} " \
             f"{'bytes/iter':>11s} {'compute s':>10s} {'comm s':>8s}"
    print(header)
    print("-" * len(header))
    for alg in ("did", "dbcd", "dadmm"):
        for p in args.workers:
            config = RunConfig(algorithm=alg, m=args.m, n=args.n, k=args.k,
                               p=p, seed=args.seed, epsilon=1e-300,
                               max_iters=args.iters)
            metrics = run(config, X=X)
            last = metrics.rows[-1]
            compute = sum(r.compute_s for r in metrics.rows)
            comm = sum(r.comm_s for r in metrics.rows)
            print(f"{alg:8s} {p:3d} {last.allreduce_calls:8d} "
                  f"{last.service_calls:8d} {last.bytes:11d} "
                  f"{compute:10.3f} {comm:8.3f}")


if __name__ == "__main__":
    main()
