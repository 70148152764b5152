"""Command-line front end: run solvers, synthesize data, convert files."""

from __future__ import annotations

import argparse
import os
import sys

from .blas import import_numpy_on_one_thread

# before anything loads numpy: every `nmf` process starts its BLAS pool at
# one thread, so no idle pool thread spins through imports and setup
import_numpy_on_one_thread()

from .harness import (  # noqa: E402
    ALGORITHMS,
    TRANSPORTS,
    RunConfig,
    load_matrix,
    run,
    synth_data,
    synth_lowrank,
)
from .matrix import write_csv_matrix, write_dmat  # noqa: E402


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmf",
        description="Distributed nonnegative matrix factorization.")
    sub = parser.add_subparsers(dest="command", required=True)

    # every default is RunConfig's: a flag not given leaves its field out
    runp = sub.add_parser("run", help="run one solver to the stopping criterion",
                          argument_default=argparse.SUPPRESS)
    runp.add_argument("--alg", dest="algorithm", required=True,
                      choices=ALGORITHMS)
    runp.add_argument("--m", type=int, help="rows of synthetic data")
    runp.add_argument("--n", type=int, help="columns of synthetic data")
    runp.add_argument("--k", type=int, help="factorization rank")
    runp.add_argument("--p", type=int, help="number of workers")
    runp.add_argument("--eps", dest="epsilon", type=float,
                      help="relative squared-residual stopping threshold")
    runp.add_argument("--max-iters", type=int)
    runp.add_argument("--max-time", type=float,
                      help="wall-clock cap in seconds")
    runp.add_argument("--rho", type=float, help="splitting penalty (dadmm)")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--transport", choices=TRANSPORTS)
    runp.add_argument("--input", dest="input_path",
                      help="DMAT1 data matrix file, of which each worker reads "
                           "only its own columns (convert a .csv first with "
                           "`nmf convert`); overrides --m/--n")
    runp.add_argument("--out", dest="out_path", help="metrics CSV path")

    synthp = sub.add_parser("synth", help="write a synthetic data matrix")
    synthp.add_argument("--m", type=int, required=True)
    synthp.add_argument("--n", type=int, required=True)
    synthp.add_argument("--seed", type=int, default=0)
    synthp.add_argument("--rank", type=int, default=0,
                        help="if positive, write an exactly rank-k product "
                             "instead of dense uniform entries")
    synthp.add_argument("--out", required=True,
                        help="output path (.csv or DMAT1 by extension)")

    convp = sub.add_parser("convert", help="convert a matrix between CSV and DMAT1")
    convp.add_argument("src")
    convp.add_argument("dst")
    return parser


def _cmd_run(args) -> int:
    del args.command
    config = RunConfig(**vars(args))
    metrics = run(config)
    tcp = config.transport == "tcp"
    rank = int(os.environ.get("NMF_RANK", "0")) if tcp else 0
    if rank == 0:
        final = metrics.rows[-1].objective if metrics.rows else float("nan")
        print(f"{config.algorithm}: iterations={metrics.iterations} "
              f"converged={metrics.converged} final_objective={final!r} "
              f"wall_s={metrics.total_time:.3f}")
        if config.out_path:
            print(f"metrics written to {config.out_path}")
    else:
        print(f"rank {rank} finished {metrics.iterations} iterations")
    return 0


def _write_matrix(path: str, mat) -> None:
    if path.endswith(".csv"):
        write_csv_matrix(path, mat)
    else:
        write_dmat(path, mat)


def _cmd_synth(args) -> int:
    if args.rank > 0:
        mat = synth_lowrank(args.m, args.n, args.rank, args.seed)
    else:
        mat = synth_data(args.m, args.n, args.seed)
    _write_matrix(args.out, mat)
    print(f"wrote {mat.shape[0]}x{mat.shape[1]} matrix to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    _write_matrix(args.dst, load_matrix(args.src))
    print(f"converted {args.src} -> {args.dst}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"run": _cmd_run, "synth": _cmd_synth, "convert": _cmd_convert}
    try:
        return command[args.command](args)
    except (ValueError, OSError) as exc:
        # refused input (a bad configuration, matrix or file, or a file
        # that cannot be read) reads like a refused option: one line on
        # stderr, exit status 2
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
