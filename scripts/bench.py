#!/usr/bin/env python3
"""Run the repository benchmark N times and record its medians as BENCH_<pr>.json.

    python3 scripts/bench.py --pr N --runs 5
    python3 scripts/bench.py --pr N --runs 10 --against M=../parent-checkout
    python3 scripts/bench.py --compare BENCH_M.json BENCH_N.json
    python3 scripts/bench.py --sweep --runs 15 --against M=../parent-checkout

Each run is one `tcpbench/run.py --trace 0` call per workload listed in
BENCHMARK.json, for the `run_seconds` it lists; the workloads alternate,
and run i (from 1) uses benchmark seed i on every workload, so two BENCH
files with the same run count measured the same inputs. `--against N=DIR`
also measures the checkout in DIR as BENCH_N.json, each of its runs
beside the same run of this checkout, with this checkout first on odd
runs and second on even ones, so that a slow spell of the host lands on
both sides of the comparison. A file holds the commit measured (marked
"+dirty.<hash of the change>" when its src/ or tcpbench/ differ from it,
untracked files included), the environment (CPU count, Python and numpy
versions, host steal seconds over the whole bench), every run's result
line, steal time and each solve's iteration count and per-rank BLAS
thread count, and per workload the median of each end-to-end metric.
`--compare OLD [NEW]` compares OLD with NEW, or with the file this call
just wrote: per workload and metric, each side's median and quartiles,
the change of the median, and, for two files of one `--against` run,
how many of the runs paired by index NEW won and whether that makes a
gain (at least 9 in 10 pairs won, and the medians apart by more than
OLD's interquartile range). `--sweep` times the C sweep alone
(`kernels.c_rowwise_sweep`) in this process on one BLAS thread, at each
of SWEEP_SHAPES on one seeded input, and with `--against` the same sweep
of the checkout in DIR, the two alternating sweep by sweep; it prints
each side's median and quartiles and the pairs this checkout won. Only
the standard library is used, but `--sweep` imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# (M, N, K) of the inputs `--sweep` times
SWEEP_SHAPES = ((5, 100_000, 3), (5, 1_000_000, 3), (20, 100_000, 10),
                (40, 50_000, 30))


def steal_seconds() -> float:
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return float("nan")
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def commit(root: str) -> str | None:
    """HEAD of the checkout; if its src/ or tcpbench/ differ from it,
    "+dirty." and 12 hex digits of a sha256 that names the tree measured:
    of the diff of tracked files, then of each untracked, not ignored
    file's path and contents, in path order."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None

    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args, "--", "src", "tcpbench"],
                              cwd=root, capture_output=True, check=True).stdout

    diff = git("diff", "HEAD")
    untracked = sorted(filter(None, git("ls-files", "-z", "--others",
                                        "--exclude-standard").split(b"\0")))
    tree = hashlib.sha256(diff)
    for path in untracked:
        with open(os.path.join(root, os.fsdecode(path)), "rb") as f:
            tree.update(b"\0" + path + b"\0" + f.read())
    dirty = f"+dirty.{tree.hexdigest()[:12]}" if diff or untracked else ""
    return head.stdout.strip() + dirty


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run: its result line, plus the steal seconds, and each
    solve's iteration count and per-rank BLAS threads, that it reported."""
    out = subprocess.run(
        [sys.executable, os.path.join("tcpbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    result, solves = json.loads(lines[-1]), json.loads(lines[-2])
    result["steal_s"] = solves["steal_s"]
    for key in ("iterations", "blas_threads"):
        result[key] = [s[key] for s in solves["solves"]]
    result["seed"] = seed
    return result


def summary(results: dict) -> dict:
    """Per workload: all runs correct, failed solves, and metric medians."""
    workloads = {}
    for name, rs in results.items():
        metrics = sorted({m for r in rs for m in r["metrics"]})
        workloads[name] = {
            "correct": all(r["correct"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "median": {m: statistics.median(r["metrics"][m]["value"] for r in rs
                                            if m in r["metrics"])
                       for m in metrics},
            "runs": rs,
        }
    return workloads


def bench(trees: dict[int, str], runs: int) -> dict[int, dict]:
    """Run every tree (pr -> checkout) on every workload, interleaved and
    in alternating order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = int(spec["run_seconds"])
    steal0, t0 = steal_seconds(), time.monotonic()
    results = {pr: {name: [] for name in names} for pr in trees}
    for i in range(runs):
        order = list(trees.items())[::-1 if i % 2 else 1]
        for name in names:
            for pr, root in order:
                r = run_once(root, name, i + 1, seconds)
                results[pr][name].append(r)
                print(f"BENCH_{pr} {name} run {i + 1}/{runs}: "
                      f"correct={r['correct']} failed={r['failed']} "
                      f"steal={r['steal_s']:.2f}s", flush=True)
    env = dict(environment(), steal_s=steal_seconds() - steal0,
               wall_s=time.monotonic() - t0)
    return {pr: {"commit": commit(root), "runs": runs,
                 "run_seconds": seconds, "environment": env,
                 "workloads": summary(results[pr])}
            for pr, root in trees.items()}


def directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired(old: dict, new: dict, better: dict[str, str]) -> list[dict]:
    """Per workload and metric that both files hold: each side's quartiles
    and, when both files were written by one `--against` run (they share
    its environment record, wall time and steal time included, and hold
    the same seeds run for run), how many of the runs paired by index NEW
    won.

    `better` maps a metric to "lower" or "higher" (default "lower"). A
    gain holds when NEW won at least 9 in 10 of the pairs, ties counting
    for neither, and its median is better than OLD's by more than OLD's
    interquartile range.
    """
    rows = []
    one_run = old.get("environment") == new.get("environment")
    for name, wl in new["workloads"].items():
        old_runs = old["workloads"].get(name, {}).get("runs", [])
        same_seeds = one_run and ([r["seed"] for r in old_runs]
                                  == [r["seed"] for r in wl["runs"]])
        for metric in wl["median"]:
            was, now = ([r["metrics"][metric]["value"] for r in runs
                         if metric in r["metrics"]]
                        for runs in (old_runs, wl["runs"]))
            if not was or not now:
                continue
            row = {"workload": name, "metric": metric, "old": quartiles(was),
                   "new": quartiles(now), "pairs": None, "won": None,
                   "gain": False}
            if same_seeds:
                sign = 1.0 if better.get(metric, "lower") == "higher" else -1.0
                pairs = [(o["metrics"][metric]["value"],
                          n["metrics"][metric]["value"])
                         for o, n in zip(old_runs, wl["runs"])
                         if metric in o["metrics"] and metric in n["metrics"]]
                won = sum(sign * (n - o) > 0 for o, n in pairs)
                q1, median, q3 = row["old"]
                row.update(pairs=len(pairs), won=won,
                           gain=(won >= 0.9 * len(pairs) and
                                 sign * (row["new"][1] - median) > q3 - q1))
            rows.append(row)
    return rows


def compare(old: dict, new: dict, better: dict[str, str]) -> None:
    """Print `paired(old, new, better)`, one workload and metric a line."""
    print(f"{'workload':10s} {'metric':20s} {'old median [q1, q3]':>28s} "
          f"{'new median [q1, q3]':>28s} {'change':>8s} {'won':>6s} gain")
    for row in paired(old, new, better):
        sides = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3
                 in (row["old"], row["new"])]
        was, now = row["old"][1], row["new"][1]
        rel = (now - was) / was if was else float("nan")
        won = "-" if row["pairs"] is None else f"{row['won']}/{row['pairs']}"
        print(f"{row['workload']:10s} {row['metric']:20s} {sides[0]:>28s} "
              f"{sides[1]:>28s} {rel:+8.1%} {won:>6s} "
              f"{'yes' if row['gain'] else 'no'}")


def sweep_kernel(root: str):
    """`c_rowwise_sweep` of the checkout at root, as a call on (X, C, B)
    that returns a function which runs the sweep once on copies made now.

    The package is imported from root's src/ and dropped from
    sys.modules again, so two checkouts can be loaded side by side. A
    checkout whose sweep takes a block's stacked [X; C] gets one; an
    older one, taking (X, C, B), gets X and a copy of C.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        kernels = importlib.import_module("didnmf.kernels")
    finally:
        sys.path.pop(0)
        for name in [m for m in sys.modules
                     if m == "didnmf" or m.startswith("didnmf.")]:
            del sys.modules[name]
    sweep = kernels.c_rowwise_sweep
    stacked = len(inspect.signature(sweep).parameters) == 2

    def prepare(X, C, B):
        import numpy as np
        if stacked:
            Z = np.vstack([X, C])
            return lambda: sweep(Z, B)
        C = C.copy()
        return lambda: sweep(X, C, B)
    return prepare


def sweep_bench(trees: dict[str, str], runs: int) -> None:
    """Time each tree's C sweep at every SWEEP_SHAPES input, interleaved in
    alternating order, one BLAS thread; print medians and pair wins."""
    import numpy as np
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from didnmf.blas import one_blas_thread
    sys.path.pop(0)
    kernels = {name: sweep_kernel(root) for name, root in trees.items()}
    names = list(trees)
    print(f"{'M x N, K':22s} " + " ".join(f"{n + ' ms median [q1, q3]':>30s}"
                                         for n in names) + "     won")
    with one_blas_thread():
        for m, n, k in SWEEP_SHAPES:
            rng = np.random.default_rng([m, n, k])
            X, C = rng.random((m, n)), 0.3 * rng.random((k, n))
            B = np.asfortranarray(rng.random((m, k)))
            times = {name: [] for name in names}
            for i in range(runs + 1):
                for name in names[::-1 if i % 2 else 1]:
                    run = kernels[name](X, C, B)
                    t0 = time.perf_counter()
                    run()
                    if i:  # the first round warms the caches
                        times[name].append(1e3 * (time.perf_counter() - t0))
                    del run
            cells = [f"{q2:.2f} [{q1:.2f}, {q3:.2f}]"
                     for q1, q2, q3 in (quartiles(times[nm]) for nm in names)]
            won = (f"{sum(a < b for a, b in zip(*times.values()))}/{runs}"
                   if len(names) == 2 else "-")
            print(f"{f'{m} x {n}, K={k}':22s} " + " ".join(f"{c:>30s}" for c in cells)
                  + f" {won:>7s}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, help="write BENCH_<pr>.json in the repo root")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--against", metavar="N=DIR",
                    help="also measure the checkout DIR, interleaved, as BENCH_N")
    ap.add_argument("--compare", nargs="+", metavar="JSON",
                    help="OLD [NEW]: print per-metric changes")
    ap.add_argument("--sweep", action="store_true",
                    help="time the C sweep alone, in this process")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if args.sweep:
        trees = {"this": ROOT}
        if args.against:
            base, _, root = args.against.partition("=")
            trees[f"BENCH_{base}"] = os.path.abspath(root)
        sweep_bench(trees, args.runs)
        return 0
    if args.pr is None and not (args.compare and len(args.compare) == 2):
        ap.error("give --pr to run the benchmark, or --compare OLD NEW")
    new = None
    if args.pr is not None:
        trees = {args.pr: ROOT}
        base = None
        if args.against:
            base, _, root = args.against.partition("=")
            if not base.isdigit() or not root or int(base) == args.pr:
                ap.error("--against takes N=DIR, with N other than --pr")
            base = int(base)
            trees[base] = os.path.abspath(root)
        written = bench(trees, args.runs)
        for pr, data in written.items():
            path = os.path.join(ROOT, f"BENCH_{pr}.json")
            with open(path, "w") as f:
                json.dump(data, f, indent=1)
                f.write("\n")
            print(f"wrote {path}")
        new = written[args.pr]
        if base is not None and not args.compare:
            compare(written[base], new, directions())
    if args.compare:
        with open(args.compare[0]) as f:
            old = json.load(f)
        if len(args.compare) > 1:
            with open(args.compare[1]) as f:
                new = json.load(f)
        compare(old, new, directions())
    return 0


if __name__ == "__main__":
    sys.exit(main())
