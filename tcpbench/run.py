"""Two-rank TCP benchmark of the did and dbcd solvers.

    python3 tcpbench/run.py --workload did-tall --seed 3 --seconds 40 --trace 0

Run from the root of a checkout. Each run generates one seeded input,
computes the independent reference trajectory on it, then solves it a
fixed number of times with two TCP ranks, one OS process each, entered
through `nmf run ... --transport tcp` (see rank.py). Every solve is
checked against the reference and the properties in checks.py.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics taken by the trace
probes. The line before it records the run's host steal time, the BLAS
thread count each rank found, and per-solve figures. See README.md.
"""

from __future__ import annotations

import os

# this process only: the reference's BLAS calls stay single-threaded so
# they never compete with a solve. Rank processes get the library default.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RANK_ENV = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RANK_PY = os.path.join(HERE, "rank.py")
WORK = os.path.join(HERE, "out")
CSV_HEADER = ["iter", "objective", "residual_sq", "allreduce_calls",
              "bytes", "compute_s", "comm_s"]
# the program's own initial factors use one fixed seed: with a seeded
# start the sweeps to eps vary several-fold between seeds (see README)
INIT_SEED = 1
MAX_ITERS = 20000
PORT_BASE, PORT_SPAN = 20000, 10000


@dataclass(frozen=True)
class Workload:
    alg: str
    m: int
    n: int
    k: int
    eps: float
    solve_wall_s: float  # nominal wall time of one solve on a 2-core host

    def solves(self, seconds: int) -> int:
        """Fixed number of solves per run: depends on --seconds only."""
        return max(1, round(seconds / self.solve_wall_s))


# BENCHMARK.json lists did-tall and dbcd-tall. The latency-bound pair
# did-tcp and dbcd-tcp is run by hand only: host steal time moves its
# timings far beyond any usable bound (see README.md)
WORKLOADS = {
    "did-tall": Workload("did", m=5, n=1_000_000, k=3, eps=3e-4,
                         solve_wall_s=10.0),
    "dbcd-tall": Workload("dbcd", m=5, n=1_000_000, k=3, eps=3e-4,
                          solve_wall_s=11.0),
    "did-tcp": Workload("did", m=5, n=2000, k=3, eps=1e-7,
                        solve_wall_s=1.3),
    "dbcd-tcp": Workload("dbcd", m=5, n=2000, k=3, eps=1e-7,
                         solve_wall_s=1.7),
}

END_TO_END = {"solve_s": "s", "iter_ms": "ms", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mib": "MiB", "wire_bytes_per_iter": "B"}

# per-layer metrics taken per iteration on rank 0, from the spans in
# probes.py: each is the sum of the listed span figures in one iteration
PER_ITER_MS = {
    "kernels.c_sweep_ms": ["distributed.c_rowwise_sweep.total"],
    "kernels.b_column_ms": ["distributed.b_column_partials.total",
                            "distributed.b_column_apply.total"],
    "distributed.residual_rebuild_ms": ["distributed.did_c_phase.self"],
    "distributed.message_ms": ["distributed.did_build_message.total"],
    "distributed.basis_update_ms": ["distributed.did_update_basis.total"],
    "distributed.worker_self_ms": ["distributed.did_worker_iterate.self",
                                   "distributed.dbcd_worker_iterate.self"],
    "comm.allreduce_ms": ["distributed.allreduce_sum.total"],
    "comm.service_ms": ["harness.allreduce_sum.total"],
    "comm.recv_wait_ms": ["comm.TcpEndpoint.recv.self"],
    "comm.codec_ms": ["comm.dmat_encode.total", "comm.dmat_decode.total"],
    "matrix.frob_norm_ms": ["harness.frob_norm_sq.total"],
}
PER_ITER_COUNT = {
    "comm.allreduce_calls": "distributed.allreduce_sum.calls",
    "comm.service_calls": "harness.allreduce_sum.calls",
}
ONCE_MS = {
    "matrix.load_ms": "harness.load_matrix.total",
    "harness.init_ms": "harness.init_factors.total",
    "harness.rendezvous_ms": "harness.make_tcp_world.total",
}
PER_LAYER = {
    **{name: "ms" for name in PER_ITER_MS},
    **{name: "count" for name in PER_ITER_COUNT},
    "comm.frames_per_iter": "count",
    "comm.payload_bytes_per_iter": "B",
    **{name: "ms" for name in ONCE_MS},
    "harness.loop_overhead_ms": "ms",
    "cli.import_ms": "ms",
}


class SolveFailed(RuntimeError):
    pass


def steal_seconds() -> float:
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def free_port(hint: int) -> int:
    """A bindable port below Linux's default ephemeral range (32768 up).

    Rank 0 binds it about a second later, after its imports; a port the
    kernel could hand out meanwhile (rank 1 listens on port 0) would race.
    """
    for i in range(PORT_SPAN):
        port = PORT_BASE + (hint + i) % PORT_SPAN
        with socket.socket() as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
            return port
    raise SolveFailed(f"no free port in {PORT_BASE}..{PORT_BASE + PORT_SPAN - 1}")


def reap(procs, timeout: float) -> list:
    """Wait for every process, returning its rusage; kill all on timeout.

    The waits block, so this process never wakes while the ranks run.
    """
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        for p in procs:
            p.kill()

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    usage = []
    try:
        for p in procs:
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            usage.append(ru)
    finally:
        watchdog.cancel()
    if killed.is_set():
        raise SolveFailed(f"ranks killed after {timeout:.0f}s")
    return usage


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_HEADER:
            raise SolveFailed(f"unexpected metrics header {reader.fieldnames}")
        return list(reader)


def solve(wl: Workload, input_path: str, solve_dir: str, trace: bool,
          port_hint: int) -> dict:
    """One two-rank solve; returns its CSV rows, probe reports and rusage."""
    os.makedirs(solve_dir)
    csv_path = os.path.join(solve_dir, "metrics.csv")
    nmf_args = ["run", "--alg", wl.alg, "--p", "2", "--k", str(wl.k),
                "--input", input_path, "--eps", repr(wl.eps),
                "--max-iters", str(MAX_ITERS), "--seed", str(INIT_SEED),
                "--transport", "tcp", "--out", csv_path]
    env = dict(RANK_ENV, NMF_ADDR=f"127.0.0.1:{free_port(port_hint)}", NMF_WORLD="2")
    reports = [os.path.join(solve_dir, f"rank{r}.json") for r in range(2)]
    procs = []
    t_spawn = time.monotonic()
    try:
        for r in range(2):
            with open(os.path.join(solve_dir, f"rank{r}.log"), "wb") as log:
                procs.append(subprocess.Popen(
                    [sys.executable, RANK_PY, reports[r], str(int(trace)),
                     "--", *nmf_args],
                    env=dict(env, NMF_RANK=str(r)), cwd=ROOT,
                    stdout=log, stderr=subprocess.STDOUT))
        usage = reap(procs, timeout=max(60.0, 6 * wl.solve_wall_s))
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
    codes = [p.returncode for p in procs]
    if codes != [0, 0]:
        raise SolveFailed(f"rank exit codes {codes}; logs in {solve_dir}")
    ranks = []
    for path in reports:
        with open(path) as f:
            ranks.append(json.load(f))
    return {"t_spawn": t_spawn, "rows": read_csv(csv_path), "ranks": ranks,
            "usage": usage}


def iteration_walls(report: dict) -> list[float]:
    """Wall time of each iteration: from its entry to the next, or to the
    worker's return for the last one."""
    starts = report["iter_starts"]
    return [b - a for a, b in zip(starts, starts[1:] + [report["worker_return"]])]


def end_to_end(s: dict) -> dict:
    r0 = s["ranks"][0]
    starts = r0["iter_starts"]
    iters = len(starts)
    return {
        "solve_s": r0["worker_return"] - starts[0],
        "iter_ms": 1e3 * statistics.median(iteration_walls(r0)),
        "setup_s": max(r["iter_starts"][0] for r in s["ranks"]) - s["t_spawn"],
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in s["usage"]),
        "peak_rss_mib": max(u.ru_maxrss for u in s["usage"]) / 1024.0,
        "wire_bytes_per_iter": sum(r["wire_bytes"] for r in s["ranks"]) / iters,
    }


def per_layer(s: dict) -> dict:
    r0 = s["ranks"][0]
    series, once = r0["per_iter"], r0["once"]
    iters = len(r0["iter_starts"])
    zeros = [0.0] * iters

    def summed(keys):
        cols = [series.get(k, zeros) for k in keys]
        return [sum(v) for v in zip(*cols)]

    out = {name: 1e3 * statistics.median(summed(keys))
           for name, keys in PER_ITER_MS.items()}
    out.update({name: sum(series.get(key, zeros)) / iters
                for name, key in PER_ITER_COUNT.items()})
    out["comm.frames_per_iter"] = sum(r["frames"] for r in s["ranks"]) / iters
    out["comm.payload_bytes_per_iter"] = sum(
        sum(r["payload"].values()) for r in s["ranks"]) / iters
    out.update({name: 1e3 * once.get(key, 0.0) for name, key in ONCE_MS.items()})
    walls = iteration_walls(r0)
    out["harness.loop_overhead_ms"] = 1e3 * statistics.median(
        w - c for w, c in zip(walls, series.get("loop_children", zeros)))
    out["cli.import_ms"] = 1e3 * r0["import_s"]
    return out


def program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "didnmf", "cli.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its ranks, in solve()'s finally
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not program_present():
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'didnmf')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    checks.selftest()
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    input_path = os.path.join(run_dir, "input.dmat")
    X = reference.lowrank_input(wl.m, wl.n, wl.k, args.seed)
    reference.write_dmat(input_path, X)
    e0, residuals = reference.reference_trajectory(X, wl.k, INIT_SEED, wl.eps,
                                                   MAX_ITERS)
    ref = checks.Reference(e0, residuals)
    del X

    attempted = wl.solves(args.seconds)
    failed = 0
    correct = True
    figures = []
    walls = []  # every iteration of every solve, rank 0
    steal0 = steal_seconds()
    for i in range(attempted):
        try:
            s = solve(wl, input_path, os.path.join(run_dir, f"solve{i}"), trace,
                      port_hint=os.getpid() + i)
        except SolveFailed as exc:
            print(f"solve {i} failed: {exc}", file=sys.stderr)
            failed += 1
            continue
        bad = checks.check_solve(checks.Solve(
            wl.eps, 1 if wl.alg == "did" else wl.k, s["rows"],
            s["ranks"]), ref)
        if bad:
            print(f"solve {i} failed checks {bad}", file=sys.stderr)
            correct = False
        fig = end_to_end(s)
        walls.extend(iteration_walls(s["ranks"][0]))
        if trace:
            fig["layers"] = per_layer(s)
        fig["iterations"] = len(s["rows"])
        fig["blas_threads"] = [r["blas_threads"] for r in s["ranks"]]
        figures.append(fig)
    steal = steal_seconds() - steal0

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "steal_s": steal,
                      "reference_iterations": len(residuals),
                      "solves": figures}))
    metrics = {}
    if figures:
        if trace:
            for name, unit in PER_LAYER.items():
                value = statistics.median(f["layers"][name] for f in figures)
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, unit in END_TO_END.items():
                value = statistics.median(f[name] for f in figures)
                metrics[name] = {"value": value, "unit": unit}
            # latency is the median over every iteration of the run
            metrics["iter_ms"]["value"] = 1e3 * statistics.median(walls)
    if failed == 0 and correct:
        shutil.rmtree(run_dir)
    else:
        os.remove(input_path)
    print(json.dumps({"correct": correct and bool(figures),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
