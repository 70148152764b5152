"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS/FAIL line (surfaced in the report via -rP) and
enforces its stated tolerance and, where one applies, its runtime budget.
"""

import os
import socket
import subprocess
import sys
import time

import numpy as np

from didnmf.blas import one_blas_thread
from didnmf.comm import make_inprocess_worlds
from didnmf.distributed import (
    DadmmWorkerState,
    dadmm_worker_iterate,
    did_build_message,
    did_update_basis,
    did_worker_iterate,
)
from didnmf.harness import RunConfig, init_factors, run, synth_data, synth_lowrank
from didnmf.kernels import b_column_apply, b_column_partials
from blocks import make_column_blocks
from didnmf.nnls import nnls_oracle, nnls_rows, row_objectives


def report(num, name, ok, detail):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {num} ({name}): {detail}"


def rel_dev(got, ref):
    ref = np.asarray(ref, dtype=float)
    scale = np.maximum(np.abs(ref), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - ref) / scale))


def test_acceptance_1_iteration_parity_across_workers():
    # the three coordinate solvers must be the same iterate: identical
    # iteration counts, per-iteration objective and basis norm within
    # 1e-10 relative, for one and several workers alike
    t0 = time.perf_counter()
    X = synth_lowrank(5, 10_000, 3, 5)

    def cfg(alg, p):
        return RunConfig(algorithm=alg, m=5, n=10_000, k=3, p=p, seed=5,
                         epsilon=1e-6, max_iters=1000)

    ref = run(cfg("bcd", 1), X=X)
    counts = {("bcd", 1): ref.iterations}
    max_dev = 0.0
    for alg in ("dbcd", "did"):
        for p in (1, 2, 4):
            got = run(cfg(alg, p), X=X)
            counts[(alg, p)] = got.iterations
            if got.iterations == ref.iterations:
                max_dev = max(max_dev,
                              rel_dev(got.objectives(), ref.objectives()),
                              rel_dev(got.b_norms(), ref.b_norms()))
    elapsed = time.perf_counter() - t0
    same = len(set(counts.values())) == 1
    ok = (ref.converged and same and max_dev <= 1e-10 and elapsed < 60.0)
    report(1, "iteration parity", ok,
           f"iterations={sorted(set(counts.values()))} over {len(counts)} runs, "
           f"max relative deviation {max_dev:.2e} (tol 1e-10), {elapsed:.1f}s")


def test_acceptance_2_communication_counts():
    # one collective per iteration for the batched-message worker and the
    # splitting worker; one per basis column (K) for plain distributed
    # coordinate descent; exact integers on every row
    X = synth_lowrank(5, 200, 3, 1)
    expected = {"did": 1, "dbcd": 3, "dadmm": 1}
    observed = {}
    ok = True
    for alg, per_iter in expected.items():
        config = RunConfig(algorithm=alg, m=5, n=200, k=3, p=2, seed=1,
                           epsilon=1e-30, max_iters=40)
        metrics = run(config, X=X)
        got = sorted({r.allreduce_calls for r in metrics.rows})
        observed[alg] = got
        ok = ok and got == [per_iter] and len(metrics.rows) == 40
    report(2, "communication counts", ok,
           f"allreduces per iteration {observed}, expected "
           f"{ {a: [v] for a, v in expected.items()} }")


def test_acceptance_3_batched_basis_update_identity():
    # the one-message basis update must reproduce the sequential
    # column-by-column loop on the same residual, to 1e-12 relative; both
    # sides start from the Gram-form sums S = X C^T and V = C C^T
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 51))
        B = rng.uniform(0.0, 2.0, size=(m, k))
        C = np.asfortranarray(rng.uniform(0.0, 2.0, size=(k, n)))
        E = rng.standard_normal((m, n))
        S = (E + B @ C) @ C.T
        V = C @ C.T

        B_seq = np.array(B, order="F")
        for i in range(k):
            y, z = b_column_partials(S, V, B_seq, i)
            b_column_apply(B_seq, i, y, z)

        B_msg = np.array(B, order="F")
        did_update_basis(B_msg, did_build_message(S, V, 0.0, 0.0))
        scale = max(1.0, float(np.abs(B_seq).max()))
        worst = max(worst, float(np.abs(B_msg - B_seq).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(3, "batched basis update identity", ok,
           f"100 instances, worst relative deviation {worst:.2e} "
           f"(tol 1e-12), {elapsed:.2f}s")


def test_acceptance_4_monotone_objective():
    # the coordinate methods and exact alternating minimization never
    # increase the objective: 200 iterations, 10 seeds, 1e-10 slack
    t0 = time.perf_counter()
    worst = -np.inf
    checked = 0
    for alg in ("bcd", "anls", "dbcd", "did"):
        p = 2 if alg in ("dbcd", "did") else 1
        for seed in range(10):
            config = RunConfig(algorithm=alg, m=5, n=100, k=3, p=p,
                               seed=seed, epsilon=1e-30, max_iters=200)
            metrics = run(config, X=synth_data(5, 100, seed))
            rises = np.diff(metrics.objectives())
            worst = max(worst, float(rises.max(initial=-np.inf)))
            checked += len(rises)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(4, "monotone objective", ok,
           f"{checked} iteration pairs over 4 algorithms x 10 seeds, "
           f"worst rise {worst:.2e} (slack 1e-10), {elapsed:.1f}s")


def test_acceptance_5_nnls_matches_enumeration_oracle():
    # the pivoting solver against exhaustive active-set enumeration:
    # objectives within 1e-8 relative, KKT residual at most 1e-8
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        rows = int(rng.integers(1, 9))
        A = rng.standard_normal((k, k + 2))
        G = A @ A.T
        R = rng.standard_normal((rows, k)) * float(rng.uniform(0.5, 3.0))
        B = nnls_rows(G, R)
        Bo = np.vstack([nnls_oracle(G, R[j]) for j in range(rows)])
        fo = row_objectives(G, R, Bo)
        fb = row_objectives(G, R, B)
        worst_obj = max(worst_obj, float(np.max((fb - fo) / np.maximum(np.abs(fo), 1.0))))
        Y = B @ G - R
        kkt = max(float((-B).max(initial=0.0)), float((-Y).max(initial=0.0)),
                  float(np.abs(np.einsum("ij,ij->i", B, Y)).max(initial=0.0)))
        worst_kkt = max(worst_kkt, kkt)
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-8 and worst_kkt <= 1e-8 and elapsed < 10.0
    report(5, "exact nonnegative least squares", ok,
           f"100 systems, worst objective gap {worst_obj:.2e} (tol 1e-8), "
           f"worst KKT residual {worst_kkt:.2e} (tol 1e-8), {elapsed:.2f}s")


def test_acceptance_6_splitting_fixed_points_and_convergence():
    # an exact factorization with zero duals is a fixed point of one
    # splitting iterate, and with rho=1 the splitting worker solves a
    # rank-3 instance to 1e-6 within 1000 iterations
    rng = np.random.default_rng(19)
    Bt = rng.uniform(0.5, 1.5, size=(5, 3))
    Ct = rng.uniform(0.5, 1.5, size=(3, 40))
    Xt = np.asfortranarray(Bt @ Ct)

    block = make_column_blocks(Xt, Ct, 1)[0]
    Bw = np.array(Bt, order="F")
    wst = DadmmWorkerState.fresh(block, Bw)
    [world] = make_inprocess_worlds(1)
    with world:
        dadmm_worker_iterate(world, block, Bw, wst)
    dist_dev = max(float(np.abs(Bw - Bt).max()),
                   float(np.abs(block.c_block - Ct).max()),
                   float(np.abs(wst.U).max()))

    config = RunConfig(algorithm="dadmm", m=5, n=1000, k=3, p=2, seed=0,
                       rho=1.0, epsilon=1e-6, max_iters=1000)
    metrics = run(config, X=synth_lowrank(5, 1000, 3, 0))

    ok = dist_dev <= 1e-10 and metrics.converged and metrics.iterations <= 1000
    report(6, "splitting fixed points and convergence", ok,
           f"fixed-point drift {dist_dev:.2e} (tol 1e-10), "
           f"rho=1 run converged={metrics.converged} "
           f"in {metrics.iterations} iterations (cap 1000)")


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_acceptance_7_transport_equivalence(tmp_path):
    # the in-process fabric and real TCP sockets must produce the same
    # trajectory down to the last bit of the serialized objective column
    t0 = time.perf_counter()
    flags = ["--alg", "did", "--m", "5", "--n", "2000", "--k", "3",
             "--seed", "0", "--p", "2", "--eps", "1e-6",
             "--max-iters", "300"]
    inproc_csv = tmp_path / "inproc.csv"
    run(RunConfig(algorithm="did", m=5, n=2000, k=3, p=2, seed=0,
                  epsilon=1e-6, max_iters=300, out_path=str(inproc_csv)))

    tcp_csv = tmp_path / "tcp.csv"
    port = _free_port()
    procs = []
    for rank in range(2):
        env = dict(os.environ,
                   NMF_ADDR=f"127.0.0.1:{port}", NMF_RANK=str(rank),
                   NMF_WORLD="2")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "didnmf", "run", *flags,
             "--transport", "tcp", "--out", str(tcp_csv)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT))
    outs = [p.communicate(timeout=55)[0] for p in procs]
    codes = [p.returncode for p in procs]

    def column(path, idx):
        lines = path.read_text().splitlines()[1:]
        return [ln.split(",")[idx] for ln in lines]

    elapsed = time.perf_counter() - t0
    ok = codes == [0, 0]
    detail = f"tcp exit codes {codes}"
    if ok:
        obj_eq = column(inproc_csv, 1) == column(tcp_csv, 1)
        res_eq = column(inproc_csv, 2) == column(tcp_csv, 2)
        nrows = len(column(inproc_csv, 1))
        ok = obj_eq and res_eq and nrows > 0 and elapsed < 60.0
        detail = (f"objective column bit-identical={obj_eq} over {nrows} "
                  f"iterations, {elapsed:.1f}s")
    else:
        detail += "; " + outs[0].decode(errors="replace")[-200:]
    report(7, "transport equivalence", ok, detail)


def test_acceptance_8_linear_scaling_in_columns():
    # per-iteration compute of the one-message worker should scale
    # linearly in the column count: a 10x wider problem lands in [8, 12]x.
    # The sizes are timed in alternating rounds: 5 iterations at 1e5
    # columns (the fastest kept, since scheduler noise only ever adds
    # time), then 1 at 1e6. Each round gives one ratio from two timings
    # taken within about 70 ms of each other, so a slow spell of the host
    # lands on both sides of it; the median of 8 rounds is reported. BLAS
    # runs one thread, as it does inside a run.
    def problem(n):
        X = synth_data(5, n, 31)
        B0, C0 = init_factors(X, 3, 31)
        return make_column_blocks(X, C0, 1)[0], np.array(B0, order="F")

    def fastest(world, block, B, iters):
        best = np.inf
        for _ in range(iters):
            t0 = time.perf_counter()
            did_worker_iterate(world, block, B)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = problem(100_000), problem(1_000_000)
    rounds = []
    [world] = make_inprocess_worlds(1)
    with world, one_blas_thread():
        fastest(world, *small, 1)  # cache-cold first passes
        fastest(world, *large, 1)
        for _ in range(8):
            rounds.append((fastest(world, *small, 5), fastest(world, *large, 1)))
    ratio = float(np.median([b / a for a, b in rounds]))
    ok = 8.0 <= ratio <= 12.0
    small_ms, large_ms = (1e3 * float(np.median(t)) for t in zip(*rounds))
    report(8, "linear scaling in columns", ok,
           f"per-iteration compute {small_ms:.1f}ms at 1e5 columns, "
           f"{large_ms:.1f}ms at 1e6 (round medians), median round ratio "
           f"{ratio:.2f} (band [8, 12])")
