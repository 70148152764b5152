import gc
import os
import re
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from didnmf import harness
from didnmf.comm import make_inprocess_worlds
from didnmf.harness import (
    ALGORITHMS,
    CSV_HEADER,
    RunConfig,
    init_factors,
    random_init_scale,
    read_metrics_csv,
    run,
    run_tcp_rank,
    stopping_check,
    synth_data,
    synth_lowrank,
)
from didnmf.matrix import partition_columns, write_csv_matrix, write_dmat


# synthetic data


def test_synth_data_reproducible_and_in_range():
    a = synth_data(7, 11, 42)
    b = synth_data(7, 11, 42)
    assert np.array_equal(a, b)
    assert a.shape == (7, 11)
    assert a.flags.c_contiguous
    assert float(a.min()) >= 0.0 and float(a.max()) < 1.0


def test_synth_data_mean_near_half():
    a = synth_data(1000, 1000, 1)
    assert abs(float(a.mean()) - 0.5) < 0.01


def test_synth_data_distinct_seeds_differ():
    assert not np.array_equal(synth_data(5, 5, 0), synth_data(5, 5, 1))


def test_synth_data_rejects_empty():
    with pytest.raises(ValueError):
        synth_data(0, 4, 0)


def test_synth_lowrank_has_exact_rank():
    X = synth_lowrank(8, 30, 3, 5)
    s = np.linalg.svd(X, compute_uv=False)
    assert s[2] > 1e-6
    assert s[3] < 1e-12 * s[0]
    assert np.array_equal(X, synth_lowrank(8, 30, 3, 5))
    assert float(X.min()) >= 0.0



@pytest.mark.parametrize("m,n,k", [(0, 30, 3), (8, 0, 3), (8, 30, 0)])
def test_synth_lowrank_rejects_a_zero_dimension(m, n, k):
    with pytest.raises(ValueError, match="dimensions must be positive"):
        synth_lowrank(m, n, k, 5)

# a rank draws only its own columns: blocks equal slices of the whole, for
# every partition up to P=4, at every start offset mod 4 (Philox makes 4
# draws per counter step) and across the coordinate kernel's column tiles
# (6553 columns at M=5)
BLOCK_N = 2 * 6553 + 7


def _blocks(n):
    for p in (1, 2, 3, 4):
        yield from partition_columns(n, p)
    for start in range(8):
        yield start, 1 + start % 5


def test_synth_data_blocks_equal_slices_of_the_whole():
    whole = synth_data(5, BLOCK_N, 13)
    # the whole matrix is the documented stream, drawn row-major at once
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([13, 0])))
    assert np.array_equal(whole, rng.random((5, BLOCK_N)))
    for start, size in _blocks(BLOCK_N):
        block = synth_data(5, BLOCK_N, 13, start, size)
        assert np.array_equal(block, whole[:, start:start + size])
        assert block.flags.c_contiguous
    with pytest.raises(ValueError):
        synth_data(5, 10, 0, start=8, size=3)


def test_init_factors_blocks_equal_slices_of_the_whole_draw():
    X = synth_data(5, BLOCK_N, 4)
    B, C = init_factors(X, 3, 21)
    mean = float(np.mean(X))
    for start, size in _blocks(BLOCK_N):
        Bb, Cb = init_factors(X[:, start:start + size], 3, 21, start=start,
                              n=BLOCK_N, mean=mean)
        assert np.array_equal(Bb, B)
        assert np.array_equal(Cb, C[:, start:start + size])


def test_init_factors_draws_b_then_c_row_major_from_one_stream():
    X = synth_data(4, 9, 0)
    B, C = init_factors(X, 2, 5)
    s = random_init_scale(X, 2)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 1])))
    assert np.array_equal(B, s * rng.random((4, 2)))
    assert np.array_equal(C, s * rng.random((2, 9)))


def test_synth_streams_are_independent():
    # the full-rank and low-rank generators must not share a stream
    a = synth_data(4, 4, 9)
    b = synth_lowrank(4, 4, 4, 9)
    assert not np.array_equal(a, b)


# initial factors


def test_random_init_scale_worked_example():
    # mean 0.25, one component: s = sqrt(0.25 / 1) = 0.5
    X = np.full((3, 4), 0.25)
    assert random_init_scale(X, 1) == 0.5
    assert random_init_scale(X, 4) == 0.25


def test_init_factors_deterministic_shapes_and_scale():
    X = synth_data(6, 14, 3)
    B1, C1 = init_factors(X, 2, 3)
    B2, C2 = init_factors(X, 2, 3)
    assert np.array_equal(B1, B2) and np.array_equal(C1, C2)
    assert B1.shape == (6, 2) and C1.shape == (2, 14)
    s = random_init_scale(X, 2)
    for f in (B1, C1):
        assert float(f.min()) >= 0.0 and float(f.max()) < s


def test_init_factors_rejects_oversized_k():
    with pytest.raises(ValueError):
        init_factors(synth_data(3, 10, 0), 4, 0)


def test_init_seed_is_independent_of_data_seed():
    X = synth_data(5, 9, 7)
    Ba, _ = init_factors(X, 2, 0)
    Bb, _ = init_factors(X, 2, 1)
    assert not np.array_equal(Ba, Bb)


# stopping rule


def test_stopping_boundary_is_exact_in_decimal():
    assert stopping_check(1e-4, 100.0, 1e-6) is True
    assert stopping_check(2e-4, 100.0, 1e-6) is False


def test_stopping_zero_initial_residual_is_converged():
    assert stopping_check(0.0, 0.0, 1e-6) is True
    assert stopping_check(0.0, 5.0, 1e-6) is True


# run configs


def test_config_validation_rejects_bad_values():
    good = dict(algorithm="bcd", m=4, n=6, k=2)
    RunConfig(**good).validate()
    # each message names what is wrong
    bad = [
        (dict(good, algorithm="sgd"), "unknown algorithm"),
        (dict(good, algorithm="bcd", p=2), "sequential"),
        (dict(good, k=0), "k must"),
        (dict(good, p=0), "p must"),
        (dict(good, epsilon=0.0), "epsilon"),
        (dict(good, max_iters=-1), "max_iters"),
        (dict(good, max_time=0.0), "max_time"),
        (dict(good, rho=0.0), "rho"),
        (dict(good, rho=float("inf")), "rho must be positive and finite"),
        (dict(good, seed=-1), "seed must be nonnegative"),
        (dict(good, transport="carrier-pigeon"), "unknown transport"),
        (dict(good, input_path="data.csv"), "nmf convert"),
        (dict(good, m=0, input_path=None), "positive m and n"),
    ]
    # a collective waits at most MAX_COMM_TIMEOUT, which every wait accepts
    bad += [(dict(good, comm_timeout=t), r"comm_timeout .* at most 1e\+06 s")
            for t in (float("nan"), -1.0, 0.0, float("inf"), 1e300)]
    for kwargs, pattern in bad:
        with pytest.raises(ValueError, match=pattern):
            RunConfig(**kwargs).validate()
    RunConfig(**good, comm_timeout=harness.MAX_COMM_TIMEOUT).validate()


def test_tcp_transport_requires_rank_env(monkeypatch):
    monkeypatch.delenv("NMF_RANK", raising=False)
    config = RunConfig(algorithm="did", m=4, n=8, k=2, p=2, transport="tcp")
    with pytest.raises(ValueError, match="NMF_RANK"):
        run(config)


def test_tcp_world_size_env_must_match(monkeypatch):
    monkeypatch.setenv("NMF_RANK", "0")
    monkeypatch.setenv("NMF_WORLD", "3")
    config = RunConfig(algorithm="did", m=4, n=8, k=2, p=2, transport="tcp")
    with pytest.raises(ValueError, match="NMF_WORLD"):
        run(config)


@pytest.mark.parametrize("name,value", [("NMF_RANK", "one"), ("NMF_WORLD", "2.0"),
                                        ("NMF_ADDR", "127.0.0.1"),
                                        ("NMF_ADDR", "127.0.0.1:99999"),
                                        ("NMF_ADDR", "127.0.0.1:0"),
                                        ("NMF_ADDR", "127.0.0.1:\u00b2")])
def test_tcp_env_names_the_bad_variable(monkeypatch, name, value):
    for key, text in {"NMF_RANK": "0", "NMF_WORLD": "2", name: value}.items():
        monkeypatch.setenv(key, text)
    with pytest.raises(ValueError, match=f"{name}={value!r}"):
        run(RunConfig(algorithm="did", m=4, n=8, k=2, p=2, transport="tcp"))


def _spy(monkeypatch, name, keep):
    """Wrap harness.<name>; the returned list gets keep(args) of each call."""
    calls, fn = [], getattr(harness, name)
    monkeypatch.setattr(harness, name,
                        lambda *a, **kw: calls.append(keep(a)) or fn(*a, **kw))
    return calls


@pytest.mark.parametrize("rank", [-1, 2])
def test_tcp_rank_outside_the_world_fails_fast(monkeypatch, rank):
    # before any data or socket: rank 2 of two would index past the column
    # partition, rank -1 would take rank 1's columns and wait comm_timeout
    calls = _spy(monkeypatch, "make_tcp_world", lambda a: a[:2])
    config = RunConfig(algorithm="did", m=4, n=8, k=2, p=2, transport="tcp",
                       comm_timeout=30.0)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=rf"rank {rank} .*p=2"):
        run_tcp_rank(config, rank)
    assert time.monotonic() - t0 < 0.5 and calls == []


@pytest.mark.parametrize("alg", harness.SEQUENTIAL_ALGS)
def test_tcp_transport_runs_a_sequential_solver_as_one_rank(monkeypatch, alg):
    # every solver takes the one TCP path, here a one-rank TCP world that
    # follows the in-process trajectory bit for bit
    X = synth_lowrank(5, 100, 3, 3)
    ref = run(lowrank_config(alg, max_iters=10, epsilon=1e-30), X=X)
    calls = _spy(monkeypatch, "make_tcp_world", lambda a: a[:2])
    monkeypatch.setenv("NMF_RANK", "0")
    monkeypatch.setenv("NMF_WORLD", "1")
    tcp = lowrank_config(alg, max_iters=10, epsilon=1e-30, transport="tcp")
    got = run(tcp, X=X)
    assert calls == [(0, 1)] and got.iterations == 10
    assert np.array_equal(got.residuals(), ref.residuals())
    # a second rank of a one-rank world is refused at once
    monkeypatch.setenv("NMF_RANK", "1")
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=r"rank 1 .*p=1"):
        run(tcp, X=X)
    assert time.monotonic() - t0 < 0.5 and calls == [(0, 1)]


# bad input fails fast, with one message on every rank: a bad shape
# before any rank rendezvous, bad values at the one setup collective


def _negative():
    X = synth_lowrank(4, 8, 2, 0)
    X[2, 5] = -1e-3
    return X, {}


def _non_finite():
    X = synth_lowrank(4, 8, 2, 0)
    X[1, 3] = np.nan
    return X, {}


def _empty():
    return np.zeros((4, 0)), {}


def _k_too_big():
    return synth_lowrank(4, 8, 2, 0), {"k": 5}


def _p_too_big():
    return synth_lowrank(4, 8, 2, 0), {"p": 9}


BAD_INPUTS = {
    "negative": (_negative, "negative entries"),
    "non-finite": (_non_finite, "NaN or infinite"),
    "empty": (_empty, "empty"),
    "k-over-min-m-n": (_k_too_big, r"k=5 exceeds min\(m, n\)=4"),
    "p-over-n": (_p_too_big, "p=9 workers exceed the n=8 columns"),
}
BAD_SHAPES = ("empty", "k-over-min-m-n", "p-over-n")


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _tcp_ranks(kw, X=None):
    """Run every TCP rank at once, as threads; (results, errors) by rank."""
    config = dict(kw, tcp_address=("127.0.0.1", _free_port()))
    p = kw["p"]
    results, errors = [None] * p, [None] * p

    def rank(r):
        try:
            results[r] = run_tcp_rank(RunConfig(**config), r,
                                      X=None if X is None else X.copy())
        except Exception as exc:
            errors[r] = exc

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=2 * kw["comm_timeout"])
    assert not any(t.is_alive() for t in threads)
    return results, errors


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_fails_fast_with_one_message_on_every_rank(case, tmp_path):
    make, pattern = BAD_INPUTS[case]
    X, over = make()
    path = tmp_path / "bad.dmat"
    write_dmat(path, X)
    kw = dict(algorithm="did", m=4, n=8, k=2, p=2, transport="tcp",
              comm_timeout=60.0)
    kw.update(over)
    # the same checks hold for an array in hand and for a DMAT1 file, of
    # which a rank reads the header and then only its own columns
    for data, extra in ((X, {}), (None, {"input_path": str(path)})):
        t0 = time.monotonic()
        if case in BAD_SHAPES:
            # a rank that reached the rendezvous would wait comm_timeout
            # for its peer; failing first means raising at once, alone
            errors = []
            for rank in (0, 1):
                with pytest.raises(ValueError, match=pattern) as err:
                    run_tcp_rank(RunConfig(**kw, **extra), rank,
                                 X=None if data is None else data.copy())
                errors.append(err.value)
        else:
            _, errors = _tcp_ranks(dict(kw, **extra), data)
        assert time.monotonic() - t0 < 0.25 * kw["comm_timeout"]
        assert all(isinstance(e, ValueError) for e in errors), errors
        assert len({str(e) for e in errors}) == 1
        assert re.search(pattern, str(errors[0]))
    with pytest.raises(ValueError, match=pattern):
        run(RunConfig(**dict(kw, transport="in-process")), X=X.copy())


# end-to-end sequential and in-process runs


def test_a_killed_tcp_rank_fails_every_survivor_naming_the_lost_peer():
    # three rank processes iterate until SIGKILL takes rank 1. Rank 0 sees
    # the loss itself; rank 2, waiting on rank 0's total, sees it when rank
    # 0 fails and closes its sockets. Both exit non-zero long before the
    # 30 s comm_timeout, each naming the rank it lost
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src, NMF_WORLD="3",
               NMF_ADDR=f"127.0.0.1:{_free_port()}")
    args = [sys.executable, "-m", "didnmf", "run", "--alg", "did", "--p", "3",
            "--m", "5", "--n", "3000", "--k", "3", "--eps", "1e-300",
            "--max-iters", "100000000", "--max-time", "60",
            "--transport", "tcp"]
    procs = []
    try:
        for r in range(3):
            procs.append(subprocess.Popen(
                args, env=dict(env, NMF_RANK=str(r)), text=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
        time.sleep(3.0)  # start-up and rendezvous take well under a second
        assert [p.poll() for p in procs] == [None] * 3
        procs[1].kill()
        killed = time.monotonic()
        errs = {r: procs[r].communicate(timeout=20)[1] for r in (0, 2)}
        elapsed = time.monotonic() - killed
    finally:
        for p in procs:
            p.kill()
            p.communicate()  # waits, and closes the stderr pipe
    assert elapsed < 10.0
    for r, lost in ((0, 1), (2, 0)):
        assert procs[r].returncode != 0
        last = errs[r].strip().splitlines()[-1]
        assert last.startswith("didnmf.comm.CommError: "), errs[r][-2000:]
        assert f"rank {lost} " in last, last


def lowrank_config(alg, **kw):
    base = dict(algorithm=alg, m=5, n=100, k=3, seed=3, epsilon=1e-6,
                max_iters=1000)
    base.update(kw)
    return RunConfig(**base)


def test_a_refused_in_process_run_leaves_no_socket_open():
    # every rank is refused before it connects, so none enters its world;
    # the run still closes each rank's socket pairs
    config = RunConfig(algorithm="did", m=4, n=3, k=2, p=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="p=4 workers exceed the n=3 "
                           "columns"):
            run(config)
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_in_process_run_raises_the_failing_rank_not_its_waiting_peer(
        monkeypatch):
    # rank 1 fails in its first step and rank 0 then times out waiting for
    # it; the run must raise rank 1's error, not rank 0's CommTimeoutError
    step = harness.did_worker_iterate

    def failing(world, *args):
        if world.rank == 1:
            raise FloatingPointError("rank 1 overflowed")
        return step(world, *args)

    monkeypatch.setattr(harness, "did_worker_iterate", failing)
    config = RunConfig(algorithm="did", m=4, n=8, k=2, p=2, comm_timeout=0.5)
    with pytest.raises(FloatingPointError, match="rank 1 overflowed"):
        run(config)


def test_in_process_peers_of_a_failed_rank_fail_at_once(monkeypatch):
    # rank 1 fails in its first step: rank 0 finds its departure marker and
    # fails, and rank 2 finds rank 0's, all long before comm_timeout
    step = harness.did_worker_iterate

    def failing(world, *args):
        if world.rank == 1:
            raise FloatingPointError("rank 1 overflowed")
        return step(world, *args)

    monkeypatch.setattr(harness, "did_worker_iterate", failing)
    config = RunConfig(algorithm="did", m=4, n=12, k=2, p=3, comm_timeout=30.0)
    t0 = time.monotonic()
    with pytest.raises(FloatingPointError, match="rank 1 overflowed"):
        run(config)
    assert time.monotonic() - t0 < 2.0


def test_tcp_did_run_makes_no_service_reduction_per_iteration(monkeypatch):
    # the stopping residual and time-cap flag ride did's one message: over
    # TCP a rank's only service reductions are the setup collective and e0
    worlds = []
    make = harness.make_tcp_world
    monkeypatch.setattr(harness, "make_tcp_world",
                        lambda *a, **kw: worlds.append(make(*a, **kw)) or worlds[-1])
    kw = dict(algorithm="did", m=5, n=200, k=3, p=2, seed=4, max_iters=25,
              epsilon=1e-30, transport="tcp", comm_timeout=30.0)
    results, errors = _tcp_ranks(kw)
    assert errors == [None, None], errors
    assert [r.iterations for r in results] == [25, 25]
    assert len(worlds) == 2
    for world in worlds:
        assert world.stats.service_calls == 2
        assert world.stats.allreduce_calls == 25
    assert {row.service_calls for r in results for row in r.rows} == {0}
    assert np.array_equal(results[0].residuals(), results[1].residuals())


def test_run_metrics_row_accounting():
    # bcd is dbcd on one rank: K one-rank collectives, no bytes on a wire;
    # anls never calls a collective
    for alg, calls in (("bcd", 3), ("anls", 0)):
        config = lowrank_config(alg, max_iters=25, epsilon=1e-30)
        metrics = run(config, X=synth_lowrank(5, 100, 3, 3))
        assert metrics.iterations == 25
        assert not metrics.converged
        assert [r.iteration for r in metrics.rows] == list(range(1, 26))
        for r in metrics.rows:
            assert r.objective == 0.5 * r.residual_sq
            assert r.allreduce_calls == calls and r.bytes == 0
            assert r.b_norm > 0.0


def test_run_rows_count_the_skipped_updates(monkeypatch):
    # B[:, 0] = 0 and C[0] = 0: row 0 of C (g_00 = 0) and column 0 of B
    # (v_00 = 0) are dead, so each did and dbcd iteration skips two
    # updates on every rank; a healthy start skips none
    X = synth_lowrank(5, 100, 3, 3)
    for alg in ("did", "dbcd"):
        config = lowrank_config(alg, p=2, max_iters=5, epsilon=1e-30)
        assert [r.skipped for r in run(config, X=X).rows] == [0] * 5
    init = harness.init_factors

    def dead_start(*args, **kwargs):
        B, C = init(*args, **kwargs)
        B[:, 0] = 0.0
        C[0] = 0.0
        return B, C

    monkeypatch.setattr(harness, "init_factors", dead_start)
    for alg in ("did", "dbcd"):
        config = lowrank_config(alg, p=2, max_iters=5, epsilon=1e-30)
        assert [r.skipped for r in run(config, X=X).rows] == [2] * 5


def test_run_epsilon_one_converges_before_first_iteration():
    metrics = run(lowrank_config("bcd", epsilon=1.0))
    assert metrics.converged
    assert metrics.iterations == 0
    assert metrics.rows == []


def test_run_max_time_stops_sequential_early():
    # one loop for every algorithm: the cap is checked after each
    # iteration, so the flagged iteration completes and the run stops
    config = lowrank_config("bcd", max_time=1e-9, epsilon=1e-30)
    metrics = run(config, X=synth_lowrank(5, 100, 3, 3))
    assert metrics.iterations == 1
    assert not metrics.converged


def test_run_max_time_stops_distributed_after_flagged_iteration():
    config = lowrank_config("did", max_time=1e-9, epsilon=1e-30)
    metrics = run(config, X=synth_lowrank(5, 100, 3, 3))
    assert metrics.iterations == 1
    assert not metrics.converged


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_residual_rows_monotone(alg):
    p = 2 if alg in ("did", "dbcd", "dadmm") else 1
    config = lowrank_config(alg, p=p, max_iters=60, epsilon=1e-30)
    metrics = run(config, X=synth_lowrank(5, 100, 3, 3))
    resid = metrics.residuals()
    assert len(resid) == 60
    if alg == "dadmm":
        # splitting iterations are not monotone; just require real progress
        assert resid[-1] < 0.5 * resid[0]
    else:
        assert (np.diff(resid) <= 1e-10).all()


def test_run_from_dmat_input_file(tmp_path):
    X = synth_lowrank(4, 40, 2, 6)
    path = tmp_path / "data.dmat"
    write_dmat(path, X)
    config = RunConfig(algorithm="anls", k=2, seed=6, max_iters=10,
                       input_path=str(path))
    assert run(config).iterations == 10


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_run_refuses_csv_input_before_any_rank_connects(monkeypatch, tmp_path,
                                                        transport):
    # text cannot be read by columns, so a rank would have to load all of
    # it: every rank names the conversion to DMAT1 and fails before it
    # reads the file or makes a world
    path = tmp_path / "data.csv"
    write_csv_matrix(path, synth_lowrank(4, 8, 2, 0))
    calls = [_spy(monkeypatch, name, lambda a: a) for name in
             ("load_matrix", "make_tcp_world", "make_inprocess_worlds")]
    kw = dict(algorithm="did", k=2, p=2, input_path=str(path),
              transport=transport, comm_timeout=30.0)
    t0 = time.monotonic()
    if transport == "tcp":
        for rank in (0, 1):
            with pytest.raises(ValueError, match="nmf convert"):
                run_tcp_rank(RunConfig(**kw), rank)
    else:
        with pytest.raises(ValueError, match="nmf convert"):
            run(RunConfig(**kw))
    assert time.monotonic() - t0 < 0.5 and calls == [[], [], []]


def test_tcp_ranks_on_a_file_match_the_in_process_run(monkeypatch, tmp_path):
    # each TCP rank reads its own columns of a DMAT1 file and reaches the
    # in-process trajectory bit for bit
    X = synth_lowrank(5, 101, 3, 8)
    path = tmp_path / "data.dmat"
    write_dmat(path, X)
    reads = _spy(monkeypatch, "load_matrix", lambda a: a[1:])
    kw = dict(algorithm="did", k=3, p=2, seed=8, max_iters=40,
              epsilon=1e-30, input_path=str(path), transport="tcp",
              comm_timeout=30.0)
    results, errors = _tcp_ranks(kw)
    assert errors == [None, None], errors
    assert sorted(reads) == [(0, 51), (51, 50)]
    ref = run(RunConfig(**dict(kw, transport="in-process")))
    for got in results:
        assert got.iterations == ref.iterations == 40
        assert np.array_equal(got.residuals(), ref.residuals())


@pytest.mark.parametrize("source", ["synthetic", "dmat", "array"])
@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_rank_block_is_one_row_major_stack_of_x_and_c(monkeypatch, tmp_path,
                                                        transport, source):
    # on both transports every rank's block is one C-contiguous [X; C]
    # with x_block and c_block its row views; a DMAT1 read lands in the
    # block's X rows, and an X the caller passes is copied, never viewed
    X = synth_data(5, 101, 8)
    path = tmp_path / "data.dmat"
    write_dmat(path, X)
    blocks, loop = [], harness._distributed_worker
    monkeypatch.setattr(harness, "_distributed_worker",
                        lambda config, world, block, B:
                        blocks.append(block) or loop(config, world, block, B))
    outs, load = [], harness.load_matrix
    monkeypatch.setattr(harness, "load_matrix",
                        lambda *a, **kw: outs.append(kw.get("out")) or load(*a, **kw))
    kw = dict(algorithm="did", m=5, n=101, k=3, p=2, seed=8, max_iters=2,
              comm_timeout=30.0, transport=transport)
    if source == "dmat":
        kw["input_path"] = str(path)
    data = X if source == "array" else None
    if transport == "tcp":
        _, errors = _tcp_ranks(kw, data)
        assert errors == [None, None], errors
    else:
        run(RunConfig(**kw), X=data)
    blocks.sort(key=lambda b: -b.z.shape[1])
    for (start, size), block in zip(partition_columns(101, 2), blocks):
        assert block.z.shape == (8, size) and block.z.flags.c_contiguous
        assert block.x_block.base is block.z and block.c_block.base is block.z
        assert np.array_equal(block.x_block, X[:, start:start + size])
        assert not np.shares_memory(block.z, X)
    assert len(blocks) == 2
    if source == "dmat":
        assert sorted(id(o) for o in outs) == sorted(id(b.x_block) for b in blocks)
    else:
        assert outs == []


def test_setup_sum_of_a_block_does_not_depend_on_its_layout():
    # a view into a wider row-major X (rows one row of X apart) and its
    # contiguous copy give the setup collective the same sum, so a block
    # draws the same start whatever its row stride.
    # (with numpy 2.4, np.sum of this view and of its copy differ in the
    # last bit.)
    X = np.random.default_rng(1).random((5, 100_000))
    view = X[:, 33_333:83_333]
    sums = []
    for block in (view, view.copy()):
        [world] = make_inprocess_worlds(1)
        with world:
            sums.append(harness._check_values(world, block))
    assert sums[0] == sums[1]
    assert sums[0] == pytest.approx(float(np.sum(view)), rel=1e-12)


_RANK_HWM = """
import sys

import didnmf.cli
import numpy.random  # imported on first use; a fixed cost, not data


def peak_kib():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


after_imports = peak_kib()
didnmf.cli.main(sys.argv[1:])
print("VmHWM", after_imports, peak_kib())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux /proc for a process's peak memory")
def test_tcp_rank_memory_grows_by_less_than_the_input_file(tmp_path):
    # each rank holds half the columns of a tall-and-wide X (M >> K): its
    # block (half the file), its block of C (K/M = 0.1 of that) and one
    # 1 MiB read chunk (0.13 of it) make about 1.25 blocks at peak. The
    # bound, 1.5 blocks, leaves a quarter block for the allocator and the
    # interpreter, while a second copy of the block anywhere in the rank's
    # setup reaches 2 blocks and fails. The child's own VmHWM is read,
    # because ru_maxrss of a child inherits the parent's high-water mark.
    path = tmp_path / "wide.dmat"
    write_dmat(path, synth_lowrank(20, 100_000, 2, 0))
    file_kib = os.path.getsize(path) / 1024
    port = _free_port()
    src = os.path.dirname(os.path.dirname(harness.__file__))
    args = ["run", "--alg", "did", "--p", "2", "--k", "2", "--input",
            str(path), "--max-iters", "2", "--transport", "tcp"]
    procs = [subprocess.Popen(
        [sys.executable, "-c", _RANK_HWM, *args],
        env=dict(os.environ, PYTHONPATH=src, NMF_RANK=str(r), NMF_WORLD="2",
                 NMF_ADDR=f"127.0.0.1:{port}"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for r in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    for out, _ in outs:
        _, after_imports, after_run = out.splitlines()[-1].split()
        growth = int(after_run) - int(after_imports)
        assert growth < 1.5 * file_kib / 2, (growth, file_kib)


def test_metrics_csv_header_and_roundtrip(tmp_path):
    out = tmp_path / "metrics.csv"
    config = lowrank_config("did", p=2, max_iters=12, epsilon=1e-30,
                            out_path=str(out))
    metrics = run(config, X=synth_lowrank(5, 100, 3, 3))
    first_line = out.read_text().splitlines()[0]
    assert first_line == "iter,objective,residual_sq,allreduce_calls,bytes,compute_s,comm_s"
    assert ",".join(CSV_HEADER) == first_line
    rows = read_metrics_csv(out)
    assert len(rows) == metrics.iterations == 12
    ints = {"iter", "allreduce_calls", "bytes"}
    for rec, row in zip(rows, metrics.rows):
        assert list(rec) == list(CSV_HEADER)
        assert {col for col, v in rec.items() if type(v) is int} == ints
        assert all(type(rec[col]) is float for col in set(CSV_HEADER) - ints)
        # repr() text round-trips every float
        assert rec == {"iter": row.iteration, "objective": row.objective,
                       "residual_sq": row.residual_sq,
                       "allreduce_calls": row.allreduce_calls,
                       "bytes": row.bytes, "compute_s": row.compute_s,
                       "comm_s": row.comm_s}


# sequential vs distributed parity at the harness level


def test_did_and_dbcd_single_worker_traces_match_sequential():
    X = synth_lowrank(5, 100, 3, 3)
    ref = run(lowrank_config("bcd"), X=X)
    assert ref.converged
    one_worker_dbcd = run(lowrank_config("dbcd"), X=X)
    one_worker_did = run(lowrank_config("did"), X=X)
    # dbcd reuses the sequential kernels verbatim: bitwise equal trace
    assert one_worker_dbcd.iterations == ref.iterations
    assert np.array_equal(one_worker_dbcd.objectives(), ref.objectives())
    # did reorganizes the arithmetic: same iterate up to rounding
    assert one_worker_did.iterations == ref.iterations
    assert np.allclose(one_worker_did.objectives(), ref.objectives(),
                       rtol=1e-10)


@pytest.mark.parametrize("alg", ["dbcd", "did"])
@pytest.mark.parametrize("p", [2, 4])
def test_partitioned_traces_match_sequential(alg, p):
    X = synth_lowrank(5, 100, 3, 3)
    ref = run(lowrank_config("bcd"), X=X)
    got = run(lowrank_config(alg, p=p), X=X)
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    assert np.allclose(got.objectives(), ref.objectives(), rtol=1e-10)
    assert np.allclose(got.b_norms(), ref.b_norms(), rtol=1e-10)


def test_comm_cost_columns_match_algorithm_structure():
    # modelled bytes at P=2: payload doubles x 8 bytes x 2 tree steps.
    # did packs S (MK), V's lower triangle (K(K+1)/2), rr and the time-cap
    # flag into one payload; dbcd sends K [y, z] payloads of M + 1, the
    # first with rr and the flag; dadmm one [gram, rhs] of K^2 + MK
    M, K = 5, 3
    X = synth_lowrank(M, 100, K, 3)
    expected = {"did": (1, 2 * 8 * (M * K + K * (K + 1) // 2 + 2)),
                "dbcd": (K, 2 * 8 * (K * (M + 1) + 2)),
                "dadmm": (1, 2 * 8 * (K * K + M * K))}
    for alg, (per_iter, nbytes) in expected.items():
        metrics = run(lowrank_config(alg, p=2, max_iters=8, epsilon=1e-30), X=X)
        for r in metrics.rows:
            assert r.allreduce_calls == per_iter
            assert r.bytes == nbytes


def test_soft_convergence_rates_across_seeds():
    """Convergence census on small exactly factorable instances.

    Coordinate methods and the splitting methods should solve at least 90
    percent of seeds to a 1e-6 relative residual within 1000 iterations.
    Alternating exact minimization is granted a lower floor: on a fraction
    of seeds it walks into a genuine non-global stationary point and sits
    there, which no iteration budget fixes.
    """
    seeds = range(20)
    floors = {alg: 0.9 for alg in ALGORITHMS}
    floors["anls"] = 0.7
    rates = {}
    for alg in ALGORITHMS:
        ok = 0
        for seed in seeds:
            X = synth_lowrank(5, 100, 3, seed)
            config = RunConfig(algorithm=alg, m=5, n=100, k=3, seed=seed,
                               epsilon=1e-6, max_iters=1000)
            if run(config, X=X).converged:
                ok += 1
        rates[alg] = ok / len(seeds)
    lines = [f"  {alg:6s} converged {rates[alg]:4.0%} (floor {floors[alg]:.0%})"
             for alg in ALGORITHMS]
    print("\nconvergence census, 20 seeds, 5x100 rank-3:\n" + "\n".join(lines))
    failing = {a: r for a, r in rates.items() if r < floors[a]}
    assert not failing, f"convergence rates under floor: {failing}"
