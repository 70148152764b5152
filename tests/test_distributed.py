import socket
import threading

import numpy as np
import pytest

from didnmf import comm, distributed, matrix
from didnmf.comm import make_inprocess_worlds, make_tcp_world
from didnmf.distributed import (
    DadmmWorkerState,
    dadmm_worker_iterate,
    dbcd_worker_iterate,
    did_build_message,
    did_c_phase,
    did_update_basis,
    did_worker_iterate,
)
from didnmf.harness import init_factors, synth_data, synth_lowrank
from didnmf.kernels import (
    b_column_apply,
    b_column_partials,
    c_rowwise_sweep,
    residual_sq,
    tile_width,
)
from blocks import make_column_blocks
from didnmf.matrix import frob_norm_sq


def run_ranks(size, fn, timeout=10.0):
    """Run fn(world, rank) per rank in threads; return results by rank."""
    worlds = make_inprocess_worlds(size, timeout=timeout)
    results = [None] * size
    errors = [None] * size

    def target(world):
        try:
            with world:
                results[world.rank] = fn(world, world.rank)
        except Exception as exc:
            errors[world.rank] = exc

    threads = [threading.Thread(target=target, args=(w,), daemon=True)
               for w in worlds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    for rank, exc in enumerate(errors):
        if exc is not None:
            raise AssertionError(f"rank {rank} failed: {exc!r}") from exc
    return results


def random_problem(m, n, k, seed):
    X = synth_data(m, n, seed)
    B0, C0 = init_factors(X, k, seed)
    return X, B0, C0


def sequential_cd(X, B, C):
    """Reference coordinate-descent sweep built from the kernel's parts with
    no collective at all: the C pass, then each basis column in order.
    Updates B and C in place and returns the skipped-update count."""
    Z = np.vstack([X, C])
    S, V, _, skipped = c_rowwise_sweep(Z, B)
    C[...] = Z[len(X):]
    for i in range(B.shape[1]):
        y, z = b_column_partials(S, V, B, i)
        skipped += b_column_apply(B, i, y, z)
    return skipped


def one_rank_dbcd(X, B0, C0, iters):
    """Sequential coordinate descent as the run loop drives it (bcd): the
    dbcd worker on a one-rank world. Returns (B, C, last residual)."""
    block = make_column_blocks(X, C0, 1)[0]
    B = np.array(B0, order="F")
    [world] = make_inprocess_worlds(1)
    with world:
        for _ in range(iters):
            resid, _, _ = dbcd_worker_iterate(world, block, B)
    return B, block.c_block, resid


def did_payload(S, V, rr=0.0, flag=0.0):
    """The did wire layout: S column-major, then V's lower triangle by
    rows, then the residual rr and the time-cap flag."""
    S, V = np.asarray(S, dtype=float), np.asarray(V, dtype=float)
    return np.concatenate([S.ravel(order="F"), V[np.tril_indices(V.shape[0])],
                           [rr, flag]])


# message assembly (worked numbers first)


def test_did_message_worked_instance():
    # C = [[1 2 2], [2 0 2]], E = [[1 1 0], [2 0 1]], B = [[1 0], [1 1]]
    # X = E + B C = [[2 3 2], [5 2 5]]
    # S = X C^T: row 1 = (2+6+4, 4+0+4) = (12, 8);
    # row 2 = (5+4+10, 10+0+10) = (19, 20)
    # C C^T = [[9 6], [6 8]], lower triangle keeps (9; 6 8)
    # ||E||^2 = 1 + 1 + 4 + 1 = 7, and the time-cap flag is up
    # on the wire: S by columns (12, 19, 8, 20), then (9, 6, 8), then
    # (7, 1): 9 doubles
    B = np.asfortranarray([[1.0, 0.0], [1.0, 1.0]])
    C = np.asfortranarray([[1.0, 2.0, 2.0], [2.0, 0.0, 2.0]])
    E = np.asfortranarray([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    X = E + B @ C
    buf = did_build_message(X @ C.T, C @ C.T, residual_sq(X, B, C), 1.0)
    assert np.array_equal(buf, [12.0, 19.0, 8.0, 20.0, 9.0, 6.0, 8.0, 7.0, 1.0])
    assert np.array_equal(buf, did_payload([[12.0, 8.0], [19.0, 20.0]],
                                           [[9.0, 0.0], [6.0, 8.0]], 7.0, 1.0))


def test_did_messages_add_across_blocks():
    # the reduction target: block messages must sum to the full-data message
    X, B, C = random_problem(4, 23, 3, 2)
    full = did_build_message(X @ C.T, C @ C.T, residual_sq(X, B, C), 0.0)
    assert full.shape == (4 * 3 + 3 * 4 // 2 + 2,)
    for p in (2, 3, 5):
        total = np.zeros_like(full)
        for block in make_column_blocks(X, C, p):
            Xb, Cb = block.x_block, block.c_block
            total += did_build_message(Xb @ Cb.T, Cb @ Cb.T,
                                       residual_sq(Xb, B, Cb), 0.0)
        assert np.allclose(total, full, rtol=1e-12, atol=1e-14)


# basis update from a reduced message


def update_basis(B, S, V):
    """Apply did_update_basis to (S, V); return (skipped, delta)."""
    before = B.copy()
    _, skipped, _ = did_update_basis(B, did_payload(S, V))
    return skipped, B - before


def test_did_update_basis_single_column():
    B = np.asfortranarray([[1.0], [2.0]])
    skipped, delta = update_basis(B, [[4.0], [8.0]], [[2.0]])
    # b := [s / v]_+ = (4, 8) / 2
    assert np.array_equal(B, [[2.0], [4.0]])
    assert np.array_equal(delta, [[1.0], [2.0]])
    assert skipped == 0


def test_did_update_basis_interference_correction():
    # V = [[1 1], [1 2]]: column 0 takes y = s_0 - b_1 v_10 = 3 - 1 and
    # moves by +1; column 1 then sees the moved b_0, y = 3 - 2 v_01 = 1
    B = np.asfortranarray([[1.0, 1.0]])
    _, delta = update_basis(B, [[3.0, 3.0]], [[1.0, 0.0], [1.0, 2.0]])
    assert np.array_equal(B, [[2.0, 0.5]])
    assert np.array_equal(delta, [[1.0, -0.5]])


def test_did_update_basis_projection_feeds_recurrence():
    # V = [[1 1], [1 1]]: column 0's y = -3 - 1 clamps at zero, so it
    # moves by -1, not -5, and column 1 must see the clamped value:
    # y = 2 - 0 v_01
    B = np.asfortranarray([[1.0, 1.0]])
    _, delta = update_basis(B, [[-3.0, 2.0]], [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(B, [[0.0, 2.0]])
    assert np.array_equal(delta, [[-1.0, 1.0]])


def test_did_update_basis_skips_dead_column():
    B = np.asfortranarray([[1.0, 1.0]])
    skipped, delta = update_basis(B, [[7.0, 2.0]], [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(B, [[1.0, 2.0]])
    assert np.array_equal(delta, [[0.0, 1.0]])
    assert skipped == 1


def test_did_update_basis_matches_sequential_column_loop():
    # oracle: the per-column closed-form loop applied to the same sums;
    # did runs that loop on the unpacked message, so B agrees bit for bit
    rng = np.random.default_rng(0)
    for trial in range(100):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 51))
        B = rng.uniform(0.0, 2.0, size=(m, k))
        C = rng.uniform(0.0, 2.0, size=(k, n))
        E = rng.standard_normal((m, n))

        S = (E + B @ C) @ C.T
        V = C @ C.T

        B_seq = np.array(B, order="F")
        for i in range(k):
            y, z = b_column_partials(S, V, B_seq, i)
            b_column_apply(B_seq, i, y, z)

        B_msg = np.array(B, order="F")
        did_update_basis(B_msg, did_build_message(S, V, 0.0, 0.0))
        assert np.array_equal(B_msg, B_seq), trial


def test_did_c_phase_counts_dead_rows():
    X = np.asfortranarray([[1.0, 2.0, 3.0]])
    block = make_column_blocks(X, np.ones((2, 3)), 1)[0]
    B = np.asfortranarray([[1.0, 0.0]])
    _, _, _, skipped = did_c_phase(block, B)
    assert skipped == 1


# one-worker runs collapse to the sequential kernels


def test_dbcd_single_worker_is_bitwise_sequential():
    # on one rank the packed [y, z] collective hands back its input, so
    # dbcd is the plain sequential sweep bit for bit. The reference sweeps
    # a C in the block's own (row-major) layout, since BLAS may round a
    # product differently for another layout
    X, B0, C0 = random_problem(5, 17, 3, 4)
    block = make_column_blocks(X, C0, 1)[0]
    B_ref, C_ref = np.array(B0, order="F"), block.c_block.copy()
    B = np.array(B0, order="F")
    [world] = make_inprocess_worlds(1)
    with world:
        for _ in range(15):
            sequential_cd(X, B_ref, C_ref)
            dbcd_worker_iterate(world, block, B)
            assert np.array_equal(B, B_ref)
            assert np.array_equal(block.c_block, C_ref)


def test_did_single_worker_tracks_sequential_closely():
    # same mathematical iterate as coordinate descent; only the rounding
    # path differs, so the trajectories agree to near machine precision
    X, B0, C0 = random_problem(5, 40, 3, 6)
    B_ref, C_ref = np.array(B0, order="F"), np.array(C0, order="F")
    block = make_column_blocks(X, C0, 1)[0]
    B = np.array(B0, order="F")
    [world] = make_inprocess_worlds(1)
    with world:
        for _ in range(30):
            sequential_cd(X, B_ref, C_ref)
            resid, _, _ = did_worker_iterate(world, block, B)
            assert np.allclose(B, B_ref, rtol=1e-10, atol=1e-12)
            assert np.allclose(block.c_block, C_ref, rtol=1e-10, atol=1e-12)
            assert resid == pytest.approx(residual_sq(X, B_ref, C_ref), rel=1e-10)


BCD_PARITY_INSTANCES = [
    # (name, X from a seed, K)
    ("lowrank-5x400", lambda s: synth_lowrank(5, 400, 3, s), 3),
    ("data-8x600", lambda s: synth_data(8, 600, s), 3),
    ("lowrank-20x3000", lambda s: synth_lowrank(20, 3000, 5, s), 5),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,make,k", BCD_PARITY_INSTANCES,
                         ids=[i[0] for i in BCD_PARITY_INSTANCES])
def test_did_single_worker_is_bitwise_bcd(name, make, k, seed):
    # one rank's reduced (S, V) is its own, and did moves the basis with
    # bcd's column loop: B, C and the reported residual agree bit for bit
    # at every one of 300 iterations
    X = make(seed)
    B0, C0 = init_factors(X, k, seed)
    blocks = [make_column_blocks(X, C0, 1)[0] for _ in range(2)]
    bases = [np.array(B0, order="F") for _ in range(2)]
    [world] = make_inprocess_worlds(1)
    with world:
        for t in range(300):
            ref = dbcd_worker_iterate(world, blocks[0], bases[0])
            got = did_worker_iterate(world, blocks[1], bases[1])
            assert got == ref, t
            assert bases[1].tobytes() == bases[0].tobytes(), t
            assert blocks[1].c_block.tobytes() == blocks[0].c_block.tobytes(), t


def test_dead_rows_and_columns_skipped_alike_by_bcd_dbcd_did():
    # b_0 = 0 makes row 0 of C dead (g_00 = 0); with c_0 = 0 that row's
    # basis column is dead too (v_00 = 0). The sequential sweep, dbcd and
    # did leave both untouched, count two skips per iteration and agree
    # on the rest.
    X, B0, C0 = random_problem(5, 30, 3, 17)
    B0[:, 0] = 0.0
    C0[0] = 0.0
    # the reference sweeps a C in the block's (row-major) layout: BLAS
    # rounds X C^T of the two layouts differently
    B_ref, C_ref = np.array(B0, order="F"), np.array(C0, order="C")
    blocks = {alg: make_column_blocks(X, C0, 1)[0] for alg in ("dbcd", "did")}
    bases = {alg: np.array(B0, order="F") for alg in blocks}
    [world] = make_inprocess_worlds(1)
    with world:
        for _ in range(5):
            assert sequential_cd(X, B_ref, C_ref) == 2
            for alg, worker in (("dbcd", dbcd_worker_iterate),
                                ("did", did_worker_iterate)):
                _, skipped, _ = worker(world, blocks[alg], bases[alg])
                assert skipped == 2
    for B, C in [(B_ref, C_ref)] + [(bases[a], blocks[a].c_block) for a in blocks]:
        assert not B[:, 0].any() and not C[0].any()
    assert np.array_equal(bases["dbcd"], B_ref)
    assert np.array_equal(blocks["dbcd"].c_block, C_ref)
    assert np.array_equal(bases["did"], B_ref)
    assert np.array_equal(blocks["did"].c_block, C_ref)


# multi-worker invariants


def run_multiworker(alg, X, B0, C0, p, iters):
    """Drive one worker per rank; return per-rank (B, c_block, stats)."""
    blocks = make_column_blocks(X, C0, p)
    step = {"did": did_worker_iterate, "dbcd": dbcd_worker_iterate,
            "dadmm": dadmm_worker_iterate}[alg]

    def body(world, rank):
        B = np.array(B0, order="F")
        block = blocks[rank]
        st = DadmmWorkerState.fresh(block, B) if alg == "dadmm" else None
        for _ in range(iters):
            step(world, block, B, st)
        return B, block.c_block.copy(), world.stats

    return run_ranks(p, body)


@pytest.mark.parametrize("alg", ["did", "dbcd", "dadmm"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_replicated_basis_stays_bit_identical(alg, p):
    X, B0, C0 = random_problem(4, 21, 2, 8)
    res = run_multiworker(alg, X, B0, C0, p, iters=10)
    B_ref = res[0][0]
    for B, _, _ in res[1:]:
        assert np.array_equal(B, B_ref)


@pytest.mark.parametrize("alg,per_iter", [("did", 1), ("dbcd", 3), ("dadmm", 1)])
def test_allreduce_count_per_iteration(alg, per_iter):
    # did and dadmm ride one collective per iteration; dbcd needs one per
    # basis column (K = 3 here). did and dbcd carry their stopping residual
    # in that message; dadmm adds one service reduction for it
    X, B0, C0 = random_problem(4, 21, 3, 9)
    iters = 7
    for _, _, stats in run_multiworker(alg, X, B0, C0, 2, iters):
        assert stats.allreduce_calls == per_iter * iters
        assert stats.service_calls == (iters if alg == "dadmm" else 0)


@pytest.mark.parametrize("p", [2, 3])
def test_partitioned_run_matches_sequential_objective(p):
    # block boundaries change nothing: the C pass is columnwise and the B
    # phase sums the identical message, so only rounding order moves
    X, B0, C0 = random_problem(5, 33, 3, 10)
    _, _, ref_resid = one_rank_dbcd(X, B0, C0, 20)

    def body(world, rank):
        B = np.array(B0, order="F")
        blocks = make_column_blocks(X, C0, p)
        block = blocks[rank]
        for _ in range(20):
            resid, _, _ = dbcd_worker_iterate(world, block, B)
        return 0.5 * resid

    for obj in run_ranks(p, body):
        assert obj == pytest.approx(0.5 * ref_resid, rel=1e-10)


@pytest.mark.parametrize("alg", ["dbcd", "did"])
def test_rank_blocks_straddling_tile_edges_match_sequential(alg):
    # n = 2T + 3 over two ranks: each block holds a tile edge of its own,
    # and neither block boundary sits on a tile edge of the whole matrix
    m, k = 64, 3
    n = 2 * tile_width(m) + 3
    X, B0, C0 = random_problem(m, n, k, 18)
    B_ref, C_ref, ref_resid = one_rank_dbcd(X, B0, C0, 8)
    res = run_multiworker(alg, X, B0, C0, 2, iters=8)
    for B, _, _ in res:
        assert np.array_equal(B, res[0][0])
        assert np.allclose(B, B_ref, rtol=1e-10, atol=1e-12)
    C = np.hstack([c for _, c, _ in res])
    assert np.allclose(C, C_ref, rtol=1e-10, atol=1e-12)
    assert residual_sq(X, res[0][0], C) == pytest.approx(ref_resid, rel=1e-10)


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("alg,calls,doubles", [
    ("did", 1, 5 * 3 + 3 * 4 // 2 + 2),  # S, V's lower triangle, rr, flag
    ("dbcd", 3, 5 + 1),                  # [y, z] per basis column
    ("dadmm", 1, 3 * 3 + 5 * 3),         # [gram, rhs]
])
def test_tcp_collectives_are_one_frame_per_tree_edge(monkeypatch, alg, calls,
                                                     doubles, size):
    # P ranks over real sockets, one iteration: every collective goes from
    # each rank to rank 0 as one frame and comes back as one frame, whose
    # body is the whole flat payload as raw doubles, and no DMAT1 codec
    # runs. dbcd's first [y, z] also carries (rr, flag); dadmm adds a
    # service reduction of (residual, flag). The in-process reference run
    # writes the same frames over its socket pairs
    frames = []
    servers = []
    codec_calls = []
    write_frame = comm._write_frame
    create_server = comm.socket.create_server

    def spy(conn, tag, body):
        if tag < comm._TAG_LIMIT:
            frames.append(len(body))
        write_frame(conn, tag, body)

    def server_spy(*args, **kwargs):
        servers.append(threading.current_thread().name)
        return create_server(*args, **kwargs)

    def codec_spy(name, real):
        def codec(*args):
            codec_calls.append(name)
            return real(*args)
        return codec

    monkeypatch.setattr(comm, "_write_frame", spy)
    monkeypatch.setattr(comm.socket, "create_server", server_spy)
    for name in ("dmat_encode", "dmat_decode"):
        spy_codec = codec_spy(name, getattr(matrix, name))
        for mod in (comm, matrix):
            monkeypatch.setattr(mod, name, spy_codec)
    X, B0, C0 = random_problem(5, 30, 3, 19)
    steps = {"did": did_worker_iterate, "dbcd": dbcd_worker_iterate,
             "dadmm": dadmm_worker_iterate}

    def step(world, block):
        B = np.array(B0, order="F")
        state = DadmmWorkerState.fresh(block, B) if alg == "dadmm" else None
        steps[alg](world, block, B, state)
        return B, block.c_block

    blocks = make_column_blocks(X, C0, size)
    expected = run_ranks(size, lambda world, r: step(world, blocks[r]))
    inprocess_frames, frames[:] = frames[:], []
    blocks = make_column_blocks(X, C0, size)  # the step updated c_block
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    before = set(threading.enumerate())
    results = [None] * size
    errors = []

    def rank(r):
        try:
            with make_tcp_world(r, size, ("127.0.0.1", port),
                                timeout=10.0) as world:
                results[r] = step(world, blocks[r])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=rank, args=(r,), name=f"rank{r}")
               for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert set(threading.enumerate()) == before  # the endpoint left no thread
    assert servers == ["rank0"]
    payloads = [doubles + 2 * (alg == "dbcd")] + [doubles] * (calls - 1)
    if alg == "dadmm":
        payloads.append(2)
    # ranks send concurrently, so the frames of consecutive collectives
    # may interleave: compare sizes as a multiset
    assert codec_calls == []
    for sent in (frames, inprocess_frames):
        assert sorted(sent) == sorted(8 * d for d in payloads
                                      for _ in range(2 * (size - 1)))
    for (B, c), (B_ref, c_ref) in zip(results, expected):
        assert np.array_equal(B, B_ref) and np.array_equal(c, c_ref)


# the stopping residual carried by the message


def identity_trace(alg, X, B0, C0, p, iters):
    """Drive did or dbcd on p ranks; per iteration, the residual every rank
    reported and the direct ||X - B C||^2 summed over the rank blocks."""
    blocks = make_column_blocks(X, C0, p)
    step = {"did": did_worker_iterate, "dbcd": dbcd_worker_iterate}[alg]

    def body(world, rank):
        B = np.array(B0, order="F")
        block = blocks[rank]
        out = []
        for _ in range(iters):
            resid, _, over = step(world, block, B)
            assert over is False
            out.append((resid, residual_sq(block.x_block, B, block.c_block)))
        return out

    res = np.array(run_ranks(p, body))  # rank x iteration x (reported, direct)
    reported = res[:, :, 0]
    assert (reported == reported[0]).all()  # bit-identical on every rank
    return reported[0], res[:, :, 1].sum(axis=0)


IDENTITY_INSTANCES = {
    # (X from a seed, iterations)
    "lowrank": (lambda s: synth_lowrank(5, 400, 3, s), 60),
    "data": (lambda s: synth_data(8, 300, s), 30),
    # two tiles and 3 columns: the blocks straddle tile edges at P = 2, 4
    "tiles": (lambda s: synth_lowrank(64, 2 * tile_width(64) + 3, 3, s), 8),
}


@pytest.mark.parametrize("instance", sorted(IDENTITY_INSTANCES))
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("alg", ["did", "dbcd"])
def test_message_residual_matches_the_direct_pass(alg, p, instance):
    # rr plus each moved column's z ||d||^2 - 2 d^T (y - z b), against a
    # fresh tile pass over every block, every iteration
    make, iters = IDENTITY_INSTANCES[instance]
    for seed in range(2):
        X = make(seed)
        B0, C0 = init_factors(X, 3, seed)
        reported, direct = identity_trace(alg, X, B0, C0, p, iters)
        assert np.all(np.abs(reported - direct) <= 1e-12 * direct), seed


@pytest.mark.parametrize("alg", ["did", "dbcd"])
def test_message_residual_with_dead_rows_and_columns(alg):
    # b_0 = 0 and c_0 = 0: row 0 of C and column 0 of B are skipped on
    # every rank, and contribute no move to the identity
    X, B0, C0 = random_problem(5, 30, 3, 17)
    B0[:, 0] = 0.0
    C0[0] = 0.0
    reported, direct = identity_trace(alg, X, B0, C0, 2, 10)
    assert np.all(np.abs(reported - direct) <= 1e-12 * direct)


@pytest.mark.parametrize("alg", ["did", "dbcd"])
def test_message_residual_rounded_below_zero_reports_zero(monkeypatch, alg):
    # X = b c exactly for b = (1, 1), c = (1, 0). From B = (1, 0) the C pass
    # gives c, with rr = 1, and the basis moves by Delta = (0, 1): the
    # identity is rr - 2 + 1 = 0. A pass that rounded rr two ulps low
    # (1 - 2^-52) gives (rr - 2) + 1 = -2^-52, which is reported as 0.0.
    # The C phase is the one place either worker takes rr from
    X = np.asfortranarray([[1.0, 0.0], [1.0, 0.0]])
    step = {"did": did_worker_iterate, "dbcd": dbcd_worker_iterate}[alg]
    c_phase = distributed.did_c_phase
    for rr in (1.0, 1.0 - 2.0 ** -52):
        def low_c_phase(block, B, rr=rr):
            S, V, exact, skipped = c_phase(block, B)
            assert exact == 1.0
            return S, V, rr, skipped

        monkeypatch.setattr(distributed, "did_c_phase", low_c_phase)
        block = make_column_blocks(X, np.full((1, 2), 0.5), 1)[0]
        B = np.asfortranarray([[1.0], [0.0]])
        [world] = make_inprocess_worlds(1)
        with world:
            resid, skipped, _ = step(world, block, B)
        assert np.array_equal(B, [[1.0], [1.0]]) and skipped == 0
        assert np.array_equal(block.c_block, [[1.0, 0.0]])
        assert (rr - 2.0) + 1.0 <= 0.0
        assert resid == 0.0 and str(resid) == "0.0"


def test_time_cap_flag_rides_the_message(monkeypatch):
    # a deadline already past on one rank only: every rank of did and dbcd
    # reports the flag, and the iteration still completes
    for step in (did_worker_iterate, dbcd_worker_iterate):
        X, B0, C0 = random_problem(4, 21, 3, 9)
        blocks = make_column_blocks(X, C0, 2)

        def body(world, rank):
            B = np.array(B0, order="F")
            deadline = -np.inf if rank == 1 else np.inf
            return step(world, blocks[rank], B, None, deadline)[2], B

        res = run_ranks(2, body)
        assert [over for over, _ in res] == [True, True]
        assert np.array_equal(res[0][1], res[1][1])
        assert not np.array_equal(res[0][1], B0)


# distributed splitting worker


def test_dadmm_fresh_state_shapes_and_validation():
    X, B0, C0 = random_problem(3, 8, 2, 12)
    block = make_column_blocks(X, C0, 1)[0]
    st = DadmmWorkerState.fresh(block, B0, rho=2.0)
    assert not st.U.any()
    assert np.allclose(st.Y, B0 @ C0)
    with pytest.raises(ValueError):
        DadmmWorkerState.fresh(block, B0, rho=0.0)


def test_dadmm_fixed_point():
    rng = np.random.default_rng(14)
    B = rng.uniform(0.5, 1.5, size=(4, 2))
    C = rng.uniform(0.5, 1.5, size=(2, 9))
    X = np.asfortranarray(B @ C)
    block = make_column_blocks(X, C, 1)[0]
    Bw = np.array(B, order="F")
    st = DadmmWorkerState.fresh(block, Bw)
    [world] = make_inprocess_worlds(1)
    with world:
        dadmm_worker_iterate(world, block, Bw, st)
    assert np.allclose(Bw, B, atol=1e-10)
    assert np.allclose(block.c_block, C, atol=1e-10)
    assert np.allclose(st.U, 0.0, atol=1e-10)
    assert np.allclose(st.Y, X, atol=1e-10)


def test_dadmm_dual_and_target_update_formulas():
    # white-box single step against the update equations, using the
    # pre-step factors the worker saw
    X, B0, C0 = random_problem(4, 11, 2, 15)
    block = make_column_blocks(X, C0, 1)[0]
    B = np.array(B0, order="F")
    st = DadmmWorkerState.fresh(block, B, rho=1.5)
    st.U = np.asfortranarray(np.random.default_rng(1).standard_normal(X.shape) * 0.1)
    U0, Y0 = st.U.copy(), st.Y.copy()
    BC0 = B0 @ C0
    [world] = make_inprocess_worlds(1)
    with world:
        dadmm_worker_iterate(world, block, B, st)
    U1 = U0 + Y0 - BC0
    assert np.allclose(st.U, U1, rtol=1e-13)
    assert np.allclose(st.Y, (X - 1.5 * U1 + 1.5 * BC0) / 2.5, rtol=1e-13)


def test_dadmm_objective_settles_on_exactly_factorable_data():
    rng = np.random.default_rng(16)
    Bt = rng.uniform(0.2, 1.0, size=(5, 3))
    Ct = rng.uniform(0.2, 1.0, size=(3, 60))
    X = np.asfortranarray(Bt @ Ct)
    B0, C0 = init_factors(X, 3, 16)
    block = make_column_blocks(X, C0, 1)[0]
    B = np.array(B0, order="F")
    st = DadmmWorkerState.fresh(block, B)
    [world] = make_inprocess_worlds(1)
    e0 = frob_norm_sq(X - B0 @ C0)
    with world:
        for _ in range(400):
            dadmm_worker_iterate(world, block, B, st)
            if frob_norm_sq(X - B @ block.c_block) / e0 <= 1e-6:
                break
    assert frob_norm_sq(X - B @ block.c_block) / e0 <= 1e-6
