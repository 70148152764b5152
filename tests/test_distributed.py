import functools
import math
import pathlib
import re
import threading

import numpy as np
import pytest

from didnmf import comm, distributed, matrix
from didnmf.comm import make_inprocess_worlds, make_tcp_world, run_ranks
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
from helpers import STEPS, free_addr, fresh_state, make_column_blocks, run_world
from didnmf.matrix import frob_norm_sq

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    """Sequential coordinate descent as the run loop drives it: the dbcd
    worker on a one-rank world. Returns (B, C, last residual)."""
    block = make_column_blocks(X, C0, 1)[0]
    B = np.array(B0, order="F")
    [world] = make_inprocess_worlds(1)
    with world:
        for _ in range(iters):
            resid, _, _ = dbcd_worker_iterate(world, block, B)
    return B, block.c_block, resid


def did_payload(S, V, rr=0.0):
    """The did wire layout: S column-major, then V's lower triangle by
    rows, then the residual rr."""
    S, V = np.asarray(S, dtype=float), np.asarray(V, dtype=float)
    return np.concatenate([S.ravel(order="F"), V[np.tril_indices(V.shape[0])], [rr]])


# message assembly (worked numbers first)


def test_did_message_worked_instance():
    # C = [[1 2 2], [2 0 2]], E = [[1 1 0], [2 0 1]], B = [[1 0], [1 1]]
    # X = E + B C = [[2 3 2], [5 2 5]]
    # S = X C^T: row 1 = (2+6+4, 4+0+4) = (12, 8);
    # row 2 = (5+4+10, 10+0+10) = (19, 20)
    # C C^T = [[9 6], [6 8]], lower triangle keeps (9; 6 8)
    # ||E||^2 = 1 + 1 + 4 + 1 = 7
    # on the wire: S by columns (12, 19, 8, 20), then (9, 6, 8), then 7:
    # 8 doubles, and no time-cap flag
    B = np.asfortranarray([[1.0, 0.0], [1.0, 1.0]])
    C = np.asfortranarray([[1.0, 2.0, 2.0], [2.0, 0.0, 2.0]])
    E = np.asfortranarray([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    X = E + B @ C
    buf = did_build_message(X @ C.T, C @ C.T, residual_sq(X, B, C))
    assert np.array_equal(buf, [12.0, 19.0, 8.0, 20.0, 9.0, 6.0, 8.0, 7.0])
    assert np.array_equal(buf, did_payload([[12.0, 8.0], [19.0, 20.0]],
                                           [[9.0, 0.0], [6.0, 8.0]], 7.0))


def test_did_messages_add_across_blocks():
    # the reduction target: block messages must sum to the full-data message
    X, B, C = random_problem(4, 23, 3, 2)
    full = did_build_message(X @ C.T, C @ C.T, residual_sq(X, B, C))
    assert full.shape == (4 * 3 + 3 * 4 // 2 + 1,)
    for p in (2, 3, 5):
        total = np.zeros_like(full)
        for block in make_column_blocks(X, C, p):
            Xb, Cb = block.x_block, block.c_block
            total += did_build_message(Xb @ Cb.T, Cb @ Cb.T,
                                       residual_sq(Xb, B, Cb))
        assert np.allclose(total, full, rtol=1e-12, atol=1e-14)


# basis update from a reduced message


def update_basis(B, S, V):
    """Apply did_update_basis to (S, V); return (skipped, delta), the skip
    count read from rank 0's running [resid, skips]."""
    before = B.copy()
    run = np.zeros(2)
    did_update_basis(B, did_payload(S, V), run, math.inf)
    return int(run[1]), B - before


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
        did_update_basis(B_msg, did_build_message(S, V, 0.0), np.zeros(2), math.inf)
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


BCD_PARITY_INSTANCES = [
    # (name, X from a seed, K)
    ("lowrank-5x400", lambda s: synth_lowrank(5, 400, 3, s), 3),
    ("data-8x600", lambda s: synth_data(8, 600, s), 3),
    ("data-6x301", lambda s: synth_data(6, 301, s), 3),
    ("lowrank-20x3000", lambda s: synth_lowrank(20, 3000, 5, s), 5),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,make,k", BCD_PARITY_INSTANCES,
                         ids=[i[0] for i in BCD_PARITY_INSTANCES])
def test_did_single_worker_is_bitwise_bcd(name, make, k, seed):
    # one rank's reduced (S, V) is its own, and did moves the basis with
    # dbcd's column loop: B, C and the reported residual agree bit for bit
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

    def body(world):
        B = np.array(B0, order="F")
        block = blocks[world.rank]
        st = fresh_state(alg, block, B)
        for _ in range(iters):
            STEPS[alg](world, block, B, st)
        return B, block.c_block.copy(), world.stats

    return run_world(p, body)


@pytest.mark.parametrize("alg", ["did", "dbcd", "dadmm", "anls"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_replicated_basis_stays_bit_identical(alg, p):
    X, B0, C0 = random_problem(4, 21, 2, 8)
    res = run_multiworker(alg, X, B0, C0, p, iters=10)
    B_ref = res[0][0]
    for B, _, _ in res[1:]:
        assert np.array_equal(B, B_ref)


def on_rank1():
    return threading.current_thread().name == "nmf-rank1"


def two_rank_replicas(alg, iters=5):
    """Drive `alg` for `iters` iterations on two in-process ranks; per
    rank, (its B, the residual it reported each iteration)."""
    X, B0, C0 = random_problem(4, 21, 3, 9)
    blocks = make_column_blocks(X, C0, 2)

    def body(world):
        B = np.array(B0, order="F")
        block = blocks[world.rank]
        st = fresh_state(alg, block, B)
        return B, [STEPS[alg](world, block, B, st)[0] for _ in range(iters)]

    (B_0, resids_0), (B_1, resids_1) = run_world(2, body)
    assert not np.array_equal(B_0, B0)  # the basis moved
    return (B_0, resids_0), (B_1, resids_1)


def test_did_replicas_agree_by_construction(monkeypatch):
    # rank 1 rounds every basis column's y one ulp up, as a host whose BLAS
    # rounds the other way would: rank 0 alone moves the basis and sends
    # it back, so both ranks still hold one B and one residual trajectory
    partials = distributed.b_column_partials

    def rounded_up_on_rank1(S, V, B, i):
        y, z = partials(S, V, B, i)
        if on_rank1():
            y = np.nextafter(y, np.inf)
        return y, z

    monkeypatch.setattr(distributed, "b_column_partials", rounded_up_on_rank1)
    (B_0, resids_0), (B_1, resids_1) = two_rank_replicas("did")
    assert np.array_equal(B_0, B_1)
    assert resids_0 == resids_1


def test_dbcd_replicas_agree_by_construction(monkeypatch):
    # rank 1 rounds each moved column b_i one ulp up, as a host whose
    # kernels round the other way would; that also moves its residual
    # change. Rank 0 alone moves b_i on each column's reduced [y, z] and
    # replies with it (the last reply with the residual), so both ranks
    # hold one B and one residual trajectory
    apply = distributed.b_column_apply

    def rounded_up_on_rank1(B, i, y, z):
        skipped = apply(B, i, y, z)
        if on_rank1():
            B[:, i] = np.nextafter(B[:, i], np.inf)
        return skipped

    monkeypatch.setattr(distributed, "b_column_apply", rounded_up_on_rank1)
    (B_0, resids_0), (B_1, resids_1) = two_rank_replicas("dbcd")
    assert np.array_equal(B_0, B_1)
    assert resids_0 == resids_1


@pytest.mark.parametrize("alg", ["anls", "dadmm"])
def test_exact_pass_replicas_agree_by_construction(monkeypatch, alg):
    # rank 1 rounds the basis NNLS solve one ulp up: rank 0 alone solves
    # B from the reduced [gram, rhs] and replies with it, so both ranks
    # hold one B. (The residual is a reduced total on every rank.)
    solve = distributed.nnls_rows

    def rounded_up_on_rank1(G, R):
        out = solve(G, R)
        # the basis solve has a row per row of X (4), the C solve per column
        if on_rank1() and len(R) == 4:
            out = np.nextafter(out, np.inf)
        return out

    monkeypatch.setattr(distributed, "nnls_rows", rounded_up_on_rank1)
    (B_0, resids_0), (B_1, resids_1) = two_rank_replicas(alg)
    assert np.array_equal(B_0, B_1)
    assert resids_0 == resids_1


@pytest.mark.parametrize("alg,per_iter", [("did", 1), ("dbcd", 3), ("dadmm", 1),
                                          ("anls", 1)])
def test_allreduce_count_per_iteration(alg, per_iter):
    # did, dadmm and anls ride one collective per iteration; dbcd needs one
    # per basis column (K = 3 here). did and dbcd carry their stopping
    # residual in that message; dadmm and anls add one service reduction
    X, B0, C0 = random_problem(4, 21, 3, 9)
    iters = 7
    for _, _, stats in run_multiworker(alg, X, B0, C0, 2, iters):
        assert stats.allreduce_calls == per_iter * iters
        assert stats.service_calls == (iters if alg in ("dadmm", "anls") else 0)


@pytest.mark.parametrize("p", [2, 3])
def test_partitioned_run_matches_sequential_objective(p):
    # block boundaries change nothing: the C pass is columnwise and the B
    # phase sums the identical message, so only rounding order moves
    X, B0, C0 = random_problem(5, 33, 3, 10)
    _, _, ref_resid = one_rank_dbcd(X, B0, C0, 20)

    def body(world):
        B = np.array(B0, order="F")
        blocks = make_column_blocks(X, C0, p)
        block = blocks[world.rank]
        for _ in range(20):
            resid, _, _ = dbcd_worker_iterate(world, block, B)
        return 0.5 * resid

    for obj in run_world(p, body):
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


def star_frames(alg, m, k):
    """The doubles of each frame one collective iteration sends up each
    star edge (peer to rank 0) and down it (rank 0 to peer)."""
    if alg == "did":  # S, V's lower triangle, rr; B, resid, flag
        return [m * k + k * (k + 1) // 2 + 1], [m * k + 2]
    if alg == "dbcd":  # [y, z] per basis column, the first with rr;
        # b_i per column, the last with resid and flag
        return [m + 2] + [m + 1] * (k - 1), [m] * (k - 1) + [m + 2]
    # dadmm: [gram, rhs], B; service: the residual, [resid, flag]
    return [k * k + m * k, 1], [m * k, 2]


def wire_bytes(up, down):
    """Bytes on one star edge in both directions, 12 header bytes a frame."""
    return sum(12 + 8 * d for d in up + down)


# did moves 4(K-1)(K-6) more wire bytes per iteration than dbcd at P = 2:
# K(K-1)/2 more doubles up, as many down (MK + 2 each), 2(K-1) fewer
# frame headers
DID_WIRE_SURPLUS = {3: -24, 10: 144, 30: 2784}

# a case's id names its algorithm, its collectives per iteration, the
# doubles of one uplink frame (dbcd's last, did's and dadmm's first) and
# P. did's ids keep the count of the layout they were named under, whose
# uplink also carried a time-cap flag: one double more than now
DID_ID_DOUBLES = {3: 23, 10: 107, 30: 617}


def frame_case(alg, k, size, m=5):
    calls = k if alg == "dbcd" else 1
    doubles = (DID_ID_DOUBLES[k] if alg == "did"
               else star_frames(alg, m, k)[0][-1 if alg == "dbcd" else 0])
    return pytest.param(alg, m, k, size, id=f"{alg}-{calls}-{doubles}-{size}")


@pytest.mark.parametrize("alg,m,k,size", [
    frame_case(alg, 3, size) for alg in ("did", "dbcd", "dadmm")
    for size in (2, 3, 4)] + [
    frame_case(alg, k, 2) for alg in ("did", "dbcd") for k in (10, 30)])
def test_tcp_collectives_are_one_frame_per_tree_edge(monkeypatch, alg, m, k,
                                                     size):
    # P ranks over real sockets, one iteration: every collective goes from
    # each rank to rank 0 as one frame and comes back as one frame, whose
    # body is the whole flat payload as raw doubles, and no DMAT1 codec
    # runs. No uplink carries a flag: dbcd's first [y, z] also carries
    # rr, and dadmm adds a service reduction of its residual alone. Every
    # reply is what rank 0 computed: did's B, dbcd's b_i (the last with
    # resid and flag), dadmm's B and then its [resid, flag]. The
    # in-process reference run writes the same frames over its socket
    # pairs
    frames = []
    servers = []
    codec_calls = []
    write_frame = comm._write_frame
    create_server = comm.socket.create_server

    def spy(conn, tag, body):
        if tag < comm._TAG_LIMIT:
            frames.append((threading.current_thread().name, len(body)))
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
    # K may exceed M here, which `init_factors` refuses
    rng = np.random.default_rng(19)
    X, B0, C0 = synth_data(m, 30, 19), rng.random((m, k)), rng.random((k, 30))

    def step(world):
        B = np.array(B0, order="F")
        block = blocks[world.rank]
        STEPS[alg](world, block, B, fresh_state(alg, block, B))
        return B, block.c_block

    blocks = make_column_blocks(X, C0, size)
    expected = run_world(size, step)
    inprocess_frames, frames[:] = frames[:], []
    blocks = make_column_blocks(X, C0, size)  # the step updated c_block
    before = set(threading.enumerate())
    results, errors = run_ranks(size, functools.partial(
        make_tcp_world, size=size, address=free_addr(), timeout=10.0), step)
    assert errors == [None] * size, errors
    assert set(threading.enumerate()) == before  # the world left no thread
    assert servers == ["nmf-rank0"]
    up, down = star_frames(alg, m, k)
    # ranks send concurrently, so the frames of consecutive collectives
    # may interleave: compare sizes as a multiset, up and down apart
    assert codec_calls == []
    for sent in (frames, inprocess_frames):
        for sender, doubles in ((lambda r: r != "nmf-rank0", up),
                                (lambda r: r == "nmf-rank0", down)):
            assert sorted(n for r, n in sent if sender(r)) == sorted(
                8 * d for d in doubles for _ in range(size - 1))
    if size == 2 and alg == "did":
        surplus = wire_bytes(up, down) - wire_bytes(*star_frames("dbcd", m, k))
        assert surplus == 4 * (k - 1) * (k - 6) == DID_WIRE_SURPLUS[k]
        assert sum(12 + n for _, n in frames) == wire_bytes(up, down)
    for (B, c), (B_ref, c_ref) in zip(results, expected):
        assert np.array_equal(B, B_ref) and np.array_equal(c, c_ref)


def readme_ints(pattern):
    """The integers that `pattern`'s groups match, once, in README.md with
    its whitespace collapsed, so a figure may wrap across lines; a group
    that matches a number word reads as its number."""
    text = " ".join((ROOT / "README.md").read_text().split())
    [found] = re.findall(pattern, text)
    words = ("zero", "one", "two", "three", "four", "five", "six")
    return [words.index(g) if g in words else int(g)
            for g in ([found] if isinstance(found, str) else found)]


def test_readme_wire_figures_follow_the_frames():
    # README's figures at M=5, K=3, P=2 against the frames that
    # `test_tcp_collectives_are_one_frame_per_tree_edge` pins on sockets
    m, k = 5, 3
    frames = {alg: star_frames(alg, m, k) for alg in ("did", "dbcd", "dadmm")}
    (did_up, did_down), (dbcd_up, dbcd_down) = frames["did"], frames["dbcd"]
    assert readme_ints(r"\| `did` \|.*?time-cap flag: MK \+ (\d+) \|") == [
        did_down[0] - m * k]
    assert readme_ints(r"\| `dbcd` \|.*?`b_i`, M, the last \+ (\d+) ") == [
        dbcd_down[-1] - m]
    assert readme_ints(r"replies ends in the same (\w+) doubles") == [
        did_down[0] - m * k]
    # the wire paragraph
    assert readme_ints(r"a `did` frame up to rank 0 carries (\d+) doubles"
                       r".*? Its reply carries (\d+), MK \+ (\d+):") == [
        did_up[0], did_down[0], did_down[0] - m * k]
    assert readme_ints(r"the moved `b_i`, M \(the last \+ (\d+):") == [
        dbcd_down[-1] - m]
    assert readme_ints(
        r"an iteration moves (\d+) bytes on the wire for `did` \(frames of "
        r"(\d+) and (\d+) bytes\) and (\d+) for `dbcd` \((\w+) frames of "
        r"(\d+) header bytes, (\d+) payload bytes in all\)") == [
        wire_bytes(did_up, did_down), *[12 + 8 * d for d in did_up + did_down],
        wire_bytes(dbcd_up, dbcd_down), len(dbcd_up + dbcd_down), 12,
        8 * sum(dbcd_up + dbcd_down)]
    assert readme_ints(r"as many down \(MK \+ (\d+) each\)") == [
        did_down[0] - m * k]
    assert readme_ints(r"That is (\d+) bytes fewer at K=3, (\d+) more at "
                       r"K=10 and (\d+) more at K=30") == [
        -DID_WIRE_SURPLUS[3], DID_WIRE_SURPLUS[10], DID_WIRE_SURPLUS[30]]
    for kk, surplus in DID_WIRE_SURPLUS.items():
        assert (wire_bytes(*star_frames("did", m, kk))
                - wire_bytes(*star_frames("dbcd", m, kk))) == surplus
    # the CSV's `bytes` model: each algorithmic collective's payload up
    # and reply back, one tree step; dadmm's service frames are not in it
    model = []
    for alg in ("did", "dbcd", "dadmm"):
        up, down = frames[alg]
        up, down = (up[:1], down[:1]) if alg == "dadmm" else (up, down)
        model += [8 * sum(up + down), 8 * sum(up), 8 * sum(down)]
    assert readme_ints(
        r"`did` reads (\d+) bytes \((\d+) up, (\d+) back\), `dbcd` (\d+) "
        r"\((\d+) up, (\d+) back\), and `anls` and `dadmm` (\d+) "
        r"\((\d+) up, (\d+) back\)") == model


# the stopping residual carried by the message


def identity_trace(alg, X, B0, C0, p, iters):
    """Drive did or dbcd on p ranks; per iteration, the residual every rank
    reported and the direct ||X - B C||^2 summed over the rank blocks."""
    blocks = make_column_blocks(X, C0, p)

    def body(world):
        B = np.array(B0, order="F")
        block = blocks[world.rank]
        out = []
        for _ in range(iters):
            resid, _, over = STEPS[alg](world, block, B)
            assert over is False
            out.append((resid, residual_sq(block.x_block, B, block.c_block)))
        return out

    res = np.array(run_world(p, body))  # rank x iteration x (reported, direct)
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
    # b_0 = 0 and c_0 = 0: row 0 of C is skipped on every rank and
    # column 0 of B on rank 0, which moves B, and neither contributes a
    # move to the identity
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
            resid, skipped, _ = STEPS[alg](world, block, B)
        assert np.array_equal(B, [[1.0], [1.0]]) and skipped == 0
        assert np.array_equal(block.c_block, [[1.0, 0.0]])
        assert (rr - 2.0) + 1.0 <= 0.0
        assert resid == 0.0 and str(resid) == "0.0"


@pytest.mark.parametrize("alg", ["did", "dbcd", "anls", "dadmm"])
def test_time_cap_is_read_on_rank_0_alone(alg):
    # a deadline already past on one rank only. Past on rank 0, whose
    # finishing step reads the clock, both ranks report the flag after a
    # completed iteration, with one B; past on rank 1, which reads no
    # clock, neither rank reports it
    X, B0, C0 = random_problem(4, 21, 3, 9)
    for late, flagged in ((0, True), (1, False)):
        blocks = make_column_blocks(X, C0, 2)

        def body(world):
            B = np.array(B0, order="F")
            block = blocks[world.rank]
            deadline = -np.inf if world.rank == late else np.inf
            out = STEPS[alg](world, block, B, fresh_state(alg, block, B), deadline)
            return out[2], B

        res = run_world(2, body)
        assert [over for over, _ in res] == [flagged, flagged], late
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
