import functools
import socket
import struct
import threading
import time

import numpy as np
import pytest

from didnmf import comm
from didnmf.comm import (
    CommError,
    CommTimeoutError,
    allreduce_sum,
    make_inprocess_worlds,
    make_tcp_world,
)


def run_world(size, fn, timeout=10.0):
    """Run fn(world) on each rank in its own thread; return results by rank.

    fn may be a single callable used by all ranks or a list with one
    callable per rank. Raises the first per-rank exception (lowest rank).
    """
    fns = fn if isinstance(fn, list) else [fn] * size
    worlds = make_inprocess_worlds(size, timeout=timeout)
    results = [None] * size
    errors = [None] * size

    def target(world, body):
        try:
            with world:
                results[world.rank] = body(world)
        except Exception as exc:  # re-raised below, rank-tagged
            errors[world.rank] = exc

    threads = [
        threading.Thread(target=target, args=(w, f), daemon=True)
        for w, f in zip(worlds, fns)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    for rank, exc in enumerate(errors):
        if exc is not None:
            raise AssertionError(f"rank {rank} failed: {exc!r}") from exc
    return results


# value correctness


def test_single_rank_is_identity_and_free():
    def body(world):
        a = np.asfortranarray([[1.25, -0.5], [3.0, 7.0]])
        out = allreduce_sum(world, a)
        return out, world.stats

    [(out, stats)] = run_world(1, body)
    assert np.array_equal(out, [[1.25, -0.5], [3.0, 7.0]])
    assert stats.allreduce_calls == 1
    assert stats.bytes_sent == 0  # no wire traffic with one rank
    [world] = make_inprocess_worlds(1)
    assert world._endpoint._conns == {}  # and no socket


def test_single_rank_result_does_not_alias_the_input():
    def body(world):
        a = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        out = allreduce_sum(world, a)
        shared = np.shares_memory(out, a)
        out[0, 0] = 99.0
        return a, shared

    [(a, shared)] = run_world(1, body)
    assert not shared
    assert a[0, 0] == 1.0


def test_two_ranks_sum_exactly():
    def body(world):
        a = np.full((2, 3), float(world.rank + 1))
        return allreduce_sum(world, a)

    res = run_world(2, body)
    for out in res:
        assert np.array_equal(out, np.full((2, 3), 3.0))


def test_four_ranks_scaled_identity():
    def body(world):
        return allreduce_sum(world, world.rank * np.eye(2))

    res = run_world(4, body)
    for out in res:
        assert np.array_equal(out, 6.0 * np.eye(2))


@pytest.mark.parametrize("size", [3, 5])
def test_non_power_of_two_sizes(size):
    # integer payloads make the sum exact regardless of reduction order
    def body(world):
        a = np.asfortranarray([[1.0, 2.0], [4.0, 8.0]]) * (world.rank + 1)
        return allreduce_sum(world, a)

    total = sum(range(1, size + 1))
    for out in run_world(size, body):
        assert np.array_equal(out, np.array([[1.0, 2.0], [4.0, 8.0]]) * total)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
def test_tree_matches_left_fold(size):
    rng = np.random.default_rng(17)
    parts = [rng.standard_normal((4, 3)) for _ in range(size)]
    expected = parts[0].copy()
    for p in parts[1:]:
        expected = expected + p

    def body(world):
        return allreduce_sum(world, parts[world.rank])

    for out in run_world(size, body):
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("size", range(2, 9))
def test_sum_is_in_binomial_tree_order_bit_for_bit(size):
    # 1 added to +-1e16 rounds away, so each order of the P additions
    # leaves different bits; rank r holds the pattern rotated by r
    pattern = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0]
    parts = [np.roll(pattern, -r) for r in range(size)]

    def tree(ps):
        # ((x0 + x1) + (x2 + x3)) + ...: the first half is the largest
        # power of two below len(ps)
        if len(ps) == 1:
            return ps[0]
        half = 1 << ((len(ps) - 1).bit_length() - 1)
        return tree(ps[:half]) + tree(ps[half:])

    expected = tree(parts)
    left_fold = functools.reduce(np.add, parts)
    # below four ranks the tree order is the left fold
    assert np.array_equal(expected, left_fold) == (size < 4)

    def body(world):
        return allreduce_sum(world, parts[world.rank])

    for out in run_world(size, body):
        assert out.tobytes() == expected.tobytes()


def test_all_ranks_receive_identical_bits():
    # the root's total is broadcast verbatim, so every rank ends up with
    # the same bytes, which is what makes replicated state stay replicated
    rng = np.random.default_rng(23)
    parts = [rng.standard_normal((6, 4)) for _ in range(5)]

    def body(world):
        return allreduce_sum(world, parts[world.rank])

    res = run_world(5, body)
    for out in res[1:]:
        assert np.array_equal(res[0], out)


def test_repeat_runs_are_bit_identical():
    rng = np.random.default_rng(29)
    parts = [rng.standard_normal((3, 3)) for _ in range(3)]

    def body(world):
        return allreduce_sum(world, parts[world.rank])

    first = run_world(3, body)
    second = run_world(3, body)
    assert np.array_equal(first[0], second[0])


# payload handling


def test_vector_and_scalar_payload_shapes_survive():
    def body(world):
        vo = allreduce_sum(world, np.arange(5, dtype=np.float64))
        so = allreduce_sum(world, np.array(2.0))
        return vo, so

    res = run_world(3, body)
    for vo, so in res:
        assert vo.shape == (5,)
        assert np.array_equal(vo, 3.0 * np.arange(5))
        assert so.shape == ()
        assert float(so) == 6.0


def test_comm_world_refuses_an_empty_world_and_a_rank_outside_it():
    with pytest.raises(ValueError, match="world size must be at least 1"):
        comm.CommWorld(0, 0, None)
    for rank in (-1, 2):
        with pytest.raises(ValueError,
                           match=f"rank {rank} outside world of size 2"):
            comm.CommWorld(rank, 2, None)


def test_rejects_empty_and_high_rank_payloads():
    def body(world):
        with pytest.raises(ValueError):
            allreduce_sum(world, np.zeros(0))
        with pytest.raises(ValueError):
            allreduce_sum(world, np.zeros((2, 2, 2)))
        return True

    assert all(run_world(1, body))


def test_input_arrays_are_not_mutated():
    a_by_rank = [np.full((2, 2), float(r)) for r in range(4)]

    def body(world):
        a = a_by_rank[world.rank]
        allreduce_sum(world, a)
        return a.copy()

    res = run_world(4, body)
    for r, a in enumerate(res):
        assert np.array_equal(a, np.full((2, 2), float(r)))


# failure detection


def test_shape_mismatch_names_both_ranks():
    def rank0(world):
        allreduce_sum(world, np.ones((2, 2)))

    def rank1(world):
        allreduce_sum(world, np.ones((3, 2)))

    with pytest.raises(AssertionError) as exc_info:
        run_world(2, [rank0, rank1], timeout=1.0)
    cause = exc_info.value.__cause__
    assert isinstance(cause, CommError)
    assert "shape mismatch" in str(cause)
    assert "rank 0" in str(cause) and "rank 1" in str(cause)


def test_sequence_mismatch_detected():
    # rank 0 is artificially one collective ahead, so the incoming call
    # number no longer matches
    def rank0(world):
        world._seq += 1
        allreduce_sum(world, np.ones((2, 2)))

    def rank1(world):
        allreduce_sum(world, np.ones((2, 2)))

    with pytest.raises(AssertionError) as exc_info:
        run_world(2, [rank0, rank1], timeout=1.0)
    cause = exc_info.value.__cause__
    assert isinstance(cause, CommError)
    assert "sequence mismatch" in str(cause)


def test_missing_peer_times_out():
    # rank 1 stays in the world but never joins the collective
    gave_up = threading.Event()

    def rank0(world):
        try:
            allreduce_sum(world, np.ones((2, 2)))
        finally:
            gave_up.set()

    def rank1(world):
        gave_up.wait(5.0)

    with pytest.raises(AssertionError) as exc_info:
        run_world(2, [rank0, rank1], timeout=0.2)
    assert isinstance(exc_info.value.__cause__, CommTimeoutError)


def test_departed_peer_fails_its_waiting_peers_at_once():
    # rank 2 leaves without joining: rank 0 reads its close at a frame
    # boundary, naming it, and rank 1 (waiting on rank 0's total) rank
    # 0's; no rank waits out the 30 s timeout
    worlds = make_inprocess_worlds(3, timeout=30.0)
    errors = [None] * 3

    def target(world):
        try:
            with world:
                if world.rank != 2:
                    allreduce_sum(world, np.ones(3))
        except Exception as exc:
            errors[world.rank] = exc

    threads = [threading.Thread(target=target, args=(w,), daemon=True)
               for w in worlds]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert time.monotonic() - t0 < 2.0
    assert errors[2] is None
    for rank, gone in ((0, 2), (1, 0)):
        assert type(errors[rank]) is CommError
        assert f"rank {gone} left the world while rank {rank}" in str(errors[rank])


def test_messages_sent_before_a_departure_are_still_delivered():
    # a rank that closes right after its last collective closes behind
    # that collective's frames
    def body(world):
        return allreduce_sum(world, np.full(2, world.rank + 1.0))

    for size in (2, 3, 4):
        for out in run_world(size, body):
            assert np.array_equal(out, np.full(2, size * (size + 1) / 2))


@pytest.mark.parametrize("transport", ["inprocess", "tcp"])
def test_a_rank_leaving_with_frames_unread_is_lost_to_every_peer(transport):
    # rank 0 raises before it reads its peers' frames: a close with bytes
    # unread resets the connection, on a socket pair as over TCP, so
    # ranks 1 and 2 fail at once, each naming rank 0 as lost, not as left
    if transport == "inprocess":
        connect = make_inprocess_worlds(3, timeout=30.0).__getitem__
    else:
        connect = functools.partial(make_tcp_world, size=3,
                                    address=_free_addr(), timeout=30.0)
    errors = [None] * 3
    failed_at = [None] * 3

    def rank(r):
        try:
            with connect(r) as world:
                if r == 0:
                    time.sleep(0.2)
                    raise RuntimeError("rank 0 gives up")
                allreduce_sum(world, np.ones(3))
        except Exception as exc:
            errors[r] = exc
        failed_at[r] = time.monotonic()

    threads = [threading.Thread(target=rank, args=(r,), daemon=True)
               for r in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert str(errors[0]) == "rank 0 gives up"
    for r in (1, 2):
        assert type(errors[r]) is CommError
        assert str(errors[r]).startswith(
            f"rank {r} lost its connection to rank 0 (ConnectionResetError")
        assert failed_at[r] - failed_at[0] < 1.0


def _tcp_pair():
    """Two connected loopback TCP sockets."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        near = socket.create_connection(server.getsockname())
        far, _ = server.accept()
    return near, far


def _reset(sock):
    """Close with SO_LINGER 0, so the far end sees a reset, not an EOF."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


def _free_addr():
    """A loopback address with a port that is free now."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return ("127.0.0.1", s.getsockname()[1])


def test_tcp_size_mismatch_names_both_ranks_and_fails_both():
    # rank 0 expects 4 doubles and reads a 6-double frame: it raises,
    # naming both ranks, and closes its world, so rank 1, waiting on the
    # total, fails at once too instead of after the 5 s timeout
    addr = _free_addr()
    errors = [None, None]

    def rank(r):
        try:
            with make_tcp_world(r, 2, addr, timeout=5.0) as world:
                allreduce_sum(world, np.ones(4 + 2 * r))
        except Exception as exc:
            errors[r] = exc

    threads = [threading.Thread(target=rank, args=(r,), daemon=True)
               for r in range(2)]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert time.monotonic() - t0 < 5.0
    assert type(errors[0]) is CommError
    assert "shape mismatch" in str(errors[0])
    assert "rank 0 expects 4 doubles but rank 1 sent 48 bytes" in str(errors[0])
    assert type(errors[1]) is CommError and "rank 0" in str(errors[1])


@pytest.mark.parametrize("tag,length,words", [
    # a body of 8n + 3 bytes fails as a CommError, not a numpy error
    (0, 8 * 2 + 3, "payload shape mismatch in collective 0: rank 0 "
                   "expects 2 doubles but rank 1 sent 19 bytes"),
    # a control frame inside a collective carries no sequence number
    (comm._TAG_REGISTER, 8 * 2, "collective sequence mismatch: rank 0 is "
                                f"at call 0 but rank 1 sent call "
                                f"{comm._TAG_REGISTER}"),
], ids=["partial-double", "control-frame"])
def test_a_hand_written_bad_tcp_frame_fails_the_collective(tag, length, words):
    # rank 1 is a socket that sends one hand-written frame
    near, far = _tcp_pair()
    # one rank: no rendezvous
    endpoint = comm.TcpEndpoint(0, 1, None, timeout=5.0)
    endpoint._conns[1] = near
    with far, comm.CommWorld(0, 2, endpoint) as world:
        far.sendall(comm._FRAME_HEADER.pack(tag, length) + bytes(length))
        with pytest.raises(CommError) as exc_info:
            allreduce_sum(world, np.ones(2))
    assert type(exc_info.value) is CommError
    assert str(exc_info.value) == words


def test_a_frame_too_large_to_hold_is_a_comm_error():
    # a header announcing 4 EiB fails as the protocol error it is, before
    # any of its body is read
    near, far = _tcp_pair()
    with near, far:
        far.sendall(comm._FRAME_HEADER.pack(0, 1 << 62))
        with pytest.raises(CommError) as exc_info:
            comm._read_frame(near, 5.0, 0, 1)
    assert type(exc_info.value) is CommError
    assert str(exc_info.value) == (
        f"rank 0 cannot hold the {1 << 62}-byte frame rank 1 announced")


def test_reset_connection_on_read_names_the_peer():
    near, far = _tcp_pair()
    _reset(far)
    with near, pytest.raises(CommError) as exc_info:
        comm._read_frame(near, 5.0, 0, 1)
    assert type(exc_info.value) is CommError
    assert "rank 0 lost its connection to rank 1" in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__, ConnectionResetError)


def test_reset_connection_on_write_names_the_peer():
    near, far = _tcp_pair()
    endpoint = comm.TcpEndpoint(2, 1, None)  # one rank: no rendezvous
    endpoint._conns[0] = near
    _reset(far)
    with pytest.raises(CommError) as exc_info:
        # the reset may land after the first frame has gone out
        for seq in range(100):
            endpoint.send(0, seq, np.zeros((3, 1)))
            time.sleep(0.01)
    endpoint.close()
    assert type(exc_info.value) is CommError
    assert "rank 2 lost its connection to rank 0" in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__,
                      (ConnectionResetError, BrokenPipeError))


def test_peer_closing_between_frames_has_left_the_world():
    # a close at a frame boundary, with nothing unread, is a departure,
    # the same on a socket pair as over TCP; a close inside a frame is not
    near, far = _tcp_pair()
    far.close()
    with near, pytest.raises(CommError) as exc_info:
        comm._read_frame(near, 5.0, 0, 1)
    assert type(exc_info.value) is CommError
    assert str(exc_info.value) == ("rank 1 left the world while rank 0 "
                                   "was waiting for it")
    near, far = _tcp_pair()
    with far:
        far.sendall(comm._FRAME_HEADER.pack(0, 8)[:5])
    with near, pytest.raises(CommError, match="rank 1 closed its connection "
                             "to rank 0 mid-frame"):
        comm._read_frame(near, 5.0, 0, 1)


def test_a_frame_arrives_within_one_timeout_not_one_per_read():
    # the header comes after 0.8 s and the body 0.8 s later: each read
    # alone is inside the 1.0 s timeout, the frame as a whole is not
    near, far = socket.socketpair()

    def slow_sender():
        time.sleep(0.8)
        far.sendall(comm._FRAME_HEADER.pack(0, 8))
        time.sleep(0.8)
        far.sendall(bytes(8))

    sender = threading.Thread(target=slow_sender, daemon=True)
    with near, far:
        sender.start()
        t0 = time.monotonic()
        with pytest.raises(CommTimeoutError, match="rank 0 timed out after "
                           "1.0s waiting for rank 1"):
            comm._read_frame(near, 1.0, 0, 1)
        elapsed = time.monotonic() - t0
        sender.join(timeout=5.0)
    assert 0.95 <= elapsed < 1.4


def test_send_to_a_peer_that_never_reads_times_out_after_the_world_timeout():
    # a 16 MB frame fills the socket buffers of a peer that never reads;
    # the write waits the world's timeout, not the 0.2 s a read left on
    # the socket, and then names the peer
    near, far = socket.socketpair()
    endpoint = comm.TcpEndpoint(2, 1, None, timeout=1.0)  # no rendezvous
    endpoint._conns[0] = near
    with far:
        with pytest.raises(CommTimeoutError):
            comm._read_frame(near, 0.2, 2, 0)
        t0 = time.monotonic()
        with pytest.raises(CommTimeoutError) as exc_info:
            endpoint.send(0, 0, np.zeros((2_000_000, 1)))
        elapsed = time.monotonic() - t0
        endpoint.close()
    assert 0.95 <= elapsed < 5.0
    assert "rank 2 timed out after 1.0s sending to rank 0" in str(exc_info.value)


# accounting


def test_byte_and_call_accounting_matches_model():
    # modeled volume per call: payload bytes x 2 ceil(log2 P), same on
    # every rank (the model charges the collective, not the wire)
    def body(world):
        allreduce_sum(world, np.zeros((3, 2)))
        allreduce_sum(world, np.zeros(7))
        return world.stats

    for size, ceil_log2 in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        for stats in run_world(size, body):
            assert stats.allreduce_calls == 2
            expected = (48 * 2 * ceil_log2) + ((48 + 8) * 2 * ceil_log2)
            assert stats.bytes_sent == expected
            assert stats.service_calls == 0
            assert stats.service_bytes == 0


def test_service_traffic_counted_separately():
    def body(world):
        allreduce_sum(world, np.zeros((2, 2)))
        allreduce_sum(world, np.zeros((5, 1)), service=True)
        return world.stats

    for stats in run_world(4, body):
        assert stats.allreduce_calls == 1
        assert stats.bytes_sent == 32 * 2 * 2
        assert stats.service_calls == 1
        assert stats.service_bytes == 40 * 2 * 2


def test_comm_time_accumulates():
    def body(world):
        for _ in range(5):
            allreduce_sum(world, np.zeros((2, 2)))
        return world.stats.comm_wall_time

    assert all(t >= 0.0 for t in run_world(3, body))


# rendezvous


def test_dial_pauses_one_fixed_interval_and_gives_up_at_the_deadline(monkeypatch):
    # every refused connect pauses the same `_DIAL_PAUSE`; the clock is
    # virtual, advanced only by the pauses, so the sequence is exact
    clock = [0.0]
    pauses = []

    def refuse(addr, timeout):
        raise ConnectionRefusedError(addr)

    def sleep(dt):
        pauses.append(dt)
        clock[0] += dt

    monkeypatch.setattr(comm.socket, "create_connection", refuse)
    monkeypatch.setattr(comm.time, "sleep", sleep)
    monkeypatch.setattr(comm.time, "monotonic", lambda: clock[0])
    with pytest.raises(CommTimeoutError,
                       match=r"could not reach 127\.0\.0\.1:9 within 0\.5s"):
        comm._dial(("127.0.0.1", 9), 0.5)
    assert comm._DIAL_PAUSE == 0.002
    assert pauses == [comm._DIAL_PAUSE] * len(pauses)
    # it stops at the first attempt at or past the deadline
    assert 0.5 <= clock[0] < 0.5 + comm._DIAL_PAUSE


@pytest.mark.parametrize("silent", [False, True], ids=["absent", "silent"])
def test_rendezvous_times_out_naming_the_ranks_that_never_registered(silent):
    # rank 1 registers; rank 2 never dials, or dials and never registers.
    # Rank 0 runs in a thread joined with a bound, so a rendezvous with no
    # deadline fails this test instead of hanging the suite
    addr = _free_addr()
    errors = []

    def rank0():
        try:
            make_tcp_world(0, 3, addr, timeout=0.5).close()
        except Exception as exc:
            errors.append(exc)

    host = threading.Thread(target=rank0, daemon=True)
    host.start()
    peers = [comm.TcpEndpoint(1, 3, addr, timeout=5.0)]
    if silent:
        peers.append(comm._dial(addr, 5.0))
    host.join(timeout=5.0)
    for peer in peers:
        peer.close()
    assert not host.is_alive()
    [exc] = errors
    assert isinstance(exc, CommTimeoutError)
    assert "after 0.5s" in str(exc)
    assert "rank(s) [2] never registered" in str(exc)


def test_rendezvous_drops_a_connection_that_closes_before_registering():
    # a stray dial that closes at once is no rank: rank 0 keeps accepting
    # and the world forms when rank 1 registers
    addr = _free_addr()
    worlds, errors = [], []

    def rank0():
        try:
            worlds.append(comm.TcpEndpoint(0, 2, addr, timeout=3.0))
        except Exception as exc:
            errors.append(exc)

    host = threading.Thread(target=rank0, daemon=True)
    host.start()
    comm._dial(addr, 5.0).close()
    peer = comm.TcpEndpoint(1, 2, addr, timeout=5.0)
    host.join(timeout=5.0)
    assert not host.is_alive() and errors == []
    [endpoint] = worlds
    assert sorted(endpoint._conns) == [1]
    peer.send(0, 7, np.arange(3.0))
    tag, body = endpoint.recv(1)
    assert tag == 7 and body.tobytes() == np.arange(3.0).tobytes()
    endpoint.close()
    peer.close()


def _form_world_beside_a_stray(sent, timeout):
    """Rank 0 of a two-rank world with `timeout`, a stray that dials and
    sends the bytes `sent` and no more, and rank 1 registering 0.1 s
    later: the world forms in under 1 s, without the stray, and the
    stray is closed."""
    addr = _free_addr()
    worlds, errors = [], []

    def rank0():
        try:
            worlds.append(comm.TcpEndpoint(0, 2, addr, timeout=timeout))
        except Exception as exc:
            errors.append(exc)

    host = threading.Thread(target=rank0, daemon=True)
    start = time.monotonic()
    host.start()
    stray = comm._dial(addr, 5.0)
    stray.sendall(sent)
    time.sleep(0.1)
    peer = comm.TcpEndpoint(1, 2, addr, timeout=5.0)
    host.join(timeout=5.0)
    elapsed = time.monotonic() - start
    assert not host.is_alive() and errors == []
    assert elapsed < 1.0
    [endpoint] = worlds
    assert sorted(endpoint._conns) == [1]
    stray.settimeout(1.0)
    assert stray.recv(1) == b""
    peer.send(0, 7, np.arange(3.0))
    tag, body = endpoint.recv(1)
    assert tag == 7 and body.tobytes() == np.arange(3.0).tobytes()
    for sock in (endpoint, peer, stray):
        sock.close()


def test_a_silent_connection_does_not_hold_the_rendezvous():
    # a dial that never sends is watched beside the registered ranks
    _form_world_beside_a_stray(b"", timeout=2.0)


def test_a_partial_frame_does_not_hold_the_rendezvous():
    # a stray that sends 3 bytes of a frame and stalls keeps them as its
    # own, so it holds no rank behind it either
    _form_world_beside_a_stray(
        _registration(struct.pack("<2d", 2, 1))[:3], timeout=3.0)


def test_a_peer_registers_with_one_frame_of_two_doubles():
    # the registration is an ordinary frame: the register tag, then the
    # peer's [world size, rank] as two little-endian doubles
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = comm.TcpEndpoint(2, 3, listener.getsockname(), timeout=5.0)
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            got = conn.recv(comm._FRAME_HEADER.size + 16, socket.MSG_WAITALL)
        peer.close()
    assert got == (comm._FRAME_HEADER.pack(comm._TAG_REGISTER, 16)
                   + struct.pack("<2d", 3.0, 2.0))


def _registration(body, tag=comm._TAG_REGISTER):
    return comm._FRAME_HEADER.pack(tag, len(body)) + body


@pytest.mark.parametrize("size,frames,words", [
    (2, [_registration(struct.pack("<2d", 3, 1))],
     "world size mismatch: rank 0 expects 2 but a peer registering as "
     "rank 1 announced 3"),
    (3, [_registration(struct.pack("<2d", 3, 1))] * 2,
     "rank 1 registered twice at the rendezvous"),
    (2, [_registration(struct.pack("<2d", 2, 2))],
     "a peer registered as rank 2, outside the ranks 1..1 that rank 0 "
     "awaits"),
    (3, [_registration(struct.pack("<2d", 3, 0))],
     "a peer registered as rank 0, outside the ranks 1..2 that rank 0 "
     "awaits"),
    (2, [_registration(struct.pack("<2d", 2, 1.5))],
     "a peer registered as rank 1.5, outside the ranks 1..1 that rank 0 "
     "awaits"),
    (2, [_registration(struct.pack("<3d", 2, 1, 0))],
     "rank 0 expected a 16-byte registration frame, got tag 0xffff0001 "
     "with 24 bytes"),
    # the registration body of an older peer, which named no rank
    (2, [_registration(b'{"world": 2}')],
     "rank 0 expected a 16-byte registration frame, got tag 0xffff0001 "
     "with 12 bytes"),
    (2, [_registration(b"\xff" * 16)],
     "world size mismatch: rank 0 expects 2 but a peer registering as "
     "rank nan announced nan"),
    (2, [_registration(struct.pack("<2d", 2, 1), tag=0)],
     "rank 0 expected a 16-byte registration frame, got tag 0x0 with 16 "
     "bytes"),
], ids=["world-mismatch", "duplicate-rank", "rank-past-the-world",
        "rank-zero", "fractional-rank", "long-body", "json-body",
        "junk-body", "collective-tag"])
def test_rendezvous_refuses_a_malformed_registration(size, frames, words):
    # each frame comes from its own hand-written peer; rank 0 fails with
    # a CommError naming the fault, never a KeyError or ValueError
    addr = _free_addr()
    errors = []

    def rank0():
        try:
            comm.TcpEndpoint(0, size, addr, timeout=5.0).close()
        except Exception as exc:
            errors.append(exc)

    host = threading.Thread(target=rank0, daemon=True)
    host.start()
    peers = []
    for frame in frames:
        peers.append(comm._dial(addr, 5.0))
        peers[-1].sendall(frame)
    host.join(timeout=5.0)
    for peer in peers:
        peer.close()
    assert not host.is_alive()
    [exc] = errors
    assert type(exc) is CommError
    assert str(exc) == words
