"""Sum-allreduce over one flat float64 payload per collective.

Two transports share one collective schedule, a star: every rank other
than 0 sends its payload to rank 0 and receives the total back, one
message each way. Rank 0 adds the P parts in binomial-tree order
(((x0 + x1) + (x2 + x3)) + ...), a pure function of the world size, so
for fixed per-rank inputs the result is bit-identical on every rank, on
every run, and on both transports. The distributed solvers lean on that
to keep replicated state exactly synchronized.

A caller packs everything one collective carries into a single array;
each star edge then moves exactly one message each way.

Transports: one endpoint, `TcpEndpoint`, carries every message of both
over stream sockets; they differ only in how its sockets are connected.

* in-process: every rank is a thread in one process, and
  `make_inprocess_worlds` gives rank 0 and each other rank the two ends
  of one `socket.socketpair()`.
* tcp: one rank per process. The rendezvous is the whole topology: rank
  0 listens and keeps each peer's socket as that peer's edge; every
  other rank dials rank 0 only, retrying a refused dial after one fixed
  short pause, opens no listener, and registers with a frame whose
  payload is the two doubles [world size, rank]. Rank 0 checks the
  frame's tag and length, then the world size and the rank, and raises
  `CommError` naming what is wrong.

On both, every message is one frame, [u32 tag][u64 byte length][payload
as float64], little-endian and written with one send. A collective's
frame carries its sequence number in the tag and moves the payload plus
12 bytes, and the payload is copied once on each side: into the frame on
send, out of the socket on receive, so no rank ever aliases another
rank's buffers. Each endpoint owns its timeout and gives it to every
read and write. A message carries no shape: the receiver knows how many
doubles it expects, and a body of any other length raises `CommError`
naming both ranks. A peer that closes at a frame boundary with nothing
unread has left the world, and a rank still waiting on it fails at once,
naming it. A close with frames unread resets the connection, on a socket
pair as over TCP, and the rank that sees a reset or broken connection
raises `CommError` naming the peer it lost.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from dataclasses import dataclass

import numpy as np

# DMAT1 is the file format only; no collective encodes with it. The names
# stay in this module because tcpbench's trace wraps `comm.dmat_encode`
# and `comm.dmat_decode` by name (its `comm.codec_ms` now reads 0).
from .matrix import dmat_decode, dmat_encode  # noqa: F401

DEFAULT_TIMEOUT = 30.0

_FRAME_HEADER = struct.Struct("<IQ")
_REGISTRATION = struct.Struct("<2d")  # a peer's [world size, rank]
_REGISTERED = _FRAME_HEADER.size + _REGISTRATION.size  # a whole registration
_TAG_REGISTER = 0xFFFF0001
_TAG_LIMIT = 0xFFFF0000  # collective sequence numbers stay below this


class CommError(RuntimeError):
    """Protocol violation or lost peer inside a collective."""


class CommTimeoutError(CommError):
    """A peer failed to produce data within the collective timeout."""


@dataclass
class CommStats:
    """Per-rank instrumentation counters.

    `allreduce_calls` and `bytes_sent` count the algorithmic collectives,
    including any doubles a solver appends to its own message (did and
    dbcd carry their stopping residual and time-cap flag that way); the
    `service_*` pair counts bookkeeping reductions (the setup collective,
    the initial residual, and the stopping check of solvers whose message
    cannot carry it), kept apart so communication-count assertions on the
    algorithms stay exact. `bytes_sent` is a cost model, not a wire
    count: payload bytes times the 2 * ceil(log2 P) steps of a binomial
    tree's reduce and broadcast, identical on every rank and across
    transports. The star sends otherwise: each rank other than 0 sends
    and receives one payload per collective and rank 0 P - 1 of each,
    every TCP frame with a 12-byte header. The two agree only at P = 2,
    where the model's 2 * payload is what the pair of frames carries.
    """

    allreduce_calls: int = 0
    bytes_sent: int = 0
    comm_wall_time: float = 0.0
    service_calls: int = 0
    service_bytes: int = 0


class CommWorld:
    """One rank's handle on the collective fabric."""

    def __init__(self, rank: int, size: int, endpoint):
        if size < 1:
            raise ValueError("world size must be at least 1")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} outside world of size {size}")
        self.rank = rank
        self.size = size
        self.stats = CommStats()
        self._endpoint = endpoint
        self._seq = 0

    def close(self) -> None:
        self._endpoint.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def allreduce_sum(world: CommWorld, buf, service: bool = False) -> np.ndarray:
    """Entrywise sum of every rank's float64 array, delivered to every rank.

    All ranks must call with arrays of the same size; a disagreement
    raises ``CommError`` naming both ranks involved. The input is never
    modified, and the sum comes back in the input's shape. With
    ``service=True`` the call is accounted under the service counters
    instead of the algorithmic ones.
    """
    buf = np.array(buf, dtype="<f8", order="C")  # the wire's float64
    if buf.size == 0 or buf.ndim > 2:
        raise ValueError("an allreduce payload is a nonempty scalar, vector "
                         "or matrix")
    t0 = time.perf_counter()
    # the payload travels flat; on one rank the star sends and receives
    # nothing and returns the (already copied) payload
    out = _star_allreduce(world, buf.reshape(-1))
    stats = world.stats
    stats.comm_wall_time += time.perf_counter() - t0
    volume = out.nbytes * 2 * (world.size - 1).bit_length()  # ceil(log2 P)
    if service:
        stats.service_calls += 1
        stats.service_bytes += volume
    else:
        stats.allreduce_calls += 1
        stats.bytes_sent += volume
    return out.reshape(buf.shape)


def _star_allreduce(world: CommWorld, flat: np.ndarray) -> np.ndarray:
    seq = world._seq
    if seq >= _TAG_LIMIT:
        raise CommError("collective sequence space exhausted")
    world._seq += 1
    rank, size, ep = world.rank, world.size, world._endpoint
    if rank:
        ep.send(0, seq, flat)
        return _checked_recv(world, 0, seq, flat.size)
    parts = [flat] + [_checked_recv(world, peer, seq, flat.size)
                      for peer in range(1, size)]
    # binomial-tree order: at step 1, 2, 4, ... part r takes in part
    # r + step, so the total is ((x0 + x1) + (x2 + x3)) + ... on every run
    step = 1
    while step < size:
        for r in range(0, size - step, 2 * step):
            parts[r] += parts[r + step]
        step <<= 1
    for peer in range(1, size):
        ep.send(peer, seq, flat)
    return flat


def _checked_recv(world: CommWorld, src: int, seq: int, size: int) -> np.ndarray:
    """The payload of `size` doubles that rank `src` sent for call `seq`."""
    got_seq, body = world._endpoint.recv(src)
    if got_seq != seq:
        raise CommError(
            f"collective sequence mismatch: rank {world.rank} is at call "
            f"{seq} but rank {src} sent call {got_seq}")
    if len(body) != 8 * size:
        raise CommError(
            f"payload shape mismatch in collective {seq}: rank {world.rank} "
            f"expects {size} doubles but rank {src} sent {len(body)} bytes")
    return body.view("<f8")


def _write_frame(conn: socket.socket, tag: int, body) -> None:
    # one send of header and body, which the join copies into one buffer
    conn.sendall(b"".join((_FRAME_HEADER.pack(tag, len(body)), body)))


def _left(rank: int, peer: int) -> CommError:
    """The error for a peer that closed its end between messages."""
    return CommError(f"rank {peer} left the world while rank {rank} was "
                     f"waiting for it")


def _lost(rank: int, peer: int, exc: OSError) -> CommError:
    """The error for a connection that reset or broke under a read or write."""
    return CommError(f"rank {rank} lost its connection to rank {peer} "
                     f"({type(exc).__name__}: {exc})")


def _read_exact(conn: socket.socket, n: int, deadline: float, timeout: float,
                rank: int, peer: int, frame_start: bool = False) -> np.ndarray:
    """n bytes, read straight into the one uint8 array returned."""
    try:
        buf = np.empty(n, dtype=np.uint8)
    except MemoryError:  # a corrupt or foreign frame header
        raise CommError(f"rank {rank} cannot hold the {n}-byte frame rank "
                        f"{peer} announced") from None
    got = 0
    while got < n:
        left = deadline - time.monotonic()
        try:
            if left <= 0:
                raise socket.timeout
            conn.settimeout(left)
            count = conn.recv_into(buf[got:])
        except socket.timeout:
            raise CommTimeoutError(
                f"rank {rank} timed out after {timeout:.1f}s waiting for "
                f"rank {peer}") from None
        except OSError as exc:
            raise _lost(rank, peer, exc) from exc
        if not count:
            if frame_start and not got:
                raise _left(rank, peer)
            raise CommError(
                f"rank {peer} closed its connection to rank {rank} mid-frame")
        got += count
    return buf


def _read_frame(conn: socket.socket, timeout: float, rank: int, peer: int):
    """One whole frame, header and body, within one `timeout`."""
    deadline = time.monotonic() + timeout
    head = _read_exact(conn, _FRAME_HEADER.size, deadline, timeout, rank,
                       peer, True)
    tag, length = _FRAME_HEADER.unpack(head)
    body = _read_exact(conn, length, deadline, timeout, rank, peer)
    return tag, body


def _nodelay(conn: socket.socket) -> socket.socket:
    # collectives exchange many small frames; never let Nagle batch them
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


# short beside a rank's startup, so a dial lands within 2 ms of rank 0
# listening, at the cost of at most 500 refused connects a second
_DIAL_PAUSE = 0.002


def _dial(addr, timeout: float):
    """Connect to `addr`, retrying refused attempts until `timeout`.

    A peer that is still starting up refuses the connection; each refused
    attempt is followed by one fixed `_DIAL_PAUSE`, so a peer that listens
    a moment later is reached within that pause.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            return _nodelay(socket.create_connection(addr, timeout=min(1.0, timeout)))
        except OSError:
            if time.monotonic() >= deadline:
                raise CommTimeoutError(
                    f"could not reach {addr[0]}:{addr[1]} within "
                    f"{timeout:.1f}s") from None
            time.sleep(_DIAL_PAUSE)


def _registered_rank(frame: bytearray, size: int, registered) -> int | None:
    """The rank a registration frame names, checked against the world's
    size and the ranks already `registered`; None while `frame` holds
    only part of it. Its header is checked as soon as it is in."""
    if len(frame) < _FRAME_HEADER.size:
        return None
    tag, length = _FRAME_HEADER.unpack_from(frame)
    if tag != _TAG_REGISTER or length != _REGISTRATION.size:
        raise CommError(
            f"rank 0 expected a {_REGISTRATION.size}-byte registration "
            f"frame, got tag {tag:#x} with {length} bytes")
    if len(frame) < _REGISTERED:
        return None
    world, rank = _REGISTRATION.unpack_from(frame, _FRAME_HEADER.size)
    if world != size:
        raise CommError(f"world size mismatch: rank 0 expects {size} but "
                        f"a peer registering as rank {rank:g} announced {world:g}")
    if rank not in range(1, size):  # a fraction or NaN equals no rank
        raise CommError(f"a peer registered as rank {rank:g}, outside the "
                        f"ranks 1..{size - 1} that rank 0 awaits")
    if rank in registered:
        raise CommError(f"rank {rank:g} registered twice at the rendezvous")
    return int(rank)


class TcpEndpoint:
    """One rank's stream sockets, TCP connections or socket-pair ends:
    rank 0 holds one per peer, a peer one to rank 0."""

    def __init__(self, rank: int, size: int, address, timeout: float = DEFAULT_TIMEOUT):
        self.rank = rank
        self._timeout = timeout
        self._conns: dict[int, socket.socket] = {}
        if size == 1:
            return
        try:
            if rank == 0:
                self._rendezvous(size, address, timeout)
            else:
                self._conns[0] = _dial(address, timeout)
                self._write(0, _TAG_REGISTER, _REGISTRATION.pack(size, rank))
        except BaseException:
            self.close()
            raise

    def _rendezvous(self, size: int, address, timeout: float) -> None:
        """Accept the P-1 registrations, all within one `timeout`.

        The listener and every connection that has not registered yet are
        watched at once. Each such connection keeps the bytes of its
        registration frame received so far, and a ready one receives only
        what is ready, so a dial that stays silent, or sends part of a
        frame and stalls, holds no rank behind it. A frame's header is
        checked as soon as it is in. A connection that closes or resets
        before its registration frame is whole is dropped; the strays left
        once P-1 ranks have registered are closed.
        """
        deadline = time.monotonic() + timeout
        with socket.create_server(address, backlog=size) as listener, \
                selectors.DefaultSelector() as watch:
            watch.register(listener, selectors.EVENT_READ)
            try:
                while len(self._conns) < size - 1:
                    left = deadline - time.monotonic()
                    ready = watch.select(left) if left > 0 else []
                    if not ready:
                        missing = sorted(set(range(1, size)) - set(self._conns))
                        raise CommTimeoutError(
                            f"rank 0 timed out after {timeout:.1f}s at the "
                            f"rendezvous: rank(s) {missing} never registered")
                    for key, _ in ready:
                        conn, frame = key.fileobj, key.data
                        if conn is listener:
                            watch.register(_nodelay(listener.accept()[0]),
                                           selectors.EVENT_READ, bytearray())
                            continue
                        try:
                            chunk = conn.recv(_REGISTERED - len(frame))
                        except OSError:
                            chunk = b""
                        if not chunk:
                            # closed or reset before its frame was whole:
                            # it never named a rank, so drop it
                            watch.unregister(conn)
                            conn.close()
                            continue
                        frame += chunk
                        peer = _registered_rank(frame, size, self._conns)
                        if peer is not None:
                            watch.unregister(conn)
                            self._conns[peer] = conn
            finally:
                for key in list(watch.get_map().values()):
                    if key.fileobj is not listener:
                        key.fileobj.close()

    def _write(self, dst: int, tag: int, body: bytes) -> None:
        # a read or a dial leaves its own timeout on the socket
        self._conns[dst].settimeout(self._timeout)
        try:
            _write_frame(self._conns[dst], tag, body)
        except socket.timeout:
            raise CommTimeoutError(
                f"rank {self.rank} timed out after {self._timeout:.1f}s "
                f"sending to rank {dst}") from None
        except OSError as exc:
            raise _lost(self.rank, dst, exc) from exc

    def send(self, dst: int, seq: int, flat: np.ndarray) -> None:
        self._write(dst, seq, memoryview(flat).cast("B"))

    def recv(self, src: int):
        # a control frame's tag is no collective's sequence number, so
        # `_checked_recv` rejects one as a sequence mismatch
        return _read_frame(self._conns[src], self._timeout, self.rank, src)

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()


def make_tcp_world(rank: int, size: int, address,
                   timeout: float = DEFAULT_TIMEOUT) -> CommWorld:
    """Join (or host, for rank 0) a TCP world at `address` = (host, port)."""
    return CommWorld(rank, size, TcpEndpoint(rank, size, address, timeout))


def make_inprocess_worlds(size: int, timeout: float = DEFAULT_TIMEOUT) -> list[CommWorld]:
    """Build P thread-side CommWorlds joined by one socket pair per star
    edge, rank 0 to each other rank; a one-rank world opens no socket."""
    # an endpoint of a one-rank world makes no rendezvous: the pairs are
    # its edges
    endpoints = [TcpEndpoint(r, 1, None, timeout) for r in range(size)]
    for r in range(1, size):
        endpoints[0]._conns[r], endpoints[r]._conns[0] = socket.socketpair()
    return [CommWorld(r, size, ep) for r, ep in enumerate(endpoints)]
