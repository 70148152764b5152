"""Sum-allreduce over one flat float64 payload per collective.

Two transports share one collective schedule, a star: every rank other
than 0 sends its payload to rank 0 and receives the total back, one
message each way. Rank 0 adds the P parts in binomial-tree order
(((x0 + x1) + (x2 + x3)) + ...), a pure function of the world size, so
for fixed per-rank inputs the result is bit-identical on every rank, on
every run, and on both transports; the service reductions (setup sum,
e0, anls' and dadmm's stop test) lean on that. A collective may instead
name a finishing step: rank 0 alone applies it to the total and sends
back its result, which may be shorter than the total, so what the step
computes is the same on every rank by construction, however each host
rounds. Every solver's basis moves that way: did's reply is the moved B,
dbcd's is each column b_i in turn, and anls' and dadmm's is the B that
the exact NNLS solve gives on rank 0.

A caller packs everything one collective carries into a single array;
each star edge then moves exactly one message each way.

Each rank holds one object, its `CommWorld`: its rank, its counters and
its stream sockets, by peer rank. A world checks its rank, size and
timeout when it is built, before any socket opens, and it opens none
itself. Both transports send every message over a world's sockets; they
differ only in how those sockets are connected.

* in-process: every rank is a thread in one process, and
  `make_inprocess_worlds` gives rank 0 and each other rank the two ends
  of one `socket.socketpair()`. `run_ranks` starts a world's P rank
  threads, whatever connects them: each enters the world its `connect`
  gives it, runs the body, and leaves its result or its error by rank.
* tcp: one rank per process, connected by `make_tcp_world`. The
  rendezvous is the whole topology: rank 0 listens and keeps each
  peer's socket as that peer's edge; every other rank dials rank 0
  only, retrying a refused dial after one fixed short pause (a host
  name that does not resolve fails at once), opens no listener, and
  registers with a frame whose payload is the two doubles [world size,
  rank]. Rank 0 checks the frame's tag and length, then
  the world size and the rank, and raises `CommError` naming what is
  wrong.

On both, every message is one frame, [u32 tag][u64 byte length][payload
as float64], little-endian and written with one send. A collective's
frame carries its sequence number in the tag and moves the payload plus
12 bytes, and the payload is copied once on each side: into the frame on
send, out of the socket on receive, so no rank ever aliases another
rank's buffers. Each frame moves through one world method each way,
`CommWorld.send` and `CommWorld.recv`, and each raises every error its
frame can meet; a write gets the world's timeout, and a frame's reads
share one. A message carries no shape: the receiver knows which
collective it is in and how many doubles it expects, and it checks the
header against both before it reads any of the body, so a frame of
another collective or another length raises `CommError` naming both
ranks at once, with no wait and no buffer of the announced length. A
peer that closes at a frame boundary with nothing unread has left the
world, and a rank still waiting on it fails at once, naming it; one
that closes inside a frame has cut it short, and the rank reading it
fails at once too. A close with frames unread resets the connection, on
a socket pair as over TCP, and the rank that sees a reset or broken
connection raises `CommError` naming the peer it lost.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

# DMAT1 is the file format only; no collective encodes with it. The names
# stay in this module because tcpbench's trace wraps `comm.dmat_encode`
# and `comm.dmat_decode` by name (its `comm.codec_ms` now reads 0).
from .matrix import dmat_decode, dmat_encode  # noqa: F401

DEFAULT_TIMEOUT = 30.0
# the longest collective wait in seconds, within what every wait accepts
# (a selector refuses more than 2**31 - 1 ms)
MAX_TIMEOUT = 1e6

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
    including any doubles a solver appends to its own message or reply
    (did and dbcd carry each rank's residual up that way, and get the
    stopping residual and time-cap flag back);
    `service_calls` counts bookkeeping reductions (the setup collective,
    the initial residual, and the stopping check of solvers whose message
    cannot carry it), kept apart so communication-count assertions on the
    algorithms stay exact. `bytes_sent` is a cost model, not a wire
    count: (payload + reply) bytes times the ceil(log2 P) steps of a
    binomial tree's reduce and of its broadcast, identical on every rank
    and across transports; the reply is the total, or a finishing step's
    result. The star sends otherwise: each rank other than 0 sends one
    payload and receives one reply per collective and rank 0 P - 1 of
    each, every TCP frame with a 12-byte header. The two agree only at
    P = 2, where the model's payload + reply is what the pair of frames
    carries.
    """

    allreduce_calls: int = 0
    bytes_sent: int = 0
    comm_wall_time: float = 0.0
    service_calls: int = 0


def allreduce_sum(world: CommWorld, buf, service: bool = False, *,
                  finish=None, reply_size: int | None = None) -> np.ndarray:
    """Entrywise sum of every rank's float64 array, delivered to every rank.

    All ranks must call with arrays of the same size; a disagreement
    raises ``CommError`` naming both ranks involved. The input is never
    modified, and the sum comes back in the input's shape. With
    ``service=True`` the call is counted in `service_calls` instead of
    the algorithmic counters.

    With `finish`, rank 0 applies ``finish(total)`` to the flat total and
    every rank gets back its result, a flat array of `reply_size` doubles,
    in place of the total: the peers then never see the total, and what
    they install is what rank 0 computed. Each star edge still moves one
    frame each way, and on one rank `finish` runs locally. Its time on
    rank 0 is not counted as communication.
    """
    buf = np.array(buf, dtype="<f8", order="C")  # the wire's float64
    if buf.size == 0 or buf.ndim > 2:
        raise ValueError("an allreduce payload is a nonempty scalar, vector "
                         "or matrix")
    if (finish is None) != (reply_size is None):
        raise ValueError("a finishing step and its reply size come together")
    t0 = time.perf_counter()
    # the payload travels flat; on one rank the star sends and receives
    # nothing and returns the (already copied) payload, or its finish
    out, finish_s = _star_allreduce(world, buf.reshape(-1), finish,
                                    buf.size if finish is None else reply_size)
    stats = world.stats
    stats.comm_wall_time += time.perf_counter() - t0 - finish_s
    # ceil(log2 P) tree steps each way
    volume = (buf.nbytes + out.nbytes) * (world.size - 1).bit_length()
    if service:
        stats.service_calls += 1
    else:
        stats.allreduce_calls += 1
        stats.bytes_sent += volume
    return out if finish is not None else out.reshape(buf.shape)


def _star_allreduce(world: CommWorld, flat: np.ndarray, finish,
                    reply_size: int) -> tuple[np.ndarray, float]:
    """(the `reply_size` doubles every rank gets back, seconds rank 0
    spent in `finish`)."""
    seq = world._seq
    if seq >= _TAG_LIMIT:
        raise CommError("collective sequence space exhausted")
    world._seq += 1
    rank, size = world.rank, world.size
    if rank:
        world.send(0, seq, flat)
        return world.recv(0, seq, reply_size), 0.0
    parts = [flat] + [world.recv(peer, seq, flat.size) for peer in range(1, size)]
    # binomial-tree order: at step 1, 2, 4, ... part r takes in part
    # r + step, so the total is ((x0 + x1) + (x2 + x3)) + ... on every run
    step = 1
    while step < size:
        for r in range(0, size - step, 2 * step):
            parts[r] += parts[r + step]
        step <<= 1
    finish_s = 0.0
    if finish is not None:
        t0 = time.perf_counter()
        flat = np.asarray(finish(flat), dtype="<f8").reshape(-1)
        finish_s = time.perf_counter() - t0
        if flat.size != reply_size:
            raise ValueError(f"the finishing step gave {flat.size} doubles, "
                             f"not the {reply_size} of its reply")
    for peer in range(1, size):
        world.send(peer, seq, flat)
    return flat, finish_s


def _write_frame(conn: socket.socket, tag: int, body) -> None:
    # one send of header and body, which the join copies into one buffer
    conn.sendall(b"".join((_FRAME_HEADER.pack(tag, len(body)), body)))


def _lost(rank: int, peer: int, exc: OSError) -> CommError:
    """The error for a connection that reset or broke under a read or write."""
    return CommError(f"rank {rank} lost its connection to rank {peer} "
                     f"({type(exc).__name__}: {exc})")


def _nodelay(conn: socket.socket) -> socket.socket:
    # collectives exchange many small frames; never let Nagle batch them
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


# short beside a rank's startup, so a dial lands within 2 ms of rank 0
# listening, at the cost of at most 500 refused connects a second
_DIAL_PAUSE = 0.002


def _dial(addr, timeout: float):
    """Connect to `addr`, retrying failed attempts until `timeout`.

    A peer that is still starting up refuses the connection; each failed
    attempt is followed by one fixed `_DIAL_PAUSE`, so a peer that listens
    a moment later is reached within that pause. A host name that does
    not resolve raises `OSError` at once, naming host and port: no retry
    would reach it.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            return _nodelay(socket.create_connection(addr, timeout=min(1.0, timeout)))
        except socket.gaierror as exc:
            raise OSError(f"cannot resolve {addr[0]}:{addr[1]} "
                          f"({exc.strerror})") from None
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


class CommWorld:
    """One rank's handle on the collective fabric: its rank in a world of
    `size`, its stream sockets by peer rank (TCP connections or
    socket-pair ends; rank 0 holds one per peer, a peer one to rank 0),
    the timeout every frame gets, and its counters. It opens no socket;
    `make_tcp_world` and `make_inprocess_worlds` connect it."""

    def __init__(self, rank: int, size: int, conns: dict[int, socket.socket],
                 timeout: float = DEFAULT_TIMEOUT):
        if size < 1:
            raise ValueError("world size must be at least 1")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} outside world of size {size}")
        if not 0.0 < timeout <= MAX_TIMEOUT:
            raise ValueError(f"timeout must be positive and at most "
                             f"{MAX_TIMEOUT:g} s, not {timeout!r}")
        self.rank = rank
        self.size = size
        self.stats = CommStats()
        self._conns = conns
        self._timeout = timeout
        self._seq = 0

    def _rendezvous(self, address) -> None:
        """Accept the P-1 registrations, all within the world's timeout.

        The listener and every connection that has not registered yet are
        watched at once. Each such connection keeps the bytes of its
        registration frame received so far, and a ready one receives only
        what is ready, so a dial that stays silent, or sends part of a
        frame and stalls, holds no rank behind it. A frame's header is
        checked as soon as it is in. A connection that closes or resets
        before its registration frame is whole is dropped; the strays left
        once P-1 ranks have registered are closed.
        """
        deadline = time.monotonic() + self._timeout
        with socket.create_server(address, backlog=self.size) as listener, \
                selectors.DefaultSelector() as watch:
            watch.register(listener, selectors.EVENT_READ)
            try:
                while len(self._conns) < self.size - 1:
                    left = deadline - time.monotonic()
                    ready = watch.select(left) if left > 0 else []
                    if not ready:
                        missing = sorted(set(range(1, self.size)) - set(self._conns))
                        raise CommTimeoutError(
                            f"rank 0 timed out after {self._timeout:.1f}s at the "
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
                        peer = _registered_rank(frame, self.size, self._conns)
                        if peer is not None:
                            watch.unregister(conn)
                            self._conns[peer] = conn
            finally:
                for key in list(watch.get_map().values()):
                    if key.fileobj is not listener:
                        key.fileobj.close()

    def send(self, dst: int, tag: int, flat: np.ndarray) -> None:
        """Write the float64 array `flat` to rank `dst` as one frame tagged
        `tag`, within the world's timeout. A timeout, a reset or a
        broken connection raises `CommError` naming `dst`."""
        conn = self._conns[dst]
        # a read or a dial leaves its own timeout on the socket
        conn.settimeout(self._timeout)
        try:
            _write_frame(conn, tag, memoryview(flat).cast("B"))
        except socket.timeout:
            raise CommTimeoutError(
                f"rank {self.rank} timed out after {self._timeout:.1f}s "
                f"sending to rank {dst}") from None
        except OSError as exc:
            raise _lost(self.rank, dst, exc) from exc

    def recv(self, src: int, seq: int, size: int) -> np.ndarray:
        """The `size` doubles rank `src` sent for collective `seq`, the
        whole frame read within one timeout.

        The header is checked before any of the body is read: a tag other
        than `seq` (another collective's, or a control frame's) or a
        length other than `8 * size` raises `CommError` naming both ranks
        at once. Only then is the body read, straight into the float64
        array returned. A timeout, a reset, a broken connection or a close
        raises `CommError` naming `src`.
        """
        deadline = time.monotonic() + self._timeout
        tag, length = _FRAME_HEADER.unpack(self._read_exact(
            src, bytearray(_FRAME_HEADER.size), deadline, frame_start=True))
        if tag != seq:
            raise CommError(f"collective sequence mismatch: rank {self.rank} "
                            f"is at call {seq} but rank {src} sent call {tag}")
        if length != 8 * size:
            raise CommError(f"payload shape mismatch in collective {seq}: "
                            f"rank {self.rank} expects {size} doubles but "
                            f"rank {src} sent {length} bytes")
        return self._read_exact(src, np.empty(size, dtype="<f8"), deadline)

    def _read_exact(self, src: int, buf, deadline: float, frame_start=False):
        """Fill the buffer `buf` from rank `src` by `deadline` and return
        it. A close before the first byte of a frame is a departure; any
        other is mid-frame."""
        conn, view = self._conns[src], memoryview(buf).cast("B")
        got = 0
        while got < len(view):
            left = deadline - time.monotonic()
            try:
                if left <= 0:
                    raise socket.timeout
                conn.settimeout(left)
                count = conn.recv_into(view[got:])
            except socket.timeout:
                raise CommTimeoutError(
                    f"rank {self.rank} timed out after {self._timeout:.1f}s "
                    f"waiting for rank {src}") from None
            except OSError as exc:
                raise _lost(self.rank, src, exc) from exc
            if not count:
                if frame_start and not got:
                    raise CommError(f"rank {src} left the world while rank "
                                    f"{self.rank} was waiting for it")
                raise CommError(f"rank {src} closed its connection to rank "
                                f"{self.rank} mid-frame")
            got += count
        return buf

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# the rank object's old name: tcpbench's trace wraps `comm.TcpEndpoint.recv`
TcpEndpoint = CommWorld


def make_tcp_world(rank: int, size: int, address,
                   timeout: float = DEFAULT_TIMEOUT) -> CommWorld:
    """Join (or host, for rank 0) a TCP world at `address` = (host, port).

    The world is built first, so a bad rank, size or timeout is refused
    before any socket opens. Rank 0 of a larger world then holds the
    rendezvous, and every other rank dials rank 0 and registers; on any
    error the world is closed."""
    world = CommWorld(rank, size, {}, timeout)
    try:
        if rank:
            world._conns[0] = _dial(address, timeout)
            # the same 16 bytes as `_REGISTRATION.pack(size, rank)`
            world.send(0, _TAG_REGISTER, np.array([size, rank], "<f8"))
        elif size > 1:
            world._rendezvous(address)
    except BaseException:
        world.close()
        raise
    return world


def make_inprocess_worlds(size: int, timeout: float = DEFAULT_TIMEOUT) -> list[CommWorld]:
    """Build P thread-side CommWorlds joined by one socket pair per star
    edge, rank 0 to each other rank; a one-rank world opens no socket."""
    # rank 0's world checks the size and timeout before any socket opens
    worlds = [CommWorld(0, size, {}, timeout)]
    for r in range(1, size):
        worlds[0]._conns[r], end = socket.socketpair()
        worlds.append(CommWorld(r, size, {0: end}, timeout))
    return worlds


def run_ranks(size: int, connect, body) -> tuple[list, list]:
    """Run the `size` ranks of one world at once, one thread per rank
    named nmf-rank<r>: each runs `body(world)` inside `with connect(r) as
    world:`, so its world is closed when it ends. Return (results,
    errors), each a list by rank: what `body` returned, and the exception
    the rank raised, None where it raised none. Every wait on a peer is
    bounded by the world's timeout, and a solve by its `max_time`, so
    the threads are joined without a timeout of their own."""
    results: list = [None] * size
    errors: list = [None] * size

    def rank(r: int) -> None:
        try:
            with connect(r) as world:
                results[r] = body(world)
        except BaseException as exc:
            errors[r] = exc

    threads = [threading.Thread(target=rank, args=(r,), name=f"nmf-rank{r}")
               for r in range(size)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors
