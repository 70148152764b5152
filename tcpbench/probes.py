"""Probes installed into a rank process from outside the package.

Each probe replaces a name in the module that looks it up (for example
`distributed.allreduce_sum`, which is the worker's algorithmic collective,
against `harness.allreduce_sum`, which is the service reduction), so the
package's code is never edited. Two sets exist:

* light probes, always on: the entry time of every iteration, the
  worker's return, e0, algorithmic collective calls, and every buffer
  handed to a socket's `sendall`, split into frames, headers and payload;
* trace probes (`trace=True`): a timed span around every public function
  of each layer, with self time (span minus child spans) accumulated per
  iteration.

Everything is kept in memory and written once, when the rank finishes.
"""

from __future__ import annotations

import socket
import struct
import time

_FRAME = struct.Struct("<IQ")
_DMAT_HEADER_BYTES = 24
_CONTROL_TAGS = 0xFFFF0000

# (module, name) pairs timed by the trace, keyed by the span name used in
# the report. Worker iterations are timed by their light probe.
TRACED = (
    ("harness", "load_matrix"),
    ("harness", "init_factors"),
    ("harness", "make_tcp_world"),
    ("harness", "frob_norm_sq"),
    ("harness", "allreduce_sum"),
    ("distributed", "did_c_phase"),
    ("distributed", "did_build_message"),
    ("distributed", "did_update_basis"),
    ("distributed", "c_rowwise_sweep"),
    ("distributed", "b_column_partials"),
    ("distributed", "b_column_apply"),
    ("distributed", "allreduce_sum"),
    ("comm", "dmat_encode"),
    ("comm", "dmat_decode"),
)
WORKERS = ("did_worker_iterate", "dbcd_worker_iterate")


class Probes:
    def __init__(self, trace: bool):
        self.trace = trace
        self.iter_starts: list[float] = []
        self.worker_return = None
        self.e0 = None
        self.metrics = None
        self.alg_calls = 0
        self.frames = 0
        self.wire_bytes = 0
        self.payload = {"alg": 0, "service": 0}
        self._in_alg = False
        # trace state: open spans as [name, start, child time]
        self._stack: list[list] = []
        self.per_iter: dict[str, list[float]] = {}
        self.once: dict[str, float] = {}

    # -- light probes -------------------------------------------------

    def install(self, cli, harness, distributed, comm) -> None:
        for name in WORKERS:
            setattr(harness, name, self._worker(getattr(harness, name), name))
        harness._distributed_worker = self._loop(harness._distributed_worker)
        harness._reduce_progress = self._first_progress(harness, harness._reduce_progress)
        distributed.allreduce_sum = self._alg_allreduce(distributed.allreduce_sum)
        cli.run = self._capture_run(cli.run)
        socket.socket.sendall = self._sendall(socket.socket.sendall)
        if self.trace:
            mods = {"harness": harness, "distributed": distributed, "comm": comm}
            for mod, name in TRACED:
                setattr(mods[mod], name,
                        self._span(getattr(mods[mod], name), f"{mod}.{name}"))
            comm.TcpEndpoint.recv = self._span(comm.TcpEndpoint.recv,
                                               "comm.TcpEndpoint.recv")

    def _in_window(self) -> bool:
        return bool(self.iter_starts) and self.worker_return is None

    def _worker(self, fn, name):
        def worker(*args, **kwargs):
            self.iter_starts.append(time.monotonic())
            if not self.trace:
                return fn(*args, **kwargs)
            return self._timed(fn, f"distributed.{name}", args, kwargs)
        return worker

    def _loop(self, fn):
        def distributed_worker(*args, **kwargs):
            if self.trace:
                out = self._timed(fn, "harness._distributed_worker", args, kwargs)
            else:
                out = fn(*args, **kwargs)
            self.worker_return = time.monotonic()
            return out
        return distributed_worker

    def _first_progress(self, harness, fn):
        def reduce_progress(*args, **kwargs):
            out = fn(*args, **kwargs)
            harness._reduce_progress = fn  # only the e0 reduction is wanted
            self.e0 = repr(out[0])
            return out
        return reduce_progress

    def _alg_allreduce(self, fn):
        def allreduce_sum(*args, **kwargs):
            if self._in_window():
                self.alg_calls += 1
            self._in_alg = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_alg = False
        return allreduce_sum

    def _capture_run(self, fn):
        def run(*args, **kwargs):
            self.metrics = fn(*args, **kwargs)
            return self.metrics
        return run

    def _sendall(self, fn):
        def sendall(sock, data, *rest):
            if self._in_window() and len(data) >= _FRAME.size:
                tag, length = _FRAME.unpack_from(data)
                if tag < _CONTROL_TAGS:
                    self.frames += 1
                    self.wire_bytes += len(data)
                    body = bytes(data[_FRAME.size:_FRAME.size + 4])
                    head = _DMAT_HEADER_BYTES if body == b"DMAT" else 0
                    self.payload["alg" if self._in_alg else "service"] += length - head
            return fn(sock, data, *rest)
        return sendall

    # -- trace probes -------------------------------------------------

    def _span(self, fn, name):
        def span(*args, **kwargs):
            return self._timed(fn, name, args, kwargs)
        return span

    def _timed(self, fn, name, args, kwargs):
        frame = [name, time.monotonic(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.monotonic() - frame[1]
            self._stack.pop()
            if self._stack:
                parent = self._stack[-1]
                parent[2] += dur
                if parent[0] == "harness._distributed_worker":
                    self._add("loop_children", dur)
            self._add(f"{name}.total", dur)
            self._add(f"{name}.self", dur - frame[2])
            self._add(f"{name}.calls", 1)

    def _add(self, key: str, value: float) -> None:
        if not self._in_window():
            self.once[key] = self.once.get(key, 0.0) + value
            return
        t = len(self.iter_starts) - 1
        acc = self.per_iter.setdefault(key, [])
        acc.extend([0.0] * (t + 1 - len(acc)))
        acc[t] += value

    def report(self) -> dict:
        m = self.metrics
        out = {
            "iter_starts": self.iter_starts,
            "worker_return": self.worker_return,
            "e0": self.e0,
            "residuals": [repr(r.residual_sq) for r in m.rows] if m else [],
            "alg_calls": self.alg_calls,
            "frames": self.frames,
            "wire_bytes": self.wire_bytes,
            "payload": self.payload,
        }
        if self.trace:
            n = len(self.iter_starts)
            out["per_iter"] = {k: v + [0.0] * (n - len(v))
                               for k, v in self.per_iter.items()}
            out["once"] = self.once
        return out
