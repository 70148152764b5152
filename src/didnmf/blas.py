"""One BLAS thread per rank: from numpy's load under `nmf`, and for the
length of a run under any caller.

Every rank already runs on its own core (a process over TCP, a thread in
process), so a BLAS pool with one thread per core on top of that runs
P x cores threads on the cores and slows every kernel. OpenBLAS sizes
its pool once, when numpy loads it, and a pool started at the core count
spins its extra thread through the rank's imports and setup before it
sleeps. So every `nmf` process (`run` on either transport, `synth`,
`convert`) loads numpy through `import_numpy_on_one_thread`. A library
caller that loaded numpy first keeps its pool; `one_blas_thread` holds
it at one thread while any rank runs (from its connect to its last
iteration, see `harness._rank_run`), through the library's own
`*_set_num_threads`, found with ctypes among the OpenBLAS builds this
process has loaded. A thread count the user chose with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is left alone.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (get, set) symbol pairs: numpy's and scipy's bundled builds, then plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The pool is process-wide, so the count of runs holding it at one thread
# is too; the last run to leave restores the count the first one found.
_lock = threading.Lock()
_holders = 0
_saved: list[tuple] = []


def _pools() -> list[tuple]:
    """(get, set) ctypes functions of every loaded OpenBLAS, or none."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return []
    pools = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(dll, get_name, None)
            put = getattr(dll, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


def blas_threads() -> int | None:
    """Thread count of the first loaded OpenBLAS pool, or None."""
    pools = _pools()
    return pools[0][0]() if pools else None


def _user_chose_threads() -> bool:
    return any(os.environ.get(name) for name in BLAS_ENV_VARS)


def import_numpy_on_one_thread() -> None:
    """Import numpy with its OpenBLAS pool sized at one thread.

    OPENBLAS_NUM_THREADS=1 is set for the import only, so child processes
    and later readers of the environment do not see it. Does nothing if
    numpy is already loaded or the user chose a thread count.
    """
    if "numpy" in sys.modules or _user_chose_threads():
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


@contextmanager
def one_blas_thread():
    """Hold the BLAS pools at one thread inside the block, then restore them.

    Does nothing to the pools if the user chose a thread count.
    """
    global _holders, _saved
    with _lock:
        if _holders == 0 and not _user_chose_threads():
            _saved = [(put, get()) for get, put in _pools()]
            for put, _ in _saved:
                put(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for put, count in _saved:
                    put(count)
                _saved = []
