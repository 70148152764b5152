"""One BLAS thread per rank while a distributed run is in progress.

Every rank already runs on its own core (a process over TCP, a thread in
process), so a BLAS pool with one thread per core on top of that runs
P x cores threads on the cores and slows every kernel. The pool is
reached through the library's own `*_set_num_threads`, found with ctypes
among the OpenBLAS builds this process has loaded. A thread count the
user chose with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS
is left alone.
"""

from __future__ import annotations

import ctypes
import os
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


def limit_blas_threads() -> list[tuple]:
    """Set every loaded pool to one thread unless the user chose a count.

    Returns (set, previous count) for each pool changed.
    """
    if _user_chose_threads():
        return []
    changed = []
    for get, put in _pools():
        changed.append((put, get()))
        put(1)
    return changed


@contextmanager
def one_blas_thread():
    """Hold the BLAS pools at one thread inside the block, then restore them."""
    global _holders, _saved
    with _lock:
        if _holders == 0:
            _saved = limit_blas_threads()
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
