import os
import subprocess
import sys
import threading

import pytest

from didnmf import blas, harness
from didnmf.harness import RunConfig, run, synth_lowrank
from helpers import free_addr

needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="no OpenBLAS pool loaded in this process")

# one TCP rank in a world of one, entered like the console script; prints
# the pool's thread count once the run has returned
RANK_SCRIPT = """
import sys
from didnmf import blas, cli
cli.main(sys.argv[1:])
print("blas_threads", blas.blas_threads())
"""


def fresh_python(code: str, *args: str, **env_extra) -> str:
    """Last line that `python -c code args` prints, run in a fresh
    interpreter with no BLAS thread variable set unless given."""
    env = {k: v for k, v in os.environ.items() if k not in blas.BLAS_ENV_VARS}
    env.update(env_extra)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.splitlines()[-1]


def tcp_rank_threads(**env_extra) -> str:
    return fresh_python(
        RANK_SCRIPT, "run", "--alg", "did", "--p", "1", "--m", "5", "--n",
        "60", "--k", "2", "--max-iters", "3", "--transport", "tcp",
        NMF_ADDR="%s:%d" % free_addr(), NMF_RANK="0", NMF_WORLD="1",
        **env_extra)


@pytest.fixture
def pools_at_two(monkeypatch):
    """No thread variable set, every pool at 2 threads; restored afterwards."""
    for name in blas.BLAS_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    pools = blas._pools()
    before = [(put, get()) for get, put in pools]
    for _, put in pools:
        put(2)
    yield
    for put, count in before:
        put(count)


@needs_openblas
def test_tcp_rank_runs_one_blas_thread():
    assert tcp_rank_threads() == "blas_threads 1"


@needs_openblas
def test_tcp_rank_honors_explicit_thread_count():
    assert tcp_rank_threads(OPENBLAS_NUM_THREADS="2") == "blas_threads 2"


@needs_openblas
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux /proc for a process's thread count")
def test_cli_import_starts_the_pool_at_one_thread():
    # OpenBLAS sizes its pool when numpy loads it; a pool started at the
    # core count runs an extra OS thread that spins through setup
    got = fresh_python("""
import os
import didnmf.cli
from didnmf import blas
with open("/proc/self/status") as f:
    threads = next(line.split()[1] for line in f if line.startswith("Threads:"))
print(threads, blas.blas_threads(), "OPENBLAS_NUM_THREADS" in os.environ)
""")
    assert got == "1 1 False"


def test_package_import_loads_no_numpy():
    got = fresh_python("""
import sys
import didnmf
loaded = "numpy" in sys.modules
from didnmf import RunConfig, run, synth_lowrank
print(loaded, RunConfig.__module__, run.__name__, synth_lowrank(2, 3, 1, 0).shape)
""")
    assert got == "False didnmf.harness run (2, 3)"


@needs_openblas
def test_cli_import_keeps_the_pool_of_a_caller_that_loaded_numpy_first():
    got = fresh_python("""
import numpy
from didnmf import blas
before = blas.blas_threads()
import didnmf.cli
print(before, blas.blas_threads())
""")
    before, after = got.split()
    assert after == before


@needs_openblas
def test_in_process_run_restores_callers_thread_count(pools_at_two, monkeypatch):
    seen = []
    worker = harness.did_worker_iterate

    def spy(*args):
        seen.append(blas.blas_threads())
        return worker(*args)

    monkeypatch.setattr(harness, "did_worker_iterate", spy)
    run(RunConfig(algorithm="did", m=5, n=40, k=2, p=2, max_iters=3,
                  epsilon=1e-30), X=synth_lowrank(5, 40, 2, 0))
    assert seen and set(seen) == {1}
    assert blas.blas_threads() == 2


@needs_openblas
def test_overlapping_runs_restore_once_the_last_leaves(pools_at_two):
    # more holders than cores, switching often: the pool stays at one
    # thread while any holder is inside and returns to 2 after the last
    inside = []
    start = threading.Barrier(6)

    def hold():
        start.wait(timeout=10)
        for _ in range(50):
            with blas.one_blas_thread():
                inside.append(blas.blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(inside) == 300 and set(inside) == {1}
    assert blas.blas_threads() == 2
