"""End-to-end run harness: data synthesis, initialization, run loop, metrics.

`run(config)` executes one algorithm until the stopping criterion
||E_t||_F^2 <= eps * ||E_0||_F^2 or an iteration/time cap, and returns
per-iteration metrics. Every algorithm is a step
`(world, block, B, state, deadline) -> (||X - B C||^2, skipped,
over_time)` driven by the one loop in `_distributed_worker`; the step
returns the residual summed over all ranks and the time-cap flag of any
rank, so the loop makes no collective of its own after e0. Sequential
algorithms run on a one-rank world (bcd is dbcd there), distributed ones
on P ranks. Ranks run as threads of one process, joined by socket
pairs, or, for every algorithm alike, one per process over TCP (driven
by `run_tcp_rank` or the NMF_RANK/NMF_WORLD/NMF_ADDR environment); both
send the same frames through the same `comm.TcpEndpoint`. On both
transports a rank's whole life is `_rank_run`: it reads or draws only
its own columns of X and C (no rank ever holds the whole matrix; a CSV
file is converted to DMAT1 first, with `nmf convert`), holds its world
and the BLAS pool from connect to its last iteration, and on rank 0
writes the CSV. `run`, `run_tcp_rank` and `_run_inprocess` only
validate, choose the connection and start the ranks.
Every stop decision is made from allreduced quantities so all ranks
always take the same branch.
"""

from __future__ import annotations

import csv
import math
import os
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .blas import one_blas_thread
from .comm import (
    CommError,
    allreduce_sum,
    make_inprocess_worlds,
    make_tcp_world,
)
from .distributed import (
    DadmmWorkerState,
    dadmm_worker_iterate,
    dbcd_worker_iterate,
    did_worker_iterate,
)
from .kernels import anls_iterate, reduce_progress, residual_sq
from .matrix import (
    ColumnBlock,
    as_matrix,
    frob_norm_sq,
    partition_columns,
    read_csv_matrix,
    read_dmat,
    read_dmat_shape,
)

SEQUENTIAL_ALGS = ("bcd", "anls")
DISTRIBUTED_ALGS = ("dadmm", "dbcd", "did")
ALGORITHMS = SEQUENTIAL_ALGS + DISTRIBUTED_ALGS
TRANSPORTS = ("in-process", "tcp")
# the longest collective wait in seconds, within what every wait accepts
# (a selector refuses more than 2**31 - 1 ms)
MAX_COMM_TIMEOUT = 1e6

# the metrics CSV's column names, for IterRow's first fields in order
CSV_HEADER = ("iter", "objective", "residual_sq", "allreduce_calls",
              "bytes", "compute_s", "comm_s")


@dataclass
class RunConfig:
    """Everything needed to reproduce one run."""

    algorithm: str
    m: int = 0
    n: int = 0
    k: int = 1
    p: int = 1
    epsilon: float = 1e-6
    max_iters: int = 1000
    max_time: float = 600.0
    rho: float = 1.0
    seed: int = 0
    transport: str = "in-process"
    input_path: str | None = None
    out_path: str | None = None
    tcp_address: tuple[str, int] = ("127.0.0.1", 29500)
    comm_timeout: float = 30.0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose one of {ALGORITHMS}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.input_path is None and (self.m < 1 or self.n < 1):
            raise ValueError("need positive m and n (or an input file)")
        if self.input_path is not None and self.input_path.endswith(".csv"):
            raise ValueError(
                f"{self.input_path} is CSV, which a rank cannot read by "
                "columns; write it as DMAT1 first with `nmf convert`")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.algorithm in SEQUENTIAL_ALGS and self.p != 1:
            raise ValueError(f"{self.algorithm} is sequential; use p=1")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.max_time > 0.0:
            raise ValueError("max_time must be positive")
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, not {self.rho!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed!r}")
        if not 0.0 < self.comm_timeout <= MAX_COMM_TIMEOUT:
            raise ValueError(f"comm_timeout must be positive and at most "
                             f"{MAX_COMM_TIMEOUT:g} s, not {self.comm_timeout!r}")


@dataclass
class IterRow:
    """Metrics for one completed iteration.

    `b_norm` (for parity checks), `service_calls` (the iteration's
    service reductions) and `skipped` (this rank's degenerate coordinate
    updates left untouched, C rows and B columns) are kept in memory but
    never serialized.
    """

    iteration: int
    objective: float
    residual_sq: float
    allreduce_calls: int
    bytes: int
    compute_s: float
    comm_s: float
    b_norm: float = 0.0
    service_calls: int = 0
    skipped: int = 0


# (IterRow field, int or float) of each CSV column
_CSV_FIELDS = tuple((f.name, int if f.type == "int" else float)
                    for f in fields(IterRow)[:len(CSV_HEADER)])


@dataclass
class RunMetrics:
    """Per-iteration rows plus run-level outcome flags."""

    rows: list[IterRow] = field(default_factory=list)
    iterations: int = 0
    total_time: float = 0.0
    converged: bool = False

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.rows])

    def residuals(self) -> np.ndarray:
        return np.array([r.residual_sq for r in self.rows])

    def b_norms(self) -> np.ndarray:
        return np.array([r.b_norm for r in self.rows])

    def write_csv(self, path) -> None:
        # repr() gives shortest round-trip float text, so equal trajectories
        # serialize to byte-identical files on every transport
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow([repr(kind(getattr(r, name)))
                                 for name, kind in _CSV_FIELDS])


def read_metrics_csv(path) -> list[dict]:
    """Read a metrics CSV back into a list of per-iteration dicts."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise ValueError(f"unexpected metrics header in {path}")
        return [{col: kind(rec[col])
                 for col, (_, kind) in zip(CSV_HEADER, _CSV_FIELDS)}
                for rec in reader]


def _philox_rows(key, rows: int, width: int, start: int, size: int,
                 base: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Columns [start, start + size) of a rows x width matrix drawn row-major,
    drawn straight into the rows of `out` (a row-major rows x size float64
    array) if given.

    The matrix is the Philox 4x64-10 stream keyed with SeedSequence(key),
    from draw `base` on, one float64 per draw. Philox is counter-based, so
    each row starts a fresh generator at its own offset: `advance` skips
    whole 4-draw counter blocks and the remainder is drawn and dropped.
    The result, row-major, equals the same slice of the full draw bit for
    bit, and no other column of the stream is generated.
    """
    if start < 0 or size < 0 or start + size > width:
        raise ValueError(f"columns [{start}, {start + size}) are outside "
                         f"the {width} columns")
    seq = np.random.SeedSequence(key)
    if out is None:
        out = np.empty((rows, size))
    for i in range(rows):
        offset = base + i * width + start
        bits = np.random.Philox(seq)
        bits.advance(offset // 4)
        rng = np.random.Generator(bits)
        rng.random(offset % 4)
        rng.random(out=out[i])
    return out


def synth_data(m: int, n: int, seed: int, start: int = 0,
               size: int | None = None, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Uniform [0, 1) data matrix, reproducible bit for bit from the seed.

    The stream is NumPy's Philox 4x64-10 counter generator keyed with
    SeedSequence([seed, 0]) and drawn, and returned, row-major as float64
    (the layout of every data matrix a solver reads). Philox is
    counter-based and platform independent, so any faithful
    implementation of the same generator reproduces the dataset from the
    seed alone. With `start`/`size` only columns [start, start + size)
    are drawn, equal to that slice of the whole matrix, into `out` if
    given.
    """
    if m < 1 or n < 1:
        raise ValueError("data dimensions must be positive")
    return _philox_rows([seed, 0], m, n, start,
                        n - start if size is None else size, out=out)


def synth_lowrank(m: int, n: int, k: int, seed: int) -> np.ndarray:
    """Exactly rank-k data: a product of two uniform [0, 1) factors.

    Uses the Philox stream keyed with SeedSequence([seed, 2]), drawing the
    m x k factor first. An exact nonnegative rank-k fit exists, so solvers
    can actually reach tight relative-residual stopping thresholds.
    """
    if m < 1 or n < 1 or k < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 2])))
    left = rng.random((m, k))
    right = rng.random((k, n))
    return left @ right


def random_init_scale(X, k: int, mean: float | None = None) -> float:
    """Scale for the uniform starting factors: sqrt(mean(X) / k).

    A rank that holds one column block of X passes the whole matrix's
    `mean`, which it gets from the setup collective.
    """
    if mean is None:
        mean = float(np.mean(X))
    return math.sqrt(mean / k)


def init_factors(X, k: int, seed: int, *, start: int = 0,
                 n: int | None = None, mean: float | None = None,
                 out: np.ndarray | None = None):
    """Deterministic starting factors, shared by every algorithm.

    Both factors are drawn uniform on [0, s) with s = sqrt(mean(X) / k),
    which keeps the initial product safely below the data scale so early
    residuals stay sign-mixed. The stream is Philox keyed with
    SeedSequence([seed, 1]); B is drawn before C, both row-major. C is
    returned row-major in memory, as a block's C is kept (see
    `ColumnBlock`); B column-major.

    X may be the column block [start, start + size) of an n-column matrix
    whose mean is `mean`: B and that block of C then equal the whole
    draw's B and C slice bit for bit. C is drawn into `out` (a block's
    `c_block`) if given.
    """
    X = np.asarray(X)
    m, size = X.shape
    n = size if n is None else n
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")
    s = random_init_scale(X, k, mean)
    B = np.asfortranarray(_philox_rows([seed, 1], m, k, 0, k))
    C = _philox_rows([seed, 1], k, n, start, size, base=m * k, out=out)
    B *= s
    C *= s
    return B, C


def stopping_check(e_t_sq: float, e_0_sq: float, epsilon: float) -> bool:
    """Relative residual rule: ||E_t||^2 <= eps * ||E_0||^2.

    Compared in ratio form, which is scale-free and keeps exact decimal
    boundaries honest (eps * e0 can round below the boundary in binary).
    A run that starts with a zero residual is already converged.
    """
    if e_0_sq == 0.0:
        return True
    return e_t_sq / e_0_sq <= epsilon


def load_matrix(path, start: int = 0, size: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Columns [start, start + size) of a data matrix file (all by default).

    .csv is text, read whole and sliced (for `nmf convert`; `run` takes
    no CSV); anything else is DMAT1, of which only the requested columns
    are read, straight into `out` if given.
    """
    if str(path).endswith(".csv"):
        stop = None if size is None else start + size
        return read_csv_matrix(path)[:, start:stop]
    return read_dmat(path, start, size, out)


def check_shape(m: int, n: int, k: int, p: int) -> None:
    """Reject a data shape no solver can factor, before any rank connects."""
    if m * n == 0:
        raise ValueError(f"data matrix is empty ({m} x {n})")
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")
    if p > n:
        raise ValueError(f"p={p} workers exceed the n={n} columns")


def _check_values(world, x_block) -> float:
    """The setup collective: check every rank's block and return sum(X).

    One service reduction carries this rank's block sum, a non-finite
    flag and a length-P vector with the block minimum in this rank's slot,
    so every rank raises the same message for bad data and learns the
    same global sum. min and max are reductions, with no temporary.
    """
    lo, hi = float(x_block.min()), float(x_block.max())
    finite = math.isfinite(lo) and math.isfinite(hi)
    buf = np.zeros(2 + world.size)
    # row by row, so the sum does not depend on the block's row stride:
    # a view into a wider X and a contiguous copy sum alike, bit for bit
    buf[0] = float(x_block.sum(axis=1).sum())
    buf[1] = 0.0 if finite else 1.0
    buf[2 + world.rank] = lo if finite else 0.0
    out = allreduce_sum(world, buf, service=True)
    if out[1] > 0.0:
        raise ValueError("data matrix has NaN or infinite entries")
    lo = float(out[2:].min())
    if lo < 0.0:
        raise ValueError(f"data matrix has negative entries (min {lo!r})")
    return float(out[0])


def _rank_run(config: RunConfig, rank: int, X, connect) -> RunMetrics:
    """One rank from its data to its CSV, on either transport.

    The rank takes only its column block [a, a + size), into the stacked
    `ColumnBlock` it allocates: a copy of those columns of `X` when the
    caller holds the matrix, else a byte-range read of the DMAT1 input or
    a draw of those synth_data columns, each made straight into the
    block. The shape is checked before `connect()` makes the world. From
    there to its last iteration the rank holds the world and the BLAS
    pool at one thread (see `blas`): the values and the init scale ride
    one setup collective, the rank draws B and its block of C, and the
    run loop takes it to the stop. Rank 0 then writes the CSV if asked.
    """
    if X is not None:
        X = as_matrix(X)
        m, n = X.shape
    elif config.input_path is not None:
        m, n = read_dmat_shape(config.input_path)
    else:
        m, n = config.m, config.n
    check_shape(m, n, config.k, config.p)
    start, size = partition_columns(n, config.p)[rank]
    block = ColumnBlock(m, config.k, size)
    if X is not None:
        block.x_block[...] = X[:, start:start + size]
    elif config.input_path is not None:
        load_matrix(config.input_path, start, size, out=block.x_block)
    else:
        synth_data(m, n, config.seed, start, size, out=block.x_block)
    with connect() as world, one_blas_thread():
        total = _check_values(world, block.x_block)
        B, _ = init_factors(block.x_block, config.k, config.seed,
                            start=start, n=n, mean=total / (m * n),
                            out=block.c_block)
        metrics = _distributed_worker(config, world, block, B)
    if rank == 0 and config.out_path:
        metrics.write_csv(config.out_path)
    return metrics


def run(config: RunConfig, X=None) -> RunMetrics:
    """Execute one configured run and return its metrics.

    `X` overrides data loading (used by tests and scripts); each rank
    copies its block of it. Otherwise in-process ranks (a sequential
    algorithm is one rank) read or draw their own blocks as TCP ranks do:
    a byte range of the DMAT1 input or a slice of the synth_data draw.
    With the tcp transport this process is the one rank named by the
    NMF_RANK environment variable (see `run_tcp_rank`), whatever the
    algorithm: a sequential one is a one-rank TCP world. Each rank's
    life, the CSV included, is `_rank_run`.
    """
    config.validate()
    if config.transport == "tcp":
        return run_tcp_rank(config, _env_rank(config), X=X)
    # one row-major copy, if the caller's X needs one, for all the ranks
    return _run_inprocess(config, None if X is None else as_matrix(X))


def _env_int(name: str, default: str | None = None) -> int:
    text = os.environ.get(name, default)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}={text!r} is not an integer") from None


def _env_rank(config: RunConfig) -> int:
    if "NMF_RANK" not in os.environ:
        raise ValueError(
            "tcp transport needs NMF_RANK (and NMF_WORLD, NMF_ADDR) in the "
            "environment, or a direct call to run_tcp_rank")
    rank = _env_int("NMF_RANK")
    world = _env_int("NMF_WORLD", str(config.p))
    if world != config.p:
        raise ValueError(f"NMF_WORLD={world} disagrees with p={config.p}")
    addr = os.environ.get("NMF_ADDR")
    if addr:
        host, _, port = addr.rpartition(":")
        if not port.isdecimal() or not 0 < int(port) <= 65535:
            raise ValueError(f"NMF_ADDR={addr!r} is not host:port with a "
                             "port in 1..65535")
        config.tcp_address = (host or "127.0.0.1", int(port))
    return rank


def run_tcp_rank(config: RunConfig, rank: int, X=None) -> RunMetrics:
    """Run one TCP rank to completion (see `_rank_run`); rank 0 writes
    the CSV if requested.

    The rank reads (or synthesizes) only its own column block and draws
    only its block of the starting C.
    """
    config.validate()
    if not 0 <= rank < config.p:
        raise ValueError(f"rank {rank} is outside a world of p={config.p} "
                         f"ranks (0..{config.p - 1})")
    return _rank_run(config, rank, X, lambda: make_tcp_world(
        rank, config.p, config.tcp_address, timeout=config.comm_timeout))


# the e0 reduction, looked up under this name (tcpbench's probes read e0
# from its first call)
_reduce_progress = reduce_progress


def _distributed_worker(config: RunConfig, world, block, B) -> RunMetrics:
    """The run loop of every algorithm: one rank's iterations to the stop.

    Each algorithm is a step and, for dadmm, a factory of its carried
    state. The table is built per call, so a step replaced on this
    module after import is the one that runs. The step reads the clock
    against the deadline after its local compute; an iteration that any
    rank flags completes, and the run stops after it.
    """
    steps = {"bcd": (dbcd_worker_iterate, None),
             "anls": (anls_iterate, None),
             "dadmm": (dadmm_worker_iterate, DadmmWorkerState.fresh),
             "dbcd": (dbcd_worker_iterate, None),
             "did": (did_worker_iterate, None)}
    step, fresh = steps[config.algorithm]
    state = fresh(block, B, config.rho) if fresh else None
    stats = world.stats
    local = residual_sq(block.x_block, B, block.c_block)
    e0, _ = _reduce_progress(world, local, math.inf)
    rows: list[IterRow] = []
    start = time.perf_counter()
    deadline = start + config.max_time
    converged = stopping_check(e0, e0, config.epsilon)
    t = 0
    while not converged and t < config.max_iters:
        t += 1
        tick = time.perf_counter()
        comm0, service0 = stats.comm_wall_time, stats.service_calls
        calls0, bytes0 = stats.allreduce_calls, stats.bytes_sent
        resid, skipped, over = step(world, block, B, state, deadline)
        comm_s = stats.comm_wall_time - comm0
        compute_s = time.perf_counter() - tick - comm_s
        rows.append(IterRow(
            iteration=t, objective=0.5 * resid, residual_sq=resid,
            allreduce_calls=stats.allreduce_calls - calls0,
            bytes=stats.bytes_sent - bytes0,
            compute_s=compute_s, comm_s=comm_s,
            b_norm=math.sqrt(frob_norm_sq(B)),
            service_calls=stats.service_calls - service0, skipped=skipped))
        converged = stopping_check(resid, e0, config.epsilon)
        if over:
            break
    return RunMetrics(rows=rows, iterations=t,
                      total_time=time.perf_counter() - start,
                      converged=converged)


def _run_inprocess(config: RunConfig, X) -> RunMetrics:
    """Run P ranks as threads joined by socket pairs (P=1 included).

    Each rank's world is closed when its thread ends, also when the rank
    was refused before it connected, so no socket outlives the run.
    """
    worlds = make_inprocess_worlds(config.p, timeout=config.comm_timeout)
    results: list[RunMetrics | None] = [None] * config.p
    errors: list[BaseException | None] = [None] * config.p

    def work(rank: int) -> None:
        try:
            results[rank] = _rank_run(config, rank, X, lambda: worlds[rank])
        except BaseException as exc:
            errors[rank] = exc
        finally:
            worlds[rank].close()

    threads = [threading.Thread(target=work, args=(r,), name=f"nmf-rank{r}")
               for r in range(config.p)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    failed = [exc for exc in errors if exc is not None]
    if failed:
        # a rank that fails makes its peers time out waiting for it:
        # report the failure itself, not a peer's CommError about it
        raise next((exc for exc in failed if not isinstance(exc, CommError)),
                   failed[0])
    return results[0]
