"""Distributed nonnegative matrix factorization toolkit.

Sequential solvers (HALS, coordinate descent, ANLS, ADMM) and their
distributed counterparts (one column block per worker, replicated basis)
over an allreduce layer with in-process and TCP transports.
"""

from .matrix import (
    ColumnBlock,
    as_matrix,
    frob_norm_sq,
    make_column_blocks,
    matmul,
    partition_columns,
    project_nonneg,
    read_dmat,
    read_csv_matrix,
    write_dmat,
    write_csv_matrix,
)
from .nnls import NnlsError, nnls_oracle, nnls_rows
from .kernels import (
    AdmmAuxState,
    FactorState,
    admm_iterate,
    anls_iterate,
    bcd_iterate,
    hals_iterate,
)
from .comm import (
    CommError,
    CommStats,
    CommTimeoutError,
    CommWorld,
    allreduce_sum,
    barrier,
    make_inprocess_worlds,
    make_tcp_world,
)
from .distributed import (
    DadmmWorkerState,
    dadmm_worker_iterate,
    dbcd_worker_iterate,
    did_build_message,
    did_c_phase,
    did_update_basis,
    did_worker_iterate,
)
from .harness import (
    RunConfig,
    RunMetrics,
    init_factors,
    run,
    run_tcp_rank,
    stopping_check,
    synth_data,
    synth_lowrank,
)

__all__ = [
    "AdmmAuxState",
    "ColumnBlock",
    "CommError",
    "CommStats",
    "CommTimeoutError",
    "CommWorld",
    "DadmmWorkerState",
    "FactorState",
    "NnlsError",
    "RunConfig",
    "RunMetrics",
    "admm_iterate",
    "allreduce_sum",
    "anls_iterate",
    "as_matrix",
    "barrier",
    "bcd_iterate",
    "dadmm_worker_iterate",
    "dbcd_worker_iterate",
    "did_build_message",
    "did_c_phase",
    "did_update_basis",
    "did_worker_iterate",
    "frob_norm_sq",
    "hals_iterate",
    "init_factors",
    "make_column_blocks",
    "make_inprocess_worlds",
    "make_tcp_world",
    "matmul",
    "nnls_oracle",
    "nnls_rows",
    "partition_columns",
    "project_nonneg",
    "read_csv_matrix",
    "read_dmat",
    "run",
    "run_tcp_rank",
    "stopping_check",
    "synth_data",
    "synth_lowrank",
    "write_csv_matrix",
    "write_dmat",
]
