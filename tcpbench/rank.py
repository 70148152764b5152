"""One TCP rank of a benchmark solve, entered through the user's path.

    python3 tcpbench/rank.py REPORT_JSON TRACE -- <nmf run arguments>

Imports the package from the checkout's `src/`, installs the probes (see
probes.py), calls `didnmf.cli.main` with the `nmf run` arguments exactly
as the console entry point would, and writes what the probes saw to
REPORT_JSON. NMF_RANK, NMF_WORLD and NMF_ADDR come from the environment.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import time

from probes import Probes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def blas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    nmf_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, SRC)
    t0 = time.monotonic()
    import didnmf.cli as cli
    from didnmf import comm, distributed, harness
    import_s = time.monotonic() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"didnmf imported from {cli.__file__}, not from {SRC}")
    probes = Probes(trace)
    probes.install(cli, harness, distributed, comm)
    rc = cli.main(nmf_args)
    out = probes.report()
    out.update(import_s=import_s, blas_threads=blas_threads())
    with open(report_path, "w") as f:
        json.dump(out, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
