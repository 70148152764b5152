"""The repository benchmark (`tcpbench/`) still measures this program.

`tcpbench/probes.py` replaces module attributes by name (the worker
steps, the run loop, the e0 reduction, the algorithmic collective, the
codec, and the frame reads through `comm.TcpEndpoint.recv`, which is
`comm.CommWorld.recv` under its old name) and checks every solve
against an independent reference, the collective counts and the socket
payload bytes. A traced run on the small latency-bound workloads
exercises every probe in about a second; a renamed function, a
collective that bypasses `distributed.allreduce_sum` or a frame split
over several sends shows as a failed or incorrect solve on its last
stdout line.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["did-tcp", "dbcd-tcp"])
def test_benchmark_probes_and_checks_hold(workload):
    out = subprocess.run(
        [sys.executable, os.path.join("tcpbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), out.stderr[-2000:]
    assert last["metrics"], "no per-layer metrics"
