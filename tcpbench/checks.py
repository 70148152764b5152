"""Correctness checks applied to every benchmark solve, and their self-test.

A solve is described by `Solve`: the workload's eps and collectives per
iteration, rank 0's metrics CSV rows, and what the probes saw on each
rank. `check_solve` returns the names of the checks that
failed, an empty list for a correct solve:

* reference: the CSV's residual trajectory matches the independent
  sequential coordinate descent iteration by iteration, and stops at the
  same iteration (a stop within rounding of the eps boundary may fall on
  either side);
* monotone: the objective never increases beyond rounding;
* ranks: rank 0's CSV and both ranks' own residual trajectories are
  bit-identical;
* stop: residual_sq <= eps * e0 at the last iteration and not at the one
  before, with e0 as the program reduced it, which matches the
  reference's e0;
* collectives: every CSV row counts the algorithm's number of collectives
  (1 for did, K for dbcd), and so do the calls each rank made into
  `distributed.allreduce_sum`;
* bytes: algorithmic payload bytes counted at the sockets of both ranks
  equal the CSV's modelled `bytes` column (at P = 2 each payload goes up
  once and comes back down once).

`selftest()` builds a correct solve and shows that each of a perturbed
residual, one extra collective, a non-monotone step, a mismatched rank
trajectory, a stop one iteration early or late and a payload count off by
one double is rejected by the check meant to catch it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TRAJECTORY_RTOL = 1e-9
E0_RTOL = 1e-12
MONOTONE_RTOL = 1e-12
STOP_AMBIGUITY = 1e-9


@dataclass
class Solve:
    eps: float
    collectives_per_iter: int
    rows: list[dict]   # rank 0's CSV, values as written
    ranks: list[dict]  # each rank's probe report


@dataclass
class Reference:
    e0: float
    residuals: list[float]


def _ratio_near_eps(value: float, e0: float, eps: float) -> bool:
    return abs(value / e0 / eps - 1.0) <= STOP_AMBIGUITY


def check_reference(s: Solve, ref: Reference) -> bool:
    got = np.array([float(r["residual_sq"]) for r in s.rows])
    want = np.array(ref.residuals)
    n = min(len(got), len(want))
    if n == 0 or np.any(np.abs(got[:n] - want[:n]) > TRAJECTORY_RTOL * want[:n]):
        return False
    if len(got) == len(want):
        return True
    # one iteration apart is accepted only when the reference itself sits
    # on the eps boundary at the earlier stop
    return abs(len(got) - len(want)) == 1 and _ratio_near_eps(
        want[n - 1], ref.e0, s.eps)


def check_monotone(s: Solve) -> bool:
    res = [float(r["residual_sq"]) for r in s.rows]
    return all(b <= a * (1.0 + MONOTONE_RTOL) for a, b in zip(res, res[1:]))


def check_ranks(s: Solve) -> bool:
    csv_res = [r["residual_sq"] for r in s.rows]
    return all(rank["residuals"] == csv_res for rank in s.ranks)


def check_stop(s: Solve, ref: Reference) -> bool:
    e0 = float(s.ranks[0]["e0"])
    if abs(e0 - ref.e0) > E0_RTOL * ref.e0:
        return False
    if any(rank["e0"] != s.ranks[0]["e0"] for rank in s.ranks):
        return False
    res = [float(r["residual_sq"]) for r in s.rows]
    # the program states its rule in ratio form, ||E_t||^2 / ||E_0||^2 <= eps
    if not res or res[-1] / e0 > s.eps:
        return False
    return len(res) == 1 or res[-2] / e0 > s.eps


def check_collectives(s: Solve) -> bool:
    per_row = [int(r["allreduce_calls"]) for r in s.rows]
    if any(c != s.collectives_per_iter for c in per_row):
        return False
    return all(rank["alg_calls"] == sum(per_row) for rank in s.ranks)


def check_bytes(s: Solve) -> bool:
    modelled = sum(int(r["bytes"]) for r in s.rows)
    return sum(rank["payload"]["alg"] for rank in s.ranks) == modelled


def check_solve(s: Solve, ref: Reference) -> list[str]:
    checks = {
        "reference": lambda: check_reference(s, ref),
        "monotone": lambda: check_monotone(s),
        "ranks": lambda: check_ranks(s),
        "stop": lambda: check_stop(s, ref),
        "collectives": lambda: check_collectives(s),
        "bytes": lambda: check_bytes(s),
    }
    return [name for name, ok in checks.items() if not ok()]


def _synthetic_solve() -> tuple[Solve, Reference]:
    """A correct two-rank did solve built from the reference itself."""
    from reference import lowrank_input, reference_trajectory

    m, n, k, eps = 4, 40, 2, 1e-3
    X = lowrank_input(m, n, k, seed=3)
    e0, residuals = reference_trajectory(X, k, seed=1, eps=eps, max_iters=500)
    payload = 8 * (m * k + k * k)  # W is m x k, V is k x k
    rows = [{"iter": str(t + 1), "residual_sq": repr(r), "allreduce_calls": "1",
             "bytes": str(2 * payload)} for t, r in enumerate(residuals)]
    ranks = [{"e0": repr(e0), "residuals": [repr(r) for r in residuals],
              "alg_calls": len(rows), "payload": {"alg": payload * len(rows)}}
             for _ in range(2)]
    return Solve(eps, 1, rows, ranks), Reference(e0, residuals)


def selftest() -> None:
    """Raise AssertionError unless every check accepts a correct solve and
    rejects the fault it is meant to catch."""
    good, ref = _synthetic_solve()
    assert check_solve(good, ref) == [], check_solve(good, ref)
    T = len(good.rows)
    assert T >= 4, "synthetic solve too short to perturb"

    def with_residual(t: int, value: float) -> list[dict]:
        rows = [dict(r) for r in good.rows]
        rows[t]["residual_sq"] = repr(value)
        return rows

    res = [float(r["residual_sq"]) for r in good.rows]
    # perturbed residual, as every rank would report it
    rows = with_residual(T // 2, res[T // 2] * (1 + 1e-6))
    ranks = [dict(r, residuals=[x["residual_sq"] for x in rows]) for r in good.ranks]
    bad = replace(good, rows=rows, ranks=ranks)
    assert "reference" in check_solve(bad, ref)
    # one extra collective, on the CSV row and at both ranks' probes
    rows = [dict(r) for r in good.rows]
    rows[1]["allreduce_calls"] = "2"
    ranks = [dict(r, alg_calls=r["alg_calls"] + 1) for r in good.ranks]
    assert "collectives" in check_solve(replace(good, rows=rows, ranks=ranks), ref)
    # a non-monotone step, checked against a reference that has it too
    rows = with_residual(2, res[1] * 1.01)
    ranks = [dict(r, residuals=[x["residual_sq"] for x in rows]) for r in good.ranks]
    bent = Reference(ref.e0, [float(x["residual_sq"]) for x in rows])
    assert check_solve(replace(good, rows=rows, ranks=ranks), bent) == ["monotone"]
    # rank 1 disagrees in the last bit of one iteration
    ranks = [dict(r) for r in good.ranks]
    ranks[1]["residuals"] = list(ranks[1]["residuals"])
    ranks[1]["residuals"][T // 2] = repr(np.nextafter(res[T // 2], np.inf))
    assert check_solve(replace(good, ranks=ranks), ref) == ["ranks"]
    # stopping one iteration late, and one iteration early
    assert "stop" in check_solve(replace(good, rows=good.rows + [good.rows[-1]]), ref)
    assert "stop" in check_solve(replace(good, rows=good.rows[:-1]), ref)
    # payload bytes at the sockets disagree with the modelled column
    ranks = [dict(r, payload={"alg": r["payload"]["alg"] + 8}) for r in good.ranks]
    assert check_solve(replace(good, ranks=ranks), ref) == ["bytes"]


if __name__ == "__main__":
    selftest()
    print("checks selftest: every check accepts the correct solve and "
          "rejects its fault")
