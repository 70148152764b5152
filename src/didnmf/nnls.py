"""Nonnegative least squares in Gram form.

Every alternating-least-squares step in this package reduces to many
independent rows of the same quadratic program

    minimize_{b >= 0}   (1/2) b G b^T - b r^T

with one shared K x K symmetric positive semidefinite Gram matrix G and
per-row linear terms r (the rows of R). `nnls_rows` solves all rows at
once with block principal pivoting with the backup rule (Kim & Park,
SIAM J. Sci. Comput. 2011), grouping rows that share a passive set so
each K x K subsystem is factored once per group (the rows are keyed by
their passive bits packed into one integer and grouped by a 1-D sort,
the column grouping of Van Benthem & Keenan, J. Chemometrics 2004).
Rows whose pivoting lands off the relative KKT tolerance are pivoted
again under Jacobi scaling, a change of variables that maps solutions to
solutions. `nnls_oracle` solves small systems exactly by enumerating every
active set; it exists so the fast path can be audited against an
independent reference.
"""

from __future__ import annotations

import numpy as np

KKT_TOL = 1e-8
# a squared column norm or Gram diagonal below this marks a dead coordinate
DEGENERATE_NORM_TOL = 1e-12
_FEAS_TOL = 1e-12
_BACKUP_TRIES = 3  # full exchanges a row may make without a new best


class NnlsError(RuntimeError):
    """Solver hit its iteration cap; `best` carries the final iterate."""

    def __init__(self, message: str, best: np.ndarray):
        super().__init__(message)
        self.best = best


def row_objectives(G, R, B) -> np.ndarray:
    """Per-row objective (1/2) b G b^T - b r^T for each row b of B."""
    G = np.asarray(G, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return (0.5 * np.einsum("ij,jk,ik->i", B, G, B)
            - np.einsum("ij,ij->i", B, R))


def _check_gram(G, R):
    G = np.asarray(G, dtype=np.float64)
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {G.shape}")
    if R.shape[1] != G.shape[0]:
        raise ValueError(
            f"linear terms have {R.shape[1]} columns but Gram is {G.shape[0]} wide")
    if not np.allclose(G, G.T, atol=1e-12, rtol=0.0):
        raise ValueError("Gram matrix must be symmetric")
    return G, R


def _solve_patterns(G, R, passive):
    """Solve G_FF b_F = r_F for every row, grouping rows by passive set."""
    B = np.zeros_like(R)
    if not passive.any():
        return B
    k = passive.shape[1]
    if k < 63:
        # each row's bits as one integer, column 0 the highest: a 1-D sort
        # of the keys orders the patterns as the rows' own sort would
        keys = passive @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        patterns = passive[first]
    else:
        patterns, inverse = np.unique(passive, axis=0, return_inverse=True)
    for pid, pat in enumerate(patterns):
        if not pat.any():
            continue
        rows = np.nonzero(inverse == pid)[0]
        free = np.nonzero(pat)[0]
        sub = G[np.ix_(free, free)]
        rhs = R[np.ix_(rows, free)].T
        try:
            sol = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        B[np.ix_(rows, free)] = sol.T
    return B


def _kkt_violations(G, R, B, Y):
    """Boolean row mask of KKT failures of the gradient rows Y = B G - R.

    Each row is judged against the scale of the terms its gradient sums,
    s = max_j (|b| |G| + |r|)_j, which bounds their rounding: b >= 0,
    y >= -KKT_TOL s and b.y <= KKT_TOL s ||b||_1.
    """
    scale = (np.abs(B) @ np.abs(G) + np.abs(R)).max(axis=1)
    comp = np.einsum("ij,ij->i", B, Y)
    return ((B < 0.0).any(axis=1) | (Y < -KKT_TOL * scale[:, None]).any(axis=1)
            | (comp > KKT_TOL * scale * np.abs(B).sum(axis=1)))


def _bpp_solve(G, R):
    """Block principal pivoting with full exchange and the backup rule.

    Every row starts from the unconstrained solve (all coordinates
    passive) and, each cycle, exchanges its infeasible coordinates: a
    passive one with b_i < 0 turns active, an active one with gradient
    y_i < 0 turns passive. A row keeps the smallest count of infeasible
    coordinates it has reached and ``_BACKUP_TRIES`` tries. While the
    count sets a new best it exchanges them all (and its tries refill);
    after that many exchanges without a new best it flips only its last
    infeasible coordinate until the count falls again. That single flip
    is Murty's principal pivot, so on a positive definite G every row
    ends in finitely many cycles (Kim & Park, SIAM J. Sci. Comput. 2011,
    after Judice & Pires 1994). ``100 K`` cycles bound the loop when
    rounding defeats that argument; rows still infeasible then are
    clipped at zero and left to the caller's KKT check.
    """
    n_rows, k = R.shape
    passive = np.ones((n_rows, k), dtype=bool)  # warm start: unconstrained solve
    B = _solve_patterns(G, R, passive)
    best_inf = np.full(n_rows, k + 1, dtype=np.int64)
    tries = np.full(n_rows, _BACKUP_TRIES, dtype=np.int64)
    for _ in range(100 * k):
        Y = B @ G - R
        bad = (passive & (B < -_FEAS_TOL)) | (~passive & (Y < -_FEAS_TOL))
        ninf = bad.sum(axis=1)
        rows = np.nonzero(ninf)[0]
        if not rows.size:
            break
        improved = ninf[rows] < best_inf[rows]
        best_inf[rows] = np.minimum(best_inf[rows], ninf[rows])
        tries[rows] = np.where(improved, _BACKUP_TRIES, tries[rows] - 1)
        flips = bad[rows]
        single = np.nonzero(tries[rows] < 0)[0]
        if single.size:
            last = k - 1 - np.argmax(flips[single, ::-1], axis=1)
            flips[single] = False
            flips[single, last] = True
        passive[rows] ^= flips
        B[rows] = _solve_patterns(G, R[rows], passive[rows])
    # tiny pivot negatives in passive coordinates are numerical zero
    return np.maximum(B, 0.0)


def nnls_rows(G, R) -> np.ndarray:
    """Solve min_{b >= 0} (1/2) b G b^T - b r^T for every row r of R.

    Parameters
    ----------
    G : (K, K) symmetric PSD Gram matrix, shared by all rows.
    R : (M, K) linear terms, one row per independent problem.

    Returns
    -------
    (M, K) nonnegative solution matrix.

    Coordinates whose Gram diagonal is below ``DEGENERATE_NORM_TOL``
    cannot influence the objective through G; they are dropped and
    returned as exact zeros. Block principal pivoting with the backup
    rule (`_bpp_solve`) solves the rest. Each row must then pass the KKT
    check at ``KKT_TOL``, relative to the scale s = max_j (|b| |G| + |r|)_j
    of its gradient g = b G - r (see `_kkt_violations`): g >= -KKT_TOL s
    and b . g <= KKT_TOL s ||b||_1. Rows that miss it (a pivot on a
    near-singular G can land off by rounding, or the cycle bound ran out)
    are solved again by the same pivoting on D G D and R D, with
    D = diag(G)^-1/2, and mapped back as b = c D. That positive diagonal
    change of variables maps the scaled problem's solutions onto the
    original's, and its Gram has a unit diagonal, so columns of very
    different norms no longer round each other's pivots away. The KKT
    check is then repeated in the original variables; if any row still
    misses it, ``NnlsError`` is raised carrying the best iterate found.
    """
    G, R = _check_gram(G, R)
    keep = np.diag(G) > DEGENERATE_NORM_TOL
    if not keep.all():
        out = np.zeros_like(R)
        if keep.any():
            out[:, keep] = nnls_rows(G[np.ix_(keep, keep)], R[:, keep])
        return out
    B = _bpp_solve(G, R)
    bad = _kkt_violations(G, R, B, B @ G - R)
    if bad.any():
        idx = np.nonzero(bad)[0]
        d = 1.0 / np.sqrt(np.diag(G))
        B[idx] = _bpp_solve(G * np.outer(d, d), R[idx] * d) * d
        bad = _kkt_violations(G, R, B, B @ G - R)
    if bad.any():
        raise NnlsError(
            f"{int(bad.sum())} of {R.shape[0]} rows missed the relative "
            f"{KKT_TOL:g} KKT tolerance", B)
    return B


def nnls_oracle(G, R) -> np.ndarray:
    """Exact reference solver: enumerate every active set per row.

    Exponential in K (2^K candidate sets); refuses K > 12. For each row
    the feasible candidate with the smallest objective wins, with b = 0
    as the always-feasible baseline.
    """
    G, R = _check_gram(G, R)
    n_rows, k = R.shape
    if k > 12:
        raise ValueError("active-set enumeration is limited to K <= 12")
    best = np.zeros((n_rows, k))
    best_obj = np.zeros(n_rows)  # objective of the b = 0 candidate
    for mask in range(1, 1 << k):
        free = [i for i in range(k) if (mask >> i) & 1]
        sub = G[np.ix_(free, free)]
        rhs = R[:, free].T
        try:
            sol = np.linalg.solve(sub, rhs).T
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(sub, rhs, rcond=None)[0].T
        feasible = (sol >= -_FEAS_TOL).all(axis=1)
        cand = np.zeros((n_rows, k))
        cand[:, free] = np.maximum(sol, 0.0)
        obj = row_objectives(G, R, cand)
        take = feasible & (obj < best_obj)
        best[take] = cand[take]
        best_obj[take] = obj[take]
    return best
