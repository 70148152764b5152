"""Independent reference for the benchmark, in plain numpy.

Nothing here imports the package under test. The module rebuilds, from
the documented formats and streams alone:

* each workload's nonnegative low-rank input, written as DMAT1;
* the program's scaled-random starting factors (Philox keyed with
  SeedSequence([seed, 1]), B drawn before C, both scaled by
  sqrt(mean(X) / k));
* the initial squared residual e0;
* sequential coordinate descent from the paper's update rules: every
  row of C in order, then every column of B in order, each the exact
  nonnegative minimizer of its coordinate block.

The descent uses the Gram form of the same updates (B^T X and X C^T once
per sweep), which is a different arithmetic path from the program's
rank-one residual updates; the residual itself is taken exactly as
||X - B C||^2 in column tiles.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# squared-norm floor under which a coordinate update is skipped; the
# program documents the same floor, and skipping is part of the rule
DEGENERATE_NORM_TOL = 1e-12
_DMAT_HEADER = struct.Struct("<4sIQQ")
_TILE = 1 << 16
_WEYL = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]) % 1.0


def philox(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def lowrank_input(m: int, n: int, k: int, seed: int) -> np.ndarray:
    """Exactly rank-k nonnegative data X = L R, column-major.

    L is fixed: a common column profile plus fixed offsets, which set how
    far from collinear its columns are and so how many sweeps coordinate
    descent needs. Row i of R is the Weyl sequence frac(j * alpha_i +
    shift_i) over the columns j, with irrational alpha_i and a shift drawn
    from the seed (Philox keyed with SeedSequence([seed, 100])). Every
    seed thus gives a different matrix whose columns fill the unit cube
    equally evenly, so the number of sweeps to a given eps barely depends
    on the seed; with uniform random R it varies several-fold.
    """
    if k > len(_WEYL):
        raise ValueError(f"k={k} exceeds the {len(_WEYL)} lattice directions")
    base = 1.0 + 0.5 * np.cos(np.arange(m)[:, None] * 0.9)
    offsets = np.sin(np.outer(np.arange(m) + 1.0, np.arange(k) + 1.0))
    L = np.maximum(base + offsets, 0.0)
    shift = philox(seed, 100).random(k)
    R = (np.arange(n)[None, :] * _WEYL[:k, None] + shift[:, None]) % 1.0
    return np.asfortranarray(L @ R)


def write_dmat(path, X: np.ndarray) -> None:
    """DMAT1: 24-byte little-endian header, then float64 column-major data."""
    with open(path, "wb") as f:
        f.write(_DMAT_HEADER.pack(b"DMAT", 1, X.shape[0], X.shape[1]))
        f.write(np.asarray(X, dtype="<f8").tobytes(order="F"))


def initial_factors(X: np.ndarray, k: int, seed: int):
    m, n = X.shape
    rng = philox(seed, 1)
    s = math.sqrt(float(np.mean(X)) / k)
    B = s * rng.random((m, k))
    C = s * rng.random((k, n))
    return B, C


def residual_sq(X: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    total = 0.0
    for j in range(0, X.shape[1], _TILE):
        R = X[:, j:j + _TILE] - B @ C[:, j:j + _TILE]
        total += float(np.vdot(R, R))
    return total


def cd_sweep(X: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """One sequential sweep, in place: rows of C in order, then columns of B.

    Row i of C moves to argmin over c_i >= 0 of ||X - B C||^2, that is
    c_i := [c_i + b_i^T (X - B C) / b_i^T b_i]_+ with the rows before i
    already updated; the basis columns follow the mirror rule.
    """
    k = B.shape[1]
    G = B.T @ B
    P = B.T @ X
    for i in range(k):
        if G[i, i] < DEGENERATE_NORM_TOL:
            continue
        C[i] = np.maximum(C[i] + (P[i] - G[i] @ C) / G[i, i], 0.0)
    H = C @ C.T
    Q = X @ C.T
    for i in range(k):
        if H[i, i] < DEGENERATE_NORM_TOL:
            continue
        B[:, i] = np.maximum(B[:, i] + (Q[:, i] - B @ H[:, i]) / H[i, i], 0.0)


def reference_trajectory(X: np.ndarray, k: int, seed: int, eps: float,
                         max_iters: int):
    """(e0, residuals) of sequential coordinate descent until the eps stop.

    residuals[t - 1] is ||X - B C||^2 after sweep t; the list ends at the
    first sweep whose residual is at most eps * e0, or at max_iters.
    """
    B, C = initial_factors(X, k, seed)
    e0 = residual_sq(X, B, C)
    residuals = []
    while len(residuals) < max_iters:
        cd_sweep(X, B, C)
        residuals.append(residual_sq(X, B, C))
        if residuals[-1] <= eps * e0:
            break
    return e0, residuals
