"""Sequential factorization kernels: HALS, coordinate descent, ANLS, ADMM.

All four minimize (1/2) ||X - B C||_F^2 over nonnegative B (M x K) and
C (K x N). Coordinate descent runs in Gram form: the C pass streams X in
column tiles sized for L2 and hands the basis step X C^T and C C^T, so
nothing M x N is formed. The distributed workers reuse the very same
functions, so a one-worker distributed run reproduces the sequential
iterates bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import frob_norm_sq
from .nnls import nnls_rows

# squared-norm floor below which a closed-form update is skipped
DEGENERATE_NORM_TOL = 1e-12
# bytes of X per column tile: with the tile's C and B^T X rows the working
# set stays inside a per-core L2 cache. At M=5, K=3 on a core with 2 MiB
# of L2, 256 KiB swept fastest of 128 KiB to 1 MiB.
TILE_BYTES = 256 * 1024


@dataclass
class FactorState:
    """Factor pair plus the residual E = X - B C.

    HALS refreshes E from X at the top of each iteration and carries it
    through its sweep; the other kernels recompute it at the end of theirs.

    `degenerate_events` counts skipped updates (a basis column or C row
    whose squared norm fell under ``DEGENERATE_NORM_TOL``).
    """

    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    degenerate_events: int = 0

    @classmethod
    def from_factors(cls, X, B, C) -> "FactorState":
        B = np.array(B, dtype=np.float64, order="F")
        C = np.array(C, dtype=np.float64, order="F")
        if B.ndim != 2 or C.ndim != 2 or B.shape[1] != C.shape[0]:
            raise ValueError(
                f"factor shapes do not chain: {B.shape} times {C.shape}")
        if X.shape != (B.shape[0], C.shape[1]):
            raise ValueError(
                f"data shape {X.shape} does not match factors "
                f"{(B.shape[0], C.shape[1])}")
        return cls(B=B, C=C, E=X - B @ C)

    def resync(self, X) -> None:
        """Recompute E from scratch, discarding incremental drift."""
        self.E = X - self.B @ self.C

    def objective(self) -> float:
        return 0.5 * frob_norm_sq(self.E)


def tile_width(m: int) -> int:
    """Columns per tile for an m-row matrix: TILE_BYTES of X, at least one."""
    return max(1, TILE_BYTES // (8 * m))


def column_tiles(n: int, m: int) -> list[slice]:
    """Consecutive column ranges of [0, n), each `tile_width(m)` wide but the last."""
    step = tile_width(m)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def c_rowwise_sweep(X, C, B) -> tuple[np.ndarray, np.ndarray, int]:
    """One coordinate pass over C in Gram form, streamed over column tiles.

    Rows i = 0..K-1 are updated in order, every column at once:

        c_i := [(p_i - sum_{k != i} g_ik c_k) / g_ii]_+

    with G = B^T B formed once and P = B^T X_t once per tile. This is the
    HALS row update c_i + (p_i - g_i^T C) / g_ii with the c_i terms
    cancelled exactly, i.e. c_ij := [b_i^T e_j / b_i^T b_i]_+ with e_j the
    residual of column j minus b_i's share. Distinct columns never
    interact, so each tile is swept on its own, and its part of X C^T and
    C C^T is added while it is still in cache: the basis step never reads
    X again. Rows with g_ii under the degeneracy floor are left untouched.

    Returns (S, V, skipped): S = X C^T and V = C C^T for the updated C,
    and the number of skipped rows.
    """
    m, k = B.shape
    G = B.T @ B
    rows = []
    for i in range(k):
        gii = float(G[i, i])
        if gii < DEGENERATE_NORM_TOL:
            continue
        g = G[i].copy()
        g[i] = 0.0
        rows.append((i, g, gii))
    Bt = np.ascontiguousarray(B.T)
    S = np.zeros((m, k))
    V = np.zeros((k, k))
    for cols in column_tiles(X.shape[1], m):
        Xt, Ct = X[:, cols], C[:, cols]
        P = Bt @ Xt
        for i, g, gii in rows:
            r = g @ Ct
            np.subtract(P[i], r, out=r)
            r /= gii
            np.maximum(r, 0.0, out=Ct[i])
        S += Xt @ Ct.T
        # a copied right operand keeps numpy off its syrk path, which is
        # slower than gemm at this K
        V += Ct @ Ct.T.copy()
    return S, V, k - len(rows)


def b_column_partials(S, V, B, i: int) -> tuple[np.ndarray, float]:
    """Update sums for basis column i against the current B.

    From S = X C^T and V = C C^T: y = s_i - sum_{k != i} b_k v_ki, which
    is sum_j e_j c_ij + b_i ||c_i||^2 with E = X - B C, and z = v_ii =
    ||c_i||^2. Both are linear in (S, V), so column blocks' sums add.
    """
    v = V[:, i].copy()
    z = float(v[i])
    v[i] = 0.0
    return S[:, i] - B @ v, z


def b_column_apply(B, i: int, y, z: float) -> int:
    """Install b_i := [y / z]_+ from reduced sums.

    A z below the degeneracy floor leaves the column untouched. Returns
    the number of skipped updates, 0 or 1.
    """
    if z < DEGENERATE_NORM_TOL:
        return 1
    B[:, i] = np.maximum(y / z, 0.0)
    return 0


def residual_sq(X, B, C) -> float:
    """Exact ||X - B C||_F^2, summed tile by tile with no M x N temporary."""
    total = 0.0
    for cols in column_tiles(X.shape[1], B.shape[0]):
        # T x M row-major on both sides, which is X's own column-major layout
        R = X[:, cols].T - C[:, cols].T @ B.T
        total += float(np.vdot(R, R))
    return total


def bcd_iterate(X, state: FactorState) -> FactorState:
    """One full sweep: every row of C, then every basis column, in fixed order.

    Runs the Gram-form kernel shared with the distributed workers, then
    refreshes E from X, so the carried residual never drifts.
    """
    B = state.B
    S, V, skipped = c_rowwise_sweep(X, state.C, B)
    for i in range(B.shape[1]):
        y, z = b_column_partials(S, V, B, i)
        skipped += b_column_apply(B, i, y, z)
    state.degenerate_events += skipped
    state.resync(X)
    return state


def hals_iterate(X, state: FactorState) -> FactorState:
    """One sweep of paired rank-one updates: basis column k, then row k of C.

    Each pair works on the deflated residual A_k = E + b_k c_k, minimizing
    over b_k first and then over c_k with the fresh b_k. E is refreshed
    from X at the top of each iteration so long runs cannot drift.
    """
    state.resync(X)
    B, C, E = state.B, state.C, state.E
    for k in range(B.shape[1]):
        E += np.outer(B[:, k], C[k])
        cc = float(C[k] @ C[k])
        if cc >= DEGENERATE_NORM_TOL:
            B[:, k] = np.maximum((E @ C[k]) / cc, 0.0)
        else:
            state.degenerate_events += 1
        bb = float(B[:, k] @ B[:, k])
        if bb >= DEGENERATE_NORM_TOL:
            C[k] = np.maximum((B[:, k] @ E) / bb, 0.0)
        else:
            state.degenerate_events += 1
        E -= np.outer(B[:, k], C[k])
    return state


def anls_iterate(X, state: FactorState) -> FactorState:
    """Alternating exact nonnegative least squares: all of C, then all of B."""
    B = state.B
    state.C = np.asfortranarray(nnls_rows(B.T @ B, X.T @ B).T)
    C = state.C
    state.B = np.asfortranarray(nnls_rows(C @ C.T, X @ C.T))
    state.resync(X)
    return state


@dataclass
class AdmmAuxState:
    """Splitting variables and scaled multipliers for the ADMM kernel.

    Waux/Haux are the unconstrained copies of B/C; Phi/Psi the multipliers
    on the coupling constraints B = Waux and C = Haux.
    """

    Waux: np.ndarray
    Haux: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    rho: float

    @classmethod
    def from_state(cls, state: FactorState, rho: float = 1.0) -> "AdmmAuxState":
        if rho <= 0.0:
            raise ValueError("rho must be positive")
        return cls(
            Waux=state.B.copy(),
            Haux=state.C.copy(),
            Phi=np.zeros_like(state.B),
            Psi=np.zeros_like(state.C),
            rho=float(rho),
        )


def admm_iterate(X, state: FactorState, aux: AdmmAuxState) -> FactorState:
    """One pass of the six splitting updates: W, H, B, C, then multipliers.

    Both least-squares subproblems are SPD (Gram + rho I), solved by
    Cholesky factorization.
    """
    from scipy.linalg import cho_factor, cho_solve  # only this solver needs scipy

    rho = aux.rho
    k = state.B.shape[1]
    ridge = rho * np.eye(k)
    H = aux.Haux
    # W-step is a right-hand solve; transpose since the system is symmetric
    factor = cho_factor(H @ H.T + ridge, lower=True)
    aux.Waux = cho_solve(factor, (X @ H.T + aux.Phi + rho * state.B).T).T
    W = aux.Waux
    factor = cho_factor(W.T @ W + ridge, lower=True)
    aux.Haux = cho_solve(factor, W.T @ X + aux.Psi + rho * state.C)
    H = aux.Haux
    state.B = np.maximum(W - aux.Phi / rho, 0.0)
    state.C = np.maximum(H - aux.Psi / rho, 0.0)
    aux.Phi = aux.Phi + rho * (state.B - W)
    aux.Psi = aux.Psi + rho * (state.C - H)
    state.resync(X)
    return state
