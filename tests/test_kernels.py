import numpy as np
import pytest

from didnmf.comm import make_inprocess_worlds
from didnmf.distributed import dbcd_worker_iterate
from didnmf.harness import init_factors, synth_data, synth_lowrank
from didnmf.kernels import (
    DEGENERATE_NORM_TOL,
    anls_iterate,
    b_column_apply,
    b_column_partials,
    c_rowwise_sweep,
    column_tiles,
    residual_sq,
    tile_width,
)
from blocks import make_column_blocks
from didnmf.matrix import frob_norm_sq
from didnmf.nnls import nnls_rows


def make_factors(m, n, k, seed, lowrank=False):
    X = synth_lowrank(m, n, k, seed) if lowrank else synth_data(m, n, seed)
    B0, C0 = init_factors(X, k, seed)
    return X, B0, C0


class Solo:
    """One solver on a one-rank world, as the run loop drives it.

    Holds copies of the starting factors; `step()` runs one iteration and
    returns the reported ||X - B C||^2. Sequential coordinate descent
    (bcd) is the dbcd worker on one rank.
    """

    def __init__(self, step, X, B, C):
        self.X = np.asfortranarray(X, dtype=float)
        self.block = make_column_blocks(self.X, np.asarray(C, dtype=float), 1)[0]
        self.B = np.array(B, dtype=float, order="F")
        self._step = step
        [self.world] = make_inprocess_worlds(1)
        self.skipped = 0

    @property
    def C(self):
        return self.block.c_block

    def step(self) -> float:
        resid, skipped, _ = self._step(self.world, self.block, self.B, None)
        self.skipped += skipped
        return resid

    def recomputed(self) -> float:
        return frob_norm_sq(self.X - self.B @ self.C)


def bcd(X, B, C):
    return Solo(dbcd_worker_iterate, X, B, C)


def anls(X, B, C):
    return Solo(anls_iterate, X, B, C)


# Gram-form coordinate updates (worked instances first)


def stack(X, C):
    """A block's stacked [X; C], row-major."""
    return np.vstack([np.asarray(X, dtype=float), np.asarray(C, dtype=float)])


def sweep(X, B, C):
    """Run the C pass on a stacked copy; return (C, S, V, rr, skipped)."""
    Z = stack(X, C)
    S, V, rr, skipped = c_rowwise_sweep(Z, np.asfortranarray(B, dtype=float))
    return Z[len(X):], S, V, rr, skipped


def elementwise_c_pass(X, B, C):
    """Reference C pass: c_ij := [b_i^T e_j / b_i^T b_i]_+, one coordinate
    at a time, residual e_j kept current with the add/subtract bracket."""
    C = np.array(C, dtype=float)
    E = X - B @ C
    skipped = 0
    for i in range(B.shape[1]):
        b = B[:, i]
        bb = float(b @ b)
        if bb < DEGENERATE_NORM_TOL:
            skipped += 1
            continue
        for j in range(C.shape[1]):
            e = E[:, j]
            e += b * C[i, j]
            C[i, j] = max(float(b @ e) / bb, 0.0)
            e -= b * C[i, j]
    return C, skipped


def test_c_element_update_scalar_instance():
    # x = (2,2), b = (1,1), c = 1: optimum c = 2 and the residual vanishes
    X = np.asfortranarray([[2.0], [2.0]])
    C, S, V, rr, skipped = sweep(X, [[1.0], [1.0]], [[1.0]])
    assert C[0, 0] == 2.0 and skipped == 0
    assert np.array_equal(S, [[4.0], [4.0]]) and np.array_equal(V, [[4.0]])
    assert rr == residual_sq(X, np.ones((2, 1)), C) == 0.0


def test_c_element_clamps_to_zero():
    X = np.asfortranarray([[-3.0], [-3.0]])
    C, S, V, rr, _ = sweep(X, [[1.0], [1.0]], [[1.0]])
    assert C[0, 0] == 0.0
    assert not S.any() and not V.any()
    assert rr == residual_sq(X, np.ones((2, 1)), C) == 18.0


def test_c_element_degenerate_column_skipped():
    X = np.asfortranarray([[1.0], [1.0]])
    C, _, _, _, skipped = sweep(X, [[0.0], [0.0]], [[5.0]])
    assert np.array_equal(C, [[5.0]])
    assert skipped == 1


def test_b_column_update_worked_instance():
    # one basis column, c = (1, 1), X = [1 3]: S = X c^T = 4, V = 2, so
    # b = [S - 0] / V = 2, and the residual is X - 2 c = [-1 1]
    B = np.asfortranarray([[1.0]])
    y, z = b_column_partials(np.array([[4.0]]), np.array([[2.0]]), B, 0)
    assert b_column_apply(B, 0, y, z) == 0
    assert np.array_equal(B, [[2.0]])
    assert residual_sq(np.asfortranarray([[1.0, 3.0]]), B,
                       np.asfortranarray([[1.0, 1.0]])) == 2.0


def test_b_column_partials_take_out_the_other_columns():
    # y = s_i - sum_{k != i} b_k v_ki: column 1 of B stays out of column 0
    B = np.asfortranarray([[1.0, 2.0]])
    S = np.array([[10.0, 7.0]])
    V = np.array([[4.0, 3.0], [3.0, 5.0]])
    y, z = b_column_partials(S, V, B, 0)
    assert np.array_equal(y, [10.0 - 2.0 * 3.0]) and z == 4.0
    y, z = b_column_partials(S, V, B, 1)
    assert np.array_equal(y, [7.0 - 1.0 * 3.0]) and z == 5.0


def test_b_column_degenerate_row_skipped():
    B = np.asfortranarray([[1.0]])
    y, z = b_column_partials(np.zeros((1, 1)), np.zeros((1, 1)), B, 0)
    assert b_column_apply(B, 0, y, z) == 1
    assert np.array_equal(B, [[1.0]])


def test_c_rowwise_sweep_matches_elementwise():
    # the Gram-form tile pass is the per-element loop with the residual
    # expanded through G = B^T B and P = B^T X, so agreement is to the
    # last few ulp rather than bitwise
    X, B0, C0 = make_factors(4, 9, 3, 21)
    C, S, V, _, _ = sweep(X, B0, C0)
    C_ref, _ = elementwise_c_pass(X, B0, C0)
    assert np.allclose(C, C_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(S, X @ C_ref.T, rtol=1e-13)
    assert np.allclose(V, C_ref @ C_ref.T, rtol=1e-13)


TILE_EDGE_WIDTHS = {"1": lambda T: 1, "T-1": lambda T: T - 1, "T": lambda T: T,
                    "T+1": lambda T: T + 1, "2T+3": lambda T: 2 * T + 3}


@pytest.mark.parametrize("width", sorted(TILE_EDGE_WIDTHS))
def test_c_rowwise_sweep_tile_boundaries(width):
    # the tiles cut the columns without changing any of them, and the
    # sums and the residual cover every column exactly once
    m, k = 4, 3
    n = max(1, TILE_EDGE_WIDTHS[width](tile_width(m)))
    rng = np.random.default_rng(n)
    X = np.asfortranarray(rng.uniform(0.0, 1.0, size=(m, n)))
    B = rng.uniform(0.1, 1.0, size=(m, k))
    C0 = rng.uniform(0.0, 1.0, size=(k, n))
    tiles = column_tiles(n, m)
    assert tiles[0].start == 0 and tiles[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
    C, S, V, _, _ = sweep(X, B, C0)
    C_ref, _ = elementwise_c_pass(X, B, C0)
    assert np.allclose(C, C_ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(S, X @ C.T, rtol=1e-12)
    assert np.allclose(V, C @ C.T, rtol=1e-12)
    assert residual_sq(X, B, C) == pytest.approx(
        frob_norm_sq(X - B @ C), rel=1e-12)


@pytest.mark.parametrize("tiles,dead", [(1, False), (3, False), (3, True)],
                         ids=["one-tile", "short-last-tile", "dead-row"])
def test_c_rowwise_sweep_takes_the_residual_of_residual_sq(tiles, dead):
    # the sweep adds each tile's ||X_t - B C_t||^2 in the pass, against
    # the basis it swept with; that is `residual_sq` of the updated C to
    # the last bit, a dead row (g_ii under the floor) included
    m, k = 4, 3
    n = 9 if tiles == 1 else 2 * tile_width(m) + 3
    assert len(column_tiles(n, m)) == tiles
    rng = np.random.default_rng(n)
    X = np.asfortranarray(rng.uniform(0.0, 1.0, size=(m, n)))
    B = np.asfortranarray(rng.uniform(0.1, 1.0, size=(m, k)))
    if dead:
        B[:, 1] = 0.0
    C, _, _, rr, skipped = sweep(X, B, rng.uniform(0.0, 1.0, size=(k, n)))
    assert skipped == int(dead)
    assert rr == residual_sq(X, B, C)
    assert rr == pytest.approx(frob_norm_sq(X - B @ C), rel=1e-12)


@pytest.mark.parametrize("dead", [False, True], ids=["live", "dead-row"])
def test_c_rowwise_sweep_never_writes_b_and_ignores_its_order(dead):
    # the sweep folds 1/g_ii into a copy of B^T. A layout conversion of
    # B.T that needs no copy returns B's own memory, and scaling that in
    # place would move B. B stays bit for bit as it was, and a C- and a
    # Fortran-ordered B give the same C, S, V and rr bit for bit
    m, k = 4, 3
    n = 2 * tile_width(m) + 3
    rng = np.random.default_rng(5)
    X = np.asfortranarray(rng.uniform(0.0, 1.0, size=(m, n)))
    B0 = rng.uniform(0.1, 1.0, size=(m, k))
    if dead:
        B0[:, 2] = 0.0
    C0 = rng.uniform(0.0, 1.0, size=(k, n))
    results = []
    for B in (np.ascontiguousarray(B0), np.asfortranarray(B0)):
        Z = stack(X, C0)
        S, V, rr, skipped = c_rowwise_sweep(Z, B)
        C = Z[m:]
        assert B.tobytes() == B0.tobytes()
        assert skipped == int(dead)
        results.append((C.tobytes(), S.tobytes(), V.tobytes(), rr))
    assert results[0] == results[1]


@pytest.mark.parametrize("n", [9, 2 * tile_width(5) + 3], ids=["one-tile", "three-tiles"])
@pytest.mark.parametrize("dead", [0, 2, 4], ids=["first", "middle", "last"])
def test_c_rowwise_sweep_matches_elementwise_with_a_dead_row(dead, n):
    # row i reads the rows after it through Q's one product and the rows
    # before it through L; a dead row (b_i = 0, g_ii under the floor) in
    # either place keeps its old values, and every other row still takes
    # the elementwise update, across tile boundaries too. rr is
    # `residual_sq` of the updated C to the last bit
    m, k = 5, 5
    rng = np.random.default_rng(dead + n)
    X = rng.uniform(0.0, 1.0, size=(m, n))
    B = np.asfortranarray(rng.uniform(0.1, 1.0, size=(m, k)))
    B[:, dead] = 0.0
    C0 = rng.uniform(0.0, 1.0, size=(k, n))
    C, S, V, rr, skipped = sweep(X, B, C0)
    C_ref, skipped_ref = elementwise_c_pass(X, B, C0)
    assert skipped == skipped_ref == 1
    assert np.array_equal(C[dead], C0[dead])
    assert np.allclose(C, C_ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(S, X @ C.T, rtol=1e-12)
    assert np.allclose(V, C @ C.T, rtol=1e-12)
    assert rr == residual_sq(X, B, C)


def test_bcd_coordinate_optimality_after_element_update():
    # the projected gradient of each one-variable problem vanishes right
    # after its row is updated; the last row swept is checked, with every
    # row brought to the end of the order in turn
    X, B0, C0 = make_factors(4, 7, 3, 7)
    for last in range(3):
        order = [i for i in range(3) if i != last] + [last]
        B = B0[:, order]
        C, _, _, _, _ = sweep(X, B, C0[order])
        g = -(B[:, -1] @ (X - B @ C))
        pg = np.where(C[-1] > 0, g, np.minimum(g, 0.0))
        assert np.abs(pg).max() <= 1e-10


# BCD: the dbcd worker on a one-rank world


def test_bcd_scalar_instance_reaches_exact_fit():
    X = np.asfortranarray([[2.0, 4.0]])
    b = bcd(X, [[1.0]], [[1.0, 1.0]])
    resid = b.step()
    # C-first: c = (2, 4) against b = 1, then b = 1 stays optimal
    assert np.allclose(b.C, [[2.0, 4.0]])
    assert np.allclose(b.B, [[1.0]])
    assert 0.5 * resid <= 1e-28


def test_bcd_is_gram_form_hals():
    # textbook Gram-form HALS, all rows of C then all columns of B, each a
    # projected Newton step; bcd drops the +c_i/-c_i pair, so the factors
    # agree to rounding
    for lowrank in (False, True):
        X, B, C = make_factors(20, 3000, 5, 4, lowrank=lowrank)
        b = bcd(X, B, C)
        for _ in range(100):
            b.step()
            G, P = B.T @ B, B.T @ X
            for i in range(5):
                C[i] = np.maximum(C[i] + (P[i] - G[i] @ C) / G[i, i], 0.0)
            H, Q = C @ C.T, X @ C.T
            for i in range(5):
                B[:, i] = np.maximum(B[:, i] + (Q[:, i] - B @ H[:, i]) / H[i, i], 0.0)
        assert np.abs(b.B - B).max() <= 1e-12 * np.abs(B).max()
        assert np.abs(b.C - C).max() <= 1e-12 * np.abs(C).max()


def test_bcd_fixed_point():
    rng = np.random.default_rng(5)
    B = rng.uniform(0.5, 1.5, size=(5, 3))
    C = rng.uniform(0.5, 1.5, size=(3, 11))
    b = bcd(B @ C, B, C)
    b.step()
    assert np.allclose(b.B, B, rtol=1e-12)
    assert np.allclose(b.C, C, rtol=1e-12)


def test_bcd_monotone_and_residual_integrity():
    b = bcd(*make_factors(5, 80, 3, 6))
    prev = b.recomputed()
    for _ in range(60):
        cur = b.step()
        assert cur <= prev + 1e-10
        prev = cur
    assert cur == pytest.approx(b.recomputed(), rel=1e-12)


def test_bcd_strict_decrease_regression_pin():
    # frozen at first run; guards against silent kernel changes
    b = bcd(*make_factors(5, 100, 3, 11))
    objs = [0.5 * b.step() for _ in range(10)]
    assert all(y < x for x, y in zip(objs, objs[1:]))
    assert objs[-1] == pytest.approx(8.02582254169409, rel=1e-12)


# ANLS


def test_anls_k1_matches_closed_form():
    X, B0, C0 = make_factors(3, 12, 1, 8)
    a = anls(X, B0, C0)
    a.step()
    c_expected = np.maximum((B0[:, 0] @ X) / float(B0[:, 0] @ B0[:, 0]), 0.0)
    # the B step then reacts to the new C, so check C against the closed form
    assert np.allclose(a.C[0], c_expected, rtol=1e-10)


def test_anls_fixed_point():
    rng = np.random.default_rng(9)
    B = rng.uniform(0.5, 1.5, size=(4, 2))
    C = rng.uniform(0.5, 1.5, size=(2, 9))
    X = np.asfortranarray(B @ C)
    a = anls(X, B, C)
    a.step()
    assert np.allclose(a.B @ a.C, X, atol=1e-10)


def test_anls_monotone_and_each_block_optimal():
    X, B0, C0 = make_factors(5, 40, 3, 10)
    a = anls(X, B0, C0)
    prev = a.recomputed()
    for _ in range(25):
        cur = a.step()
        assert cur <= prev + 1e-10
        prev = cur
    # B was solved last, so it is exactly optimal for the final C
    # (re-solving that block changes nothing)
    B_again = nnls_rows(a.C @ a.C.T, X @ a.C.T)
    assert np.allclose(B_again, a.B, atol=1e-8)


# degenerate bookkeeping


def test_degenerate_events_counted_once_per_skip():
    X = np.asfortranarray([[1.0, 2.0]])
    b = bcd(X, [[0.0]], [[0.0, 0.0]])
    b.step()
    # dead b kills the C row update; dead c then kills the B column update
    assert b.skipped == 2
    assert np.array_equal(b.B, [[0.0]])
    assert np.array_equal(b.C, [[0.0, 0.0]])
