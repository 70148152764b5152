import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didnmf.harness import RunConfig, run, synth_lowrank
from didnmf.nnls import (
    KKT_TOL,
    NnlsError,
    _kkt_violations,
    _solve_patterns,
    nnls_oracle,
    nnls_rows,
    row_objectives,
)


def random_psd(k, rng, extra_rows=2):
    a = rng.normal(size=(k + extra_rows, k))
    return a.T @ a


def kkt_residuals(G, R, B):
    """(max negative gradient, max complementarity) over all rows."""
    Y = B @ G - R
    comp = np.einsum("ij,ij->i", B, Y)
    return float(np.max(-Y, initial=0.0)), float(np.max(comp, initial=0.0))


# oracle first: the enumeration solver must be right before anything else
# leans on it


def test_oracle_identity_gram():
    G = np.eye(2)
    R = np.array([[1.0, -1.0]])
    assert np.allclose(nnls_oracle(G, R), [[1.0, 0.0]])


def test_oracle_coupled_gram():
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = np.array([[1.0, 1.0]])
    assert np.allclose(nnls_oracle(G, R), [[1.0 / 3.0, 1.0 / 3.0]], atol=1e-14)


def test_oracle_all_negative_linear_term():
    G = np.eye(3)
    R = np.array([[-1.0, -2.0, -0.5]])
    assert np.array_equal(nnls_oracle(G, R), [[0.0, 0.0, 0.0]])


def test_oracle_beats_random_feasible_points():
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        G = random_psd(k, rng)
        R = rng.normal(size=(3, k))
        best = nnls_oracle(G, R)
        best_obj = row_objectives(G, R, best)
        for _ in range(50):
            cand = rng.uniform(0, 2, size=(3, k))
            assert (row_objectives(G, R, cand) >= best_obj - 1e-9).all()


def test_oracle_refuses_large_k():
    with pytest.raises(ValueError):
        nnls_oracle(np.eye(13), np.ones((1, 13)))


# fast path


def test_nnls_rows_matches_oracle_examples():
    G = np.eye(2)
    R = np.array([[1.0, -1.0]])
    assert np.allclose(nnls_rows(G, R), [[1.0, 0.0]])
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = np.array([[1.0, 1.0]])
    assert np.allclose(nnls_rows(G, R), [[1.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_nnls_rows_scalar_gram():
    G = np.array([[4.0]])
    R = np.array([[8.0], [-8.0], [0.0]])
    assert np.allclose(nnls_rows(G, R), [[2.0], [0.0], [0.0]])


def test_nnls_rows_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        rows = int(rng.integers(1, 9))
        G = random_psd(k, rng)
        R = rng.normal(size=(rows, k)) * rng.choice([0.5, 1.0, 5.0])
        fast = nnls_rows(G, R)
        ref = nnls_oracle(G, R)
        obj_fast = row_objectives(G, R, fast)
        obj_ref = row_objectives(G, R, ref)
        scale = np.maximum(np.abs(obj_ref), 1e-12)
        assert (np.abs(obj_fast - obj_ref) / scale <= 1e-8).all()
        grad_neg, comp = kkt_residuals(G, R, fast)
        assert grad_neg <= KKT_TOL
        assert comp <= KKT_TOL
        assert (fast >= 0.0).all()


def test_nnls_rows_drops_zero_diagonal_coordinates():
    G = np.array([[2.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0],
                  [0.0, 0.0, 3.0]])
    R = np.array([[4.0, 7.0, 6.0], [1.0, -2.0, -3.0]])
    out = nnls_rows(G, R)
    assert np.allclose(out, [[2.0, 0.0, 2.0], [0.5, 0.0, 0.0]])


def test_nnls_rows_all_dead_gram():
    out = nnls_rows(np.zeros((2, 2)), np.ones((3, 2)))
    assert np.array_equal(out, np.zeros((3, 2)))


def test_nnls_rows_rejects_asymmetric_gram():
    with pytest.raises(ValueError):
        nnls_rows(np.array([[1.0, 0.5], [0.2, 1.0]]), np.ones((1, 2)))


def test_nnls_rows_shape_validation():
    with pytest.raises(ValueError):
        nnls_rows(np.eye(2), np.ones((3, 4)))
    with pytest.raises(ValueError):
        nnls_rows(np.ones((2, 3)), np.ones((3, 3)))


def test_nnls_error_carries_best_iterate():
    err = NnlsError("cap", np.ones((2, 2)))
    assert err.best.shape == (2, 2)


def test_nnls_rows_ill_conditioned_gram():
    # heavily ridged rank-1 Gram (condition ~1e6) still meets the KKT bar
    rng = np.random.default_rng(12)
    a = rng.normal(size=(1, 3))
    G = a.T @ a + 1e-6 * np.eye(3)
    R = rng.normal(size=(5, 3))
    out = nnls_rows(G, R)
    grad_neg, comp = kkt_residuals(G, R, out)
    assert (out >= 0.0).all()
    assert grad_neg <= KKT_TOL and comp <= KKT_TOL


def test_nnls_rows_meets_kkt_on_a_near_collinear_gram():
    # A's last column is its first plus 1e-7 noise, so cond(G) is ~5e15.
    # Full exchange alone cycles on one of these rows; the backup rule's
    # single flips end its pivoting at a KKT point.
    rng = np.random.default_rng(10016)
    m = int(rng.integers(8, 34))
    a = rng.uniform(size=(m, 8))
    a[:, -1] = a[:, 0] + 1e-7 * rng.uniform(size=m)
    x = rng.uniform(size=(m, 200)) - 0.3
    G, R = a.T @ a, x.T @ a
    assert np.linalg.cond(G) > 1e15
    out = nnls_rows(G, R)
    assert (out >= 0.0).all()
    assert not _kkt_violations(G, R, out, out @ G - R).any()


def test_nnls_rows_judges_kkt_relative_to_the_scale_of_the_gram():
    # A's columns are scaled by 1, 1e3 and 1e6, so G's diagonal reaches
    # ~1e12 (cond ~1e12). One row's passive gradient entry is ~7e-5, the
    # rounding of a ~1e6 diagonal, and b.g ~5e-8: an absolute 1e-8 test
    # rejects it, and the gradient polish (step 1/lambda_max ~5e-13)
    # cannot move it. Judged against |b| |G| + |r| it is a KKT point, and
    # every row's objective is the enumeration oracle's
    rng = np.random.default_rng(70)
    m = int(rng.integers(3, 14))
    a = rng.random((m, 3)) * np.logspace(0, 6, 3)
    x = rng.random((m, 500))
    G, R = a.T @ a, x.T @ a
    assert np.diag(G).max() > 1e12
    out = nnls_rows(G, R)
    assert (out >= 0.0).all()
    assert not _kkt_violations(G, R, out, out @ G - R).any()
    obj, ref = row_objectives(G, R, out), row_objectives(G, R, nnls_oracle(G, R))
    assert (obj - ref <= 1e-8 * np.abs(ref)).all()


def test_nnls_row_keys_group_patterns_in_sorted_order():
    # the packed integer key orders passive sets as np.unique's row sort
    # does, so the grouped solve is the same solve, bit for bit
    rng = np.random.default_rng(3)
    for k in (1, 3, 10, 30, 62, 63, 64):
        G = random_psd(k, rng, extra_rows=k)
        R = rng.normal(size=(200, k))
        passive = rng.random((200, k)) < 0.6
        passive[:5] = True
        passive[5:8] = False
        got = _solve_patterns(G, R, passive)
        ref = np.zeros_like(R)
        patterns, inverse = np.unique(passive, axis=0, return_inverse=True)
        for pid, pat in enumerate(patterns):
            rows, free = np.nonzero(inverse.ravel() == pid)[0], np.nonzero(pat)[0]
            if free.size:
                ref[np.ix_(rows, free)] = np.linalg.solve(
                    G[np.ix_(free, free)], R[np.ix_(rows, free)].T).T
        assert got.tobytes() == ref.tobytes(), k


@pytest.mark.parametrize("alg,p", [("anls", 1), ("dadmm", 2)])
def test_als_solvers_finish_on_a_rank_deficient_factor(alg, p):
    # K=5 on rank-3 data: the factors' Grams go near-singular as the
    # residual falls, and every NNLS row must still end at a KKT point
    config = RunConfig(algorithm=alg, m=5, n=100, k=5, p=p, seed=6,
                       epsilon=1e-30, max_iters=150)
    assert run(config, X=synth_lowrank(5, 100, 3, 6)).converged


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_nnls_positive_homogeneity(seed, alpha):
    # scaling R by alpha > 0 scales the solution by alpha (G fixed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    G = random_psd(k, rng)
    R = rng.normal(size=(4, k))
    base = nnls_rows(G, R)
    scaled = nnls_rows(G, alpha * R)
    assert np.allclose(scaled, alpha * base, rtol=1e-7, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_nnls_solution_feasible_and_stationary(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    G = random_psd(k, rng)
    R = rng.normal(size=(int(rng.integers(1, 12)), k))
    out = nnls_rows(G, R)
    assert (out >= 0.0).all()
    grad_neg, comp = kkt_residuals(G, R, out)
    assert grad_neg <= KKT_TOL and comp <= KKT_TOL
