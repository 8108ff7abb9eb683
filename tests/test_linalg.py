"""Dense linear-algebra kernel: oracles and conventions.

Every factorization is checked against what it must reproduce (the input
matrix, the Moore-Penrose identities, numpy's reference solvers) rather
than against stored outputs.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from brickbg import linalg


def random_matrix(seed, rows, cols, rank=None):
    gen = np.random.default_rng(seed)
    if rank is None:
        return gen.normal(size=(rows, cols))
    left = gen.normal(size=(rows, rank))
    right = gen.normal(size=(rank, cols))
    return left @ right


matrix_params = st.tuples(
    st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8)
)


# --- svd_stack -----------------------------------------------------------


@given(matrix_params)
def test_svd_reconstructs_input(params):
    seed, rows, cols = params
    w = random_matrix(seed, rows, cols)
    [u], [sigma], [q] = linalg.svd_stack(w[None])
    rebuilt = u @ np.diag(sigma) @ q.T
    assert np.allclose(rebuilt, w, atol=1e-10 * max(1.0, np.abs(w).max()))


@given(matrix_params)
def test_svd_factor_shapes_and_orthonormality(params):
    seed, rows, cols = params
    w = random_matrix(seed, rows, cols)
    [u], [sigma], [q] = linalg.svd_stack(w[None])
    k = min(rows, cols)
    assert u.shape == (rows, k)
    assert q.shape == (cols, k)
    assert sigma.shape == (k,)
    assert np.allclose(u.T @ u, np.eye(k), atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)


@given(matrix_params)
def test_svd_sigma_descending_nonnegative(params):
    seed, rows, cols = params
    _, [sigma], _ = linalg.svd_stack(random_matrix(seed, rows, cols)[None])
    assert (sigma >= 0).all()
    assert (np.diff(sigma) <= 0).all()


@given(matrix_params)
def test_svd_sign_convention(params):
    """The largest-magnitude entry of every left singular vector is >= 0."""
    seed, rows, cols = params
    [u], _, _ = linalg.svd_stack(random_matrix(seed, rows, cols)[None])
    for j in range(u.shape[1]):
        col = u[:, j]
        assert col[np.argmax(np.abs(col))] >= 0.0


def test_svd_rank_deficient_snaps_zeros():
    w = random_matrix(3, 6, 4, rank=2)
    [u], [sigma], [q] = linalg.svd_stack(w[None])
    assert sigma[2] == 0.0 and sigma[3] == 0.0
    rebuilt = u @ np.diag(sigma) @ q.T
    assert np.allclose(rebuilt, w, atol=1e-10)


def test_svd_zero_matrix():
    _, [sigma], _ = linalg.svd_stack(np.zeros((1, 3, 2)))
    assert (sigma == 0.0).all()


def test_svd_stack_matches_single():
    gen = np.random.default_rng(11)
    stack = gen.normal(size=(7, 5, 3))
    u, s, q = linalg.svd_stack(stack)
    for i in range(stack.shape[0]):
        [u1], [s1], [q1] = linalg.svd_stack(stack[i : i + 1])
        assert np.array_equal(u[i], u1)
        assert np.array_equal(s[i], s1)
        assert np.array_equal(q[i], q1)


def test_chunked_stack_matches_unchunked(monkeypatch):
    gen = np.random.default_rng(5)
    stack = gen.normal(size=(10, 4, 4))
    u0, s0, q0 = linalg.svd_stack(stack)
    monkeypatch.setattr(linalg, "_CHUNK", 3)
    u1, s1, q1 = linalg.svd_stack(stack)
    assert np.array_equal(u0, u1)
    assert np.array_equal(s0, s1)
    assert np.array_equal(q0, q1)


# --- eigh_stack --------------------------------------------------------


@given(st.tuples(st.integers(0, 2**31 - 1), st.integers(1, 8)))
def test_eigh_stack_reconstructs(params):
    seed, n = params
    a = random_matrix(seed, n, n)
    s = a + a.T
    vals, vecs = linalg.eigh_stack(s[None])
    vals, vecs = vals[0], vecs[0]
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, s, atol=1e-9 * max(1.0, np.abs(s).max()))
    assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)
    assert (np.diff(vals) <= 0).all()


# --- pinv --------------------------------------------------------------


@given(st.tuples(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8),
                 st.booleans()))
def test_pinv_moore_penrose_identities(params):
    seed, rows, cols, deficient = params
    rank = max(1, min(rows, cols) - 1) if deficient else None
    a = random_matrix(seed, rows, cols, rank=rank)
    [p] = linalg.pinv_stack(a[None])
    scale = max(1.0, np.abs(a).max())
    assert np.allclose(a @ p @ a, a, atol=1e-9 * scale)
    assert np.allclose(p @ a @ p, p, atol=1e-9 * max(1.0, np.abs(p).max()))
    assert np.allclose((a @ p).T, a @ p, atol=1e-9)
    assert np.allclose((p @ a).T, p @ a, atol=1e-9)


def test_pinv_zero_matrix_is_zero():
    assert (linalg.pinv_stack(np.zeros((1, 3, 2))) == 0.0).all()


def test_pinv_matches_numpy_on_full_rank():
    a = random_matrix(9, 5, 3)
    assert np.allclose(linalg.pinv_stack(a[None])[0], np.linalg.pinv(a), atol=1e-10)
