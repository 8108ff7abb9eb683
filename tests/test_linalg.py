"""Dense linear-algebra kernel: oracles and conventions.

Every factorization is checked against what it must reproduce (the input
matrix, the Moore-Penrose identities, numpy's reference solvers) rather
than against stored outputs.
"""

import os
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
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


SCENES = Path(__file__).resolve().parents[1] / "scenes"

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


# --- parallel_map ------------------------------------------------------------


@pytest.fixture
def two_runners(monkeypatch):
    """The caller and one pool worker, whatever this host's CPU count."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(linalg, "CPUS", 2)
    monkeypatch.setattr(linalg, "_POOL", pool)
    yield
    pool.shutdown()


def test_parallel_map_returns_results_in_item_order(two_runners):
    def square_after_a_nap(x):
        time.sleep(0.001 * (x % 5))        # runners finish out of item order
        return x * x

    assert linalg.parallel_map(square_after_a_nap, range(50)) == [x * x for x in range(50)]


def test_parallel_map_runs_each_item_once(monkeypatch):
    """More runners than cores and a short switch interval: an item claimed
    twice or skipped shows in the tally."""
    pool = ThreadPoolExecutor(7)
    monkeypatch.setattr(linalg, "CPUS", 8)
    monkeypatch.setattr(linalg, "_POOL", pool)
    seen = Counter()
    lock = threading.Lock()

    def record(item):
        with lock:
            seen[item] += 1
        return item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        items = list(range(5000))
        assert linalg.parallel_map(record, items) == items
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert seen == Counter(items)


def test_parallel_map_of_no_items_calls_nothing(two_runners):
    def refuse(_):
        raise AssertionError("called")

    assert linalg.parallel_map(refuse, []) == []


def test_parallel_map_reraises_numerical_failure_with_its_type(two_runners):
    def fail_at_three(item):
        if item == 3:
            raise linalg.NumericalFailure("did not converge")
        return item

    with pytest.raises(linalg.NumericalFailure, match="did not converge"):
        linalg.parallel_map(fail_at_three, range(8))


def test_parallel_map_nested_in_a_worker_returns(two_runners):
    """The inner call's helper waits behind the busy worker in the pool; it
    is cancelled, not awaited, so the inner call runs its items itself."""
    result = {}

    def outer():
        result["value"] = linalg.parallel_map(
            lambda i: sum(linalg.parallel_map(lambda j: i * j, range(5))), range(8)
        )

    runner = threading.Thread(target=outer, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested parallel_map did not return"
    assert result["value"] == [10 * i for i in range(8)]


def test_parallel_map_on_one_cpu_is_a_loop_on_the_caller(monkeypatch):
    monkeypatch.setattr(linalg, "CPUS", 1)
    monkeypatch.setattr(linalg, "_POOL", None)        # any submit would fail
    order = []
    caller = threading.get_ident()

    def record(item):
        assert threading.get_ident() == caller
        order.append(item)
        return -item

    assert linalg.parallel_map(record, range(6)) == [0, -1, -2, -3, -4, -5]
    assert order == list(range(6))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
def test_engine_starts_no_thread_in_a_one_cpu_process():
    """Limited to one CPU before the package is imported, a process runs the
    whole engine on its main thread."""
    code = (
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from brickbg import linalg\n"
        "from brickbg.config import EngineConfig\n"
        "from brickbg.pipeline import process_video\n"
        "from brickbg.synth import load_scene, render\n"
        f"frames, _ = render(load_scene({str(SCENES / 'occlusion.scene')!r}))\n"
        "for mode in ('cs_stltp', 'rgb'):\n"
        "    process_video(frames[:80], EngineConfig(mode=mode))\n"
        "print(linalg.CPUS, threading.active_count())\n"
    )
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1", "1"]
