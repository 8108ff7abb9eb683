"""Small dense linear-algebra kernel used by the model code.

Thin wrappers around LAPACK (through numpy) that pin down the conventions
the rest of the package relies on: descending spectra, deterministic
singular- and eigenvector signs, a zero cutoff for the SVD's rank
decisions, and one relative cutoff (``PINV_RTOL``) for pseudo-inverse
reciprocals.
Every routine works on stacks (leading batch dimension) so the pipeline
can run one call across many spatial locations; a single matrix is a
stack of one.  The engine factors only small matrices: ``eigh_stack`` of
identification's n x n Grams of the descriptor windows, of the dynamics
refit's d x d Grams and of the basis update's (d+1) x (d+1) one, and,
straight through numpy, the QR that re-orthonormalizes identified and
updated bases and the refit's ``eigvals`` of each transition map.  At
d = 1 the refit's Grams and map and the update's 2 x 2 Gram are solved
without LAPACK, so a d = 1 step runs only the update's one-column QR.
The SVD and the pseudo-inverse have no engine caller, and stay as the
tests' oracles of the Gram forms and for the benchmark's trace, which
wraps them by name.  Each routine makes one numpy call on the whole stack
it is given; the caller bounds the stack.

``parallel_map`` is the engine's one concurrency primitive.  It runs a
function over a list of independent items on the calling thread and on
one pool worker per further CPU of the process's affinity mask
(``CPUS``), and returns the results in item order, so what it computes
never depends on how many CPUs ran it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Singular values below this fraction of the largest one are treated as
# exact zeros (static video bricks produce genuinely rank-deficient data).
ZERO_CUTOFF = 1e-12

# Relative cutoff for pseudo-inverse reciprocals.
PINV_RTOL = 1e-10


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


# CPUs the process may run on when the package is imported; ``taskset``
# limits it, BLAS thread variables do not.
CPUS = _cpus()
# Workers start on first use; with one CPU there is no pool at all.
_POOL = ThreadPoolExecutor(CPUS - 1, thread_name_prefix="brickbg") if CPUS > 1 else None


class NumericalFailure(RuntimeError):
    """An iterative LAPACK driver failed to converge."""


def parallel_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on the calling thread and up to
    ``CPUS - 1`` pool workers.

    Runners take the next unclaimed item until none is left, so the caller
    always takes a share: its arrays are freed into its own allocator arena,
    which a later call on that thread reuses.  With one CPU (or one item)
    no worker is asked for and the caller runs every item in order.  A
    runner stops at the first exception it meets and the others stop
    claiming; once they are done, the exception of the lowest item index is
    re-raised as it is, type included.  Helpers no worker has started yet
    are cancelled, not awaited, so a call made from inside a worker (whose
    helpers may wait behind it in the pool) runs its items itself and
    returns.  A worker can hold a helper a little past the call (a finished
    one until it loops back, a cancelled one until it takes it from the
    queue), so the helpers reach neither ``fn`` nor the items once the call
    returns: nothing of theirs outlives it.
    """
    items = list(items)
    results = [None] * len(items)
    failures = {}
    claim = threading.Lock()
    pending = iter(range(len(items)))

    def run():
        while not failures:
            with claim:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failures[i] = exc
                return

    helpers = [_POOL.submit(run) for _ in range(min(CPUS, len(items)) - 1)]
    run()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    del fn, items           # empties the cells the helpers' ``run`` reads
    if failures:
        raise failures[min(failures)]
    return results


def _fix_signs(u: np.ndarray, *partners: np.ndarray):
    """Make the largest-magnitude entry of every column of ``u`` positive.

    The matching columns of each partner (an SVD's right vectors) are
    flipped with it so the factorization is unchanged.  Ties and zero
    columns resolve to +1 deterministically.
    """
    k = np.argmax(np.abs(u), axis=-2)
    picked = np.take_along_axis(u, k[..., None, :], axis=-2)[..., 0, :]
    signs = np.where(picked < 0.0, -1.0, 1.0)[..., None, :]
    return tuple(x * signs for x in (u, *partners))


def svd_stack(w: np.ndarray):
    """Thin SVD of a (g, m, n) stack: (u, sigma, q) with sigma descending."""
    try:
        u, s, vh = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare driver issue
        raise NumericalFailure(f"SVD did not converge: {exc}") from None
    q = np.swapaxes(vh, -1, -2)
    u, q = _fix_signs(u, q)
    smax = s[..., :1]
    s = np.where(s < ZERO_CUTOFF * smax, 0.0, s)
    return u, s, q


def eigh_stack(s: np.ndarray):
    """Symmetric eigendecomposition of a stack, eigenvalues descending.

    Eigenvectors follow the SVD's sign convention: the largest-magnitude
    entry of each is positive.
    """
    try:
        vals, vecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from None
    return vals[..., ::-1].copy(), _fix_signs(vecs[..., ::-1])[0]


def pinv_stack(a: np.ndarray):
    u, s, q = svd_stack(a)
    cut = PINV_RTOL * s[..., :1]
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (q * inv[..., None, :]) @ np.swapaxes(u, -1, -2)
