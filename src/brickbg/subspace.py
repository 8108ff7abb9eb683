"""Per-location linear dynamic models learned from brick descriptors.

Each spatial location keeps a model

    v_i = C z_i + w_i         (appearance: orthonormal basis C, m x d)
    z_(i+1) = A z_i + B e_i   (state dynamics, noise input B, d x d_eps)

identified from a window of descriptors by thin SVD: the basis is the top
left singular vectors, states are the corresponding scaled right singular
vectors, the transition matrix is a least-squares fit over consecutive
state pairs, and the noise shaping matrix comes from the SVD of the
prediction residuals.

``ModelBucket`` is the one model record, stacked over the cells that
share a state dimension.  ``identify_stack`` is the one identification
path: from the stacked SVD factors of g descriptor windows it cuts each
rank, fits the dynamics and seeds the rings, returning one bucket per
state dimension.  ``pipeline.initialize`` calls it on every grid cell and
``learn_initial`` is its one-cell view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_T_D = 0.5
DEFAULT_T_DEPS = 0.5
DEFAULT_HISTORY = 60

# Residual spectra whose largest singular value falls below this fraction of
# the state magnitude are treated as exactly predictable dynamics (d_eps = 0)
# rather than as a noise basis of floating-point dust.
EXACT_DYNAMICS_RTOL = 1e-9

# Widest band below 1 within which a fitted spectral radius may be snapped to
# exactly 1; the actual band is the fit's relative residual, capped here so a
# badly-fitting transition map is never mistaken for a persistent mean.
UNIT_RADIUS_BAND = 0.1


class InsufficientData(ValueError):
    """Too few descriptors to identify a model."""


def select_dims(singular_values: np.ndarray, threshold, floor: int = 0) -> np.ndarray:
    """Count of values above ``threshold`` along the last axis, clamped to [floor, r].

    Spectra are non-increasing and unchecked; ``threshold`` broadcasts, e.g.
    a (g, 1) column of per-row thresholds for (g, r) spectra.
    """
    count = (singular_values > threshold).sum(axis=-1)
    return np.clip(count, floor, singular_values.shape[-1])


@dataclass
class ModelBucket:
    """Models of g cells sharing one state dimension d, stored as arrays.

    This is the one model record: the engine keeps one bucket per state
    dimension, and ``learn_initial`` and ``pipeline.model_at`` return a
    bucket of one cell.  ``b`` is zero-padded to (g, d, d); columns past
    ``d_eps[i]`` are zero and the matching ``b_pinv`` rows are zero, so
    padded innovation coordinates come out exactly 0 and never affect a max
    test.  The newest state is ``states[:, n_states - 1]``.
    """

    indices: np.ndarray   # (g,) row-major cell ids
    c: np.ndarray         # (g, m, d) orthonormal columns
    lam: np.ndarray       # (g, d) appearance eigenvalues
    a: np.ndarray         # (g, d, d) state transition
    b: np.ndarray         # (g, d, d) noise shaping, zero past d_eps
    b_pinv: np.ndarray    # (g, d, d) pseudo-inverse of b, zero past d_eps
    d_eps: np.ndarray     # (g,)
    states: np.ndarray    # (g, history, d) ring, oldest first, newest at n_states - 1
    observed: np.ndarray  # (g, history) which ring states came from real data
    n_states: int

    @property
    def d(self) -> int:
        return self.c.shape[2]


def fit_dynamics_stack(states: np.ndarray, t_deps: float, observed=None):
    """Refit (A, B) from stacked state windows.

    ``states`` is (g, k, d), oldest state first.  Returns ``(a, b, b_pinv,
    d_eps)`` where ``b`` is zero-padded to (g, d, d) and ``d_eps`` holds the
    per-slice selected noise dimension; rows of ``b_pinv`` beyond it are
    exactly zero.

    B is the residual SVD's U scaled column by column (``scale_j =
    s_j / sqrt(n)``), so its pseudo-inverse needs no second factorization:
    row j of ``b_pinv`` is ``u_j^T / scale_j``, with reciprocals cut below
    ``linalg.PINV_RTOL`` times the largest scale as ``linalg.pinv`` cuts them.

    ``t_deps`` is a fraction of the dominant residual singular value: a noise
    direction is kept while its singular value exceeds ``t_deps`` times the
    largest one.  Slices whose entire residual is negligible next to the state
    magnitude get ``d_eps = 0`` (exactly predictable dynamics).

    ``observed`` is an optional (g, k) boolean array marking which states came
    from real observations rather than model-synthesized replacements.  A
    synthesized state follows the transition map by construction, so its
    innovation is spurious zero; counting it would shrink the noise estimate a
    little more on every occluded step until the innovation test can never
    pass again.  Transitions landing on a synthesized state are therefore
    excluded from the noise fit (the transition fit keeps them: they are
    consistent with the current map and keep it stable under occlusion).

    The fitted transition map is projected toward spectral radius 1.  A
    stationary background keeps its mean, so the dominant transition
    eigenvalue of its state process is 1; least squares over a short noisy
    buffer estimates it only to within the fit's relative residual.  Yet
    while a location is being synthesized the map is iterated on its own
    output, so a spuriously expanding map diverges and a spuriously decaying
    one melts away — either way the prediction walks off the data and the
    location can never test as background again.  Radii above 1, or within
    the residual tolerance below it, are therefore normalized to exactly 1
    (synthesis coasts); clearly sub-unit radii are genuine decay and kept.
    """
    g, k, d = states.shape
    if k < 2:
        raise InsufficientData("need at least 2 states to fit dynamics")
    z = np.swapaxes(states, 1, 2)          # (g, d, k)
    z1 = z[:, :, :-1]
    z2 = z[:, :, 1:]
    a = z2 @ linalg.pinv_stack(z1)
    rough = z2 - a @ z1
    radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
    scale_norm = np.maximum(
        np.linalg.norm(z1.reshape(g, -1), axis=1), np.finfo(np.float64).tiny
    )
    tolerance = np.minimum(
        np.linalg.norm(rough.reshape(g, -1), axis=1) / scale_norm,
        UNIT_RADIUS_BAND,
    )
    snap = radius >= 1.0 - tolerance
    divisor = np.where(snap & (radius > 0), radius, 1.0)
    a = a / divisor[:, None, None]
    resid = z2 - a @ z1                    # (g, d, k-1)
    if observed is None:
        n_eff = np.full(g, k - 1)
    else:
        real = np.asarray(observed, dtype=bool)
        if real.shape != (g, k):
            raise ValueError(f"observed must be shaped {(g, k)}, got {real.shape}")
        resid = resid * real[:, None, 1:]
        n_eff = real[:, 1:].sum(axis=1)
    u, s, _ = linalg.svd_stack(resid)
    magnitude = np.abs(states).max(axis=(1, 2))
    floor = EXACT_DYNAMICS_RTOL * np.maximum(magnitude, np.finfo(np.float64).tiny)
    top = s[:, 0]
    counted = select_dims(s, t_deps * top[:, None])
    d_eps = np.where(top > floor, counted, 0).astype(np.int64)
    r = s.shape[1]
    keep = np.arange(r)[None, :] < d_eps[:, None]
    scale = np.where(
        keep, s / np.sqrt(np.maximum(n_eff, 1))[:, None], 0.0
    )
    b = u * scale[:, None, :]
    live = scale > linalg.PINV_RTOL * scale[:, :1]
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=live)
    b_pinv = inv[:, :, None] * np.swapaxes(u, 1, 2)
    if r < d:  # pad so every slice is (d, d)
        b = np.concatenate([b, np.zeros((g, d, d - r))], axis=2)
        b_pinv = np.concatenate([b_pinv, np.zeros((g, d - r, d))], axis=1)
    return a, b, b_pinv, d_eps


def identify_stack(u, sigma, q, t_d: float, t_deps: float, history: int) -> list[ModelBucket]:
    """Seeded models from the stacked thin SVD of g descriptor matrices.

    Inputs are the (g, m, r), (g, r), (g, n, r) factors.  A cell keeps the
    singular values above ``t_d`` times its largest (at least 1) and the
    residual ones above ``t_deps`` times the largest residual (possibly 0).
    Returns one ``ModelBucket`` per appearance dimension d, ascending, with
    stack positions as ``indices``; each ring of ``history`` states holds
    the newest ``min(history, n)`` identified states, flagged observed.
    """
    n = q.shape[1]
    seed = min(history, n)
    dims = select_dims(sigma, t_d * sigma[:, :1], floor=1)
    buckets = []
    for d in np.unique(dims).tolist():
        idx = np.nonzero(dims == d)[0]
        z = sigma[idx][:, :d, None] * np.swapaxes(q[idx], 1, 2)[:, :d, :]   # (g, d, n)
        states = np.swapaxes(z, 1, 2)
        a, b, b_pinv, d_eps = fit_dynamics_stack(states, t_deps)
        ring = np.zeros((idx.size, history, d))
        ring[:, :seed] = states[:, n - seed :]
        observed = np.zeros((idx.size, history), dtype=bool)
        observed[:, :seed] = True
        buckets.append(ModelBucket(
            indices=idx, c=u[idx][:, :, :d], lam=sigma[idx][:, :d] ** 2 / n,
            a=a, b=b, b_pinv=b_pinv, d_eps=d_eps,
            states=ring, observed=observed, n_states=seed,
        ))
    return buckets


def learn_initial(
    w,
    t_d: float = DEFAULT_T_D,
    t_deps: float = DEFAULT_T_DEPS,
    history: int = DEFAULT_HISTORY,
) -> ModelBucket:
    """One-cell ``identify_stack`` (cell id 0) of an (m, n) descriptor matrix.

    ``w`` holds one descriptor column per window, as in ``initialize``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"descriptor matrix must be 2-D, got shape {w.shape}")
    if w.shape[1] < 2:
        raise InsufficientData(f"need at least 2 descriptors, got {w.shape[1]}")
    if history < 2:
        raise ValueError("history must be at least 2")
    res = linalg.svd(w)
    return identify_stack(res.u[None], res.sigma[None], res.q[None], t_d, t_deps, history)[0]
