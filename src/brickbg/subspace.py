"""Per-location linear dynamic models learned from brick descriptors.

Each spatial location keeps a model

    v_i = C z_i + w_i         (appearance: orthonormal basis C, m x d)
    z_(i+1) = A z_i + B e_i   (state dynamics, noise input B, d x d_eps)

identified from a window of descriptors by thin SVD: the basis is the top
left singular vectors, states are the corresponding scaled right singular
vectors, the transition matrix is a least-squares fit over consecutive
state pairs, and the noise shaping matrix comes from the SVD of the
prediction residuals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .features import BrickDescriptor

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


def select_dim(singular_values, threshold: float, floor: int = 0) -> int:
    """Number of leading values strictly above ``threshold``.

    ``singular_values`` must be non-increasing and non-negative.  The
    result is clamped to ``[floor, len(singular_values)]``; appearance
    selection uses ``floor=1`` so a basis always has at least one column,
    noise-dimension selection uses ``floor=0``.
    """
    vals = np.asarray(singular_values, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("singular values must be a non-empty vector")
    if (vals < 0).any() or (np.diff(vals) > 0).any():
        raise ValueError("singular values must be non-increasing and >= 0")
    if not 0 <= floor <= vals.size:
        raise ValueError("floor out of range")
    return int(select_dims(vals, threshold, floor))


def select_dims(singular_values: np.ndarray, threshold, floor: int = 0) -> np.ndarray:
    """Stacked ``select_dim`` over the last axis, unchecked.

    ``threshold`` broadcasts against ``singular_values``, e.g. a (g, 1)
    column of per-row thresholds for (g, r) spectra.
    """
    count = (singular_values > threshold).sum(axis=-1)
    return np.clip(count, floor, singular_values.shape[-1])


@dataclass
class SubspaceModel:
    """Mutable per-location model state.

    ``states`` is a ring buffer of recent state vectors (oldest first);
    ``b_pinv`` caches the pseudo-inverse of ``b`` for residual tests.
    """

    c: np.ndarray                 # (m, d) orthonormal columns
    lam: np.ndarray               # (d,) appearance eigenvalues
    a: np.ndarray                 # (d, d) state transition
    b: np.ndarray                 # (d, d_eps) noise shaping
    b_pinv: np.ndarray            # (d_eps, d)
    z_latest: np.ndarray          # (d,)
    history: int = DEFAULT_HISTORY
    states: deque = field(default_factory=deque)

    def __post_init__(self):
        if not isinstance(self.states, deque) or self.states.maxlen != self.history:
            self.states = deque(self.states, maxlen=self.history)

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def d(self) -> int:
        return self.c.shape[1]

    @property
    def d_eps(self) -> int:
        return self.b.shape[1]


def model_from_slice(c, lam, a, b, b_pinv, d_eps, states, history: int) -> SubspaceModel:
    """Copy one slice of stacked model arrays into a standalone ``SubspaceModel``.

    ``b`` and ``b_pinv`` are the zero-padded (d, d) slices and are cut to
    the ``d_eps`` live columns and rows.  ``states`` is (k, d), oldest
    first; the newest ``history`` of them seed the ring and the newest one
    is ``z_latest``.
    """
    de = int(d_eps)
    model = SubspaceModel(
        c=c.copy(),
        lam=lam.copy(),
        a=a.copy(),
        b=b[:, :de].copy(),
        b_pinv=b_pinv[:de, :].copy(),
        z_latest=states[-1].copy(),
        history=history,
    )
    model.states.extend(z.copy() for z in states)
    return model


def _descriptor_matrix(descriptors) -> np.ndarray:
    cols = []
    for item in descriptors:
        vec = item.values if isinstance(item, BrickDescriptor) else np.asarray(item, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError("each descriptor must be a vector")
        cols.append(vec)
    if len(cols) < 2:
        raise InsufficientData(f"need at least 2 descriptors, got {len(cols)}")
    lengths = {c.shape[0] for c in cols}
    if len(lengths) != 1:
        raise ValueError(f"descriptor lengths differ: {sorted(lengths)}")
    return np.stack(cols, axis=1)


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


def identify_stack(u: np.ndarray, sigma: np.ndarray, q: np.ndarray, d: int, t_deps: float):
    """Model parameters from a stacked thin SVD of descriptor windows.

    Inputs are the (g, m, r), (g, r), (g, n, r) factors of g descriptor
    matrices with n columns each; ``d`` is the shared appearance dimension.
    Returns ``(c, lam, z, a, b, b_pinv, d_eps)`` with ``z`` shaped
    (g, d, n) and ``b`` zero-padded to (g, d, d).
    """
    n = q.shape[1]
    c = u[:, :, :d]
    lam = sigma[:, :d] ** 2 / n
    z = sigma[:, :d, None] * np.swapaxes(q, 1, 2)[:, :d, :]   # (g, d, n)
    a, b, b_pinv, d_eps = fit_dynamics_stack(np.swapaxes(z, 1, 2), t_deps)
    return c, lam, z, a, b, b_pinv, d_eps


def learn_initial(
    descriptors,
    t_d: float = DEFAULT_T_D,
    t_deps: float = DEFAULT_T_DEPS,
    history: int = DEFAULT_HISTORY,
) -> SubspaceModel:
    """Identify a model from an initial window of descriptors.

    ``t_d`` and ``t_deps`` are fractions of the respective dominant singular
    values.  The appearance dimension is the count of singular values above
    ``t_d`` times the largest one (at least 1); the noise dimension is the
    count of residual singular values above ``t_deps`` times the largest
    residual one (possibly 0, in which case the state-innovation test
    degenerates and callers fall back to the appearance residual).  The
    state ring buffer is seeded with the last ``min(history, n)`` states and
    ``z_latest`` with the newest one.
    """
    w = _descriptor_matrix(descriptors)
    if history < 2:
        raise ValueError("history must be at least 2")
    res = linalg.svd(w)
    d = select_dim(res.sigma, t_d * float(res.sigma[0]), floor=1)
    c, lam, z, a, b, b_pinv, d_eps = identify_stack(
        res.u[None], res.sigma[None], res.q[None], d, t_deps
    )
    return model_from_slice(
        c[0], lam[0], a[0], b[0], b_pinv[0], d_eps[0], z[0].T, history
    )
