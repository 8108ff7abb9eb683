"""Per-location linear dynamic models learned from brick descriptors.

Each spatial location keeps a model

    v_i = C z_i + w_i         (appearance: orthonormal basis C, m x d)
    z_(i+1) = A z_i + B e_i   (state dynamics, noise input B, d x d_eps)

identified from a window of n descriptors as by a thin SVD: the basis is
the top left singular vectors and states are the corresponding scaled
right singular vectors.  n is small next to m, so the singular values and
right vectors come from the n x n Gram of the descriptors and the left
vectors are formed only for the kept columns.  The dynamics are refitted
from d x d Gram matrices of the state ring: the transition matrix is the
least-squares fit over consecutive state pairs, A = (Z2 Z1^T)(Z1 Z1^T)^+,
and the noise shaping matrix comes from the eigendecomposition of the
prediction residuals' Gram R R^T, whose eigenvalues are the squared
singular values of R.  No factorization ever sees a ring-sized matrix.

``ModelBucket`` is the one model record, stacked over the cells that
share a state dimension.  ``identify_stack`` is the one identification
path: from g stacked descriptor matrices it cuts each rank, forms the
bases, fits the dynamics and keeps the newest states, returning one bucket
per state dimension.  ``pipeline.initialize`` calls it on every grid cell,
chunk by chunk, and ``regroup`` joins the chunks' buckets of each state
dimension; ``learn_initial`` is its one-cell view.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import linalg

DEFAULT_T_D = 0.5
DEFAULT_T_DEPS = 0.5
DEFAULT_HISTORY = 60

# Residual spectra whose largest singular value falls below this fraction of
# the state magnitude are treated as exactly predictable dynamics (d_eps = 0)
# rather than as a noise basis of floating-point dust.
EXACT_DYNAMICS_RTOL = 1e-9

# Eigenvalues of a Gram matrix at or below this fraction of its largest are
# exact zeros.  ``eigh`` resolves a Gram's eigenvalues only to about 1e-16 of
# the largest, so anything smaller is rounding; in singular-value terms the
# cut sits at about 3e-7 of the largest.  It serves both the pseudo-inverse
# of Z1 Z1^T and the residual spectrum.
GRAM_RTOL = 1e-13

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
    test.  ``states`` holds the k <= ``history`` newest states, oldest
    first, so the newest is ``states[:, -1]``; ``observed`` flags which of
    them came from real data.
    """

    indices: np.ndarray   # (g,) row-major cell ids
    c: np.ndarray         # (g, m, d) orthonormal columns
    lam: np.ndarray       # (g, d) appearance eigenvalues
    a: np.ndarray         # (g, d, d) state transition
    b: np.ndarray         # (g, d, d) noise shaping, zero past d_eps
    b_pinv: np.ndarray    # (g, d, d) pseudo-inverse of b, zero past d_eps
    d_eps: np.ndarray     # (g,)
    states: np.ndarray    # (g, k, d) newest k <= history states, oldest first
    observed: np.ndarray  # (g, k) which states came from real data

    @property
    def d(self) -> int:
        return self.c.shape[2]


def fit_dynamics_stack(states: np.ndarray, t_deps: float, observed=None):
    """Refit (A, B) from stacked state windows.

    ``states`` is (g, k, d), oldest state first.  Returns ``(a, b, b_pinv,
    d_eps)`` where ``b`` is zero-padded to (g, d, d) and ``d_eps`` holds the
    per-slice selected noise dimension; rows of ``b_pinv`` beyond it are
    exactly zero.

    Both fits work on d x d Grams formed from the ring.  A is
    ``(Z2 Z1^T) V diag(1/mu) V^T`` from the eigendecomposition
    ``Z1 Z1^T = V diag(mu) V^T``.  The residual R's singular values are
    ``s = sqrt(mu)`` and its left singular vectors U the eigenvectors of
    ``R R^T``; eigenvalues at or below ``GRAM_RTOL`` times the largest count
    as zero in both.  B is U scaled column by column (``scale_j =
    s_j / sqrt(n)``), so its pseudo-inverse needs no second factorization:
    row j of ``b_pinv`` is ``u_j^T / scale_j``.

    ``t_deps`` is a fraction of the dominant residual singular value: a noise
    direction is kept while its singular value exceeds ``t_deps`` times the
    largest one.  Slices whose entire residual is negligible next to the state
    magnitude get ``d_eps = 0`` (exactly predictable dynamics).

    ``observed`` is an optional (g, k) boolean array (all True when omitted)
    marking which states came from real observations rather than model-synthesized replacements.  A
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
    z1t = np.swapaxes(z1, 1, 2)
    g11 = z1 @ z1t
    mu, v = _gram_spectrum(g11)
    g21v = z2 @ z1t @ v                    # (Z2 Z1^T) V
    live = mu[:, None, :] > 0.0
    a = np.divide(g21v, mu[:, None, :], out=np.zeros_like(g21v), where=live) @ np.swapaxes(v, 1, 2)
    fitted = a @ z1                        # both residuals below subtract it
    rough = z2 - fitted
    radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
    # |Z1|_F^2 is the trace of Z1 Z1^T.
    scale_norm = np.maximum(
        np.sqrt(np.trace(g11, axis1=1, axis2=2)), np.finfo(np.float64).tiny
    )
    # The relative residual, capped at the band.  Where the residual
    # exceeds the scale (all-zero older states leave the scale at tiny) the
    # ratio is at least 1, above the cap, and is not formed, so it cannot
    # overflow.
    rough_norm = np.sqrt(np.einsum("gij,gij->g", rough, rough))
    tolerance = np.minimum(
        np.divide(rough_norm, scale_norm, out=np.ones_like(rough_norm),
                  where=rough_norm <= scale_norm),
        UNIT_RADIUS_BAND,
    )
    snap = radius >= 1.0 - tolerance
    divisor = np.where(snap & (radius > 0), radius, 1.0)
    a = a / divisor[:, None, None]
    fitted /= divisor[:, None, None]
    resid = np.subtract(z2, fitted, out=rough)         # (g, d, k-1)
    real = np.ones((g, k), dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if real.shape != (g, k):
        raise ValueError(f"observed must be shaped {(g, k)}, got {real.shape}")
    resid *= real[:, None, 1:]
    n_eff = real[:, 1:].sum(axis=1)
    mu, u = _gram_spectrum(resid @ np.swapaxes(resid, 1, 2))
    s = np.sqrt(mu)
    magnitude = np.maximum(states.max(axis=(1, 2)), -states.min(axis=(1, 2)))
    floor = EXACT_DYNAMICS_RTOL * np.maximum(magnitude, np.finfo(np.float64).tiny)
    top = s[:, 0]
    counted = select_dims(s, t_deps * top[:, None])
    d_eps = np.where(top > floor, counted, 0).astype(np.int64)
    keep = np.arange(d)[None, :] < d_eps[:, None]
    scale = np.where(
        keep, s / np.sqrt(np.maximum(n_eff, 1))[:, None], 0.0
    )
    b = u * scale[:, None, :]
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0.0)
    b_pinv = inv[:, :, None] * np.swapaxes(u, 1, 2)
    return a, b, b_pinv, d_eps


def _gram_spectrum(gram: np.ndarray):
    """Descending eigenpairs of stacked PSD Grams, rounding cut to exact zeros.

    Eigenvalues at or below ``GRAM_RTOL`` times the largest (negative
    rounding included) become 0; eigenvectors keep ``linalg``'s sign
    convention.
    """
    mu, vecs = linalg.eigh_stack(gram)
    return np.where(mu > GRAM_RTOL * mu[:, :1], mu, 0.0), vecs


def gram_safe_magnitude(m: int, k: int) -> float:
    """Largest descriptor entry magnitude at which no model Gram overflows.

    For m-entry descriptors of entries up to x in magnitude, a state (a
    descriptor's coordinates in an orthonormal basis) has squared norm at
    most m x^2, so a Gram of up to k states, or the n x n Gram of n <= k
    descriptors, has entries at most k m x^2.  The dynamics residual is
    ``Z2 - (A Z1) / radius`` with A Z1 a projection of Z2 and the radius
    at least 1 - ``UNIT_RADIUS_BAND``, so its norm is at most the factor
    ``gain`` times that of the states.
    """
    gain = 1.0 + 1.0 / (1.0 - UNIT_RADIUS_BAND)
    return float(np.sqrt(np.finfo(np.float64).max / (m * k))) / gain


def identify_stack(w, t_d: float, t_deps: float, history: int) -> list[ModelBucket]:
    """Seeded models from g descriptor matrices, identified in Gram form.

    ``w`` is (g, n, m), row i of each matrix the descriptor of window i.
    Each cell's singular values and right singular vectors come from the
    eigendecomposition of its n x n Gram W W^T (``_gram_spectrum``, so
    values at or below about 3e-7 of the largest count as zero).  A cell
    keeps the singular values above ``t_d`` times its largest (at least 1)
    and the residual ones above ``t_deps`` times the largest residual
    (possibly 0).  The left singular vectors W^T q_j / sigma_j are formed
    only for the columns some cell keeps, and each bucket's are
    re-orthonormalized by a QR pass that keeps every column's orientation,
    so C^T C = I to rounding at any ``t_d``; an all-zero cell gets e_1.
    Bases follow ``linalg``'s sign convention, states flipped with them.
    Returns one ``ModelBucket`` per appearance dimension d, ascending, with
    stack positions as ``indices``; each keeps the newest ``min(history,
    n)`` identified states, all flagged observed.
    """
    n = w.shape[1]
    seed = min(history, n)
    mu, q = _gram_spectrum(w @ np.swapaxes(w, 1, 2))
    sigma = np.sqrt(mu)
    dims = select_dims(sigma, t_d * sigma[:, :1], floor=1)
    # Rows j of Q^T W, one at a time, so each cell's are formed alike
    # whatever the other cells keep.  The QR pass below normalizes them,
    # which spares the division by sigma_j (zero for an all-zero cell).
    qtw = np.concatenate([q[:, None, :, j] @ w for j in range(dims.max())], axis=1)
    buckets = []
    for d in np.unique(dims).tolist():
        idx = np.nonzero(dims == d)[0]
        c, r = np.linalg.qr(np.swapaxes(qtw[idx, :d], 1, 2))
        # Q's columns take the orientation of W^T q_j, so the states keep theirs.
        c *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
        c, states = linalg._fix_signs(c, sigma[idx, None, :d] * q[idx, :, :d])
        a, b, b_pinv, d_eps = fit_dynamics_stack(states, t_deps)
        buckets.append(ModelBucket(
            indices=idx, c=c, lam=mu[idx, :d] / n,
            a=a, b=b, b_pinv=b_pinv, d_eps=d_eps,
            states=states[:, n - seed :].copy(),
            observed=np.ones((idx.size, seed), dtype=bool),
        ))
    return buckets


def regroup(buckets) -> list[ModelBucket]:
    """One bucket per state dimension of ``buckets``, ascending in d.

    Each joins the fields of the buckets of its d along the cell axis, in
    the order given, so cells keep their relative order; a d held by one
    bucket keeps that bucket as it is.  The buckets must hold equally many
    states.
    """
    joined = []
    for d in sorted({bucket.d for bucket in buckets}):
        group = [bucket for bucket in buckets if bucket.d == d]
        joined.append(group[0] if len(group) == 1 else ModelBucket(**{
            f.name: np.concatenate([getattr(bucket, f.name) for bucket in group])
            for f in fields(ModelBucket)
        }))
    return joined


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
    if w.shape[0] < 1 or not np.isfinite(w).all():
        raise ValueError("descriptor matrix needs at least one row and finite entries")
    return identify_stack(np.ascontiguousarray(w.T)[None], t_d, t_deps, history)[0]
