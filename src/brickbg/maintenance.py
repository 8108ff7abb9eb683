"""Online model maintenance with occlusion compensation.

The functions here work on g cells that share one state dimension d (one
``subspace.ModelBucket``): bases ``c`` are (g, m, d), observations (g, m).
A single model is a bucket of one cell, so there are no per-cell copies.

After a brick is labelled, the model is updated from a composed
observation rather than the raw one: foreground voxels are replaced by the
model's own one-step prediction so moving objects never leak into the
background model.  Voxels are read through the descriptor's voxel layout
(t, h, w, channels); a descriptor that cannot place foreground inside its
brick is one voxel of m channels, so a flagged brick takes the prediction
wholesale.  A background brick has no foreground voxel, so its composed
vector is its observation; the engine composes its flagged bricks only.
The composed vector is then down-weighted entrywise by a robust influence
function of its appearance residual before a rank-one basis update and a
dynamics refit over the newest ``history`` states.

The basis update avoids any m x m work.  With Y = [sqrt((1-alpha) lam_j) c_j,
sqrt(alpha) v~], the eigendecomposition of the small (d+1) x (d+1) Gram
matrix Y^T Y yields the updated spectrum.  Since C^T C = I, that Gram is
built from diag((1-alpha) lam), z = C^T v~ and |v~|^2 alone, and the top
eigenvectors W map to the new basis as C (sqrt((1-alpha) lam) W_top) +
sqrt(alpha) v~ w_last^T, so Y itself is never formed.  The new basis is
re-orthonormalized and kept sign-continuous with the previous one.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .subspace import ModelBucket

DEFAULT_ALPHA = 0.05
DEFAULT_BETA = 2.3849

# Floor applied to the per-entry robust scale so weights stay defined for
# degenerate (zero-spectrum) models.
RHO_FLOOR = 1e-9


def synthesize(bucket: ModelBucket) -> np.ndarray:
    """(g, m) one-step predictions of the next descriptors: C A z, z the newest state."""
    predicted = np.einsum("gde,ge->gd", bucket.a, bucket.states[:, -1])
    return np.einsum("gmd,gd->gm", bucket.c, predicted)


def compose_stack(v, v_hat, voxel_mask) -> np.ndarray:
    """Blend g observations with their predictions according to the labels.

    ``v`` and ``v_hat`` are (g, m) and ``voxel_mask`` (g, t, h, w) as
    returned by ``segmentation.classify_stack``: foreground voxels (all
    their channel entries) come from the prediction, background voxels
    from the observation.
    The blend is written into ``v_hat``, which is returned: the entries
    taken from the observation are copied over the prediction under one
    mask.  ``v`` is left as it is.  A stack of no bricks (g = 0) is
    returned as it is.
    """
    if v.shape != v_hat.shape:
        raise ValueError("observation and prediction shapes differ")
    flat = voxel_mask.reshape(voxel_mask.shape[0], math.prod(voxel_mask.shape[1:]))
    channels = v.shape[1] // flat.shape[1]
    if channels * flat.shape[1] != v.shape[1]:
        raise ValueError("voxel mask does not tile the descriptor")
    # A mask repeated per entry keeps the copy's inner loop long; broadcast
    # over the channel axis, its inner loop is one voxel's channels.
    np.copyto(v_hat, v, where=np.repeat(~flat, channels, axis=1))
    return v_hat


def robust_scale(c: np.ndarray, lam: np.ndarray, beta: float) -> np.ndarray:
    """Per-entry scale rho_k = max_j beta sqrt(lam_j) |c_jk|, floored.

    Built column by column, each |c_j| times its (beta sqrt(lam_j)) and
    folded into a running maximum, so no (g, m, d) product is formed.
    """
    scale = beta * np.sqrt(np.maximum(lam, 0.0))
    rho = np.abs(c[..., 0])
    rho *= scale[..., None, 0]
    for j in range(1, c.shape[-1]):
        column = np.abs(c[..., j])
        column *= scale[..., None, j]
        np.maximum(rho, column, out=rho)
    return np.maximum(rho, RHO_FLOOR, out=rho)


def reweight_stack(c, lam, v_bar, residual, beta: float = DEFAULT_BETA):
    """Scale composed entries by the square root of their robust weight.

    The weight of an entry is w(r) = 1 / (1 + (r / rho)^2), r its entry of
    ``residual``, the (g, m) appearance residual of ``v_bar``
    (``segmentation.appearance_residual``; w is even, so the residual's
    sign does not matter), and rho its ``robust_scale``.  The caller passes
    the residual because it mostly has it already: a background brick's
    ``v_bar`` is its observation, whose residual labelling formed.
    Returns ``(v_tilde, weights)``, both (g, m); entries whose
    reconstruction residual is large relative to the model spectrum are
    shrunk toward zero.  Both are formed in place: the weights overwrite
    ``residual`` and ``v_tilde`` overwrites ``v_bar``.
    """
    rho = robust_scale(c, lam, beta)
    residual /= rho
    residual *= residual
    residual += 1.0
    w = np.reciprocal(residual, out=residual)
    v_bar *= np.sqrt(w, out=rho)
    return v_bar, w


def _top_eigenpair(p, x, s):
    """Top eigenpair of the symmetric 2 x 2 stack [[p, x], [x, s]], p, s >= 0.

    With h = (p - s) / 2 and r = hypot(h, x) the top eigenvalue is
    (p + s) / 2 + r, and its eigenvector is (h + r, x) for h >= 0, else
    (x, r - h): every sum adds terms of one sign, so nothing cancels.  The
    vector is normalized and follows ``linalg``'s sign rule (its
    largest-magnitude entry positive, the first on a tie); an exact tie
    (x = 0 and p = s, the all-zero Gram included) gets (0, 1), as
    ``linalg.eigh_stack`` gives it.  Returns the (g,) values and the two
    (g,) entries of the vectors.
    """
    h = 0.5 * (p - s)
    r = np.hypot(h, x)
    upper = h >= 0.0
    w0 = np.where(upper, h + r, x)
    w1 = np.where(upper, x, r - h)
    norm = np.hypot(w0, w1)
    tie = norm == 0.0
    norm[tie] = 1.0
    w1[tie] = 1.0
    pick = np.where(np.abs(w1) > np.abs(w0), w1, w0)
    norm[pick < 0.0] *= -1.0
    w0 /= norm
    w1 /= norm
    return 0.5 * (p + s) + r, w0, w1


def update_basis_stack(c: np.ndarray, lam: np.ndarray, v_tilde: np.ndarray, alpha: float):
    """Stacked incremental basis update.

    ``c`` is (g, m, d), ``lam`` (g, d), ``v_tilde`` (g, m).  Returns the
    updated ``(c, lam)``.  The new basis is exactly orthonormal (QR pass)
    and each column keeps the orientation of its predecessor.

    At d = 1 the 2 x 2 Gram's top eigenpair is taken in closed form
    (``_top_eigenpair``), so the one-column QR is the update's only LAPACK
    call; it agrees with ``linalg.eigh_stack``'s to rounding.
    """
    g, m, d = c.shape
    kept = (1.0 - alpha) * np.maximum(lam, 0.0)         # (g, d)
    root_kept, root_alpha = np.sqrt(kept), np.sqrt(alpha)
    cross = root_alpha * root_kept * np.einsum("gmd,gm->gd", c, v_tilde)
    energy = alpha * np.einsum("gm,gm->g", v_tilde, v_tilde)
    if d == 1:
        top_vals, w0, w1 = _top_eigenpair(kept[:, 0], cross[:, 0], energy)
        top_vals = top_vals[:, None]
        mapped = c * (root_kept[:, 0] * w0)[:, None, None]                # Y w
        mapped[:, :, 0] += (root_alpha * w1)[:, None] * v_tilde
    else:
        gram = np.zeros((g, d + 1, d + 1))              # Y^T Y
        diag = np.arange(d)
        gram[:, diag, diag] = kept
        gram[:, :d, d] = cross
        gram[:, d, :d] = cross
        gram[:, d, d] = energy
        vals, vecs = linalg.eigh_stack(gram)    # descending
        top_vals = vals[:, :d]
        mapped = c @ (root_kept[:, :, None] * vecs[:, :d, :d])                  # Y W_top
        mapped += (root_alpha * v_tilde)[:, :, None] * vecs[:, None, d, :d]     # (g, m, d)
    q, r = np.linalg.qr(mapped)
    # Each column keeps the orientation of its predecessor; where the two
    # are exactly orthogonal, R's diagonal is made non-negative instead.
    overlap = np.einsum("gmd,gmd->gd", q, c)
    diag_sign = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    signs = np.where(overlap < 0.0, -1.0, np.where(overlap > 0.0, 1.0, diag_sign))
    q *= signs[:, None, :]
    return q, np.maximum(top_vals, 0.0)
