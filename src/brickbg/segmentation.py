"""Foreground/background decisions for incoming bricks.

Every function here is stacked over g cells that share one state
dimension d (one engine bucket): bases ``c`` are (g, m, d), descriptors
``v`` are (g, m).  A single cell is the g = 1 case.

A new descriptor v is split against its cell's model into an appearance
residual (the part outside the basis) and a state innovation expressed in
noise coordinates:

    z' = C^T v
    omega = v - C z'
    eps = pinv(B) (z' - A z_latest)

A brick counts as background only when every innovation coordinate stays
below the threshold; when the model has no noise dimensions (d_eps = 0)
the appearance residual alone decides.  Non-background bricks are refined
to voxel granularity through the descriptor's voxel layout (t, h, w,
channels): a voxel is foreground when any of its channels' appearance
residuals exceeds the threshold, and a brick with no such voxel (flagged
through its innovation alone, as in a blackout, where omega is 0) is
marked whole.  A descriptor that cannot place foreground inside its brick
is one voxel of m channels, so its flagged bricks are marked whole.
"""

from __future__ import annotations

import numpy as np


def appearance_residual(c: np.ndarray, v: np.ndarray):
    """States ``z' = C^T v`` (g, d) and appearance residuals ``omega = v - C z'`` (g, m)."""
    z_prime = np.einsum("gmd,gm->gd", c, v)
    omega = np.einsum("gmd,gd->gm", c, z_prime)
    return z_prime, np.subtract(v, omega, out=omega)


def residuals_stack(c, a, b_pinv, z_latest, v):
    """Residuals of g descriptors against their cells' models.

    ``a`` and ``b_pinv`` are (g, d, d), ``b_pinv`` with zero rows past each
    cell's d_eps, so padded innovation coordinates come out exactly 0.
    Returns ``(z_prime, omega, epsilon, predicted)``: the projected states,
    the appearance residuals, the innovations (g, d) and the predicted
    states ``A z_latest`` (g, d).
    """
    z_prime, omega = appearance_residual(c, v)
    predicted = np.einsum("gde,ge->gd", a, z_latest)
    epsilon = np.einsum("ged,gd->ge", b_pinv, z_prime - predicted)
    return z_prime, omega, epsilon, predicted


def row_max(x: np.ndarray) -> np.ndarray:
    """Row maxima of an (n, k) array with few columns, folded column by column.

    Equal to ``x.max(axis=1)`` (NaN propagates the same way) without
    numpy's per-row reduction over a short axis.  With one column the
    result is a view of it.
    """
    peak = x[:, 0]
    for j in range(1, x.shape[1]):
        peak = np.maximum(peak, x[:, j])
    return peak


def classify_stack(omega, epsilon, d_eps, voxel_shape, t_omega: float, t_eps: float):
    """Label g bricks from their residuals.

    ``d_eps`` is (g,); ``voxel_shape`` is the descriptor's voxel layout
    (t, h, w, channels).  Returns ``(background, voxel_mask)``: (g,) bool
    and (g, t, h, w) bool with True = foreground.  Both tests are strict: a
    residual equal to its threshold trips the detector.
    """
    t, h, w, channels = voxel_shape
    eps_quiet = row_max(np.abs(epsilon)) < t_eps
    # A voxel's peak is its largest channel residual, a brick's the largest voxel peak.
    peak = row_max(np.abs(omega).reshape(-1, channels)).reshape(-1, t * h * w)
    omega_quiet = peak.max(axis=1) < t_omega
    background = np.where(d_eps > 0, eps_quiet, omega_quiet)
    voxel_mask = (peak > t_omega).reshape(-1, t, h, w)
    voxel_mask[background] = False
    voxel_mask[~background & ~voxel_mask.any(axis=(1, 2, 3))] = True
    return background, voxel_mask
