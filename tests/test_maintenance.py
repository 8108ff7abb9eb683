"""Model maintenance: composition, robust weighting, incremental updates.

Composition and reweighting are stacked over cells; the cases here are
mostly stacks of one.  The dynamics update is the engine's ring append
followed by ``fit_dynamics_stack`` over the ring.

The incremental basis update is checked against an independent oracle:
the full m x m eigendecomposition of the blended covariance
(1-alpha) C diag(lam) C^T + alpha v v^T, whose top-d eigenpairs the
small-Gram update must reproduce.  A second oracle (``y_form_update``)
forms Y = [sqrt((1-alpha) lam_j) c_j, sqrt(alpha) v] and its Gram
explicitly, as the update did before it used C^T C = I.  A third
(``gram_form_update``) is the small-Gram update as it is at every d > 1,
its (d+1) x (d+1) Gram through ``eigh_stack``: the oracle of the d = 1
closed form.  The influence function ``weight`` is kept here as the oracle
of the weights ``reweight_stack`` forms in place.
"""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbg import linalg, pipeline
from brickbg.maintenance import (
    DEFAULT_BETA,
    RHO_FLOOR,
    compose_stack,
    reweight_stack,
    robust_scale,
    synthesize,
    update_basis_stack,
)
from brickbg.config import EngineConfig
from brickbg.segmentation import appearance_residual
from brickbg.pipeline import initialize, process_video, step
from brickbg.subspace import ModelBucket, fit_dynamics_stack
from brickbg.synth import load_scene, render
from test_subspace import eigh_form_fit

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def toy_model(m=8, d=2, seed=0, lam=(4.0, 1.0)):
    """One-cell bucket, no noise dimension, one state held."""
    gen = np.random.default_rng(seed)
    c, _ = np.linalg.qr(gen.normal(size=(m, d)))
    return ModelBucket(
        indices=np.zeros(1, dtype=np.intp), c=c[None], lam=np.asarray(lam, dtype=np.float64)[None],
        a=0.5 * np.eye(d)[None], b=np.zeros((1, d, d)), b_pinv=np.zeros((1, d, d)),
        d_eps=np.zeros(1, dtype=np.int64), states=np.arange(1.0, d + 1.0)[None, None],
        observed=np.ones((1, 1), dtype=bool),
    )


# --- synthesize / compose -------------------------------------------------


def test_synthesize_formula():
    model = toy_model()
    want = model.c[0] @ (model.a[0] @ model.states[0, -1])
    got = synthesize(model)
    assert got.shape == (1, 8)
    assert np.allclose(got[0], want, atol=1e-14)


def compose_one(v_new, voxel_mask, v_hat):
    """``compose_stack`` for one brick."""
    out = compose_stack(np.asarray(v_new, dtype=np.float64)[None],
                        np.asarray(v_hat, dtype=np.float64)[None],
                        np.asarray(voxel_mask)[None])
    return out[0]


# A cs_stltp histogram is one voxel of m channels: its mask is (1, 1, 1).


def test_compose_cs_background_keeps_observation():
    v_new, v_hat = np.arange(4.0), np.full(4, 9.0)
    out = compose_one(v_new, np.zeros((1, 1, 1), dtype=bool), v_hat)
    assert np.array_equal(out, v_new)
    out[0] = -1.0                      # mutating the result must not alias
    assert v_new[0] == 0.0


def test_compose_cs_foreground_takes_prediction_wholesale():
    out = compose_one(np.arange(4.0), np.ones((1, 1, 1), dtype=bool), np.full(4, 9.0))
    assert np.array_equal(out, np.full(4, 9.0))


def test_compose_rgb_per_voxel_with_channel_tiling():
    mask = np.array([[[True, False]]])                # (1, 1, 2) voxels
    v_new = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # 2 voxels x 3 channels
    v_hat = np.full(6, 0.0)
    out = compose_one(v_new, mask, v_hat)
    assert np.array_equal(out, [0.0, 0.0, 0.0, 4.0, 5.0, 6.0])


@pytest.mark.parametrize("mode, channels", [("rgb", 1), ("rgb", 3), ("cs_stltp", 1)])
def test_compose_stack_blends_into_the_prediction_buffer(mode, channels):
    """Equal to a per-entry ``np.where`` with the voxel mask repeated over
    the channels; the result is ``v_hat``'s buffer and ``v`` is untouched."""
    gen = np.random.default_rng(channels)
    g, voxel_shape = 7, (5, 4, 4)
    m = 80 * channels if mode == "rgb" else 48
    v, v_hat = gen.normal(size=(g, m)), gen.normal(size=(g, m))
    background = gen.random(g) < 0.5
    if mode == "rgb":
        voxel_mask = gen.random((g, *voxel_shape)) < 0.3
        take_prediction = np.repeat(voxel_mask.reshape(g, -1), channels, axis=1)
    else:                                   # one voxel of m channels
        voxel_mask = (~background)[:, None, None, None]
        take_prediction = np.broadcast_to(~background[:, None], (g, m))
    want = np.where(take_prediction, v_hat, v)
    v_before = v.copy()
    out = compose_stack(v, v_hat, voxel_mask)
    assert out is v_hat
    assert np.array_equal(out, want)
    assert np.array_equal(v, v_before)


@pytest.mark.parametrize("voxel_shape, m", [((5, 4, 4), 240), ((1, 1, 1), 48)],
                         ids=["rgb", "cs_stltp"])
def test_compose_stack_takes_no_bricks(voxel_shape, m):
    """The engine composes a bucket's flagged bricks only, which are often
    none: a (0, m) stack composes to itself in either voxel layout."""
    v, v_hat = np.empty((0, m)), np.empty((0, m))
    out = compose_stack(v, v_hat, np.zeros((0, *voxel_shape), dtype=bool))
    assert out is v_hat and out.shape == (0, m)


def test_compose_rejects_bad_tiling_and_lengths():
    mask = np.ones((1, 1, 2), dtype=bool)
    with pytest.raises(ValueError):
        compose_one(np.zeros(7), mask, np.zeros(7))   # 7 not divisible by 2
    with pytest.raises(ValueError):
        compose_one(np.zeros(4), mask, np.zeros(6))
    with pytest.raises(ValueError):
        compose_one(np.zeros(1), mask, np.zeros(1))   # fewer entries than voxels


# --- robust weighting -----------------------------------------------------


def test_robust_scale_matches_loop_oracle():
    model = toy_model(m=6, d=2, seed=3)
    c, lam = model.c[0], model.lam[0]
    rho = robust_scale(c, lam, DEFAULT_BETA)
    for k in range(6):
        want = max(
            DEFAULT_BETA * np.sqrt(lam[j]) * abs(c[k, j])
            for j in range(model.d)
        )
        assert rho[k] == pytest.approx(max(want, RHO_FLOOR), abs=0.0, rel=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_robust_scale_equals_product_max_exactly(d):
    """The column-by-column fold gives the (g, m, d) product's maximum to the
    bit: each entry is (beta * sqrt(lam_j)) * |c_kj|, in that association."""
    gen = np.random.default_rng(d)
    c = gen.normal(size=(7, 30, d))
    lam = gen.random((7, d)) * 50.0
    lam[0, -1] = 0.0                               # a dead direction
    lam[1] = -1e-3                                 # clipped to 0: the whole row floors
    c_kept, lam_kept = c.copy(), lam.copy()
    want = (DEFAULT_BETA * np.sqrt(np.maximum(lam, 0.0))[..., None, :] * np.abs(c)).max(axis=-1)
    want = np.maximum(want, RHO_FLOOR)
    got = robust_scale(c, lam, DEFAULT_BETA)
    assert got.shape == (7, 30)
    assert (got == want).all()
    assert (got[1] == RHO_FLOOR).all()
    assert np.array_equal(c, c_kept) and np.array_equal(lam, lam_kept)


def test_robust_scale_floor():
    rho = robust_scale(np.zeros((4, 2)), np.zeros(2), DEFAULT_BETA)
    assert (rho == RHO_FLOOR).all()


def weight(r, rho):
    """Downweighting function w(r) = 1 / (1 + (r / rho)^2); ``r`` is left as it is."""
    ratio = np.asarray(r, dtype=np.float64) / rho
    ratio *= ratio
    ratio += 1.0
    return 1.0 / ratio


def test_weight_anchor_points():
    assert weight(0.0, 2.0) == 1.0
    assert abs(weight(2.0, 2.0) - 0.5) < 1e-12       # w(rho) = 1/2 exactly
    assert abs(weight(-2.0, 2.0) - 0.5) < 1e-12      # even in r


@given(st.floats(1e-3, 1e3))
def test_weight_half_at_rho(rho):
    assert abs(weight(rho, rho) - 0.5) < 1e-12


def test_weight_scalar_in_scalar_out_and_input_untouched():
    w = weight(3.0, 2.0)
    assert np.isscalar(w) and w == 1.0 / (1.0 + 1.5 * 1.5)
    r = np.array([-4.0, 0.0, 1.0, 8.0])
    kept = r.copy()
    rho = np.array([2.0, 2.0, 0.5, 4.0])
    w = weight(r, rho)
    assert np.array_equal(r, kept)
    assert np.array_equal(w, 1.0 / (1.0 + (kept / rho) ** 2))


def test_weight_strictly_decreasing_in_magnitude():
    r = np.linspace(0.0, 50.0, 2001)
    w = weight(r, 3.0)
    assert (np.diff(w) < 0.0).all()
    assert w[0] == 1.0


def reweight_one(model, v_bar, beta=DEFAULT_BETA):
    """``reweight_stack`` for a one-cell bucket: (v_tilde, weights)."""
    _, residual = appearance_residual(model.c, v_bar[None])
    v_tilde, w = reweight_stack(model.c, model.lam, v_bar[None].copy(), residual, beta)
    return v_tilde[0], w[0]


def test_robust_reweight_in_span_is_identity():
    model = toy_model()
    v = model.c[0] @ np.array([2.0, -1.0])
    v_tilde, w = reweight_one(model, v)
    assert np.allclose(w, 1.0, atol=1e-12)
    assert np.allclose(v_tilde, v, atol=1e-12)


def test_robust_reweight_shrinks_outliers():
    model = toy_model()
    c = model.c[0]
    gen = np.random.default_rng(7)
    off = gen.normal(size=8) * 100.0
    off -= c @ (c.T @ off)                       # purely out-of-span
    v = c @ np.array([2.0, -1.0]) + off
    v_tilde, w = reweight_one(model, v)
    assert np.allclose(v_tilde, np.sqrt(w) * v, atol=1e-12)
    assert (w <= 1.0).all()
    # Entries with residuals far beyond the model scale are crushed; the
    # weight of each entry matches the influence function of its residual.
    r = c @ (c.T @ v) - v
    rho = robust_scale(c, model.lam[0], DEFAULT_BETA)
    assert np.allclose(w, weight(r, rho), atol=1e-12)
    big = np.abs(r) > 20.0 * rho
    assert big.any()
    assert (w[big] < 0.01).all()
    assert np.linalg.norm(v_tilde) < 0.5 * np.linalg.norm(v)


@pytest.mark.parametrize("d", [1, 3])
def test_reweight_stack_is_weight_of_appearance_residual(d):
    """The weights, formed in the residual's own buffer, equal ``weight`` of
    the appearance residual to the bit, and v_tilde, formed in v_bar's, is
    sqrt(w) v_bar."""
    gen = np.random.default_rng(11)
    c, _ = np.linalg.qr(gen.normal(size=(5, 40, d)))
    lam = gen.random((5, d)) * 20.0
    v_bar = gen.normal(size=(5, 40)) * 30.0
    kept = v_bar.copy()
    _, residual = appearance_residual(c, v_bar)
    want = weight(residual, robust_scale(c, lam, DEFAULT_BETA))
    v_tilde, w = reweight_stack(c, lam, v_bar, residual, DEFAULT_BETA)
    assert np.array_equal(w, want)
    assert w is residual and v_tilde is v_bar
    assert np.array_equal(v_tilde, np.sqrt(want) * kept)


# --- incremental basis update vs full-covariance oracle --------------------


def blended_covariance(c, lam, v, alpha):
    return (1.0 - alpha) * (c * lam) @ c.T + alpha * np.outer(v, v)


def oracle_top_eigs(c, lam, v, alpha, d):
    vals, vecs = np.linalg.eigh(blended_covariance(c, lam, v, alpha))
    order = np.argsort(vals)[::-1]
    return vals[order][:d], vecs[:, order][:, :d]


@given(st.integers(0, 2**31 - 1))
def test_update_matches_full_eigendecomposition(seed):
    gen = np.random.default_rng(seed)
    m, d = 10, 3
    c, _ = np.linalg.qr(gen.normal(size=(m, d)))
    lam = np.sort(gen.uniform(0.5, 4.0, size=d))[::-1]
    v = gen.normal(size=m) * 3.0
    alpha = 0.05
    new_c, new_lam = update_basis_stack(c[None], lam[None], v[None], alpha)
    want_vals, want_vecs = oracle_top_eigs(c, lam, v, alpha, d)
    assert np.allclose(new_lam[0], want_vals, atol=1e-8)
    # Compare subspaces via projectors (columns are sign/rotation free).
    got_p = new_c[0] @ new_c[0].T
    want_p = want_vecs @ want_vecs.T
    assert np.allclose(got_p, want_p, atol=1e-8)


def test_update_output_is_orthonormal():
    gen = np.random.default_rng(5)
    c, _ = np.linalg.qr(gen.normal(size=(12, 3)))
    lam = np.array([5.0, 2.0, 1.0])
    v = gen.normal(size=12)
    new_c, _ = update_basis_stack(c[None], lam[None], v[None], 0.05)
    eye = new_c[0].T @ new_c[0]
    assert np.abs(eye - np.eye(3)).max() < 1e-12


def test_update_keeps_sign_continuity():
    gen = np.random.default_rng(6)
    c, _ = np.linalg.qr(gen.normal(size=(10, 2)))
    lam = np.array([4.0, 1.0])
    v = c @ np.array([0.3, 0.1])       # tiny in-span nudge: basis barely moves
    new_c, _ = update_basis_stack(c[None], lam[None], v[None], 0.01)
    # Columns must not flip: inner products with predecessors stay positive.
    assert (np.sum(new_c[0] * c, axis=0) > 0.9).all()


def test_orthonormality_does_not_drift_over_many_updates():
    gen = np.random.default_rng(8)
    model = toy_model(m=10, d=3, seed=8, lam=(4.0, 2.0, 1.0))
    for _ in range(300):
        v = model.c[0] @ gen.normal(size=3) + 0.1 * gen.normal(size=10)
        model.c, model.lam = update_basis_stack(model.c, model.lam, v[None], 0.05)
        err = np.abs(model.c[0].T @ model.c[0] - np.eye(3)).max()
        assert err < 1e-10


def test_update_basis_stack_alpha_extremes():
    model = toy_model(m=6, d=2, seed=9)
    c0 = model.c[0]
    lam0 = model.lam[0]
    gen = np.random.default_rng(9)
    v = gen.normal(size=6) * 2.0
    c, lam = update_basis_stack(model.c, model.lam, v[None], 0.0)      # pure decay of the old model
    assert np.allclose(np.abs(np.sum(c[0] * c0, axis=0)), 1.0, atol=1e-10)
    assert np.allclose(lam[0], lam0, atol=1e-10)

    _, lam = update_basis_stack(model.c, model.lam, v[None], 1.0)      # rank-one replacement
    assert lam[0, 0] == pytest.approx(np.dot(v, v), rel=1e-10)
    assert np.abs(lam[0, 1:]).max() < 1e-8


def y_form_update(c, lam, v_tilde, alpha):
    """The basis update through Y = [sqrt((1-alpha) lam_j) c_j, sqrt(alpha) v~]:
    the Gram Y^T Y multiplied out, the eigenvectors mapped through Y and
    normalized, then QR with both sign rules."""
    d = c.shape[2]
    y = np.concatenate([np.sqrt((1.0 - alpha) * np.maximum(lam, 0.0))[:, None, :] * c,
                        np.sqrt(alpha) * v_tilde[:, :, None]], axis=2)
    gram = np.swapaxes(y, 1, 2) @ y
    vals, vecs = linalg.eigh_stack(0.5 * (gram + np.swapaxes(gram, 1, 2)))
    mapped = y @ vecs[:, :, :d]
    norms = np.linalg.norm(mapped, axis=1)[:, None, :]
    mapped = np.where(norms > 0.0, mapped / np.where(norms == 0.0, 1.0, norms), 0.0)
    q, r = np.linalg.qr(mapped)
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    q = q * np.where(np.sum(q * c, axis=1) < 0.0, -1.0, 1.0)[:, None, :]
    return q, np.maximum(vals[:, :d], 0.0)


def test_gram_update_matches_y_oracle():
    """The Gram-form update gives the Y form's basis and spectrum to the
    1e-8 of acceptance 03: generic observations, none, in-span ones, and a
    zero eigenvalue, for d = 1..5 and m from d to 60."""
    for d in range(1, 6):
        for m in (d, 10, 60):
            gen = np.random.default_rng(50 * d + m)
            g = 8
            c = np.linalg.qr(gen.normal(size=(g, m, d)))[0]
            lam = np.sort(gen.uniform(0.5, 4.0, size=(g, d)), axis=1)[:, ::-1].copy()
            v = 3.0 * gen.normal(size=(g, m))
            v[1] = 0.0
            v[2] = c[2] @ gen.normal(size=d)
            lam[3, -1] = 0.0
            for alpha in (0.05, 0.5):
                got_c, got_lam = update_basis_stack(c, lam, v, alpha)
                want_c, want_lam = y_form_update(c, lam, v, alpha)
                case = (d, m, alpha)
                assert np.abs(got_lam - want_lam).max() < 1e-8, case
                # Columns with a nonzero eigenvalue are unique up to sign, and
                # both forms orient them the same way.
                live = (want_lam > 1e-6)[:, None, :]
                assert np.abs(np.where(live, got_c - want_c, 0.0)).max() < 1e-8, case
                projector = got_c @ np.swapaxes(got_c, 1, 2)
                want_p = want_c @ np.swapaxes(want_c, 1, 2)
                assert np.abs(projector - want_p).max() < 1e-8, case


def gram_form_update(c, lam, v_tilde, alpha):
    """The small-Gram update with no d = 1 shortcut: the (d+1) x (d+1)
    Gram through ``eigh_stack`` at every d, then the shared QR pass."""
    g, m, d = c.shape
    kept = (1.0 - alpha) * np.maximum(lam, 0.0)
    root_kept, root_alpha = np.sqrt(kept), np.sqrt(alpha)
    cross = root_alpha * root_kept * np.einsum("gmd,gm->gd", c, v_tilde)
    gram = np.zeros((g, d + 1, d + 1))
    diag = np.arange(d)
    gram[:, diag, diag] = kept
    gram[:, :d, d] = cross
    gram[:, d, :d] = cross
    gram[:, d, d] = alpha * np.einsum("gm,gm->g", v_tilde, v_tilde)
    vals, vecs = linalg.eigh_stack(gram)
    top_vals = vals[:, :d]
    mapped = c @ (root_kept[:, :, None] * vecs[:, :d, :d])
    mapped += (root_alpha * v_tilde)[:, :, None] * vecs[:, None, d, :d]
    q, r = np.linalg.qr(mapped)
    overlap = np.einsum("gmd,gmd->gd", q, c)
    diag_sign = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    signs = np.where(overlap < 0.0, -1.0, np.where(overlap > 0.0, 1.0, diag_sign))
    q *= signs[:, None, :]
    return q, np.maximum(top_vals, 0.0)


def tied_lam(alpha):
    """lam whose kept eigenvalue (1 - alpha) lam equals alpha exactly, the
    energy alpha |v~|^2 of a unit v~."""
    lam = alpha / (1.0 - alpha)
    for _ in range(4):          # a step of an ulp or two; the caller checks the tie
        if (1.0 - alpha) * lam == alpha:
            break
        lam = np.nextafter(lam, np.inf if (1.0 - alpha) * lam < alpha else -np.inf)
    return lam


def one_column_cells(gen, m, alpha):
    """(g, m, 1) bases, (g, 1) spectra and (g, m) observations: random
    cells at many scales, then cells with lam = 0, with v~ = 0, with v~ in
    the span, with v~ orthogonal to it (a zero off-diagonal), at an exact
    tie (that, and equal diagonal entries) and all zero.  The last two kinds
    need an exactly orthogonal pair, so their bases are e_1 (m >= 2)."""
    g = 64
    c = np.linalg.qr(gen.normal(size=(g, m, 1)))[0]
    lam = gen.uniform(0.5, 4.0, size=(g, 1)) * 10.0 ** gen.integers(-6, 7, size=(g, 1))
    v = gen.normal(size=(g, m)) * 10.0 ** gen.integers(-6, 7, size=(g, 1))
    lam[1] = 0.0
    v[2] = 0.0
    v[3] = 5.0 * c[3, :, 0]
    if m >= 2:
        e1, e2 = np.eye(m)[0], np.eye(m)[1]
        c[4:7, :, 0] = e1
        v[4] = 3.0 * e2
        lam[5], v[5] = tied_lam(alpha), e2
        lam[6], v[6] = 0.0, 0.0
    return c, lam, v


def near_tie_cells(gen, m, alpha):
    """Cells an eps-sized step from the exact tie: the top eigenvector is
    ill-conditioned there, while the eigenvalue is not."""
    g = 16
    c = np.zeros((g, m, 1))
    c[:, 0, 0] = 1.0
    v = np.zeros((g, m))
    v[:, 1] = 1.0
    v[:, 0] = gen.choice([-1.0, 1.0], size=g) * 10.0 ** gen.uniform(-16, -12, size=g)
    lam = np.full((g, 1), tied_lam(alpha))
    lam[::2] *= 1.0 + gen.normal(size=(g // 2, 1)) * 1e-15
    return c, lam, v


@pytest.mark.parametrize("m", [1, 2, 3, 48, 240])
@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_one_column_update_matches_gram_form_oracle(m, alpha):
    """The d = 1 closed form gives the eigh form's basis and eigenvalue to
    1e-12 relative, degenerate cells included, calling no ``eigh``; at
    near ties only the eigenvalue is compared, as the top eigenvector is
    not determined there."""
    gen = np.random.default_rng(m + int(100 * alpha))
    c, lam, v = one_column_cells(gen, m, alpha)
    if m >= 2:
        assert (1.0 - alpha) * lam[5, 0] == alpha * np.dot(v[5], v[5])   # the exact tie
    want_c, want_lam = gram_form_update(c, lam, v, alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", None)
        got_c, got_lam = update_basis_stack(c, lam, v, alpha)
    assert got_c.shape == want_c.shape and got_lam.shape == want_lam.shape
    assert np.all(np.abs(got_lam - want_lam) <= 1e-12 * np.abs(want_lam))
    assert np.abs(got_c - want_c).max() <= 1e-12
    assert np.abs(np.einsum("gm,gm->g", got_c[..., 0], got_c[..., 0]) - 1.0).max() < 1e-15
    if m >= 2:
        assert np.array_equal(got_c[5:7], want_c[5:7])      # the exact tie and the zero cell
        assert got_lam[6, 0] == 0.0
        c, lam, v = near_tie_cells(gen, m, alpha)
        want_c, want_lam = gram_form_update(c, lam, v, alpha)
        got_c, got_lam = update_basis_stack(c, lam, v, alpha)
        assert np.all(np.abs(got_lam - want_lam) <= 1e-12 * np.abs(want_lam))
        assert np.abs(np.einsum("gm,gm->g", got_c[..., 0], got_c[..., 0]) - 1.0).max() < 1e-15


def cell_max(array):
    return np.abs(array).reshape(len(array), -1).max(axis=1, initial=0.0)


@pytest.mark.parametrize("stride", [5, 1])
@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_engine_matches_the_general_upkeep(monkeypatch, mode, stride):
    """On the occlusion scene, where every cell keeps d = 1, the engine's
    masks are those of a run whose basis update and refit are the general
    Gram forms, bit for bit.  Every bucket field agrees per cell to 1e-12 of
    the cell's largest entry of it, and B and B+ to that times the states'
    magnitude over B's: the noise fit is the difference of nearly equal
    states, which scales their rounding by that ratio (up to about 2e5 at
    stride 1 in cs_stltp, where B's relative gap reads about 6e-11)."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode, stride=stride)
    masks, state = process_video(frames, config)
    assert {bucket.d for bucket in state.buckets} == {1}
    monkeypatch.setattr(pipeline, "update_basis_stack", gram_form_update)
    monkeypatch.setattr(pipeline, "fit_dynamics_stack", eigh_form_fit)
    want_masks, want_state = process_video(frames, config)
    assert np.array_equal(masks, want_masks)
    for got, want in zip(state.buckets, want_state.buckets, strict=True):
        noise = cell_max(want.b)
        conditioning = np.maximum(1.0, np.divide(cell_max(want.states), noise,
                                                 out=np.ones_like(noise), where=noise > 0.0))
        for f in fields(ModelBucket):
            x, y = getattr(got, f.name), getattr(want, f.name)
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            if y.dtype.kind in "biu":
                assert np.array_equal(x, y), f.name
                continue
            tolerance = 1e-12 * cell_max(y)
            if f.name in ("b", "b_pinv"):
                tolerance *= conditioning
            assert np.all(cell_max(x - y) <= tolerance), f.name


# --- dynamics update: state append + fit_dynamics_stack ----------------------


def update_dynamics(ring, flags, z_new, observed=True, history=12, t_deps=0.5):
    """Append a state to a ring as the engine does and refit over the ring."""
    ring.append(np.asarray(z_new, dtype=np.float64))
    flags.append(observed)
    del ring[:-history], flags[:-history]
    return fit_dynamics_stack(np.stack(ring)[None], t_deps, observed=np.array(flags)[None])


def test_update_dynamics_appends_and_refits():
    ring, flags = [np.array([64.0])], [True]
    for z in (32.0, 16.0, 8.0):
        a, _, _, d_eps = update_dynamics(ring, flags, [z])
    assert len(ring) == 4
    assert a[0, 0, 0] == pytest.approx(0.5, abs=1e-10)
    assert d_eps[0] == 0               # exact halving has no innovation


def test_update_dynamics_ring_respects_history():
    gen = np.random.default_rng(14)
    video = np.clip(100.0 + gen.normal(scale=5.0, size=(50, 8, 8)), 0, 255).astype(np.uint8)
    state = initialize(video[:20], EngineConfig(init_frames=20, history=5))
    seen = [list(np.swapaxes(bucket.states, 0, 1)) for bucket in state.buckets]
    assert all(len(states) == 4 for states in seen)      # 20 frames / depth 5
    for start in range(20, 50, 5):
        step(state, video[start : start + 5])
        for bucket, states in zip(state.buckets, seen):
            states.append(bucket.states[:, -1].copy())
            want = np.stack(states[-5:], axis=1)   # oldest dropped once 5 are held
            assert np.array_equal(bucket.states, want)
            assert bucket.observed.shape == want.shape[:2] and bucket.observed.all()


def test_update_dynamics_noise_dimension_tracks_data():
    gen = np.random.default_rng(12)
    states = list(np.array([50.0]) + gen.normal(scale=2.0, size=(12, 1)))
    ring, flags = states[:1], [True]
    for z in states[1:]:
        _, b, b_pinv, d_eps = update_dynamics(ring, flags, z)
    assert d_eps[0] == 1               # noisy constant: innovation present
    assert b[0, 0, 0] != 0.0 and b_pinv[0, 0, 0] != 0.0


def test_update_dynamics_observed_mask_passes_through():
    """Self-predicted states flooding the ring must not deflate B.

    A near-stationary scalar model coasts with transition exactly 1, so a
    self-prediction repeats the last state and contributes exactly zero
    innovation.  The masked fit over the flooded ring must therefore equal
    a fresh fit over just the real states still inside the window, while
    an unmasked twin dilutes the same innovation mass over the full window
    length -- shrinking B by exactly sqrt(n_real_transitions / (k-1)).
    """
    gen = np.random.default_rng(13)
    reals = list(np.array([40.0]) + gen.normal(scale=1.5, size=(12, 1)))
    masked, masked_flags = reals[:1], [True]
    naive, naive_flags = reals[:1], [True]
    for z in reals[1:]:
        fit_masked = update_dynamics(masked, masked_flags, z)
        fit_naive = update_dynamics(naive, naive_flags, z)
    for _ in range(6):                  # half the ring becomes predictions
        fit_masked = update_dynamics(masked, masked_flags, fit_masked[0][0] @ masked[-1], False)
        fit_naive = update_dynamics(naive, naive_flags, fit_naive[0][0] @ naive[-1])
    _, b_tail, _, _ = fit_dynamics_stack(np.stack(reals[-6:])[None], 0.5)
    assert fit_masked[0][0, 0, 0] == 1.0        # coasting exactly
    assert fit_masked[1][0, 0, 0] == pytest.approx(b_tail[0, 0, 0], rel=1e-9)
    # 5 real transitions remain of the 11 in the window.
    assert fit_naive[1][0, 0, 0] == pytest.approx(
        fit_masked[1][0, 0, 0] * np.sqrt(5.0 / 11.0), rel=1e-9
    )


def test_update_dynamics_observed_mask_alignment():
    with pytest.raises(ValueError):     # one flag per state, not per transition
        fit_dynamics_stack(np.array([[[1.0], [2.0]]]), 0.5, observed=np.array([[True]]))
