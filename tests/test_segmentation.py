"""Residual computation and brick labeling.

The functions under test are stacked over cells; most cases here are a
one-cell ``ModelBucket``, the record the engine stores (``b`` and
``b_pinv`` zero-padded to (d, d)).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbg.config import DEFAULT_T_EPS, DEFAULT_T_OMEGA, EngineConfig
from brickbg.maintenance import compose_stack
from brickbg.segmentation import classify_stack, residuals_stack, row_max
from brickbg.subspace import ModelBucket, learn_initial


def toy_model(m=6, d=2, d_eps=1, seed=0):
    """One-cell bucket with one random state held."""
    gen = np.random.default_rng(seed)
    c, _ = np.linalg.qr(gen.normal(size=(m, d)))
    b = np.zeros((d, d))
    b[:d_eps, :d_eps] = np.eye(d_eps) * 2.0
    return ModelBucket(
        indices=np.zeros(1, dtype=np.intp), c=c[None], lam=np.ones((1, d)), a=np.eye(d)[None],
        b=b[None], b_pinv=np.linalg.pinv(b)[None], d_eps=np.array([d_eps]),
        states=gen.normal(size=d)[None, None], observed=np.ones((1, 1), dtype=bool),
    )


def newest(model):
    return model.states[0, -1]


def residuals_one(model, v):
    """``residuals_stack`` for a one-cell bucket: (z_prime, omega, epsilon, predicted)."""
    out = residuals_stack(
        model.c, model.a, model.b_pinv, model.states[:, -1],
        np.asarray(v, dtype=np.float64)[None],
    )
    return tuple(x[0] for x in out)


def classify_one(omega, epsilon, voxel_shape, mode, t_omega=None, t_eps=None):
    """``classify_stack`` for one brick of ``voxel_shape`` (t, h, w, channels);
    an empty ``epsilon`` means d_eps = 0.  As in ``pipeline.step``, a
    cs_stltp histogram is one voxel of m channels, whose mask covers the brick."""
    omega = np.asarray(omega, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    d_eps = epsilon.size
    padded = np.zeros(max(d_eps, 1))
    padded[:d_eps] = epsilon
    t_omega = DEFAULT_T_OMEGA[mode] if t_omega is None else t_omega
    t_eps = DEFAULT_T_EPS[mode] if t_eps is None else t_eps
    layout = voxel_shape if mode == "rgb" else (1, 1, 1, omega.size)
    background, voxel_mask = classify_stack(
        omega[None], padded[None], np.array([d_eps]), layout, t_omega, t_eps,
    )
    return bool(background[0]), np.broadcast_to(voxel_mask[0], voxel_shape[:3])


# --- residuals_stack --------------------------------------------------------


def test_omega_is_orthogonal_to_basis():
    model = toy_model()
    gen = np.random.default_rng(1)
    v = gen.normal(size=6) * 10.0
    z_prime, omega, _, _ = residuals_one(model, v)
    assert np.allclose(model.c[0].T @ omega, 0.0, atol=1e-12)
    # omega + C z' rebuilds the input exactly
    assert np.allclose(omega + model.c[0] @ z_prime, v, atol=1e-12)


def test_in_span_vector_has_zero_omega():
    model = toy_model()
    v = model.c[0] @ np.array([3.0, -1.5])
    z_prime, omega, _, _ = residuals_one(model, v)
    assert np.abs(omega).max() < 1e-12
    assert np.allclose(z_prime, [3.0, -1.5], atol=1e-12)


def test_epsilon_is_innovation_in_noise_coordinates():
    model = toy_model(d=2, d_eps=1)
    # Next state = A z + B * 1.5, z the newest state: innovation must read back as 1.5.
    z_next = model.a[0] @ newest(model) + model.b[0][:, :1] @ np.array([1.5])
    v = model.c[0] @ z_next
    _, _, epsilon, predicted = residuals_one(model, v)
    assert epsilon.shape == (2,)                 # padded to d
    assert np.allclose(epsilon[:1], [1.5], atol=1e-12)
    assert epsilon[1] == 0.0
    assert np.array_equal(predicted, model.a[0] @ newest(model))


def test_epsilon_empty_without_noise_dimensions():
    model = toy_model(d_eps=1)
    model.d_eps[:] = 0
    model.b[:] = 0.0
    model.b_pinv[:] = 0.0
    _, _, epsilon, _ = residuals_one(model, np.ones(6))
    assert (epsilon == 0.0).all()                # padded coordinates are exact zeros


def test_descriptor_length_checked():
    model = toy_model()
    with pytest.raises(ValueError):
        residuals_one(model, np.ones(7))
    with pytest.raises(ValueError):
        residuals_one(model, np.ones((2, 3)))


# --- classify_stack ---------------------------------------------------------


def test_innovation_below_threshold_is_background():
    background, mask = classify_one(np.full(8, 100.0), [2.9], (2, 2, 2, 1), "cs_stltp")
    assert background
    assert mask.shape == (2, 2, 2)
    assert not mask.any()


def test_innovation_at_threshold_is_foreground():
    # The background test is strict: exactly t_eps trips the detector.
    background, mask = classify_one(np.zeros(8), [3.0], (2, 2, 2, 1), "cs_stltp")
    assert not background
    assert mask.all()


def test_omega_fallback_when_no_noise_dimensions():
    quiet, _ = classify_one(np.full(8, 2.9), np.zeros(0), (2, 2, 2, 1), "cs_stltp")
    assert quiet
    loud, _ = classify_one(np.full(8, 3.0), np.zeros(0), (2, 2, 2, 1), "cs_stltp")
    assert not loud


def test_innovation_wins_over_omega_when_present():
    # Large appearance residual is ignored while the innovation stays small.
    background, _ = classify_one(np.full(8, 50.0), [0.1], (2, 2, 2, 1), "cs_stltp")
    assert background


def test_rgb_voxels_marked_per_channel_any():
    omega = np.zeros((1, 2, 2, 3))
    omega[0, 0, 1, 2] = 6.0        # one loud channel flips its voxel
    omega[0, 1, 0, :] = 4.0        # all channels below threshold: stays off
    omega[0, 1, 1, 1] = -7.0       # negative magnitudes count too
    background, mask = classify_one(omega.reshape(-1), [99.0], (1, 2, 2, 3), "rgb")
    assert not background
    expected = np.array([[[False, True], [False, True]]])
    assert np.array_equal(mask, expected)


@pytest.mark.parametrize("channels", [1, 3])
def test_rgb_voxel_mask_equals_any_channel_oracle(channels):
    """Stacked over 40 bricks, with many residuals exactly at +-t_omega
    (the test is strict, so those stay off)."""
    gen = np.random.default_rng(channels)
    t, h, w, t_omega = 2, 3, 2, 5.0
    omega = gen.normal(scale=4.0, size=(40, t * h * w * channels))
    omega[gen.random(omega.shape) < 0.3] = t_omega
    omega[gen.random(omega.shape) < 0.1] = -t_omega
    omega[:4] = np.sign(omega[:4]) * t_omega               # bricks with every entry at the threshold
    epsilon = np.zeros((40, 2))
    epsilon[::2, 0] = 9.0                                  # flagged through the innovation
    d_eps = np.ones(40, dtype=np.int64)
    background, mask = classify_stack(omega, epsilon, d_eps, (t, h, w, channels), t_omega, 4.0)
    want = (np.abs(omega).reshape(-1, t, h, w, channels) > t_omega).any(axis=-1)
    want[background] = False
    want[~background & ~want.any(axis=(1, 2, 3))] = True
    assert np.array_equal(background, epsilon[:, 0] < 4.0)
    assert np.array_equal(mask, want)
    assert mask[0].all() and mask[2].all()                 # flagged, no voxel above: whole


def test_row_max_equals_max_over_rows():
    gen = np.random.default_rng(3)
    for k in range(1, 6):
        x = gen.normal(size=(9, k))
        x[2, k - 1] = np.nan
        x[4] = -np.inf
        np.testing.assert_array_equal(row_max(x), x.max(axis=1))


def test_rgb_brick_flagged_with_quiet_omega_is_marked_whole():
    # A blackout window has omega = 0 but trips the innovation test: with
    # no voxel above t_omega the whole flagged brick is foreground.
    background, mask = classify_one(np.zeros(12), [99.0], (1, 2, 2, 3), "rgb")
    assert not background
    assert mask.all()
    background, mask = classify_one(np.zeros(12), [0.1], (1, 2, 2, 3), "rgb")
    assert background
    assert not mask.any()


def test_cs_marks_whole_brick():
    _, mask = classify_one(np.full(8, 9.0), [99.0], (2, 2, 2, 1), "cs_stltp")
    assert mask.all()


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.5, 3.0]))
def test_one_voxel_layout_equals_whole_brick_rule(seed, t_omega):
    """At layout (1, 1, 1, m), a cs_stltp histogram's, the one voxel is marked
    exactly when its brick is flagged, and composition takes the prediction
    wholesale for a flagged brick; the whole-brick rule, stated on
    ``background``, is the oracle.  Many residuals sit exactly at +-t_omega,
    where the strict test stays quiet."""
    gen = np.random.default_rng(seed)
    g, m, d = 64, 48, 3
    omega = gen.normal(scale=2.0, size=(g, m))
    omega[gen.random(omega.shape) < 0.3] = t_omega
    omega[gen.random(omega.shape) < 0.2] = -t_omega
    omega[:4] = np.sign(omega[:4]) * t_omega               # every entry at the threshold
    d_eps = gen.integers(0, d + 1, size=g)
    epsilon = gen.normal(scale=3.0, size=(g, d))
    epsilon[gen.random(epsilon.shape) < 0.2] = 3.0          # exactly at t_eps
    epsilon *= np.arange(d) < d_eps[:, None]                # padded coordinates are 0
    background, voxel_mask = classify_stack(omega, epsilon, d_eps, (1, 1, 1, m), t_omega, 3.0)
    want = np.where(d_eps > 0, np.abs(epsilon).max(axis=1) < 3.0,
                    np.abs(omega).max(axis=1) < t_omega)
    assert np.array_equal(background, want)
    assert voxel_mask.shape == (g, 1, 1, 1)
    brick = (g, 5, 4, 4)
    assert np.array_equal(np.broadcast_to(voxel_mask, brick),
                          np.broadcast_to((~background)[:, None, None, None], brick))
    v, v_hat = gen.normal(size=(g, m)), gen.normal(size=(g, m))
    want = np.where(background[:, None], v, v_hat)
    assert np.array_equal(compose_stack(v, v_hat, voxel_mask), want)


def test_default_thresholds_per_mode():
    assert DEFAULT_T_OMEGA == {"cs_stltp": 3.0, "rgb": 5.0}
    assert DEFAULT_T_EPS == {"cs_stltp": 3.0, "rgb": 4.0}
    # rgb omega threshold is 5: residual 4.5 is background under defaults
    config = EngineConfig(mode="rgb")
    background, _ = classify_one(np.full(12, 4.5), np.zeros(0), (1, 2, 2, 3), "rgb",
                                 config.effective_t_omega, config.effective_t_eps)
    assert background


def test_threshold_overrides():
    omega, eps = np.full(8, 4.0), [3.5]
    assert classify_one(omega, eps, (2, 2, 2, 1), "cs_stltp", t_eps=10.0)[0]
    assert not classify_one(omega, eps, (2, 2, 2, 1), "cs_stltp", t_eps=1.0)[0]
    assert classify_one(omega, np.zeros(0), (2, 2, 2, 1), "cs_stltp", t_omega=5.0)[0]


@given(st.floats(-10, 10), st.floats(0.1, 5))
def test_background_iff_max_innovation_below_threshold(value, t_eps):
    background, _ = classify_one(np.zeros(8), [value], (2, 2, 2, 1), "cs_stltp", t_eps=t_eps)
    assert background == (abs(value) < t_eps)


# --- end-to-end against an identified model -------------------------------


def test_identified_model_accepts_its_own_process():
    """Descriptors from the training distribution stay background; a
    far-off descriptor trips the innovation test."""
    gen = np.random.default_rng(42)
    base = 100.0 + 10.0 * gen.normal(size=12)
    window = [base + gen.normal(scale=0.5, size=12) for _ in range(20)]
    model = learn_initial(np.stack(window, axis=1), t_d=0.5)
    typical = base + gen.normal(scale=0.5, size=12)
    _, omega, epsilon, _ = residuals_one(model, typical)
    background, _ = classify_one(omega, epsilon[: model.d_eps[0]], (1, 1, 12, 1), "cs_stltp")
    assert background

    foreign = base + 40.0 * gen.normal(size=12)
    _, omega, epsilon, _ = residuals_one(model, foreign)
    background, _ = classify_one(omega, epsilon[: model.d_eps[0]], (1, 1, 12, 1), "cs_stltp")
    assert not background
