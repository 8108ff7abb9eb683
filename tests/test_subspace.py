"""Model identification: planted-model recovery and dynamics refits.

The central oracle plants a known orthonormal basis and transition map,
generates exact data from them, and checks identification recovers the
subspace (principal angles) and the transition spectrum.  Dynamics-refit
tests pin the behaviors the streaming engine depends on: synthesized
states must not shrink the noise estimate, and near-unit spectral radii
must coast instead of drifting.  The Gram-form refit is checked against
the SVD form of the same fit (``svd_form_fit``) on well-conditioned,
rank-deficient and exactly predictable rings, and the Gram-form
identification against the thin SVD of the descriptor matrices
(``svd_form_identify``).  ``eigh_form_fit`` is the Gram-form refit as it
is at every d > 1, with every Gram through ``eigh_stack`` and the radius
through ``eigvals``: the oracle of the refit's d = 1 shortcuts, which must
reproduce it bit for bit.
"""

import itertools
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from brickbg import linalg
from brickbg.config import EngineConfig
from brickbg.pipeline import batch_descriptors, make_grid
from brickbg.subspace import (
    EXACT_DYNAMICS_RTOL,
    GRAM_RTOL,
    UNIT_RADIUS_BAND,
    InsufficientData,
    ModelBucket,
    _gram_spectrum,
    fit_dynamics_stack,
    identify_stack,
    learn_initial,
    regroup,
    select_dims,
)
from brickbg.synth import load_scene, render


def planted_system(seed, m=48, d=3, radius=0.95):
    """Random orthonormal basis and a stable, rotation-rich transition."""
    gen = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(gen.normal(size=(m, d)))
    raw = gen.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    transition = radius * q          # orthogonal scaled down: radius exactly
    return basis, transition, gen


def planted_descriptors(basis, transition, gen, n, sigma=0.0, z_scale=10.0):
    d = basis.shape[1]
    z = z_scale * gen.normal(size=d)
    cols = []
    for _ in range(n):
        cols.append(basis @ z)
        z = transition @ z
        if sigma:
            z = z + gen.normal(scale=sigma, size=d)
    return np.stack(cols, axis=1)      # (m, n)


# --- select_dims --------------------------------------------------------


def test_select_dim_examples():
    vals = np.array([10.0, 5.0, 1.0])
    assert select_dims(vals, 5.0) == 1         # strictly above
    assert select_dims(vals, 0.5) == 3
    assert select_dims(vals, 20.0, floor=1) == 1
    assert select_dims(vals, 20.0, floor=0) == 0


# --- planted recovery ----------------------------------------------------


@given(st.integers(0, 2**31 - 1))
def test_learn_initial_recovers_planted_subspace(seed):
    basis, transition, gen = planted_system(seed, m=24, d=3)
    w = planted_descriptors(basis, transition, gen, n=40)
    # Exactly rank-3 data: any tiny threshold selects the true dimension
    # without coupling the test to the trajectory's singular-value spread.
    model = learn_initial(w, t_d=1e-6)
    assert model.d == 3
    angle = subspace_angles(model.c[0], basis).max()
    assert angle < 1e-8
    got = np.sort_complex(np.linalg.eigvals(model.a[0]))
    want = np.sort_complex(np.linalg.eigvals(transition))
    assert np.allclose(got, want, atol=1e-8)


def test_learn_initial_noisy_recovery_stays_close():
    basis, transition, gen = planted_system(123, m=48, d=3)
    w = planted_descriptors(basis, transition, gen, n=60, sigma=0.01)
    model = learn_initial(w, t_d=0.01)
    assert model.d >= 3
    assert subspace_angles(model.c[0][:, :3], basis).max() < 0.05


def test_learn_initial_exact_dynamics_have_no_noise_dimension():
    basis, transition, gen = planted_system(7, m=20, d=2)
    w = planted_descriptors(basis, transition, gen, n=30)
    model = learn_initial(w, t_d=1e-6)
    assert model.d_eps[0] == 0
    assert (model.b == 0.0).all() and (model.b_pinv == 0.0).all()


def test_learn_initial_noisy_dynamics_get_noise_dimensions():
    basis, transition, gen = planted_system(8, m=20, d=2)
    w = planted_descriptors(basis, transition, gen, n=30, sigma=0.5)
    model = learn_initial(w)
    de = int(model.d_eps[0])
    assert de >= 1
    assert model.b_pinv.shape == (1, model.d, model.d)
    assert (model.b_pinv[0, :de] != 0.0).any() and (model.b_pinv[0, de:] == 0.0).all()


def test_learn_initial_ring_buffer_seeding():
    basis, transition, gen = planted_system(9, m=10, d=2)
    w = planted_descriptors(basis, transition, gen, n=12)
    model = learn_initial(w, t_d=1e-6, history=8)
    assert model.states.shape == (1, 8, 2)
    assert model.observed.all()
    # the newest 8 states are held, oldest first: they reproduce the
    # last 8 descriptors through the basis
    rebuilt = model.states[0] @ model.c[0].T
    assert np.allclose(rebuilt, w[:, -8:].T, atol=1e-8)


def test_learn_initial_input_validation():
    with pytest.raises(InsufficientData):
        learn_initial(np.ones((5, 1)))
    with pytest.raises(ValueError):
        learn_initial(np.ones(5))                  # not a matrix
    with pytest.raises(ValueError):
        learn_initial(np.ones((5, 2)), history=1)
    with pytest.raises(ValueError):
        learn_initial(np.zeros((0, 3)))            # no rows
    with pytest.raises(ValueError):
        learn_initial(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        learn_initial(np.array([[1.0, np.inf], [0.0, 1.0]]))


# --- dynamics refit ------------------------------------------------------


def test_fit_dynamics_recovers_exact_map():
    gen = np.random.default_rng(3)
    a_true = np.diag([0.8, 0.5])       # clearly sub-unit: genuine decay, kept
    z = 5.0 * gen.normal(size=2)
    states = []
    for _ in range(12):
        states.append(z.copy())
        z = a_true @ z
    stack = np.stack(states)[None]
    a, b, b_pinv, d_eps = fit_dynamics_stack(stack, t_deps=0.5)
    assert np.allclose(a[0], a_true, atol=1e-8)
    assert d_eps[0] == 0
    assert (b[0] == 0.0).all()
    assert (b_pinv[0] == 0.0).all()


def test_fit_dynamics_requires_two_states():
    with pytest.raises(InsufficientData):
        fit_dynamics_stack(np.zeros((1, 1, 3)), t_deps=0.5)


def test_fit_dynamics_with_zero_older_states_does_not_overflow():
    """All-zero older states (a black head) leave the scale of Z1 at the
    smallest float; the relative residual used to overflow in the divide."""
    states = np.zeros((2, 6, 1))
    states[:, -1, 0] = [3.0, 1e100]
    for array in fit_dynamics_stack(states, 0.5):
        assert np.isfinite(array).all()


def test_fit_dynamics_observed_none_equals_all_true():
    gen = np.random.default_rng(4)
    states = gen.normal(size=(3, 10, 2))
    plain = fit_dynamics_stack(states, t_deps=0.5)
    flagged = fit_dynamics_stack(states, t_deps=0.5,
                                 observed=np.ones((3, 10), dtype=bool))
    for x, y in zip(plain, flagged):
        assert np.array_equal(x, y)


def test_fit_dynamics_observed_shape_checked():
    with pytest.raises(ValueError):
        fit_dynamics_stack(np.zeros((1, 5, 2)), 0.5, observed=np.ones((1, 4), bool))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fit_dynamics_peak_memory_per_cell(d):
    """The refit holds few copies of its (g, k, d) state ring: over 3168
    cells of 60 states, zero and constant cells among them, the traced peak
    stays below 3x the ring (about 2.5x).  It was 4.3x with a divided copy
    of the fitted states and an ``np.abs`` copy of the ring alive."""
    states = np.random.default_rng(d).normal(size=(3168, 60, d)).cumsum(axis=1)
    states[:5] = 0.0
    states[5:10] = 3.0
    fit_dynamics_stack(states, 0.5)          # first-call allocations are not the refit's
    tracemalloc.start()
    try:
        fit_dynamics_stack(states, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * states.nbytes, (peak / len(states), states.nbytes / len(states))


def test_synthesized_states_do_not_shrink_noise_estimate():
    """Zero-innovation synthetic states must not deflate B when masked out.

    A state produced by the model's own transition map has exactly zero
    innovation; folding it into the noise fit shrinks B a little on every
    synthesized step, inflating the normalized innovation of real data
    until the background test can never pass.  Masking via ``observed``
    keeps B at the level of the real transitions.
    """
    gen = np.random.default_rng(5)
    k_real, k_synth = 20, 20
    noisy = [10.0 * gen.normal(size=2)]
    for _ in range(k_real - 1):
        noisy.append(0.9 * noisy[-1] + gen.normal(size=2))
    real = np.stack(noisy)
    a_fit, _, _, _ = fit_dynamics_stack(real[None], t_deps=0.5)
    synth = [real[-1]]
    for _ in range(k_synth):
        synth.append(a_fit[0] @ synth[-1])
    full = np.concatenate([real, np.stack(synth[1:])])[None]
    observed = np.zeros((1, k_real + k_synth), dtype=bool)
    observed[0, :k_real] = True

    _, b_masked, _, _ = fit_dynamics_stack(full, t_deps=0.5, observed=observed)
    _, b_naive, _, _ = fit_dynamics_stack(full, t_deps=0.5)
    _, b_real, _, _ = fit_dynamics_stack(real[None], t_deps=0.5)

    masked_scale = np.linalg.norm(b_masked[0])
    naive_scale = np.linalg.norm(b_naive[0])
    real_scale = np.linalg.norm(b_real[0])
    assert naive_scale < 0.8 * real_scale      # the failure mode being prevented
    assert masked_scale > 0.8 * real_scale     # masking preserves the level


def test_noisy_constant_state_snaps_to_unit_radius():
    """Near-stationary data fits a transition within sampling noise of 1;
    the map must coast (radius exactly 1), not drift, when self-iterated."""
    gen = np.random.default_rng(6)
    states = (50.0 + gen.normal(scale=0.5, size=10))[:, None]   # (10, 1)
    a, _, _, _ = fit_dynamics_stack(states[None], t_deps=0.5)
    assert abs(np.abs(np.linalg.eigvals(a[0])).max() - 1.0) < 1e-12


@given(st.integers(0, 2**31 - 1))
def test_fitted_radius_never_exceeds_one(seed):
    gen = np.random.default_rng(seed)
    states = gen.normal(size=(4, 8, 3)) * 10.0
    a, _, _, _ = fit_dynamics_stack(states, t_deps=0.5)
    radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
    assert (radius <= 1.0 + 1e-9).all()


def test_clear_decay_is_not_snapped():
    z = 100.0 * np.power(0.7, np.arange(10))[:, None]
    a, _, _, _ = fit_dynamics_stack(z[None], t_deps=0.5)
    assert np.allclose(a[0], [[0.7]], atol=1e-10)


def test_noise_dimension_selection_fraction():
    """t_deps keeps residual directions above the fraction of the top one."""
    gen = np.random.default_rng(10)
    z = np.zeros((40, 2))
    z[:, 0] = 100.0 + gen.normal(scale=4.0, size=40)   # strong innovation
    z[:, 1] = 30.0 + gen.normal(scale=0.1, size=40)    # weak innovation
    a, b, _, d_eps = fit_dynamics_stack(z[None], t_deps=0.5)
    assert d_eps[0] == 1          # weak direction below half the strong one
    _, b2, _, d_eps2 = fit_dynamics_stack(z[None], t_deps=0.001)
    assert d_eps2[0] == 2


def b_test_states(gen, k, d):
    """(6, k, d) state windows: three noisy, one with near rank-deficient
    innovations, and two with exactly predictable dynamics (d_eps = 0)."""
    noisy = gen.normal(size=(3, k, d)) * 8.0
    # Innovations along one direction plus a 1e-11 trace along another: the
    # trace's residual singular value sits below the Gram form's resolution
    # (sqrt(GRAM_RTOL)) and below PINV_RTOL.
    thin = np.cumsum(
        gen.normal(size=(k, 1)) * np.eye(d)[0] + 1e-11 * gen.normal(size=(k, 1)) * np.eye(d)[-1],
        axis=0,
    )
    decay = np.power(0.5, np.arange(k))[:, None] * gen.normal(size=d) * 10.0
    return np.concatenate([noisy, thin[None], decay[None], np.zeros((1, k, d))])


def test_b_padding_and_pinv_agree():
    """B+ derived from the residual Gram's eigenvectors matches the pseudo-inverse of B:
    bit for bit at d = 1, to 1e-13 relative otherwise."""
    for d, k, t_deps in itertools.product(range(1, 6), (3, 10, 60), (0.0, 1e-12, 0.5)):
        gen = np.random.default_rng(11 + 100 * d + k)
        states = b_test_states(gen, k, d)
        g = states.shape[0]
        flags = gen.random(size=(g, k)) < 0.7
        for observed in (None, flags):
            case = (d, k, t_deps, observed is not None)
            a, b, b_pinv, d_eps = fit_dynamics_stack(states, t_deps=t_deps, observed=observed)
            assert b.shape == (g, d, d) and b_pinv.shape == (g, d, d)
            assert (d_eps[-2:] == 0).all(), case
            oracle = linalg.pinv_stack(b)
            if d == 1:
                assert np.array_equal(b_pinv, oracle), case
            for i in range(g):
                de = int(d_eps[i])
                assert (b[i][:, de:] == 0.0).all()
                assert (b_pinv[i][de:, :] == 0.0).all()
                err = np.abs(b_pinv[i] - oracle[i]).max()
                assert err <= 1e-13 * np.abs(oracle[i]).max(), (case, i, err)
                if de:
                    # pinv of the padded matrix equals pinv of the live columns
                    lead = linalg.pinv_stack(b[i][None, :, :de])[0]
                    assert np.allclose(b_pinv[i][:de], lead, rtol=0, atol=1e-10 * np.abs(lead).max())


# --- Gram-form refit against the SVD-form oracle ---------------------------


def svd_form_fit(states, t_deps, observed=None):
    """The refit as the SVD of the ring-sized matrices: A = Z2 pinv(Z1), and
    B from the SVD of the residual.  Returns ``(a, b, b_pinv, d_eps, snap)``."""
    g, k, d = states.shape
    z = np.swapaxes(states, 1, 2)
    z1, z2 = z[:, :, :-1], z[:, :, 1:]
    a = z2 @ linalg.pinv_stack(z1)
    rough = z2 - a @ z1
    radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
    tiny = np.finfo(np.float64).tiny
    scale_norm = np.maximum(np.linalg.norm(z1.reshape(g, -1), axis=1), tiny)
    tolerance = np.minimum(np.linalg.norm(rough.reshape(g, -1), axis=1) / scale_norm,
                           UNIT_RADIUS_BAND)
    snap = radius >= 1.0 - tolerance
    a = a / np.where(snap & (radius > 0), radius, 1.0)[:, None, None]
    resid = z2 - a @ z1
    n_eff = np.full(g, k - 1)
    if observed is not None:
        resid = resid * observed[:, None, 1:]
        n_eff = observed[:, 1:].sum(axis=1)
    u, s, _ = linalg.svd_stack(resid)
    floor = EXACT_DYNAMICS_RTOL * np.maximum(np.abs(states).max(axis=(1, 2)), tiny)
    top = s[:, 0]
    d_eps = np.where(top > floor, select_dims(s, t_deps * top[:, None]), 0)
    r = s.shape[1]
    keep = np.arange(r)[None, :] < d_eps[:, None]
    scale = np.where(keep, s / np.sqrt(np.maximum(n_eff, 1))[:, None], 0.0)
    live = scale > linalg.PINV_RTOL * scale[:, :1]
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=live)
    b = np.zeros((g, d, d))
    b_pinv = np.zeros((g, d, d))
    b[:, :, :r] = u * scale[:, None, :]
    b_pinv[:, :r, :] = inv[:, :, None] * np.swapaxes(u, 1, 2)
    return a, b, b_pinv, d_eps, snap


def oracle_rings(gen, k, d):
    """Named (g, k, d) state rings: well-conditioned noisy ones, exactly
    rank-deficient ones (a zero coordinate, collinear states), exact
    dynamics, near-constant ones that snap to unit radius, and all zeros."""
    noisy = 8.0 * gen.normal(size=(4, k, d)) + 20.0 * gen.normal(size=(4, 1, d))
    zero_coord = noisy.copy()
    zero_coord[:, :, -1] = 0.0
    collinear = gen.normal(size=(2, k, 1)) * 5.0 * gen.normal(size=(2, 1, d))
    transition = 0.9 * np.linalg.qr(gen.normal(size=(d, d)))[0]
    exact = np.empty((2, k, d))
    exact[:, 0] = 10.0 * gen.normal(size=(2, d))
    for i in range(1, k):
        exact[:, i] = exact[:, i - 1] @ transition.T
    constant = 50.0 + 0.5 * gen.normal(size=(2, k, d))
    return {
        "noisy": noisy, "zero_coord": zero_coord, "collinear": collinear,
        "exact": exact, "constant": constant, "zeros": np.zeros((1, k, d)),
    }


def test_gram_refit_matches_svd_oracle():
    """Every d_eps, snap decision and B/B+ zero column is the oracle's; A
    agrees to 1e-9 relative on well-conditioned rings, B and B+ up to sign.

    ``t_deps`` stays above sqrt(GRAM_RTOL): below it d_eps counts the
    residual's numerical rank, which the Gram form resolves only to that
    level (see the test after this one).
    """
    assert np.sqrt(GRAM_RTOL) < 1e-6
    for d, k in itertools.product(range(1, 6), (3, 10, 60)):
        gen = np.random.default_rng(1000 + 10 * d + k)
        for kind, states in oracle_rings(gen, k, d).items():
            g = states.shape[0]
            flags = gen.random(size=(g, k)) < 0.7
            for observed, t_deps in itertools.product((None, flags), (1e-6, 0.5)):
                case = (d, k, kind, observed is not None, t_deps)
                a, b, b_pinv, d_eps = fit_dynamics_stack(states, t_deps, observed)
                a_o, b_o, b_pinv_o, d_eps_o, snap_o = svd_form_fit(states, t_deps, observed)
                assert np.array_equal(d_eps, d_eps_o), case
                radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
                assert np.array_equal(np.abs(radius - 1.0) < 1e-12, snap_o), case
                for got, want in ((b, b_o), (np.swapaxes(b_pinv, 1, 2), np.swapaxes(b_pinv_o, 1, 2))):
                    zero_cols = (got == 0.0).all(axis=1)
                    assert np.array_equal(zero_cols, (want == 0.0).all(axis=1)), case
                    assert np.array_equal(zero_cols, np.arange(d) >= d_eps[:, None]), case
                    signs = np.where((got * want).sum(axis=1) < 0.0, -1.0, 1.0)
                    err = np.abs(got * signs[:, None, :] - want).max(axis=(1, 2))
                    assert (err <= 1e-6 * np.abs(want).max(axis=(1, 2))).all(), (case, err)
                # Well-conditioned: the nonzero singular values of Z1 span < 1e3.
                _, s1, _ = linalg.svd_stack(np.swapaxes(states[:, :-1], 1, 2))
                spread = s1[:, 0] / np.where(s1 > 0.0, s1, np.inf).min(axis=1)
                rtol = np.where(spread < 1e3, 1e-9, 1e-6)
                err = np.abs(a - a_o).max(axis=(1, 2))
                assert (err <= rtol * np.abs(a_o).max(axis=(1, 2))).all(), (case, err)


def test_gram_refit_counts_exact_residual_rank():
    """At t_deps = 0, d_eps is the residual's rank.  Ten 5-D states give
    nine transition pairs; when the map is not snapped the residual is
    Z2 (I - P), P the projector on Z1's 5-dimensional row space, of exact
    rank 9 - 5 = 4.  The SVD form can count rounding left above its 1e-12
    cut (here ~3e-12 of the top singular value) as a fifth noise direction;
    the Gram form cuts it."""
    d, k = 5, 10
    states = oracle_rings(np.random.default_rng(1000 + 10 * d + k), k, d)["constant"][1:]
    a, b, _, d_eps = fit_dynamics_stack(states, 0.0)
    assert np.abs(np.linalg.eigvals(a[0])).max() < 0.999     # not snapped
    assert d_eps[0] == 4 and (b[0, :, 4] == 0.0).all()


# --- d = 1 shortcuts against the general Gram form ---------------------------


def eigh_gram_spectrum(gram):
    """``_gram_spectrum`` as it is at every size above 1 x 1."""
    mu, vecs = linalg.eigh_stack(gram)
    return np.where(mu > GRAM_RTOL * mu[:, :1], mu, 0.0), vecs


def eigh_form_fit(states, t_deps, observed=None):
    """The Gram-form refit with no d = 1 shortcut: both Grams through
    ``eigh_stack`` and the spectral radius through ``eigvals`` at every d."""
    g, k, d = states.shape
    if k < 2:
        raise InsufficientData("need at least 2 states to fit dynamics")
    z = np.swapaxes(states, 1, 2)
    z1 = z[:, :, :-1]
    z2 = z[:, :, 1:]
    z1t = np.swapaxes(z1, 1, 2)
    g11 = z1 @ z1t
    mu, v = eigh_gram_spectrum(g11)
    g21v = z2 @ z1t @ v
    live = mu[:, None, :] > 0.0
    a = np.divide(g21v, mu[:, None, :], out=np.zeros_like(g21v), where=live) @ np.swapaxes(v, 1, 2)
    fitted = a @ z1
    rough = z2 - fitted
    radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
    scale_norm = np.maximum(
        np.sqrt(np.trace(g11, axis1=1, axis2=2)), np.finfo(np.float64).tiny
    )
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
    resid = np.subtract(z2, fitted, out=rough)
    real = np.ones((g, k), dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if real.shape != (g, k):
        raise ValueError(f"observed must be shaped {(g, k)}, got {real.shape}")
    resid *= real[:, None, 1:]
    n_eff = real[:, 1:].sum(axis=1)
    mu, u = eigh_gram_spectrum(resid @ np.swapaxes(resid, 1, 2))
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


# Zero, subnormal, normal and near-overflow magnitudes.
EXTREMES = np.array([0.0, 5e-324, 1e-310, np.finfo(np.float64).tiny, 1e-200, 1e-150,
                     1.0 / 3.0, 1.0, 7e150, 1e200, 1e308, np.finfo(np.float64).max])


def test_one_by_one_gram_spectrum_is_eigh_stack_bit_for_bit():
    """A (g, 1, 1) Gram skips ``eigh_stack`` and gives what it gives: the
    eigenvalue and the +1 eigenvector of ``dsyevd``'s N = 1 case."""
    for gram in (EXTREMES, -EXTREMES):
        gram = gram.reshape(-1, 1, 1)
        seen = []

        def counted(a, *args, _call=np.linalg.eigh, **kwargs):
            seen.append(a.shape)
            return _call(a, *args, **kwargs)

        want_mu, want_vecs = eigh_gram_spectrum(gram)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted)
            mu, vecs = _gram_spectrum(gram)
        assert seen == []
        assert mu.dtype == want_mu.dtype and np.array_equal(mu, want_mu)
        assert vecs.dtype == want_vecs.dtype and np.array_equal(vecs, want_vecs)


def test_one_by_one_radius_is_eigvals_bit_for_bit():
    """The d = 1 refit takes |A| as the spectral radius; ``eigvals`` of a
    1 x 1 matrix returns its entry exactly, at every magnitude."""
    a = np.concatenate([EXTREMES, -EXTREMES]).reshape(-1, 1, 1)
    radius = np.abs(np.linalg.eigvals(a)).max(axis=1)
    assert radius.dtype == np.float64 and np.array_equal(radius, np.abs(a[:, 0, 0]))


def test_refit_matches_the_general_gram_form_bit_for_bit():
    """At d = 1 the refit calls no LAPACK routine and gives the general
    Gram form's A, B, B+ and d_eps bit for bit, on every oracle ring kind
    and on sign-alternating rings (a negative map, snapped or decaying),
    with and without synthesized states, and on rings scaled toward both
    ends of the range; at d > 1 it is the general form."""
    for d, k in itertools.product(range(1, 4), (2, 3, 10, 60)):
        gen = np.random.default_rng(3000 + 10 * d + k)
        rings = oracle_rings(gen, k, d)
        rings["alternating"] = np.stack([
            50.0 * (-1.0) ** np.arange(k), 30.0 * (-0.5) ** np.arange(k)
        ])[:, :, None] + 0.5 * gen.normal(size=(2, k, d))
        for kind, states in rings.items():
            g = states.shape[0]
            flags = gen.random(size=(g, k)) < 0.7
            for scale, observed, t_deps in itertools.product(
                (1.0, 1e-150, 1e150), (None, flags), (0.0, 0.5)
            ):
                case = (d, k, kind, scale, observed is not None, t_deps)
                ring = scale * states
                want = eigh_form_fit(ring, t_deps, observed)
                seen = []
                with pytest.MonkeyPatch.context() as patch:
                    for name in ("eigh", "eigvals"):
                        def counted(a, *args, _call=getattr(np.linalg, name), **kwargs):
                            seen.append(a.shape)
                            return _call(a, *args, **kwargs)
                        patch.setattr(np.linalg, name, counted)
                    got = fit_dynamics_stack(ring, t_deps, observed)
                assert (seen == []) == (d == 1), case
                for x, y in zip(got, want):
                    assert x.dtype == y.dtype and np.array_equal(x, y), case


# --- Gram-form identification against the SVD-form oracle -------------------

# Per-cell relative agreement of every identified array with the oracle.  The
# measured worst case over the inputs below is about 1e-12 (B and B+ on the
# occlusion descriptors).
IDENTIFY_RTOL = 1e-9

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def svd_form_identify(w, t_d, t_deps):
    """Identification by the thin SVD of each (m, n) descriptor matrix: C the
    top left singular vectors, lam = sigma^2 / n, states sigma_j q_j.  ``w``
    is (g, n, m) as ``identify_stack`` takes it; returns one dict per d."""
    u, sigma, q = linalg.svd_stack(np.swapaxes(w, 1, 2))
    n = w.shape[1]
    dims = select_dims(sigma, t_d * sigma[:, :1], floor=1)
    buckets = []
    for d in np.unique(dims).tolist():
        idx = np.nonzero(dims == d)[0]
        states = sigma[idx, None, :d] * q[idx, :, :d]
        a, b, b_pinv, d_eps = fit_dynamics_stack(states, t_deps)
        buckets.append(dict(indices=idx, c=u[idx, :, :d], lam=sigma[idx, :d] ** 2 / n,
                            states=states, a=a, b=b, b_pinv=b_pinv, d_eps=d_eps))
    return buckets


def separated_stack(gen, g, n, m):
    """(g, n, m) descriptor matrices whose singular values fall by a ratio of
    0.2, 0.45 or 0.7 per step from a top value between 1e-2 and 1e3."""
    w = np.empty((g, n, m))
    for i, ratio in enumerate(gen.choice([0.2, 0.45, 0.7], size=g)):
        left = np.linalg.qr(gen.normal(size=(n, n)))[0]
        right = np.linalg.qr(gen.normal(size=(m, n)))[0]
        w[i] = (left * 10.0 ** gen.uniform(-2, 3) * ratio ** np.arange(n)) @ right.T
    return w


def occlusion_descriptors(mode):
    """The (cells, 10, m) init-window descriptors of the occlusion scene."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode)
    geometry = make_grid(*frames.shape[1:3], config.brick_height, config.brick_width)
    init = frames.astype(np.float64)
    depth = config.brick_depth
    return np.stack([
        batch_descriptors(geometry, init[i : i + depth], mode, config.tau)
        for i in range(0, config.init_frames, depth)
    ], axis=1)


def assert_matches_svd_form(w, t_d, t_deps):
    n = w.shape[1]
    got = identify_stack(w, t_d, t_deps, history=n)
    want = svd_form_identify(w, t_d, t_deps)
    assert [bucket.d for bucket in got] == [b["c"].shape[2] for b in want]
    for bucket, oracle in zip(got, want):
        assert np.array_equal(bucket.indices, oracle["indices"])
        assert np.array_equal(bucket.d_eps, oracle["d_eps"])
        for name in ("c", "lam", "states", "a", "b", "b_pinv"):
            x, y = getattr(bucket, name), oracle[name]
            cell_axes = tuple(range(1, y.ndim))
            err = np.abs(x - y).max(axis=cell_axes)
            scale = np.abs(y).max(axis=cell_axes)
            assert (err <= IDENTIFY_RTOL * scale).all(), (bucket.d, name, err.max())


@pytest.mark.parametrize("m", [48, 240])
@pytest.mark.parametrize("t_d", [0.3, 0.05])
def test_identify_stack_matches_svd_form_on_separated_spectra(m, t_d):
    w = separated_stack(np.random.default_rng(m + int(100 * t_d)), 40, 10, m)
    assert_matches_svd_form(w, t_d, 0.5)


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
@pytest.mark.parametrize("t_d", [0.5, 0.1])
def test_identify_stack_matches_svd_form_on_scene_descriptors(mode, t_d):
    assert_matches_svd_form(occlusion_descriptors(mode), t_d, 0.5)


PLANTED_SPECTRUM = (1.0, 1e-3, 1e-5, 1e-7)


def planted_spectrum_matrix():
    gen = np.random.default_rng(3)
    left = np.linalg.qr(gen.normal(size=(48, 4)))[0]
    right = np.linalg.qr(gen.normal(size=(10, 4)))[0]
    return (left * PLANTED_SPECTRUM) @ right.T                # (m, n) = (48, 10)


@pytest.mark.parametrize("t_d", [0.0, 1e-9, 1e-6, 1e-4, 0.5])
def test_identified_basis_is_orthonormal_at_any_t_d(t_d):
    """W^T q_j / sigma_j drifts from orthogonality as sigma_j / sigma_1
    shrinks (C^T C - I reached 5.8e-7 on this spectrum at t_d = 1e-9
    without the QR pass)."""
    model = learn_initial(planted_spectrum_matrix(), t_d=t_d)
    c = model.c[0]
    assert np.abs(c.T @ c - np.eye(model.d)).max() <= 1e-12


def test_gram_rank_cut_resolves_singular_values_to_gram_rtol():
    """The Gram's eigenvalues resolve singular values only down to about
    sqrt(GRAM_RTOL) = 3e-7 of the largest: of the planted 1, 1e-3, 1e-5,
    1e-7 the last counts as zero, where the SVD's 1e-12 cut kept it."""
    assert np.sqrt(GRAM_RTOL) > 1e-7
    assert learn_initial(planted_spectrum_matrix(), t_d=1e-9).d == 3
    _, [sigma], _ = linalg.svd_stack(planted_spectrum_matrix()[None])
    assert (sigma > 1e-9 * sigma[0]).sum() == 4


def test_all_zero_cell_gets_e1_and_no_dynamics():
    """As the SVD gave: zero data identifies the basis e_1 with lam = 0,
    zero states and d_eps = 0, with no divide warning, in a stack of one
    and among other cells."""
    w = np.random.default_rng(4).normal(size=(3, 10, 16))
    w[1] = 0.0
    buckets = identify_stack(w, t_d=0.5, t_deps=0.5, history=10)
    zero = learn_initial(np.zeros((16, 10)))
    assert zero.d == 1
    assert np.array_equal(zero.c[0, :, 0], np.eye(16)[0])
    assert zero.lam[0, 0] == 0.0 and zero.d_eps[0] == 0
    assert (zero.states == 0.0).all()
    [bucket] = [b for b in buckets if 1 in b.indices]
    cell = list(bucket.indices).index(1)
    for name in ("c", "lam", "states", "d_eps"):
        assert np.array_equal(getattr(bucket, name)[cell], getattr(zero, name)[0]), name


def test_identify_stack_copies_only_the_kept_columns():
    gen = np.random.default_rng(12)
    w = gen.normal(size=(3, 8, 16))                # 8 windows of 16 entries
    buckets = identify_stack(w, t_d=0.5, t_deps=0.5, history=6)
    for bucket in buckets:
        assert bucket.d < 8
        assert bucket.c.flags.c_contiguous and bucket.c.flags.owndata
        assert bucket.states.shape == (bucket.indices.size, 6, bucket.d)
        assert bucket.states.flags.owndata       # no view into all 8 states


def test_regroup_joins_chunks_into_the_whole_stack():
    """``regroup`` joins the buckets of consecutive chunks of a stack, each
    d's cells in chunk order, into the buckets ``identify_stack`` gives the
    whole stack, field for field and bit for bit.  One chunk's buckets come
    back as they are, with no copy."""
    w = separated_stack(np.random.default_rng(21), 40, 10, 48)
    whole = identify_stack(w, 0.05, 0.5, 10)
    chunks = []
    for start in (0, 15, 30):
        for bucket in identify_stack(w[start : start + 15], 0.05, 0.5, 10):
            bucket.indices += start
            chunks.append(bucket)
    joined = regroup(chunks)
    assert len(chunks) > len(whole) > 1
    assert [bucket.d for bucket in joined] == [bucket.d for bucket in whole]
    for got, want in zip(joined, whole):
        for f in fields(ModelBucket):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    lone = identify_stack(w, 0.05, 0.5, 10)
    assert [id(b) for b in regroup(lone[::-1])] == [id(b) for b in lone]
