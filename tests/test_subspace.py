"""Model identification: planted-model recovery and dynamics refits.

The central oracle plants a known orthonormal basis and transition map,
generates exact data from them, and checks identification recovers the
subspace (principal angles) and the transition spectrum.  Dynamics-refit
tests pin the behaviors the streaming engine depends on: synthesized
states must not shrink the noise estimate, and near-unit spectral radii
must coast instead of drifting.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from brickbg import linalg
from brickbg.pipeline import _ring_append
from brickbg.subspace import (
    InsufficientData,
    fit_dynamics_stack,
    learn_initial,
    select_dims,
)


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
    assert model.n_states == 8
    assert model.states.shape == (1, 8, 2)
    assert model.observed.all()
    # the ring holds the newest 8 states, oldest first: they reproduce the
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
    # trace's residual singular value sits between ZERO_CUTOFF and PINV_RTOL.
    thin = np.cumsum(
        gen.normal(size=(k, 1)) * np.eye(d)[0] + 1e-11 * gen.normal(size=(k, 1)) * np.eye(d)[-1],
        axis=0,
    )
    decay = np.power(0.5, np.arange(k))[:, None] * gen.normal(size=d) * 10.0
    return np.concatenate([noisy, thin[None], decay[None], np.zeros((1, k, d))])


def test_b_padding_and_pinv_agree():
    """B+ derived from the residual SVD matches the pseudo-inverse of B:
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


def test_subspace_model_ring_respects_history():
    model = learn_initial(np.stack([np.ones(3), 2.0 * np.ones(3)], axis=1), history=4)
    assert model.n_states == 2
    for i in range(10):
        _ring_append(model, np.full((1, 1), float(i)), np.array([True]))
    assert model.n_states == 4 and model.states.shape == (1, 4, 1)
    assert model.states[0, 0, 0] == 6.0
