"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints ``[acceptance NN] name: PASS/FAIL`` (bypassing pytest's
capture so the lines are visible in live output) and then asserts, so a
red criterion shows both the verdict line and the numeric evidence.

The heavy scene runs (352x288, 200 frames, both descriptor modes, with and
without an illumination step) are computed once per session and shared.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from brickbg import linalg
from brickbg.config import EngineConfig
from brickbg.evaluation import EvalReport, per_frame_fscores
from brickbg.features import brick_descriptor
from brickbg.maintenance import synthesize, update_basis_stack, weight
from brickbg.pipeline import background_flags, initialize, model_at, process_video, step
from brickbg.subspace import learn_initial
from brickbg.synth import MovingRect, SceneScript, illumination_scene, render


@pytest.fixture
def announce(capsys):
    """Print a verdict line past pytest's capture so it shows live."""

    def _announce(line: str):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


# --- shared heavy runs -------------------------------------------------------


def reference_scene(channels: int) -> SceneScript:
    """The benchmark scene: textured noisy background, one moving square.

    The square moves in brick-sized jumps so it is static within each
    temporal analysis window, enters after model initialization, and its
    intensity (240) sits far outside the background tones (70..160).
    """
    return SceneScript(
        width=352, height=288, frame_count=200, channels=channels, seed=2,
        background="gaussian_noise", base_kind="three_tone",
        base_low=70.0, base_high=160.0, noise_sigma=5.0,
        objects=[MovingRect(width=24, height=24, color=(240.0,) * channels,
                            start=(8, 32), velocity=(0.8, 0.8), enter=50, jump=5)],
    )


@pytest.fixture(scope="module")
def scene_runs():
    """mode -> dict with masks, truth, per-frame F-scores and runtime."""
    runs = {}
    for key, mode, channels, gain in (
        ("cs", "cs_stltp", 1, None),
        ("rgb", "rgb", 3, None),
        ("cs_gain", "cs_stltp", 1, 1.5),
        ("rgb_gain", "rgb", 3, 1.5),
    ):
        scene = reference_scene(channels)
        if gain is not None:
            scene = illumination_scene(scene, gain=gain, step_frame=100)
        frames, truth = render(scene)
        config = EngineConfig(mode=mode)
        started = time.perf_counter()
        masks, state = process_video(frames, config)
        seconds = time.perf_counter() - started
        runs[key] = {
            "fscores": per_frame_fscores(masks, truth),
            "seconds": seconds,
            "frames": frames.shape[0],
        }
    return runs


# --- 1: numeric kernels -------------------------------------------------------


def test_criterion_01_numeric_kernels(announce):
    gen = np.random.default_rng(100)
    worst_svd = worst_pinv = worst_eig = 0.0
    started = time.perf_counter()
    for case in range(100):
        rows = int(gen.integers(1, 9))
        cols = int(gen.integers(1, 9))
        a = gen.normal(size=(rows, cols)) * 10.0 ** gen.integers(-3, 4)
        if case % 3 == 0 and min(rows, cols) > 1:   # force rank deficiency
            rank = int(gen.integers(1, min(rows, cols)))
            a = gen.normal(size=(rows, rank)) @ gen.normal(size=(rank, cols))
        scale = np.linalg.norm(a) or 1.0

        res = linalg.svd(a)
        recon = (res.u * res.sigma) @ res.q.T
        worst_svd = max(worst_svd, np.linalg.norm(recon - a) / scale)

        p = linalg.pinv(a)
        worst_pinv = max(
            worst_pinv,
            np.linalg.norm(a @ p @ a - a) / scale,
            np.linalg.norm(p @ a @ p - p) / (np.linalg.norm(p) or 1.0),
            np.abs((a @ p) - (a @ p).T).max(),
            np.abs((p @ a) - (p @ a).T).max(),
        )

        s = a @ a.T + np.eye(rows) * gen.uniform(0.1, 2.0)
        vals, vecs = linalg.eigh_stack(s[None])
        vals, vecs = vals[0], vecs[0]
        rebuilt = (vecs * vals) @ vecs.T
        worst_eig = max(
            worst_eig, np.linalg.norm(rebuilt - s) / np.linalg.norm(s)
        )
    seconds = time.perf_counter() - started
    ok = worst_svd < 1e-10 and worst_pinv < 1e-9 and worst_eig < 1e-9 and seconds < 5.0
    announce(
        f"[acceptance 01] numeric kernels: {'PASS' if ok else 'FAIL'}  "
        f"(100 matrices: svd {worst_svd:.1e}, pinv {worst_pinv:.1e}, "
        f"eig {worst_eig:.1e}, {seconds:.2f}s)"
    )
    assert worst_svd < 1e-10
    assert worst_pinv < 1e-9
    assert worst_eig < 1e-9
    assert seconds < 5.0


# --- 2: planted-model identification --------------------------------------------


def _planted(seed, m, d, n, sigma):
    gen = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(gen.normal(size=(m, d)))
    q, _ = np.linalg.qr(gen.normal(size=(d, d)))
    transition = 0.95 * q
    z = 10.0 * gen.normal(size=d)
    cols = []
    for _ in range(n):
        cols.append(basis @ z)
        z = transition @ z
        if sigma:
            z = z + gen.normal(scale=sigma, size=d)
    return basis, transition, np.stack(cols, axis=1)


def test_criterion_02_planted_identification(announce):
    started = time.perf_counter()
    basis, transition, window = _planted(202, m=48, d=3, n=60, sigma=0.0)
    model = learn_initial(window, t_d=1e-6)
    angle = float(subspace_angles(model.c[0], basis).max())
    got = np.sort_complex(np.linalg.eigvals(model.a))
    want = np.sort_complex(np.linalg.eigvals(transition))
    eig_err = float(np.abs(got - want).max())

    basis_n, _, window_n = _planted(203, m=48, d=3, n=60, sigma=0.01)
    noisy = learn_initial(window_n, t_d=0.01)
    noisy_angle = float(subspace_angles(noisy.c[0][:, :3], basis_n).max())
    seconds = time.perf_counter() - started

    ok = angle < 1e-6 and eig_err < 1e-6 and noisy_angle < 0.05 and seconds < 5.0
    announce(
        f"[acceptance 02] planted-model identification: {'PASS' if ok else 'FAIL'}  "
        f"(exact: angle {angle:.1e}, eig {eig_err:.1e}; noisy: angle "
        f"{noisy_angle:.3f} rad; {seconds:.2f}s)"
    )
    assert angle < 1e-6
    assert eig_err < 1e-6
    assert noisy_angle < 0.05
    assert seconds < 5.0


# --- 3: incremental update vs full eigendecomposition ------------------------------


def test_criterion_03_incremental_matches_batch(announce):
    worst_val = worst_proj = 0.0
    for seed in range(100):
        gen = np.random.default_rng(300 + seed)
        m, d = 10, 3
        c, _ = np.linalg.qr(gen.normal(size=(m, d)))
        lam = np.sort(gen.uniform(0.5, 4.0, size=d))[::-1]
        v = gen.normal(size=m) * 3.0
        alpha = 0.05
        new_c, new_lam = update_basis_stack(c[None], lam[None], v[None], alpha)
        cov = (1.0 - alpha) * (c * lam) @ c.T + alpha * np.outer(v, v)
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(vals)[::-1]
        want_vals = vals[order][:d]
        want_vecs = vecs[:, order][:, :d]
        worst_val = max(worst_val, np.abs(new_lam[0] - want_vals).max())
        worst_proj = max(
            worst_proj,
            np.abs(new_c[0] @ new_c[0].T - want_vecs @ want_vecs.T).max(),
        )
    ok = worst_val < 1e-8 and worst_proj < 1e-8
    announce(
        f"[acceptance 03] incremental basis update vs batch: "
        f"{'PASS' if ok else 'FAIL'}  (100 cases: eigenvalues {worst_val:.1e}, "
        f"projector {worst_proj:.1e})"
    )
    assert worst_val < 1e-8
    assert worst_proj < 1e-8


# --- 4: influence function and long-run orthonormality -----------------------------


def test_criterion_04_influence_and_orthonormality(announce):
    assert weight(0.0, 1.7) == 1.0
    gen = np.random.default_rng(400)
    rhos = 10.0 ** gen.uniform(-3, 3, size=1000)
    half_err = float(np.abs(weight(rhos, rhos) - 0.5).max())
    grid = np.linspace(0.0, 100.0, 4001)
    decreasing = bool((np.diff(weight(grid, 2.5)) < 0.0).all())

    m, d = 12, 3
    c, _ = np.linalg.qr(gen.normal(size=(m, d)))
    c, lam = c[None], np.array([[5.0, 2.0, 1.0]])
    worst_orth = 0.0
    energies_ok = True
    for _ in range(1000):
        v = c[0] @ gen.normal(size=d) * 3.0 + gen.normal(size=m)
        c, lam = update_basis_stack(c, lam, v[None], 0.05)
        err = float(np.abs(c[0].T @ c[0] - np.eye(d)).max())
        worst_orth = max(worst_orth, err)
        energies_ok = energies_ok and bool((lam >= 0.0).all())
    ok = half_err <= 1e-12 and decreasing and worst_orth < 1e-8 and energies_ok
    announce(
        f"[acceptance 04] influence function and orthonormality: "
        f"{'PASS' if ok else 'FAIL'}  (w(rho)=0.5 err {half_err:.1e}, "
        f"monotone {decreasing}, worst orthonormality over 1000 updates "
        f"{worst_orth:.1e}, energies non-negative {energies_ok})"
    )
    assert half_err <= 1e-12
    assert decreasing
    assert worst_orth < 1e-8
    assert energies_ok


# --- 5: descriptor invariance to illumination gain ---------------------------------


def test_criterion_05_descriptor_gain_invariance(announce):
    gen = np.random.default_rng(500)
    checked = 0
    for case in range(100):
        channels = 3 if case % 3 == 0 else 1
        # Continuous values: the ternary code is scale-invariant everywhere
        # except exactly on the tolerance boundary, which continuous draws
        # avoid (integer data can tie, e.g. 6 vs 5 at tau = 0.2, and a tie's
        # float rounding direction depends on the gain).
        volume = gen.uniform(1.0, 200.0, size=(5, 8, 8, channels))
        base = brick_descriptor(volume, 2, 2, 4, 4, mode="cs_stltp")
        per_channel = base.reshape(channels, -1).sum(axis=1)
        assert (per_channel == 320).all()
        for g in (0.5, 0.8, 1.25):
            scaled = brick_descriptor(volume * g, 2, 2, 4, 4, mode="cs_stltp")
            assert np.array_equal(scaled, base), (case, g)
            checked += 1
    announce(
        f"[acceptance 05] descriptor gain invariance: PASS  "
        f"({checked} scaled bricks bit-identical, histogram mass always 320)"
    )
    assert checked == 300


# --- 6: reference-scene segmentation quality ----------------------------------------


def test_criterion_06_scene_quality(scene_runs, announce):
    cs = scene_runs["cs"]
    rgb = scene_runs["rgb"]
    cs_mean = float(cs["fscores"].mean())
    rgb_mean = float(rgb["fscores"].mean())
    ok = (cs_mean >= 0.90 and rgb_mean >= 0.90
          and cs["seconds"] < 60.0 and rgb["seconds"] < 60.0)
    announce(
        f"[acceptance 06] scene quality: {'PASS' if ok else 'FAIL'}  "
        f"(mean per-frame F: cs {cs_mean:.4f}, rgb {rgb_mean:.4f}; "
        f"runtimes {cs['seconds']:.1f}s / {rgb['seconds']:.1f}s at 352x288)"
    )
    assert cs_mean >= 0.90
    assert rgb_mean >= 0.90
    assert cs["seconds"] < 60.0
    assert rgb["seconds"] < 60.0


# --- 7: robustness to an illumination step ------------------------------------------


def test_criterion_07_illumination_step(scene_runs, announce):
    cs_clean = float(scene_runs["cs"]["fscores"][100:].mean())
    cs_gain = float(scene_runs["cs_gain"]["fscores"][100:].mean())
    cs_drop = cs_clean - cs_gain
    rgb_clean = float(scene_runs["rgb"]["fscores"][100:].mean())
    rgb_gain = float(scene_runs["rgb_gain"]["fscores"][100:].mean())
    rgb_drop = rgb_clean - rgb_gain
    ok = cs_drop < 0.05
    announce(
        f"[acceptance 07] illumination step (x1.5 at frame 100): "
        f"{'PASS' if ok else 'FAIL'}  (cs degradation {cs_drop:+.4f} < 0.05; "
        f"rgb control degrades {rgb_drop:+.4f}, permitted)"
    )
    assert cs_drop < 0.05
    # Directional control: raw-intensity descriptors are expected to suffer.
    assert rgb_drop > cs_drop


# --- 8: occlusion coasting and recovery ----------------------------------------------


def test_criterion_08_occlusion_coasting(announce):
    scene = SceneScript(
        width=64, height=64, frame_count=200, seed=4,
        background="gaussian_noise", base_kind="three_tone",
        base_low=70.0, base_high=160.0, noise_sigma=5.0,
    )
    video, _ = render(scene)
    config = EngineConfig(mode="cs_stltp")
    state = initialize(video[:50], config)
    for start in range(50, 100, 5):             # converge on clean windows
        step(state, video[start : start + 5])
    cell = (7, 7)                               # brick at pixels 28..32
    v_pre = synthesize(model_at(state, *cell))

    flagged_first = flagged_last = False
    for k, start in enumerate(range(100, 180, 5)):   # 80 occluded frames
        window = video[start : start + 5].copy()
        window[:, 24:40, 24:40] = 240           # occluder with margin
        result = step(state, window)
        covered = not result.brick_background[cell[1], cell[0]]
        if k == 0:
            flagged_first = covered
        flagged_last = covered
    v_post = synthesize(model_at(state, *cell))
    drift = float(np.linalg.norm(v_post - v_pre) / np.linalg.norm(v_pre))

    recovered_after = None
    for k, start in enumerate(range(180, 200, 5), start=1):
        step(state, video[start : start + 5])
        if background_flags(state)[cell[1], cell[0]]:
            recovered_after = k
            break
    ok = (flagged_first and flagged_last and drift < 0.05
          and recovered_after is not None and recovered_after <= 2)
    announce(
        f"[acceptance 08] occlusion coasting: {'PASS' if ok else 'FAIL'}  "
        f"(80-frame occlusion: prediction drift {drift:.2e} < 5%, "
        f"reclassified background after {recovered_after} step(s))"
    )
    assert flagged_first and flagged_last       # occluder was detected throughout
    assert drift < 0.05
    assert recovered_after is not None and recovered_after <= 2


# --- 9: throughput (soft target) ------------------------------------------------------


def test_criterion_09_throughput(scene_runs, announce):
    rgb = scene_runs["rgb"]
    fps = rgb["frames"] / rgb["seconds"]
    verdict = "PASS" if fps >= 10.0 else "BELOW TARGET (soft)"
    announce(
        f"[acceptance 09] throughput: {verdict}  "
        f"(rgb 352x288: {fps:.1f} fps, soft target 10 fps)"
    )
    # Soft target: reported, never a hard failure.


# --- 10: F-score arithmetic -------------------------------------------------------------


def test_criterion_10_fscore_oracle(announce):
    gen = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(1000):
        tp, fp, fn = (int(x) for x in gen.integers(0, 10**6, size=3))
        denom = 2 * tp + fp + fn
        want = Fraction(2 * tp, denom) if denom else Fraction(1)
        got = EvalReport(tp, fp, fn).fscore
        worst = max(worst, abs(got - float(want)))
    ok = worst == 0.0
    announce(
        f"[acceptance 10] F-score arithmetic: {'PASS' if ok else 'FAIL'}  "
        f"(1000 random tallies vs exact rationals, worst |err| {worst:.1e})"
    )
    # float division is correctly rounded, so the float of the exact
    # rational must match bit for bit.
    assert worst == 0.0
