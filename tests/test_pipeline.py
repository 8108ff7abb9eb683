"""Streaming engine: grid geometry, batching, and the full update loop.

The deepest test here mirrors grid cells through two engine steps by
applying the stacked model functions (residuals -> label -> prediction ->
composition -> robust reweight -> basis update -> ring append -> dynamics
refit) to the one-cell bucket that ``model_at`` copies out of the engine,
and requires the bucketed engine to land on the same model, ring and mask
for those cells.
"""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from brickbg.config import EngineConfig
from brickbg.evaluation import evaluate
from brickbg.features import brick_descriptor
from brickbg.imageio import FrameFormatError
from brickbg.maintenance import compose_stack, reweight_stack, update_basis_stack
from brickbg.pipeline import (
    GAIN_BAND,
    EngineState,
    background_flags,
    batch_descriptors,
    initialize,
    make_grid,
    model_at,
    process_video,
    remove_small_components,
    step,
)
from brickbg.segmentation import classify_stack, residuals_stack
from brickbg.subspace import InsufficientData, ModelBucket, fit_dynamics_stack, learn_initial
from brickbg.synth import load_scene, render

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def noisy_video(frames, height, width, channels=1, seed=0, base=None):
    gen = np.random.default_rng(seed)
    if base is None:
        base = gen.choice([70.0, 105.0, 160.0], size=(height, width, channels))
    video = base + gen.normal(scale=5.0, size=(frames, height, width, channels))
    return np.clip(np.rint(video), 0, 255).astype(np.uint8), base


# --- geometry ---------------------------------------------------------------


def test_make_grid_divisible():
    g = make_grid(8, 12, 4, 4)
    assert (g.grid_w, g.grid_h) == (3, 2)
    assert list(g.x0) == [0, 4, 8]
    assert list(g.y0) == [0, 4]


def test_make_grid_anchors_edge_bricks_inward():
    g = make_grid(6, 10, 4, 4)
    assert (g.grid_w, g.grid_h) == (3, 2)
    assert list(g.x0) == [0, 4, 6]      # last column reaches back
    assert list(g.y0) == [0, 2]


def test_make_grid_ownership_partitions_pixels():
    g = make_grid(11, 13, 4, 4)
    assert g.owner.shape == (11, 13)
    # every cell id appears; owners form a partition by construction
    assert set(np.unique(g.owner)) == set(range(g.locations))
    # each pixel lies inside its owner's window at the stored local offset
    for y in range(11):
        for x in range(13):
            cell = g.owner[y, x]
            gx, gy = cell % g.grid_w, cell // g.grid_w
            assert g.x0[gx] + g.local_x[x] == x
            assert g.y0[gy] + g.local_y[y] == y
            assert 0 <= g.local_x[x] < 4 and 0 <= g.local_y[y] < 4


def test_make_grid_rejects_oversized_brick():
    with pytest.raises(ValueError):
        make_grid(3, 10, 4, 4)


# --- batched descriptors ------------------------------------------------------


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
@pytest.mark.parametrize("channels", [1, 3])
def test_batch_descriptors_match_per_brick(mode, channels):
    gen = np.random.default_rng(4)
    volume = gen.integers(0, 256, size=(5, 8, 12, channels)).astype(np.float64)
    geometry = make_grid(8, 12, 4, 4)
    batch = batch_descriptors(geometry, volume, mode, tau=0.2)
    for cell in range(geometry.locations):
        gx, gy = cell % geometry.grid_w, cell // geometry.grid_w
        single = brick_descriptor(
            volume, int(geometry.x0[gx]), int(geometry.y0[gy]), 4, 4, mode=mode, tau=0.2
        )
        assert np.array_equal(batch[cell], single), f"cell {cell}"


def test_batch_descriptors_rejects_unknown_mode():
    geometry = make_grid(8, 8, 4, 4)
    with pytest.raises(ValueError):
        batch_descriptors(geometry, np.zeros((5, 8, 8, 1)), "luma", 0.2)


# --- initialization -------------------------------------------------------------


def test_initialize_builds_models_for_every_cell():
    video, base = noisy_video(20, 8, 12, seed=1)
    config = EngineConfig(init_frames=20)
    state = initialize(video, config)
    assert state.geometry.locations == 6
    covered = np.concatenate([b.indices for b in state.buckets])
    assert sorted(covered) == list(range(6))
    for bucket in state.buckets:
        g, m, d = bucket.c.shape
        assert bucket.lam.shape == (g, d)
        assert bucket.a.shape == (g, d, d)
        assert bucket.states[:, bucket.n_states - 1].shape == (g, d)
        assert bucket.n_states == 4              # 20 frames / depth 5
        assert bucket.observed[:, :4].all()      # seeded states are real data
        assert not bucket.observed[:, 4:].any()


def test_initialize_aux_mean_is_window_mean():
    video, _ = noisy_video(20, 8, 8, seed=2)
    state = initialize(video, EngineConfig(init_frames=20))
    assert np.allclose(state.aux_mean, video[:20].astype(np.float64).mean(axis=0))


def test_initialize_insufficient_frames():
    video, _ = noisy_video(30, 8, 8, seed=3)
    with pytest.raises(InsufficientData):
        initialize(video[:10], EngineConfig(init_frames=20))
    with pytest.raises(InsufficientData):
        initialize(video[:8], EngineConfig(init_frames=8))  # one window only


def test_initialize_rejects_bad_channel_count():
    with pytest.raises(ValueError):
        initialize(np.zeros((20, 8, 8, 2), dtype=np.uint8), EngineConfig(init_frames=20))


# --- step validation ---------------------------------------------------------------


def test_step_validates_window():
    video, _ = noisy_video(25, 8, 8, seed=4)
    state = initialize(video[:20], EngineConfig(init_frames=20))
    with pytest.raises(ValueError, match="frame size"):
        step(state, np.zeros((5, 8, 12, 1), dtype=np.uint8))
    with pytest.raises(ValueError, match="channel"):
        step(state, np.zeros((5, 8, 8, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="exactly 5"):
        step(state, video[20:23])


def test_step_masks_and_labels_are_consistent():
    video, base = noisy_video(30, 8, 12, seed=5)
    config = EngineConfig(init_frames=20, min_area=3)
    state = initialize(video[:20], config)
    result = step(state, video[20:25])
    assert result.masks.shape == (5, 8, 12)
    assert result.raw_masks.shape == (5, 8, 12)
    assert not (result.masks & ~result.raw_masks).any()   # cleaning only removes
    assert result.brick_background.shape == (2, 3)
    assert np.array_equal(background_flags(state), result.brick_background)
    assert state.steps == 1
    assert set(result.timings) == {
        "descriptors", "segmentation", "maintenance", "assembly", "postprocess",
    }


def test_quiet_scene_stays_background():
    video, _ = noisy_video(40, 8, 12, seed=6)
    config = EngineConfig(init_frames=20)
    state = initialize(video[:20], config)
    for start in (20, 25, 30, 35):
        result = step(state, video[start : start + 5])
        assert result.brick_background.all()
        assert not result.masks.any()


def test_aux_mean_is_kept_for_the_cs_stltp_gate_only():
    """Only the cs_stltp pixel gate reads aux_mean: an rgb step leaves it as
    initialized, a cs_stltp step rescales it by the gain and blends quiet pixels."""
    video, _ = noisy_video(25, 8, 12, seed=7)
    window = video[20:25]
    window_mean = window.astype(np.float64).mean(axis=0)

    state = initialize(video[:20], EngineConfig(init_frames=20, mode="rgb"))
    before = state.aux_mean.copy()
    step(state, window)
    assert np.array_equal(state.aux_mean, before)

    config = EngineConfig(init_frames=20, mode="cs_stltp")
    state = initialize(video[:20], config)
    scaled = state.aux_mean * np.median(window_mean / state.aux_mean)
    result = step(state, window)
    assert not result.raw_masks.any()            # every pixel is quiet
    assert np.allclose(state.aux_mean, scaled + config.alpha * (window_mean - scaled))
    assert not np.allclose(state.aux_mean, scaled)


# --- the single-cell mirror ----------------------------------------------------------


def cell_descriptor(state, volume, gx, gy, mode, tau):
    geometry = state.geometry
    return brick_descriptor(
        volume, int(geometry.x0[gx]), int(geometry.y0[gy]),
        geometry.brick_width, geometry.brick_height, mode=mode, tau=tau,
    )


def mirror_label(cell, v, voxel_shape, config):
    """One cell's labels from the stacked functions: (residuals, background, voxel mask)."""
    res = residuals_stack(cell.c, cell.a, cell.b_pinv, cell.states[:, cell.n_states - 1], v[None])
    background, voxel_mask = classify_stack(
        res[1], res[2], cell.d_eps, voxel_shape, config.mode,
        config.effective_t_omega, config.effective_t_eps,
    )
    return res, background, voxel_mask


def mirror_cell_update(cell, v, voxel_shape, config):
    """One cell's engine step recomputed on a one-cell bucket."""
    (_, _, _, predicted), background, voxel_mask = mirror_label(cell, v, voxel_shape, config)
    v_hat = np.einsum("gmd,gd->gm", cell.c, predicted)
    v_bar = compose_stack(v[None], v_hat, background, voxel_mask, config.mode)
    v_tilde, _ = reweight_stack(cell.c, cell.lam, v_bar, config.beta)
    c, lam = update_basis_stack(cell.c, cell.lam, v_tilde, config.alpha)
    z_new = np.einsum("gmd,gm->gd", c, v_tilde)
    n = cell.n_states
    states = np.concatenate([cell.states[:, :n], z_new[:, None]], axis=1)[:, -config.history:]
    observed = np.concatenate([cell.observed[:, :n], background[:, None]], axis=1)[:, -config.history:]
    a, b, b_pinv, d_eps = fit_dynamics_stack(states, config.t_deps, observed=observed)
    n = states.shape[1]
    ring, flags = np.zeros_like(cell.states), np.zeros_like(cell.observed)
    ring[:, :n], flags[:, :n] = states, observed
    after = ModelBucket(indices=cell.indices, c=c, lam=lam, a=a, b=b, b_pinv=b_pinv, d_eps=d_eps,
                        states=ring, observed=flags, n_states=n)
    return after, bool(background[0]), voxel_mask[0]


@pytest.mark.parametrize("mode", ["rgb", "cs_stltp"])
def test_engine_step_equals_single_model_mirror(mode):
    """Two windows: a bright square over cell (2, 0), then clean frames.

    The second window refits cell (2, 0) over a ring whose previous state
    was synthesized, so its observed flag must come from the engine's ring.
    """
    channels = 3 if mode == "rgb" else 1
    video, base = noisy_video(30, 8, 12, channels=channels, seed=7)
    config = EngineConfig(mode=mode, init_frames=20, min_area=1)
    state = initialize(video[:20], config)
    geometry = state.geometry
    painted = video[20:25].copy()
    painted[:, 0:4, 8:12] = 250
    cells = [(0, 0), (2, 0), (1, 1)]
    mirrors = {cell: model_at(state, *cell) for cell in cells}

    for window, painted_window in ((painted, True), (video[25:30], False)):
        volume = window.astype(np.float64)
        labels = {}
        for gx, gy in cells:
            v = cell_descriptor(state, volume, gx, gy, mode, config.tau)
            mirrors[gx, gy], background, voxel_mask = mirror_cell_update(
                mirrors[gx, gy], v, (5, 4, 4, channels), config
            )
            labels[gx, gy] = (background, voxel_mask)
        result = step(state, window)
        for (gx, gy), mirrored in mirrors.items():
            after = model_at(state, gx, gy)
            background, voxel_mask = labels[gx, gy]
            assert background == result.brick_background[gy, gx]
            assert after.n_states == mirrored.n_states
            for key in ("c", "lam", "a", "b", "states"):
                assert np.allclose(getattr(after, key), getattr(mirrored, key), atol=1e-8), (gx, gy, key)
            assert np.array_equal(after.d_eps, mirrored.d_eps)
            assert np.array_equal(after.observed, mirrored.observed)
            if mode == "rgb":
                x0, y0 = int(geometry.x0[gx]), int(geometry.y0[gy])
                region = result.raw_masks[:, y0 : y0 + 4, x0 : x0 + 4]
                assert np.array_equal(region, voxel_mask)
        # the painted square tripped its cell only
        assert labels[2, 0][0] != painted_window
        assert labels[0, 0][0] and labels[1, 1][0]
    # the clean window's refit of cell (2, 0) excluded the synthesized state
    mirrored = mirrors[2, 0]
    assert list(mirrored.observed[0, mirrored.n_states - 2 : mirrored.n_states]) == [False, True]


@pytest.mark.parametrize("mode", ["rgb", "cs_stltp"])
def test_step_labels_buckets_of_every_kind(mode):
    """Half the frame is constant (d = 1, d_eps = 0: the omega fallback),
    half is noisy and, at a small t_d, keeps several appearance dimensions
    (d > 1).  Labels and voxel masks of every cell match the stacked
    functions applied to that cell's slice, with one cell of each kind
    painted over."""
    channels = 3 if mode == "rgb" else 1
    gen = np.random.default_rng(21)
    base = gen.choice([70.0, 105.0, 160.0], size=(8, 16, channels))
    video = np.repeat(base[None], 35, axis=0)
    video[:, :, 8:] += gen.normal(scale=20.0, size=(35, 8, 8, channels))
    video = np.clip(np.rint(video), 0, 255).astype(np.uint8)
    config = EngineConfig(mode=mode, init_frames=30, t_d=0.05, min_area=1)
    state = initialize(video[:30], config)
    geometry = state.geometry

    flat = [b for b in state.buckets if b.d == 1 and (b.d_eps == 0).any()]
    rich = [b for b in state.buckets if b.d > 1]
    assert flat and rich                        # both kinds of bucket exist
    painted_cells = [int(flat[0].indices[flat[0].d_eps == 0][0]), int(rich[0].indices[0])]
    window = video[30:35].copy()
    for cell in painted_cells:
        gx, gy = cell % geometry.grid_w, cell // geometry.grid_w
        window[:, geometry.y0[gy] : geometry.y0[gy] + 4, geometry.x0[gx] : geometry.x0[gx] + 4] = 250
    volume = window.astype(np.float64)
    expected = {}
    for cell in range(geometry.locations):
        gx, gy = cell % geometry.grid_w, cell // geometry.grid_w
        v = cell_descriptor(state, volume, gx, gy, mode, config.tau)
        _, background, voxel_mask = mirror_label(model_at(state, gx, gy), v,
                                                 (5, 4, 4, channels), config)
        expected[gx, gy] = (bool(background[0]), voxel_mask[0])

    result = step(state, window)
    for (gx, gy), (background, voxel_mask) in expected.items():
        assert background == result.brick_background[gy, gx], (gx, gy)
        if mode == "rgb":
            x0, y0 = int(geometry.x0[gx]), int(geometry.y0[gy])
            region = result.raw_masks[:, y0 : y0 + 4, x0 : x0 + 4]
            assert np.array_equal(region, voxel_mask), (gx, gy)
    for cell in painted_cells:
        assert not expected[cell % geometry.grid_w, cell // geometry.grid_w][0]


# --- non-finite input -------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_non_finite_frames_are_rejected(mode):
    """One NaN pixel used to empty every later cs_stltp mask (through the
    median gain estimate) and to raise a bare LinAlgError in rgb."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    frames = frames.astype(np.float64)
    frames[60, 10, 10] = np.nan
    config = EngineConfig(mode=mode)
    with pytest.raises(FrameFormatError):
        process_video(frames, config)
    state = initialize(frames[:50], config)
    with pytest.raises(FrameFormatError):
        step(state, frames[60:65])
    frames[60, 10, 10] = np.inf
    with pytest.raises(FrameFormatError):
        initialize(frames[55:105], config)


# --- blackout -------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_blackout_is_marked_and_not_learned(mode):
    """Ten black frames used to leave every mask empty in both modes (rgb:
    omega is 0 for an all-zero window; cs_stltp: the median gain scaled the
    pixel gate's mean to 0), and quality after the blackout dropped."""
    frames, truth = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode)
    clean, _ = process_video(frames, config)
    frames[120:130] = 0
    masks, _ = process_video(frames, config)
    assert (masks[120:130] | ~truth[120:130]).all()     # every truth pixel is marked
    after = evaluate(masks[150:200], truth[150:200]).fscore
    assert after >= evaluate(clean[150:200], truth[150:200]).fscore - 0.01


def test_pixel_gate_ignores_gain_outside_band():
    """A median gain outside GAIN_BAND leaves aux_mean unscaled; quiet
    pixels still blend towards the window mean."""
    video, _ = noisy_video(20, 8, 12, seed=7)
    config = EngineConfig(init_frames=20, mode="cs_stltp")
    state = initialize(video, config)
    before = state.aux_mean.copy()
    result = step(state, np.zeros((5, 8, 12), dtype=video.dtype))
    quiet = ~result.raw_masks.any(axis=0)
    assert np.array_equal(state.aux_mean[~quiet], before[~quiet])
    assert np.allclose(state.aux_mean[quiet], (1.0 - config.alpha) * before[quiet])
    assert GAIN_BAND[0] < 1.0 < GAIN_BAND[1]


# --- streaming ------------------------------------------------------------------------


def test_process_video_shapes_and_init_frames():
    video, _ = noisy_video(38, 8, 12, seed=8)
    config = EngineConfig(init_frames=20)
    masks, state = process_video(video, config)
    assert masks.shape == (38, 8, 12)
    assert not masks[:20].any()                 # init frames are background
    assert state.steps == 4                     # 18 streamed frames, tail padded


def test_process_video_tail_padding_emits_all_frames():
    video, base = noisy_video(27, 8, 8, seed=9)
    bright = video.copy()
    bright[24:, 0:4, 0:4] = 255                 # object appears in the tail
    config = EngineConfig(init_frames=20, min_area=1)
    masks, _ = process_video(bright, config)
    assert masks.shape[0] == 27
    assert masks[24:, 0:4, 0:4].any()


def test_process_video_stride_one():
    video, _ = noisy_video(26, 8, 8, seed=10)
    config = EngineConfig(init_frames=20, stride=1)
    masks, state = process_video(video, config)
    assert masks.shape == (26, 8, 8)
    assert state.steps == 6                     # one window per frame offset


def test_process_video_grayscale_without_channel_axis():
    video, _ = noisy_video(26, 8, 8, seed=11)
    masks, _ = process_video(video[..., 0], EngineConfig(init_frames=20))
    assert masks.shape == (26, 8, 8)


# --- post-processing ----------------------------------------------------------------


def test_remove_small_components_area_threshold():
    mask = np.zeros((12, 40), dtype=bool)
    mask[1:5, 1:6] = True                       # 20 px: kept at min_area 20
    mask[7:8, 10:29] = True                     # 19 px: dropped
    out = remove_small_components(mask, 20)
    assert out[1:5, 1:6].all()
    assert not out[7:8, 10:29].any()


def test_remove_small_components_diagonal_connectivity():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = True  # 8-connected diagonal chain
    assert remove_small_components(mask, 3).sum() == 3
    assert remove_small_components(mask, 4).sum() == 0


def test_remove_small_components_trivial_cases():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    out = remove_small_components(mask, 1)
    assert np.array_equal(out, mask)
    out[0, 0] = False                            # result is a copy
    assert mask[0, 0]
    empty = remove_small_components(np.zeros((4, 4), dtype=bool), 5)
    assert not empty.any()


# --- model access ----------------------------------------------------------------------


def test_model_at_bounds_and_copy_semantics():
    video, _ = noisy_video(20, 8, 12, seed=12)
    state = initialize(video, EngineConfig(init_frames=20))
    with pytest.raises(IndexError):
        model_at(state, 3, 0)
    with pytest.raises(IndexError):
        model_at(state, 0, 2)
    model = model_at(state, 1, 1)
    bucket = next(b for b in state.buckets if 4 in b.indices)
    i = int(np.nonzero(bucket.indices == 4)[0][0])
    assert model.n_states == bucket.n_states
    for f in fields(ModelBucket):                # every field, padding and ring included
        if f.name != "n_states":
            assert np.array_equal(getattr(model, f.name), getattr(bucket, f.name)[i : i + 1]), f.name
    model.c[:] = 0.0
    model.states[:] = 99.0
    fresh = model_at(state, 1, 1)
    assert not np.allclose(fresh.c, 0.0)         # engine state untouched
    assert not np.allclose(fresh.states, 99.0)


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_learn_initial_is_one_cell_of_initialize(mode):
    """``learn_initial`` on a cell's init-window descriptor matrix is the
    engine's model for that cell, bit for bit (cell id aside)."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode)
    state = initialize(frames, config)
    geometry = state.geometry
    init = frames[: config.init_frames].astype(np.float64)
    depth = config.brick_depth
    w = np.stack([
        batch_descriptors(geometry, init[i : i + depth], mode, config.tau)
        for i in range(0, config.init_frames, depth)
    ], axis=2)                                    # (locations, m, 10)
    for cell in (0, 5, 100, 255):
        learned = learn_initial(w[cell], config.t_d, config.t_deps, config.history)
        engine = model_at(state, cell % geometry.grid_w, cell // geometry.grid_w)
        assert list(learned.indices) == [0] and list(engine.indices) == [cell]
        assert learned.n_states == engine.n_states
        for f in fields(ModelBucket):
            if f.name not in ("indices", "n_states"):
                assert np.array_equal(getattr(learned, f.name), getattr(engine, f.name)), (cell, f.name)


def test_background_flags_shape():
    video, _ = noisy_video(20, 8, 12, seed=13)
    state = initialize(video, EngineConfig(init_frames=20))
    flags = background_flags(state)
    assert flags.shape == (2, 3)
    assert flags.all()                           # nothing streamed yet
