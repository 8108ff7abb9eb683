"""Streaming engine: grid geometry, batching, and the full update loop.

The deepest test here mirrors grid cells through two engine steps by
applying the stacked model functions (residuals -> label -> prediction ->
composition -> robust reweight -> basis update -> ring append -> dynamics
refit) to the one-cell bucket that ``model_at`` copies out of the engine,
and requires the bucketed engine to land on the same model, ring and mask
for those cells.  The same functions applied to whole buckets, every row
composed, are the bit-for-bit oracle of the engine's flagged-rows-only
upkeep.
"""

import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from brickbg import features, linalg, pipeline
from brickbg.config import EngineConfig
from brickbg.evaluation import evaluate
from brickbg.features import brick_descriptor
from brickbg.imageio import FrameFormatError
from brickbg.maintenance import compose_stack, reweight_stack, update_basis_stack
from brickbg.pipeline import (
    GAIN_BAND,
    EngineState,
    batch_descriptors,
    grid_parts,
    initialize,
    make_grid,
    model_at,
    pixel_safe_magnitude,
    process_video,
    remove_small_components,
    step,
)
from brickbg.segmentation import appearance_residual, classify_stack, residuals_stack
from brickbg.subspace import InsufficientData, ModelBucket, fit_dynamics_stack, learn_initial
from brickbg.synth import load_scene, render

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def noisy_video(frames, height, width, channels=1, seed=0, base=None):
    gen = np.random.default_rng(seed)
    if base is None:
        base = gen.choice([70.0, 105.0, 160.0], size=(height, width, channels))
    video = base + gen.normal(scale=5.0, size=(frames, height, width, channels))
    return np.clip(np.rint(video), 0, 255).astype(np.uint8), base


def cut_parts(monkeypatch, cells, mode, channels=1):
    """Cut 4x4x5 bricks' grid into ``grid_parts`` of about ``cells`` cells,
    each identified as one chunk."""
    m = (48 if mode == "cs_stltp" else 80) * channels
    monkeypatch.setattr(pipeline, "PART_ENTRIES", cells * m)
    monkeypatch.setattr(pipeline, "PART_CELLS", cells)


# --- geometry ---------------------------------------------------------------


def anchor(geometry, gx, gy):
    """(x0, y0) of grid cell (gx, gy): the frame position of its first pixel."""
    y0, x0 = divmod(int(geometry.pixel_index[gy * geometry.grid_w + gx, 0]), geometry.frame_width)
    return x0, y0


def anchors(geometry):
    """The x0 of every grid column and the y0 of every grid row."""
    return ([anchor(geometry, gx, 0)[0] for gx in range(geometry.grid_w)],
            [anchor(geometry, 0, gy)[1] for gy in range(geometry.grid_h)])


def test_make_grid_divisible():
    g = make_grid(8, 12, 4, 4)
    assert (g.grid_w, g.grid_h) == (3, 2)
    assert anchors(g) == ([0, 4, 8], [0, 4])
    assert g.pixel_index.shape == (6, 4 * 4)
    assert g.owner_index.shape == (8, 12)


def test_make_grid_anchors_edge_bricks_inward():
    g = make_grid(6, 10, 4, 4)
    assert (g.grid_w, g.grid_h) == (3, 2)
    assert anchors(g) == ([0, 4, 6], [0, 2])      # last row and column reach back


def pixel_owner(geometry, y, x):
    """(owner, local_y, local_x) of pixel (y, x): the cell of its grid row and
    column, each clamped to the last one, and the pixel's place in that
    cell's window."""
    gx = min(x // geometry.brick_width, geometry.grid_w - 1)
    gy = min(y // geometry.brick_height, geometry.grid_h - 1)
    x0, y0 = anchor(geometry, gx, gy)
    return gy * geometry.grid_w + gx, y - y0, x - x0


def test_make_grid_ownership_partitions_pixels():
    g = make_grid(11, 13, 4, 4)
    owners = set()
    for y in range(11):
        for x in range(13):
            cell, local_y, local_x = pixel_owner(g, y, x)
            owners.add(cell)
            # the pixel lies inside its owner's window, at the stored position
            assert 0 <= local_y < 4 and 0 <= local_x < 4
            assert g.owner_index[y, x] == cell * 16 + local_y * 4 + local_x
            assert g.pixel_index[cell, local_y * 4 + local_x] == y * 13 + x
    assert owners == set(range(g.locations))


def test_make_grid_rejects_oversized_brick():
    with pytest.raises(ValueError):
        make_grid(3, 10, 4, 4)


# --- batched descriptors ------------------------------------------------------


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
@pytest.mark.parametrize(
    "channels, depth",
    # the default depth 5 keeps the short id "<channels>"
    [pytest.param(c, d, id=str(c) if d == 5 else f"{c}-depth{d}") for c in (1, 3) for d in (1, 3, 5)],
)
def test_batch_descriptors_match_per_brick(mode, channels, depth):
    """On 8x12 the 4x4 bricks tile the frame; 10x13 leaves a remainder on
    both axes, so the last row and column of bricks anchor inward and
    overlap their neighbours.  Each cell's pixels are gathered from every
    frame of the window, whatever its depth."""
    gen = np.random.default_rng(4)
    for height, width in ((8, 12), (10, 13)):
        volume = gen.integers(0, 256, size=(depth, height, width, channels)).astype(np.float64)
        geometry = make_grid(height, width, 4, 4)
        batch = batch_descriptors(geometry, volume, mode, tau=0.2)
        assert batch.shape[0] == geometry.locations
        for cell in range(geometry.locations):
            gx, gy = cell % geometry.grid_w, cell // geometry.grid_w
            single = brick_descriptor(volume, *anchor(geometry, gx, gy), 4, 4, mode=mode, tau=0.2)
            assert np.array_equal(batch[cell], single), (height, width, cell)


@pytest.mark.parametrize("mode, channels", [("rgb", 3), ("cs_stltp", 1), ("cs_stltp", 3)])
def test_batch_descriptors_gather_the_cells_given(monkeypatch, mode, channels):
    """Row i of ``batch_descriptors(..., cells=order)`` is the row of grid
    cell ``order[i]``, bit for bit, in one C-contiguous matrix; ``step``
    gathers its window so, in the buckets' cell order.  The rows are
    gathered in parts of 37, which cut the permuted order across the
    grid's."""
    cut_parts(monkeypatch, 37, mode, channels)
    video, _ = noisy_video(5, 40, 48, channels=channels, seed=13)
    geometry = make_grid(40, 48, 4, 4)
    order = np.random.default_rng(14).permutation(geometry.locations)
    rows = batch_descriptors(geometry, video, mode, 0.2)
    ordered = batch_descriptors(geometry, video, mode, 0.2, cells=order)
    assert ordered.flags.c_contiguous
    assert np.array_equal(ordered, rows[order])


@pytest.mark.parametrize("channels", [1, 3])
def test_brick_descriptor_takes_the_engine_path_on_uint8(monkeypatch, channels):
    """``brick_descriptor`` bins a ``uint8`` window in its own dtype, as
    ``batch_descriptors`` does, not a float64 copy of it, and its vector
    equals the matching row in both modes; the rgb vector is float64."""
    seen = []
    binned = features.bin_volume

    def spy(volume, tau):
        seen.append(volume.dtype)
        return binned(volume, tau)

    monkeypatch.setattr(features, "bin_volume", spy)
    video, _ = noisy_video(5, 10, 13, channels=channels, seed=12)
    geometry = make_grid(10, 13, 4, 4)
    for mode in ("cs_stltp", "rgb"):
        batch = batch_descriptors(geometry, video, mode, tau=0.2)
        for cell in range(geometry.locations):
            gx, gy = cell % geometry.grid_w, cell // geometry.grid_w
            single = brick_descriptor(video, *anchor(geometry, gx, gy), 4, 4, mode=mode, tau=0.2)
            assert single.dtype == np.float64 and np.array_equal(batch[cell], single), (mode, cell)
    assert seen == [np.uint8] * (geometry.locations * channels)


def test_batch_descriptors_rejects_unknown_mode():
    geometry = make_grid(8, 8, 4, 4)
    with pytest.raises(ValueError):
        batch_descriptors(geometry, np.zeros((5, 8, 8, 1)), "luma", 0.2)


@pytest.mark.parametrize("shape", [(5, 8, 9, 1), (5, 9, 8, 3)])
def test_batch_descriptors_rejects_frames_off_the_grid(shape):
    geometry = make_grid(8, 8, 4, 4)
    for mode in ("cs_stltp", "rgb"):
        with pytest.raises(ValueError):
            batch_descriptors(geometry, np.zeros(shape), mode, 0.2)


def test_assemble_masks_matches_per_pixel_loop():
    """Every frame voxel takes the voxel mask of its owning cell, also where
    the inward-anchored edge bricks overlap their neighbours; ``step`` reads
    frame f's mask as ``owner_index`` taken from the cells' frame-f masks."""
    geometry = make_grid(10, 13, 4, 4)
    gen = np.random.default_rng(5)
    vox_masks = gen.random((geometry.locations, 5, 4, 4)) < 0.5
    for f in range(5):
        frame_mask = np.take(vox_masks[:, f], geometry.owner_index)
        assert frame_mask.shape == (10, 13) and frame_mask.dtype == bool
        for y in range(10):
            for x in range(13):
                cell, local_y, local_x = pixel_owner(geometry, y, x)
                assert frame_mask[y, x] == vox_masks[cell, f, local_y, local_x], (f, y, x)


# --- initialization -------------------------------------------------------------


def test_initialize_builds_models_for_every_cell():
    video, base = noisy_video(20, 8, 12, seed=1)
    config = EngineConfig(init_frames=20, history=1000)
    state = initialize(video, config)
    assert state.geometry.locations == 6
    covered = np.concatenate([b.indices for b in state.buckets])
    assert sorted(covered) == list(range(6))
    for bucket in state.buckets:
        g, m, d = bucket.c.shape
        assert bucket.lam.shape == (g, d)
        assert bucket.a.shape == (g, d, d)
        assert bucket.states.shape == (g, 4, d)  # 20 frames / depth 5, not history
        assert bucket.observed.shape == (g, 4)
        assert bucket.observed.all()             # seeded states are real data


def test_initialize_aux_mean_is_window_mean():
    video, _ = noisy_video(20, 8, 8, seed=2)
    state = initialize(video, EngineConfig(init_frames=20))
    assert np.array_equal(state.aux_mean, video[:20].astype(np.float64).mean(axis=0))


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_initialize_peak_memory_stays_near_the_descriptor_matrix(mode):
    """``initialize`` fills each part's (cells, n, m) float64 descriptor
    matrix window by window (here the 256 cells are one part) and identifies
    from n x n Grams.  Its traced peak was 6.2x
    (rgb) and 7.0x (cs_stltp) that matrix, with a float64 copy of the head,
    the per-window columns, their stack and the SVD's full U alive at once."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode)
    initialize(frames, config)            # first-call allocations are not the engine's
    tracemalloc.start()
    try:
        state = initialize(frames, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = state.buckets[0].c.shape[1]
    matrix = state.geometry.locations * (config.init_frames // config.brick_depth) * m * 8
    assert peak < 3 * matrix, (peak, matrix)


def test_initialize_holds_no_whole_grid_descriptor_matrix(monkeypatch):
    """Each part gathers its own (cells, n, m) descriptors from the head, so
    with one part in flight the traced peak stays below half the whole grid's
    (6336, 10, 240) float64 matrix, which ``initialize`` used to build first
    (156 MB traced peak)."""
    monkeypatch.setattr(linalg, "CPUS", 1)
    frames = np.random.default_rng(8).integers(0, 256, size=(50, 288, 352, 3), dtype=np.uint8)
    config = EngineConfig(mode="rgb")
    tracemalloc.start()
    try:
        state = initialize(frames, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = state.geometry.locations * (config.init_frames // config.brick_depth) * 240 * 8
    assert state.geometry.locations == 6336
    assert peak < matrix / 2, (peak, matrix)


def test_cs_initialize_holds_the_int8_head_bins_and_one_chunk(monkeypatch):
    """A full-size gray cs_stltp ``initialize`` holds the head's bins, one
    byte a voxel, and on one CPU one chunk's (cells, 10, 48) float64 matrix
    at a time; the buckets it builds and the transient work of binning and
    identifying stay within as much again, with the chunk counted at 792
    cells, a quarter part.  Chunks now hold about 453 cells, but the last
    window's binning (14.6 MB traced) keeps the peak above the bound at that
    size.  Head bins widened to int16 put the traced peak 26 % above this
    bound (20.4 MB against 16.2 MB)."""
    monkeypatch.setattr(linalg, "CPUS", 1)
    frames, _ = render(replace(load_scene(SCENES / "moving_box.scene"), frame_count=50))
    config = EngineConfig()
    initialize(frames, config)            # first-call allocations are not the engine's
    tracemalloc.start()
    try:
        state = initialize(frames, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.geometry.locations == 6336 and len(grid_parts(6336, 48)) == 2
    head_bins = frames.size
    chunk = (3168 // 4) * (config.init_frames // config.brick_depth) * 48 * 8
    assert peak < 2 * (head_bins + chunk), (peak, head_bins, chunk)


@pytest.fixture(scope="module")
def colour_clip():
    """The first 60 frames of the full-size colour scene: a 50-frame head
    and two windows."""
    frames, _ = render(replace(load_scene(SCENES / "moving_box_rgb.scene"), frame_count=60))
    return frames


def test_rgb_initialize_holds_its_buckets_and_one_chunk(monkeypatch, colour_clip):
    """On one CPU a full-size colour rgb ``initialize`` holds the buckets it
    builds and one chunk's (cells, 10, 240) float64 matrix at a time: each
    905- or 906-cell part is identified as two chunks of at most 453 cells,
    8.7 MB each.  Identification's transients and the join of a part's
    chunks stay within one more chunk.  Parts identified whole
    (``PART_CELLS`` = 1024) traced 38.1 MB against this 30.4 MB bound."""
    monkeypatch.setattr(linalg, "CPUS", 1)
    config = EngineConfig(mode="rgb")
    initialize(colour_clip, config)       # first-call allocations are not the engine's
    tracemalloc.start()
    try:
        state = initialize(colour_clip, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [part.stop - part.start for part in grid_parts(6336, 240)] == [905] * 6 + [906]
    assert -(-906 // pipeline.PART_CELLS) == 2
    held = sum(getattr(bucket, f.name).nbytes for bucket in state.buckets for f in fields(ModelBucket))
    chunk = 453 * (config.init_frames // config.brick_depth) * 240 * 8
    assert peak < held + 2 * chunk, (peak, held, chunk)


@pytest.mark.parametrize("runners", [1, 2])
def test_rgb_step_holds_the_descriptor_matrix_and_the_items_in_flight(
    monkeypatch, request, colour_clip, runners
):
    """A full-size colour rgb ``step`` must hold the window's (6336, 240)
    float64 descriptor matrix and, per item in flight, a few (cells, m)
    arrays of one part's cells: the residual and robust scale of a bucket
    being labelled, or the temporaries and new basis of its basis update.
    Each bucket's items work on its own block of the matrix, so the step's
    traced peak above the state it starts from stays below the matrix plus
    six part-sized arrays per runner.  Copied rows and residuals of every
    bucket, held from the first pass to the second, traced 45.9 MB on one
    CPU and 53.1 MB on two, against bounds of 22.6 and 33.1 MB."""
    if runners == 1:
        monkeypatch.setattr(linalg, "CPUS", 1)
    else:
        request.getfixturevalue("two_runners")
    config = EngineConfig(mode="rgb")
    tracemalloc.start()
    try:
        state = initialize(colour_clip, config)
        step(state, colour_clip[50:55])       # first-call allocations are not the engine's
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step(state, colour_clip[55:60])
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert state.geometry.locations == 6336 and len(state.buckets) == 7
    matrix = 6336 * 240 * 8
    part = 906 * 240 * 8
    assert peak < matrix + 6 * runners * part, (peak, matrix, part)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_initialize_converts_the_head_exactly(monkeypatch, mode, channels):
    """rgb frames are converted to float64 as the gathered rows are
    written, not before, and a cs_stltp ``uint8`` window is binned in its
    own 8-bit domain, whose bins are the float64 ones; so a uint8 clip
    and its float64 copy give the same buckets bit for bit, over several
    parts, after ``initialize`` and after each ``step``: one of a clean
    window and one of a painted window, whose flagged bricks the cs_stltp
    pixel gate cuts down.  The pixel gate never writes into the caller's
    frames."""
    cut_parts(monkeypatch, 37, mode, channels)
    video, _ = noisy_video(60, 40, 48, channels=channels, seed=9)
    video[55:60, 8:20, 12:28] = 250
    config = EngineConfig(mode=mode, t_d=0.05, t_deps=0.05)
    narrow = initialize(video[:50], config)
    wide = initialize(video[:50].astype(np.float64), config)

    def assert_same_models():
        assert len(narrow.buckets) == len(wide.buckets) >= 4      # 120 cells in 4 parts of 30
        for got, want in zip(narrow.buckets, wide.buckets):
            for f in fields(ModelBucket):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        if mode == "cs_stltp":
            assert np.array_equal(narrow.aux_mean, wide.aux_mean)

    assert_same_models()
    for start in (50, 55):
        window = video[start : start + 5].astype(np.float64)
        kept = window.copy()
        got, want = step(narrow, video[start : start + 5]), step(wide, window)
        assert np.array_equal(window, kept)
        for name in ("masks", "raw_masks", "brick_background"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert_same_models()
    assert not got.brick_background.all() and got.masks.any()    # the painted window


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_descriptors_do_not_depend_on_the_split(monkeypatch, two_runners, mode, channels):
    """``batch_descriptors`` gathers its rows part by part on
    ``linalg.parallel_map``, each part into its block of one matrix, and
    each ``initialize`` part writes its windows' rows into its own matrix.
    Parts of 30 cells on two runners give the one-CPU, one-part rows bit
    for bit, as one float64 C-contiguous matrix, and the one-CPU buckets."""
    video, _ = noisy_video(50, 40, 48, channels=channels, seed=11)
    geometry = make_grid(40, 48, 4, 4)          # 120 cells: four parts of 30
    config = EngineConfig(mode=mode, t_d=0.05, t_deps=0.05)
    cut_parts(monkeypatch, 37, mode, channels)
    rows = batch_descriptors(geometry, video[20:25], mode, config.tau)
    state = initialize(video, config)
    monkeypatch.setattr(linalg, "CPUS", 1)
    monkeypatch.setattr(linalg, "_POOL", None)
    state_one = initialize(video, config)
    cut_parts(monkeypatch, geometry.locations, mode, channels)
    whole = batch_descriptors(geometry, video[20:25], mode, config.tau)
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert rows.shape == whole.shape == (120, 48 * channels if mode == "cs_stltp" else 80 * channels)
    assert np.array_equal(rows, whole)
    assert len(state.buckets) == len(state_one.buckets) >= 4
    for got, want in zip(state.buckets, state_one.buckets):
        for f in fields(ModelBucket):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def test_initialize_insufficient_frames():
    video, _ = noisy_video(30, 8, 8, seed=3)
    with pytest.raises(InsufficientData):
        initialize(video[:10], EngineConfig(init_frames=20))


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
    """Only the cs_stltp pixel gate reads aux_mean: rgb keeps none, and a
    cs_stltp step rescales it by the gain and blends quiet pixels."""
    video, _ = noisy_video(25, 8, 12, seed=7)
    window = video[20:25]
    window_mean = window.astype(np.float64).mean(axis=0)

    state = initialize(video[:20], EngineConfig(init_frames=20, mode="rgb"))
    assert state.aux_mean is None
    step(state, window)
    assert state.aux_mean is None

    config = EngineConfig(init_frames=20, mode="cs_stltp")
    state = initialize(video[:20], config)
    scaled = state.aux_mean * np.median(window_mean / state.aux_mean)
    result = step(state, window)
    assert not result.raw_masks.any()            # every pixel is quiet
    assert np.array_equal(state.aux_mean, scaled + config.alpha * (window_mean - scaled))
    assert not np.allclose(state.aux_mean, scaled)


# --- the single-cell mirror ----------------------------------------------------------


def cell_descriptor(state, volume, gx, gy, mode, tau):
    geometry = state.geometry
    return brick_descriptor(
        volume, *anchor(geometry, gx, gy),
        geometry.brick_width, geometry.brick_height, mode=mode, tau=tau,
    )


def label_rows(bucket, v, layout, config):
    """A bucket's labels from the stacked functions: (residuals, background,
    voxel mask) of its (g, m) descriptors ``v``."""
    res = residuals_stack(bucket.c, bucket.a, bucket.b_pinv, bucket.states[:, -1], v)
    background, voxel_mask = classify_stack(
        res[1], res[2], bucket.d_eps, layout, config.effective_t_omega, config.effective_t_eps,
    )
    return res, background, voxel_mask


def mirror_label(cell, v, voxel_shape, config):
    """One cell's labels: ``label_rows`` of its (m,) descriptor.  The voxel
    layout is the brick's ``voxel_shape`` in rgb; a cs_stltp histogram is one
    voxel of m channels, with a (1, 1, 1, 1) mask."""
    layout = voxel_shape if config.mode == "rgb" else (1, 1, 1, v.size)
    return label_rows(cell, v[None], layout, config)


def all_rows_update(bucket, v, layout, config):
    """A bucket's engine step recomputed with every row composed: the
    prediction of every row, ``compose_stack``, the appearance residual of
    the composed vectors, then the reweight, basis update, ring append and
    dynamics refit.  Returns (bucket after, background, voxel mask)."""
    (_, _, _, predicted), background, voxel_mask = label_rows(bucket, v, layout, config)
    v_hat = np.einsum("gmd,gd->gm", bucket.c, predicted)
    v_bar = compose_stack(v, v_hat, voxel_mask)
    _, residual = appearance_residual(bucket.c, v_bar)
    v_tilde, _ = reweight_stack(bucket.c, bucket.lam, v_bar, residual, config.beta)
    c, lam = update_basis_stack(bucket.c, bucket.lam, v_tilde, config.alpha)
    z_new = np.einsum("gmd,gm->gd", c, v_tilde)
    states = np.concatenate([bucket.states, z_new[:, None]], axis=1)[:, -config.history:]
    observed = np.concatenate([bucket.observed, background[:, None]], axis=1)[:, -config.history:]
    a, b, b_pinv, d_eps = fit_dynamics_stack(states, config.t_deps, observed=observed)
    after = ModelBucket(indices=bucket.indices, c=c, lam=lam, a=a, b=b, b_pinv=b_pinv,
                        d_eps=d_eps, states=states, observed=observed)
    return after, background, voxel_mask


def mirror_cell_update(cell, v, voxel_shape, config):
    """One cell's engine step recomputed on a one-cell bucket."""
    layout = voxel_shape if config.mode == "rgb" else (1, 1, 1, v.size)
    after, background, voxel_mask = all_rows_update(cell, v[None], layout, config)
    return after, bool(background[0]), voxel_mask[0]


@pytest.mark.parametrize("mode, history", [
    ("rgb", 60), ("cs_stltp", 60), ("rgb", 4), ("cs_stltp", 4),
], ids=["rgb", "cs_stltp", "rgb-full", "cs_stltp-full"])
def test_engine_step_equals_single_model_mirror(mode, history):
    """Two windows: a bright square over cell (2, 0), then clean frames.

    The second window refits cell (2, 0) over states of which the previous
    one was synthesized, so its observed flag must come from the engine's.
    At ``history = 4`` the four seeded states already fill it, so every
    step drops the oldest state.
    """
    channels = 3 if mode == "rgb" else 1
    video, base = noisy_video(30, 8, 12, channels=channels, seed=7)
    config = EngineConfig(mode=mode, init_frames=20, min_area=1, history=history)
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
            assert after.states.shape == mirrored.states.shape
            assert after.states.shape[1] == min(history, 4 + state.steps)
            for key in ("c", "lam", "a", "b", "states"):
                assert np.allclose(getattr(after, key), getattr(mirrored, key), atol=1e-8), (gx, gy, key)
            assert np.array_equal(after.d_eps, mirrored.d_eps)
            assert np.array_equal(after.observed, mirrored.observed)
            if mode == "rgb":
                x0, y0 = anchor(geometry, gx, gy)
                region = result.raw_masks[:, y0 : y0 + 4, x0 : x0 + 4]
                assert np.array_equal(region, voxel_mask)
        # the painted square tripped its cell only
        assert labels[2, 0][0] != painted_window
        assert labels[0, 0][0] and labels[1, 1][0]
    # the clean window's refit of cell (2, 0) excluded the synthesized state
    mirrored = mirrors[2, 0]
    assert list(mirrored.observed[0, -2:]) == [False, True]


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
        x0, y0 = anchor(geometry, gx, gy)
        window[:, y0 : y0 + 4, x0 : x0 + 4] = 250
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
            x0, y0 = anchor(geometry, gx, gy)
            region = result.raw_masks[:, y0 : y0 + 4, x0 : x0 + 4]
            assert np.array_equal(region, voxel_mask), (gx, gy)
    for cell in painted_cells:
        assert not expected[cell % geometry.grid_w, cell // geometry.grid_w][0]


@pytest.mark.parametrize("mode, t_d", [
    pytest.param("rgb", 0.05, id="rgb"),
    pytest.param("cs_stltp", 0.05, id="cs_stltp"),
    pytest.param("rgb", 0.02, id="rgb-mixed-d"),
])
def test_step_upkeep_equals_the_all_rows_oracle(monkeypatch, mode, t_d):
    """``step`` composes and re-residuals a bucket's flagged rows only,
    since a background brick's composed vector is its observation.  Over a
    painted window and a clean one, every bucket field equals, bit for bit,
    the upkeep that composes every row (``all_rows_update``) of the rows
    gathered in grid order, with parts of 37 cells, so that several buckets
    hold flagged and background bricks together.  A low ``t_d`` gives cells
    several d (in rgb only at 0.02); then a part holds several buckets whose
    cells interleave, and ``step`` gathers the rows in a true permutation of
    grid order, each bucket's rows one block."""
    cut_parts(monkeypatch, 37, mode)
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode, t_d=t_d, t_deps=t_d)
    state = initialize(frames, config)
    several_d = len({bucket.d for bucket in state.buckets}) > 1
    order = np.concatenate([bucket.indices for bucket in state.buckets])
    assert bool((np.diff(order) < 0).any()) == several_d
    painted = frames[50:55].copy()
    painted[:, 6:30, 10:40] = 250
    channels = frames.shape[3]
    mixed = 0
    for window in (painted, frames[55:60]):
        descriptors = batch_descriptors(state.geometry, window.astype(np.float64),
                                        mode, config.tau)
        layout = (5, 4, 4, channels) if mode == "rgb" else (1, 1, 1, descriptors.shape[1])
        oracle = [all_rows_update(bucket, descriptors[bucket.indices], layout, config)
                  for bucket in state.buckets]
        result = step(state, window)
        assert len(oracle) == len(state.buckets)
        for (want, background, _), got in zip(oracle, state.buckets):
            assert np.array_equal(result.brick_background.reshape(-1)[got.indices], background)
            mixed += bool(background.any() and not background.all())
            for f in fields(ModelBucket):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    if mode == "cs_stltp" or t_d == 0.02:
        assert several_d
    assert mixed >= 2


def stream_windows(frames, config, windows):
    """Initialize on ``frames`` and step ``windows`` windows ``stride`` apart."""
    state = initialize(frames, config)
    results = []
    for i in range(windows):
        start = config.init_frames + i * config.effective_stride
        results.append(step(state, frames[start : start + config.brick_depth]))
    return state, results


@pytest.mark.parametrize("stride", [5, 1])
@pytest.mark.parametrize("mode, scene", [("cs_stltp", "moving_box"), ("rgb", "moving_box_rgb")])
def test_step_does_not_depend_on_the_cpu_count(monkeypatch, two_runners, mode, scene, stride):
    """Bucket upkeep and the per-frame mask tail share one ``parallel_map``
    pass, so frames are gated and cleaned on workers too.  Streamed on two
    runners and on one CPU, a moving-box crop gives equal masks, labels,
    running mean and models."""
    frames, _ = render(replace(load_scene(SCENES / f"{scene}.scene"), frame_count=75))
    frames = frames[:, 16:112, :96]              # the box crosses the crop from frame 50
    cut_parts(monkeypatch, 100, mode, channels=frames.shape[3])
    config = EngineConfig(mode=mode, stride=stride)
    two = stream_windows(frames, config, 5)
    monkeypatch.setattr(linalg, "CPUS", 1)
    monkeypatch.setattr(linalg, "_POOL", None)
    one = stream_windows(frames, config, 5)
    (state, results), (state_one, results_one) = two, one
    assert any(result.masks.any() for result in results)
    for got, want in zip(results, results_one):
        for key in ("masks", "raw_masks", "brick_background"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
    if mode == "cs_stltp":
        assert np.array_equal(state.aux_mean, state_one.aux_mean)
    assert len(state.buckets) == len(state_one.buckets) > 1
    for got, want in zip(state.buckets, state_one.buckets):
        for f in fields(ModelBucket):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


# --- non-finite input -------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_non_finite_frames_are_rejected(mode):
    """One NaN pixel used to empty every later cs_stltp mask (through the
    median gain estimate) and to raise a bare LinAlgError in rgb.  Only
    frames the engine reads are checked: ``initialize`` takes a clip whose
    NaN lies after its head (it used to scan the whole clip), and
    ``process_video`` refuses it when it steps the window holding the NaN."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    frames = frames.astype(np.float64)
    frames[60, 10, 10] = np.nan
    config = EngineConfig(mode=mode)
    with pytest.raises(FrameFormatError):
        process_video(frames, config)
    initialize(frames, config)
    state = initialize(frames[:50], config)
    with pytest.raises(FrameFormatError):
        step(state, frames[60:65])
    frames[60, 10, 10] = np.inf
    with pytest.raises(FrameFormatError):
        initialize(frames[55:105], config)


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_frames_of_other_dtypes_are_refused(mode):
    """Only bool, integer and float frames are taken.  A complex or object
    window holding one infinity used to raise a bare LinAlgError, a 1e300
    entry slipped past the Gram bound, and complex frames lost their
    imaginary part with only a ComplexWarning."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode)
    state = initialize(frames[:50], config)
    for dtype in (np.complex128, object):
        odd = frames[:65].astype(dtype)
        odd[60, 10, 10] = np.inf
        with pytest.raises(FrameFormatError, match="bool, integer or float"):
            initialize(odd, config)
        with pytest.raises(FrameFormatError, match="bool, integer or float"):
            step(state, odd[60:65])
    assert state.steps == 0


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_batch_descriptors_refuses_negative_and_nan_cs_stltp(bad):
    """cs_stltp binning refuses what the trit rule cannot bin, on the
    engine's path as on ``brick_descriptor``'s; rgb takes any value."""
    geometry = make_grid(8, 12, 4, 4)
    volume = np.full((5, 8, 12, 1), 50.0)
    volume[2, 3, 4, 0] = bad
    with pytest.raises(FrameFormatError, match="negative"):
        batch_descriptors(geometry, volume, "cs_stltp", 0.2)
    rows = batch_descriptors(geometry, volume, "rgb", 0.2)
    assert rows.shape == (6, 80)


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_huge_rgb_frames_are_refused(scale):
    """rgb frames of magnitude 1e155 used to pass ``initialize``; the first
    step then left every model non-finite and every later mask all
    foreground, with only a RuntimeWarning.  cs_stltp histograms do not
    grow with the intensities, so that mode takes them."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    huge = frames * (scale / 255.0)
    config = EngineConfig(mode="rgb")
    with pytest.raises(FrameFormatError, match="overflow"):
        initialize(huge, config)
    state = initialize(frames[:50], config)
    with pytest.raises(FrameFormatError, match="overflow"):
        step(state, huge[60:65])
    state = initialize(huge[:50], EngineConfig())
    step(state, huge[60:65])


def test_large_rgb_frames_give_finite_models():
    """Frames of magnitude 1e100 stay below the overflow bound: every model
    array is finite after initialization and a run of steps."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    large = frames * (1e100 / 255.0)
    state = initialize(large, EngineConfig(mode="rgb"))
    for start in range(50, 100, 5):
        step(state, large[start : start + 5])
    for bucket in state.buckets:
        for f in fields(ModelBucket):
            assert np.isfinite(getattr(bucket, f.name)).all(), f.name


def test_huge_cs_stltp_frames_are_refused():
    """cs_stltp frames scaled to 1.5e308 used to pass: the head mean
    overflowed, the pixel gate's mean held inf and every later mask was
    empty against 20,480 truth pixels, with only RuntimeWarnings."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    huge = frames * (1.5e308 / 255.0)
    config = EngineConfig()
    with pytest.raises(FrameFormatError, match="overflow"):
        process_video(huge, config)
    state = initialize(frames[:50], config)
    with pytest.raises(FrameFormatError, match="overflow"):
        step(state, huge[60:65])
    limit = pixel_safe_magnitude(config.tau, config.init_frames)
    edge = frames * (limit / frames.max())          # at the bound, still taken
    masks, _ = process_video(edge, config)
    assert masks[50:].any()


@pytest.mark.parametrize("tau, frames", [(0.2, 50), (3.0, 2), (1e300, 50)])
def test_pixel_safe_magnitude_bounds_products_and_sums(tau, frames):
    limit = pixel_safe_magnitude(tau, frames)
    assert np.isfinite((1.0 + tau) * limit) and np.isfinite(frames * limit)
    assert np.isfinite(np.full(frames, limit).sum())


@pytest.mark.parametrize("dtype", [np.float64, np.int16])
def test_negative_frames_are_refused_in_cs_stltp(dtype):
    """The cs_stltp trit rule needs non-negative intensities (see
    ``test_features::test_brick_descriptor_refuses_negative_intensities``);
    negative frames used to be binned without notice.  rgb takes them."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    frames = frames.astype(dtype)
    frames[60, 10, 10] = -1
    config = EngineConfig()
    with pytest.raises(FrameFormatError, match="negative"):
        process_video(frames, config)
    state = initialize(frames[:50], config)
    with pytest.raises(FrameFormatError, match="negative"):
        step(state, frames[60:65])
    with pytest.raises(FrameFormatError, match="negative"):
        initialize(frames[55:105], config)
    rgb = EngineConfig(mode="rgb")
    step(initialize(frames[55:105] - 100, rgb), frames[60:65] - 100)


# --- blackout -------------------------------------------------------------------------


def test_black_head_runs_without_overflow_in_rgb():
    """A black head leaves every held state zero but the newest, so the
    dynamics refit's relative residual used to overflow ("overflow
    encountered in divide", an error under this suite's warning filter)
    at the first step."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    frames[:50] = 0
    masks, state = process_video(frames, EngineConfig(mode="rgb"))
    assert masks.shape == frames.shape[:3]
    for bucket in state.buckets:
        for f in fields(ModelBucket):
            assert np.isfinite(getattr(bucket, f.name)).all(), f.name



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


@pytest.mark.parametrize("min_area", [0, 5])
@pytest.mark.parametrize("shape", [(5,), (2, 3, 4), ()], ids=["1d", "3d", "0d"])
def test_remove_small_components_refuses_a_mask_that_is_not_2d(shape, min_area):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        remove_small_components(np.ones(shape, dtype=bool), min_area)


def _spiral(size):
    """A one-pixel path that winds inward, one pixel clear of its last turn."""
    mask = np.zeros((size, size), dtype=bool)
    r, c, dr, dc = 0, 0, 0, 1
    mask[r, c] = True

    def clear(r, c, outside):
        return not mask[r, c] if 0 <= r < size and 0 <= c < size else outside

    def can_step():
        return clear(r + dr, c + dc, False) and clear(r + 2 * dr, c + 2 * dc, True)

    while True:
        if not can_step():
            dr, dc = dc, -dr                        # turn clockwise
            if not can_step():
                return mask
        r, c = r + dr, c + dc
        mask[r, c] = True


def _oracle_masks(case):
    if case.startswith("random"):
        rng = np.random.default_rng(int(case.split("-")[1]))
        return [rng.random(rng.integers(1, 40, size=2)) < density
                for density in np.linspace(0.05, 0.95, 7)]
    if case == "row-wrap":
        # a run at the end of row r and one at the start of row r + 1 lie
        # next to each other in a flat array, but not in the frame
        mask = np.zeros((4, 6), dtype=bool)
        mask[0, 4:] = mask[1, :2] = mask[2, 5] = mask[3, 0] = True
        return [mask, mask[:, ::-1]]
    if case == "diagonals":
        eye = np.eye(9, 11, dtype=bool)
        # runs of two whose rows meet corner to corner (step 2), or just miss (step 3)
        stairs = [np.zeros((6, 3 * 6 + 1), dtype=bool) for _ in range(2)]
        for r in range(6):
            stairs[0][r, 2 * r: 2 * r + 2] = stairs[1][r, 3 * r: 3 * r + 2] = True
        return [eye, eye[::-1], eye | eye[:, ::-1], *stairs, stairs[0][:, ::-1]]
    if case == "spiral":
        return [_spiral(31), _spiral(32)[::-1, :29]]
    if case == "comb":
        comb = np.zeros((20, 25), dtype=bool)
        comb[0] = True
        comb[:, ::2] = True
        return [comb, comb[::-1], comb.T, ~comb]
    if case == "checkerboard":
        return [np.indices((17, 22)).sum(axis=0) % 2 == 0, np.indices((1, 9)).sum(axis=0) % 2 == 1]
    return [np.ones((13, 7), dtype=bool), np.ones((1, 1), dtype=bool)]


@pytest.mark.parametrize(
    "case",
    [f"random-{seed}" for seed in range(12)]
    + ["row-wrap", "diagonals", "spiral", "comb", "checkerboard", "full"],
)
def test_remove_small_components_matches_scipy_label(case):
    for mask in _oracle_masks(case):
        labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        areas = np.bincount(labels.ravel())[1:]
        # every component's own area: the threshold that keeps it and the one above
        for min_area in {0, 1, 2, *areas.tolist(), *(areas + 1).tolist()}:
            keep = np.concatenate([[False], areas >= min_area])
            out = remove_small_components(mask, min_area)
            assert out.dtype == bool and out.shape == mask.shape
            assert np.array_equal(out, keep[labels]), (case, mask.shape, min_area)


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
    for f in fields(ModelBucket):                # every field, padding and states included
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
        for f in fields(ModelBucket):
            if f.name != "indices":
                assert np.array_equal(getattr(learned, f.name), getattr(engine, f.name)), (cell, f.name)


# --- parts ------------------------------------------------------------------------------


def run_cells(config):
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    masks, state = process_video(frames, config)
    geometry = state.geometry
    models = [model_at(state, cell % geometry.grid_w, cell // geometry.grid_w)
              for cell in range(geometry.locations)]
    return masks, state, models


@pytest.mark.parametrize("stride", [5, 1])
@pytest.mark.parametrize("mode, t_d", [("cs_stltp", 0.05), ("rgb", 0.02)])
def test_parts_of_any_size_give_the_one_part_run(monkeypatch, mode, t_d, stride):
    """Cells are identified and stepped in ``pipeline.grid_parts``; at 37
    cells' entries (``PART_ENTRIES``) the 256 cells fall into 7 parts,
    split further by d, and masks and every model field match the one-part
    run bit for bit.  The parts are the only split: no LAPACK call sees more
    than 37 matrices, and the engine runs no SVD.  The low ``t_d`` gives
    both modes several d (rgb keeps d = 1 everywhere at 0.05)."""
    config = EngineConfig(mode=mode, stride=stride, t_d=t_d, t_deps=t_d)
    masks, state, models = run_cells(config)
    assert len({bucket.d for bucket in state.buckets}) > 1
    cut_parts(monkeypatch, 37, mode)
    batches = {name: [] for name in ("eigh", "qr", "eigvals", "svd")}
    for name, seen in batches.items():
        def counted(a, *args, _call=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(int(np.prod(np.shape(a)[:-2])))
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    part_masks, part_state, part_models = run_cells(config)
    assert batches["eigh"] and max(max(seen, default=0) for seen in batches.values()) <= 37
    assert batches["svd"] == []
    assert all(bucket.indices.size <= 37 for bucket in part_state.buckets)
    covered = np.sort(np.concatenate([bucket.indices for bucket in part_state.buckets]))
    assert np.array_equal(covered, np.arange(state.geometry.locations))
    assert np.array_equal(part_masks, masks)
    for cell, (model, part_model) in enumerate(zip(models, part_models)):
        for f in fields(ModelBucket):
            want, got = getattr(model, f.name), getattr(part_model, f.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (cell, f.name)


@pytest.mark.parametrize("mode", ["cs_stltp", "rgb"])
def test_a_one_dimensional_step_hands_lapack_one_qr_per_cell(monkeypatch, mode):
    """At d = 1 (every cell of the occlusion scene) a step's basis update
    takes its 2 x 2 eigenpair in closed form and its refit passes the 1 x 1
    Grams and transition map through, so LAPACK sees only the update's
    one-column QR: one matrix per cell, and no eigh, eigvals or svd."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode)
    state = initialize(frames, config)
    assert {bucket.d for bucket in state.buckets} == {1}
    batches = {name: [] for name in ("eigh", "eigvals", "qr", "svd")}
    for name, seen in batches.items():
        def counted(a, *args, _call=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(int(np.prod(np.shape(a)[:-2])))
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    start = config.init_frames
    step(state, frames[start : start + config.brick_depth])
    matrices = {name: sum(seen) for name, seen in batches.items()}
    assert matrices == {"eigh": 0, "eigvals": 0, "qr": state.geometry.locations, "svd": 0}


@pytest.mark.parametrize("m, count", [(240, 7), (48, 2), (144, 4), (10**6, 6336)])
def test_grid_parts_cut_by_descriptor_entries(m, count):
    """A 352x288 frame's 6336 cells are cut by descriptor entries, not by
    cells: 7 parts in rgb (m = 240), 2 in gray cs_stltp and 4 in colour
    cs_stltp (m = 144), and never more parts than cells.  The parts run in
    grid order, cover every cell once, differ in size by one cell at most
    and hold at most ``PART_ENTRIES`` entries plus one cell's."""
    parts = grid_parts(6336, m)
    assert len(parts) == count
    assert np.array_equal(np.concatenate([np.arange(6336)[part] for part in parts]),
                          np.arange(6336))
    sizes = [part.stop - part.start for part in parts]
    assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
    assert max(sizes) * m < pipeline.PART_ENTRIES + m or max(sizes) == 1


@pytest.mark.parametrize("mode, t_d", [("cs_stltp", 0.05), ("rgb", 0.02)])
def test_a_part_identified_in_chunks_joins_them_by_d(monkeypatch, mode, t_d):
    """An ``initialize`` part identifies its cells in balanced chunks of at
    most ``PART_CELLS``, one after another, and joins their buckets by d.
    With parts of about 86 cells and chunks of at most 37 (three of 28 or
    29 per part): no identification LAPACK stack exceeds 37 matrices, each
    part holds one bucket per d, its cells in grid order, and every cell's
    model is the one-part one bit for bit."""
    frames, _ = render(load_scene(SCENES / "occlusion.scene"))
    config = EngineConfig(mode=mode, t_d=t_d, t_deps=t_d)
    whole = initialize(frames, config)
    geometry = whole.geometry
    cut_parts(monkeypatch, 86, mode)
    monkeypatch.setattr(pipeline, "PART_CELLS", 37)
    seen = []
    for name in ("eigh", "qr"):
        def counted(a, *args, _call=getattr(np.linalg, name), **kwargs):
            seen.append(int(np.prod(np.shape(a)[:-2])))
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    state = initialize(frames, config)
    assert seen and max(seen) == 29              # balanced chunks of 28 or 29 cells
    parts = grid_parts(geometry.locations, whole.buckets[0].c.shape[1])
    assert [part.stop - part.start for part in parts] == [85, 85, 86]
    listed = []
    for part in parts:
        held = [bucket for bucket in state.buckets if part.start <= bucket.indices[0] < part.stop]
        assert [bucket.d for bucket in held] == sorted({bucket.d for bucket in held})
        for bucket in held:
            assert np.all(np.diff(bucket.indices) > 0)
        cells = np.sort(np.concatenate([bucket.indices for bucket in held]))
        assert np.array_equal(cells, np.arange(part.start, part.stop))
        listed += held
    assert [id(b) for b in listed] == [id(b) for b in state.buckets]
    assert len(listed) > len(parts)
    for cell in range(geometry.locations):
        at = (cell % geometry.grid_w, cell // geometry.grid_w)
        got, want = model_at(state, *at), model_at(whole, *at)
        for f in fields(ModelBucket):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (cell, f.name)
