"""Streaming engine tying descriptors, models, segmentation and upkeep together.

The frame area is tiled by a fixed grid of bricks (edge bricks anchor
inward so every brick is full-size; each pixel is owned by exactly one
grid cell, with overlap only where a clamped edge brick reaches back into
its neighbour's area).  A brick is the same patch in every frame of a
window, so the grid keeps one flat index of each cell's pixels in a frame:
cutting every cell's voxels out of a window is one ``np.take`` along the
pixel axis of all its frames, and reading a frame's mask back out of the
cells' voxel masks is one ``np.take`` through the pixels' owners.  One linear model per
grid cell is identified from an initial frame window: ``initialize`` gives
each part of the grid (see below) its own (cells, windows, m) float64
descriptor matrix, gathered straight from the head's frames (rgb) or from
their bins (cs_stltp), and hands it to ``subspace.identify_stack``, which
identifies every cell from its small windows x windows Gram and returns
the seeded buckets.  No whole-grid matrix and no float64 copy of the head
is made.  ``batch_descriptors`` and ``initialize`` share one descriptor
path: a window's source (its pixels, or its bins) and the gather of cells'
rows from it.  The engine then consumes the video in brick-depth windows.
Per window it gathers descriptors for all cells at once, in the buckets'
cell order, so that each bucket's rows are one block of the matrix.  Each
bucket is classified from its block with the appearance/innovation
residual tests, and its occlusion-composed, robustly reweighted
observation is written over the block.  Every model is then updated from
its block alone, and beside that upkeep each frame's pixel mask is read
out of the voxel masks, gated (cs_stltp) and cleaned of small components.
A background brick's composed observation is the observation itself,
whose appearance residual labelling already formed, so only flagged
bricks are composed and have their residual formed again.

All per-cell maths runs through the stacked functions of ``segmentation``
(residuals, labels), ``maintenance`` (composition, robust reweighting,
basis update) and ``subspace`` (dynamics refit), each applied to a bucket
of cells of equal state dimension, so one step makes a fixed number of
batched LAPACK calls per bucket: five at d > 1 (the basis update's
``eigh`` and QR, the refit's two ``eigh`` and one ``eigvals``) and one at
d = 1, the QR.  ``step`` is their composition: it appends each new
state to the bucket's states, dropping the oldest once ``history`` are
held, and refits the dynamics from all of them.  Each bucket is a
``subspace.ModelBucket``, the one model record; ``model_at`` returns a
one-cell copy of it, which every stacked function (and
``maintenance.synthesize``) takes as it is.

No cell's maths reads another cell's, so the grid is cut into
``grid_parts``: runs of cells in grid order of about ``PART_ENTRIES``
descriptor entries (cells x m) each, the same split on every machine.
Each item of work costs a fixed run of numpy calls besides its arrays, so
parts are sized by entries, not by cells: a 352 x 288 grid makes 7 parts
at m = 240 (rgb) and 2 at m = 48 (gray cs_stltp).  Every bucket lies in
one part, so no LAPACK call sees more than one part's cells.
``initialize`` identifies each part as one item, in chunks of at most
``PART_CELLS`` cells, which bound its (cells, windows, m) descriptor
matrices, and ``subspace.regroup`` joins the chunks' buckets by d.
``step`` labels, composes and reweights each bucket as one item, then
runs each bucket's basis update and refit and each frame's mask tail as
one item, all on ``linalg.parallel_map``, which uses every CPU the process
may run on.  Between the two passes a step holds its descriptor matrix,
by then v~, and the labels, but no bucket's residual or copied rows.
The descriptors run on every CPU too: ``features.bin_volume`` pads a window
on the calling thread and bins it as one run cut into one piece per CPU,
``batch_descriptors`` gathers one part's rows per item, and an
``initialize`` chunk gathers its own descriptors.  Masks and models do not
depend on how many CPUs ran them, nor on how the cells were cut.

Labels and composition read the descriptor's voxel layout (t, h, w,
channels), which ``step`` states once.  A ``cs_stltp`` histogram is one voxel
of m channels, so it cannot localize foreground inside a brick: flagged
bricks are refined against a running per-pixel mean of the background.

Each input rule is checked once, where it applies: ``_refuse`` on the
frames ``initialize`` and ``step`` read, the frame size in
``batch_descriptors`` and cs_stltp negativity in ``features.bin_volume``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import linalg
from .config import EngineConfig
from .features import HISTOGRAM_BINS, MODE_CS, MODE_RGB, bin_volume, cell_histograms
from .imageio import FrameFormatError
from .maintenance import compose_stack, reweight_stack, update_basis_stack
from .segmentation import appearance_residual, classify_stack, residuals_stack, row_max
from .subspace import (
    InsufficientData,
    ModelBucket,
    fit_dynamics_stack,
    gram_safe_magnitude,
    identify_stack,
    regroup,
)

# Descriptor entries (cells x m) of about one work item: the grid is cut
# into ``grid_parts``, each gathered, identified and stepped as one item.
# It bounds a step item's (cells, m) arrays, and changes no cell's result.
PART_ENTRIES = 1024 * 240

# Largest number of cells identified as one stack.  It bounds an
# identification's (cells, windows, m) descriptor matrix and LAPACK stacks,
# and changes no cell's result.  A 905-cell rgb part is identified as two
# chunks, each (453, 10, 240) float64 or 8.7 MB; identified whole, its
# 17.4 MB matrix set the peak of an rgb ``initialize``.
PART_CELLS = 512

# Open band of median gains the cs_stltp pixel gate follows; a ratio
# outside it (a blackout gives 0) is not an illumination change, and the
# running mean is left unscaled for that window.
GAIN_BAND = (0.5, 2.0)


@dataclass
class GridGeometry:
    """Brick tiling of a frame plus precomputed gather indices.

    Both indices address flattened arrays, so each gather is one
    ``np.take``.  ``pixel_index`` lists every cell's window pixels, in
    (y, x) order, as frame positions y * W + x; a brick takes them from
    every frame of its window.  ``owner_index`` gives, for every pixel,
    its position in the flattened (locations, h, w) cell windows of its
    owner.  A pixel's owner is the cell of its grid row and column, pixel
    // brick size clamped to the last one, so where a clamped edge brick
    overlaps its neighbour the neighbour owns the pixel.
    """

    frame_height: int
    frame_width: int
    brick_width: int
    brick_height: int
    grid_w: int
    grid_h: int
    pixel_index: np.ndarray  # (locations, brick_height * brick_width)
    owner_index: np.ndarray  # (H, W)

    @property
    def locations(self) -> int:
        return self.grid_w * self.grid_h


def make_grid(frame_height: int, frame_width: int, brick_height: int, brick_width: int) -> GridGeometry:
    """Tile a frame with bricks; the last row/column anchors to the edge."""
    if brick_width > frame_width or brick_height > frame_height:
        raise FrameFormatError(
            f"brick {brick_width}x{brick_height} larger than frame "
            f"{frame_width}x{frame_height}"
        )
    grid_w = -(-frame_width // brick_width)
    grid_h = -(-frame_height // brick_height)
    x0 = np.minimum(np.arange(grid_w) * brick_width, frame_width - brick_width)
    y0 = np.minimum(np.arange(grid_h) * brick_height, frame_height - brick_height)
    rows = y0[:, None] + np.arange(brick_height)      # (grid_h, brick_height)
    cols = x0[:, None] + np.arange(brick_width)       # (grid_w, brick_width)
    pixel_index = rows[:, None, :, None] * frame_width + cols[None, :, None, :]
    col_owner = np.minimum(np.arange(frame_width) // brick_width, grid_w - 1)
    row_owner = np.minimum(np.arange(frame_height) // brick_height, grid_h - 1)
    owner = row_owner[:, None] * grid_w + col_owner[None, :]
    local_y = np.arange(frame_height) - y0[row_owner]
    local_x = np.arange(frame_width) - x0[col_owner]
    local = local_y[:, None] * brick_width + local_x[None, :]
    return GridGeometry(
        frame_height=frame_height,
        frame_width=frame_width,
        brick_width=brick_width,
        brick_height=brick_height,
        grid_w=grid_w,
        grid_h=grid_h,
        pixel_index=pixel_index.reshape(grid_h * grid_w, -1).astype(np.intp),
        owner_index=(owner * (brick_height * brick_width) + local).astype(np.intp),
    )


@dataclass
class EngineState:
    """The engine between windows: ``initialize`` makes it, ``step`` updates it.

    ``buckets`` holds every cell's model: one ``subspace.ModelBucket`` per
    state dimension in each ``grid_parts`` part, listed part by part.
    ``aux_mean`` is the (H, W, C) running per-pixel background mean that
    refines flagged ``cs_stltp`` bricks; it is ``None`` in ``rgb``.
    Each step's stage times are in its ``StepResult.timings``; the state
    keeps no running sum of them.
    """

    config: EngineConfig
    geometry: GridGeometry
    channels: int
    buckets: list
    aux_mean: np.ndarray | None


@dataclass
class StepResult:
    """One window's masks and labels, and the seconds each stage took.

    ``timings`` holds ``descriptors``, ``segmentation``, ``maintenance``,
    ``assembly`` and ``postprocess``.  Only ``descriptors`` is a wall time.
    ``segmentation`` and ``maintenance`` are sums over the buckets only,
    and ``postprocess`` and most of ``assembly`` sums over the frames.
    ``maintenance`` holds each bucket's composition and reweighting, which
    run in its labelling item, beside its basis update and refit;
    ``assembly`` also holds the cs_stltp gain, estimated and applied beside
    the labels.  The frames run concurrently with the buckets' upkeep, the
    gain with the labels, and the items of one pass with each other, so any
    of the four can exceed its share of the step's wall time.
    """

    masks: np.ndarray             # (depth, H, W) bool after min-area filtering
    raw_masks: np.ndarray         # (depth, H, W) bool before filtering
    brick_background: np.ndarray  # (grid_h, grid_w) bool
    timings: dict


def _as_video(frames) -> np.ndarray:
    arr = np.asarray(frames)
    if arr.ndim == 3:
        arr = arr[..., None]
    if arr.ndim != 4:
        raise ValueError(f"expected frames shaped (F, H, W[, channels]), got {arr.shape}")
    if arr.shape[3] not in (1, 3):
        raise ValueError("only 1- or 3-channel video is supported")
    return arr


def pixel_safe_magnitude(tau: float, frames: int) -> float:
    """Largest cs_stltp pixel magnitude at which no product or sum of pixels
    the engine forms overflows.

    ``bin_volume`` scales every pixel by 1 + tau and 1 - tau, at most
    (1 + tau) x in magnitude for tau >= 0, and the pixel gate sums up to
    ``frames`` pixels per position (the head's mean at initialization, a
    window's mean in a step), at most frames x.  The gate's running mean
    starts as such a mean and then follows the window means by blends and
    by gains inside ``GAIN_BAND``; its drift under a long run of gains is
    not bounded here.
    """
    return float(np.finfo(np.float64).max) / max(frames, 1.0 + tau)


def _refuse(frames: np.ndarray, config: EngineConfig) -> None:
    """Refuse frames that are not bool, integer or float, not finite, or
    large enough to overflow the engine's arithmetic; ``initialize`` and
    ``step`` call it on the frames they read.

    Every other dtype (complex, object, datetime, string, ...) is refused
    outright: none can be bounded by one ``min`` and ``max``, and the
    engine's casts would drop or fail on what they hold.

    rgb descriptors are the pixel values, so the Grams the engine sums grow
    with their squares; ``subspace.gram_safe_magnitude`` bounds them for
    m-entry descriptors and rings of up to ``history`` (or, at
    initialization, ``init_frames // brick_depth``) states.  cs_stltp
    histograms do not grow with the intensities, but the trit products and
    the pixel gate's means do; ``pixel_safe_magnitude`` bounds them for
    sums of up to ``init_frames`` frames.  One ``min`` and one ``max``
    decide both rules, since they carry any NaN and show any infinity.
    Frames are scanned only when their dtype can hold a value out of range:
    always for floats, never for bool or ``uint8``.
    """
    kind = frames.dtype.kind
    if kind not in "biuf":
        raise FrameFormatError(f"frames must be bool, integer or float, not {frames.dtype}")
    if config.mode == MODE_RGB:
        channels = frames.shape[3]
        m = config.brick_depth * config.brick_height * config.brick_width * channels
        k = max(config.history, config.init_frames // config.brick_depth)
        limit = gram_safe_magnitude(m, k)
        overflows = "the model Grams overflow"
    else:
        limit = pixel_safe_magnitude(config.tau, config.init_frames)
        overflows = "the trit products and pixel-gate sums overflow"
    if kind == "f" or (kind in "iu" and np.iinfo(frames.dtype).max > limit):
        low, high = float(frames.min()), float(frames.max())
        if not (np.isfinite(low) and np.isfinite(high)):
            raise FrameFormatError("frames contain NaN or infinite values")
        peak = max(high, -low)
        if peak > limit:
            raise FrameFormatError(
                f"{config.mode} frames hold values of magnitude {peak:.3g}; above "
                f"{limit:.3g} {overflows}"
            )


def _window_source(volume: np.ndarray, mode: str, tau: float):
    """What one (depth, H, W, channels) window's descriptors are gathered
    from: its (depth, pixels, channels) frames in rgb, in the window's
    dtype, and one ``bin_volume`` per channel in cs_stltp."""
    if mode == MODE_RGB:
        return volume.reshape(volume.shape[0], -1, volume.shape[3])
    return [bin_volume(volume[..., ch], tau) for ch in range(volume.shape[3])]


def _row_length(source, mode: str, cell_pixels: int) -> int:
    """m, the length of a descriptor gathered from a ``_window_source``
    for cells of ``cell_pixels`` pixels."""
    if mode == MODE_RGB:
        return source.shape[0] * cell_pixels * source.shape[2]
    return HISTOGRAM_BINS * len(source)


def _gather_rows(source, pixel_index: np.ndarray, mode: str, out: np.ndarray) -> None:
    """Write into ``out`` (n, m), float64 with unit stride along m, the
    descriptors of the n cells whose pixels ``pixel_index`` lists, cut from
    every frame of a ``_window_source``.  rgb rows are taken frame by frame
    and put in (t, y, x, channel) order, converted on assignment, which is
    exact, so only the gathered rows are ever float64; cs_stltp counts each
    channel's histograms straight into its block of 48 columns."""
    if mode == MODE_RGB:
        taken = np.take(source, pixel_index, axis=1)
        depth, n, pixels, channels = taken.shape
        out.reshape(n, depth, pixels, channels)[...] = np.moveaxis(taken, 0, 1)
        return
    for ch, bins in enumerate(source):
        cell_histograms(bins, pixel_index, out[:, ch * HISTOGRAM_BINS : (ch + 1) * HISTOGRAM_BINS])


def _runs(start: int, stop: int, count: int) -> list[slice]:
    """``count`` contiguous runs covering ``start:stop`` whose sizes differ
    by at most one."""
    bounds = [start + i * (stop - start) // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def grid_parts(locations: int, m: int) -> list[slice]:
    """The grid's work items: ``ceil(locations * m / PART_ENTRIES)`` runs of
    cells in grid order, but never more runs than cells, whose sizes differ
    by at most one cell.  They depend on the grid and m only, not on the
    CPUs."""
    return _runs(0, locations, min(-(-locations * m // PART_ENTRIES), locations))


def batch_descriptors(geometry: GridGeometry, volume: np.ndarray, mode: str, tau: float,
                      cells: np.ndarray | None = None) -> np.ndarray:
    """Descriptor matrix (rows, m) for one brick-depth frame window.

    Equal to ``features.brick_descriptor`` applied cell by cell with the
    window frames as the brick volume, but computed for the whole grid at
    once: rgb descriptors are one ``np.take`` of every frame's pixels at
    ``geometry.pixel_index``, and ternary patterns are evaluated once per
    frame, not per brick, then pooled through the same index over the
    frames.  ``volume`` is (depth, H, W, channels).  Row i is the
    descriptor of grid cell ``cells[i]``; by default every cell, in grid
    order.  The rows are gathered one ``grid_parts`` part of them per item
    on ``linalg.parallel_map``, each part into its block of one
    preallocated matrix.  ``initialize`` runs the same two halves,
    ``_window_source`` then ``_gather_rows``, over the same parts.
    """
    _, height, width, _ = volume.shape
    if (height, width) != (geometry.frame_height, geometry.frame_width):
        raise ValueError(
            f"frame size {width}x{height} does not match the grid "
            f"({geometry.frame_width}x{geometry.frame_height})"
        )
    if mode not in (MODE_CS, MODE_RGB):
        raise ValueError(f"unknown mode {mode!r}")
    source = _window_source(volume, mode, tau)
    cells = np.arange(geometry.locations) if cells is None else cells
    pixels = geometry.pixel_index
    rows = np.empty((len(cells), _row_length(source, mode, pixels.shape[1])))

    def gather(part):
        _gather_rows(source, pixels[cells[part]], mode, rows[part])

    linalg.parallel_map(gather, grid_parts(*rows.shape))
    return rows


def initialize(frames, config: EngineConfig) -> EngineState:
    """Identify one model per grid cell from the first ``init_frames`` frames.

    Each ``grid_parts`` part is one item on ``linalg.parallel_map``.  It
    identifies its cells in balanced chunks of at most ``PART_CELLS``, one
    after another, and ``subspace.regroup`` joins the chunks' buckets into
    one per state dimension the part holds, its ``indices`` grid cell ids;
    ``state.buckets`` lists them part by part.

    Each chunk builds only its own (cells, windows, m) float64 descriptor
    matrix, one row per head window, gathered straight from the head: in
    rgb from its frames in their own dtype, in cs_stltp from the int8 bins
    of each window, binned once, window by window, before the parts start
    (each ``bin_volume`` on every CPU).  So the descriptors held at once
    are those of the ``min(linalg.CPUS, parts)`` chunks in flight, not the
    whole grid's.
    """
    frames = _as_video(frames)
    total, height, width, channels = frames.shape
    if total < config.init_frames:
        raise InsufficientData(
            f"initialization needs {config.init_frames} frames, got {total}"
        )
    geometry = make_grid(height, width, config.brick_height, config.brick_width)
    head = frames[: config.init_frames]     # at least two whole windows, see EngineConfig
    _refuse(head, config)
    depth = config.brick_depth
    sources = [
        _window_source(head[start : start + depth], config.mode, config.tau)
        for start in range(0, config.init_frames, depth)
    ]

    m = _row_length(sources[0], config.mode, geometry.pixel_index.shape[1])

    def identify_chunk(chunk):
        cells = geometry.pixel_index[chunk]
        w = np.empty((len(cells), len(sources), m))
        for i, source in enumerate(sources):
            _gather_rows(source, cells, config.mode, w[:, i])
        buckets = identify_stack(w, config.t_d, config.t_deps, config.history)
        for bucket in buckets:
            bucket.indices += chunk.start
        return buckets

    def identify(part):
        chunks = _runs(part.start, part.stop, -(-(part.stop - part.start) // PART_CELLS))
        return regroup([bucket for chunk in chunks for bucket in identify_chunk(chunk)])

    parts = linalg.parallel_map(identify, grid_parts(geometry.locations, m))
    return EngineState(
        config=config,
        geometry=geometry,
        channels=channels,
        buckets=[bucket for part in parts for bucket in part],
        aux_mean=head.mean(axis=0, dtype=np.float64) if config.mode == MODE_CS else None,
    )


def remove_small_components(mask: np.ndarray, min_area: int) -> np.ndarray:
    """Drop 8-connected foreground blobs smaller than ``min_area`` pixels.

    A run-based labelling (He, Chao & Suzuki, IEEE TIP 2008) in a few numpy
    passes.  The nonzero entries of one diff along the rows of a zero-padded
    copy are each run's start and end as flat positions on rows of
    ``width + 1``; the padding column keeps rows apart.  A run touches,
    8-connected, the runs of the row above that end at or after its start
    and start at or before its end, one contiguous range of runs, which two
    ``searchsorted`` calls find.  Runs are joined by hooking each edge's
    larger root to the smaller and pointer jumping until stable (Shiloach &
    Vishkin, J. Algorithms 1982), and the runs of components of at least
    ``min_area`` pixels are painted back.  Past a few passes over the frame,
    the cost follows the run count: on one core, a 288 x 352 checkerboard's
    50 688 runs take about 6 ms, over ten times a ``cs_stltp`` mask of
    ``moving_box`` (about 540 runs).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"remove_small_components needs a 2-D mask, got shape {mask.shape}")
    if min_area <= 1 or not mask.any():
        return mask.copy()
    height, width = mask.shape
    row = width + 1
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    # starts and ends alternate: a run's first column, then the column after its last
    starts, ends = np.flatnonzero(np.diff(padded, axis=1)).reshape(-1, 2).T
    lo = np.searchsorted(ends, starts - row)
    hi = np.searchsorted(starts, ends - row, side="right")
    touching = hi - lo
    # one edge from each run to every run it touches in the row above
    a = np.repeat(np.arange(len(starts)), touching)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(touching) - touching), touching)
    root = np.arange(len(starts))
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    lengths = ends - starts
    kept = (np.bincount(root, weights=lengths) >= min_area)[root]
    starts, lengths = starts[kept], lengths[kept]
    pixels = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    cleaned = np.zeros(height * width, dtype=bool)
    cleaned[pixels - pixels // row] = True      # row r's positions lie r past the frame's
    return cleaned.reshape(height, width)


def step(state: EngineState, window) -> StepResult:
    """Consume one brick-depth window of frames; label it and update models.

    The window's descriptor rows are gathered in the buckets' cell order,
    the concatenation of every ``bucket.indices``, so each bucket's rows
    are one contiguous block of the matrix, which its items use as a view.
    Two ``linalg.parallel_map`` passes follow.  The first labels each
    bucket from its block, composes its flagged rows and reweights them
    all, writing the bucket's v~ over the block, so no residual or
    prediction outlives the item.  Beside the labels, in cs_stltp, one item
    estimates the window's mean and its gain over ``aux_mean`` and applies
    the gain to ``aux_mean``, which the pixel gate needs and which no label
    reads.  The second pass updates each bucket's basis from its v~,
    appends the new state and refits the dynamics and, beside that upkeep,
    runs one item per frame that reads the frame's mask out of the owners'
    voxel masks, applies the cs_stltp pixel gate and drops small
    components.  Quiet pixels are blended into ``aux_mean`` after the
    second.
    """
    config = state.config
    geometry = state.geometry
    window = _as_video(window)
    t, _, _, channels = window.shape
    if channels != state.channels:
        raise ValueError(f"expected {state.channels}-channel frames, got {channels}")
    if t != config.brick_depth:
        raise ValueError(f"a step consumes exactly {config.brick_depth} frames, got {t}")
    _refuse(window, config)
    timings = {}

    buckets = state.buckets
    order = np.concatenate([bucket.indices for bucket in buckets])
    tick = time.perf_counter()
    descriptors = batch_descriptors(geometry, window, config.mode, config.tau, cells=order)
    timings["descriptors"] = time.perf_counter() - tick
    blocks = np.split(descriptors, np.cumsum([len(bucket.indices) for bucket in buckets[:-1]]))

    n = geometry.locations
    bh, bw = config.brick_height, config.brick_width
    vox_masks = np.zeros((n, t, bh, bw), dtype=bool)
    background = np.zeros(n, dtype=bool)
    t_omega = config.effective_t_omega
    t_eps = config.effective_t_eps
    layout = (t, bh, bw, channels) if config.mode == MODE_RGB else (1, 1, 1, descriptors.shape[1])

    def label(bucket, v):
        """Label one bucket from its (g, m) block ``v`` of descriptor rows,
        then write its reweighted observation v~ over ``v``; returns the
        background labels and the seconds spent labelling and composing.
        Buckets write disjoint rows of ``background`` and ``vox_masks``.

        A background brick's voxel mask is all False, so its composed vector
        is its observation and its appearance residual ``omega``: only the
        flagged rows are composed, in ``v``, and have their residual
        recomputed, into ``omega``."""
        tick = time.perf_counter()
        _, omega, epsilon, predicted = residuals_stack(
            bucket.c, bucket.a, bucket.b_pinv, bucket.states[:, -1], v
        )
        bg, vm = classify_stack(omega, epsilon, bucket.d_eps, layout, t_omega, t_eps)
        background[bucket.indices] = bg
        vox_masks[bucket.indices] = vm      # in cs_stltp a (g, 1, 1, 1) mask covers the brick
        composing = time.perf_counter()
        flagged = np.flatnonzero(~bg)
        c = bucket.c[flagged]
        v_hat = np.einsum("gmd,gd->gm", c, predicted[flagged])
        v_bar = compose_stack(v[flagged], v_hat, vm[flagged])
        v[flagged] = v_bar
        _, residual = appearance_residual(c, v_bar)
        omega[flagged] = residual
        reweight_stack(bucket.c, bucket.lam, v, omega, config.beta)
        return bg, composing - tick, time.perf_counter() - composing

    def estimate_gain():
        """Scale ``aux_mean`` by the median ratio of the window's mean to it
        over the steady pixels, if there are any and the ratio lies inside
        ``GAIN_BAND``; returns the window's mean and the seconds spent.

        The histograms are invariant to a global intensity rescale, so the
        pixel gate must track illumination as well: a gain step would
        otherwise leave every flagged brick entirely above t_rgb until the
        slow exponential blend catches up.  The median intensity ratio over
        the frame estimates the global factor robustly (foreground covers
        far less than half the frame)."""
        tick = time.perf_counter()
        window_mean = window.mean(axis=0, dtype=np.float64)
        steady = state.aux_mean > 1.0
        gain = np.median(window_mean[steady] / state.aux_mean[steady]) if steady.any() else 0.0
        if GAIN_BAND[0] < gain < GAIN_BAND[1]:
            state.aux_mean *= gain
        return window_mean, time.perf_counter() - tick

    items = [partial(label, bucket, v) for bucket, v in zip(buckets, blocks)]
    if config.mode == MODE_CS:
        items.insert(0, estimate_gain)      # the longest item, so taken first
    labelled = linalg.parallel_map(lambda item: item(), items)
    # the cs_stltp gain's seconds are counted under assembly
    window_mean, gained = labelled.pop(0) if config.mode == MODE_CS else (None, 0.0)
    timings["segmentation"] = sum(seconds for _, seconds, _ in labelled)

    def upkeep(bucket, v_tilde, bg):
        """Update one bucket from its reweighted observations ``v_tilde``
        and background labels ``bg``; returns the seconds spent."""
        tick = time.perf_counter()
        bucket.c, bucket.lam = update_basis_stack(bucket.c, bucket.lam, v_tilde, config.alpha)
        z_new = np.einsum("gmd,gm->gd", bucket.c, v_tilde)
        keep = 1 - config.history        # the newest history - 1 states stay
        bucket.states = np.concatenate([bucket.states[:, keep:], z_new[:, None]], axis=1)
        bucket.observed = np.concatenate([bucket.observed[:, keep:], bg[:, None]], axis=1)
        bucket.a, bucket.b, bucket.b_pinv, bucket.d_eps = fit_dynamics_stack(
            bucket.states, config.t_deps, observed=bucket.observed
        )
        return time.perf_counter() - tick

    frame_masks = np.empty((t, geometry.frame_height, geometry.frame_width), dtype=bool)
    cleaned = np.empty_like(frame_masks)

    def finish(f):
        """Frame ``f``'s mask, gated and cleaned; returns the (assembly,
        postprocess) seconds spent.  Frames write disjoint planes."""
        tick = time.perf_counter()
        mask = np.take(vox_masks[:, f], geometry.owner_index)
        if config.mode == MODE_CS:
            # Histograms only localize to brick granularity; cut flagged
            # bricks down to the pixels that differ from the running
            # background mean.  The difference is a fresh float64 frame, so
            # the caller's window is never written.
            difference = np.subtract(window[f], state.aux_mean)
            np.abs(difference, out=difference)
            mask &= row_max(difference.reshape(-1, channels)).reshape(mask.shape) > config.t_rgb
        frame_masks[f] = mask
        assembled = time.perf_counter()
        cleaned[f] = remove_small_components(mask, config.min_area)
        return assembled - tick, time.perf_counter() - assembled

    items = [partial(upkeep, bucket, v, bg) for bucket, v, (bg, _, _) in zip(buckets, blocks, labelled)]
    items += [partial(finish, f) for f in range(t)]
    spent = linalg.parallel_map(lambda item: item(), items)
    # composition and reweighting, done as each bucket is labelled, count as upkeep
    timings["maintenance"] = sum(spent[: len(buckets)]) + sum(seconds for _, _, seconds in labelled)
    finished = spent[len(buckets):]

    tick = time.perf_counter()
    if config.mode == MODE_CS:
        quiet = ~frame_masks.any(axis=0)
        window_mean -= state.aux_mean
        window_mean *= config.alpha
        np.add(state.aux_mean, window_mean, out=state.aux_mean, where=quiet[:, :, None])
    timings["assembly"] = gained + time.perf_counter() - tick + sum(a for a, _ in finished)
    timings["postprocess"] = sum(p for _, p in finished)

    return StepResult(
        masks=cleaned,
        raw_masks=frame_masks,
        brick_background=background.reshape(geometry.grid_h, geometry.grid_w).copy(),
        timings=timings,
    )


def process_video(frames, config: EngineConfig):
    """Initialize on the head of a clip and stream the rest.

    Returns ``(masks, state)``: masks is (F, H, W) bool with the
    initialization frames reported as all-background.  Each streamed
    window starts ``stride`` frames after the previous one and emits masks
    for its first ``stride`` frames; a final short window is padded by
    repeating the last frame.  No frame is scanned here: a bad frame is
    refused by ``initialize`` or by the ``step`` of its window.
    """
    frames = _as_video(frames)
    total = frames.shape[0]
    state = initialize(frames, config)
    depth = config.brick_depth
    stride = config.effective_stride
    masks = np.zeros(frames.shape[:3], dtype=bool)
    start = config.init_frames
    while start < total:
        window = frames[start : start + depth]
        if window.shape[0] < depth:
            pad = np.repeat(window[-1:], depth - window.shape[0], axis=0)
            window = np.concatenate([window, pad], axis=0)
        result = step(state, window)
        emit = min(stride, total - start)
        masks[start : start + emit] = result.masks[:emit]
        start += stride
    return masks, state


def model_at(state: EngineState, grid_x: int, grid_y: int) -> ModelBucket:
    """Copy of the cell's model as a one-cell ``ModelBucket``, states included."""
    geometry = state.geometry
    if not (0 <= grid_x < geometry.grid_w and 0 <= grid_y < geometry.grid_h):
        raise IndexError(
            f"grid cell ({grid_x}, {grid_y}) outside {geometry.grid_w}x{geometry.grid_h}"
        )
    cell = grid_y * geometry.grid_w + grid_x
    for bucket in state.buckets:
        hits = np.nonzero(bucket.indices == cell)[0]
        if not hits.size:
            continue
        cut = slice(int(hits[0]), int(hits[0]) + 1)
        return replace(bucket, **{
            f.name: getattr(bucket, f.name)[cut].copy() for f in fields(bucket)
        })
    raise KeyError(f"no model stored for grid cell ({grid_x}, {grid_y})")
