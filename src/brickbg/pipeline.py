"""Streaming engine tying descriptors, models, segmentation and upkeep together.

The frame area is tiled by a fixed grid of bricks (edge bricks anchor
inward so every brick is full-size; each pixel is owned by exactly one
grid cell, with overlap only where a clamped edge brick reaches back into
its neighbour's area).  One linear model per grid cell is identified from
an initial frame window: ``initialize`` takes one stacked SVD of every
cell's descriptor matrix and hands it to ``subspace.identify_stack``, which
returns the seeded buckets.  The engine then consumes the video in
brick-depth windows.  Per window it gathers descriptors for all cells at
once, classifies them with the appearance/innovation residual tests,
assembles pixel masks, and updates every model from its
occlusion-composed, robustly reweighted observation.

All per-cell maths runs through the stacked functions of ``segmentation``
(residuals, labels), ``maintenance`` (composition, robust reweighting,
basis update) and ``subspace`` (dynamics refit), each applied to a bucket
of cells of equal state dimension, so one step costs a handful of LAPACK
calls regardless of grid size.  ``step`` is their composition.  Each
bucket is a ``subspace.ModelBucket``, the one model record; ``model_at``
returns a one-cell copy of it, which every stacked function (and
``maintenance.synthesize``) takes as it is.  ``cs_stltp`` histograms
cannot localize foreground inside a brick, so flagged bricks are refined
against a running per-pixel mean of the background.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import ndimage

from . import linalg
from .config import EngineConfig
from .features import MODE_CS, MODE_RGB, bin_volume, cell_histograms
from .imageio import FrameFormatError
from .maintenance import compose_stack, reweight_stack, update_basis_stack
from .segmentation import classify_stack, residuals_stack
from .subspace import (
    InsufficientData,
    ModelBucket,
    fit_dynamics_stack,
    identify_stack,
)

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)

# Open band of median gains the cs_stltp pixel gate follows; a ratio
# outside it (a blackout gives 0) is not an illumination change, and the
# running mean is left unscaled for that window.
GAIN_BAND = (0.5, 2.0)


@dataclass
class GridGeometry:
    """Brick tiling of a frame plus precomputed gather/scatter indices."""

    frame_height: int
    frame_width: int
    brick_width: int
    brick_height: int
    grid_w: int
    grid_h: int
    x0: np.ndarray        # (grid_w,) window anchor of each grid column
    y0: np.ndarray        # (grid_h,)
    window_x: np.ndarray  # (locations, brick_width) frame columns per cell
    window_y: np.ndarray  # (locations, brick_height) frame rows per cell
    owner: np.ndarray     # (H, W) owning cell id, row-major gy * grid_w + gx
    local_x: np.ndarray   # (W,) pixel column inside its owner's window
    local_y: np.ndarray   # (H,)

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
    col_owner = np.minimum(np.arange(frame_width) // brick_width, grid_w - 1)
    row_owner = np.minimum(np.arange(frame_height) // brick_height, grid_h - 1)
    owner = (row_owner[:, None] * grid_w + col_owner[None, :]).astype(np.intp)
    local_x = (np.arange(frame_width) - x0[col_owner]).astype(np.intp)
    local_y = (np.arange(frame_height) - y0[row_owner]).astype(np.intp)
    gxs = np.tile(np.arange(grid_w), grid_h)
    gys = np.repeat(np.arange(grid_h), grid_w)
    window_x = (x0[gxs][:, None] + np.arange(brick_width)[None, :]).astype(np.intp)
    window_y = (y0[gys][:, None] + np.arange(brick_height)[None, :]).astype(np.intp)
    return GridGeometry(
        frame_height=frame_height,
        frame_width=frame_width,
        brick_width=brick_width,
        brick_height=brick_height,
        grid_w=grid_w,
        grid_h=grid_h,
        x0=x0,
        y0=y0,
        window_x=window_x,
        window_y=window_y,
        owner=owner,
        local_x=local_x,
        local_y=local_y,
    )


@dataclass
class EngineState:
    config: EngineConfig
    geometry: GridGeometry
    channels: int
    buckets: list
    aux_mean: np.ndarray           # (H, W, C) running background mean; cs_stltp steps only
    brick_background: np.ndarray   # (locations,) labels from the last step
    steps: int = 0
    timings: dict = field(default_factory=dict)


@dataclass
class StepResult:
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
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise FrameFormatError("frames contain NaN or infinite values")
    return arr


def _window_stack(geometry: GridGeometry, volume: np.ndarray) -> np.ndarray:
    """Every cell's voxels: (locations, t, brick_h, brick_w, channels)."""
    gathered = volume[:, geometry.window_y[:, :, None], geometry.window_x[:, None, :], :]
    return np.moveaxis(gathered, 0, 1)


def batch_descriptors(geometry: GridGeometry, volume: np.ndarray, mode: str, tau: float) -> np.ndarray:
    """Descriptor matrix (locations, m) for one brick-depth frame window.

    Equal to ``features.brick_descriptor`` applied cell by cell with the
    window frames as the brick volume, but computed for the whole grid at
    once (ternary patterns are evaluated once per frame, not per brick).
    """
    if mode == MODE_RGB:
        stack = _window_stack(geometry, volume)
        return np.ascontiguousarray(stack.reshape(stack.shape[0], -1))
    if mode != MODE_CS:
        raise ValueError(f"unknown mode {mode!r}")
    chunks = [
        cell_histograms(bin_volume(volume[..., ch], tau), geometry.window_y, geometry.window_x)
        for ch in range(volume.shape[3])
    ]
    return np.concatenate(chunks, axis=1)


def initialize(frames, config: EngineConfig) -> EngineState:
    """Identify one model per grid cell from the first ``init_frames`` frames."""
    frames = _as_video(frames)
    total, height, width, channels = frames.shape
    if total < config.init_frames:
        raise InsufficientData(
            f"initialization needs {config.init_frames} frames, got {total}"
        )
    depth = config.brick_depth
    n_windows = config.init_frames // depth
    if n_windows < 2:
        raise InsufficientData(
            "initialization needs at least two brick-depth windows "
            f"({config.init_frames} frames / depth {depth} gives {n_windows})"
        )
    geometry = make_grid(height, width, config.brick_height, config.brick_width)
    init = frames[: n_windows * depth].astype(np.float64)
    columns = [
        batch_descriptors(geometry, init[i * depth : (i + 1) * depth], config.mode, config.tau)
        for i in range(n_windows)
    ]
    w = np.stack(columns, axis=2)                     # (locations, m, n_windows)
    u, sigma, q = linalg.svd_stack(w)
    return EngineState(
        config=config,
        geometry=geometry,
        channels=channels,
        buckets=identify_stack(u, sigma, q, config.t_d, config.t_deps, config.history),
        aux_mean=init.mean(axis=0),
        brick_background=np.ones(geometry.locations, dtype=bool),
    )


def _ring_append(bucket: ModelBucket, z_new: np.ndarray, from_data: np.ndarray):
    if bucket.n_states < bucket.states.shape[1]:
        bucket.states[:, bucket.n_states] = z_new
        bucket.observed[:, bucket.n_states] = from_data
        bucket.n_states += 1
    else:
        bucket.states[:, :-1] = bucket.states[:, 1:]
        bucket.states[:, -1] = z_new
        bucket.observed[:, :-1] = bucket.observed[:, 1:]
        bucket.observed[:, -1] = from_data


def _assemble_masks(geometry: GridGeometry, vox_masks: np.ndarray) -> np.ndarray:
    """Scatter (locations, t, h, w) voxel masks to (t, H, W) frame masks."""
    per_pixel = vox_masks[geometry.owner, :, geometry.local_y[:, None], geometry.local_x[None, :]]
    return np.ascontiguousarray(np.moveaxis(per_pixel, 2, 0))


def remove_small_components(mask: np.ndarray, min_area: int) -> np.ndarray:
    """Drop 8-connected foreground blobs smaller than ``min_area`` pixels."""
    mask = np.asarray(mask, dtype=bool)
    if min_area <= 1 or not mask.any():
        return mask.copy()
    labels, _ = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    areas = np.bincount(labels.ravel())
    keep = areas >= min_area
    keep[0] = False
    return keep[labels]


def step(state: EngineState, window) -> StepResult:
    """Consume one brick-depth window of frames; label it and update models."""
    config = state.config
    geometry = state.geometry
    window = _as_video(window)
    t, height, width, channels = window.shape
    if (height, width) != (geometry.frame_height, geometry.frame_width):
        raise ValueError(
            f"frame size {width}x{height} does not match the engine "
            f"({geometry.frame_width}x{geometry.frame_height})"
        )
    if channels != state.channels:
        raise ValueError(f"expected {state.channels}-channel frames, got {channels}")
    if t != config.brick_depth:
        raise ValueError(f"a step consumes exactly {config.brick_depth} frames, got {t}")
    volume = window.astype(np.float64)
    timings = {}

    tick = time.perf_counter()
    descriptors = batch_descriptors(geometry, volume, config.mode, config.tau)
    timings["descriptors"] = time.perf_counter() - tick

    n = geometry.locations
    bh, bw = config.brick_height, config.brick_width
    vox_masks = np.zeros((n, t, bh, bw), dtype=bool)
    background = np.zeros(n, dtype=bool)
    t_omega = config.effective_t_omega
    t_eps = config.effective_t_eps

    seg_time = 0.0
    maintain_time = 0.0
    for bucket in state.buckets:
        tick = time.perf_counter()
        v = descriptors[bucket.indices]
        _, omega, epsilon, predicted = residuals_stack(
            bucket.c, bucket.a, bucket.b_pinv, bucket.states[:, bucket.n_states - 1], v
        )
        bg, vm = classify_stack(
            omega, epsilon, bucket.d_eps, (t, bh, bw, channels), config.mode, t_omega, t_eps
        )
        background[bucket.indices] = bg
        vox_masks[bucket.indices] = vm
        seg_time += time.perf_counter() - tick

        tick = time.perf_counter()
        v_hat = np.einsum("gmd,gd->gm", bucket.c, predicted)
        v_bar = compose_stack(v, v_hat, bg, vm, config.mode)
        v_tilde, _ = reweight_stack(bucket.c, bucket.lam, v_bar, config.beta)
        bucket.c, bucket.lam = update_basis_stack(bucket.c, bucket.lam, v_tilde, config.alpha)
        z_new = np.einsum("gmd,gm->gd", bucket.c, v_tilde)
        _ring_append(bucket, z_new, bg)
        bucket.a, bucket.b, bucket.b_pinv, bucket.d_eps = fit_dynamics_stack(
            bucket.states[:, : bucket.n_states],
            config.t_deps,
            observed=bucket.observed[:, : bucket.n_states],
        )
        maintain_time += time.perf_counter() - tick
    timings["segmentation"] = seg_time
    timings["maintenance"] = maintain_time

    tick = time.perf_counter()
    frame_masks = _assemble_masks(geometry, vox_masks)
    if config.mode == MODE_CS:
        window_mean = volume.mean(axis=0)
        # The histograms are invariant to a global intensity rescale, so the
        # pixel gate must track illumination as well: a gain step would
        # otherwise leave every flagged brick entirely above t_rgb until the
        # slow exponential blend catches up.  The median intensity ratio over
        # the frame estimates the global factor robustly (foreground covers
        # far less than half the frame).
        steady = state.aux_mean > 1.0
        if steady.any():
            gain = np.median(window_mean[steady] / state.aux_mean[steady])
            if GAIN_BAND[0] < gain < GAIN_BAND[1]:
                state.aux_mean *= gain
        # Histograms only localize to brick granularity; cut flagged bricks
        # down to the pixels that differ from the running background mean.
        difference = np.abs(volume - state.aux_mean).max(axis=-1)
        frame_masks &= difference > config.t_rgb
        quiet = ~frame_masks.any(axis=0)
        state.aux_mean[quiet] += config.alpha * (window_mean[quiet] - state.aux_mean[quiet])
    timings["assembly"] = time.perf_counter() - tick

    tick = time.perf_counter()
    cleaned = np.stack([remove_small_components(m, config.min_area) for m in frame_masks])
    timings["postprocess"] = time.perf_counter() - tick

    state.brick_background = background
    state.steps += 1
    for key, value in timings.items():
        state.timings[key] = state.timings.get(key, 0.0) + value
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
    repeating the last frame.
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
    """Copy of the cell's model as a one-cell ``ModelBucket``, ring included."""
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
            f.name: getattr(bucket, f.name)[cut].copy()
            for f in fields(bucket) if f.name != "n_states"
        })
    raise KeyError(f"no model stored for grid cell ({grid_x}, {grid_y})")


def background_flags(state: EngineState) -> np.ndarray:
    """(grid_h, grid_w) bool: True where the last step judged background."""
    geometry = state.geometry
    return state.brick_background.reshape(geometry.grid_h, geometry.grid_w).copy()
