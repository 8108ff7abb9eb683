"""Streaming background subtraction with per-brick linear dynamic models.

Frames are cut into small space-time bricks; each grid cell keeps a linear
model of its descriptor sequence (an orthonormal appearance basis plus a
state transition with shaped innovation noise).  New bricks are labelled
by thresholding appearance and innovation residuals, and the models are
updated online from occlusion-composed, robustly reweighted observations,
so parked foreground never bleeds into the background model.
"""

from .config import ConfigError, EngineConfig, load_config, with_overrides
from .evaluation import (
    EvalReport,
    confusion,
    evaluate,
    per_frame_fscores,
    pr_sweep,
    read_report,
    write_report,
)
from .features import (
    HISTOGRAM_BINS,
    MODE_CS,
    MODE_RGB,
    MODES,
    brick_descriptor,
    cs_stltp_pixel,
    pattern_to_bin,
)
from .imageio import (
    FrameFormatError,
    load_frames,
    load_masks,
    read_image,
    write_frames,
    write_image,
    write_masks,
)
from .linalg import NumericalFailure
from .maintenance import synthesize, weight
from .pipeline import (
    EngineState,
    StepResult,
    background_flags,
    batch_descriptors,
    initialize,
    make_grid,
    model_at,
    process_video,
    remove_small_components,
    step,
)
from .subspace import InsufficientData, ModelBucket, learn_initial, select_dim
from .synth import MovingRect, SceneScript, illumination_scene, load_scene, parse_scene_text, render

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EngineConfig",
    "EngineState",
    "EvalReport",
    "FrameFormatError",
    "HISTOGRAM_BINS",
    "InsufficientData",
    "MODE_CS",
    "MODE_RGB",
    "MODES",
    "ModelBucket",
    "MovingRect",
    "NumericalFailure",
    "SceneScript",
    "StepResult",
    "background_flags",
    "batch_descriptors",
    "brick_descriptor",
    "confusion",
    "cs_stltp_pixel",
    "evaluate",
    "illumination_scene",
    "initialize",
    "learn_initial",
    "load_config",
    "load_frames",
    "load_masks",
    "load_scene",
    "make_grid",
    "model_at",
    "parse_scene_text",
    "pattern_to_bin",
    "per_frame_fscores",
    "pr_sweep",
    "process_video",
    "read_image",
    "read_report",
    "remove_small_components",
    "render",
    "select_dim",
    "step",
    "synthesize",
    "weight",
    "with_overrides",
    "write_frames",
    "write_image",
    "write_masks",
    "write_report",
]
