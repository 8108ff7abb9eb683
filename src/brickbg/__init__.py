"""Streaming background subtraction with per-brick linear dynamic models.

Frames are cut into small space-time bricks; each grid cell keeps a linear
model of its descriptor sequence (an orthonormal appearance basis plus a
state transition with shaped innovation noise).  New bricks are labelled
by thresholding appearance and innovation residuals, and the models are
updated online from occlusion-composed, robustly reweighted observations,
so parked foreground never bleeds into the background model.
"""

from .config import ConfigError, EngineConfig, load_config
from .evaluation import (
    EvalReport,
    evaluate,
    per_frame_fscores,
    read_report,
    write_report,
)
from .features import (
    HISTOGRAM_BINS,
    MODE_CS,
    MODE_RGB,
    MODES,
    brick_descriptor,
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
from .maintenance import synthesize
from .pipeline import (
    EngineState,
    StepResult,
    batch_descriptors,
    initialize,
    make_grid,
    model_at,
    process_video,
    remove_small_components,
    step,
)
from .subspace import InsufficientData, ModelBucket, learn_initial
from .synth import MovingRect, SceneScript, load_scene, parse_scene_text, render

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
    "batch_descriptors",
    "brick_descriptor",
    "evaluate",
    "initialize",
    "learn_initial",
    "load_config",
    "load_frames",
    "load_masks",
    "load_scene",
    "make_grid",
    "model_at",
    "parse_scene_text",
    "per_frame_fscores",
    "process_video",
    "read_image",
    "read_report",
    "remove_small_components",
    "render",
    "step",
    "synthesize",
    "write_frames",
    "write_image",
    "write_masks",
    "write_report",
]
