"""Engine configuration and the flat key=value config-file format."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .features import DEFAULT_TAU, MODE_CS, MODE_RGB, MODES
from .maintenance import DEFAULT_ALPHA, DEFAULT_BETA
from .subspace import DEFAULT_HISTORY, DEFAULT_T_D, DEFAULT_T_DEPS


# Residual thresholds from the reference operating point.
DEFAULT_T_OMEGA = {MODE_CS: 3.0, MODE_RGB: 5.0}
DEFAULT_T_EPS = {MODE_CS: 3.0, MODE_RGB: 4.0}


class ConfigError(ValueError):
    """Bad configuration file or option value."""


@dataclass
class EngineConfig:
    mode: str = MODE_CS
    brick_width: int = 4
    brick_height: int = 4
    brick_depth: int = 5
    tau: float = DEFAULT_TAU
    t_d: float = DEFAULT_T_D         # appearance dim: keep sigma > t_d * sigma_max
    t_deps: float = DEFAULT_T_DEPS   # noise dim: keep sigma > t_deps * residual sigma_max
    t_omega: float | None = None     # None -> per-mode default (3 cs, 5 rgb)
    t_eps: float | None = None       # None -> per-mode default (3 cs, 4 rgb)
    t_rgb: float = DEFAULT_T_OMEGA[MODE_RGB]   # cs_stltp pixel refinement threshold
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    history: int = DEFAULT_HISTORY
    init_frames: int = 50
    min_area: int = 20
    stride: int | None = None        # None -> brick_depth (non-overlapping)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {self.mode!r}")
        if min(self.brick_width, self.brick_height, self.brick_depth) < 1:
            raise ConfigError("brick dimensions must be positive")
        if not 0 <= self.tau < math.inf:   # NaN fails too, here and below
            raise ConfigError("tau must be finite and non-negative")
        if not (self.t_d >= 0 and self.t_deps >= 0):
            raise ConfigError("t_d and t_deps must be non-negative")
        set_thresholds = [x for x in (self.t_omega, self.t_eps) if x is not None]
        if not all(x >= 0 for x in [*set_thresholds, self.t_rgb]):
            raise ConfigError("t_omega, t_eps and t_rgb must be non-negative")
        if not 0 < self.beta < math.inf:
            raise ConfigError("beta must be finite and positive")
        if self.history < 2:
            raise ConfigError("history must be at least 2")
        windows = self.init_frames // self.brick_depth
        if windows < 2:
            raise ConfigError(
                "initialization needs at least two brick-depth windows "
                f"({self.init_frames} frames / depth {self.brick_depth} gives {windows})"
            )
        if self.init_frames % self.brick_depth:   # else frames after the last window go unread
            raise ConfigError(f"init_frames must be a multiple of brick depth {self.brick_depth}")
        if self.min_area < 0:
            raise ConfigError("min_area must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.stride is not None and not 1 <= self.stride <= self.brick_depth:
            raise ConfigError("stride must lie in [1, brick_depth]")

    @property
    def effective_stride(self) -> int:
        return self.brick_depth if self.stride is None else self.stride

    @property
    def effective_t_omega(self) -> float:
        return DEFAULT_T_OMEGA[self.mode] if self.t_omega is None else self.t_omega

    @property
    def effective_t_eps(self) -> float:
        return DEFAULT_T_EPS[self.mode] if self.t_eps is None else self.t_eps


def parse_kv_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_brick(value: str):
    parts = value.lower().replace(" ", "").split("x")
    if len(parts) != 3:
        raise ConfigError(f"brick must look like '4x4x5', got {value!r}")
    try:
        w, h, t = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"brick must be three integers, got {value!r}") from None
    return w, h, t


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _to_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


_FLOAT_KEYS = {"tau", "t_d", "t_deps", "t_omega", "t_eps", "t_rgb", "alpha", "beta"}
_INT_KEYS = {"history", "init_frames", "min_area", "stride"}


def config_from_mapping(pairs: dict) -> EngineConfig:
    kwargs = {}
    for key, value in pairs.items():
        if key == "brick":
            w, h, t = _parse_brick(value)
            kwargs.update(brick_width=w, brick_height=h, brick_depth=t)
        elif key == "mode":
            kwargs["mode"] = value
        elif key in _FLOAT_KEYS:
            kwargs[key] = _to_float(key, value)
        elif key in _INT_KEYS:
            kwargs[key] = _to_int(key, value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return EngineConfig(**kwargs)


def load_config(path) -> EngineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return config_from_mapping(parse_kv_text(text))

