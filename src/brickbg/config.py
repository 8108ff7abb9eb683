"""Engine configuration and the flat key=value config-file format."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .features import DEFAULT_TAU, MODE_CS, MODE_RGB, MODES
from .maintenance import DEFAULT_ALPHA, DEFAULT_BETA
from .segmentation import DEFAULT_T_EPS, DEFAULT_T_OMEGA
from .subspace import DEFAULT_HISTORY, DEFAULT_T_D, DEFAULT_T_DEPS


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
        self.mode = normalize_mode(self.mode)
        if min(self.brick_width, self.brick_height, self.brick_depth) < 1:
            raise ConfigError("brick dimensions must be positive")
        if self.tau < 0:
            raise ConfigError("tau must be non-negative")
        if not (self.t_d >= 0 and self.t_deps >= 0):   # NaN fails too
            raise ConfigError("t_d and t_deps must be non-negative")
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        if self.history < 2:
            raise ConfigError("history must be at least 2")
        if self.init_frames < 1:
            raise ConfigError("init_frames must be positive")
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


def normalize_mode(mode: str) -> str:
    name = str(mode).strip().lower().replace("-", "_")
    if name == "cs":
        name = MODE_CS
    if name not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    return name


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
_INT_KEYS = {"l": "history", "history": "history", "init_frames": "init_frames",
             "min_area": "min_area", "stride": "stride"}


def config_from_mapping(pairs: dict) -> EngineConfig:
    kwargs = {}
    for key, value in pairs.items():
        if key == "brick":
            w, h, t = _parse_brick(value)
            kwargs.update(brick_width=w, brick_height=h, brick_depth=t)
        elif key == "mode":
            kwargs["mode"] = normalize_mode(value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = _to_float(key, value)
        elif key in _INT_KEYS:
            kwargs[_INT_KEYS[key]] = _to_int(key, value)
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


def with_overrides(config: EngineConfig, mode: str | None = None, stride: int | None = None) -> EngineConfig:
    out = config
    if mode is not None:
        out = replace(out, mode=normalize_mode(mode))
    if stride is not None:
        out = replace(out, stride=stride)
    return out


def config_to_text(config: EngineConfig) -> str:
    """Render a config back into the key=value file format."""
    lines = [
        f"mode = {config.mode}",
        f"brick = {config.brick_width}x{config.brick_height}x{config.brick_depth}",
        f"tau = {config.tau}",
        f"t_d = {config.t_d}",
        f"t_deps = {config.t_deps}",
        f"t_omega = {config.effective_t_omega}",
        f"t_eps = {config.effective_t_eps}",
        f"t_rgb = {config.t_rgb}",
        f"alpha = {config.alpha}",
        f"beta = {config.beta}",
        f"l = {config.history}",
        f"init_frames = {config.init_frames}",
        f"min_area = {config.min_area}",
        f"stride = {config.effective_stride}",
    ]
    return "\n".join(lines) + "\n"

