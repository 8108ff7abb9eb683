"""Synthetic test scenes with exact ground-truth masks.

A scene script fixes the frame geometry, the background, an optional
illumination gain change, and a set of moving rectangles.  Rendering is a
pure function of the script (seeded generator), so the same script always
produces bit-identical frames and truth masks.  Frames are rendered one at a
time, in order, so peak memory is about the output clip, and a shorter
``frame_count`` gives the exact head of a longer clip.

The background is built from three parts, each switched on by its numbers:

* a static base image, flat or drawn per pixel (``base_kind``)
* an ARMA process planted when ``arma_dim >= 1``: a random pattern matrix
  maps a slowly evolving state vector to the additive term
  ``patterns @ states[f]`` of frame f (``planted_model``), so rendered
  frames follow a known subspace model exactly when noise and quantization
  are turned off
* i.i.d. Gaussian sensor noise per frame when ``noise_sigma > 0`` (applied
  after objects are drawn)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, _to_float, _to_int, parse_kv_text, read_text

BASE_KINDS = ("flat", "texture", "two_tone", "three_tone")


@dataclass
class MovingRect:
    """A solid rectangle translating at constant velocity.

    Position at frame f is ``start + velocity * (f - enter)``; the object
    exists for frames ``enter <= f < exit`` (``exit`` None = forever).
    With ``jump = j > 0`` the elapsed time is quantized to multiples of j,
    so the rectangle sits still for j frames then jumps ahead (useful for
    keeping it static within each temporal analysis window).
    """

    width: int
    height: int
    color: tuple
    start: tuple
    velocity: tuple = (0.0, 0.0)
    enter: int = 0
    exit: int | None = None
    jump: int = 0

    def position(self, frame: int):
        steps = frame - self.enter
        if self.jump > 0:
            steps = self.jump * (steps // self.jump)
        x = self.start[0] + self.velocity[0] * steps
        y = self.start[1] + self.velocity[1] * steps
        return int(round(x)), int(round(y))

    def alive(self, frame: int) -> bool:
        return frame >= self.enter and (self.exit is None or frame < self.exit)


@dataclass
class SceneScript:
    width: int = 96
    height: int = 96
    frame_count: int = 100
    channels: int = 1
    seed: int = 0
    base_kind: str = "flat"
    base_value: float = 120.0
    base_low: float = 60.0
    base_high: float = 160.0
    noise_sigma: float = 0.0
    arma_dim: int = 0
    arma_step: int = 1
    arma_amplitude: float = 8.0
    arma_radius: float = 0.95
    gain: float = 1.0
    gain_frame: int = 0
    gain_ramp: int = 0          # frames to ramp from 1.0 to gain; 0 = step
    quantize: bool = True
    objects: list = field(default_factory=list)

    def __post_init__(self):
        if self.base_kind not in BASE_KINDS:
            raise ConfigError(f"base must be one of {BASE_KINDS}")
        if self.channels not in (1, 3):
            raise ConfigError("channels must be 1 or 3")
        if self.width < 1 or self.height < 1 or self.frame_count < 1:
            raise ConfigError("scene dimensions must be positive")
        for name in ("base_value", "base_low", "base_high", "arma_amplitude"):
            if not abs(getattr(self, name)) < math.inf:   # NaN fails too, here and below
                raise ConfigError(f"{name} must be finite")
        if self.base_kind == "three_tone" and self.base_low * self.base_high < 0:
            # the middle tone is the geometric mean of the outer two
            raise ConfigError("three_tone needs base_low and base_high of the same sign")
        if not 0 <= self.arma_radius < 1:
            # a spectral radius is not negative, and at 1 or more the planted
            # state never settles to a stationary spread
            raise ConfigError("arma_radius must be in [0, 1)")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError("noise_sigma must be finite and non-negative")
        if not 0 < self.gain < math.inf:
            raise ConfigError("gain must be finite and positive")
        if min(self.seed, self.arma_dim, self.gain_frame, self.gain_ramp) < 0:
            raise ConfigError("seed, arma_dim, gain_frame and gain_ramp must be non-negative")
        if self.arma_step < 1:
            raise ConfigError("arma_step must be positive")
        _check_objects(self)


def _check_objects(script: SceneScript):
    for i, rect in enumerate(script.objects):
        if rect.width < 1 or rect.height < 1:
            raise ConfigError(f"object {i}: size must be positive")
        if rect.jump < 0:
            raise ConfigError(f"object {i}: jump must be non-negative")
        numbers = np.array([*rect.start, *rect.velocity, *np.ravel(rect.color)], dtype=np.float64)
        if not (np.abs(numbers) < math.inf).all():
            raise ConfigError(f"object {i}: start, velocity and color must be finite")
        size = np.asarray(rect.color, dtype=np.float64).size
        if size not in (1, script.channels):
            raise ConfigError(f"object color has {size} channels, scene has {script.channels}")
        last = script.frame_count if rect.exit is None else min(rect.exit, script.frame_count)
        for f in range(max(rect.enter, 0), last):
            x, y = rect.position(f)
            if x < 0 or y < 0 or x + rect.width > script.width or y + rect.height > script.height:
                raise ConfigError(
                    f"object {i}: leaves the frame at frame {f} (position {x},{y})"
                )


def _stable_transition(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Random transition matrix with spectral radius <= radius."""
    raw = rng.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    scales = radius * rng.uniform(0.8, 1.0, size=d)
    return q @ np.diag(scales) @ q.T


def planted_model(script: SceneScript):
    """The pattern matrix, transition and state track of a planted scene.

    Returns ``(patterns, transition, states)`` where ``patterns`` is
    (H*W*channels, arma_dim) and ``states`` is (frame_count, arma_dim);
    the background of frame f is ``base + (patterns @ states[f]).reshape``.
    """
    if script.arma_dim < 1:
        raise ConfigError("scene has no planted background process (arma_dim < 1)")
    rng = np.random.default_rng(script.seed + 1)
    npix = script.height * script.width * script.channels
    patterns = rng.normal(size=(npix, script.arma_dim)) * script.arma_amplitude
    transition = _stable_transition(rng, script.arma_dim, script.arma_radius)
    z = rng.normal(size=script.arma_dim)
    states = np.empty((script.frame_count, script.arma_dim))
    for f in range(script.frame_count):
        if f and f % script.arma_step == 0:
            z = transition @ z
            if script.noise_sigma:
                z = z + rng.normal(scale=script.noise_sigma, size=script.arma_dim)
        states[f] = z
    return patterns, transition, states


def render(script: SceneScript):
    """Render a scene to ``(frames, truth)``, one finished frame at a time.

    frames: (F, H, W, channels) uint8 (float64 when ``quantize`` is off);
    truth: (F, H, W) bool, True where a live object covers the pixel.
    Frame f is the base plus its planted term ``patterns @ states[f]``, then
    the objects and noise, times its gain, rounded and clipped to 8 bits.
    """
    h, w, ch, n = script.height, script.width, script.channels, script.frame_count
    rng = np.random.default_rng(script.seed)

    if script.base_kind == "flat":
        base = np.full((h, w, ch), float(script.base_value))
    elif script.base_kind == "two_tone":
        tones = np.array([script.base_low, script.base_high])
        base = rng.choice(tones, size=(h, w, ch))
    elif script.base_kind == "three_tone":
        middle = float(np.sqrt(script.base_low * script.base_high))
        tones = np.array([script.base_low, middle, script.base_high])
        base = rng.choice(tones, size=(h, w, ch))
    else:
        base = rng.uniform(script.base_low, script.base_high, size=(h, w, ch))

    if script.arma_dim >= 1:
        patterns, _, states = planted_model(script)

    colors = [
        np.broadcast_to(np.asarray(rect.color, dtype=np.float64).reshape(-1), (ch,))
        for rect in script.objects
    ]
    frames = np.empty((n, h, w, ch), dtype=np.uint8 if script.quantize else np.float64)
    truth = np.zeros((n, h, w), dtype=bool)
    start, ramp = script.gain_frame, script.gain_ramp
    for f in range(n):
        frame = base.copy()
        if script.arma_dim >= 1:
            frame += (patterns @ states[f]).reshape(h, w, ch)
        for rect, color in zip(script.objects, colors):
            if not rect.alive(f):
                continue
            x, y = rect.position(f)
            frame[y : y + rect.height, x : x + rect.width, :] = color
            truth[f, y : y + rect.height, x : x + rect.width] = True
        if script.noise_sigma:
            frame += rng.normal(scale=script.noise_sigma, size=frame.shape)
        if script.gain != 1.0 and f >= start:
            if ramp and f < start + ramp:
                frame *= 1.0 + (script.gain - 1.0) * (f - start + 1) / ramp
            else:
                frame *= script.gain
        if script.quantize:
            np.clip(np.rint(frame, out=frame), 0, 255, out=frame)
        frames[f] = frame
    return frames, truth


# --- script files ----------------------------------------------------------

_SCENE_FLOATS = {"base_value", "base_low", "base_high", "noise_sigma",
                 "arma_amplitude", "arma_radius", "gain"}
_SCENE_INTS = {
    "width": "width", "height": "height", "frames": "frame_count",
    "channels": "channels", "seed": "seed", "arma_dim": "arma_dim",
    "arma_step": "arma_step", "gain_frame": "gain_frame", "gain_ramp": "gain_ramp",
}


def _num_pair(key, value):
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key} must be 'x,y', got {value!r}")
    return _to_float(key, parts[0]), _to_float(key, parts[1])


def _color(key, value):
    return tuple(_to_float(key, p) for p in value.split(","))


def parse_scene_text(text: str) -> SceneScript:
    pairs = parse_kv_text(text)
    kwargs = {}
    objects: dict[str, dict] = {}
    for key, value in pairs.items():
        if "." in key:
            name, prop = key.split(".", 1)
            objects.setdefault(name, {})[prop] = value
            continue
        if key in _SCENE_INTS:
            kwargs[_SCENE_INTS[key]] = _to_int(key, value)
        elif key in _SCENE_FLOATS:
            kwargs[key] = _to_float(key, value)
        elif key == "base":
            kwargs["base_kind"] = value
        elif key == "quantize":
            lowered = value.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise ConfigError(f"quantize must be boolean, got {value!r}")
            kwargs["quantize"] = lowered in ("true", "1", "yes")
        else:
            raise ConfigError(f"unknown scene key {key!r}")

    rects = []
    allowed = {"size", "color", "start", "velocity", "enter", "exit", "jump"}
    for name in sorted(objects):
        props = objects[name]
        unknown = set(props) - allowed
        if unknown:
            raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
        missing = {"size", "color", "start"} - set(props)
        if missing:
            raise ConfigError(f"{name}: missing {sorted(missing)}")
        size = props["size"].lower().split("x")
        if len(size) != 2:
            raise ConfigError(f"{name}.size must be 'WxH', got {props['size']!r}")
        rect = MovingRect(
            width=_to_int(f"{name}.size", size[0]),
            height=_to_int(f"{name}.size", size[1]),
            color=_color(f"{name}.color", props["color"]),
            start=_num_pair(f"{name}.start", props["start"]),
            velocity=_num_pair(f"{name}.velocity", props["velocity"]) if "velocity" in props else (0.0, 0.0),
            enter=_to_int(f"{name}.enter", props.get("enter", 0)),
            exit=None if props.get("exit", "") in ("", "none", "-1") else _to_int(f"{name}.exit", props["exit"]),
            jump=_to_int(f"{name}.jump", props.get("jump", 0)),
        )
        rects.append(rect)
    kwargs["objects"] = rects
    return SceneScript(**kwargs)


def load_scene(path) -> SceneScript:
    return parse_scene_text(read_text(path, "scene script"))
