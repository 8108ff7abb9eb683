"""Scene generator: determinism, exact truth masks, planted processes."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from brickbg.config import ConfigError
from brickbg.features import brick_descriptor
from brickbg.synth import (
    MovingRect,
    SceneScript,
    load_scene,
    parse_scene_text,
    planted_model,
    render,
)

SCENES = sorted((Path(__file__).resolve().parent.parent / "scenes").glob("*.scene"))


def simple_scene(**overrides):
    kwargs = dict(
        width=32, height=24, frame_count=12, seed=3,
        base_kind="flat", base_value=100.0,
    )
    kwargs.update(overrides)
    return SceneScript(**kwargs)


# --- determinism and dtypes -------------------------------------------------


def test_render_is_deterministic():
    script = simple_scene(noise_sigma=4.0, base_kind="texture")
    a_frames, a_truth = render(script)
    b_frames, b_truth = render(script)
    assert np.array_equal(a_frames, b_frames)
    assert np.array_equal(a_truth, b_truth)


def test_render_shapes_and_dtypes():
    frames, truth = render(simple_scene())
    assert frames.shape == (12, 24, 32, 1)
    assert frames.dtype == np.uint8
    assert truth.shape == (12, 24, 32)
    assert truth.dtype == np.bool_
    raw, _ = render(simple_scene(quantize=False))
    assert raw.dtype == np.float64


def test_constant_scene_is_flat_and_empty():
    frames, truth = render(simple_scene())
    assert (frames == 100).all()
    assert not truth.any()


def test_three_channels():
    frames, _ = render(simple_scene(channels=3))
    assert frames.shape == (12, 24, 32, 3)


# --- objects and truth masks -------------------------------------------------


def test_truth_footprint_matches_object_exactly():
    rect = MovingRect(width=5, height=3, color=(255.0,), start=(4, 6))
    frames, truth = render(simple_scene(objects=[rect]))
    for f in range(12):
        expect = np.zeros((24, 32), dtype=bool)
        expect[6:9, 4:9] = True
        assert np.array_equal(truth[f], expect)
        assert (frames[f, 6:9, 4:9, 0] == 255).all()
        assert (frames[f][~expect] == 100).all()


def test_object_enter_exit_window():
    rect = MovingRect(width=4, height=4, color=(200.0,), start=(2, 2),
                      enter=3, exit=7)
    _, truth = render(simple_scene(objects=[rect]))
    present = truth.any(axis=(1, 2))
    assert list(np.nonzero(present)[0]) == [3, 4, 5, 6]


def test_velocity_moves_object():
    rect = MovingRect(width=2, height=2, color=(0.0,), start=(0, 0),
                      velocity=(2.0, 1.0))
    _, truth = render(simple_scene(objects=[rect]))
    ys, xs = np.nonzero(truth[5])
    assert xs.min() == 10 and ys.min() == 5


def test_jump_quantizes_motion():
    rect = MovingRect(width=2, height=2, color=(0.0,), start=(0, 0),
                      velocity=(1.0, 0.0), jump=4)
    _, truth = render(simple_scene(objects=[rect]))
    # Within each 4-frame block the object sits still, then jumps 4 px.
    for f in range(12):
        xs = np.nonzero(truth[f])[1]
        assert xs.min() == 4 * (f // 4)


def test_object_color_must_match_channels():
    rect = MovingRect(width=2, height=2, color=(1.0, 2.0), start=(0, 0))
    with pytest.raises(ConfigError):
        render(simple_scene(objects=[rect]))
    rgb = MovingRect(width=2, height=2, color=(10.0,), start=(0, 0))
    frames, _ = render(simple_scene(channels=3, objects=[rgb]))
    assert (frames[0, 0, 0] == [10, 10, 10]).all()     # scalar broadcasts


def test_object_color_checked_even_if_never_alive():
    late = MovingRect(width=2, height=2, color=(1.0, 2.0), start=(0, 0), enter=20)
    with pytest.raises(ConfigError, match="object color has 2 channels, scene has 1"):
        render(simple_scene(frame_count=10, objects=[late]))


def test_out_of_frame_trajectory_rejected():
    rect = MovingRect(width=4, height=4, color=(0.0,), start=(28, 0),
                      velocity=(1.0, 0.0))
    with pytest.raises(ConfigError):
        render(simple_scene(objects=[rect]))
    with pytest.raises(ConfigError):
        render(simple_scene(objects=[
            MovingRect(width=2, height=2, color=(0.0,), start=(0, 0), jump=-1)
        ]))
    with pytest.raises(ConfigError):
        render(simple_scene(objects=[
            MovingRect(width=0, height=2, color=(0.0,), start=(0, 0))
        ]))


# --- background processes -----------------------------------------------------


def test_gaussian_noise_statistics():
    script = simple_scene(noise_sigma=5.0, frame_count=40, quantize=False)
    frames, _ = render(script)
    residual = frames - 100.0
    assert abs(residual.mean()) < 0.1
    assert abs(residual.std() - 5.0) < 0.1


def test_two_tone_and_three_tone_values():
    two, _ = render(simple_scene(base_kind="two_tone", base_low=60.0,
                                 base_high=160.0))
    assert set(np.unique(two)) == {60, 160}
    three, _ = render(simple_scene(base_kind="three_tone", base_low=70.0,
                                   base_high=160.0, quantize=False))
    values = set(np.unique(three))
    middle = float(np.sqrt(70.0 * 160.0))
    assert values == {70.0, middle, 160.0}


def test_three_tone_refuses_tones_of_opposite_sign():
    """The middle tone is sqrt(low * high); a negative product has none."""
    with pytest.raises(ConfigError, match="same sign"):
        SceneScript(width=16, height=16, base_kind="three_tone", base_low=-10.0)
    frames, _ = render(simple_scene(base_kind="three_tone", base_low=0.0,
                                    base_high=160.0, quantize=False))
    assert set(np.unique(frames)) == {0.0, 160.0}


def test_texture_base_within_bounds():
    frames, _ = render(simple_scene(base_kind="texture", base_low=50.0,
                                    base_high=90.0, quantize=False))
    assert frames.min() >= 50.0 and frames.max() <= 90.0
    assert np.unique(frames[0]).size > 100       # genuinely per-pixel random


def test_planted_background_follows_model_exactly():
    script = simple_scene(arma_dim=3,
                          base_kind="flat", base_value=128.0,
                          quantize=False, frame_count=20)
    patterns, transition, states = planted_model(script)
    frames, _ = render(script)
    h, w = script.height, script.width
    for f in range(20):
        assert np.array_equal(frames[f], 128.0 + (patterns @ states[f]).reshape(h, w, 1))
    # states follow the transition map between steps
    for f in range(1, 20):
        assert np.allclose(states[f], transition @ states[f - 1], atol=1e-12)
    radius = np.abs(np.linalg.eigvals(transition)).max()
    assert radius <= script.arma_radius + 1e-9


def test_planted_model_requires_planted_background():
    with pytest.raises(ConfigError):
        planted_model(simple_scene())


def test_planted_arma_step_holds_state():
    script = simple_scene(arma_dim=2, arma_step=5,
                          quantize=False, frame_count=15)
    _, _, states = planted_model(script)
    for f in range(15):
        assert np.array_equal(states[f], states[5 * (f // 5)])


def test_render_memory_is_about_the_output():
    """Frames are finished one at a time into the uint8 clip.  The whole-clip
    float64 passes (planted terms, frames, rint, clip) peaked at about 160
    float64 frames above the outputs here."""
    rect = MovingRect(width=8, height=8, color=(200.0, 90.0, 30.0), start=(4, 4),
                      velocity=(1.0, 1.0))
    script = SceneScript(width=64, height=64, frame_count=40, channels=3, arma_dim=3,
                         base_kind="texture", noise_sigma=2.0, gain=1.3, gain_frame=10,
                         gain_ramp=5, objects=[rect])
    patterns, _, _ = planted_model(script)
    tracemalloc.start()
    try:
        frames, truth = render(script)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float_frame = 64 * 64 * 3 * 8
    assert peak < frames.nbytes + truth.nbytes + patterns.nbytes + 6 * float_frame


# --- illumination gain ----------------------------------------------------------


def test_gain_step_scales_frames():
    base = simple_scene(quantize=False, frame_count=10)
    stepped = replace(base, gain=1.5, gain_frame=6)
    plain, _ = render(base)
    lit, _ = render(stepped)
    assert np.allclose(lit[:6], plain[:6], atol=1e-12)
    assert np.allclose(lit[6:], 1.5 * plain[6:], atol=1e-12)


def test_gain_ramp_interpolates():
    base = simple_scene(quantize=False, frame_count=10, base_value=100.0)
    ramped = replace(base, gain=2.0, gain_frame=4, gain_ramp=4)
    lit, _ = render(ramped)
    want = [100, 100, 100, 100, 125, 150, 175, 200, 200, 200]
    got = [lit[f, 0, 0, 0] for f in range(10)]
    assert np.allclose(got, want, atol=1e-9)


def test_descriptor_invariance_to_gain_on_synthetic_frames():
    """End to end: the histogram descriptor of a rendered brick is
    bit-identical across an illumination step; raw voxels are not."""
    script = simple_scene(width=16, height=16, frame_count=10,
                          base_kind="texture", base_low=60.0, base_high=180.0,
                          seed=9, quantize=False)
    plain, _ = render(script)
    lit, _ = render(replace(script, gain=1.25, gain_frame=0))
    cs_a = brick_descriptor(plain[0:5], 4, 4, 6, 6, mode="cs_stltp")
    cs_b = brick_descriptor(lit[0:5], 4, 4, 6, 6, mode="cs_stltp")
    assert np.array_equal(cs_a, cs_b)
    rgb_a = brick_descriptor(plain[0:5], 4, 4, 6, 6, mode="rgb")
    rgb_b = brick_descriptor(lit[0:5], 4, 4, 6, 6, mode="rgb")
    assert not np.array_equal(rgb_a, rgb_b)


def test_quantize_clips_to_byte_range():
    script = simple_scene(base_value=250.0, gain=2.0, gain_frame=0)
    frames, _ = render(script)
    assert frames.max() == 255


# --- scene scripts -----------------------------------------------------------


SCENE_TEXT = """
# comment line
width = 48
height = 36
frames = 30
channels = 1
seed = 7
base = three_tone
base_low = 70
base_high = 160
noise_sigma = 5.0
gain = 1.5
gain_frame = 15

box.size = 8x6
box.color = 240
box.start = 4, 8
box.velocity = 1, 0.5
box.enter = 2
box.jump = 5
"""


def test_parse_scene_text_full():
    script = parse_scene_text(SCENE_TEXT)
    assert script.width == 48 and script.height == 36
    assert script.frame_count == 30
    assert script.base_kind == "three_tone"
    assert script.noise_sigma == 5.0
    assert script.gain == 1.5 and script.gain_frame == 15
    assert len(script.objects) == 1
    rect = script.objects[0]
    assert (rect.width, rect.height) == (8, 6)
    assert rect.color == (240.0,)
    assert rect.start == (4.0, 8.0)
    assert rect.velocity == (1.0, 0.5)
    assert rect.enter == 2 and rect.jump == 5 and rect.exit is None
    frames, truth = render(script)          # parses into a renderable scene
    assert frames.shape == (30, 36, 48, 1)
    assert truth[2].any() and not truth[0].any()


@pytest.mark.parametrize("line, message", [
    ("widht = 3", "unknown scene key"),
    ("width = wide", "integer"),
    ("noise_sigma = soft", "number"),
    ("quantize = maybe", "boolean"),
    ("box.size = 8x6\nbox.colour = 3\nbox.color = 3\nbox.start = 0,0", "unknown keys"),
    ("box.size = 8x6", "missing"),
    ("box.size = 86\nbox.color = 3\nbox.start = 0,0", "WxH"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = 0", "x,y"),
    ("background = gaussian_noise", "unknown scene key"),
    ("seed = -1", "seed, arma_dim, gain_frame and gain_ramp must be non-negative"),
    ("noise_sigma = nan", "noise_sigma must be finite"),
    ("box.size = 8x6.5\nbox.color = 3\nbox.start = 0,0", "box.size must be an integer"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = 0,0\nbox.enter = abc", "box.enter must be an integer"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = 0,0\nbox.exit = 9.5", "box.exit must be an integer"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = 0,0\nbox.jump = 1.5", "box.jump must be an integer"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = 0,y", "box.start must be a number"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = 0,0\nbox.velocity = 1,fast", "box.velocity must be a number"),
    ("box.size = 8x6\nbox.color = grey\nbox.start = 0,0", "box.color must be a number"),
    ("box.size = 8x6\nbox.color = 3\nbox.start = nan, 1", "object 0: start, velocity and color must be finite"),
    ("box.size = 8x6\nbox.color = inf\nbox.start = 0,0", "object 0: start, velocity and color must be finite"),
])
def test_parse_scene_text_errors(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_scene_text(line)


def test_parse_scene_defaults_round_trip():
    script = parse_scene_text("width = 20\nheight = 20")
    assert script.frame_count == 100
    assert script.quantize is True
    assert script.objects == []


def test_scene_validation():
    nan, inf = float("nan"), float("inf")
    for kwargs in (
        dict(base_kind="perlin"),
        dict(channels=2),
        dict(gain=0.0),
        dict(width=0),
        dict(arma_step=0),
        dict(noise_sigma=-1.0),
        dict(noise_sigma=nan),
        dict(noise_sigma=inf),
        dict(gain=nan),
        dict(gain=inf),
        dict(base_value=nan),
        dict(base_low=-inf),
        dict(base_high=inf),
        dict(arma_amplitude=nan),
        dict(arma_radius=nan),
        dict(arma_radius=1.0),
        dict(arma_radius=-0.5),
        dict(arma_radius=1e3),
        dict(seed=-1),
        dict(arma_dim=-1),
        dict(gain_frame=-3),
        dict(gain_ramp=-1),
        dict(objects=[MovingRect(width=2, height=2, color=(9.0,), start=(nan, 1.0))]),
        dict(objects=[MovingRect(width=2, height=2, color=(9.0,), start=(0.0, 0.0),
                                 velocity=(inf, 0.0))]),
        dict(objects=[MovingRect(width=2, height=2, color=(nan,), start=(0.0, 0.0))]),
    ):
        with pytest.raises(ConfigError):
            SceneScript(**kwargs)




def test_bundled_scenes_load_and_render():
    """Every scenes/*.scene file parses and renders its first ten frames."""
    assert [p.stem for p in SCENES] == [
        "illumination_step", "moving_box", "moving_box_rgb", "occlusion"]
    for path in SCENES:
        script = load_scene(path)
        frames, truth = render(replace(script, frame_count=10))
        assert frames.shape == (10, script.height, script.width, script.channels)
        assert frames.dtype == np.uint8
        assert truth.shape == frames.shape[:3]
