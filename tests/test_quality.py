"""Mask quality floors: one scene, mode and stride per cell, two seeds each.

A floor is today's F-score less a margin, pooled over the frames after the
object enters, so a cell fails when a change makes its masks worse.

Colour frames in ``cs_stltp``: the 150-frame head of ``moving_box_rgb`` at
the default config reads F 0.785 (seed 2) and 0.790 (seed 7), with precision
about 0.65 and recall about 1.  The low precision is a known defect, not
mended yet.  The floor of 0.75 pins that defect as it stands and hides
nothing; a noise-relative ``cs_stltp`` pixel gate is expected to raise it.

Three rows vary gray ``moving_box`` along the paper's challenges: a planted
dynamic texture (``arma_dim = 3``, ``arma_amplitude = 1.2``), an indistinct
box (``box.color = 125``, inside the background's tones) and doubled sensor
noise (``noise_sigma = 10``).  Each runs in both modes at stride 5 on the
150-frame head, cropped to rows 24:168 and columns 0:144, which hold the
box's whole path.  F over frames 50-149 reads (seed 2 / seed 7):

    row          cs_stltp        rgb
    dynamic      0.878 / 0.858   0.931 / 0.961
    indistinct   0.971 / 0.967   0.820 / 0.803
    noise 10     0.943 / 0.936   0.955 / 0.959

Each floor is the lower seed's F less 0.03: the floors pin today's
behaviour, defects included (``rgb`` misses about 30 % of the indistinct
box), and do not claim that it is good.
"""

from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

from brickbg.config import EngineConfig
from brickbg.evaluation import evaluate
from brickbg.pipeline import process_video
from brickbg.synth import load_scene, render

SCENES = Path(__file__).resolve().parents[1] / "scenes"


@pytest.mark.parametrize("seed", [2, 7])
def test_colour_cs_stltp_floor(seed):
    scene = replace(load_scene(SCENES / "moving_box_rgb.scene"), frame_count=150, seed=seed)
    frames, truth = render(scene)
    masks, _ = process_video(frames, EngineConfig(mode="cs_stltp"))
    report = evaluate(masks[50:], truth[50:])   # the box enters at frame 50
    assert report.fscore >= 0.75, (report.fscore, report.precision, report.recall)


ROWS = {
    "dynamic": lambda scene: replace(scene, arma_dim=3, arma_amplitude=1.2),
    "indistinct": lambda scene: replace(scene, objects=[replace(scene.objects[0], color=(125.0,))]),
    "noise_sigma_10": lambda scene: replace(scene, noise_sigma=10.0),
}


@cache
def cropped_head(row, seed):
    """The 150-frame head of a ``moving_box`` row, cropped to the box's path."""
    scene = replace(load_scene(SCENES / "moving_box.scene"), frame_count=150, seed=seed)
    frames, truth = render(ROWS[row](scene))
    return frames[:, 24:168, 0:144], truth[:, 24:168, 0:144]


FLOORS = {
    ("dynamic", "cs_stltp"): 0.828,
    ("dynamic", "rgb"): 0.901,
    ("indistinct", "cs_stltp"): 0.937,
    ("indistinct", "rgb"): 0.773,
    ("noise_sigma_10", "cs_stltp"): 0.906,
    ("noise_sigma_10", "rgb"): 0.925,
}


@pytest.mark.parametrize("seed", [2, 7])
@pytest.mark.parametrize("row, mode", list(FLOORS))
def test_moving_box_row_floor(row, mode, seed):
    frames, truth = cropped_head(row, seed)
    masks, _ = process_video(frames, EngineConfig(mode=mode))
    report = evaluate(masks[50:], truth[50:])   # the box enters at frame 50
    assert report.fscore >= FLOORS[row, mode], (report.fscore, report.precision, report.recall)
