"""Mask quality floors: one scene, mode and stride per cell, two seeds each.

A floor is today's F-score less a margin, pooled over the frames after the
object enters, so a cell fails when a change makes its masks worse.

Colour frames in ``cs_stltp``: the 150-frame head of ``moving_box_rgb`` at
the default config reads F 0.785 (seed 2) and 0.790 (seed 7), with precision
about 0.65 and recall about 1.  The low precision is a known defect, not
mended yet.  The floor of 0.75 pins that defect as it stands and hides
nothing; a noise-relative ``cs_stltp`` pixel gate is expected to raise it.
"""

from dataclasses import replace
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
