"""Render one bundled scene script into frame and truth files.

    python3 bench/render.py --scene scenes/moving_box.scene --out DIR [--seed N] [--smoke]

Writes ``DIR/frames`` (PGM for gray scenes, PPM for colour) and
``DIR/truth`` (PGM masks, foreground 255) with the package's own
``synth`` and ``imageio``.  ``--seed`` replaces the scene file's ``seed``
(the default keeps it).  ``--smoke`` keeps the first ``SMOKE_FRAMES``
frames and crops them to ``SMOKE_CROP``, a region the moving box crosses.
The output appears atomically: it is written to a sibling temporary
directory and renamed into place.

The benchmark runs this in a process of its own, so the memory and time of
rendering never show in the measured process.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMOKE_FRAMES = 80
SMOKE_CROP = (slice(24, 88), slice(0, 64))  # rows, columns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", required=True, help="scene script")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="replaces the scene's seed")
    parser.add_argument("--smoke", action="store_true", help="small crop of the scene")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from brickbg import imageio, synth

    script = synth.load_scene(args.scene)
    if args.seed is not None:
        script = replace(script, seed=args.seed)
    if args.smoke:
        # Frames are drawn in order from one generator, so a shorter clip
        # is the exact head of the full one.
        script = replace(script, frame_count=min(script.frame_count, SMOKE_FRAMES))
    frames, truth = synth.render(script)
    if args.smoke:
        rows, cols = SMOKE_CROP
        frames, truth = frames[:, rows, cols], truth[:, rows, cols]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=out.name + ".", dir=out.parent))
    try:
        imageio.write_frames(staging / "frames", frames)
        imageio.write_masks(staging / "truth", truth)
        staging.rename(out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
