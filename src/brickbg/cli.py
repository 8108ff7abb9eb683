"""Command-line interface.

Subcommands::

    brickbg run    --input FRAMES --output DIR [--config FILE] [options]
    brickbg eval   --truth DIR (--pred DIR | --sweep DIR) [--report FILE]
    brickbg synth  --scene FILE --output DIR [--truth DIR]

``run`` prints one line: the frame count, grid, mode, stride and throughput
(then the scores, given ``--truth``).

``run`` holds the clip, its truth and its masks once each, and ``eval`` the
truth and the predictions once each: a sequence is loaded by reading each
file into its row of one array, and masks are written and scored one frame
at a time.  On the bundled 200-frame 352x288 scenes, ``eval`` peaks at about
69 MB resident (30 MB of it the import, which loads numpy only) and a
``cs_stltp`` ``run --truth`` at about 120 MB; the engine's own working set
is the rest.

Exit codes: 0 on success, 2 for unusable arguments or configuration, 3 for
runtime failures (missing/short/malformed data, numerical breakdown).
Every destination is checked before anything is written (by ``run``, before
segmenting; by ``synth``, before rendering): one directory for ``synth``'s
frames and truth, or for ``run``'s masks and truth, exits 2, and one that is
(or lies under) a file, or holds frame files the write would leave in place,
exits 3.  An input, truth or prediction that is not a frame directory exits
3, and a config or scene that is not UTF-8 text exits 2.  ``run`` also loads
its truth before segmenting and checks that it holds one mask per frame: a
missing or mis-shaped truth exits 3 with no mask written.  ``run`` and
``eval`` refuse (exit 3) a ``--report`` path that is a directory or whose
directory is missing before they load anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, EngineConfig, load_config
from .evaluation import evaluate, per_frame_fscores, write_report
from .imageio import (FrameFormatError, check_destination, load_frames, load_masks,
                      write_frames, write_masks)
from .linalg import NumericalFailure
from .pipeline import process_video
from .subspace import InsufficientData
from .synth import load_scene, render

USAGE_ERROR = 2
RUNTIME_ERROR = 3


def _print_scores(predicted, truth, report_path) -> None:
    """Print precision, recall and F-scores; write the CSV report if a path is given."""
    report = evaluate(predicted, truth)
    mean_f = float(per_frame_fscores(predicted, truth).mean())
    print(
        f"precision {report.precision:.4f}  recall {report.recall:.4f}  "
        f"fscore {report.fscore:.4f}  mean-frame-fscore {mean_f:.4f}"
    )
    if report_path:
        write_report(report_path, report)


def _check_report(path) -> None:
    """Refuse a ``--report`` path that is a directory or whose directory is
    missing, before any work that the report would score."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise FileNotFoundError(f"{path}: the report needs a file in an existing directory")


def _cmd_run(args) -> int:
    if args.report and not args.truth:
        raise ConfigError("--report needs --truth to score against")
    if args.truth and Path(args.output).resolve() == Path(args.truth).resolve():
        raise ConfigError("--output and --truth name the same directory")
    config = load_config(args.config) if args.config else EngineConfig()
    overrides = {"mode": args.mode, "stride": args.stride}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    _check_report(args.report)
    frames = load_frames(args.input)
    check_destination(args.output, frames.shape[0], prefix="mask")
    truth = load_masks(args.truth) if args.truth else None
    if truth is not None and truth.shape != frames.shape[:3]:
        raise FrameFormatError(
            f"truth shape {truth.shape} does not match the frames' {frames.shape[:3]}"
        )
    started = time.perf_counter()
    masks, state = process_video(frames, config)
    elapsed = time.perf_counter() - started
    write_masks(args.output, masks)
    fps = frames.shape[0] / elapsed if elapsed > 0 else float("inf")
    print(
        f"processed {frames.shape[0]} frames "
        f"({state.geometry.grid_w}x{state.geometry.grid_h} bricks, {config.mode}, "
        f"stride {config.effective_stride}) in {elapsed:.2f}s ({fps:.1f} fps)"
    )
    if truth is not None:
        _print_scores(masks, truth, args.report)
    return 0


def _cmd_eval(args) -> int:
    _check_report(args.report)
    truth = load_masks(args.truth)
    if args.pred:
        predicted = load_masks(args.pred)
        if predicted.shape != truth.shape:
            raise FrameFormatError(
                f"prediction shape {predicted.shape} does not match truth {truth.shape}"
            )
        _print_scores(predicted, truth, args.report)
        return 0

    root = Path(args.sweep)
    subdirs = sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []
    if not subdirs:
        raise FrameFormatError(f"{root}: no operating-point subdirectories found")
    reports = []
    for sub in subdirs:
        predicted = load_masks(sub)
        if predicted.shape != truth.shape:
            raise FrameFormatError(
                f"{sub}: shape {predicted.shape} does not match truth {truth.shape}"
            )
        reports.append(evaluate(predicted, truth))
    for sub, report in zip(subdirs, reports):
        print(
            f"{sub.name}: precision {report.precision:.4f}  "
            f"recall {report.recall:.4f}  fscore {report.fscore:.4f}"
        )
    if args.report:
        best = max(reports, key=lambda r: r.fscore)
        write_report(args.report, best, [(r.recall, r.precision) for r in reports])
    return 0


def _cmd_synth(args) -> int:
    if args.truth and Path(args.output).resolve() == Path(args.truth).resolve():
        raise ConfigError("--output and --truth name the same directory")
    scene = load_scene(args.scene)
    check_destination(args.output, scene.frame_count, scene.channels)
    if args.truth:
        check_destination(args.truth, scene.frame_count, prefix="mask")
    frames, truth = render(scene)
    write_frames(args.output, frames)
    print(f"wrote {frames.shape[0]} frames to {args.output}")
    if args.truth:
        write_masks(args.truth, truth)
        print(f"wrote truth masks to {args.truth}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brickbg",
        description="Streaming background subtraction with per-brick linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="segment a frame sequence and write masks")
    run.add_argument("--input", required=True, help="directory of numbered PGM/PPM frames")
    run.add_argument("--output", required=True, help="directory for mask images")
    run.add_argument("--truth", help="optional truth masks to score against")
    run.add_argument("--report", help="optional CSV report path (needs --truth)")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--mode", help="descriptor mode override (cs_stltp or rgb)")
    run.add_argument("--stride", type=int, help="window stride override (1..brick depth)")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="score predicted masks against truth")
    ev.add_argument("--truth", required=True, help="truth mask directory")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--pred", help="predicted mask directory")
    group.add_argument(
        "--sweep",
        help="directory whose subdirectories each hold one operating point's masks",
    )
    ev.add_argument("--report", help="CSV report path (sweep: best point + curve)")
    ev.set_defaults(func=_cmd_eval)

    synth = sub.add_parser("synth", help="render a synthetic scene script")
    synth.add_argument("--scene", required=True, help="scene script file")
    synth.add_argument("--output", required=True, help="directory for frames")
    synth.add_argument("--truth", help="optional directory for truth masks")
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (FrameFormatError, InsufficientData, NumericalFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
