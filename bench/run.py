"""End-to-end and per-layer benchmark of the brickbg engine.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/run.py --workload cs_box --seed 2 --seconds 24 --trace 0

Each run renders its workload's scene for ``--seed`` in a separate process
(``render.py``, cached under ``bench/.inputs``), then measures here, in a
process that only loads the rendered files.  It drives the engine's public
API from outside the package: ``pipeline.initialize`` on the first
``init_frames`` frames, then ``pipeline.step`` window by window, exactly as
``pipeline.process_video`` streams a clip.  One such pass over the clip is
one operation; passes repeat until ``--seconds`` have elapsed and at least
``MIN_WINDOWS`` windows were timed, so a run always holds whole passes.

The first window of every pass is warm-up and is left out of every timed
number.  Every pass is checked (F-score floor, mask shapes, model
invariants, written masks read back); a pass that fails a check counts as
failed and contributes no number.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from spans (see ``spans.py``) with
``--trace 1``.  ``--smoke`` runs the same workload on a small crop.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / ".inputs"
WORK = HERE / ".work"

# Timed windows a run needs at least, so that ten of them lie beyond the
# 80th percentile (TAIL_PERCENTILE) in every run of every workload.
TAIL_PERCENTILE = 80
MIN_BEYOND_TAIL = 10
MIN_WINDOWS = 50
# No pass starts after this many seconds, whatever else is still short.
MAX_SECONDS = 120
# Calls of initialize a run times at least; setup_s is their median.
MIN_SETUPS = 3
# Model invariants checked after the last window of every pass.
ORTHONORMAL_TOL = 1e-8
RADIUS_TOL = 1e-9
# A cs_stltp histogram counts every voxel once per sampling plane.
COUNTS_PER_VOXEL = 4
BAD_ROWS = "check.bad_descriptor_rows"


@dataclass(frozen=True)
class Workload:
    scene: str          # scene script under scenes/
    mode: str
    stride: int
    frames: int         # head of the rendered clip that one pass streams
    from_files: bool    # read frames and write masks through imageio per window
    fscore_floor: float


# Why each workload exists is stated in BENCHMARK.json.  The stride-1 clip
# is cut to 105 frames (55 windows) so that a run holds two passes.
WORKLOADS = {
    "cs_box": Workload("moving_box.scene", "cs_stltp", 5, 200, False, 0.85),
    "cs_box_stride1": Workload("moving_box.scene", "cs_stltp", 1, 105, False, 0.75),
    "rgb_files": Workload("moving_box_rgb.scene", "rgb", 5, 200, True, 0.90),
}


def import_engine():
    """The brickbg modules of this checkout, or SystemExit if it has none."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from brickbg import config, imageio, linalg, pipeline, subspace
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import brickbg from {ROOT / 'src'}: {exc}")
    if not Path(pipeline.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: brickbg imported from {pipeline.__file__}, not this checkout")
    return SimpleNamespace(config=config, imageio=imageio, linalg=linalg,
                           pipeline=pipeline, subspace=subspace)


def render_inputs(workload: Workload, seed, smoke: bool) -> Path:
    """Directory with ``frames/`` and ``truth/`` for the scene and seed.

    Only the latest seed of each scene is kept, which bounds the disk used.
    """
    stem = Path(workload.scene).stem + ("-smoke" if smoke else "")
    out = INPUTS / f"{stem}-seed{'default' if seed is None else seed}"
    if out.is_dir():
        return out
    if INPUTS.is_dir():
        for stale in INPUTS.glob(f"{stem}-seed*"):
            shutil.rmtree(stale, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "render.py"),
           "--scene", str(ROOT / "scenes" / workload.scene), "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=120)
    return out


def tally(predicted: np.ndarray, truth: np.ndarray):
    """(TP, FP, FN) pixel counts of two boolean mask stacks."""
    tp = int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted & ~truth))
    fn = int(np.count_nonzero(~predicted & truth))
    return tp, fp, fn


def fscore(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 1.0


def tail_percentile(samples) -> float:
    """The TAIL_PERCENTILE-th percentile, refused unless MIN_BEYOND_TAIL
    samples lie above it."""
    values = np.asarray(samples, dtype=float)
    value = float(np.percentile(values, TAIL_PERCENTILE))
    beyond = int(np.count_nonzero(values > value))
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(f"p{TAIL_PERCENTILE} of {values.size} samples has {beyond} beyond it")
    return value


def frames_per_second(emitted, seconds) -> float:
    """Frames emitted over the wall time of the loop that emitted them."""
    return float(sum(emitted)) / float(sum(seconds))


def stream_fps(passes) -> float:
    return frames_per_second([e for p in passes for e in p.emitted],
                             [s for p in passes for s in p.loop_s])


def model_faults(state) -> list:
    """Violated invariants of every model after a window, as messages."""
    faults = []
    for bucket in state.buckets:
        d = bucket.c.shape[2]
        gram = np.swapaxes(bucket.c, 1, 2) @ bucket.c
        err = float(np.abs(gram - np.eye(d)).max())
        if err > ORTHONORMAL_TOL:
            faults.append(f"d={d}: |C'C - I| = {err:.2e}")
        if (bucket.lam < 0).any():
            faults.append(f"d={d}: negative eigenvalue {bucket.lam.min():.3e}")
        radius = float(np.abs(np.linalg.eigvals(bucket.a)).max())
        if radius > 1.0 + RADIUS_TOL:
            faults.append(f"d={d}: spectral radius of A {radius:.12f}")
        if (bucket.d_eps > d).any():
            faults.append(f"d={d}: d_eps {int(bucket.d_eps.max())} > d")
    return faults


@dataclass
class Pass:
    setup_s: float
    window_s: list = field(default_factory=list)      # step calls, warm-up left out
    loop_s: list = field(default_factory=list)        # whole loop iterations, likewise
    emitted: list = field(default_factory=list)
    timings: list = field(default_factory=list)       # StepResult.timings, likewise
    tally: tuple = (0, 0, 0)
    faults: list = field(default_factory=list)
    histogram: dict = field(default_factory=dict)     # (d, d_eps) -> cells


class Bench:
    def __init__(self, workload: Workload, inputs: Path, engine, tracer):
        self.workload = workload
        self.imageio, self.pipeline = engine.imageio, engine.pipeline
        self.config = engine.config.EngineConfig(mode=workload.mode, stride=workload.stride)
        self.tracer = tracer
        self.truth = self.imageio.load_masks(inputs / "truth")[: workload.frames]
        if workload.from_files:
            self.paths = self.imageio.list_frames(inputs / "frames")[: workload.frames]
            self.frames = None
        else:
            self.frames = self.imageio.load_frames(inputs / "frames")[: workload.frames]
            self.paths = None
        self.count = len(self.truth)
        self.head = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def read(self, index):
        return self.imageio.read_image(self.paths[index])

    def initialize(self, head):
        with self.span("setup"):
            tick = time.perf_counter()
            state = self.pipeline.initialize(head, self.config)
            return state, time.perf_counter() - tick

    def run_pass(self, out_dir: Path) -> Pass:
        config, imageio, pipeline = self.config, self.imageio, self.pipeline
        init, depth, stride = config.init_frames, config.brick_depth, config.effective_stride
        if self.paths is not None:
            self.head = np.stack([self.read(i) for i in range(init)])
        else:
            self.head = self.frames[:init]
        state, setup_s = self.initialize(self.head)
        result = Pass(setup_s)
        masks = np.zeros(self.truth.shape, dtype=bool)
        loaded = {}
        written = []
        start = init
        while start < self.count:
            root = "window" if start > init else "warmup"
            with self.span(root):
                tick = time.perf_counter()
                stop = min(start + depth, self.count)
                if self.paths is not None:
                    for i in range(start, stop):
                        if i not in loaded:
                            loaded[i] = self.read(i)
                    for i in [i for i in loaded if i < start]:
                        del loaded[i]
                    window = np.stack([loaded[i] for i in range(start, stop)])
                else:
                    window = self.frames[start:stop]
                if window.shape[0] < depth:
                    # Same padding as process_video: repeat the last frame.
                    window = np.concatenate(
                        [window, np.repeat(window[-1:], depth - window.shape[0], axis=0)]
                    )
                with self.span("pipeline.step"):
                    step_tick = time.perf_counter()
                    out = pipeline.step(state, window)
                    step_s = time.perf_counter() - step_tick
                emit = min(stride, self.count - start)
                masks[start : start + emit] = out.masks[:emit]
                if self.paths is not None:
                    for i in range(start, start + emit):
                        path = out_dir / f"mask_{i + 1:06d}.pgm"
                        imageio.write_image(path, np.where(masks[i], np.uint8(255), np.uint8(0)))
                        written.append((i, path))
                loop_s = time.perf_counter() - tick
            if out.masks.shape != (depth,) + self.truth.shape[1:] or out.masks.dtype != bool:
                result.faults.append(f"step masks shaped {out.masks.shape} {out.masks.dtype}")
            if root == "window":
                result.window_s.append(step_s)
                result.loop_s.append(loop_s)
                result.emitted.append(emit)
                result.timings.append(dict(out.timings))
            start += stride

        result.tally = tally(masks[init:], self.truth[init:])
        score = fscore(*result.tally)
        if score < self.workload.fscore_floor:
            result.faults.append(f"fscore {score:.4f} below {self.workload.fscore_floor}")
        result.faults += model_faults(state)
        for i, path in written:
            if not np.array_equal(imageio.read_image(path) > 0, masks[i]):
                result.faults.append(f"mask {path.name} reads back different")
                break
        for bucket in state.buckets:
            for d_eps in bucket.d_eps:
                key = (bucket.c.shape[2], int(d_eps))
                result.histogram[key] = result.histogram.get(key, 0) + 1
        return result


def install_layer_spans(tracer: Tracer, engine):
    """Wrap every layer function at the attribute its callers use."""
    imageio, linalg, pipeline, subspace = engine.imageio, engine.linalg, engine.pipeline, engine.subspace

    def check_rows(tr, args, result):
        geometry, volume, mode = args[0], args[1], args[2]
        if mode == "cs_stltp":
            expected = (COUNTS_PER_VOXEL * volume.shape[0] * geometry.brick_height
                        * geometry.brick_width * volume.shape[3])
            tr.count(BAD_ROWS, int(np.count_nonzero(result.sum(axis=1) != expected)))

    tracer.wrap(pipeline, "batch_descriptors", "features.batch_descriptors", after=check_rows)
    tracer.wrap(pipeline, "bin_volume", "features.bin_volume",
                after=lambda tr, args, _: tr.count("features.binned_frames", np.shape(args[0])[0]))
    tracer.wrap(pipeline, "identify_stack", "subspace.identify_stack")
    tracer.wrap(pipeline, "update_basis_stack", "maintenance.update_basis_stack")
    tracer.wrap(pipeline, "fit_dynamics_stack", "subspace.fit_dynamics_stack")
    tracer.wrap(subspace, "fit_dynamics_stack", "subspace.fit_dynamics_stack")
    tracer.wrap(pipeline, "remove_small_components", "pipeline.remove_small_components")
    for kernel in ("svd_stack", "eigh_stack", "pinv_stack"):
        tracer.wrap(linalg, kernel, f"linalg.{kernel}")
    tracer.wrap(imageio, "read_image", "imageio.read_image",
                after=lambda tr, _, image: tr.count("imageio.bytes_read", image.nbytes))
    tracer.wrap(imageio, "write_image", "imageio.write_image",
                after=lambda tr, args, _: tr.count("imageio.bytes_written", np.asarray(args[1]).nbytes))
    # Every matrix handed to a LAPACK driver, whoever calls numpy for it.
    for entry in ("svd", "eigh", "eigvals", "qr"):
        tracer.wrap_count(np.linalg, entry, "linalg.matrices",
                          lambda args: int(np.prod(np.shape(args[0])[:-2])))


def end_to_end(passes, setups, peak_rss_mb) -> dict:
    window_ms = [s * 1e3 for p in passes for s in p.window_s]
    tp, fp, fn = passes[-1].tally
    return {
        "fps": (stream_fps(passes), "frames/s"),
        "setup_s": (statistics.median(setups), "s"),
        "window_ms_p50": (statistics.median(window_ms), "ms"),
        f"window_ms_p{TAIL_PERCENTILE}": (tail_percentile(window_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fscore": (fscore(tp, fp, fn), "1"),
    }


def per_layer(passes, tracer: Tracer) -> dict:
    roots, totals, counts = tracer.summary()
    windows = roots.get("window", 0)
    setups = roots.get("setup", 0)
    emitted = sum(e for p in passes for e in p.emitted)

    def inclusive(name, root="window", parent=None):
        return sum(v[0] for (r, par, n), v in totals.items()
                   if r == root and n == name and (parent is None or par == parent))

    def self_time(name, root="window"):
        return sum(v[1] for (r, _, n), v in totals.items() if r == root and n == name)

    def calls(name, root="window"):
        return sum(v[2] for (r, _, n), v in totals.items() if r == root and n == name)

    def timing(key):
        return 1e3 * statistics.fmean(t[key] for p in passes for t in p.timings)

    def per(total, base):
        return total / base if base else 0.0

    reads, writes = calls("imageio.read_image"), calls("imageio.write_image")
    return {
        "features.window_ms": (1e3 * inclusive("features.batch_descriptors") / windows, "ms"),
        "features.bin_ms": (1e3 * inclusive("features.bin_volume") / windows, "ms"),
        "features.gather_ms": (1e3 * self_time("features.batch_descriptors") / windows, "ms"),
        "features.binned_per_emitted":
            (counts.get(("window", "features.binned_frames"), 0.0) / emitted, "count"),
        "segmentation.window_ms": (timing("segmentation"), "ms"),
        "maintenance.window_ms": (timing("maintenance"), "ms"),
        "maintenance.update_basis_ms":
            (1e3 * self_time("maintenance.update_basis_stack") / windows, "ms"),
        "subspace.fit_dynamics_ms": (1e3 * self_time("subspace.fit_dynamics_stack") / windows, "ms"),
        "linalg.svd_ms": (1e3 * self_time("linalg.svd_stack") / windows, "ms"),
        "linalg.eigh_ms": (1e3 * self_time("linalg.eigh_stack") / windows, "ms"),
        "linalg.pinv_ms": (1e3 * self_time("linalg.pinv_stack") / windows, "ms"),
        "linalg.matrices_per_window": (counts.get(("window", "linalg.matrices"), 0.0) / windows, "count"),
        "pipeline.assembly_ms": (timing("assembly"), "ms"),
        "pipeline.postprocess_ms": (timing("postprocess"), "ms"),
        "pipeline.postprocessed_per_emitted":
            (calls("pipeline.remove_small_components") / emitted, "count"),
        "pipeline.step_self_ms": (1e3 * self_time("pipeline.step") / windows, "ms"),
        "pipeline.init_descriptors_ms":
            (1e3 * inclusive("features.batch_descriptors", root="setup") / setups, "ms"),
        "linalg.init_svd_ms": (1e3 * inclusive("linalg.svd_stack", root="setup", parent="setup") / setups, "ms"),
        "subspace.identify_ms": (1e3 * inclusive("subspace.identify_stack", root="setup") / setups, "ms"),
        "imageio.read_ms": (1e3 * per(inclusive("imageio.read_image"), reads), "ms"),
        "imageio.write_ms": (1e3 * per(inclusive("imageio.write_image"), writes), "ms"),
        "imageio.bytes_read": (counts.get(("window", "imageio.bytes_read"), 0.0) / windows, "B"),
        "imageio.bytes_written": (counts.get(("window", "imageio.bytes_written"), 0.0) / windows, "B"),
        "trace.fps": (stream_fps(passes), "frames/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="brickbg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="scene seed (default: the scene file's)")
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small crop of the scene")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    engine = import_engine()
    inputs = render_inputs(workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    bench = Bench(workload, inputs, engine, tracer)
    if tracer:
        install_layer_spans(tracer, engine)

    WORK.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    passes, setups, attempted, failed = [], [], 0, 0
    began = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - began
            timed = sum(len(p.window_s) for p in passes)
            enough = elapsed >= args.seconds and (timed >= MIN_WINDOWS or not passes)
            if attempted and (enough or elapsed >= MAX_SECONDS):
                break
            attempted += 1
            mark = len(tracer.spans) if tracer else 0
            try:
                result = bench.run_pass(out_dir)
            except Exception:  # an engine fault fails this pass, not the run
                traceback.print_exc()
                result = Pass(0.0, faults=["raised"])
            if tracer:
                bad = [key for key in tracer.counts if key[1] == BAD_ROWS]
                bad_rows = int(sum(tracer.counts.pop(key) for key in bad))
                if bad_rows:
                    result.faults.append(f"{bad_rows} descriptor rows off 4 x voxels x channels")
            if result.faults:
                failed += 1
                print(f"bench: pass {attempted} failed: {'; '.join(result.faults)}", file=sys.stderr)
                if tracer:
                    tracer.discard_since(mark)
                continue
            passes.append(result)
            setups.append(result.setup_s)
        while passes and len(setups) < MIN_SETUPS:
            setups.append(bench.initialize(bench.head)[1])
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    if passes:
        if tracer:
            metrics = per_layer(passes, tracer)
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(passes, setups, peak_mb)
        histogram = ", ".join(f"d={d} d_eps={e}: {n}" for (d, e), n in sorted(passes[-1].histogram.items()))
        print(f"bench: {args.workload} seed {args.seed}: {len(passes)} passes, "
              f"{sum(len(p.window_s) for p in passes)} timed windows, cells {histogram}",
              file=sys.stderr)
    print(json.dumps({
        "correct": bool(passes) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
