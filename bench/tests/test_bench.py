"""Tests of the benchmark's own arithmetic and of its smoke mode.

    python3 -m pytest bench/tests -q

The smoke runs use the same command as the benchmark, on a 64x64 crop of
the first 80 frames, so the whole file runs in well under a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_tail_percentile_needs_ten_beyond():
    # With n samples, n - 1 - floor(0.8 (n - 1)) lie above p80: 10 at 47, 9 at 46.
    assert run.tail_percentile(np.arange(47.0)) == pytest.approx(36.8)
    with pytest.raises(ValueError):
        run.tail_percentile(np.arange(46.0))


def test_min_windows_leaves_ten_beyond_the_tail():
    samples = np.arange(float(run.MIN_WINDOWS))
    value = run.tail_percentile(samples)
    assert np.count_nonzero(samples > value) >= run.MIN_BEYOND_TAIL


def test_frames_per_second_is_total_frames_over_total_time():
    assert run.frames_per_second([5, 5, 5], [0.25, 0.25, 0.5]) == pytest.approx(15.0)
    assert run.frames_per_second([1] * 4, [0.5] * 4) == pytest.approx(2.0)


def test_tally_against_hand_counted_masks():
    predicted = np.array([[[1, 1, 0], [0, 1, 0]], [[0, 0, 0], [1, 0, 1]]], dtype=bool)
    truth = np.array([[[1, 0, 0], [0, 1, 1]], [[0, 0, 1], [1, 0, 0]]], dtype=bool)
    # TP: (0,0,0) (0,1,1) (1,1,0); FP: (0,0,1) (1,1,2); FN: (0,1,2) (1,0,2)
    assert run.tally(predicted, truth) == (3, 2, 2)
    assert run.fscore(3, 2, 2) == pytest.approx(6 / 10)
    assert run.fscore(0, 0, 0) == 1.0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("window"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count("things", 3)
    roots, totals, counts = tracer.summary()
    assert roots == {"window": 1}
    outer = totals[("window", "window", "outer")]
    inner = totals[("window", "outer", "inner")]
    assert outer[1] == pytest.approx(outer[0] - inner[0])
    assert inner[0] == inner[1]
    assert counts == {("window", "things"): 3}


def test_discard_since_forgets_a_failed_pass():
    tracer = Tracer()
    with tracer.span("window"):
        tracer.count("frames", 1)
    mark = len(tracer.spans)
    with tracer.span("window"):
        tracer.count("frames", 5)
    tracer.discard_since(mark)
    roots, _, counts = tracer.summary()
    assert roots == {"window": 1}
    assert counts == {("window", "frames"): 1}


def test_wrap_and_restore():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    tracer = Tracer()
    original = Owner.f
    tracer.wrap(Owner, "f", "owner.f", after=lambda tr, args, result: tr.count("seen", result))
    with tracer.span("window"):
        assert Owner.f(1) == 2
    tracer.restore()
    assert Owner.f is original
    _, totals, counts = tracer.summary()
    assert totals[("window", "window", "owner.f")][2] == 1
    assert counts[("window", "seen")] == 2


@pytest.mark.parametrize("workload", ["cs_box_stride1", "rgb_files"])
def test_pass_streams_like_process_video(workload, tmp_path):
    engine = run.import_engine()
    spec = run.WORKLOADS[workload]
    inputs = run.render_inputs(spec, 5, smoke=True)
    bench = run.Bench(spec, inputs, engine, None)
    result = bench.run_pass(tmp_path)
    frames = engine.imageio.load_frames(inputs / "frames")[: spec.frames]
    masks, _ = engine.pipeline.process_video(frames, bench.config)
    init = bench.config.init_frames
    assert masks.shape == bench.truth.shape and masks.dtype == bool
    assert not masks[:init].any()
    assert result.tally == run.tally(masks[init:], bench.truth[init:])


def _smoke(workload, trace):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, env=env, cwd=BENCH.parent, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    result = _smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_per_layer(workload):
    result = _smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    spec = run.WORKLOADS[workload]
    if spec.mode == "cs_stltp":
        assert metrics["features.binned_per_emitted"] == 5 // spec.stride
        assert metrics["imageio.bytes_read"] == 0
    else:
        assert metrics["features.bin_ms"] == 0
        assert metrics["imageio.bytes_read"] > 0 and metrics["imageio.bytes_written"] > 0
    assert metrics["pipeline.postprocessed_per_emitted"] == 5 // spec.stride
    assert metrics["linalg.matrices_per_window"] > 0


def test_exits_nonzero_without_the_engine(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in ("run.py", "spans.py", "render.py"):
        (bare / "bench" / name).write_text((BENCH / name).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cs_box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
