"""Configuration parsing and the command-line entry points.

CLI tests run ``main(argv)`` in process: a scene is rendered to disk,
segmented, and scored through the same code paths the installed script
uses, including the documented exit codes (2 = unusable configuration,
3 = runtime/data failure).
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from brickbg.cli import main
from brickbg.config import (
    ConfigError,
    EngineConfig,
    config_from_mapping,
    load_config,
    parse_kv_text,
)
from brickbg.evaluation import EvalReport, evaluate
from brickbg.imageio import list_frames, load_frames, load_masks, write_masks
from brickbg.pipeline import process_video


def report_rows(path):
    """The rows of a ``--report`` CSV file."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# --- key=value parsing -------------------------------------------------------


def test_parse_kv_text_basics():
    text = "# header\nmode = rgb   # trailing comment\n\n t_eps=2.5 \n"
    assert parse_kv_text(text) == {"mode": "rgb", "t_eps": "2.5"}


def test_parse_kv_text_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_kv_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("tau = 1\ntau = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv_text("= 3\n")


def test_config_from_mapping_full():
    config = config_from_mapping({
        "mode": "rgb", "brick": "8x4x5", "tau": "0.3", "history": "40",
        "t_omega": "6", "alpha": "0.1", "stride": "2", "min_area": "5",
    })
    assert config.mode == "rgb"
    assert (config.brick_width, config.brick_height, config.brick_depth) == (8, 4, 5)
    assert config.history == 40
    assert config.t_omega == 6.0
    assert config.effective_stride == 2
    assert config.min_area == 5


@pytest.mark.parametrize("pairs, message", [
    ({"colour": "blue"}, "unknown config key"),
    ({"brick": "4x4"}, "4x4x5"),
    ({"brick": "axbxc"}, "integers"),
    ({"tau": "soft"}, "number"),
    ({"history": "many"}, "integer"),
    ({"mode": "luma"}, "mode must be"),
    ({"mode": "cs"}, "mode must be"),           # no short or case-folded spellings
    ({"l": "40"}, "unknown config key"),        # the history length is 'history'
])
def test_config_from_mapping_errors(pairs, message):
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(pairs)


def test_engine_config_validation():
    for kwargs in (
        dict(brick_width=0),
        dict(tau=-0.1),
        dict(t_d=-0.5),
        dict(t_deps=-0.5),
        dict(beta=0.0),
        dict(beta=-1.0),
        dict(beta=float("nan")),
        dict(beta=float("inf")),   # robust_scale would form inf * 0 = NaN
        dict(t_d=float("nan")),
        dict(history=1),
        dict(init_frames=0),
        dict(init_frames=8),       # one brick-depth window at the default depth 5
        dict(init_frames=19, brick_depth=10),
        dict(init_frames=52),      # frames 50-51 would be neither learned nor segmented
        dict(min_area=-1),
        dict(alpha=1.5),
        dict(stride=0),
        dict(stride=6),            # beyond default brick depth 5
        dict(mode="luma"),
        dict(tau=float("nan")),
        dict(tau=float("inf")),    # every trit 0: a blind cs_stltp
        dict(t_omega=float("nan")),
        dict(t_eps=float("nan")),
        dict(t_rgb=float("nan")),
        dict(t_omega=-1.0),
        dict(t_eps=-1.0),
        dict(t_rgb=-1.0),
    ):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)


def test_engine_config_accepts_infinite_thresholds():
    """An infinite threshold only disables its test."""
    for key in ("t_d", "t_deps", "t_omega", "t_eps", "t_rgb"):
        assert getattr(EngineConfig(**{key: float("inf")}), key) == float("inf")


def test_effective_defaults_per_mode():
    cs = EngineConfig(mode="cs_stltp")
    assert (cs.effective_t_omega, cs.effective_t_eps) == (3.0, 3.0)
    rgb = EngineConfig(mode="rgb")
    assert (rgb.effective_t_omega, rgb.effective_t_eps) == (5.0, 4.0)
    assert cs.t_rgb == 5.0                      # pixel refinement threshold
    assert cs.effective_stride == 5
    assert EngineConfig(t_eps=2.0).effective_t_eps == 2.0


def test_engine_config_refusal_messages():
    with pytest.raises(ConfigError, match="mode must be one of cs_stltp, rgb; got 'RGB'"):
        EngineConfig(mode="RGB")
    with pytest.raises(ConfigError, match="initialization needs at least two brick-depth"):
        EngineConfig(init_frames=8)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "none.cfg")


# --- CLI ------------------------------------------------------------------------

SCENE = """
width = 48
height = 36
frames = 60
seed = 5
base = three_tone
base_low = 70
base_high = 160
noise_sigma = 5

box.size = 8x8
box.color = 240
box.start = 4, 4
box.velocity = 0.8, 0.8
box.enter = 30
box.jump = 5
"""

CONFIG = """
mode = cs_stltp
brick = 4x4x5
init_frames = 25
min_area = 10
"""


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(SCENE)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(CONFIG)
    return path


def test_cli_synth_run_eval_round_trip(tmp_path, scene_file, config_file, capsys):
    frames_dir = tmp_path / "frames"
    truth_dir = tmp_path / "truth"
    masks_dir = tmp_path / "masks"
    report = tmp_path / "report.csv"

    assert main(["synth", "--scene", str(scene_file), "--output", str(frames_dir),
                 "--truth", str(truth_dir)]) == 0
    assert len(list_frames(frames_dir)) == 60
    assert len(list_frames(truth_dir)) == 60

    assert main(["run", "--input", str(frames_dir), "--output", str(masks_dir),
                 "--config", str(config_file), "--truth", str(truth_dir),
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "fps" in out and "fscore" in out
    masks = load_masks(masks_dir)
    assert masks.shape == (60, 36, 48)

    assert main(["eval", "--truth", str(truth_dir), "--pred", str(masks_dir),
                 "--report", str(report)]) == 0
    rows = report_rows(report)
    stored = EvalReport(*map(int, rows[1][:3]))
    direct = capsys.readouterr().out
    assert f"fscore {stored.fscore:.4f}" in direct
    assert len(rows) == 2                       # a tally, no sweep points


def test_cli_synth_refuses_three_tone_of_opposite_sign(tmp_path):
    scene = tmp_path / "three_tone.scene"
    scene.write_text("width = 16\nheight = 16\nframes = 4\nbase = three_tone\nbase_low = -10\n")
    out = tmp_path / "frames"
    assert main(["synth", "--scene", str(scene), "--output", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_cli_eval_sweep(tmp_path, rng, capsys):
    truth = rng.random((2, 6, 6)) > 0.6
    write_masks(tmp_path / "truth", truth)
    sweep = tmp_path / "sweep"
    write_masks(sweep / "loose", np.ones_like(truth))
    write_masks(sweep / "tight", truth)
    report = tmp_path / "sweep.csv"
    assert main(["eval", "--truth", str(tmp_path / "truth"),
                 "--sweep", str(sweep), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "loose:" in out and "tight:" in out
    rows = report_rows(report)
    assert EvalReport(*map(int, rows[1][:3])).fscore == 1.0   # the exact-match point wins
    assert rows[2] == ["recall", "precision"]
    # one point per subdirectory, in name order: loose, then tight
    expected = [evaluate(m, truth) for m in (np.ones_like(truth), truth)]
    assert rows[3:] == [[f"{r.recall:.6f}", f"{r.precision:.6f}"] for r in expected]


@pytest.fixture
def frames_dir(tmp_path, scene_file):
    path = tmp_path / "frames"
    assert main(["synth", "--scene", str(scene_file), "--output", str(path)]) == 0
    return path


def test_cli_run_prints_settings_and_stage_totals(tmp_path, frames_dir, config_file, capsys):
    capsys.readouterr()
    assert main(["run", "--input", str(frames_dir), "--output", str(tmp_path / "m"),
                 "--config", str(config_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "fps" in lines[0]
    assert "(12x9 bricks, cs_stltp, stride 5)" in lines[0]   # the config file's values
    assert len(lines) == 1          # no stage totals: they summed concurrent items


def test_cli_run_overrides(tmp_path, frames_dir, config_file, capsys):
    assert main(["run", "--input", str(frames_dir), "--output", str(tmp_path / "m"),
                 "--config", str(config_file), "--mode", "rgb", "--stride", "1"]) == 0
    assert "bricks, rgb, stride 1)" in capsys.readouterr().out


@pytest.mark.parametrize("flags, overrides", [
    ([], {}),
    (["--mode", "rgb", "--stride", "1"], {"mode": "rgb", "stride": 1}),
], ids=["config", "overrides"])
def test_cli_run_writes_the_engines_masks(tmp_path, frames_dir, config_file, flags, overrides):
    """The masks ``run --config`` writes are ``process_video``'s, bit for bit,
    with the command-line overrides applied over the config file."""
    out = tmp_path / "m"
    assert main(["run", "--input", str(frames_dir), "--output", str(out),
                 "--config", str(config_file), *flags]) == 0
    config = replace(load_config(config_file), **overrides)
    masks, _ = process_video(load_frames(frames_dir), config)
    assert np.array_equal(load_masks(out), masks)


def test_cli_bench_is_gone(scene_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--scene", str(scene_file)])
    assert info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_cli_exit_code_for_bad_config(tmp_path, scene_file, config_file):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tau = -1\n")
    frames_dir = tmp_path / "frames"
    main(["synth", "--scene", str(scene_file), "--output", str(frames_dir)])
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--config", str(bad)]) == 2
    bad.write_text("t_rgb = nan\n")
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--config", str(bad)]) == 2
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--mode", "luma"]) == 2
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--config", str(config_file),
                 "--stride", "9"]) == 2
    # a config no data could satisfy is a usage error, not a runtime one
    bad.write_text("init_frames = 8\n")
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--config", str(bad)]) == 2
    bad.write_text("beta = inf\n")
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--config", str(bad)]) == 2
    bad.write_text("init_frames = 52\n")       # not a whole number of windows
    assert main(["run", "--input", str(frames_dir), "--output",
                 str(tmp_path / "m"), "--config", str(bad)]) == 2


def test_cli_report_needs_truth(tmp_path, scene_file, capsys):
    frames_dir = tmp_path / "frames"
    main(["synth", "--scene", str(scene_file), "--output", str(frames_dir)])
    report = tmp_path / "report.csv"
    assert main(["run", "--input", str(frames_dir), "--output", str(tmp_path / "m"),
                 "--report", str(report)]) == 2
    assert "--truth" in capsys.readouterr().err
    assert not report.exists()


def test_cli_exit_code_for_missing_input(tmp_path):
    assert main(["run", "--input", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path / "m")]) == 3


def test_cli_exit_code_for_short_video(tmp_path, rng):
    frames = rng.integers(0, 255, size=(7, 16, 16), dtype=np.uint8)
    from brickbg.imageio import write_frames

    write_frames(tmp_path / "short", frames)
    assert main(["run", "--input", str(tmp_path / "short"),
                 "--output", str(tmp_path / "m")]) == 3


def test_cli_exit_code_for_stale_output(tmp_path, frames_dir, config_file, capsys):
    out = tmp_path / "m"
    out.mkdir()
    stale = out / "mask_000061.pgm"              # the clip has 60 frames
    stale.write_bytes(b"P5\n1 1\n255\n\x00")
    assert main(["run", "--input", str(frames_dir), "--output", str(out),
                 "--config", str(config_file)]) == 3
    assert "above" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [stale.name]


def test_cli_synth_refuses_one_directory_for_frames_and_truth(tmp_path, scene_file, capsys):
    """It used to write every frame, then fail on the truth masks (the
    frames are files they would not overwrite) and leave the frames behind;
    through a directory not yet made it wrote both sequences into one."""
    out = tmp_path / "same"
    for truth in (out, tmp_path / "new" / ".." / "same"):
        assert main(["synth", "--scene", str(scene_file), "--output", str(out),
                     "--truth", str(truth)]) == 2
        assert "same directory" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "new").exists()


def test_cli_synth_checks_truth_before_writing_frames(tmp_path, scene_file, capsys):
    truth = tmp_path / "truth"
    truth.mkdir()
    stale = truth / "mask_000061.pgm"            # the scene has 60 frames
    stale.write_bytes(b"P5\n1 1\n255\n\x00")
    out = tmp_path / "frames"
    assert main(["synth", "--scene", str(scene_file), "--output", str(out),
                 "--truth", str(truth)]) == 3
    assert "leaves in place" in capsys.readouterr().err
    assert not out.exists()
    assert [p.name for p in truth.iterdir()] == [stale.name]


def test_cli_run_checks_output_before_segmenting(tmp_path, frames_dir, monkeypatch, capsys):
    """Masks written into the frame directory would sit beside the frames;
    the run is refused before the clip is segmented, not after."""
    import brickbg.cli

    calls = []
    monkeypatch.setattr(brickbg.cli, "process_video", lambda *args: calls.append(args))
    before = sorted(p.name for p in frames_dir.iterdir())
    assert main(["run", "--input", str(frames_dir), "--output", str(frames_dir)]) == 3
    assert "leaves in place" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in frames_dir.iterdir()) == before


def test_cli_run_checks_truth_and_report_before_segmenting(tmp_path, frames_dir, monkeypatch,
                                                          capsys):
    """A missing truth, a truth of another shape, or a report bound for a
    missing directory used to be refused only after the whole clip was
    segmented and its masks written; each now exits 3 before the clip is
    segmented, with no mask written."""
    import brickbg.cli

    calls = []
    monkeypatch.setattr(brickbg.cli, "process_video", lambda *args: calls.append(args))
    truth, short = tmp_path / "truth", tmp_path / "short"
    write_masks(truth, np.zeros((60, 36, 48), dtype=bool))
    write_masks(short, np.zeros((59, 36, 48), dtype=bool))
    out = tmp_path / "masks"
    for extra in (["--truth", str(tmp_path / "missing")],
                  ["--truth", str(short)],
                  ["--truth", str(truth), "--report", str(tmp_path / "nodir" / "r.csv")],
                  ["--truth", str(truth), "--report", str(tmp_path)]):
        assert main(["run", "--input", str(frames_dir), "--output", str(out)] + extra) == 3
        assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not out.exists() and not (tmp_path / "nodir").exists()


def test_cli_eval_checks_report_before_scoring(tmp_path, monkeypatch, capsys):
    """``eval --report nodir/r.csv`` used to load and score every mask and
    print the scores before it failed on the missing directory; now a report
    path that is a directory or lies in a missing one exits 3 before any
    mask is loaded."""
    import brickbg.cli

    calls = []
    monkeypatch.setattr(brickbg.cli, "load_masks", lambda *args: calls.append(args))
    truth = tmp_path / "truth"
    write_masks(truth, np.zeros((4, 8, 8), dtype=bool))
    (tmp_path / "sweep" / "a").mkdir(parents=True)
    for source in (["--pred", str(truth)], ["--sweep", str(tmp_path / "sweep")]):
        for report in (tmp_path / "nodir" / "r.csv", tmp_path):
            argv = ["eval", "--truth", str(truth), "--report", str(report)] + source
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert "error:" in captured.err and "fscore" not in captured.out
    assert calls == []
    assert not (tmp_path / "nodir").exists()


def test_cli_synth_checks_destinations_before_rendering(tmp_path, scene_file, monkeypatch, capsys):
    """A populated ``--output`` or ``--truth`` used to be refused only after
    the whole clip was rendered; now it is refused before ``render`` runs."""
    import brickbg.cli

    calls = []
    monkeypatch.setattr(brickbg.cli, "render", lambda *args: calls.append(args))
    stale = b"P5\n1 1\n255\n\x00"
    out, truth = tmp_path / "frames", tmp_path / "truth"
    out.mkdir()
    (out / "frame_000061.pgm").write_bytes(stale)             # the scene has 60 frames
    assert main(["synth", "--scene", str(scene_file), "--output", str(out)]) == 3
    truth.mkdir()
    (truth / "mask_000061.pgm").write_bytes(stale)
    assert main(["synth", "--scene", str(scene_file), "--output", str(tmp_path / "new"),
                 "--truth", str(truth)]) == 3
    assert capsys.readouterr().err.count("leaves in place") == 2
    assert calls == []
    assert not (tmp_path / "new").exists()


def test_cli_run_refuses_one_directory_for_masks_and_truth(tmp_path, scene_file, monkeypatch, capsys):
    """It used to overwrite the truth with its own masks, then score them
    against themselves: fscore 1.0000 and exit 0.  Now no frame is loaded
    and no truth file changes."""
    import brickbg.cli

    frames, truth = tmp_path / "frames", tmp_path / "truth"
    assert main(["synth", "--scene", str(scene_file), "--output", str(frames),
                 "--truth", str(truth)]) == 0
    before = {p.name: p.read_bytes() for p in truth.iterdir()}
    calls = []
    monkeypatch.setattr(brickbg.cli, "load_frames", lambda *args: calls.append(args))
    capsys.readouterr()
    for output in (truth, tmp_path / "new" / ".." / "truth"):
        assert main(["run", "--input", str(frames), "--output", str(output),
                     "--truth", str(truth)]) == 2
        assert "same directory" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "new").exists()
    assert {p.name: p.read_bytes() for p in truth.iterdir()} == before


# Not UTF-8: a PGM header, then raster bytes no UTF-8 text holds.
BINARY = b"P5\n2 1\n255\n\xff\xfe"


def test_cli_binary_input_or_truth_exits_3(tmp_path, capsys):
    """An image file given where a frame directory belongs used to be read
    as a manifest and end in a ``UnicodeDecodeError`` traceback (exit 1); a
    text file listing frame paths used to be read as that list.  Both are
    now data errors: a frame sequence is a directory."""
    image = tmp_path / "frame_000001.pgm"
    image.write_bytes(BINARY)
    truth = tmp_path / "truth"
    write_masks(truth, np.zeros((2, 1, 2), dtype=bool))
    listing = tmp_path / "list.txt"
    listing.write_text("truth/mask_000001.pgm\ntruth/mask_000002.pgm\n", encoding="utf-8")
    for path in (image, listing):
        for argv in (["run", "--input", str(path), "--output", str(tmp_path / "m")],
                     ["eval", "--truth", str(path), "--pred", str(truth)],
                     ["eval", "--truth", str(truth), "--pred", str(path)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert "cannot read" in err and "Traceback" not in err
    assert not (tmp_path / "m").exists()


def test_cli_binary_config_or_scene_exits_2(tmp_path, frames_dir, capsys):
    """``load_config`` and ``load_scene`` read through one reader, which
    refuses a file that is not UTF-8 text as it refuses a missing one."""
    binary = tmp_path / "binary"
    binary.write_bytes(BINARY)
    capsys.readouterr()
    for argv, what in (
        (["run", "--input", str(frames_dir), "--output", str(tmp_path / "m"),
          "--config", str(binary)], "cannot read config"),
        (["synth", "--scene", str(binary), "--output", str(tmp_path / "f")], "cannot read scene script"),
        (["synth", "--scene", str(tmp_path), "--output", str(tmp_path / "f")], "cannot read scene script"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert what in err and "Traceback" not in err
    assert not (tmp_path / "m").exists() and not (tmp_path / "f").exists()


def test_cli_file_destinations_are_refused_before_the_work(tmp_path, frames_dir, scene_file,
                                                          monkeypatch, capsys):
    """A destination that is a file, or lies under one, used to be found
    only when the first mask or frame was written: ``run`` segmented the
    clip first, ``synth`` rendered it, and ``synth --truth`` wrote every
    frame.  Each now exits 3 before the work, with no file written."""
    import brickbg.cli

    calls = []
    monkeypatch.setattr(brickbg.cli, "process_video", lambda *args: calls.append(args))
    monkeypatch.setattr(brickbg.cli, "render", lambda *args: calls.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_bytes(BINARY)
    capsys.readouterr()
    for argv in (["run", "--input", str(frames_dir), "--output", str(blocker)],
                 ["run", "--input", str(frames_dir), "--output", str(blocker / "sub")],
                 ["synth", "--scene", str(scene_file), "--output", str(blocker)],
                 ["synth", "--scene", str(scene_file), "--output", str(blocker / "sub")],
                 ["synth", "--scene", str(scene_file), "--output", str(tmp_path / "new"),
                  "--truth", str(blocker)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "is not a directory" in err and "Traceback" not in err
    assert calls == []
    assert blocker.read_bytes() == BINARY
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "frames", "scene.txt"]


def test_cli_exit_code_for_oversized_brick(tmp_path, rng):
    frames = rng.integers(0, 255, size=(60, 16, 16), dtype=np.uint8)
    from brickbg.imageio import write_frames

    write_frames(tmp_path / "small", frames)
    config = tmp_path / "big.cfg"
    config.write_text("brick = 32x32x5\n")
    assert main(["run", "--input", str(tmp_path / "small"),
                 "--output", str(tmp_path / "m"), "--config", str(config)]) == 3


def test_cli_exit_code_for_unquantized_scene(tmp_path, capsys):
    """Frames are written as 8-bit files, so a scene file has no key for
    float frames: ``quantize`` is refused as any unknown key is."""
    scene = tmp_path / "s.txt"
    scene.write_text("width = 16\nheight = 16\nquantize = false\n")
    assert main(["synth", "--scene", str(scene),
                 "--output", str(tmp_path / "f")]) == 2
    assert "unknown scene key 'quantize'" in capsys.readouterr().err


def test_cli_exit_code_for_shape_mismatch(tmp_path, rng):
    write_masks(tmp_path / "truth", rng.random((2, 6, 6)) > 0.5)
    write_masks(tmp_path / "pred", rng.random((2, 8, 8)) > 0.5)
    assert main(["eval", "--truth", str(tmp_path / "truth"),
                 "--pred", str(tmp_path / "pred")]) == 3


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
