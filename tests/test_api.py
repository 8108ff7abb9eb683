"""Public surface: every exported name exists, every script imports, the
occlusion trace runs end to end, and the README lists the scene kinds the
parser accepts."""

import importlib.util
from pathlib import Path

import pytest

import brickbg
from brickbg import synth

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in brickbg.__all__ if not hasattr(brickbg, name)]
    assert not missing
    assert len(set(brickbg.__all__)) == len(brickbg.__all__)


def load_script(script: Path):
    spec = importlib.util.spec_from_file_location(f"_script_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)              # runs imports, not main()
    return module


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_imports_cleanly(script):
    assert callable(load_script(script).main)


def test_trace_occlusion_coasts_and_recovers(capsys):
    """The brick under the occluder reads foreground for all of frames
    100..179 while its synthesized appearance drifts under 5 %, and reads
    background again in the first window after the occluder leaves."""
    load_script(ROOT / "scripts" / "trace_occlusion.py").main()
    rows = {}
    for line in capsys.readouterr().out.splitlines()[2:]:
        frames, flag, *drift = line.split()
        rows[int(frames.split("..")[0])] = (flag, float(drift[0]) if drift else None)
    occluded = range(100, 180, 5)
    assert all(rows[start][0] == "FOREGROUND" for start in occluded)
    assert all(rows[start][1] < 0.05 for start in occluded)
    assert rows[180][0] == "background"


def test_readme_scene_kinds_match_parser():
    listed = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition("=")
        if key.strip() in ("background", "base") and "#" in rest:
            listed[key.strip()] = [k.strip() for k in rest.split("#", 1)[1].split("|")]
    assert sorted(listed["background"]) == sorted(synth.BACKGROUND_KINDS)
    assert sorted(listed["base"]) == sorted(synth.BASE_KINDS)
