"""Public surface: every exported name exists, every script imports, and the
README lists the scene kinds the parser accepts."""

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


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_imports_cleanly(script):
    spec = importlib.util.spec_from_file_location(f"_script_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)              # runs imports, not main()
    assert callable(module.main)


def test_readme_scene_kinds_match_parser():
    listed = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition("=")
        if key.strip() in ("background", "base") and "#" in rest:
            listed[key.strip()] = [k.strip() for k in rest.split("#", 1)[1].split("|")]
    assert sorted(listed["background"]) == sorted(synth.BACKGROUND_KINDS)
    assert sorted(listed["base"]) == sorted(synth.BASE_KINDS)
