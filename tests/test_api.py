"""Public surface: every exported name exists and every script imports."""

import importlib.util
from pathlib import Path

import pytest

import brickbg

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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
