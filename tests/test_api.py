"""Public surface: every exported name exists, every script imports, the
occlusion trace runs end to end, and the README's scene kinds, imports and
commands match the package."""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import brickbg
from brickbg import cli, synth
from brickbg.config import EngineConfig, config_from_mapping, parse_kv_text

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in brickbg.__all__ if not hasattr(brickbg, name)]
    assert not missing
    assert len(set(brickbg.__all__)) == len(brickbg.__all__)


def test_importing_the_package_loads_numpy_only():
    # scipy is a test dependency only
    code = ("import sys, brickbg, brickbg.cli\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


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
    listed = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition("=")
        if key.strip() == "base" and "#" in rest:
            listed.append(sorted(k.strip() for k in rest.split("#", 1)[1].split("|")))
    assert listed == [sorted(synth.BASE_KINDS)]


def readme_blocks(language):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def test_readme_config_block_is_the_defaults():
    """The README's config block names every setting once, parses, and
    lists the values ``EngineConfig()`` takes; the per-mode thresholds and
    the stride are compared through their effective values."""
    [block] = [b for b in readme_blocks("ini") if b.startswith("mode = cs_stltp")]
    pairs = parse_kv_text(block)
    settings = {f.name for f in fields(EngineConfig) if not f.name.startswith("brick_")}
    assert set(pairs) == settings | {"brick"}
    listed = config_from_mapping(pairs)
    default = EngineConfig()
    assert replace(listed, t_omega=None, t_eps=None, stride=None) == default
    assert (listed.t_omega, listed.t_eps, listed.stride) == (
        default.effective_t_omega, default.effective_t_eps, default.effective_stride)


def test_readme_names_and_commands():
    """Every brickbg name the README's python block imports resolves, and
    every brickbg command in its sh blocks parses."""
    [block] = readme_blocks("python")
    imports = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)]
    names = [(node.module, alias.name) for node in imports for alias in node.names
             if node.module.split(".")[0] == "brickbg"]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing

    parser = cli.build_parser()
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["brickbg"]:
                commands.append(argv[1:])
    for argv in commands:
        assert callable(parser.parse_args(argv).func), argv
    assert {argv[0] for argv in commands} == {"run", "eval", "synth"}
