"""Every name a demo imports from oddchern exists, and the cheap demos run."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def oddchern_imports(path):
    """(module, name) for each name the file imports from oddchern.*."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "oddchern":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "oddchern":
                    yield alias.name, None


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    names = list(oddchern_imports(demo))
    assert names
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{demo.name}: {module}.{name} does not exist"


def run_demo(name):
    """The demo's standard output; it must exit with 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_collapse_demo_prints_its_degrees():
    out = run_demo("02_collapse_map_degree.py")
    assert re.findall(r"degree = ([+-]\d+)", out) == ["+1", "+1", "+1"]
    assert re.findall(r"^  S\^(\d): ([+-]\d+)$", out, re.M) == [
        ("1", "+1"), ("2", "-1"), ("3", "+1")]


def test_transgression_demo_prints_a_small_relative_error():
    out = run_demo("03_transgression_identity.py")
    (rel,) = re.findall(r"relative to the largest derivative component: +(\S+)$", out, re.M)
    assert float(rel) < 1e-6
