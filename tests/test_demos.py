"""Every name a demo imports from oddchern exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
