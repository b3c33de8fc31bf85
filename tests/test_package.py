"""The package root imports none of its modules, a CLI stage process imports
only what every stage runs (`data`, `stationarity`, `explain` and `benchmark`
load when a stage body or a caller first needs them), and the modules import
nothing outside the standard library, numpy and the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mortlab

SRC = Path(__file__).resolve().parents[1] / "src"

STAGE_ONLY = {"mortlab.data", "mortlab.stationarity", "mortlab.explain", "mortlab.benchmark"}


def fresh_modules(code: str) -> set[str]:
    """The mortlab modules loaded after `code` runs in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return {name for name in json.loads(out) if name.startswith("mortlab")}


def test_package_import_loads_no_module():
    assert fresh_modules("import mortlab") == {"mortlab"}


def test_cli_import_leaves_stage_modules_unloaded():
    loaded = fresh_modules("import mortlab.cli")
    assert "mortlab.cli" in loaded
    assert not loaded & STAGE_ONLY


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mortlab.no_such_name  # noqa: B018


def test_numpy_is_the_only_runtime_requirement():
    allowed = {*sys.stdlib_module_names, "numpy", "mortlab"}
    for path in sorted((SRC / "mortlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports name the package itself
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
