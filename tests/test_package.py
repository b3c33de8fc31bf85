"""The package imports only what every stage runs: `data`, `stationarity`,
`explain` and `benchmark` load when a stage body (or a caller) first
needs them, and every name `mortlab` has always exported still resolves.
Its modules import nothing outside the standard library, numpy and itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mortlab

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `mortlab` exports, by the submodule that defines it
EXPORTS = {
    "data": ("ClusterDataset", "MortalitySurface", "build_surface", "parse_hmd_file",
             "read_cluster_csv", "synthesize_cluster", "synthetic_truth", "write_cluster_csv"),
    "forecast": ("ForecastEnsemble", "ForecastModel", "HybridConfig", "compute_mbc",
                 "ensemble_quantiles", "fit_forecaster", "forecast_deterministic",
                 "forecast_stochastic", "historical_diff_sd"),
    "lilee": ("FactorPanel", "LiLeeParams", "fit_ar1", "fit_lilee", "fit_rwd",
              "leading_singular_pair"),
    "lifetable": ("e0_at", "e0_paths", "life_table", "monotonicity_check",
                  "reconstruct_surface"),
    "lstm": ("NetworkParams", "TrainConfig", "forward", "input_gradient", "predict", "train"),
    "risk": ("es", "reverse_stress", "scr", "var"),
    "stationarity": ("adf_test", "classify", "kpss_test"),
}
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


def test_cli_import_leaves_stage_modules_unloaded():
    loaded = fresh_modules("import mortlab.cli")
    assert "mortlab.cli" in loaded
    assert not loaded & STAGE_ONLY


def test_a_lazy_name_loads_only_its_module():
    loaded = fresh_modules("from mortlab import kpss_test")
    assert "mortlab.stationarity" in loaded
    assert "mortlab.data" not in loaded


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_its_submodules_object(module):
    defining = importlib.import_module(f"mortlab.{module}")
    for name in EXPORTS[module]:
        assert getattr(mortlab, name) is getattr(defining, name), name


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
