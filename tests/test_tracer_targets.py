"""The benchmark's tracer wraps each function named in perfbench/spans.py
`TARGETS` by `getattr` on its mortlab module, so a function deleted or
renamed in mortlab breaks traced benchmark runs (`--trace 1`).  This test
turns that into a unit-suite failure."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets(monkeypatch) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_a_callable_of_its_layer(monkeypatch):
    targets = load_targets(monkeypatch)
    assert targets, "spans.TARGETS is empty"
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"mortlab.{layer}")
        missing += [f"mortlab.{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, f"spans.TARGETS names what mortlab does not define: {missing}"


def test_traced_stages_wrap_the_modules_their_bodies_import(tmp_path):
    """`synth` and `fit` import `data` and `stationarity` inside their
    bodies; run through the tracer's bootstrap, their calls still land in
    the spans it records."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "out_dir": "run",
        "data": {"cluster_csv": "data/cluster.csv", "year_range": [1990, 2020]},
        "synth": {"n_countries": 2, "year_range": [1990, 2020]},
    }))
    src = str(SPANS.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH"))))}
    names = set()
    for stage in ("synth", "fit"):
        spans = tmp_path / f"{stage}.npz"
        subprocess.run([sys.executable, str(SPANS), str(spans), stage, "--config", str(config),
                        "--quiet"], env=env, check=True)
        with np.load(spans) as z:
            names |= {str(z["names"][code]) for code in z["name"]}
    assert {"cli.cmd_synth", "data.synthetic_truth", "data.synthesize_cluster", "cli.cmd_fit",
            "data.read_cluster_csv", "lilee.fit_lilee", "stationarity.analyze"} <= names
