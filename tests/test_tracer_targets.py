"""The benchmark's tracer wraps each function named in perfbench/spans.py
`TARGETS` by `getattr` on its mortlab module, so a function deleted or
renamed in mortlab breaks traced benchmark runs (`--trace 1`).  This test
turns that into a unit-suite failure."""

import importlib
import importlib.util
import sys
from pathlib import Path

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

