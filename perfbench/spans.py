"""Outside-in tracing of one mortlab stage process, and the span arithmetic.

Run as a bootstrap in place of ``python -m mortlab.cli``::

    python3 perfbench/spans.py SPANS.npz STAGE --config CONFIG [cli options]

The bootstrap imports mortlab, rebinds the public functions listed in
``TARGETS`` with timing wrappers in every mortlab module that holds them
(so calls made inside the library through module globals are caught too),
calls ``mortlab.cli.main`` and, when it returns, writes the spans it kept
in memory to ``SPANS.npz``.  A span is (name, start, end, parent, run id)
plus up to two work counts taken from the call's arguments or result.

The span arithmetic below the recorder turns span files into per-layer
metrics; it imports nothing from mortlab.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# layer (mortlab module) -> public functions wrapped at that boundary
TARGETS = {
    "cli": ("main", "cmd_synth", "cmd_fit", "cmd_train", "cmd_forecast",
            "cmd_validate", "cmd_explain", "cmd_stress", "cmd_ablate"),
    "data": ("read_cluster_csv", "synthetic_truth", "synthesize_cluster"),
    "lilee": ("fit_lilee", "leading_singular_pair"),
    "stationarity": ("analyze",),
    "windows": ("transform",),
    "lstm": ("forward", "draw_mask", "predict", "input_gradient", "train"),
    "forecast": ("forecast_stochastic", "ensemble_quantiles"),
    "lifetable": ("e0_paths",),
    "risk": ("quantile", "scr", "reverse_stress"),
    "explain": ("temporal_saliency", "kernel_shap"),
    "benchmark": ("validate", "ablate", "lookback_sweep"),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(x, single: int) -> int:
    """Windows in `x`: one for a single window of `single` dimensions."""
    shape = np.shape(x)
    return 1 if len(shape) == single else int(shape[0])


# span name -> (args, kwargs, result) -> (work, work2)
WORK = {
    "lstm.forward": lambda a, k, r: (_rows(_arg(a, k, 1, "x"), single=2), 0),
    "lstm.predict": lambda a, k, r: (_rows(_arg(a, k, 1, "X"), single=2), 0),
    "lstm.train": lambda a, k, r: (r[1].epochs_run, r[1].best_epoch),
    "forecast.forecast_stochastic": lambda a, k, r: (
        r.levels.shape[0] * (r.levels.shape[1] - 1), 0),
    "lifetable.e0_paths": lambda a, k, r: (np.size(r), 0),
    "explain.kernel_shap": lambda a, k, r: (np.shape(_arg(a, k, 2, "X_test"))[0], 0),
}


class Recorder:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.work: list[float] = []
        self.work2: list[float] = []
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        code = self.codes.setdefault(span_name, len(self.codes))
        if code == len(self.names):
            self.names.append(span_name)
        count = WORK.get(span_name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(code)
            rec.parent.append(rec._stack[-1])
            rec.work.append(0.0)
            rec.work2.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec._stack.pop()
            if count is not None:
                rec.work[idx], rec.work2[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded mortlab module that holds it."""
        originals = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"mortlab.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mortlab" and not mod_name.startswith("mortlab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def dump(self, path: str, run_id: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            work=np.array(self.work),
            work2=np.array(self.work2),
            run_id=np.array(run_id),
        )


# -- span arithmetic ------------------------------------------------------------


@dataclass
class SpanTable:
    """The spans of one stage process, as parallel arrays."""

    names: list[str]  # name of each span
    parent: np.ndarray  # index of the parent span, -1 for a root
    start: np.ndarray
    end: np.ndarray
    work: np.ndarray
    work2: np.ndarray
    run_id: str = ""

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as z:
            table = z["names"]
            return cls(
                names=[str(table[c]) for c in z["name"]],
                parent=z["parent"],
                start=z["start"],
                end=z["end"],
                work=z["work"],
                work2=z["work2"],
                run_id=str(z["run_id"]),
            )

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        """Duration minus the part of the span's interval its children cover."""
        children: dict[int, list[int]] = {}
        for j, p in enumerate(self.parent.tolist()):
            if p >= 0:
                children.setdefault(p, []).append(j)
        out = self.duration.astype(float)
        for i, kids in children.items():
            lo, hi = self.start[i], self.end[i]
            spans = sorted(
                (max(self.start[j], lo), min(self.end[j], hi)) for j in kids
            )
            covered, cur_lo, cur_hi = 0.0, None, None
            for a, b in spans:
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[i] -= covered
        return out

    def has_ancestor(self, i: int, name: str) -> bool:
        p = int(self.parent[i])
        while p >= 0:
            if self.names[p] == name:
                return True
            p = int(self.parent[p])
        return False


@dataclass
class StageProcess:
    """One traced stage command: its wall time and its spans."""

    stage: str
    wall_s: float
    spans: SpanTable


def tracing_overhead(traced_walls, untraced_walls) -> tuple[float, float]:
    """Traced minus untraced wall time, absolute and as a share of untraced."""
    traced, untraced = float(sum(traced_walls)), float(sum(untraced_walls))
    return traced - untraced, (traced - untraced) / untraced


class Totals:
    """Sums per span name over the traced stage processes of one run, with
    the run-level figures the per-layer metrics also need."""

    def __init__(self, processes, *, ensemble_bytes: int, overhead: tuple[float, float]):
        self.ensemble_bytes, self.overhead = ensemble_bytes, overhead
        self._calls, self._dur, self._own, self._work, self._work2 = (
            defaultdict(float) for _ in range(5))
        self.startup: list[float] = []  # per process: wall time minus cli.main
        self.coalition_rows = 0
        self.spans = 0
        self.per_stage: dict[str, dict] = {}
        for proc in processes:
            self._add(proc)

    def _add(self, proc: StageProcess) -> None:
        table = proc.spans
        dur, own = table.duration, table.self_times()
        main = 0.0
        for i, name in enumerate(table.names):
            self._calls[name] += 1
            self._dur[name] += float(dur[i])
            self._own[name] += float(own[i])
            self._work[name] += float(table.work[i])
            self._work2[name] += float(table.work2[i])
            if name == "cli.main":
                main += float(dur[i])
            elif name == "lstm.predict" and table.has_ancestor(i, "explain.kernel_shap"):
                self.coalition_rows += int(table.work[i])
        self.spans += len(table.names)
        self.startup.append(proc.wall_s - main)
        stage = self.per_stage.setdefault(proc.stage, {"wall_s": 0.0, "main_s": 0.0, "spans": 0})
        stage["wall_s"] += proc.wall_s
        stage["main_s"] += main
        stage["spans"] += len(table.names)

    def calls(self, name: str) -> int:
        return int(self._calls[name])

    def dur(self, name: str) -> float:
        return self._dur[name]

    def own(self, name: str) -> float:
        return self._own[name]

    def work(self, name: str) -> int:
        return int(self._work[name])

    def work_ratio(self, name: str) -> float:
        """Second work count over the first (best epoch over epochs run)."""
        return self.per(self._work2[name], self._work[name])

    def per(self, a: float, b: float, scale: float = 1.0) -> float:
        return scale * a / b if b else 0.0


# (metric, unit, value); the order is the order of BENCHMARK.json's per_layer list
LAYER_METRICS = (
    ("cli.startup_s", "s", lambda t: statistics.median(t.startup)),
    ("cli.forecast.self_s", "s", lambda t: t.own("cli.cmd_forecast")),
    ("cli.stress.self_s", "s", lambda t: t.own("cli.cmd_stress")),
    ("cli.ensemble_bytes", "B", lambda t: t.ensemble_bytes),
    ("data.read_cluster_csv_s", "s", lambda t: t.dur("data.read_cluster_csv")),
    ("data.synthesize_s", "s",
     lambda t: t.dur("data.synthetic_truth") + t.dur("data.synthesize_cluster")),
    ("lilee.fit_lilee_s", "s", lambda t: t.dur("lilee.fit_lilee")),
    ("lilee.leading_singular_pair_calls", "count", lambda t: t.calls("lilee.leading_singular_pair")),
    ("lilee.leading_singular_pair_s", "s", lambda t: t.dur("lilee.leading_singular_pair")),
    ("stationarity.analyze_calls", "count", lambda t: t.calls("stationarity.analyze")),
    ("stationarity.analyze_s", "s", lambda t: t.dur("stationarity.analyze")),
    ("windows.transform_calls", "count", lambda t: t.calls("windows.transform")),
    ("lstm.forward_calls", "count", lambda t: t.calls("lstm.forward")),
    ("lstm.forward_rows", "count", lambda t: t.work("lstm.forward")),
    ("lstm.forward_s", "s", lambda t: t.dur("lstm.forward")),
    ("lstm.draw_mask_calls", "count", lambda t: t.calls("lstm.draw_mask")),
    ("lstm.draw_mask_s", "s", lambda t: t.dur("lstm.draw_mask")),
    ("lstm.predict_calls", "count", lambda t: t.calls("lstm.predict")),
    ("lstm.predict_rows", "count", lambda t: t.work("lstm.predict")),
    ("lstm.predict_s", "s", lambda t: t.dur("lstm.predict")),
    ("lstm.input_gradient_calls", "count", lambda t: t.calls("lstm.input_gradient")),
    ("lstm.input_gradient_s", "s", lambda t: t.dur("lstm.input_gradient")),
    ("lstm.train_calls", "count", lambda t: t.calls("lstm.train")),
    ("lstm.train_s", "s", lambda t: t.dur("lstm.train")),
    ("lstm.epochs", "count", lambda t: t.work("lstm.train")),
    ("lstm.epoch_ms", "ms", lambda t: t.per(t.dur("lstm.train"), t.work("lstm.train"), 1e3)),
    ("lstm.useful_epoch_ratio", "ratio", lambda t: t.work_ratio("lstm.train")),
    ("forecast.forecast_stochastic_s", "s", lambda t: t.dur("forecast.forecast_stochastic")),
    ("forecast.forecast_stochastic.self_s", "s",
     lambda t: t.own("forecast.forecast_stochastic")),
    ("forecast.path_steps_per_s", "1/s",
     lambda t: t.per(t.work("forecast.forecast_stochastic"),
                     t.dur("forecast.forecast_stochastic"))),
    ("forecast.ensemble_quantiles_s", "s", lambda t: t.dur("forecast.ensemble_quantiles")),
    ("lifetable.e0_paths_calls", "count", lambda t: t.calls("lifetable.e0_paths")),
    ("lifetable.e0_curves", "count", lambda t: t.work("lifetable.e0_paths")),
    ("lifetable.e0_paths_s", "s", lambda t: t.dur("lifetable.e0_paths")),
    ("risk.quantile_calls", "count", lambda t: t.calls("risk.quantile")),
    ("risk.quantile_s", "s", lambda t: t.dur("risk.quantile")),
    ("risk.scr_s", "s", lambda t: t.dur("risk.scr")),
    ("risk.reverse_stress_s", "s", lambda t: t.dur("risk.reverse_stress")),
    ("explain.temporal_saliency_s", "s", lambda t: t.dur("explain.temporal_saliency")),
    ("explain.kernel_shap_s", "s", lambda t: t.dur("explain.kernel_shap")),
    ("explain.kernel_shap.self_s", "s", lambda t: t.own("explain.kernel_shap")),
    ("explain.test_windows", "count", lambda t: t.work("explain.kernel_shap")),
    ("explain.coalition_rows", "count", lambda t: t.coalition_rows),
    ("benchmark.validate_s", "s", lambda t: t.dur("benchmark.validate")),
    ("benchmark.ablate_s", "s", lambda t: t.dur("benchmark.ablate")),
    ("benchmark.lookback_sweep_s", "s", lambda t: t.dur("benchmark.lookback_sweep")),
    ("trace.overhead_s", "s", lambda t: t.overhead[0]),
    ("trace.overhead_ratio", "ratio", lambda t: t.overhead[1]),
    ("trace.spans", "count", lambda t: t.spans),
)


def layer_metrics(processes, *, ensemble_bytes: int, overhead: tuple[float, float]) -> dict:
    """Per-layer metrics over the traced stage processes of one run.

    Times and counts are totals over all processes; `cli.startup_s` is the
    median per process of wall time minus the `cli.main` span.
    """
    totals = Totals(processes, ensemble_bytes=ensemble_bytes, overhead=overhead)
    return {"metrics": {name: value(totals) for name, _, value in LAYER_METRICS},
            "per_stage": totals.per_stage}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import mortlab.cli

    try:
        return mortlab.cli.main(cli_args)
    finally:
        recorder.dump(spans_path, os.environ.get("PERFBENCH_RUN_ID", ""))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
