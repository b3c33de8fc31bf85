"""Runs one workload the way users run mortlab: one stage per process, each
stage command started only after the previous one exits (a closed loop
with one client).  Times every stage command from outside, checks the
outputs, and counts operations and failures.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import checks
import spans
from workloads import SETUP_REPEATS, Workload

PERFBENCH = Path(__file__).resolve().parent
STAGE_TIMEOUT_S = 170.0

# (metric, unit) measured with tracing off, in BENCHMARK.json's order
E2E_METRICS = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
)


class StageFailed(Exception):
    pass


@dataclass
class Proc:
    stage: str
    wall_s: float
    maxrss_mb: float


@dataclass
class Tally:
    """Operations attempted and failed: stage commands and output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def program_present(root: Path) -> bool:
    return (root / "src" / "mortlab" / "cli.py").is_file()


class Runner:
    """Starts mortlab stage commands, one at a time, against `root`/src."""

    def __init__(self, root: Path, tally: Tally, run_id: str):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("MORTLAB_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PERFBENCH_RUN_ID"] = run_id
        self.tally = tally

    def stage(self, config_path: Path, stage: str, spans_path: Path | None = None) -> Proc:
        """Run one stage command; with `spans_path`, through the tracing bootstrap."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "mortlab.cli"]
        else:
            cmd = [sys.executable, str(PERFBENCH / "spans.py"), str(spans_path)]
        cmd += [stage, "--config", str(config_path), "--quiet"]
        log_path = config_path.parent / "stages.log"
        with log_path.open("ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=config_path.parent, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.tally.op(f"{stage} command", [] if proc.returncode == 0 else
                           [f"exit {proc.returncode}, log in {log_path}"])
        if not ok:
            raise StageFailed(stage)
        return Proc(stage, wall, usage.ru_maxrss * 1024 / 1e6)


def listed_bytes(run_dir: Path, stages) -> int:
    """Bytes of the files the manifest lists for `stages` (each file once)."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    names = {n for s in stages for n in manifest["stages"][s]["files"]}
    return sum((run_dir / n).stat().st_size for n in names)


class WorkloadRun:
    """One benchmark run of one workload and seed, in its own work directory."""

    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float):
        self.w, self.seed, self.seconds = workload, seed, seconds
        self.config = workload.make_config(seed)
        run_id = f"{workload.name}-s{seed}-{os.getpid()}"
        self.work = root / ".perfbench" / "work" / run_id
        self.tally = Tally()
        self.runner = Runner(root, self.tally, run_id)
        self.digests: dict[str, list[str]] = {}
        self.traced: list[tuple[Proc, Path]] = []

    # -- building blocks ----------------------------------------------------
    def _stage(self, cfg: Path, stage: str, traced: bool = False) -> Proc:
        spans_path = None
        if traced:
            spans_path = self.work / "spans" / f"{len(self.traced):03d}-{stage}.npz"
        proc = self.runner.stage(cfg, stage, spans_path)
        if traced:
            self.traced.append((proc, spans_path))
        return proc

    def _digest(self, cfg: Path, stage: str) -> None:
        self.digests.setdefault(stage, []).append(checks.stage_digest(cfg.parent / "run", stage))

    def _setup(self, index: int, traced: bool = False) -> tuple[Path, float]:
        """Write the config and run the set-up stages; returns (config, seconds)."""
        d = self.work / f"setup{index}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        cfg = d / "config.json"
        cfg.write_text(json.dumps(self.config, indent=2))
        for stage in self.w.setup:
            self._stage(cfg, stage, traced)
        elapsed = time.perf_counter() - start
        for stage in self.w.setup:
            self._digest(cfg, stage)
        return cfg, elapsed

    def _check_pass(self, run_dir: Path, stages) -> None:
        self.tally.op("outputs present and hash-stamped",
                      checks.check_outputs(run_dir, stages, self.config))
        self.tally.op("forecast and stress agree", checks.check_consistency(run_dir, self.config))

    def _final_checks(self, run_dir: Path) -> dict:
        self.tally.op("outputs repeat exactly", checks.check_repeats(self.digests))
        values = checks.stable_values(run_dir)
        reference = checks.load_reference(self.w.name, self.seed)
        if reference is not None:
            self.tally.op("outputs match reference", checks.check_reference(values, reference))
        return values

    # -- the two modes --------------------------------------------------------
    def measure(self) -> dict:
        """Tracing off: the end-to-end metrics."""
        setup_times = []
        for i in range(SETUP_REPEATS):
            cfg, elapsed = self._setup(i)
            setup_times.append(elapsed)
            if i:
                shutil.rmtree(cfg.parent)
        cfg = self.work / "setup0" / "config.json"
        run_dir = cfg.parent / "run"

        stage_times: dict[str, list[float]] = {s: [] for s in self.w.timed}
        pipeline_times, peak = [], 0.0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for stage in self.w.timed:
                proc = self._stage(cfg, stage)
                self._digest(cfg, stage)
                stage_times[stage].append(proc.wall_s)
                peak = max(peak, proc.maxrss_mb)
            pipeline_times.append(sum(t[-1] for t in stage_times.values()))
            self._check_pass(run_dir, self.w.setup + self.w.timed)
            now = time.perf_counter()
            # start another pass only if it should end within the run's seconds
            if now - start + (now - pass_start) > self.seconds:
                break
        values = self._final_checks(run_dir)

        metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(pipeline_times),
            "peak_rss_mb": peak,
            "artifact_mb": listed_bytes(run_dir, self.w.timed) / 1e6,
        }
        samples = {
            "setup_s": ["median", len(setup_times)],
            "pipeline_s": ["median", len(pipeline_times)],
            "peak_rss_mb": ["max", len(self.w.timed) * len(pipeline_times)],
            "artifact_mb": ["exact", 1],
        }
        folded = {f"{s}_s": statistics.median(v) for s, v in stage_times.items()}
        return {"metrics": metrics, "samples": samples, "folded_stage_s": folded,
                "stage_samples_s": stage_times, "values": values}

    def trace(self) -> dict:
        """Tracing on: the per-layer metrics.  Each timed stage runs untraced and
        then traced, back to back; the pairs give the tracing overhead."""
        (self.work / "spans").mkdir(parents=True)
        cfg, _ = self._setup(0, traced=True)
        run_dir = cfg.parent / "run"
        untraced, traced = [], []
        for stage in self.w.timed:
            untraced.append(self._stage(cfg, stage).wall_s)
            self._digest(cfg, stage)
            traced.append(self._stage(cfg, stage, traced=True).wall_s)
            self._digest(cfg, stage)
        for stage in self.w.coverage:
            self._stage(cfg, stage, traced=True)
            self._digest(cfg, stage)
        self._check_pass(run_dir, self.w.setup + self.w.timed + self.w.coverage)
        values = self._final_checks(run_dir)

        processes = [spans.StageProcess(proc.stage, proc.wall_s, spans.SpanTable.load(path))
                     for proc, path in self.traced]
        layer = spans.layer_metrics(
            processes,
            ensemble_bytes=listed_bytes(run_dir, ["forecast"]),
            overhead=spans.tracing_overhead(traced, untraced),
        )
        return {"metrics": layer["metrics"], "per_stage": layer["per_stage"],
                "untraced_s": dict(zip(self.w.timed, untraced)),
                "traced_s": dict(zip(self.w.timed, traced)), "values": values}

    def run(self, trace: bool) -> dict:
        """Run in one mode and return the result record."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        start = time.perf_counter()
        result, completed = {}, False
        try:
            result = self.trace() if trace else self.measure()
            completed = True
        except StageFailed:
            pass
        record = {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(trace),
            "started": started,
            "run_wall_s": time.perf_counter() - start,
            "correct": completed and self.tally.failed == 0,
            "completed": completed,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "fail_ratio": self.tally.failed / max(self.tally.attempted, 1),
            "problems": self.tally.problems,
            "digests": {s: d[-1] for s, d in self.digests.items()},
            **result,
        }
        if record["correct"]:
            shutil.rmtree(self.work)
        return record
