"""Benchmark of the mortlab CLI: run one workload (or all) and report.

    python3 perfbench/run.py --workload wide-6c --seed 1 --seconds 35 --trace 0

Runs from a checkout of the repository and measures its src/mortlab.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Every run appends
its full record (all metrics, sample counts, checks, environment) to
<root>/.perfbench/results.jsonl, or to --record.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import envinfo
import pipeline
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _env_line(env: dict) -> str:
    blas, cpu = env["blas"], env["cpu"]
    caches = " ".join(f"{k} {v}" for k, v in cpu["caches"].items())
    return (f"env: python {env['python']}, numpy {env['numpy']}, {blas['name']} "
            f"{blas['version']} ({blas['threads']} BLAS threads), nproc {env['nproc']}, "
            f"{cpu['model']} [{caches}], commit {env['git_commit']}, "
            f"src {env['source_digest']}")


def report(rec: dict) -> dict:
    """Print a run's metrics by name with units; return the result line."""
    mode = "traced" if rec["trace"] else "tracing off"
    print(f"perfbench {rec['workload']} seed {rec['seed']} ({mode}): "
          f"{rec['attempted']} operations, {rec['failed']} failed, "
          f"{rec['run_wall_s']:.1f} s")
    units = ({name: unit for name, unit, _ in spans.LAYER_METRICS} if rec["trace"]
             else dict(pipeline.E2E_METRICS))
    metrics = {}
    for name, value in rec.get("metrics", {}).items():
        metrics[name] = {"value": value, "unit": units[name]}
        stat, n = rec.get("samples", {}).get(name, (None, None))
        print(f"  {name:40s} {_fmt(value):>12s} {units[name]:5s}"
              + (f"  {stat} of {n}" if stat else ""))
    print(f"  {'fail_ratio':40s} {_fmt(rec['fail_ratio']):>12s}        "
          f"{rec['failed']}/{rec['attempted']} operations")
    if rec.get("folded_stage_s"):
        print("  folded into pipeline_s: " + ", ".join(
            f"{k} {_fmt(v)} s" for k, v in rec["folded_stage_s"].items()))
    if rec["trace"] and "metrics" in rec:
        print(f"  tracing overhead: {_fmt(rec['metrics']['trace.overhead_s'])} s over "
              f"untraced timed stages of {_fmt(sum(rec['untraced_s'].values()))} s")
    for problem in rec["problems"]:
        print(f"  FAILED {problem}")
    print("  " + _env_line(rec["env"]))
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="start another pass of the timed stages only if it should "
                         "end within this many seconds (at least one pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=HERE.parent,
                    help="checkout whose src/mortlab is measured")
    ap.add_argument("--record", type=Path, help="JSONL file the run records go to")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    if not pipeline.program_present(root):
        print(f"perfbench: no mortlab source under {root}/src", file=sys.stderr)
        return 2
    env = envinfo.fingerprint(root)
    if env["blas"]["threads"] is not None and env["blas"]["threads"] > env["nproc"]:
        print(f"perfbench: BLAS would use {env['blas']['threads']} threads on "
              f"{env['nproc']} CPUs", file=sys.stderr)
        return 2
    record_path = args.record or root / ".perfbench" / "results.jsonl"
    record_path.parent.mkdir(parents=True, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        rec = pipeline.WorkloadRun(root, WORKLOADS[name], args.seed, args.seconds).run(
            trace=bool(args.trace))
        rec["env"] = env
        with record_path.open("a") as fh:
            fh.write(json.dumps(rec) + "\n")
        line = report(rec)
        results.append((rec, line))
        if len(names) > 1:
            print(json.dumps(line))

    if len(names) > 1:
        line = {
            "correct": all(ln["correct"] for _, ln in results),
            "attempted": sum(ln["attempted"] for _, ln in results),
            "failed": sum(ln["failed"] for _, ln in results),
            "metrics": {f"{rec['workload']}.{m}": v
                        for rec, ln in results for m, v in ln["metrics"].items()},
        }
        print(f"all workloads: fail_ratio {line['failed']}/{line['attempted']}")
    print(json.dumps(line))
    return 0 if all(rec["completed"] for rec, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
