"""Compare two result sets, parent and change, metric by metric.

    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py spread RESULTS.jsonl
    python3 perfbench/compare.py pairs --parent DIR --change DIR \\
        --workload readme-1k --seeds 1-10 --out DIR

`pairs` measures two checkouts with this benchmark's code, alternating
which side runs first, one pair per seed, and then reports.  `report`
pairs runs by (workload, seed) and gives, for each end-to-end metric and
workload, each side's median and quartiles, the pairs the change won
(ties count for neither) and a verdict (stage times folded into
pipeline_s are shown too, with no bound, so only "improved" applies):

- regressed: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the run-to-run spread (quartile distance over median, the
  larger of the two sides) exceeds the bound, unless every run of the
  change reads better than every run of the parent;
- improved: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
- no worse: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def load_records(path: Path, trace: int = 0) -> list[dict]:
    return [rec for rec in map(json.loads, path.read_text().splitlines())
            if rec["trace"] == trace]


def workloads_in(*record_sets) -> list[str]:
    present = {r["workload"] for recs in record_sets for r in recs}
    return [w for w in WORKLOADS if w in present]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(pairs: list[tuple[float, float]], bound: float | None,
            lower_is_better: bool) -> dict:
    """Verdict on (parent, change) value pairs of one metric on one workload.
    Without a bound (a stage time folded into pipeline_s) only "improved"
    can be found; anything else reads "-"."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq1, pmed, pq3 = summary(parent)
    cq1, cmed, cq3 = summary(change)
    sign = 1.0 if lower_is_better else -1.0

    def better(c, p):
        return sign * (p - c) > 0

    wins = sum(better(c, p) for p, c in pairs)
    worse_by = sign * (cmed - pmed) / pmed
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    all_better = all(better(c, p) for c in change for p in parent)
    won = wins >= 0.9 * len(pairs) and abs(cmed - pmed) > (pq3 - pq1) and better(cmed, pmed)
    if bound is None:
        result = "improved" if won else "-"
    elif worse_by > bound:
        result = "regressed"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif won:
        result = "improved"
    else:
        result = "no worse"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "wins": wins,
            "pairs": len(pairs), "spread": spread, "verdict": result}


def report(parent_path: Path, change_path: Path, benchmark: dict) -> int:
    parent, change = load_records(parent_path), load_records(change_path)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    print(f"{'workload':10s} {'metric':12s} {'parent q1/med/q3':>28s} "
          f"{'change q1/med/q3':>28s} {'won':>6s} {'spread':>7s} {'bound':>6s}  verdict")
    regressed = False
    for workload in workloads_in(parent, change):
        p_by_seed = {r["seed"]: r for r in parent if r["workload"] == workload}
        c_by_seed = {r["seed"]: r for r in change if r["workload"] == workload}
        seeds = sorted(set(p_by_seed) & set(c_by_seed))
        if not seeds:
            continue
        folded = sorted({k for s in seeds for k in p_by_seed[s].get("folded_stage_s", {})})
        rows = [(name, "metrics", spec["bound"], spec["better"] == "lower")
                for name, spec in metrics.items()]
        rows += [(name, "folded_stage_s", None, True) for name in folded]
        for name, key, bound, lower in rows:
            pairs = [(p_by_seed[s][key][name], c_by_seed[s][key][name]) for s in seeds
                     if name in p_by_seed[s].get(key, {}) and name in c_by_seed[s].get(key, {})]
            if not pairs:
                continue
            v = verdict(pairs, bound, lower)
            regressed |= v["verdict"] == "regressed"
            print(f"{workload:10s} {name:12s} "
                  f"{'/'.join(f'{x:.4g}' for x in v['parent']):>28s} "
                  f"{'/'.join(f'{x:.4g}' for x in v['change']):>28s} "
                  f"{v['wins']:>3d}/{v['pairs']:<2d} {v['spread']:7.3f} "
                  f"{'-' if bound is None else f'{bound:.2f}':>6s}  {v['verdict']}")
        for side, recs in (("parent", p_by_seed), ("change", c_by_seed)):
            att = sum(recs[s]["attempted"] for s in seeds)
            fail = sum(recs[s]["failed"] for s in seeds)
            print(f"{workload:10s} fail_ratio   {side}: {fail}/{att}")
        differ = [s for s in seeds if p_by_seed[s]["digests"] != c_by_seed[s]["digests"]]
        if differ:
            print(f"{workload:10s} outputs differ between sides for seeds {differ}")
    return 1 if regressed else 0


def spread(path: Path, benchmark: dict) -> int:
    """Per workload and end-to-end metric: median, quartiles and their
    distance over the median, against the metric's bound."""
    records = load_records(path)
    print(f"{'workload':10s} {'metric':12s} {'n':>3s} {'q1/med/q3':>28s} {'spread':>7s} {'bound':>6s}")
    for workload in workloads_in(records):
        recs = [r for r in records if r["workload"] == workload and r.get("metrics")]
        for spec in benchmark["end_to_end"]:
            values = [r["metrics"][spec["name"]] for r in recs]
            if not values:
                continue
            q1, med, q3 = summary(values)
            print(f"{workload:10s} {spec['name']:12s} {len(values):3d} "
                  f"{'/'.join(f'{x:.4g}' for x in (q1, med, q3)):>28s} "
                  f"{(q3 - q1) / med:7.3f} {spec['bound']:6.2f}")
    return 0


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pairs(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i, seed in enumerate(_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--root", str(sides[side]),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--record", str(args.out / f"{side}.jsonl")]
            print(f"seed {seed}: {side}", flush=True)
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return report(args.out / "parent.jsonl", args.out / "change.jsonl", _benchmark())


def _benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("report", help="compare two JSONL result files")
    rp.add_argument("parent", type=Path)
    rp.add_argument("change", type=Path)
    sp = sub.add_parser("spread", help="run-to-run spread of one result file")
    sp.add_argument("results", type=Path)
    pp = sub.add_parser("pairs", help="run alternating pairs on two checkouts, then report")
    pp.add_argument("--parent", type=Path, required=True, help="parent checkout")
    pp.add_argument("--change", type=Path, required=True, help="change checkout")
    pp.add_argument("--workload", required=True)
    pp.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    pp.add_argument("--seconds", type=float, default=_benchmark()["run_seconds"])
    pp.add_argument("--out", type=Path, required=True, help="directory for the two JSONL files")
    args = ap.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.change, _benchmark())
    if args.command == "spread":
        return spread(args.results, _benchmark())
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
