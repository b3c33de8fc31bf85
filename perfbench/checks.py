"""Output checks.  They read only the stable user-facing CSV/JSON outputs,
never the ensemble artifact, whose format is expected to change.

- `check_outputs`: every expected output of the stages run so far exists
  and carries the run's config hash (files without a hash field of their
  own must be listed for their stage in the hash-stamped manifest).
- `check_consistency`: forecast's and stress's views of the ensemble
  agree: each country's risk.csv mean_e0 equals its e0_summary.csv
  e0_terminal_mean, and stress.json matches the focus country's risk row.
- `stage_digest` / `stable_values` / `check_reference`: digests of the
  stable outputs must repeat exactly within a run, and their values must
  match perfbench/reference.json, when it holds the run's workload and
  seed, within one unit in the last printed place or 1e-9 relative,
  whichever is larger.

Each check returns a list of problems; an empty list is a pass.

Run as a script to rebuild reference.json from result records:
    python3 perfbench/checks.py --reference-from RESULTS.jsonl [...]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# stage -> outputs it writes into the run directory (the ensemble excluded)
EXPECTED = {
    "synth": ("truth_params.json",),
    "fit": ("params.json", "factors.csv", "stationarity.csv", "observed_e0.csv"),
    "train": ("model.json", "network.json", "training_trace.csv"),
    "forecast": ("forecast_manifest.json", "fan_factors.csv", "fan_e0_{focus}.csv",
                 "e0_summary.csv"),
    "validate": ("benchmark.csv",),
    "explain": ("saliency.csv", "influence.csv"),
    "stress": ("risk.csv", "stress.json"),
    "ablate": ("ablation.csv", "lookback.csv"),
}
UNSTABLE = ("manifest.json", "ensemble.csv.gz")
# user-facing summaries whose values are compared with the reference
REFERENCE_OUTPUTS = ("observed_e0.csv", "stationarity.csv", "e0_summary.csv",
                     "benchmark.csv", "saliency.csv", "influence.csv", "risk.csv",
                     "stress.json", "ablation.csv", "lookback.csv")


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / "manifest.json").read_text())


def focus_country(run_dir: Path, config: dict) -> str:
    """The focus country: the config's, or the first row of observed_e0.csv."""
    if config.get("focus_country"):
        return config["focus_country"]
    return read_rows(run_dir / "observed_e0.csv")[0]["country"]


def check_outputs(run_dir: Path, stages, config: dict) -> list[str]:
    problems = []
    try:
        manifest = _manifest(run_dir)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    run_hash = manifest.get("config_hash")
    if not run_hash:
        return ["manifest.json carries no config_hash"]
    data_csv = run_dir.parent / config["data"]["cluster_csv"]
    with data_csv.open() as fh:
        if fh.readline().strip() != f"# config_hash={run_hash}":
            problems.append(f"{data_csv.name}: header does not carry {run_hash}")
    focus = focus_country(run_dir, config) if "fit" in stages else ""
    for stage in stages:
        listed = manifest["stages"].get(stage, {}).get("files")
        if listed is None:
            problems.append(f"{stage}: not recorded in manifest.json")
            continue
        for name in EXPECTED[stage]:
            name = name.format(focus=focus)
            path = run_dir / name
            if not path.is_file():
                problems.append(f"{stage}: {name} missing")
            elif name.endswith(".csv"):
                with path.open() as fh:
                    if fh.readline().strip() != f"# config_hash={run_hash}":
                        problems.append(f"{stage}: {name} does not carry {run_hash}")
            else:
                doc = json.loads(path.read_text())
                if "config_hash" in doc:
                    if doc["config_hash"] != run_hash:
                        problems.append(f"{stage}: {name} carries {doc['config_hash']}")
                elif name not in listed:
                    problems.append(f"{stage}: {name} has no hash and is not in the manifest")
    return problems


def check_consistency(run_dir: Path, config: dict) -> list[str]:
    problems = []
    try:
        risk = {r["country"]: r for r in read_rows(run_dir / "risk.csv")}
        summary = {r["country"]: r for r in read_rows(run_dir / "e0_summary.csv")}
        stress = json.loads((run_dir / "stress.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {exc}"]
    if set(risk) != set(summary):
        problems.append(f"countries differ: risk {sorted(risk)} vs e0_summary {sorted(summary)}")
    for code in sorted(set(risk) & set(summary)):
        a, b = risk[code]["mean_e0"], summary[code]["e0_terminal_mean"]
        if float(a) != float(b):
            problems.append(f"{code}: risk.csv mean_e0 {a} != e0_summary.csv "
                            f"e0_terminal_mean {b}")
    focus = focus_country(run_dir, config)
    if stress.get("country") != focus:
        problems.append(f"stress.json country {stress.get('country')} != focus {focus}")
    elif focus in risk:
        for key in ("mean_e0", "es_99_0", "scr_es"):
            if f"{stress[key]:.4f}" != risk[focus][key]:
                problems.append(f"stress.json {key} {stress[key]:.4f} != risk.csv {risk[focus][key]}")
    return problems


def stage_digest(run_dir: Path, stage: str) -> str:
    """SHA-256 over the stable outputs the manifest lists for `stage`."""
    listed = _manifest(run_dir)["stages"][stage]["files"]
    h = hashlib.sha256()
    for name in sorted(listed):
        path = run_dir / name
        if path.name in UNSTABLE:
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_repeats(digests: dict) -> list[str]:
    """Every stage's digest is the same each time the stage ran."""
    return [f"{stage}: outputs differ between its {len(seen)} runs"
            for stage, seen in digests.items() if len(set(seen)) > 1]


def stable_values(run_dir: Path) -> dict[str, str]:
    """The printed values of the reference outputs, keyed file/row/column."""
    values = {}
    for name in REFERENCE_OUTPUTS:
        path = run_dir / name
        if not path.is_file():
            continue
        if name.endswith(".json"):
            doc = json.loads(path.read_text())
            for key, v in doc.items():
                if key != "config_hash":
                    values[f"{name}/{key}"] = json.dumps(v)
            continue
        for row in read_rows(path):
            first = next(iter(row))
            for col, v in row.items():
                if col != first:
                    values[f"{name}/{row[first]}/{col}"] = v
    return values


def _close(got: str, ref: str) -> bool:
    """Equal within one unit in the last printed place of `ref`, or 1e-9 relative."""
    if got == ref:
        return True
    try:
        a, b = json.loads(got), json.loads(ref)
    except ValueError:
        return False
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return all(_close(json.dumps(x), json.dumps(y)) for x, y in zip(a, b))
    if not all(isinstance(x, (int, float)) for x in (a, b)):
        return False
    mantissa, _, exponent = ref.lower().partition("e")
    decimals = len(mantissa.partition(".")[2]) - int(exponent or 0)
    return abs(a - b) <= max(1.01 * 10.0 ** -decimals, 1e-9 * abs(b))


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed))


def check_reference(values: dict, reference: dict) -> list[str]:
    problems = [f"{key}: missing" for key in sorted(set(reference) - set(values))]
    problems += [f"{key}: {values[key]} vs reference {ref}"
                 for key, ref in sorted(reference.items())
                 if key in values and not _close(values[key], ref)]
    return problems


def _build_reference(paths) -> dict:
    ref = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if rec["correct"] and not rec["trace"] and rec.get("values"):
                ref.setdefault(rec["workload"], {})[str(rec["seed"])] = rec["values"]
    return ref


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="rebuild reference.json from result records")
    ap.add_argument("--reference-from", nargs="+", required=True, metavar="RESULTS.jsonl")
    args = ap.parse_args()
    ref = _build_reference(args.reference_from)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}: " + ", ".join(f"{w} {len(s)} seeds" for w, s in ref.items()))
