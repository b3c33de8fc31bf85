"""The output checks on a tiny real run, and a planted truncated ensemble."""

import gzip
import json
import shutil
from pathlib import Path

import pytest

import checks
from pipeline import Runner, StageFailed, Tally

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "seed": 7,
    "out_dir": "run",
    "data": {"cluster_csv": "data/cluster.csv", "year_range": [1956, 2020]},
    "synth": {"n_countries": 3, "regime": "unit_root", "noise_sd": 0.01,
              "year_range": [1956, 2020]},
    "train": {"max_epochs": 5, "patience": 5},
    "forecast": {"n_paths": 200, "horizon": 5},
}
STAGES = ("synth", "fit", "train", "forecast", "stress")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    cfg = d / "config.json"
    cfg.write_text(json.dumps(TINY))
    tally = Tally()
    runner = Runner(ROOT, tally, "test")
    for stage in STAGES:
        runner.stage(cfg, stage)
    assert tally.failed == 0
    return d


def rerun_stress(run_copy: Path) -> Tally:
    """Rerun stress through the benchmark's runner and check as a run does."""
    tally = Tally()
    try:
        Runner(ROOT, tally, "test").stage(run_copy / "config.json", "stress")
    except StageFailed:
        return tally
    tally.op("forecast and stress agree", checks.check_consistency(run_copy / "run", TINY))
    return tally


def test_clean_run_passes_every_check(tiny_run):
    run_dir = tiny_run / "run"
    assert checks.check_outputs(run_dir, STAGES, TINY) == []
    assert checks.check_consistency(run_dir, TINY) == []
    assert rerun_stress(tiny_run).failed == 0


def test_hash_mismatch_is_reported(tiny_run, tmp_path):
    copy = shutil.copytree(tiny_run, tmp_path / "copy")
    risk = copy / "run" / "risk.csv"
    risk.write_text("# config_hash=0000000000000000\n" + risk.read_text().split("\n", 1)[1])
    problems = checks.check_outputs(copy / "run", STAGES, TINY)
    assert any("risk.csv" in p for p in problems)


def _cut_rows(path: Path, n: int) -> None:
    with gzip.open(path, "rt") as fh:
        lines = fh.readlines()
    with gzip.open(path, "wt") as fh:
        fh.writelines(lines[:-n])


def _cut_bytes(path: Path, n: int) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - n])


@pytest.mark.parametrize("truncate", [
    lambda p: _cut_rows(p, 30),  # a valid gzip missing its last rows
    lambda p: _cut_bytes(p, 200),  # a gzip stream cut short
], ids=["rows", "bytes"])
def test_truncated_ensemble_counts_as_failed(tiny_run, tmp_path, truncate):
    copy = shutil.copytree(tiny_run, tmp_path / "copy")
    truncate(copy / "run" / "ensemble.csv.gz")
    tally = rerun_stress(copy)
    assert tally.failed >= 1, tally.problems


def test_reference_tolerance_is_one_unit_in_the_last_place():
    ref = {"risk.csv/SYA/scr_es": "0.3929", "stress.json/delta_star": "0.044829684170248414"}
    assert checks.check_reference(
        {"risk.csv/SYA/scr_es": "0.3930", "stress.json/delta_star": "0.04482968417"}, ref) == []
    assert checks.check_reference(
        {"risk.csv/SYA/scr_es": "0.3931", "stress.json/delta_star": "0.044829684170248414"},
        ref) != []
    assert checks.check_reference({}, ref) != []
