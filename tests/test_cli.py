import gzip
import json
import shutil
from pathlib import Path

import pytest

from mortlab.cli import main
from mortlab.lilee import load_params


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "seed": 777,
        "out_dir": "run",
        "data": {"cluster_csv": "data/cluster.csv", "year_range": [1980, 2020]},
        "split_year": 2011,
        "lookback": 10,
        "hidden": [16, 8],
        "dropout": 0.2,
        "train": {"learning_rate": 1e-3, "max_epochs": 80, "patience": 15},
        "forecast": {"horizon": 6, "n_paths": 120, "quantiles": [0.025, 0.5, 0.975]},
        "stress": {"shock_grid": [0.05, 0.1, 0.15, 0.2]},
        "validate": {"rmse_target": "specific_factors", "mode": "recursive"},
        "explain": {"n_coalitions": 300, "max_test_windows": 2},
        "ablate": {"lookbacks": [5, 10, 40]},
        "synth": {
            "n_countries": 3,
            "regime": "unit_root",
            "noise_sd": 0.01,
            "year_range": [1980, 2020],
        },
    }
    cfg.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(cfg))
    return file


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once on a small fixture."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    for stage in ("synth", "fit", "train", "forecast", "validate", "explain", "stress", "ablate"):
        assert main([stage, "--config", str(cfg), "--quiet"]) == 0, stage
    return root, cfg


def read_artifact_lines(path: Path):
    text = gzip.open(path, "rt").read() if path.suffix == ".gz" else path.read_text()
    return text.splitlines()


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline):
        root, _ = pipeline
        out = root / "run"
        for name in (
            "manifest.json", "params.json", "factors.csv", "stationarity.csv",
            "observed_e0.csv", "model.json", "network.json", "training_trace.csv",
            "ensemble.csv.gz", "forecast_manifest.json", "fan_factors.csv",
            "e0_summary.csv", "benchmark.csv", "saliency.csv", "influence.csv",
            "risk.csv", "stress.json", "ablation.csv", "lookback.csv",
        ):
            assert (out / name).exists(), name

    def test_ensemble_row_count(self, pipeline):
        root, _ = pipeline
        lines = read_artifact_lines(root / "run" / "ensemble.csv.gz")
        data_rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data_rows) == 120 * 6 * 4  # paths * horizon * (N+1)

    def test_csv_artifacts_carry_hash(self, pipeline):
        root, cfg = pipeline
        manifest = json.loads((root / "run" / "manifest.json").read_text())
        stamp = f"# config_hash={manifest['config_hash']}"
        for name in ("factors.csv", "benchmark.csv", "risk.csv", "saliency.csv"):
            first = (root / "run" / name).read_text().splitlines()[0]
            assert first == stamp, name

    def test_params_reload_losslessly(self, pipeline):
        root, _ = pipeline
        params = load_params(root / "run" / "params.json")
        assert params.n_countries == 3
        assert params.B.sum() == pytest.approx(1.0, abs=1e-10)

    def test_stationarity_verdicts_valid(self, pipeline):
        root, _ = pipeline
        lines = (root / "run" / "stationarity.csv").read_text().splitlines()[2:]
        verdicts = {line.split(",")[-1] for line in lines}
        assert verdicts <= {"Stationary", "UnitRoot", "Conflict-Persistent", "Conflict-Inertial"}

    def test_saliency_sums_to_100(self, pipeline):
        root, _ = pipeline
        lines = (root / "run" / "saliency.csv").read_text().splitlines()[2:]
        total = sum(float(line.split(",")[1]) for line in lines)
        assert total == pytest.approx(100.0, abs=0.01)

    def test_lookback_40_skipped(self, pipeline):
        root, _ = pipeline
        rows = (root / "run" / "lookback.csv").read_text().splitlines()[2:]
        by_l = {int(r.split(",")[0]): r for r in rows}
        assert ",1," in by_l[40] or by_l[40].split(",")[4] == "1"

    def test_stress_json_fields(self, pipeline):
        root, _ = pipeline
        doc = json.loads((root / "run" / "stress.json").read_text())
        assert doc["delta_star"] > 0
        assert doc["sensitivity_years_per_unit"] > 0
        assert len(doc["e0_gains"]) == 4


class TestDeterminism:
    def test_rerun_fit_identical_params(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 0
        first = (tmp_path / "run" / "params.json").read_bytes()
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "run" / "params.json").read_bytes() == first


class TestExitCodes:
    def test_missing_data_file_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # no synth run: data file absent
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 2

    def test_missing_upstream_stage_is_3(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["train", "--config", str(cfg), "--quiet"]) == 3

    def test_mixed_hashes_refused_with_3(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 0
        # a different seed is a different config hash over the same out dir
        assert main(["fit", "--config", str(cfg), "--quiet", "--seed-override", "1"]) == 3

    def test_degenerate_scr_is_4(self, tmp_path):
        cfg = write_config(tmp_path)
        for stage in ("synth", "fit", "train", "forecast"):
            assert main([stage, "--config", str(cfg), "--quiet"]) == 0
        # collapse the ensemble: identical paths make SCR exactly zero
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        lines = read_artifact_lines(out / "ensemble.csv.gz")
        header, rows = lines[1], lines[2:]
        collapsed = []
        first_by_key = {}
        for row in rows:
            p, h, lab, v = row.split(",")
            v = first_by_key.setdefault((h, lab), v)
            collapsed.append(f"{p},{h},{lab},{v}")
        with gzip.open(out / "ensemble.csv.gz", "wt") as fh:
            fh.write(f"# config_hash={manifest['config_hash']}\n")
            fh.write(header + "\n")
            fh.write("\n".join(collapsed) + "\n")
        assert main(["stress", "--config", str(cfg), "--quiet"]) == 4

    def _stress_on_edited_ensemble(self, pipeline, tmp_path, edit):
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        path = copy / "run" / "ensemble.csv.gz"
        lines = edit(read_artifact_lines(path))
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(lines) + "\n")
        return main(["stress", "--config", str(copy / "config.json"), "--quiet"])

    def test_rewritten_intact_ensemble_is_0(self, pipeline, tmp_path):
        assert self._stress_on_edited_ensemble(pipeline, tmp_path, lambda l: l) == 0

    def test_row_truncated_ensemble_is_3(self, pipeline, tmp_path):
        assert self._stress_on_edited_ensemble(pipeline, tmp_path, lambda l: l[:-30]) == 3

    def test_foreign_hash_ensemble_is_3(self, pipeline, tmp_path):
        def restamp(lines):
            return ["# config_hash=0123456789abcdef", *lines[1:]]

        assert self._stress_on_edited_ensemble(pipeline, tmp_path, restamp) == 3

    def test_bad_usage_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # --config missing
        assert exc.value.code == 1

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2

    def test_invalid_config_json_is_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fit", "--config", str(bad), "--quiet"]) == 1
