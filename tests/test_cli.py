import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from mortlab import forecast, lstm
from mortlab.cli import main
from mortlab.forecast import forecast_stochastic, load_forecaster
from mortlab.lilee import FactorPanel, load_params


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


def npy_bytes(array, **kwargs) -> bytes:
    """The .npy file np.save would write; kwargs go to write_array."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array), **kwargs)
    return buf.getvalue()


def write_ensemble(run_dir: Path, data: bytes, record_checksum: bool = False) -> None:
    """Replace ensemble.npy; optionally record the new bytes' SHA-256 in
    forecast_manifest.json, so only the structural checks stand in the way."""
    (run_dir / "ensemble.npy").write_bytes(data)
    if record_checksum:
        path = run_dir / "forecast_manifest.json"
        doc = json.loads(path.read_text())
        doc["ensemble_sha256"] = hashlib.sha256(data).hexdigest()
        path.write_text(json.dumps(doc))


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline):
        root, _ = pipeline
        out = root / "run"
        for name in (
            "manifest.json", "params.json", "factors.csv", "stationarity.csv",
            "observed_e0.csv", "model.json", "network.json", "training_trace.csv",
            "ensemble.npy", "forecast_manifest.json", "fan_factors.csv",
            "e0_summary.csv", "benchmark.csv", "saliency.csv", "influence.csv",
            "risk.csv", "stress.json", "ablation.csv", "lookback.csv",
        ):
            assert (out / name).exists(), name

    def test_ensemble_row_count(self, pipeline):
        root, _ = pipeline
        levels = np.load(root / "run" / "ensemble.npy", allow_pickle=False)
        assert levels.dtype == np.dtype("<f8")
        assert levels.shape == (120, 6 + 1, 4)  # paths, origin row + horizon, N+1

    def test_ensemble_round_trips_bitwise(self, pipeline):
        root, _ = pipeline
        out = root / "run"
        fdoc = json.loads((out / "forecast_manifest.json").read_text())
        panel = FactorPanel.from_params(load_params(out / "params.json"))
        ens = forecast_stochastic(
            load_forecaster(out / "model.json"), panel, fdoc["horizon"],
            n_paths=fdoc["n_paths"], sigma=np.asarray(fdoc["sigma"]), seed=fdoc["seed"],
        )
        data = (out / "ensemble.npy").read_bytes()
        assert hashlib.sha256(data).hexdigest() == fdoc["ensemble_sha256"]
        levels = np.load(io.BytesIO(data), allow_pickle=False)
        assert levels.shape == ens.levels.shape
        assert levels.tobytes() == ens.levels.tobytes()
        assert (levels[:, 0, :] == panel.values[-1]).all()

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

    def test_rerun_forecast_identical_ensemble(self, pipeline, tmp_path):
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        (copy / "run" / "ensemble.npy").unlink()
        assert main(["forecast", "--config", str(copy / "config.json"), "--quiet"]) == 0
        for name in ("ensemble.npy", "forecast_manifest.json"):
            assert (copy / "run" / name).read_bytes() == (root / "run" / name).read_bytes()


    def test_forecast_over_three_blocks_identical_and_recorded(
        self, pipeline, tmp_path, monkeypatch
    ):
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        (copy / "run" / "ensemble.npy").unlink()
        monkeypatch.setattr(forecast, "_block_count", lambda n_paths: 3)
        assert main(["forecast", "--config", str(copy / "config.json"), "--quiet"]) == 0
        for name in ("ensemble.npy", "forecast_manifest.json", "e0_summary.csv",
                     "fan_factors.csv"):
            assert (copy / "run" / name).read_bytes() == (root / "run" / name).read_bytes()
        for run, blocks in ((root, 1), (copy, 3)):  # 120 paths stay on one block
            manifest = json.loads((run / "run" / "manifest.json").read_text())
            assert manifest["stages"]["forecast"]["path_blocks"] == blocks


class TestAblate:
    def test_default_stage_trains_four_networks(self, tmp_path, monkeypatch):
        # baseline, the levels variant, and lookbacks 5 and 15; lookback 10
        # is the baseline itself and must not be trained again
        cfg = write_config(tmp_path, ablate={})
        for stage in ("synth", "fit"):
            assert main([stage, "--config", str(cfg), "--quiet"]) == 0
        real, calls = lstm.train, []

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("mortlab") and getattr(module, "train", None) is real:
                monkeypatch.setattr(module, "train", counting_train)
        assert main(["ablate", "--config", str(cfg), "--quiet"]) == 0
        assert len(calls) == 4
        lines = (tmp_path / "run" / "lookback.csv").read_text().splitlines()
        assert [line.split(",")[:1] for line in lines[2:]] == [["5"], ["10"], ["15"]]
        assert all(line.split(",")[4] == "0" for line in lines[2:])


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
        levels = np.load(out / "ensemble.npy", allow_pickle=False)
        collapsed = np.repeat(levels[:1], levels.shape[0], axis=0)
        write_ensemble(out, npy_bytes(collapsed), record_checksum=True)
        assert main(["stress", "--config", str(cfg), "--quiet"]) == 4

    def _stress_on_edited_ensemble(self, pipeline, tmp_path, edit, record_checksum=False):
        """Rerun stress on a copy of the pipeline whose ensemble.npy bytes
        went through `edit`."""
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        data = (copy / "run" / "ensemble.npy").read_bytes()
        write_ensemble(copy / "run", edit(data), record_checksum)
        return main(["stress", "--config", str(copy / "config.json"), "--quiet"])

    def test_rewritten_intact_ensemble_is_0(self, pipeline, tmp_path):
        def resave(data):
            return npy_bytes(np.load(io.BytesIO(data), allow_pickle=False))

        assert self._stress_on_edited_ensemble(pipeline, tmp_path, resave) == 0

    def test_row_truncated_ensemble_is_3(self, pipeline, tmp_path):
        # a well-formed file missing its last 30 paths, checksum recorded
        def drop_paths(data):
            return npy_bytes(np.load(io.BytesIO(data), allow_pickle=False)[:-30])

        assert self._stress_on_edited_ensemble(
            pipeline, tmp_path, drop_paths, record_checksum=True) == 3

    def test_byte_truncated_ensemble_is_3(self, pipeline, tmp_path, caplog):
        assert self._stress_on_edited_ensemble(pipeline, tmp_path, lambda d: d[:-200]) == 3
        assert "checksum" in caplog.text

    def test_flipped_payload_byte_is_3(self, pipeline, tmp_path, caplog):
        def flip(data):
            edited = bytearray(data)
            edited[-100] ^= 0x01
            return bytes(edited)

        assert self._stress_on_edited_ensemble(pipeline, tmp_path, flip) == 3
        assert "checksum" in caplog.text

    def test_foreign_hash_ensemble_is_3(self, pipeline, tmp_path, caplog):
        # a complete, well-formed ensemble.npy from another seed's run
        other = tmp_path / "other"
        other.mkdir()
        cfg = write_config(other, seed=778)
        for stage in ("synth", "fit", "train", "forecast"):
            assert main([stage, "--config", str(cfg), "--quiet"]) == 0
        foreign = (other / "run" / "ensemble.npy").read_bytes()
        assert self._stress_on_edited_ensemble(pipeline, tmp_path, lambda d: foreign) == 3
        assert "checksum" in caplog.text

    def test_missing_ensemble_is_3(self, pipeline, tmp_path):
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        (copy / "run" / "ensemble.npy").unlink()
        assert main(["stress", "--config", str(copy / "config.json"), "--quiet"]) == 3

    @pytest.mark.parametrize("key, value", [
        ("n_paths", 119), ("horizon", 5), ("origin_year", 2019),
    ])
    def test_manifest_disagreeing_with_ensemble_is_3(self, pipeline, tmp_path, key, value):
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        path = copy / "run" / "forecast_manifest.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert main(["stress", "--config", str(copy / "config.json"), "--quiet"]) == 3

    @pytest.mark.parametrize("edit", [
        lambda d: d[:-200],
        lambda d: d + bytes(8),
        lambda d: b"not an npy file",
        lambda d: npy_bytes(np.load(io.BytesIO(d)).astype("<f4")),
        lambda d: npy_bytes(np.load(io.BytesIO(d)).astype(">f8")),
        lambda d: npy_bytes(np.asfortranarray(np.load(io.BytesIO(d)))),
        lambda d: npy_bytes(np.load(io.BytesIO(d)).astype(object)),
        lambda d: npy_bytes(np.load(io.BytesIO(d))[:, :, :-1]),
        lambda d: npy_bytes(np.load(io.BytesIO(d)) * np.r_[0.0, np.ones(6)][:, None]),
        lambda d: npy_bytes(np.load(io.BytesIO(d)), version=(2, 0)),
    ], ids=["cut-200-bytes", "trailing-bytes", "not-npy", "float32", "big-endian",
            "fortran-order", "object-dtype", "factor-missing", "origin-row-zeroed",
            "format-version-2"])
    def test_misshapen_ensemble_with_recorded_checksum_is_3(self, pipeline, tmp_path, edit):
        assert self._stress_on_edited_ensemble(
            pipeline, tmp_path, edit, record_checksum=True) == 3

    @pytest.mark.parametrize("stage, name", [
        (stage, name)
        for stage in ("forecast", "stress")
        for name in ("manifest.json", "params.json", "model.json", "network.json")
    ] + [("stress", "forecast_manifest.json")])
    def test_cut_json_artifact_is_3(self, pipeline, tmp_path, caplog, stage, name):
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        path = copy / "run" / name
        path.write_text(path.read_text()[:5])
        assert main([stage, "--config", str(copy / "config.json"), "--quiet"]) == 3
        assert f"artifact {name} does not parse" in caplog.text

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
