import fcntl
import functools
import hashlib
import importlib.util
import inspect
import io
import json
import math
import operator
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mortlab import cli, forecast, lifetable, lstm, risk
from mortlab.cli import MANIFEST, STAGES, RunContext, main
from mortlab.errors import DegenerateRiskError
from mortlab.forecast import ForecastEnsemble, HybridConfig, forecast_stochastic, parse_forecaster
from mortlab.lilee import FactorPanel, parse_params
from mortlab.lstm import TrainConfig


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
    for stage in STAGES:
        assert main([stage, "--config", str(cfg), "--quiet"]) == 0, stage
    return root, cfg


@pytest.fixture(scope="module")
def foreign_run(tmp_path_factory):
    """Another seed's run through forecast: a source of foreign artifacts."""
    root = tmp_path_factory.mktemp("foreign")
    cfg = write_config(root, seed=778)
    for stage in ("synth", "fit", "train", "forecast"):
        assert main([stage, "--config", str(cfg), "--quiet"]) == 0, stage
    return root / "run"


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
        panel = FactorPanel.from_params(parse_params((out / "params.json").read_text()))
        model = parse_forecaster(
            (out / "model.json").read_text(), lstm.parse_network((out / "network.json").read_text())
        )
        ens = forecast_stochastic(
            model, panel, fdoc["horizon"],
            n_paths=fdoc["n_paths"], sigma=np.asarray(fdoc["sigma"]), seed=fdoc["seed"],
        )
        data = (out / "ensemble.npy").read_bytes()
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
        params = parse_params((root / "run" / "params.json").read_text())
        assert params.n_countries == 3
        assert params.B.sum() == pytest.approx(1.0, abs=1e-10)

    def test_stationarity_verdicts_valid(self, pipeline):
        root, _ = pipeline
        lines = (root / "run" / "stationarity.csv").read_text().splitlines()[2:]
        verdicts = {line.split(",")[-1] for line in lines}
        assert verdicts <= {"Stationary", "UnitRoot", "Conflict-Persistent", "Conflict-Inertial"}

    def test_fit_records_each_countrys_adf_lag(self, pipeline):
        from mortlab.stationarity import adf_test

        out = pipeline[0] / "run"
        params = parse_params((out / "params.json").read_text())
        record = json.loads((out / "manifest.json").read_text())["stages"]["fit"]
        assert record["adf_lags"] == {
            code: adf_test(params.k[i])[2] for i, code in enumerate(params.countries)}

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

    def test_train_records_how_training_stopped(self, pipeline):
        root, _ = pipeline
        out = root / "run"
        record = json.loads((out / "manifest.json").read_text())["stages"]["train"]
        rows = (out / "training_trace.csv").read_text().splitlines()[2:]
        val_mse = [float(row.split(",")[2]) for row in rows]
        assert record["epochs_run"] == len(rows)
        assert val_mse[record["best_epoch"] - 1] == min(val_mse)
        # max_epochs is 80; only patience ends training sooner
        assert record["stopped_early"] or record["epochs_run"] == 80

    def test_train_records_its_gradient_norms(self, pipeline):
        root, _ = pipeline
        record = json.loads((root / "run" / "manifest.json").read_text())["stages"]["train"]
        assert type(record["clipped_epochs"]) is int
        assert 0 <= record["clipped_epochs"] <= record["epochs_run"]
        assert record["max_grad_norm"] > 0
        assert (record["max_grad_norm"] > lstm.CLIP_NORM) == (record["clipped_epochs"] > 0)


class TestE0Fan:
    def test_equals_the_sorted_full_matrix(self, pipeline):
        """The fan read one horizon at a time has the bits of the (paths x
        horizon) e0 matrix sorted along its paths."""
        root, _ = pipeline
        out = root / "run"
        params = parse_params((out / "params.json").read_text())
        fdoc = json.loads((out / "forecast_manifest.json").read_text())
        years = fdoc["origin_year"] + np.arange(fdoc["horizon"] + 1)
        ens = ForecastEnsemble(levels=np.load(out / "ensemble.npy"), years=years)
        focus = params.countries[0]
        full = lifetable.e0_paths(ens, params, focus)
        assert full.shape == (fdoc["n_paths"], fdoc["horizon"])
        bands = risk.sorted_quantiles(np.sort(full, axis=0), fdoc["quantiles"])
        want = [
            [int(years[h + 1]), q, f"{bands[qi, h]:.4f}"]
            for qi, q in enumerate(fdoc["quantiles"])
            for h in range(fdoc["horizon"])
        ]
        lines = (out / f"fan_e0_{focus}.csv").read_text().splitlines()
        assert lines[1] == "year,quantile,e0"
        got = [[int(y), float(q), e0] for y, q, e0 in (line.split(",") for line in lines[2:])]
        assert got == want

    def test_forecast_asks_for_at_most_n_paths_curves_at_once(
        self, pipeline, tmp_path, monkeypatch
    ):
        """One terminal call per country and one per fan horizon, each of
        n_paths curves: the stage never holds the (paths x horizon) matrix."""
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        e0_paths = lifetable.e0_paths
        sizes = []

        def recording(*args, **kwargs):
            e0 = e0_paths(*args, **kwargs)
            sizes.append(e0.size)
            return e0

        monkeypatch.setattr(lifetable, "e0_paths", recording)
        assert main(["forecast", "--config", str(copy / "config.json"), "--quiet"]) == 0
        assert sizes == [120] * (3 + 6)
        focus = parse_params((root / "run" / "params.json").read_text()).countries[0]
        for name in ("e0_summary.csv", f"fan_e0_{focus}.csv"):
            assert (copy / "run" / name).read_bytes() == (root / "run" / name).read_bytes()


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
        monkeypatch.setattr(forecast, "row_blocks", lambda n, most: lstm.row_blocks(n, -(-n // 3)))
        monkeypatch.setattr(forecast.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert main(["forecast", "--config", str(copy / "config.json"), "--quiet"]) == 0
        for name in ("ensemble.npy", "forecast_manifest.json", "e0_summary.csv",
                     "fan_factors.csv"):
            assert (copy / "run" / name).read_bytes() == (root / "run" / name).read_bytes()
        # 120 paths stay on one block; 3 blocks on 2 cores get 2 workers
        for run, blocks, workers in ((root, 1, 1), (copy, 3, 2)):
            stage = json.loads((run / "run" / "manifest.json").read_text())["stages"]["forecast"]
            assert (stage["path_blocks"], stage["path_workers"]) == (blocks, workers)


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


def put(*keys, value):
    """A change that sets doc[keys[0]]...[keys[-1]] to `value` and returns doc."""
    def change(doc):
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
        return doc
    return change


def json_edit(change):
    """A damage: the artifact's JSON document after `change` edits it in place."""
    def damage(data, foreign):
        doc = json.loads(data)
        change(doc)
        return json.dumps(doc).encode()
    return damage


def npy_edit(change, **kwargs):
    """A damage: the .npy file of `change` of the artifact's array; kwargs go
    to np.lib.format.write_array."""
    def damage(data, foreign):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, change(np.load(io.BytesIO(data))), **kwargs)
        return buf.getvalue()
    return damage


def row(stage, name, damage, rehash=True, code=3, message=None):
    """A damage case: `damage(bytes, the foreign run's bytes)` gives the file's
    new bytes (None deletes it), whose SHA-256 is re-recorded when `rehash`;
    the stage then exits `code` and logs `message`, by default that the
    artifact does not parse."""
    message = f"artifact {name} does not parse" if message is None else message
    return stage, name, damage, rehash, code, message


# the damages an artifact's recorded checksum refuses
CHECKSUM_DAMAGES = {
    "foreign": lambda d, f: f,
    "cut-in-half": lambda d, f: d[: len(d) // 2],
    "flipped-byte": lambda d, f: bytes(b ^ (i == len(d) // 2) for i, b in enumerate(d)),
    "deleted": lambda d, f: None,
}


def checksum_row(stage, name, label):
    return row(stage, name, CHECKSUM_DAMAGES[label], rehash=False,
               message=f"artifact {name} is missing or does not match its checksum")


def cut(d, f):
    return d[:5]


ensemble = functools.partial(row, "stress", "ensemble.npy")
observed = functools.partial(row, "forecast", "observed_e0.csv")
MODEL_READERS = ("forecast", "validate", "explain", "stress")
FIT_FILES = ("stages", "fit", "files")
ENSEMBLE_CHECKS = {  # each structural check refuses on its own and names itself
    "header-only-reshaped": ensemble(npy_edit(lambda a: a.reshape(-1, 4)),
                                     message="header (shape, fortran_order, dtype)"),
    "trailing-bytes": ensemble(lambda d, f: d + bytes(8), message="payload is"),
    "origin-row-zeroed": ensemble(npy_edit(put((slice(None), 0), value=0.0)),
                                  message="does not start from the panel's last year"),
}
# the rows of each test by id; manifest.json is bound to the run by its
# config hash, not by a checksum
DAMAGES = {
    "test_misshapen_manifest_is_3": {
        label: row("train", MANIFEST, json_edit(edit), rehash=False) for label, edit in {
            "no-stages": lambda doc: doc.pop("stages"),
            "stages-a-list": lambda doc: doc.update(stages=list(doc["stages"])),
            "record-not-an-object": put("stages", "fit", value="done"),
            "no-files": lambda doc: doc["stages"]["fit"].pop("files"),
            "files-a-string": put(*FIT_FILES, value="params.json"),
            "files-not-names": put(*FIT_FILES, value=[1, 2]),
            "files-names-only": lambda doc: doc["stages"]["fit"].update(
                files=list(doc["stages"]["fit"]["files"])),
            "digest-not-hex": put(*FIT_FILES, "params.json", value="not-hex"),
            "digest-short": put(*FIT_FILES, "params.json", value="ab" * 31),
            "digest-upper-case": put(*FIT_FILES, "params.json", value="AB" * 32),
            "digest-null": put("stages", "synth", "files", "extra.csv", value=None),
        }.items()},
    "test_manifest_without_config_hash_is_3": {None: row(
        "train", MANIFEST, json_edit(lambda doc: doc.pop("config_hash")), rehash=False,
        message="refusing to mix")},
    "test_cut_json_artifact_is_3": {
        **{f"{stage}-{MANIFEST}": row(stage, MANIFEST, cut, rehash=False)
           for stage in STAGES[1:]},
        **{f"{stage}-{name}": row(stage, name, cut) for stage in ("forecast", "stress")
           for name in ("params.json", "model.json", "network.json")},
        "stress-forecast_manifest.json": row("stress", "forecast_manifest.json", cut),
        **{f"{stage}-params.json-not-an-object": row(stage, "params.json", lambda d, f: b"[]")
           for stage in ("train", *MODEL_READERS, "ablate")},
        "forecast-params.json-empty": row("forecast", "params.json", lambda d, f: b"{}"),
        # one NaN in the common index K and one in the first specific index k
        **{f"{stage}-params.json-nan-K-k": row(stage, "params.json", json_edit(
            lambda doc: put("k", 0, 0, value=math.nan)(put("K", 0, value=math.nan)(doc))))
           for stage in ("train", *MODEL_READERS, "ablate")},
        "forecast-network.json-schema-only": row(
            "forecast", "network.json", lambda d, f: b'{"schema": "mortlab/network-v1"}'),
        "forecast-model.json-schema-only": row("forecast", "model.json", lambda d, f: json.dumps(
            {key: json.loads(d)[key] for key in ("config_hash", "schema")}).encode()),
        "forecast-model.json-not-an-object": row("forecast", "model.json", lambda d, f: b"[1, 2]"),
        "forecast-model.json-zero-sd": row("forecast", "model.json", json_edit(
            lambda doc: doc["scaler"].update(sd=[0.0] * len(doc["scaler"]["sd"])))),
        **{f"{stage}-{name}-{label}": row(stage, name, json_edit(put(*keys, value=value)))
           for stage in MODEL_READERS for name, label, keys, value in (
               ("model.json", "lookback-0", ["lookback"], 0),
               ("model.json", "split-1800", ["scaler", "train_end_year"], 1800),
               ("model.json", "lookback-12", ["lookback"], 12),
               ("network.json", "nan-weight", ["weights", "bh", 0], math.nan),
               ("network.json", "dropout-0.5", ["dropout_rate"], 0.5))},
        # the pipeline's forecaster is hidden (16, 8) over 4 factors
        **{f"{stage}-network.json-{label}": row(
            stage, "network.json", lambda d, f, net=net: lstm.dump_network(net).encode())
           for stage in MODEL_READERS for label, net in (
               ("hidden-8-4", lstm.init_params(4, hidden=(8, 4), output_dim=4)),
               ("5-factors", lstm.init_params(5, hidden=(16, 8), output_dim=5)))},
        **{f"{stage}-model.json-5-factors": row(stage, "model.json", json_edit(
            lambda doc: [v.append(v[-1]) for v in (doc["mbc"], *doc["scaler"].values())
                         if isinstance(v, list)]))
           for stage in MODEL_READERS},
    },
    "test_non_finite_figure_is_4": {
        f"{stage}-params.json-alpha-1e3": row(
            stage, "params.json", json_edit(put("alpha", 0, 0, value=1e3)), code=4,
            message=f"refusing to write {out}")
        for stage, out in (("forecast", "e0_summary.csv"), ("stress", "risk.csv"))},
    "test_bad_observed_e0_is_3": {
        **{label: checksum_row("forecast", "observed_e0.csv", label)
           for label in ("foreign", "deleted")},
        "last-row-cut": observed(lambda d, f: d[: d.rstrip().rfind(b"\n") + 1]),
        **{f"e0-{v}": observed(lambda d, f, v=v: re.sub(
            rb"(\n\w+,\d+,)[^\r\n]+", rb"\g<1>" + v.encode(), d, count=1)) for v in ("nan", "-5")},
    },
    "test_manifest_disagreeing_with_ensemble_is_3": {
        f"{key}-{value}": row("stress", "forecast_manifest.json", json_edit(put(key, value=value)),
                              message="artifact ensemble.npy does not parse")
        for key, value in (("n_paths", 119), ("horizon", 5), ("origin_year", 2019))},
    "test_misshapen_ensemble_with_recorded_checksum_is_3": {
        "cut-200-bytes": ensemble(lambda d, f: d[:-200]),
        "trailing-bytes": ENSEMBLE_CHECKS["trailing-bytes"],
        "not-npy": ensemble(lambda d, f: b"not an npy file"),
        "float32": ensemble(npy_edit(lambda a: a.astype("<f4"))),
        "big-endian": ensemble(npy_edit(lambda a: a.astype(">f8"))),
        "fortran-order": ensemble(npy_edit(np.asfortranarray)),
        "object-dtype": ensemble(npy_edit(lambda a: a.astype(object))),
        "factor-missing": ensemble(npy_edit(lambda a: a[:, :, :-1])),
        "origin-row-zeroed": ENSEMBLE_CHECKS["origin-row-zeroed"],
        "format-version-2": ensemble(npy_edit(lambda a: a, version=(2, 0))),
    },
    "test_ensemble_refusal_names_its_check": ENSEMBLE_CHECKS,
    "test_non_finite_ensemble_is_3": {
        "nan-terminal-level": ensemble(npy_edit(put((0, -1, 0), value=math.nan)),
                                       message="NaN or infinite"),
        "inf-mid-path-level": ensemble(npy_edit(put((5, 3, 1), value=math.inf)),
                                       message="NaN or infinite"),
    },
    "test_degenerate_scr_is_4": {None: ensemble(npy_edit(
        lambda a: np.repeat(a[:1], len(a), axis=0)), code=4, message="SCR must be positive")},
    "test_rewritten_intact_ensemble_is_0": {None: ensemble(
        npy_edit(lambda a: a), rehash=False, code=0, message="")},
    "test_row_truncated_ensemble_is_3": {None: ensemble(npy_edit(lambda a: a[:-30]))},
}
# every (stage, artifact) pair above but the manifest's, through each damage
# its recorded checksum refuses
LOADED = {case[:2] for group in DAMAGES.values() for case in group.values()}
DAMAGES["test_damaged_artifact_is_3"] = {
    f"{stage}-{name}-{label}": checksum_row(stage, name, label)
    for stage, name in sorted(LOADED) if name != MANIFEST for label in CHECKSUM_DAMAGES}


def cases(test):
    """The rows of DAMAGES[test] as parameters with their ids."""
    return [pytest.param(case, id=id) for id, case in DAMAGES[test].items()]


def file_states(root: Path) -> dict:
    """Every file under `root`, hidden pending files included, with its bytes and mtime."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def damaged(pipeline, foreign_run, tmp_path, caplog):
    """Runs one row of DAMAGES: the stage, run on a copy of the pipeline whose
    artifact went through the damage, exits with the row's code and logs its
    message; a refusal leaves every file of the copy with its bytes and
    mtime, and no pending file (test_a_stage_that_raises_leaves_every_file)."""
    def check(case):
        stage, name, damage, rehash, code, message = case
        copy = shutil.copytree(pipeline[0], tmp_path / "copy")
        path, manifest = copy / "run" / name, copy / "run" / MANIFEST
        data = damage(path.read_bytes(), (foreign_run / name).read_bytes())
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        if rehash:
            doc = json.loads(manifest.read_text())
            for record in doc["stages"].values():
                if name in record["files"]:
                    record["files"][name] = hashlib.sha256(data).hexdigest()
            manifest.write_text(json.dumps(doc))
        for file in file_states(copy):
            os.utime(file, ns=(1, 1))
        before = file_states(copy)
        assert main([stage, "--config", str(copy / "config.json"), "--quiet"]) == code
        assert message in caplog.text
        if code:
            assert file_states(copy) == before
    return check


class TestArtifactRule:
    def test_manifest_binds_every_file(self, pipeline):
        root, _ = pipeline
        out = root / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["stages"]) == list(STAGES)
        for stage, record in manifest["stages"].items():
            assert record["files"], stage
            for name, digest in record["files"].items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_manifest_records_each_stage_peak_rss(self, pipeline):
        root, _ = pipeline
        manifest = json.loads((root / "run" / "manifest.json").read_text())
        # the stages ran in this process, so none can exceed its peak so far
        ceiling = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "blas": {"name": blas["name"], "version": blas["version"]}}
        for stage, record in manifest["stages"].items():
            assert {"completed", "files", "elapsed_s", "cpu_s", "start_rss_mb", "peak_rss_mb",
                    "minor_faults", "env"} <= record.keys(), stage
            assert 0 < record["peak_rss_mb"] <= ceiling + 0.01, stage
            assert 0 < record["elapsed_s"] and 0 <= record["cpu_s"], stage
            assert record["env"] == env, stage

    def test_manifest_records_each_stage_memory_baseline(self, pipeline):
        """Each record gives the RSS the body started from (interpreter,
        imports, config) below its peak, and the body's minor page faults."""
        root, _ = pipeline
        manifest = json.loads((root / "run" / "manifest.json").read_text())
        for stage, record in manifest["stages"].items():
            assert 0 < record["start_rss_mb"] <= record["peak_rss_mb"], stage
            assert type(record["minor_faults"]) is int and record["minor_faults"] >= 0, stage

    def test_readme_names_every_recorded_fact(self, pipeline):
        """Every key a stage record carries is named in README's manifest
        paragraph, so the documented manifest cannot drift from the code."""
        root, _ = pipeline
        manifest = json.loads((root / "run" / "manifest.json").read_text())
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = next(p for p in readme.split("\n\n") if "`manifest.json` carries" in p)
        keys = {key for record in manifest["stages"].values() for key in record}
        assert {"path_blocks", "max_grad_norm", "adf_lags", "elapsed_s", "start_rss_mb",
                "minor_faults", "env"} <= keys
        assert not [key for key in sorted(keys) if f"`{key}`" not in paragraph]

    def test_stages_read_only_through_load(self, tmp_path, monkeypatch):
        """Each stage opens no run-directory file for reading but
        manifest.json and the ones it reads through RunContext.load, each of
        which has a row in DAMAGES, and opens no file for writing under its
        final name: it writes only pending files, which the runner moves
        into place."""
        cfg = write_config(tmp_path)
        run_dir = (tmp_path / "run").resolve()
        opened, loaded, written = set(), set(), set()
        real_open, real_load = io.open, getattr(RunContext, "load", None)

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                path = Path(file).resolve()
                if set(mode) & set("wax+"):
                    written.add(path.name)
                elif path.parent == run_dir:
                    opened.add(path.name)
            return real_open(file, mode, *args, **kwargs)

        def recording_load(self, name, parse):
            loaded.add(name)
            return real_load(self, name, parse)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(RunContext, "load", recording_load, raising=False)
        for stage in STAGES:
            opened.clear()
            loaded.clear()
            written.clear()
            assert main([stage, "--config", str(cfg), "--quiet"]) == 0, stage
            assert opened - {"manifest.json"} <= loaded, stage
            assert "manifest.json" in opened or stage == "synth", stage
            assert written and all(re.fullmatch(rf"\..+\.{os.getpid()}\.pending", n)
                                   for n in written), stage
            assert {(stage, name) for name in loaded} <= LOADED, stage

    @pytest.mark.parametrize("case", cases("test_damaged_artifact_is_3"))
    def test_damaged_artifact_is_3(self, damaged, case):
        damaged(case)

    @pytest.mark.parametrize("case", cases("test_misshapen_manifest_is_3"))
    def test_misshapen_manifest_is_3(self, damaged, case):
        """A manifest that parses, with the run's config_hash, but whose
        `stages` is not a dict of stage records mapping file names to
        SHA-256 digests is refused by name, never with a traceback."""
        damaged(case)

    def test_manifest_without_config_hash_is_3(self, damaged):
        damaged(DAMAGES["test_manifest_without_config_hash_is_3"][None])


class TestExitCodes:
    def test_missing_data_file_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # no synth run: data file absent
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 2

    def test_missing_upstream_stage_is_3(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["train", "--config", str(cfg), "--quiet"]) == 3

    @pytest.mark.parametrize("data", [
        {"year_range": [1980, 2020]},
        {"cluster_csv": "data/cluster.csv", "countries": [{"code": "A", "rates": "a"}]},
    ], ids=["no-cluster-csv", "both-sources"])
    def test_synth_without_the_csv_fit_reads_is_1(self, tmp_path, caplog, data):
        """synth writes the CSV that fit reads, so it refuses a config that
        names no cluster_csv or names countries too."""
        cfg = write_config(tmp_path, data=data)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "data.cluster_csv" in errors[0].getMessage()

    def test_mixed_hashes_refused_with_3(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 0
        # a different seed is a different config hash over the same out dir
        write_config(tmp_path, seed=1)
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 3

    @staticmethod
    def _scale_first_rate(path: Path, factor: float) -> None:
        lines = path.read_bytes().split(b"\r\n")
        row = 2 if lines[0].startswith(b"#") else 1  # after the hash and column lines
        code, year, age, rate = lines[row].split(b",")
        lines[row] = b",".join([code, year, age, repr(float(rate) * factor).encode()])
        path.write_bytes(b"\r\n".join(lines))

    def test_data_csv_edited_after_synth_is_3(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        self._scale_first_rate(tmp_path / "data" / "cluster.csv", 1.5)
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 3
        assert "does not match its checksum" in caplog.text and "rerun synth" in caplog.text

    def test_data_csv_synth_never_recorded_is_read(self, tmp_path):
        made, own = tmp_path / "made", tmp_path / "own"
        made.mkdir()
        assert main(["synth", "--config", str(write_config(made)), "--quiet"]) == 0
        (own / "data").mkdir(parents=True)
        shutil.copy(made / "data" / "cluster.csv", own / "data" / "cluster.csv")
        self._scale_first_rate(own / "data" / "cluster.csv", 1.5)
        assert main(["fit", "--config", str(write_config(own)), "--quiet"]) == 0

    def test_fit_on_a_cluster_too_short_for_the_tests_is_4(self, tmp_path, caplog):
        """16 years leave a factor series too short for the ADF lag rule:
        fit exits 4."""
        years = {"year_range": [2005, 2020]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 1, "out_dir": "run", "split_year": 2016, "lookback": 3, "synth": years,
            "data": {"cluster_csv": "data/cluster.csv", **years},
        }))
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 4
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "series too short" in errors[0].getMessage()

    def test_stress_with_an_empty_es_tail_is_4(self, tmp_path, caplog):
        # 50 paths pass the forecast floor, but the 99% ES needs 100
        cfg = write_config(tmp_path, train={"max_epochs": 5},
                           forecast={"horizon": 2, "n_paths": 50})
        for stage in ("synth", "fit", "train", "forecast"):
            assert main([stage, "--config", str(cfg), "--quiet"]) == 0
        assert main(["stress", "--config", str(cfg), "--quiet"]) == 4
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "tail is empty" in errors[0].getMessage()

    def test_shap_budget_below_d_minus_1_is_4(self, tmp_path, caplog):
        # d = 10 lags x 4 factors = 40: 3 coalitions cannot determine 39 unknowns
        cfg = write_config(tmp_path, train={"max_epochs": 5}, explain={"n_coalitions": 3})
        for stage in ("synth", "fit", "train"):
            assert main([stage, "--config", str(cfg), "--quiet"]) == 0
        assert main(["explain", "--config", str(cfg), "--quiet"]) == 4
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "must be at least 39" in errors[0].getMessage()

    @pytest.mark.parametrize("keep", ["one-country", "header-only"])
    def test_cluster_of_fewer_than_two_countries_is_2(self, tmp_path, caplog, keep):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        data = tmp_path / "data" / "cluster.csv"
        lines = data.read_text().splitlines(keepends=True)
        head, rows = lines[:2], lines[2:]  # config_hash line, column header
        if keep == "one-country":
            rows = [row for row in rows if row.split(",")[0] == rows[0].split(",")[0]]
        else:
            rows = []
        data.write_text("".join(head + rows))
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 2
        assert "a cluster needs at least 2 countries" in caplog.text

    def test_country_named_twice_is_2(self, tmp_path, caplog):
        data = {"cluster_csv": "data/cluster.csv", "year_range": [1980, 2020],
                "country_order": ["SYA", "SYA", "SYB"]}
        cfg = write_config(tmp_path, data=data)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 2
        assert "SYA appears more than once" in caplog.text

    def test_lapack_failure_is_5(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 0

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        assert main(["fit", "--config", str(cfg), "--quiet"]) == 5

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

    @pytest.mark.parametrize("text, message", [
        ("5", "config is not a valid JSON object"),
        ('{"seed": 1, "train": 3}', "config section 'train' must be a JSON object, not int"),
        ('{"seed": 1, "forecast": {"n_paths": 1}}', "forecast.n_paths must be an integer >= 2"),
        ('{"seed": 1, "forecast": {"horizon": 0}}', "forecast.horizon must be an integer >= 1"),
        ('{"seed": 1, "explain": {"n_coalitions": -5}}',
         "explain.n_coalitions must be an integer >= 1"),
        ('{"seed": 1, "train": {"patience": 0}}', "train.patience must be an integer >= 1"),
        ('{"seed": 1, "train": {"max_epochs": 0}}', "train.max_epochs must be an integer >= 1"),
        ('{"seed": 1, "explain": {"max_test_windows": -14}}',
         "explain.max_test_windows must be an integer >= 1"),
        ('{"seed": 1, "train": {"patience": 2.5}}', "train.patience must be an integer >= 1"),
        ('{"seed": 1, "explain": {"max_test_windows": true}}',
         "explain.max_test_windows must be an integer >= 1"),
        ('{"seed": 1, "train": {"max_epoch": 3, "patience": 20}}',
         "unknown config key 'train.max_epoch'"),
        ('{"seed": 1, "validate": {"mode": "one_step"}}', "unknown config key 'validate'"),
        ('{"seed": 1, "forecast": {"quantiles": [0.5, 1.5]}}',
         "forecast.quantiles must be a non-empty list of numbers in [0, 1]"),
        ('{"seed": 1, "stress": {"shock_grid": [0.0, 0.1]}}',
         "stress.shock_grid must be a non-empty list of numbers in (0, 1)"),
        ('{"seed": 1, "ablate": {"lookbacks": [0]}}',
         "ablate.lookbacks must be a non-empty list of integers >= 1"),
        ('{"seed": 1, "ablate": {"lookbacks": [5, 7.5]}}',
         "ablate.lookbacks must be a non-empty list of integers >= 1"),
        ('{"seed": 1, "dropout": 1.5}', "config dropout must be a number in [0, 1), got 1.5"),
        ('{"seed": 1, "hidden": [0, 4]}', "config hidden must be a list of 2 integers >= 1"),
        ('{"seed": 1, "hidden": [32]}', "config hidden must be a list of 2 integers >= 1"),
        ('{"seed": 1, "lookback": 0}', "config lookback must be an integer >= 1, got 0"),
        ('{"seed": 1, "lookback": 1.5}', "config lookback must be an integer >= 1, got 1.5"),
        ('{"seed": 1, "train": {"learning_rate": -1.0}}',
         "config train.learning_rate must be a number > 0, got -1.0"),
        ('{"seed": 1, "data": {"cluster_csv": "c.csv", "year_rnage": [2000, 2020]}}',
         "unknown config key 'data.year_rnage'"),
        ('{"seed": true}', "config seed must be an integer >= 0, got True"),
        ('{"seed": -1}', "config seed must be an integer >= 0, got -1"),
        ('{"seed": 1, "synth": {"noise_sd": -1}}',
         "config synth.noise_sd must be a number >= 0, got -1"),
        ('{"seed": 1, "data": {"cluster_csv": "c.csv", "countries": [{"code": "A", "rates": "a"}]}}',
         "config data sets both 'cluster_csv' and 'countries'"),
        ('{"seed": 1, "synth": {"n_countries": 1}}',
         "config synth.n_countries must be an integer >= 2, got 1"),
    ], ids=["top-level", "section", "n_paths", "horizon", "n_coalitions",
            "patience", "max_epochs", "max_test_windows", "patience-not-integer", "boolean",
            "section-typo", "removed-validate", "quantile-range", "shock-range",
            "lookback-floor", "lookback-not-integer", "dropout-range", "hidden-floor",
            "hidden-length", "lookback-zero", "lookback-fraction", "learning-rate-sign",
            "data-typo", "seed-boolean", "seed-negative", "noise-sign", "data-both-sources",
            "synth-one-country"])
    def test_config_not_an_object_is_1(self, tmp_path, caplog, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["fit", "--config", str(bad), "--quiet"]) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and message in errors[0].getMessage()

    def test_environment_changes_no_run(self, tmp_path, monkeypatch):
        """A run's settings are its config's: MORTLAB_OUT moves no artifact
        and MORTLAB_LOG=verbose refuses no run."""
        monkeypatch.setenv("MORTLAB_OUT", str(tmp_path / "elsewhere"))
        monkeypatch.setenv("MORTLAB_LOG", "verbose")
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert "truth_params.json" in json.loads(
            (tmp_path / "run" / "manifest.json").read_text())["stages"]["synth"]["files"]
        assert not (tmp_path / "elsewhere").exists()

    def test_out_option_is_1(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", str(cfg), "--out", str(tmp_path / "other")])
        assert exc.value.code == 1
        assert not (tmp_path / "other").exists() and not (tmp_path / "run").exists()

    def test_stage_options(self, capsys):
        """Every stage takes the config and --quiet, and nothing else."""
        for stage in STAGES:
            with pytest.raises(SystemExit) as exc:
                main([stage, "--help"])
            assert exc.value.code == 0
            options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
            assert options == {"--help", "--config", "--quiet"}, stage

    @pytest.mark.parametrize("stage", ["forecast", "stress"])
    def test_focus_country_outside_cluster_writes_nothing(self, pipeline, tmp_path, caplog, stage):
        """A focus_country outside the cluster exits 1; like every refusal it
        writes nothing (test_a_stage_that_raises_leaves_every_file)."""
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        cfg = json.loads((copy / "config.json").read_text())
        cfg["focus_country"] = "XXX"
        (copy / "config.json").write_text(json.dumps(cfg))
        manifest = json.loads((copy / "run" / "manifest.json").read_text())
        manifest["config_hash"] = cli.config_hash(cli._checked(cfg)[1])
        (copy / "run" / "manifest.json").write_text(json.dumps(manifest))
        assert main([stage, "--config", str(copy / "config.json"), "--quiet"]) == 1
        assert "focus_country 'XXX' is not in the cluster" in caplog.text


# config_hash of three configs, computed before the config table replaced
# the per-rule tables: a valid config's hash, and so its artifacts, must
# not move when the config's checking changes

    @pytest.mark.parametrize("case", cases("test_cut_json_artifact_is_3"))
    def test_cut_json_artifact_is_3(self, damaged, case):
        """The artifact cut to 5 bytes, or replaced by a document that
        parses as JSON but is incomplete, of the wrong schema or invalid."""
        damaged(case)

    # alpha 1e3 overflows exp in the life table, and inf / inf is NaN there
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("case", cases("test_non_finite_figure_is_4"))
    def test_non_finite_figure_is_4(self, damaged, case):
        """An e0 or risk figure that would be NaN or infinite is refused
        before the stage commits."""
        damaged(case)

    @pytest.mark.parametrize("case", cases("test_bad_observed_e0_is_3"))
    def test_bad_observed_e0_is_3(self, damaged, case):
        damaged(case)

    @pytest.mark.parametrize("case", cases("test_manifest_disagreeing_with_ensemble_is_3"))
    def test_manifest_disagreeing_with_ensemble_is_3(self, damaged, case):
        damaged(case)

    @pytest.mark.parametrize("case", cases("test_misshapen_ensemble_with_recorded_checksum_is_3"))
    def test_misshapen_ensemble_with_recorded_checksum_is_3(self, damaged, case):
        damaged(case)

    @pytest.mark.parametrize("case", cases("test_ensemble_refusal_names_its_check"))
    def test_ensemble_refusal_names_its_check(self, damaged, case):
        """Each structural check refuses on its own: the reshaped file keeps
        the payload bytes and only its header disagrees."""
        damaged(case)

    @pytest.mark.parametrize("case", cases("test_non_finite_ensemble_is_3"))
    def test_non_finite_ensemble_is_3(self, damaged, case):
        """One NaN or infinite level, its checksum recorded, is refused before
        stress writes risk.csv or stress.json."""
        damaged(case)

    def test_degenerate_scr_is_4(self, damaged):
        # identical paths make SCR exactly zero
        damaged(DAMAGES["test_degenerate_scr_is_4"][None])

    def test_rewritten_intact_ensemble_is_0(self, damaged):
        damaged(DAMAGES["test_rewritten_intact_ensemble_is_0"][None])

    def test_row_truncated_ensemble_is_3(self, damaged):
        # a well-formed file missing its last 30 paths, checksum recorded
        damaged(DAMAGES["test_row_truncated_ensemble_is_3"][None])
README_CONFIG = {
    "out_dir": "run",
    "data": {"cluster_csv": "data/cluster.csv", "year_range": [1956, 2020]},
    "synth": {"n_countries": 3, "regime": "unit_root", "noise_sd": 0.01,
              "year_range": [1956, 2020]},
}
PINNED_HASHES = [
    ({"seed": 4242, **README_CONFIG}, "2e10143de92009ef"),
    ({"seed": 1, **README_CONFIG, "split_year": 2005,
      "train": {"patience": 60, "max_epochs": 60}, "forecast": {"n_paths": 100},
      "data": {"cluster_csv": "data/cluster.csv", "year_range": [1921, 2020]},
      "synth": {"n_countries": 6, "regime": "stationary", "noise_sd": 0.01,
                "year_range": [1921, 2020]}}, "88e363cf85be2cf3"),
    ({"seed": 1, **README_CONFIG, "forecast": {"n_paths": 2000}}, "0064e8f5c159d2bd"),
]


class TestConfigHash:
    @pytest.mark.parametrize("cfg, digest", PINNED_HASHES, ids=["readme", "wide-6c", "tail-2k"])
    def test_hash_is_pinned(self, tmp_path, cfg, digest):
        assert RunContext(cfg, tmp_path).hash == digest


def readme_config_rows() -> dict[str, list[str]]:
    """README's config table: key -> the cells after it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config reference", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|(.*)\|$", table, flags=re.MULTILINE)
    return {key: [cell.strip() for cell in cells.split("|")] for key, cells in rows}


class TestConfigReference:
    def test_readme_table_lists_the_accepted_keys(self):
        """README's config table names every top-level key a config may set,
        and no other."""
        keys = readme_config_rows()
        assert {key.split(".")[0] for key in keys} == set(cli.CONFIG)

    def test_readme_table_states_each_default_and_rule(self):
        """README's config table has one row per key, giving the key's
        default and its rule as the config table has them."""
        table = {}
        for name, key in cli.CONFIG.items():
            subs = key.items() if isinstance(key, dict) else [(None, key)]
            table.update({f"{name}.{sub}" if sub else name: k for sub, k in subs})
        rows = readme_config_rows()
        assert rows.keys() == table.keys()
        for name, (default, rule, _) in table.items():
            want = "required" if default == "required" else f"`{json.dumps(default)}`"
            assert rows[name][:2] == [want, rule], name

    def test_library_defaults_are_the_configs(self, tmp_path):
        """The defaults the CLI and the library share agree, so README's
        library example and the CLI train the same default model."""
        ctx = RunContext({"seed": 0}, tmp_path)
        seed = cli.stream_seed(0, "train")
        assert cli._hybrid_config(ctx, "train") == HybridConfig(train=TrainConfig(seed=seed))
        assert ctx.cfg["stress"]["shock_grid"] == risk.DEFAULT_SHOCK_GRID
        n_paths = inspect.signature(forecast_stochastic).parameters["n_paths"].default
        assert ctx.cfg["forecast"]["n_paths"] == n_paths


class TestStageRunner:
    @pytest.mark.parametrize("run", ["fresh", "completed"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_a_stage_that_raises_leaves_every_file(self, pipeline, tmp_path, monkeypatch,
                                                   stage, run):
        """A body that raises after all its writes leaves every file, the data
        CSV and manifest.json included, with its bytes and mtime, and no
        pending file: in a run directory where only the earlier stages ran,
        and over a completed run."""
        if run == "fresh":
            cfg = write_config(tmp_path)
            for earlier in STAGES[: STAGES.index(stage)]:
                assert main([earlier, "--config", str(cfg), "--quiet"]) == 0, earlier
        else:
            cfg = shutil.copytree(pipeline[0], tmp_path / "copy") / "config.json"

        for path in file_states(tmp_path):
            os.utime(path, ns=(1, 1))
        before, body = file_states(tmp_path), getattr(cli, f"cmd_{stage}")

        def raising(ctx):
            body(ctx)
            raise DegenerateRiskError("refused after the body's writes")

        monkeypatch.setattr(cli, f"cmd_{stage}", raising)
        assert main([stage, "--config", str(cfg), "--quiet"]) == 4
        assert file_states(tmp_path) == before

    def test_overlapping_stages_keep_each_others_records(self, pipeline, tmp_path, monkeypatch):
        """explain, started and committed while validate's body runs, keeps
        its record when validate commits.  The body is a wrapper bound to
        cli.cmd_validate after import, and the facts it returns are recorded."""
        copy = shutil.copytree(pipeline[0], tmp_path / "copy")
        cfg, manifest = str(copy / "config.json"), copy / "run" / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["stages"]["explain"]
        manifest.write_text(json.dumps(doc))
        body = cli.cmd_validate

        def overlapped(ctx):
            body(ctx)
            assert main(["explain", "--config", cfg, "--quiet"]) == 0
            return {"probe": 1}

        monkeypatch.setattr(cli, "cmd_validate", overlapped)
        assert main(["validate", "--config", cfg, "--quiet"]) == 0
        stages = json.loads(manifest.read_text())["stages"]
        assert stages["validate"]["probe"] == 1
        for name, digest in {**stages["validate"]["files"], **stages["explain"]["files"]}.items():
            assert hashlib.sha256((copy / "run" / name).read_bytes()).hexdigest() == digest, name

    def test_a_commit_deletes_the_pending_files_of_dead_processes(self, tmp_path):
        """A pending file named for a process that has exited is gone after
        the next commit; one named for a live process stays."""
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait()
        live = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            ctx = RunContext({"seed": 0, "out_dir": "run"}, tmp_path)
            dead_file = ctx.path(f".ensemble.npy.{exited.pid}.pending")
            live_file = ctx.path(f".ensemble.npy.{live.pid}.pending")
            for path in (dead_file, live_file):
                path.write_bytes(b"left by a stage")
            ctx.write("probe.txt", "committed")
            ctx.record_stage("probe")
            assert not dead_file.exists() and live_file.exists()
            assert ctx.path("probe.txt").read_text() == "committed"
        finally:
            live.kill()
            live.wait()

    def test_a_stage_commits_only_under_the_run_directory_lock(self, tmp_path, monkeypatch):
        """While another holder keeps the run directory locked, a finished
        stage's files stay pending and manifest.json has no record of it;
        once the lock is released, both appear."""
        cfg = write_config(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        body, finished, codes = cli.cmd_synth, threading.Event(), []

        def signalling(ctx):
            facts = body(ctx)
            finished.set()
            return facts

        monkeypatch.setattr(cli, "cmd_synth", signalling)
        lock = os.open(run, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            stage = threading.Thread(
                target=lambda: codes.append(main(["synth", "--config", str(cfg), "--quiet"])))
            stage.start()
            assert finished.wait(60)
            stage.join(0.5)
            assert stage.is_alive()
            assert [p.name for p in run.iterdir()] == [
                f".truth_params.json.{os.getpid()}.pending"]
        finally:
            os.close(lock)  # and with it the lock
        stage.join(60)
        assert codes == [0]
        assert sorted(p.name for p in run.iterdir()) == ["manifest.json", "truth_params.json"]
        assert "synth" in json.loads((run / "manifest.json").read_text())["stages"]

    def test_each_load_trims_once_after_its_parse(self, pipeline, tmp_path, monkeypatch):
        """Every successful `load` (the manifest's included) and `fit`'s data
        read hand the heap back exactly once, after their parse; a refused
        load does not."""
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        events = []
        real_load = RunContext.load
        real_load_dataset = cli.load_dataset

        def recording_load(self, name, parse):
            def recorded_parse(data):
                events.append(("parse", name))
                return parse(data)
            return real_load(self, name, recorded_parse)

        def recording_load_dataset(ctx):
            dataset = real_load_dataset(ctx)
            events.append(("parse", "data"))
            return dataset

        monkeypatch.setattr(cli, "_trim", lambda pad: events.append(("trim", pad)))
        monkeypatch.setattr(RunContext, "load", recording_load)
        monkeypatch.setattr(cli, "load_dataset", recording_load_dataset)
        for stage, read in (("fit", "data"), ("forecast", "params.json"),
                            ("stress", "params.json")):
            events.clear()
            assert main([stage, "--config", str(copy / "config.json"), "--quiet"]) == 0, stage
            parsed = [name for kind, name in events if kind == "parse"]
            assert "manifest.json" in parsed and read in parsed, stage
            assert events == [e for name in parsed for e in (("parse", name), ("trim", 0))], stage
        ctx = RunContext(json.loads((copy / "config.json").read_text()), copy)
        events.clear()
        with pytest.raises(cli.StageError, match="does not parse"):
            ctx.load("params.json", lambda data: json.loads(b"{" + data))
        assert events == [("parse", "params.json")]

    def test_without_malloc_trim_forecast_and_stress_give_the_same_bytes(
        self, pipeline, tmp_path, monkeypatch
    ):
        """Where glibc's malloc_trim is missing the reads skip the trim,
        and the run's artifacts keep their bytes."""
        root, _ = pipeline
        copy = shutil.copytree(root, tmp_path / "copy")
        for name in ("ensemble.npy", "risk.csv", "stress.json"):
            (copy / "run" / name).unlink()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._malloc_trim() is None
        monkeypatch.setattr(cli, "_trim", cli._malloc_trim())
        for stage in ("forecast", "stress"):
            assert main([stage, "--config", str(copy / "config.json"), "--quiet"]) == 0, stage
        files = sorted(p.name for p in (root / "run").iterdir() if p.name != "manifest.json")
        assert files == sorted(p.name for p in (copy / "run").iterdir()
                               if p.name != "manifest.json")
        for name in files:
            assert (copy / "run" / name).read_bytes() == (root / "run" / name).read_bytes(), name

    def test_malloc_trim_is_none_without_libc(self, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(cli.ctypes, "CDLL", missing)
        assert cli._malloc_trim() is None

    def test_tracer_targets_resolve(self, monkeypatch):
        """Every function perfbench's tracer wraps by name exists, and the
        stage bodies it wraps are the CLI's stages, in order."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        # its dataclasses resolve their annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, spans)
        spec.loader.exec_module(spans)
        for layer, names in spans.TARGETS.items():
            module = importlib.import_module(f"mortlab.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"mortlab.{layer}.{name}"
        bodies = [name for name in spans.TARGETS["cli"] if name.startswith("cmd_")]
        assert bodies == [f"cmd_{stage}" for stage in STAGES]
