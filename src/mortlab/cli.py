"""Command-line pipeline: synth, fit, train, forecast, validate, explain,
stress, ablate.

Every run is driven by one JSON config.  The config's SHA-256 hash (minus
the output directory) is stamped into every CSV and JSON artifact; stages
refuse to mix artifacts from different hashes.  The binary ensemble
(`ensemble.npy`, little-endian float64, paths x (horizon + 1) x factors,
origin row included) is bound to the run by the SHA-256 of its bytes in
the hash-stamped forecast_manifest.json; stress refuses it unless bytes,
header, shape and origin row are exactly what forecast wrote.  All
randomness flows from the single config seed through named substreams, so
reruns, the ensemble's bytes included, are bit-reproducible.

Exit codes: 0 ok, 1 usage/config, 2 data, 3 missing, mismatched or
unparseable stage artifacts, 4 degenerate domain, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import benchmark, explain, lifetable, risk, stationarity
from .data import read_cluster_csv, synthesize_cluster, synthetic_truth, write_cluster_csv
from .data import ClusterDataset, build_surface, parse_hmd_file
from .errors import (
    ConfigError,
    ConvergenceError,
    DataGapError,
    DegenerateRiskError,
    DegenerateSeriesError,
    DomainError,
    ExposureError,
    InsufficientHistoryError,
    MortlabError,
    NumericError,
    ParseError,
    RankError,
    RegressionError,
    ScalingError,
    StageError,
    StructureError,
    TrainingError,
)
from .forecast import (
    ensemble_quantiles,
    fit_forecaster,
    forecast_stochastic,
    historical_diff_sd,
    load_forecaster,
    save_forecaster,
    ForecastEnsemble,
)
from .lilee import FactorPanel, fit_lilee, load_params, save_params
from .lstm import TrainConfig
from .windows import difference, make_windows, split_windows, transform
from .windows import DiffPanel

log = logging.getLogger("mortlab")

# Substream ids: SeedSequence((seed, STREAM[name])) feeds each stage.
STREAMS = {"synth": 0, "train": 1, "forecast": 2, "explain": 3, "ablate": 4}

SYNTH_REGIMES = {
    "unit_root": dict(
        specific="unit_root",
        specific_drift=0.35,
        specific_sigma=0.25,
        common_drift=-1.0,
        common_sigma=0.3,
    ),
    "stationary": dict(
        specific="stationary",
        specific_phi=0.75,
        specific_sigma=0.2,
        common_drift=-1.0,
        common_sigma=0.15,
    ),
    "rank1": dict(specific="none", common_drift=-1.0, common_sigma=0.3),
}


def stream_seed(seed: int, name: str) -> int:
    """Deterministic 32-bit substream seed for a named stage."""
    ss = np.random.SeedSequence((int(seed), STREAMS[name]))
    return int(ss.generate_state(1)[0])


def config_hash(cfg: dict) -> str:
    """Hash over the canonical config, ignoring the output location."""
    trimmed = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_DEFAULTS = {
    "split_year": 2011,
    "lookback": 10,
    "hidden": [32, 16],
    "dropout": 0.2,
    "train": {"learning_rate": 1e-3, "max_epochs": 500, "patience": 15},
    "forecast": {"horizon": 30, "n_paths": 1000, "quantiles": [0.025, 0.10, 0.50, 0.90, 0.975]},
    "stress": {"shock_grid": [0.05, 0.10, 0.15, 0.20]},
    "validate": {"rmse_target": "specific_factors", "mode": "recursive"},
    "explain": {"n_coalitions": None, "max_test_windows": None},
    "ablate": {"lookbacks": [5, 10, 15]},
    "synth": {"n_countries": 3, "regime": "unit_root", "noise_sd": 0.01, "year_range": [1956, 2020]},
}


class RunContext:
    """Resolved configuration plus artifact bookkeeping for one run."""

    def __init__(self, cfg: dict, config_dir: Path):
        if "seed" not in cfg or not isinstance(cfg["seed"], int):
            raise ConfigError("config must set an integer 'seed'")
        self.cfg = {**_DEFAULTS, **cfg}
        for key, sub in _DEFAULTS.items():
            if isinstance(sub, dict):
                self.cfg[key] = {**sub, **cfg.get(key, {})}
        self.config_dir = config_dir
        self.hash = config_hash(self.cfg)
        out = os.environ.get("MORTLAB_OUT") or self.cfg.get("out_dir") or f"runs/{self.hash[:8]}"
        out_path = Path(out)
        self.out_dir = out_path if out_path.is_absolute() else config_dir / out_path
        self.out_dir.mkdir(parents=True, exist_ok=True)

    @property
    def seed(self) -> int:
        return int(self.cfg["seed"])

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def data_path(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.config_dir / p

    # -- manifest -----------------------------------------------------------
    def check_manifest(self):
        mpath = self.path("manifest.json")
        if mpath.exists():
            doc = _parse_artifact("manifest.json", json.loads, mpath.read_text())
            if doc.get("config_hash") != self.hash:
                raise StageError(
                    f"output directory {self.out_dir} holds artifacts for config "
                    f"{doc.get('config_hash')}, current config is {self.hash}; refusing to mix"
                )
            return doc
        return {"config_hash": self.hash, "stages": {}}

    def record_stage(self, manifest: dict, stage: str, files: list[str], **facts):
        manifest["stages"][stage] = {
            "completed": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "files": files,
            **facts,
        }
        self.path("manifest.json").write_text(json.dumps(manifest, indent=2))

    def require_stage(self, stage: str):
        manifest = self.check_manifest()
        if stage not in manifest["stages"]:
            raise StageError(f"stage '{stage}' has not been run for this config; run it first")

    # -- artifact io ---------------------------------------------------------
    def write_csv(self, name: str, header: list[str], rows):
        path = self.path(name)
        with path.open("w", newline="") as fh:
            fh.write(f"# config_hash={self.hash}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return name

    def write_json(self, name: str, doc: dict):
        doc = {"config_hash": self.hash, **doc}
        self.path(name).write_text(json.dumps(doc, indent=2))
        return name

    def read_json(self, name: str) -> dict:
        path = self.path(name)
        if not path.exists():
            raise StageError(f"missing artifact {name}; run the producing stage first")
        doc = _parse_artifact(name, json.loads, path.read_text())
        if doc.get("config_hash") not in (None, self.hash):
            raise StageError(
                f"artifact {name} was produced under config {doc.get('config_hash')}, "
                f"current is {self.hash}; refusing to mix"
            )
        return doc


def _parse_artifact(name: str, load, *args):
    """`load(*args)`; an artifact that does not parse is refused (exit 3)."""
    try:
        return load(*args)
    except json.JSONDecodeError as exc:
        raise StageError(f"artifact {name} does not parse: {exc}") from exc


def load_context(args) -> RunContext:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise FileNotFoundError(f"config file not found: {cfg_path}")
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if getattr(args, "seed_override", None) is not None:
        cfg["seed"] = int(args.seed_override)
    if getattr(args, "out", None):
        cfg["out_dir"] = args.out
    return RunContext(cfg, cfg_path.resolve().parent)


# -- data loading -------------------------------------------------------------


def load_dataset(ctx: RunContext) -> ClusterDataset:
    data = ctx.cfg.get("data")
    if not data:
        raise ConfigError("config is missing the 'data' section")
    year_range = tuple(data["year_range"]) if "year_range" in data else None
    age_max = int(data.get("age_max", 90))
    if "cluster_csv" in data:
        path = ctx.data_path(data["cluster_csv"])
        if not path.exists():
            raise FileNotFoundError(f"data file not found: {path}")
        return read_cluster_csv(
            path,
            country_order=data.get("country_order"),
            year_range=year_range,
            age_max=age_max,
        )
    if "countries" not in data:
        raise ConfigError("data section needs 'cluster_csv' or 'countries'")
    surfaces = []
    for entry in data["countries"]:
        code = entry["code"]
        impute = bool(data.get("impute_gaps", False))
        if "rates" in entry:
            path = ctx.data_path(entry["rates"])
            if not path.exists():
                raise FileNotFoundError(f"data file not found: {path}")
            rows = parse_hmd_file(path.read_text(), kind="rates")
            surfaces.append(
                build_surface(rows, country=code, year_range=year_range,
                              age_max=age_max, impute_gaps=impute)
            )
        elif "deaths" in entry and "exposures" in entry:
            dpath = ctx.data_path(entry["deaths"])
            epath = ctx.data_path(entry["exposures"])
            for p in (dpath, epath):
                if not p.exists():
                    raise FileNotFoundError(f"data file not found: {p}")
            deaths = parse_hmd_file(dpath.read_text(), kind="deaths")
            expos = parse_hmd_file(epath.read_text(), kind="exposures")
            surfaces.append(
                build_surface(deaths, expos, country=code, year_range=year_range,
                              age_max=age_max, impute_gaps=impute)
            )
        else:
            raise ConfigError(
                f"country {code!r} needs 'rates' or both 'deaths' and 'exposures'"
            )
    return ClusterDataset(surfaces=tuple(surfaces))


def _focus_country(ctx: RunContext, countries) -> str:
    focus = ctx.cfg.get("focus_country") or countries[0]
    if focus not in countries:
        raise ConfigError(f"focus_country {focus!r} is not in the cluster {list(countries)}")
    return focus


def _load_model_panel(ctx: RunContext):
    ctx.require_stage("fit")
    ctx.require_stage("train")
    ctx.read_json("model.json")  # hash check
    params = _parse_artifact("params.json", load_params, ctx.path("params.json"))
    # model.json parsed just above, so only its network file can fail here
    model = _parse_artifact("network.json", load_forecaster, ctx.path("model.json"))
    return params, model, FactorPanel.from_params(params)


# -- stages -------------------------------------------------------------------


def cmd_synth(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    synth = ctx.cfg["synth"]
    regime = synth.get("regime", "unit_root")
    if regime not in SYNTH_REGIMES:
        raise ConfigError(f"unknown synth regime {regime!r}; options {sorted(SYNTH_REGIMES)}")
    seed = stream_seed(ctx.seed, "synth")
    truth = synthetic_truth(
        n_countries=int(synth.get("n_countries", 3)),
        year_range=tuple(synth.get("year_range", (1956, 2020))),
        seed=seed,
        **SYNTH_REGIMES[regime],
    )
    cluster = synthesize_cluster(truth, noise_sd=float(synth.get("noise_sd", 0.01)), seed=seed + 1)
    target = ctx.data_path(ctx.cfg.get("data", {}).get("cluster_csv", "data/cluster.csv"))
    target.parent.mkdir(parents=True, exist_ok=True)
    write_cluster_csv(cluster, target, header_lines=(f"config_hash={ctx.hash}",))
    save_params(truth, ctx.path("truth_params.json"))
    ctx.record_stage(manifest, "synth", [str(target), "truth_params.json"])
    log.info("synth: wrote %s (%d countries, regime %s)", target, len(cluster.surfaces), regime)
    return 0


def cmd_fit(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    dataset = load_dataset(ctx)
    params, _resid = fit_lilee(dataset)
    save_params(params, ctx.path("params.json"))
    # params.json has no hash field of its own; bind it through the manifest
    files = ["params.json"]

    panel = FactorPanel.from_params(params)
    files.append(
        ctx.write_csv(
            "factors.csv",
            ["year", *panel.labels],
            [[int(y), *map(float, row)] for y, row in zip(panel.years, panel.values)],
        )
    )

    rows = []
    for i, code in enumerate(params.countries):
        rep = stationarity.analyze(params.k[i])
        rows.append(
            [code, f"{rep.adf_stat:.4f}", f"{rep.adf_p:.4f}",
             f"{rep.kpss_stat:.4f}", f"{rep.kpss_p:.4f}", rep.verdict]
        )
    files.append(
        ctx.write_csv(
            "stationarity.csv",
            ["country", "adf_stat", "adf_p", "kpss_stat", "kpss_p", "verdict"],
            rows,
        )
    )

    obs_rows = [
        [s.country, int(s.years[-1]), f"{lifetable.life_table(s.m[:, -1]).e0:.4f}"]
        for s in dataset.surfaces
    ]
    files.append(ctx.write_csv("observed_e0.csv", ["country", "year", "e0_observed"], obs_rows))
    ctx.record_stage(manifest, "fit", files)
    log.info("fit: %d countries, years %s..%s", len(params.countries),
             params.years[0], params.years[-1])
    return 0


def cmd_train(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    ctx.require_stage("fit")
    params = _parse_artifact("params.json", load_params, ctx.path("params.json"))
    panel = FactorPanel.from_params(params)
    tc = ctx.cfg["train"]
    config = TrainConfig(
        learning_rate=float(tc["learning_rate"]),
        max_epochs=int(tc["max_epochs"]),
        patience=int(tc["patience"]),
        seed=stream_seed(ctx.seed, "train"),
    )
    model, trace, _windows, (train_idx, val_idx) = fit_forecaster(
        panel,
        split_year=int(ctx.cfg["split_year"]),
        lookback=int(ctx.cfg["lookback"]),
        hidden=tuple(ctx.cfg["hidden"]),
        dropout_rate=float(ctx.cfg["dropout"]),
        train_config=config,
    )
    save_forecaster(model, ctx.path("model.json"), ctx.path("network.json"))
    # stamp the bundle with the config hash for mix detection
    doc = json.loads(ctx.path("model.json").read_text())
    ctx.path("model.json").write_text(json.dumps({"config_hash": ctx.hash, **doc}))
    files = ["model.json", "network.json"]
    files.append(
        ctx.write_csv(
            "training_trace.csv",
            ["epoch", "train_mse", "val_mse"],
            [
                [e + 1, f"{tr:.8f}", f"{va:.8f}"]
                for e, (tr, va) in enumerate(zip(trace.train_mse, trace.val_mse))
            ],
        )
    )
    ctx.record_stage(manifest, "train", files)
    log.info(
        "train: %d epochs (best %d, val MSE %.5f), %d train / %d val windows",
        trace.epochs_run, trace.best_epoch, trace.best_val_mse,
        train_idx.size, val_idx.size,
    )
    return 0


ENSEMBLE = "ensemble.npy"
# the one header forecast writes: little-endian float64, C order
ENSEMBLE_DTYPE = np.dtype("<f8")


def _write_ensemble(ctx: RunContext, ens: ForecastEnsemble) -> str:
    """Save the levels, origin row included, and return the SHA-256 of the
    file's bytes.  np.save stamps no time, so reruns give the same bytes."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(ens.levels, dtype=ENSEMBLE_DTYPE), allow_pickle=False)
    data = buf.getvalue()
    ctx.path(ENSEMBLE).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _read_ensemble(ctx: RunContext, panel: FactorPanel, fdoc: dict) -> ForecastEnsemble:
    """Load the ensemble written by forecast.  The file is read once and
    refused (StageError) unless its SHA-256 is the one forecast_manifest.json
    records, its header is exactly the one forecast writes with the
    manifest's shape, its payload is complete and its row 0 is the panel's
    last year on every path."""
    path = ctx.path(ENSEMBLE)
    if not path.is_file():
        raise StageError(f"missing artifact {ENSEMBLE}; run forecast first")
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != fdoc.get("ensemble_sha256"):
        raise StageError(
            f"{ENSEMBLE} does not match the checksum in forecast_manifest.json; "
            "refusing a corrupted or foreign ensemble"
        )
    shape = (int(fdoc["n_paths"]), int(fdoc["horizon"]) + 1, panel.n_factors)
    buf = io.BytesIO(data)
    try:
        if np.lib.format.read_magic(buf) != (1, 0):
            raise ValueError("not a version 1.0 .npy file")
        header = np.lib.format.read_array_header_1_0(buf)
        if header != (shape, False, ENSEMBLE_DTYPE):
            raise ValueError(
                f"header (shape, fortran_order, dtype) = {header}, "
                f"expected {(shape, False, ENSEMBLE_DTYPE)}"
            )
        if len(data) - buf.tell() != math.prod(shape) * ENSEMBLE_DTYPE.itemsize:
            raise ValueError(f"payload is {len(data) - buf.tell()} bytes, not {shape} doubles")
        buf.seek(0)
        levels = np.load(buf, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise StageError(f"{ENSEMBLE} is unreadable or misshapen: {exc}") from exc
    origin_year = int(fdoc["origin_year"])
    if origin_year != int(panel.years[-1]) or np.any(levels[:, 0, :] != panel.values[-1]):
        raise StageError(
            f"{ENSEMBLE} does not start from the panel's last year {int(panel.years[-1])}"
        )
    return ForecastEnsemble(
        levels=levels,
        years=origin_year + np.arange(shape[1]),
        origin_year=origin_year,
        seed=int(fdoc["seed"]),
        sigma=np.asarray(fdoc["sigma"]),
    )


def cmd_forecast(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    params, model, panel = _load_model_panel(ctx)
    fc = ctx.cfg["forecast"]
    horizon = int(fc["horizon"])
    n_paths = int(fc["n_paths"])
    quantiles = tuple(float(q) for q in fc["quantiles"])
    seed = stream_seed(ctx.seed, "forecast")
    sigma = historical_diff_sd(panel)

    ens = forecast_stochastic(
        model, panel, horizon, n_paths=n_paths, sigma=sigma, seed=seed
    )
    checksum = _write_ensemble(ctx, ens)
    files = [ENSEMBLE]
    files.append(
        ctx.write_json(
            "forecast_manifest.json",
            {
                "seed": seed,
                "n_paths": n_paths,
                "horizon": horizon,
                "origin_year": int(panel.years[-1]),
                "sigma": sigma.tolist(),
                "quantiles": list(quantiles),
                "ensemble_sha256": checksum,
            },
        )
    )

    bands = ensemble_quantiles(ens, quantiles)
    fan_rows = []
    for j, lab in enumerate(panel.labels):
        for qi, q in enumerate(quantiles):
            for h in range(ens.levels.shape[1]):
                fan_rows.append([lab, int(ens.years[h]), q, repr(float(bands[qi, h, j]))])
    files.append(ctx.write_csv("fan_factors.csv", ["factor", "year", "quantile", "value"], fan_rows))

    observed = {}
    obs_path = ctx.path("observed_e0.csv")
    if obs_path.exists():
        with obs_path.open() as fh:
            rows = (line for line in fh if not line.startswith("#"))
            reader = csv.DictReader(rows)
            for row in reader:
                observed[row["country"]] = float(row["e0_observed"])

    # only the focus country's fan chart needs every horizon
    focus = _focus_country(ctx, params.countries)
    summary_rows = []
    for code in params.countries:
        if code == focus:
            focus_paths = lifetable.e0_paths(ens, params, code)
            terminal = focus_paths[:, -1]
        else:
            terminal = lifetable.e0_paths(ens, params, code, horizons=-1)
        origin_model = lifetable.e0_at(params, code, float(panel.values[-1, 0]))
        mean_term = float(terminal.mean())
        ci_low = risk.quantile(terminal, 0.025)
        ci_high = risk.quantile(terminal, 0.975)
        summary_rows.append(
            [
                code,
                f"{origin_model:.4f}",
                f"{observed.get(code, float('nan')):.4f}",
                f"{mean_term:.4f}",
                f"{ci_low:.4f}",
                f"{ci_high:.4f}",
                f"{mean_term - origin_model:.4f}",
            ]
        )
    files.append(
        ctx.write_csv(
            "e0_summary.csv",
            ["country", "e0_origin_model", "e0_origin_observed",
             "e0_terminal_mean", "ci_2.5", "ci_97.5", "net_gain"],
            summary_rows,
        )
    )

    bands_e0 = risk.sorted_quantiles(np.sort(focus_paths, axis=0), quantiles)
    fan_e0_rows = [
        [int(ens.years[h + 1]), q, f"{bands_e0[qi, h]:.4f}"]
        for qi, q in enumerate(quantiles)
        for h in range(focus_paths.shape[1])
    ]
    files.append(ctx.write_csv(f"fan_e0_{focus}.csv", ["year", "quantile", "e0"], fan_e0_rows))

    ctx.record_stage(manifest, "forecast", files, path_blocks=ens.blocks)
    log.info("forecast: %d paths x %d years, %d factors", n_paths, horizon, panel.n_factors)
    return 0


def cmd_validate(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    params, model, panel = _load_model_panel(ctx)
    vc = ctx.cfg["validate"]
    rows = benchmark.validate(
        panel,
        model,
        int(ctx.cfg["split_year"]),
        rmse_target=vc["rmse_target"],
        mode=vc["mode"],
    )
    files = [
        ctx.write_csv(
            "benchmark.csv",
            ["country", "rmse_lilee", "rmse_hybrid", "improvement_pct"],
            [
                [r.country, f"{r.rmse_lilee:.6f}", f"{r.rmse_hybrid:.6f}",
                 f"{r.improvement_pct:.3f}"]
                for r in rows
            ],
        )
    ]
    ctx.record_stage(manifest, "validate", files)
    for r in rows:
        log.info("validate: %-6s lilee %.4f hybrid %.4f (%+.2f%%)",
                 r.country, r.rmse_lilee, r.rmse_hybrid, r.improvement_pct)
    return 0


def cmd_explain(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    params, model, panel = _load_model_panel(ctx)
    split_year = int(ctx.cfg["split_year"])

    diff = difference(panel)
    scaled = DiffPanel(years=diff.years, V=transform(model.scaler, diff.V))
    windows = make_windows(scaled, model.lookback)
    train_idx, val_idx = split_windows(windows, split_year)

    prof = explain.temporal_saliency(model.net, windows.X[val_idx], output_index=0)
    files = [
        ctx.write_csv(
            "saliency.csv",
            ["lag", "importance_pct"],
            [[f"t-{model.lookback - i}", f"{v:.4f}"] for i, v in enumerate(prof)],
        )
    ]

    focus = _focus_country(ctx, params.countries)
    out_index = 1 + params.country_index(focus)
    xc = ctx.cfg["explain"]
    X_test = windows.X[val_idx]
    if xc.get("max_test_windows"):
        X_test = X_test[: int(xc["max_test_windows"])]
    rep = explain.kernel_shap(
        model.net,
        windows.X[train_idx],
        X_test,
        output_index=out_index,
        n_coalitions=xc.get("n_coalitions"),
        seed=stream_seed(ctx.seed, "explain"),
        mode="sampled",
    )
    scores = explain.aggregate_country_influence(rep)
    files.append(
        ctx.write_csv(
            "influence.csv",
            ["factor", "score"],
            [[lab, f"{s:.6f}"] for lab, s in zip(panel.labels, scores)],
        )
    )
    ctx.record_stage(manifest, "explain", files)
    log.info("explain: saliency peak at %s, top influence %s",
             f"t-{model.lookback - int(np.argmax(prof))}",
             panel.labels[int(np.argmax(scores))])
    return 0


def cmd_stress(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    params, model, panel = _load_model_panel(ctx)
    ctx.require_stage("forecast")
    fdoc = ctx.read_json("forecast_manifest.json")
    ens = _read_ensemble(ctx, panel, fdoc)

    risk_rows = []
    reports = {}
    for code in params.countries:
        sample = lifetable.e0_paths(ens, params, code, horizons=-1)
        rep = risk.scr(sample)
        reports[code] = rep
        risk_rows.append(
            [code, f"{rep.mean_e0:.4f}", f"{rep.var_99_5:.4f}",
             f"{rep.es_99_0:.4f}", f"{rep.scr_es:.4f}"]
        )
    files = [
        ctx.write_csv(
            "risk.csv",
            ["country", "mean_e0", "var_99_5", "es_99_0", "scr_es"],
            risk_rows,
        )
    ]

    focus = _focus_country(ctx, params.countries)
    rep = reports[focus]
    mean_k_term = float(ens.levels[:, -1, 0].mean())
    stress_res = risk.reverse_stress(
        params,
        mean_k_term,
        focus,
        rep.scr_es,
        shock_grid=tuple(ctx.cfg["stress"]["shock_grid"]),
    )
    files.append(
        ctx.write_json(
            "stress.json",
            {
                "country": focus,
                "mean_e0": rep.mean_e0,
                "es_99_0": rep.es_99_0,
                "scr_es": rep.scr_es,
                "delta_star": stress_res.delta_star,
                "sensitivity_years_per_unit": stress_res.sensitivity,
                "sensitivity_cv": stress_res.sensitivity_cv,
                "shock_grid": list(stress_res.shock_grid),
                "e0_gains": list(stress_res.e0_gains),
            },
        )
    )
    ctx.record_stage(manifest, "stress", files)
    log.info("stress: %s SCR_ES %+.3f yrs, delta* %.1f%%",
             focus, rep.scr_es, 100 * stress_res.delta_star)
    return 0


def cmd_ablate(args) -> int:
    ctx = load_context(args)
    manifest = ctx.check_manifest()
    ctx.require_stage("fit")
    params = _parse_artifact("params.json", load_params, ctx.path("params.json"))
    panel = FactorPanel.from_params(params)
    tc = ctx.cfg["train"]
    cfg = benchmark.HybridConfig(
        lookback=int(ctx.cfg["lookback"]),
        hidden=tuple(ctx.cfg["hidden"]),
        dropout_rate=float(ctx.cfg["dropout"]),
        train=TrainConfig(
            learning_rate=float(tc["learning_rate"]),
            max_epochs=int(tc["max_epochs"]),
            patience=int(tc["patience"]),
            seed=stream_seed(ctx.seed, "ablate"),
        ),
    )
    split_year = int(ctx.cfg["split_year"])
    baseline = benchmark.fit_hybrid(panel, split_year, cfg)
    results = benchmark.ablate(panel, split_year, cfg, baseline=baseline)
    files = [
        ctx.write_csv(
            "ablation.csv",
            ["variant", "rmse_kt", "degradation_pct"],
            [
                [name, f"{res.rmse_kt:.6f}", f"{res.degradation_pct:.3f}"]
                for name, res in results.items()
            ],
        )
    ]
    sweep = benchmark.lookback_sweep(
        panel, split_year, cfg, lookbacks=tuple(ctx.cfg["ablate"]["lookbacks"]),
        baseline=baseline,
    )
    files.append(
        ctx.write_csv(
            "lookback.csv",
            ["lookback", "rmse_kt", "n_train", "n_val", "skipped", "note"],
            [
                [r.lookback, "" if r.rmse_kt is None else f"{r.rmse_kt:.6f}",
                 r.n_train, r.n_val, int(r.skipped), r.note]
                for r in sweep
            ],
        )
    )
    ctx.record_stage(manifest, "ablate", files)
    for name, res in results.items():
        log.info("ablate: %-15s rmse %.4f (%+.1f%%)", name, res.rmse_kt, res.degradation_pct)
    return 0


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mortlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": cmd_synth,
        "fit": cmd_fit,
        "train": cmd_train,
        "forecast": cmd_forecast,
        "validate": cmd_validate,
        "explain": cmd_explain,
        "stress": cmd_stress,
        "ablate": cmd_ablate,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed-override", type=int, help="replace the config seed")
        p.add_argument("--quiet", action="store_true", help="only warnings and errors")
        p.set_defaults(func=fn)
    return parser


_EXIT_CODES = (
    (1, (ConfigError,)),
    (2, (FileNotFoundError, ParseError, StructureError, DataGapError,
         ExposureError, DomainError)),
    (3, (StageError,)),
    (4, (DegenerateRiskError, DegenerateSeriesError, RankError, ScalingError,
         InsufficientHistoryError, RegressionError)),
    (5, (TrainingError, ConvergenceError, NumericError, FloatingPointError)),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = os.environ.get("MORTLAB_LOG", "INFO").upper()
    logging.basicConfig(
        level="WARNING" if args.quiet else level, format="%(levelname)s %(message)s"
    )
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - translated to exit codes below
        for code, types in _EXIT_CODES:
            if isinstance(exc, types):
                log.error("%s", exc)
                return code
        if isinstance(exc, MortlabError):
            log.error("%s", exc)
            return 5
        raise


if __name__ == "__main__":
    sys.exit(main())
