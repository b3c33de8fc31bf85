"""Command-line pipeline: synth, fit, train, forecast, validate, explain,
stress, ablate.

Every run is driven by one JSON config.  Its hash (SHA-256, minus the
output directory) is stamped into every CSV artifact, model.json,
forecast_manifest.json, stress.json and manifest.json; params.json,
truth_params.json and network.json carry none and are bound to the run by
their checksum alone.  A stage refuses an output directory whose manifest
carries another hash.  One rule binds every artifact to the run:
`RunContext.write` is the only writer and records the SHA-256 of each file
in manifest.json under the stage that wrote it (each stage's `files` maps
file names to digests, the one manifest format), and `RunContext.load` is
the only reader and refuses a file that is missing, whose bytes differ
from that checksum, or that does not parse into a complete, valid object;
any package error its parser raises, a non-finite weight included, counts
as unparseable (exit 3).  Neither does a manifest in any other form, a
forecaster that is not the config's or the panel's (`_load_model_panel`),
or an observed e0 that is not a finite positive number.  `forecast` and `stress`
refuse (exit 4) an e0 or risk figure that is NaN or infinite rather than
write it.
The binary ensemble (`ensemble.npy`, little-endian float64, paths x
(horizon + 1) x factors, origin row included) is also refused unless its
header, shape and origin row are exactly what forecast wrote and every
level is finite.  All randomness flows from the single config seed through
named substreams, so reruns, the ensemble's bytes included, are
bit-reproducible.

One runner, `run_stage`, owns every stage's lifecycle: it loads the
context, runs the body `cmd_<stage>(ctx)` and records in manifest.json the
files the body wrote, the facts it returned (forecast: `path_blocks`,
`path_workers`; train: `epochs_run`, `best_epoch`, `stopped_early`,
`clipped_epochs`, `max_grad_norm`), the stage process's peak RSS in MB
before the body runs (`start_rss_mb`) and after it (`peak_rss_mb`), the
minor page faults the body took (`minor_faults`) and the Python, numpy
and BLAS it ran on (`env`).  A stage commits all or nothing: `write` keeps
each file under a hidden pending name, and only `record_stage`, holding an
exclusive lock on the run directory, moves them into place and replaces
the stage's record in the manifest it re-reads, so overlapping stages keep
each other's records and a stage that raises leaves every file as it was.
The commit also deletes the pending files a killed stage process left.
`fit` refuses (exit 3) a data CSV whose bytes differ from those `synth`
recorded for it.

A stage process holds only what its body runs: this module imports at
top level the modules every stage uses, and a body imports the rest
(`data`, `stationarity`, `explain`, `benchmark`) itself, so `forecast`
and `stress` never compile them.

Exit codes: 0 ok, 1 usage/config, 2 data, 3 missing, mismatched,
unparseable or invalid stage artifacts, 4 degenerate domain, 5 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import fcntl
import hashlib
import io
import json
import logging
import math
import os
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import lifetable, risk
from .errors import ConfigError, DegenerateError, MortlabError, StageError
from .forecast import (
    dump_forecaster,
    ensemble_quantiles,
    fit_forecaster,
    forecast_stochastic,
    historical_diff_sd,
    parse_forecaster,
    ForecastEnsemble,
    HybridConfig,
)
from .lilee import FactorPanel, dump_params, fit_lilee, parse_params
from .lstm import TrainConfig, dump_network, parse_network, predict

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
    ss = np.random.SeedSequence((seed, STREAMS[name]))
    return int(ss.generate_state(1)[0])


def config_hash(cfg: dict) -> str:
    """Hash over the canonical config, ignoring the output location."""
    trimmed = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _list(each, size: int = 0):
    """Test: a list of `size` values, or a non-empty one, each passing `each`."""
    return lambda v: type(v) is list and 0 < len(v) == (size or len(v)) and all(map(each, v))


def _at_least(least: int) -> tuple:
    return f"an integer >= {least}", lambda v: type(v) is int and v >= least


NUM = (int, float)  # types are matched exactly, so a JSON true is no number
# (rule, test) pairs that several keys share
COUNT, STRING = _at_least(1), ("a string", lambda v: type(v) is str)
YEARS = ("a list [first, last] of integers, first <= last",
         lambda v: _list(lambda y: type(y) is int, 2)(v) and v[0] <= v[1])
FILES = ({"code", "rates"}, {"code", "deaths", "exposures"})  # of one data.countries entry
SOURCES = ("a non-empty list of {code, rates} or {code, deaths, exposures} objects of strings",
           _list(lambda e: type(e) is dict and set(e) in FILES
                 and all(type(v) is str for v in e.values())))

# Every key a config may set, as (default, rule, test); a section is a JSON
# object of its own keys.  Only a key whose default is null may be null, which
# leaves the choice to the stage, and seed's "required" fails its own test.
# The stages read each value as its default's type: a float default reads 1
# as 1.0, a list default gives a tuple.  A default the library owns is read
# from its owner.
CONFIG = {
    "seed": ("required", *_at_least(0)), "out_dir": (None, *STRING),
    "focus_country": (None, *STRING),
    "data": {"cluster_csv": (None, *STRING), "countries": (None, *SOURCES),
             "year_range": (None, *YEARS), "age_max": (90, *_at_least(0)),
             "impute_gaps": (False, "true or false", lambda v: type(v) is bool),
             "country_order": (None, "a non-empty list of strings", _list(STRING[1]))},
    "split_year": (2011, "an integer", lambda v: type(v) is int),
    "lookback": (HybridConfig.lookback, *COUNT),
    "hidden": (list(HybridConfig.hidden), "a list of 2 integers >= 1", _list(COUNT[1], 2)),
    "dropout": (HybridConfig.dropout_rate, "a number in [0, 1)",
                lambda v: type(v) in NUM and 0 <= v < 1),
    "train": {"learning_rate": (TrainConfig.learning_rate, "a number > 0",
                                lambda v: type(v) in NUM and v > 0),
              "max_epochs": (TrainConfig.max_epochs, *COUNT),
              "patience": (TrainConfig.patience, *COUNT)},
    "forecast": {"horizon": (30, *COUNT), "n_paths": (1000, *_at_least(2)),
                 "quantiles": ([0.025, 0.10, 0.50, 0.90, 0.975],
                               "a non-empty list of numbers in [0, 1]",
                               _list(lambda v: type(v) in NUM and 0 <= v <= 1))},
    "stress": {"shock_grid": (list(risk.DEFAULT_SHOCK_GRID),
                              "a non-empty list of numbers in (0, 1)",
                              _list(lambda v: type(v) in NUM and 0 < v < 1))},
    "explain": {"n_coalitions": (None, *COUNT), "max_test_windows": (None, *COUNT)},
    "ablate": {"lookbacks": ([5, 10, 15], "a non-empty list of integers >= 1", _list(COUNT[1]))},
    "synth": {"n_countries": (3, *_at_least(2)), "year_range": ([1956, 2020], *YEARS),
              "regime": ("unit_root", f"one of {', '.join(SYNTH_REGIMES)}",
                         lambda v: type(v) is str and v in SYNTH_REGIMES),
              "noise_sd": (0.01, "a number >= 0", lambda v: type(v) in NUM and v >= 0)},
}


def _checked(given, table: dict = CONFIG, prefix: str = "") -> tuple[dict, dict]:
    """Config `given` as the stages read it, and the dict config_hash covers:
    `given` over the defaults but `data`'s and the top level's null ones.  A key
    the table does not name (a typo or a removed setting) or that breaks its rule
    is refused."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section {prefix[:-1]!r} must be a JSON object, "
                          f"not {type(given).__name__}")
    if unknown := sorted(given.keys() - table.keys()):
        raise ConfigError(f"unknown config key {', '.join(repr(prefix + k) for k in unknown)}; "
                          f"known: {', '.join(prefix + k for k in sorted(table))}")
    typed, hashed = {}, dict(given)
    for name, key in table.items():
        if isinstance(key, dict):
            typed[name], merged = _checked(given.get(name, {}), key, f"{name}.")
            if name != "data":  # hashed as given
                hashed[name] = merged
            continue
        default, rule, test = key
        value = given.get(name, default)
        if not (value is None is default or test(value)):
            raise ConfigError(f"config {prefix}{name} must be {rule}, "
                              f"got {repr(value) if name in given else 'nothing'}")
        if prefix or default is not None:
            hashed.setdefault(name, default)
        typed[name] = (float(value) if type(default) is float else
                       tuple(map(type(default[0]), value)) if type(default) is list else value)
    return typed, hashed


MANIFEST = "manifest.json"
HEX = set("0123456789abcdef")


def _malloc_trim():
    """glibc's `malloc_trim`, which hands the heap's free pages back to the
    OS, or None where libc.so.6 or the symbol is missing."""
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None


_trim = _malloc_trim()


class RunContext:
    """Resolved configuration plus the run directory's one writer and one
    reader: every file a stage writes goes through `write`, which keeps it
    under a pending name until `record_stage` commits the stage, and every
    file a stage reads goes through `load`, which refuses bytes other than
    the recorded ones."""

    def __init__(self, cfg: dict, config_dir: Path):
        self.cfg, hashed = _checked(cfg)
        self.config_dir = config_dir
        self.hash = config_hash(hashed)
        out_path = Path(self.cfg["out_dir"] or f"runs/{self.hash[:8]}")
        self.out_dir = out_path if out_path.is_absolute() else config_dir / out_path
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = self._read_manifest()
        self.written = {}  # name -> SHA-256 object of this stage's pending file

    def _read_manifest(self) -> dict:
        if not self.path(MANIFEST).exists():
            return {"config_hash": self.hash, "stages": {}}
        doc = self.load(MANIFEST, _parse_manifest)
        if doc.get("config_hash") != self.hash:
            raise StageError(
                f"{MANIFEST} in {self.out_dir} holds artifacts for config "
                f"{doc.get('config_hash')}, current config is {self.hash}; refusing to mix"
            )
        return doc

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def data_path(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.config_dir / p

    def record_stage(self, stage: str, **facts):
        """Commit the stage, the one place its files move into place: under
        an exclusive lock on the run directory, delete the pending files of
        stage processes that died before they committed, re-read
        manifest.json, replace only this stage's record, with the checksums
        of its files, and move the stage's pending files, then the manifest,
        to their final names."""
        lock = os.open(self.out_dir, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            for pending in self.out_dir.glob(".*.*.pending"):
                try:
                    os.kill(int(pending.name.split(".")[-2]), 0)
                except ProcessLookupError:  # no process holds this pid
                    pending.unlink(missing_ok=True)
                except (ValueError, OverflowError, PermissionError):  # no pid, or a live one
                    pass
            self.manifest = self._read_manifest()
            self.manifest["stages"][stage] = {
                "completed": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "files": {name: digest.hexdigest() for name, digest in self.written.items()},
                **facts,
            }
            self.write(MANIFEST, json.dumps(self.manifest, indent=2))
            for name in self.written:
                os.replace(self._pending(name), self.path(name))
        finally:
            os.close(lock)  # and with it the lock

    def discard(self) -> None:
        """Delete the pending files of a stage that does not commit."""
        for name in self.written:
            self._pending(name).unlink(missing_ok=True)

    def _pending(self, name: str) -> Path:
        """File `name`'s hidden name, unique to the process, until its stage commits."""
        path = self.path(name)
        return path.with_name(f".{path.name}.{os.getpid()}.pending")

    # -- artifact io ---------------------------------------------------------
    def write(self, name: str, *chunks) -> None:
        """Write the chunks (text is UTF-8 encoded) under file `name`'s
        pending name, hashing the bytes for record_stage to record."""
        digest = self.written[name] = hashlib.sha256()
        with self._pending(name).open("wb") as fh:
            for chunk in chunks:
                if isinstance(chunk, str):
                    chunk = chunk.encode()
                fh.write(chunk)
                digest.update(chunk)

    def write_csv(self, name: str, header, rows):
        buf = io.StringIO()
        buf.write(f"# config_hash={self.hash}\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        self.write(name, buf.getvalue())

    def write_json(self, name: str, doc: dict):
        self.write(name, json.dumps({"config_hash": self.hash, **doc}, indent=2))

    def load(self, name: str, parse):
        """`parse(data)` of the bytes of file `name`, read once.  Missing
        bytes, or bytes whose SHA-256 is not the one manifest.json records
        for them, and bytes that do not parse into a complete, valid object
        (the parser raises any package error, or Python's for a missing key
        or a wrong type or value) are refused (exit 3).  manifest.json itself
        is bound to the run by its config_hash instead, which
        `_read_manifest` checks.  After a parse the bytes are dropped (an
        object that views them keeps them) and the heap's free pages, the
        parse's and the imports' garbage, go back to the OS."""
        path = self.path(name)
        if name == MANIFEST:
            data = path.read_bytes()
        else:
            recorded = self._recorded(name)
            if recorded is None:
                raise StageError(f"artifact {name} is not recorded in {MANIFEST}; run the "
                                 "stage that writes it first")
            stage, want = recorded
            data = path.read_bytes() if path.is_file() else None
            if data is None or hashlib.sha256(data).hexdigest() != want:
                raise StageError(
                    f"artifact {name} is missing or does not match its checksum in "
                    f"{MANIFEST}; rerun {stage}"
                )
        try:
            parsed = parse(data)
        except (ValueError, KeyError, TypeError, AttributeError, EOFError, MortlabError) as exc:
            raise StageError(
                f"artifact {name} does not parse: {type(exc).__name__}: {exc}"
            ) from exc
        del data
        if _trim is not None:
            _trim(0)
        return parsed

    def check_data(self, path: Path) -> None:
        """Refuse (exit 3) a data file outside the run directory whose bytes
        differ from those a stage recorded under its absolute path (synth's
        cluster CSV).  The file is hashed in chunks, never held whole; a
        file no stage recorded passes as it is."""
        recorded = self._recorded(str(path))
        if recorded is None:
            return
        stage, want = recorded
        digest = hashlib.sha256()
        with path.open("rb") as fh:  # hashlib.file_digest needs Python 3.11
            for chunk in iter(lambda: fh.read(1 << 18), b""):
                digest.update(chunk)
        if digest.hexdigest() != want:
            raise StageError(f"data file {path} does not match its checksum in {MANIFEST}; "
                             f"rerun {stage}")

    def _recorded(self, name: str) -> tuple[str, str] | None:
        """The stage that wrote `name` and the SHA-256 it recorded, or None."""
        for stage, record in self.manifest["stages"].items():
            if name in record["files"]:
                return stage, record["files"][name]
        return None


def _json_object(data: bytes) -> dict:
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, not {type(doc).__name__}")
    return doc


def _parse_manifest(data: bytes) -> dict:
    """manifest.json's document, refused unless `stages` maps each stage to
    a record whose `files` map file names to SHA-256 hex digests."""
    doc = _json_object(data)
    # a misshapen `stages` or record raises here, and load turns that into exit 3
    for stage, record in doc["stages"].items():
        files = record["files"]
        if not isinstance(files, dict) or not all(
            isinstance(v, str) and len(v) == 64 and set(v) <= HEX for v in files.values()
        ):
            raise TypeError(f"stage {stage!r} does not map its files to SHA-256 digests")
    return doc


def _observed_e0(data: bytes, countries) -> dict[str, float]:
    """observed_e0.csv's e0 for each of `countries`, each a finite positive number."""
    body = data.decode().partition("\n")[2]  # after the config_hash line
    rows = csv.DictReader(io.StringIO(body))
    observed = {row["country"]: float(row["e0_observed"]) for row in rows}
    for code in countries:
        if not 0 < observed[code] < math.inf:
            raise ValueError(f"{code}'s e0_observed is {observed[code]}, "
                             "not a finite positive number")
    return {code: observed[code] for code in countries}


# -- data loading -------------------------------------------------------------


def load_dataset(ctx: RunContext) -> ClusterDataset:
    from .data import ClusterDataset, build_surface, parse_hmd_file, read_cluster_csv

    data = ctx.cfg["data"]

    def existing(rel: str) -> Path:
        path = ctx.data_path(rel)
        if not path.exists():
            raise FileNotFoundError(f"data file not found: {path}")
        return path

    if data["cluster_csv"] is not None:
        if data["countries"] is not None:
            raise ConfigError("config data sets both 'cluster_csv' and 'countries'; "
                              "give one source")
        path = existing(data["cluster_csv"])
        # a file that does not parse keeps its own data error (exit 2)
        dataset = read_cluster_csv(
            path,
            country_order=data["country_order"],
            year_range=data["year_range"],
            age_max=data["age_max"],
        )
        ctx.check_data(path)
        return dataset
    if data["countries"] is None:
        raise ConfigError("config needs a 'data' section with 'cluster_csv' or 'countries'")

    surfaces = []
    for entry in data["countries"]:
        # rates alone, or deaths then exposures
        kinds = ("rates",) if "rates" in entry else ("deaths", "exposures")
        rows = [parse_hmd_file(existing(entry[kind]).read_text()) for kind in kinds]
        surfaces.append(build_surface(*rows, country=entry["code"], year_range=data["year_range"],
                                      age_max=data["age_max"], impute_gaps=data["impute_gaps"]))
    return ClusterDataset(surfaces=tuple(surfaces))


def _focus_country(ctx: RunContext, countries) -> str:
    focus = ctx.cfg["focus_country"] or countries[0]
    if focus not in countries:
        raise ConfigError(f"focus_country {focus!r} is not in the cluster {list(countries)}")
    return focus


def _load_model_panel(ctx: RunContext):
    """params.json, the forecaster and the factor panel.  network.json and
    model.json are refused unless they hold the config's forecaster (its
    lookback, hidden sizes, dropout rate and split year) for the panel's
    factors (the network's input and output widths and the bias vector's
    length are the factor count)."""
    params = ctx.load("params.json", parse_params)
    panel = FactorPanel.from_params(params)
    n = panel.n_factors
    expected = {"lookback": ctx.cfg["lookback"], "hidden": tuple(ctx.cfg["hidden"]),
                "dropout": ctx.cfg["dropout"], "split_year": ctx.cfg["split_year"],
                "input width": n, "output width": n, "bias length": n}

    def check(found: dict) -> None:
        for key, value in found.items():
            if value != expected[key]:
                raise ValueError(f"its {key} is {value}, not the run's {expected[key]}")

    def parse_net(data: bytes):
        net = parse_network(data)
        check({"hidden": net.hidden, "dropout": net.dropout_rate,
               "input width": net.input_dim, "output width": net.Wh.shape[1]})
        return net

    net = ctx.load("network.json", parse_net)

    def parse_model(data: bytes):
        model = parse_forecaster(data, net)
        check({"lookback": model.lookback, "split_year": model.scaler.train_end_year,
               "bias length": model.mbc.size})
        return model

    return params, ctx.load("model.json", parse_model), panel


def _check_finite(name: str, figures) -> None:
    """Refuse (exit 4) e0 or risk figures bound for file `name` unless every
    one is finite, before the stage commits."""
    if not np.isfinite(np.asarray(figures, dtype=float)).all():
        raise DegenerateError(f"refusing to write {name}: it would hold a NaN or infinite figure")


def _hybrid_config(ctx: RunContext, stream: str) -> HybridConfig:
    """The forecaster settings of the config; `train` and `ablate` differ
    only in the seed stream their training draws from."""
    return HybridConfig(
        lookback=ctx.cfg["lookback"],
        hidden=ctx.cfg["hidden"],
        dropout_rate=ctx.cfg["dropout"],
        # the train section's keys are TrainConfig's fields
        train=TrainConfig(**ctx.cfg["train"], seed=stream_seed(ctx.cfg["seed"], stream)),
    )


# -- stages -------------------------------------------------------------------


def cmd_synth(ctx: RunContext) -> None:
    data = ctx.cfg["data"]
    if data["cluster_csv"] is None or data["countries"] is not None:
        raise ConfigError("synth needs data.cluster_csv, the CSV it writes for fit, "
                          "and no data.countries")
    from .data import cluster_csv_chunks, synthesize_cluster, synthetic_truth

    synth = ctx.cfg["synth"]
    regime = synth["regime"]
    seed = stream_seed(ctx.cfg["seed"], "synth")
    truth = synthetic_truth(n_countries=synth["n_countries"], year_range=synth["year_range"],
                            seed=seed, **SYNTH_REGIMES[regime])
    cluster = synthesize_cluster(truth, noise_sd=synth["noise_sd"], seed=seed + 1)
    target = ctx.data_path(data["cluster_csv"])
    target.parent.mkdir(parents=True, exist_ok=True)
    # outside the run directory, the data CSV is recorded by its absolute path
    ctx.write(str(target), *cluster_csv_chunks(cluster, [f"config_hash={ctx.hash}"]))
    ctx.write("truth_params.json", dump_params(truth))
    log.info("synth: wrote %s (%d countries, regime %s)", target, len(cluster.surfaces), regime)


def cmd_fit(ctx: RunContext) -> None:
    from . import stationarity

    dataset = load_dataset(ctx)
    # hand back the data parse's and the body's imports' garbage before the
    # SVD and the stationarity tests allocate
    if _trim is not None:
        _trim(0)
    params, _resid = fit_lilee(dataset)
    rows = []
    for i, code in enumerate(params.countries):
        rep = stationarity.analyze(params.k[i])
        rows.append(
            [code, f"{rep.adf_stat:.4f}", f"{rep.adf_p:.4f}",
             f"{rep.kpss_stat:.4f}", f"{rep.kpss_p:.4f}", rep.verdict]
        )
    ctx.write("params.json", dump_params(params))

    panel = FactorPanel.from_params(params)
    ctx.write_csv(
        "factors.csv",
        ["year", *panel.labels],
        [[int(y), *map(float, row)] for y, row in zip(panel.years, panel.values)],
    )
    ctx.write_csv(
        "stationarity.csv",
        ["country", "adf_stat", "adf_p", "kpss_stat", "kpss_p", "verdict"],
        rows,
    )

    obs_rows = [
        [s.country, int(s.years[-1]), f"{lifetable.life_table(s.m[:, -1]).e0:.4f}"]
        for s in dataset.surfaces
    ]
    ctx.write_csv("observed_e0.csv", ["country", "year", "e0_observed"], obs_rows)
    log.info("fit: %d countries, years %s..%s", len(params.countries),
             params.years[0], params.years[-1])


def cmd_train(ctx: RunContext) -> dict:
    params = ctx.load("params.json", parse_params)
    panel = FactorPanel.from_params(params)
    model, trace, _windows, (train_idx, val_idx) = fit_forecaster(
        panel, ctx.cfg["split_year"], _hybrid_config(ctx, "train")
    )
    # the config hash leads the bundle
    ctx.write("model.json", dump_forecaster(model, "network.json", config_hash=ctx.hash))
    ctx.write("network.json", dump_network(model.net))
    ctx.write_csv(
        "training_trace.csv",
        ["epoch", "train_mse", "val_mse"],
        [
            [e + 1, f"{tr:.8f}", f"{va:.8f}"]
            for e, (tr, va) in enumerate(zip(trace.train_mse, trace.val_mse))
        ],
    )
    log.info(
        "train: %d epochs (best %d, val MSE %.5f), %d train / %d val windows",
        trace.epochs_run, trace.best_epoch, trace.best_val_mse,
        train_idx.size, val_idx.size,
    )
    return {"epochs_run": trace.epochs_run, "best_epoch": trace.best_epoch,
            "stopped_early": trace.stopped_early, "clipped_epochs": trace.clipped_epochs,
            "max_grad_norm": max(trace.grad_norm)}


ENSEMBLE = "ensemble.npy"
# the one header forecast writes: little-endian float64, C order
ENSEMBLE_DTYPE = np.dtype("<f8")


def _write_ensemble(ctx: RunContext, ens: ForecastEnsemble) -> None:
    """Save the levels, origin row included, as a version 1.0 .npy file
    (np.save's bytes).  The payload is written and hashed straight from the
    array's buffer; nothing stamps a time, so reruns give the same bytes."""
    levels = np.ascontiguousarray(ens.levels, dtype=ENSEMBLE_DTYPE)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(levels))
    ctx.write(ENSEMBLE, header.getbuffer(), memoryview(levels).cast("B"))


def _parse_ensemble(data: bytes, panel: FactorPanel, fdoc: dict) -> ForecastEnsemble:
    """The ensemble in the .npy bytes forecast wrote, refused unless their
    header is exactly the one forecast writes with forecast_manifest.json's
    shape, their payload is complete and finite and their row 0 is the
    panel's last year on every path."""
    shape = (int(fdoc["n_paths"]), int(fdoc["horizon"]) + 1, panel.n_factors)
    buf = io.BytesIO(data)
    if np.lib.format.read_magic(buf) != (1, 0):
        raise ValueError("not a version 1.0 .npy file")
    header = np.lib.format.read_array_header_1_0(buf)
    if header != (shape, False, ENSEMBLE_DTYPE):
        raise ValueError(
            f"header (shape, fortran_order, dtype) = {header}, "
            f"expected {(shape, False, ENSEMBLE_DTYPE)}"
        )
    payload = len(data) - buf.tell()
    if payload != math.prod(shape) * ENSEMBLE_DTYPE.itemsize:
        raise ValueError(f"payload is {payload} bytes, not {shape} doubles")
    # a read-only view of the bytes already read, not a second copy
    levels = np.frombuffer(data, ENSEMBLE_DTYPE, offset=buf.tell()).reshape(shape)
    if not np.isfinite(levels).all():
        raise ValueError("it holds a NaN or infinite level")
    origin_year = int(fdoc["origin_year"])
    if origin_year != int(panel.years[-1]) or np.any(levels[:, 0, :] != panel.values[-1]):
        raise ValueError(f"it does not start from the panel's last year {int(panel.years[-1])}")
    return ForecastEnsemble(levels=levels, years=origin_year + np.arange(shape[1]))


def cmd_forecast(ctx: RunContext) -> dict:
    params, model, panel = _load_model_panel(ctx)
    focus = _focus_country(ctx, params.countries)
    observed = ctx.load("observed_e0.csv", lambda data: _observed_e0(data, params.countries))
    fc = ctx.cfg["forecast"]
    horizon, n_paths, quantiles = fc["horizon"], fc["n_paths"], fc["quantiles"]
    seed = stream_seed(ctx.cfg["seed"], "forecast")
    sigma = historical_diff_sd(panel)

    ens = forecast_stochastic(
        model, panel, horizon, n_paths=n_paths, sigma=sigma, seed=seed
    )
    _write_ensemble(ctx, ens)
    ctx.write_json(
        "forecast_manifest.json",
        {
            "seed": seed,
            "n_paths": n_paths,
            "horizon": horizon,
            "origin_year": int(panel.years[-1]),
            "sigma": sigma.tolist(),
            "quantiles": list(quantiles),
        },
    )

    bands = ensemble_quantiles(ens, quantiles)
    fan_rows = []
    for j, lab in enumerate(panel.labels):
        for qi, q in enumerate(quantiles):
            for h in range(ens.levels.shape[1]):
                fan_rows.append([lab, int(ens.years[h]), q, repr(float(bands[qi, h, j]))])
    ctx.write_csv("fan_factors.csv", ["factor", "year", "quantile", "value"], fan_rows)

    summary = {}
    for code in params.countries:
        terminal = lifetable.e0_paths(ens, params, code, horizons=-1)
        origin_model = lifetable.e0_at(params, code, float(panel.values[-1, 0]))
        mean_term = float(terminal.mean())
        ci_low, ci_high = risk.sorted_quantiles(np.sort(terminal), (0.025, 0.975))
        summary[code] = (origin_model, observed[code], mean_term, ci_low, ci_high,
                         mean_term - origin_model)
    _check_finite("e0_summary.csv", list(summary.values()))
    ctx.write_csv(
        "e0_summary.csv",
        ["country", "e0_origin_model", "e0_origin_observed",
         "e0_terminal_mean", "ci_2.5", "ci_97.5", "net_gain"],
        [[code, *(f"{v:.4f}" for v in row)] for code, row in summary.items()],
    )

    # the focus country's fan, one horizon's (paths,) e0 sample at a time
    bands_e0 = [
        risk.sorted_quantiles(np.sort(lifetable.e0_paths(ens, params, focus, horizons=h)),
                              quantiles)
        for h in range(ens.horizon)
    ]
    _check_finite(f"fan_e0_{focus}.csv", bands_e0)
    fan_e0_rows = [
        [int(ens.years[h + 1]), q, f"{bands_e0[h][qi]:.4f}"]
        for qi, q in enumerate(quantiles)
        for h in range(ens.horizon)
    ]
    ctx.write_csv(f"fan_e0_{focus}.csv", ["year", "quantile", "e0"], fan_e0_rows)

    log.info("forecast: %d paths x %d years, %d factors", n_paths, horizon, panel.n_factors)
    return {"path_blocks": ens.blocks, "path_workers": ens.workers}


def cmd_validate(ctx: RunContext) -> None:
    from . import benchmark

    params, model, panel = _load_model_panel(ctx)
    rows = benchmark.validate(panel, model, ctx.cfg["split_year"])
    ctx.write_csv(
        "benchmark.csv",
        ["country", "rmse_lilee", "rmse_hybrid", "improvement_pct"],
        [
            [r.country, f"{r.rmse_lilee:.6f}", f"{r.rmse_hybrid:.6f}",
             f"{r.improvement_pct:.3f}"]
            for r in rows
        ],
    )
    for r in rows:
        log.info("validate: %-6s lilee %.4f hybrid %.4f (%+.2f%%)",
                 r.country, r.rmse_lilee, r.rmse_hybrid, r.improvement_pct)


def cmd_explain(ctx: RunContext) -> None:
    from . import explain
    from .windows import prepare_windows

    params, model, panel = _load_model_panel(ctx)
    _, windows, (train_idx, val_idx) = prepare_windows(
        panel, ctx.cfg["split_year"], model.lookback, model.scaler
    )

    prof = explain.temporal_saliency(model.net, windows.X[val_idx], output_index=0)
    focus = _focus_country(ctx, params.countries)
    out_index = 1 + params.country_index(focus)
    xc = ctx.cfg["explain"]
    rep = explain.kernel_shap(
        lambda W: predict(model.net, W)[:, out_index],
        windows.X[train_idx],
        windows.X[val_idx][: xc["max_test_windows"]],  # null: every window
        n_coalitions=xc["n_coalitions"],
        seed=stream_seed(ctx.cfg["seed"], "explain"),
    )
    scores = explain.aggregate_country_influence(rep)
    ctx.write_csv(
        "saliency.csv",
        ["lag", "importance_pct"],
        [[f"t-{model.lookback - i}", f"{v:.4f}"] for i, v in enumerate(prof)],
    )
    ctx.write_csv(
        "influence.csv",
        ["factor", "score"],
        [[lab, f"{s:.6f}"] for lab, s in zip(panel.labels, scores)],
    )
    log.info("explain: saliency peak at %s, top influence %s",
             f"t-{model.lookback - int(np.argmax(prof))}",
             panel.labels[int(np.argmax(scores))])


def cmd_stress(ctx: RunContext) -> None:
    params, model, panel = _load_model_panel(ctx)
    fdoc = ctx.load("forecast_manifest.json", _json_object)
    ens = ctx.load(ENSEMBLE, lambda data: _parse_ensemble(data, panel, fdoc))
    focus = _focus_country(ctx, params.countries)

    reports = {code: risk.scr(lifetable.e0_paths(ens, params, code, horizons=-1))
               for code in params.countries}
    risk_rows = {code: (r.mean_e0, r.var_99_5, r.es_99_0, r.scr_es) for code, r in reports.items()}
    _check_finite("risk.csv", list(risk_rows.values()))
    ctx.write_csv(
        "risk.csv",
        ["country", "mean_e0", "var_99_5", "es_99_0", "scr_es"],
        [[code, *(f"{v:.4f}" for v in row)] for code, row in risk_rows.items()],
    )

    rep = reports[focus]
    mean_k_term = float(ens.levels[:, -1, 0].mean())
    stress_res = risk.reverse_stress(
        params,
        mean_k_term,
        focus,
        rep.scr_es,
        shock_grid=ctx.cfg["stress"]["shock_grid"],
    )
    _check_finite("stress.json", [stress_res.delta_star, stress_res.sensitivity,
                            stress_res.sensitivity_cv, *stress_res.e0_gains])
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
    log.info("stress: %s SCR_ES %+.3f yrs, delta* %.1f%%",
             focus, rep.scr_es, 100 * stress_res.delta_star)


def cmd_ablate(ctx: RunContext) -> None:
    from . import benchmark

    params = ctx.load("params.json", parse_params)
    panel = FactorPanel.from_params(params)
    cfg = _hybrid_config(ctx, "ablate")
    split_year = ctx.cfg["split_year"]
    baseline = fit_forecaster(panel, split_year, cfg)
    results = benchmark.ablate(panel, split_year, cfg, baseline=baseline)
    ctx.write_csv(
        "ablation.csv",
        ["variant", "rmse_kt", "degradation_pct"],
        [
            [name, f"{res.rmse_kt:.6f}", f"{res.degradation_pct:.3f}"]
            for name, res in results.items()
        ],
    )
    sweep = benchmark.lookback_sweep(
        panel, split_year, cfg, lookbacks=ctx.cfg["ablate"]["lookbacks"],
        baseline=baseline,
    )
    ctx.write_csv(
        "lookback.csv",
        ["lookback", "rmse_kt", "n_train", "n_val", "skipped", "note"],
        [
            [r.lookback, "" if r.rmse_kt is None else f"{r.rmse_kt:.6f}",
             r.n_train, r.n_val, int(r.skipped), r.note]
            for r in sweep
        ],
    )
    for name, res in results.items():
        log.info("ablate: %-15s rmse %.4f (%+.1f%%)", name, res.rmse_kt, res.degradation_pct)


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


STAGES = ("synth", "fit", "train", "forecast", "validate", "explain", "stress", "ablate")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mortlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--quiet", action="store_true", help="only warnings and errors")
    return parser


def run_stage(args) -> int:
    """Run stage `args.command`: build the RunContext from the config file,
    run the body `cmd_<stage>(ctx)`, then commit the stage, recording the
    files it wrote, the facts it returned, the process's peak RSS (`ru_maxrss`)
    in MB just before the body runs (`start_rss_mb`: the interpreter, numpy,
    the modules every stage imports and the config) and after it
    (`peak_rss_mb`: the body's own imports too), the minor page faults the
    body took (`minor_faults`, the `ru_minflt` delta) and the environment
    (`env`).  If the body or the commit raises, the pending files go.  The
    body is looked up in the module's globals at call time, so a wrapper
    bound to `cmd_<stage>` after import (perfbench's tracer) runs."""
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise FileNotFoundError(f"config file not found: {cfg_path}")
    try:
        cfg = _json_object(cfg_path.read_bytes())
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigError(f"config is not a valid JSON object: {exc}") from exc
    ctx = RunContext(cfg, cfg_path.resolve().parent)
    start = resource.getrusage(resource.RUSAGE_SELF)
    try:
        facts = globals()[f"cmd_{args.command}"](ctx) or {}
        end = resource.getrusage(resource.RUSAGE_SELF)
        ctx.record_stage(args.command, **facts, start_rss_mb=_mb(start.ru_maxrss),
                         peak_rss_mb=_mb(end.ru_maxrss),
                         minor_faults=end.ru_minflt - start.ru_minflt, env=_environment())
    except BaseException:
        ctx.discard()
        raise
    return 0


def _environment() -> dict:
    """The Python, numpy and BLAS (name and version, as numpy was built
    with it) the stage ran on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _mb(kib: int) -> float:
    """`ru_maxrss` (KiB on Linux) in MB of 10^6 bytes, perfbench's unit."""
    return round(kib * 1024 / 1e6, 2)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level="WARNING" if args.quiet else "INFO",
                        format="%(levelname)s %(message)s")
    try:
        return run_stage(args)
    except (MortlabError, FileNotFoundError, FloatingPointError, np.linalg.LinAlgError) as exc:
        log.error("%s", exc)
        # a package error carries its code; a missing file is 2, a numeric failure 5
        return getattr(exc, "exit_code", 2 if isinstance(exc, FileNotFoundError) else 5)


if __name__ == "__main__":
    sys.exit(main())
