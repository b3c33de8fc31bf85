"""The benchmark's workloads: a generated mortlab config per seed, the stages
that make the inputs (set-up) and the stages that are timed.

Every config is the README quickstart config with a few keys changed; the
seed given to the benchmark is written into it and is the only thing that
varies between runs of one workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

README_CONFIG = {
    "out_dir": "run",
    "data": {"cluster_csv": "data/cluster.csv", "year_range": [1956, 2020]},
    "synth": {"n_countries": 3, "regime": "unit_root", "noise_sd": 0.01,
              "year_range": [1956, 2020]},
}

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    # traced runs also run these, untimed, so every layer reports on every workload
    coverage: tuple[str, ...] = field(default=())

    def make_config(self, seed: int) -> dict:
        return {"seed": int(seed), **self.config}


def _with(base: dict, **changes) -> dict:
    return {**base, **changes}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # the README quickstart run as written; the per-path forecast
            # recursion is about 80% of its time
            name="readme-1k",
            config=README_CONFIG,
            setup=("synth",),
            timed=("fit", "train", "forecast", "validate", "explain", "stress", "ablate"),
        ),
        Workload(
            # the size of the paper's real-data cluster; training, Kernel SHAP and
            # process start-up dominate and the ensemble is small
            name="wide-6c",
            # max_epochs == patience: every training runs exactly 60 epochs, so
            # the seed changes the numbers but not the amount of work
            config=_with(
                README_CONFIG,
                split_year=2005,
                train={"patience": 60, "max_epochs": 60},
                forecast={"n_paths": 100},
                data={"cluster_csv": "data/cluster.csv", "year_range": [1921, 2020]},
                synth={"n_countries": 6, "regime": "stationary", "noise_sd": 0.01,
                       "year_range": [1921, 2020]},
            ),
            setup=("synth",),
            timed=("fit", "train", "forecast", "validate", "explain", "stress", "ablate"),
        ),
        Workload(
            # a capital run: per-path costs (recursion, ensemble bytes, e0 curves,
            # tail sorts) swamp fixed ones
            name="tail-2k",
            config=_with(README_CONFIG, forecast={"n_paths": 2000}),
            setup=("synth", "fit", "train"),
            timed=("forecast", "stress"),
            coverage=("validate", "explain", "ablate"),
        ),
    )
}
