import pytest

from mortlab.data import synthesize_cluster, synthetic_truth
from mortlab.forecast import HybridConfig, fit_forecaster
from mortlab.lilee import FactorPanel, fit_lilee
from mortlab.lstm import TrainConfig


@pytest.fixture(scope="session")
def rank1_truth():
    """Noise-free rank-1 ground truth: specific factors identically zero."""
    return synthetic_truth(
        n_countries=3, year_range=(1981, 2020), seed=7, specific="none"
    )


@pytest.fixture(scope="session")
def rank1_cluster(rank1_truth):
    return synthesize_cluster(rank1_truth, noise_sd=0.0, seed=11)


@pytest.fixture(scope="session")
def small_truth():
    """General-purpose truth with stationary specific factors."""
    return synthetic_truth(
        n_countries=3,
        year_range=(1956, 2020),
        seed=42,
        specific="stationary",
        specific_phi=0.6,
        specific_sigma=0.25,
    )


@pytest.fixture(scope="session")
def small_cluster(small_truth):
    return synthesize_cluster(small_truth, noise_sd=0.01, seed=13)


@pytest.fixture(scope="session")
def fitted_panel(small_cluster):
    params, _ = fit_lilee(small_cluster)
    return params, FactorPanel.from_params(params)


@pytest.fixture(scope="session")
def trained_model(fitted_panel):
    """A modestly trained forecaster on the synthetic fixture (split 2011)."""
    _, panel = fitted_panel
    model, trace, windows, split = fit_forecaster(
        panel,
        2011,
        HybridConfig(
            lookback=10,
            hidden=(16, 8),
            dropout_rate=0.2,
            train=TrainConfig(max_epochs=150, patience=15, seed=21),
        ),
    )
    return model, trace, windows, split
