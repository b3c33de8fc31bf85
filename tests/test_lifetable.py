import numpy as np
import pytest

from mortlab.errors import DomainError
from mortlab.lifetable import (
    E0_BLOCK,
    e0_at,
    e0_paths,
    life_table,
    monotonicity_check,
    reconstruct_surface,
)
from mortlab.lilee import LiLeeParams


def direct_e0_oracle(m):
    """Independent brute-force life expectancy: explicit loops, no arrays."""
    lx = 1.0
    total = 0.0
    for rate in m:
        q = rate / (1.0 + 0.5 * rate)
        q = min(q, 1.0)
        total += lx
        lx *= 1.0 - q
    return total - 0.5


def make_params(alpha_rows, B=None, n_years=5):
    alpha = np.asarray(alpha_rows, dtype=float)
    n, a = alpha.shape
    if B is None:
        B = np.full(a, 1.0 / a)
    K = np.linspace(1.0, -1.0, n_years)
    K = K - K.mean()
    return LiLeeParams(
        countries=tuple(f"C{i}" for i in range(n)),
        ages=np.arange(a),
        years=2000 + np.arange(n_years),
        alpha=alpha,
        B=B,
        K=K,
        b=np.zeros((n, a)),
        k=np.zeros((n, n_years)),
    )


class TestReconstruct:
    def test_k_zero_is_exp_alpha(self):
        params = make_params([np.linspace(-9, -2, 91)])
        m = reconstruct_surface(params, 0, 0.0)
        assert np.allclose(m, np.exp(params.alpha[0]))

    def test_uniform_loading_scales_all_ages(self):
        params = make_params([np.linspace(-9, -2, 91)])
        m0 = reconstruct_surface(params, 0, 0.0)
        m1 = reconstruct_surface(params, 0, -1.0)
        assert np.allclose(m1 / m0, np.exp(-1.0 / 91.0))

    def test_declining_k_lowers_every_age(self):
        params = make_params([np.linspace(-9, -2, 91)])
        m_hi = reconstruct_surface(params, 0, 1.0)
        m_lo = reconstruct_surface(params, 0, -1.0)
        assert np.all(m_lo < m_hi)

    def test_country_by_code(self):
        params = make_params([np.linspace(-9, -2, 11), np.linspace(-8, -1, 11)])
        assert np.array_equal(
            reconstruct_surface(params, "C1", 0.3),
            reconstruct_surface(params, 1, 0.3),
        )


class TestLifeTable:
    def test_immortal_limit(self):
        lt = life_table(np.zeros(91))
        assert lt.e0 == pytest.approx(90.5, abs=1e-12)
        assert np.all(lt.lx == 1.0)

    def test_constant_rate_against_oracle(self):
        m = np.full(91, 0.01)
        lt = life_table(m)
        assert lt.e0 == pytest.approx(direct_e0_oracle(m), abs=1e-10)
        assert lt.qx[0] == pytest.approx(0.01 / 1.005)
        # sanity: the spec-quoted approximate value
        assert lt.e0 == pytest.approx(59.55, abs=0.05)

    def test_random_curves_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = np.exp(rng.uniform(-9, -0.5, size=91))
            lt = life_table(m)
            assert lt.e0 == pytest.approx(direct_e0_oracle(m), abs=1e-10)

    def test_clamp_warns_above_two(self):
        m = np.zeros(10)
        m[0] = 5.0  # q would exceed 1
        with pytest.warns(RuntimeWarning):
            lt = life_table(m)
        assert lt.qx[0] == 1.0
        assert np.all(lt.lx[1:] == 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            life_table(np.array([-0.1, 0.2]))

    def test_e0_strictly_decreasing_in_rates(self):
        rng = np.random.default_rng(1)
        m = np.exp(rng.uniform(-8, -1, size=91))
        base = life_table(m).e0
        bumped = m.copy()
        bumped[40] *= 1.5
        assert life_table(bumped).e0 < base


class TestMonotonicity:
    def test_gompertz_passes(self):
        m = 1e-4 * np.exp(0.09 * np.arange(91))
        res = monotonicity_check(m)
        assert res.passed and res.verdict == "PASS"

    def test_single_inversion_fails_at_age(self):
        m = 1e-4 * np.exp(0.09 * np.arange(91))
        m[51] = m[50] * 0.9
        res = monotonicity_check(m)
        assert not res.passed
        assert res.first_violation_age == 50

    def test_flat_curve_passes(self):
        res = monotonicity_check(np.full(91, 0.01))
        assert res.passed

    def test_violation_below_range_ignored(self):
        m = 1e-4 * np.exp(0.09 * np.arange(91))
        m[20] = m[19] * 0.5  # young-adult dip is legitimate
        assert monotonicity_check(m).passed


class TestE0Paths:
    def _ensemble(self, k_values):
        from mortlab.forecast import ForecastEnsemble

        k_values = np.asarray(k_values, dtype=float)
        s, h1 = k_values.shape
        levels = np.zeros((s, h1, 2))
        levels[:, :, 0] = k_values
        return ForecastEnsemble(levels=levels, years=2020 + np.arange(h1))

    def test_degenerate_ensemble_equal_e0(self):
        params = make_params([np.linspace(-9, -2, 91)])
        ens = self._ensemble(np.full((4, 3), -2.0))
        paths = e0_paths(ens, params, 0)
        assert paths.shape == (4, 2)
        assert np.allclose(paths, paths[0, 0])

    def test_lower_k_means_higher_e0(self):
        rng = np.random.default_rng(2)
        params = make_params([np.linspace(-9, -2, 91)])
        ks = np.sort(rng.uniform(-3, 3, size=8))[::-1]
        ens = self._ensemble(ks[:, None] * np.ones((8, 4)))
        paths = e0_paths(ens, params, 0)
        assert np.all(np.diff(paths[:, 0]) > 0)

    def test_equal_alpha_gives_equal_paths(self):
        alpha = np.linspace(-9, -2, 91)
        params = make_params([alpha, alpha])
        rng = np.random.default_rng(3)
        ens = self._ensemble(rng.uniform(-2, 2, size=(5, 4)))
        assert np.array_equal(
            e0_paths(ens, params, 0), e0_paths(ens, params, 1)
        )

    def test_matches_scalar_helper(self):
        params = make_params([np.linspace(-9, -2, 91)])
        ens = self._ensemble(np.array([[0.0, -1.0, -2.0]]))
        paths = e0_paths(ens, params, 0)
        assert paths[0, 0] == pytest.approx(e0_at(params, 0, -1.0), abs=1e-12)
        assert paths[0, 1] == pytest.approx(e0_at(params, 0, -2.0), abs=1e-12)

    def test_terminal_only_equals_last_column_bitwise(self):
        # more paths than E0_BLOCK: the terminal curves fall into blocks
        # at other offsets than they do in the full (paths x horizon) run
        rng = np.random.default_rng(4)
        params = make_params([np.linspace(-9, -2, 91)])
        k = np.cumsum(rng.normal(-0.3, 0.5, size=(2100, 31)), axis=1)
        ens = self._ensemble(k)
        assert ens.n_paths > E0_BLOCK
        full = e0_paths(ens, params, 0)
        terminal = e0_paths(ens, params, 0, horizons=-1)
        assert full.shape == (2100, 30) and terminal.shape == (2100,)
        assert np.array_equal(terminal, full[:, -1])

    def test_every_horizon_equals_its_column_bitwise(self):
        # the forecast stage builds its e0 fan from one horizon at a time
        rng = np.random.default_rng(5)
        params = make_params([np.linspace(-9, -2, 91)])
        k = np.cumsum(rng.normal(-0.3, 0.5, size=(300, 13)), axis=1)
        ens = self._ensemble(k)
        assert ens.n_paths > E0_BLOCK
        full = e0_paths(ens, params, 0)
        for h in range(-full.shape[1], full.shape[1]):
            one = e0_paths(ens, params, 0, horizons=h)
            assert one.shape == (300,) and np.array_equal(one, full[:, h]), h
