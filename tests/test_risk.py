import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortlab.errors import DegenerateRiskError
from mortlab.risk import (
    delta_star_from,
    es,
    reverse_stress,
    scr,
    shock_sensitivities,
    var,
)


class TestVar:
    def test_all_equal(self):
        assert var(np.full(50, 3.5), 0.995) == 3.5

    def test_median_of_pair(self):
        assert var(np.array([1.0, 2.0]), 0.5) == pytest.approx(1.5)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            var(np.array([1.0]), 0.5)

    def test_matches_numpy_linear_rule(self):
        rng = np.random.default_rng(0)
        sample = rng.standard_normal(137)
        for level in (0.1, 0.5, 0.9, 0.995):
            assert var(sample, level) == pytest.approx(
                float(np.quantile(sample, level)), abs=1e-12
            )


class TestEs:
    def test_all_equal(self):
        assert es(np.full(200, 7.0), 0.99) == 7.0

    def test_single_element_tail_is_max(self):
        rng = np.random.default_rng(1)
        sample = rng.standard_normal(100)
        assert es(sample, 0.99) == sample.max()

    def test_empty_tail_rejected(self):
        with pytest.raises(DegenerateRiskError):
            es(np.arange(10, dtype=float), 0.99)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=100, max_size=300),
        st.sampled_from([0.9, 0.95, 0.99]),
    )
    @settings(max_examples=100)
    def test_es_dominates_var(self, values, level):
        sample = np.asarray(values)
        assert es(sample, level) >= var(sample, level) - 1e-9


class TestEquivariance:
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=80),
        st.floats(-100, 100),
        st.floats(0.1, 10),
    )
    @settings(max_examples=100)
    def test_translation_and_scale(self, values, shift, scale):
        sample = np.asarray(values)
        for fn, level in ((var, 0.9), (es, 0.9)):
            base = fn(sample, level)
            assert fn(sample + shift, level) == pytest.approx(base + shift, abs=1e-6)
            assert fn(sample * scale, level) == pytest.approx(base * scale, rel=1e-9, abs=1e-9)


class TestScr:
    def test_symmetric_sample(self):
        # 300 draws from the 3-point symmetric distribution {-1, 0, +1}*2 + 85:
        # the whole 1% tail sits at the top point, so SCR equals the offset
        sample = 85.0 + np.tile([-1.0, 0.0, 1.0], 100) * 2.0
        rep = scr(sample)
        assert rep.mean_e0 == pytest.approx(85.0)
        assert rep.scr_es == pytest.approx(2.0)
        assert rep.scr_var == pytest.approx(2.0)
        assert rep.scr_es > 0

    def test_constant_sample_zero_scr(self):
        rep = scr(np.full(500, 84.0))
        assert rep.scr_var == 0.0
        assert rep.scr_es == 0.0


class TestReverseStress:
    def gompertz_params(self):
        # Gompertz in the frontier-longevity regime the projections live in
        # (e0 ~ 85.6 on the closed table); linearity of the shock response
        # holds there, and degrades for much shorter-lived baselines.
        from tests.test_lifetable import make_params

        ages = np.arange(91)
        alpha = np.log(6e-6) + 0.102 * ages
        return make_params([alpha])

    def test_exact_linear_construction(self):
        # sensitivity pinned at 5 years per unit shock: delta* = 1.0 / 5 = 0.2
        delta, mean_sens, cv = delta_star_from(1.0, np.full(4, 5.0))
        assert delta == pytest.approx(0.20, abs=1e-15)
        assert mean_sens == 5.0
        assert cv == 0.0

    def test_gompertz_linearity(self):
        params = self.gompertz_params()
        res = reverse_stress(params, mean_k_terminal=-2.0, country=0, scr_es=1.0)
        assert res.sensitivity_cv < 0.01
        assert res.delta_star == pytest.approx(1.0 / res.sensitivity)

    def test_delta_star_linear_in_scr(self):
        params = self.gompertz_params()
        r1 = reverse_stress(params, -2.0, 0, scr_es=0.5)
        r2 = reverse_stress(params, -2.0, 0, scr_es=1.0)
        assert r2.delta_star == pytest.approx(2.0 * r1.delta_star, rel=1e-12)

    def test_non_positive_scr_rejected(self):
        params = self.gompertz_params()
        with pytest.raises(DegenerateRiskError):
            reverse_stress(params, -2.0, 0, scr_es=0.0)

    def test_non_positive_sensitivity_rejected(self):
        with pytest.raises(DegenerateRiskError):
            delta_star_from(1.0, np.array([1.0, -0.5, 2.0, 1.0]))

    def test_sensitivities_measure_gains(self):
        m = 1e-4 * np.exp(0.09 * np.arange(91))
        gains, sens = shock_sensitivities(m, (0.10,))
        from tests.test_lifetable import direct_e0_oracle

        want = direct_e0_oracle(0.9 * m) - direct_e0_oracle(m)
        assert gains[0] == pytest.approx(want, abs=1e-10)
        assert sens[0] == pytest.approx(want / 0.10, abs=1e-9)
