import numpy as np
import pytest

from mortlab.data import synthesize_cluster, synthetic_truth
from mortlab.errors import DegenerateSeriesError, DimensionError, RankError
from mortlab.lilee import (
    FactorPanel,
    LiLeeParams,
    fit_ar1,
    fit_lilee,
    fit_rwd,
    dump_params,
    leading_singular_pair,
    parse_params,
)


def jacobi_svd(M, sweeps=100, tol=1e-14):
    """Independent SVD oracle: one-sided Jacobi rotations on columns.

    Columns are paired in round-robin (parallel) order (Brent & Luk 1985,
    SIAM J. Sci. Stat. Comput. 6(1)): each step rotates n/2 disjoint pairs
    at once, and the n - 1 steps of a sweep meet every pair once.  A zero
    column pads an odd n; it is orthogonal to everything, so it never
    rotates.  A wide matrix is solved through its transpose: its surplus
    columns would only rotate rounding noise until the sweep limit.
    Returns the thin SVD (U, s, V), M = U @ diag(s) @ V.T with min(m, n)
    singular values sorted descending.  Used only as a test oracle for the
    LAPACK-backed implementation under test; it calls no LAPACK routine.
    """
    A = np.array(M, dtype=float)
    m, n = A.shape
    if m < n:
        V, sigmas, U = jacobi_svd(A.T, sweeps, tol)
        return U, sigmas, V
    k = n + n % 2
    # row j holds column j of A, then column j of V (which starts as I)
    W = np.zeros((k, m + k))
    W[:n, :m] = A.T
    W[:, m:] = np.eye(k)
    rounds = []
    order = np.arange(k)
    for _ in range(k - 1):
        rounds.append((order[: k // 2], order[::-1][: k // 2]))
        # the circle method: the first column stays, the others move on
        order = np.concatenate([order[:1], np.roll(order[1:], 1)])
    for _ in range(sweeps):
        rotated = False
        for p, q in rounds:
            Wp, Wq = W[p], W[q]
            app = np.einsum("ij,ij->i", Wp[:, :m], Wp[:, :m])
            aqq = np.einsum("ij,ij->i", Wq[:, :m], Wq[:, :m])
            apq = np.einsum("ij,ij->i", Wp[:, :m], Wq[:, :m])
            live = np.abs(apq) > tol * np.sqrt(app * aqq) + 1e-300
            if not live.any():
                continue
            rotated = True
            tau = (aqq[live] - app[live]) / (2.0 * apq[live])
            t = np.ones_like(tau)
            big = np.abs(tau) > 1e12  # asymptotic form avoids tau^2 overflow
            mid = (tau != 0.0) & ~big
            t[big] = 1.0 / (2.0 * tau[big])
            t[mid] = np.sign(tau[mid]) / (np.abs(tau[mid]) + np.sqrt(1.0 + tau[mid] ** 2))
            c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
            s = c * t[:, None]
            Wp, Wq = Wp[live], Wq[live]
            W[p[live]], W[q[live]] = c * Wp - s * Wq, s * Wp + c * Wq
        if not rotated:
            break
    A, V = W[:n, :m].T, W[:n, m : m + n].T
    sigmas = np.linalg.norm(A, axis=0)
    order = np.argsort(sigmas)[::-1]
    sigmas = sigmas[order]
    U = np.zeros((m, n))
    nonzero = sigmas > 0
    U[:, nonzero] = A[:, order][:, nonzero] / sigmas[nonzero]
    return U, sigmas, V[:, order]


class TestJacobiOracle:
    def test_oracle_agrees_with_lapack(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((12, 7))
        _, s_j, _ = jacobi_svd(M)
        s_l = np.linalg.svd(M, compute_uv=False)
        assert np.allclose(s_j, s_l, atol=1e-10)


class TestLeadingSingularPair:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(8)
        v0 = rng.standard_normal(5)
        M = np.outer(u0, v0)
        u, s, v = leading_singular_pair(M)
        assert s == pytest.approx(np.linalg.norm(u0) * np.linalg.norm(v0), abs=1e-10)
        recon = s * np.outer(u, v)
        assert np.max(np.abs(recon - M)) <= 1e-10

    def test_diagonal_case(self):
        M = np.diag([3.0, 1.0])
        u, s, v = leading_singular_pair(M)
        assert s == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(np.abs(u), [1.0, 0.0], atol=1e-10)
        assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 4))
        u, _, _ = leading_singular_pair(M)
        assert u.sum() >= 0

    def test_zero_matrix_raises(self):
        with pytest.raises(RankError):
            leading_singular_pair(np.zeros((3, 3)))

    def test_non_matrix_raises(self):
        with pytest.raises(DimensionError):
            leading_singular_pair(np.ones(4))

    def test_leading_values_1e9_apart(self):
        # diag(2, 2(1 - 1e-9), 1, 0.5, ...) in rotated bases: a gap that
        # power iteration cannot resolve within any practical step count
        rng = np.random.default_rng(9)
        Q1, _ = np.linalg.qr(rng.standard_normal((8, 6)))
        Q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sig = np.array([2.0, 2.0 * (1 - 1e-9), 1.0, 0.5, 0.25, 0.125])
        M = Q1 @ np.diag(sig) @ Q2.T
        u, s, v = leading_singular_pair(M)
        assert s == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)
        assert np.linalg.norm(M @ v - s * u) <= 1e-12
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestFitLiLee:
    def test_rank1_recovery(self, rank1_truth, rank1_cluster):
        params, resid = fit_lilee(rank1_cluster)
        got = np.outer(params.B, params.K)
        want = np.outer(rank1_truth.B, rank1_truth.K)
        assert np.linalg.norm(got - want) <= 1e-8
        # K recovered up to the shared normalization
        assert np.max(np.abs(params.K - rank1_truth.K)) <= 1e-6

    def test_constant_surface_gives_zero_factors(self):
        truth = synthetic_truth(n_countries=2, year_range=(2000, 2019), seed=5, specific="none")
        const = LiLeeParams(
            countries=truth.countries,
            ages=truth.ages,
            years=truth.years,
            alpha=truth.alpha,
            B=truth.B,
            K=np.zeros_like(truth.K),
            b=truth.b,
            k=truth.k,
        )
        cluster = synthesize_cluster(const, noise_sd=0.0, seed=0)
        params, _ = fit_lilee(cluster)
        assert np.allclose(params.K, 0.0, atol=1e-12)
        assert np.allclose(params.k, 0.0, atol=1e-12)

    def test_country_permutation(self, small_cluster):
        from mortlab.data import ClusterDataset

        params, _ = fit_lilee(small_cluster)
        flipped = ClusterDataset(surfaces=small_cluster.surfaces[::-1])
        params2, _ = fit_lilee(flipped)
        assert np.max(np.abs(params.B - params2.B)) <= 1e-10
        assert np.max(np.abs(params.K - params2.K)) <= 1e-10
        assert np.max(np.abs(params.k - params2.k[::-1])) <= 1e-10

    def test_reconstruction_identity(self, small_cluster):
        params, resid = fit_lilee(small_cluster)
        for i, surf in enumerate(small_cluster.surfaces):
            recon = (
                params.alpha[i][:, None]
                + np.outer(params.B, params.K)
                + np.outer(params.b[i], params.k[i])
                + resid[i]
            )
            assert np.max(np.abs(recon - surf.log_m)) <= 1e-10

    def test_normalization(self, small_cluster):
        params, _ = fit_lilee(small_cluster)
        assert params.B.sum() == pytest.approx(1.0, abs=1e-10)
        assert params.K.sum() == pytest.approx(0.0, abs=1e-8)
        for i in range(params.n_countries):
            assert params.b[i].sum() == pytest.approx(1.0, abs=1e-10)
            assert params.k[i].sum() == pytest.approx(0.0, abs=1e-8)

    def test_two_step_does_not_increase_residual(self, small_cluster):
        params, resid = fit_lilee(small_cluster)
        step1 = np.stack(
            [
                surf.log_m - params.alpha[i][:, None] - np.outer(params.B, params.K)
                for i, surf in enumerate(small_cluster.surfaces)
            ]
        )
        assert np.linalg.norm(resid) <= np.linalg.norm(step1) + 1e-12

    def test_noisy_reconstruction_rmse(self, small_truth):
        cluster = synthesize_cluster(small_truth, noise_sd=0.01, seed=99)
        params, resid = fit_lilee(cluster)
        rmse = np.sqrt(np.mean(resid**2))
        assert rmse <= 0.02


class TestLinearForecasters:
    def test_rwd_exact_linear(self):
        d = fit_rwd(np.array([0.0, -1.0, -2.0, -3.0]))
        assert d.drift == pytest.approx(-1.0)
        assert d.sigma == pytest.approx(0.0)

    def test_rwd_hand_arithmetic(self):
        # diffs of [0,1,0,1] are [1,-1,1]: mean 1/3, sample sd 2*sqrt(1/3)
        d = fit_rwd(np.array([0.0, 1.0, 0.0, 1.0]))
        diffs = [1.0, -1.0, 1.0]
        mean = sum(diffs) / 3
        sd = (sum((x - mean) ** 2 for x in diffs) / 2) ** 0.5
        assert d.drift == pytest.approx(mean)
        assert d.sigma == pytest.approx(sd)
        assert d.sigma == pytest.approx(2 * np.sqrt(1.0 / 3.0))

    def test_rwd_constant(self):
        d = fit_rwd(np.full(10, 4.2))
        assert d.drift == 0.0
        assert d.sigma == 0.0

    def test_ar1_deterministic(self):
        k = 0.5 ** np.arange(10)
        a = fit_ar1(k)
        assert a.phi == pytest.approx(0.5, abs=1e-12)
        assert a.xi_sd == pytest.approx(0.0, abs=1e-12)

    def test_ar1_alternating(self):
        k = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        a = fit_ar1(k)
        assert a.phi == pytest.approx(-1.0)

    def test_ar1_zero_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            fit_ar1(np.zeros(10))

    def test_ar1_random_walk_monte_carlo(self):
        rng = np.random.default_rng(2024)
        hits = 0
        for _ in range(1000):
            walk = np.cumsum(rng.standard_normal(500))
            a = fit_ar1(walk)
            if 0.95 <= a.phi <= 1.05:
                hits += 1
        assert hits >= 950


class TestParamsIO:
    def test_round_trip(self, small_cluster):
        params, _ = fit_lilee(small_cluster)
        back = parse_params(dump_params(params))
        assert back.countries == params.countries
        for name in ("alpha", "B", "K", "b", "k"):
            assert np.array_equal(getattr(back, name), getattr(params, name))

    def test_schema_checked(self):
        with pytest.raises(DimensionError):
            parse_params('{"schema": "other"}')


def test_factor_panel_layout(small_cluster):
    params, _ = fit_lilee(small_cluster)
    panel = FactorPanel.from_params(params)
    assert panel.labels[0] == "K"
    assert panel.labels[1:] == params.countries
    assert np.array_equal(panel.values[:, 0], params.K)
    assert np.array_equal(panel.values[:, 2], params.k[1])
