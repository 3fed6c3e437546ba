import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queueloss import discrete as D
from queueloss import stats as ST
from reference_numerics import growth_integrand, simulate_path_py, walk_chunk_py, walk_eigen


def brute_force_variance(params: D.DiscreteQueueParams, N: int) -> float:
    """Window-loss variance by explicit matrix powers (independent oracle)."""
    kernel = D.build_kernel(params)
    pi = D.stationary_distribution(params)
    p, L = params.p, params.L
    m = pi[L] * p
    power = np.eye(L + 1)
    acc = 0.0
    for k in range(N - 1):
        acc += (N - 1 - k) * power[L, L]
        power = power @ kernel
    return N * m + 2.0 * pi[L] * p * p * acc - (N * m) ** 2


def brute_force_r2(params: D.DiscreteQueueParams, N: int, M: int) -> float:
    """Window correlator by explicit double sums over matrix powers."""
    kernel = D.build_kernel(params)
    pi = D.stationary_distribution(params)
    p, L = params.p, params.L
    m = pi[L] * p
    powers = [np.eye(L + 1)]
    for _ in range(M + N):
        powers.append(powers[-1] @ kernel)
    cov = 0.0
    for n in range(1, N + 1):
        for mm in range(M + 1, M + N + 1):
            cov += pi[L] * p * p * powers[mm - n - 1][L, L] - m * m
    return cov / brute_force_variance(params, N)


class TestKernel:
    def test_symmetric_two_state(self):
        kernel = D.build_kernel(D.DiscreteQueueParams(p=0.5, L=1))
        assert np.allclose(kernel, [[0.5, 0.5], [0.5, 0.5]])

    def test_no_arrivals_keeps_empty_queue(self):
        kernel = D.build_kernel(D.DiscreteQueueParams(p=0.0, L=4))
        assert kernel[0, 0] == 1.0
        pi = D.stationary_distribution(D.DiscreteQueueParams(p=0.0, L=4))
        assert pi[0] == 1.0 and pi[1:].sum() == 0.0

    def test_three_state_rows(self):
        kernel = D.build_kernel(D.DiscreteQueueParams(p=0.75, L=2))
        expected = np.array([[0.25, 0.75, 0.0], [0.25, 0.0, 0.75], [0.0, 0.25, 0.75]])
        assert np.allclose(kernel, expected)
        assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-15)

    @given(
        p=st.floats(0.05, 0.95),
        L=st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_structure_properties(self, p, L):
        params = D.DiscreteQueueParams(p=p, L=L)
        mat = D.build_kernel(params)
        assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12
        # only the single-step band plus the two corner holds is populated
        off_band = mat.copy()
        for i in range(L + 1):
            for j in (i - 1, i, i + 1):
                if 0 <= j <= L:
                    off_band[i, j] = 0.0
        assert np.all(off_band == 0.0)
        assert mat[0, 0] == pytest.approx(1.0 - p)
        assert mat[L, L] == pytest.approx(p)
        # detailed balance with weights q^l
        pi = D.stationary_distribution(params)
        flows_up = pi[:-1] * np.diag(mat, 1)
        flows_down = pi[1:] * np.diag(mat, -1)
        assert np.abs(flows_up - flows_down).max() < 1e-12


class TestStationary:
    def test_uniform_at_balance(self):
        pi = D.stationary_distribution(D.DiscreteQueueParams(p=0.5, L=9))
        assert np.allclose(pi, 0.1, atol=1e-14)

    def test_geometric_weights(self):
        pi = D.stationary_distribution(D.DiscreteQueueParams(p=0.75, L=2))
        assert np.allclose(pi, np.array([1.0, 3.0, 9.0]) / 13.0)

    @given(p=st.floats(0.02, 0.98), L=st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_fixed_point(self, p, L):
        params = D.DiscreteQueueParams(p=p, L=L)
        pi = D.stationary_distribution(params)
        kernel = D.build_kernel(params)
        assert np.abs(pi @ kernel - pi).max() < 1e-10

    def test_large_capacity_does_not_overflow(self):
        pi = D.stationary_distribution(D.DiscreteQueueParams(p=0.9, L=500))
        assert np.isfinite(pi).all()
        assert pi.sum() == pytest.approx(1.0)


class TestClosedFormSpectrum:
    @given(p=st.floats(0.02, 0.98), L=st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_eigensolve(self, p, L):
        pi_L, lam, w = D._modes(D.DiscreteQueueParams(p=p, L=L))
        vals, weights = walk_eigen(p, L)
        # The dense solve includes the stationary mode (1, pi(L)) first.
        assert np.abs(np.concatenate(([1.0], lam)) - vals).max() <= 1e-12
        assert np.abs(np.concatenate(([pi_L], w)) - weights).max() <= 1e-12


class TestGreenFunction:
    def test_zero_steps_is_identity(self):
        params = D.DiscreteQueueParams(p=0.3, L=5)
        assert D.green_function(params, 0, 2, 2) == 1.0
        assert D.green_function(params, 0, 2, 3) == 0.0

    def test_one_step_full_buffer_hold(self):
        params = D.DiscreteQueueParams(p=0.62, L=7)
        assert D.green_function(params, 1, 7, 7) == pytest.approx(0.62)

    def test_long_time_limit_is_stationary(self):
        params = D.DiscreteQueueParams(p=0.55, L=12)
        pi = D.stationary_distribution(params)
        for frm in (0, 5, 12):
            val = D.green_function(params, 40000, frm, 3)
            assert val == pytest.approx(pi[3], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 17, 33, 64])
    def test_spectral_matches_matrix_power(self, n):
        params = D.DiscreteQueueParams(p=0.65, L=9)
        for frm, to in ((0, 0), (9, 9), (2, 7), (8, 1)):
            via_power = D._propagate_row(params, n, frm)[to]
            via_spectrum = D._spectral_green(params, n, frm, to)
            assert via_spectrum == pytest.approx(via_power, abs=1e-9)

    def test_spectral_branch_matches_matrix_power_grid(self):
        # Past 64 steps the default path takes the spectral branch. Its rows
        # must stay accurate where the similarity ratio q^{(to-frm)/2} is
        # large, e.g. p = 0.1, L = 40, from the full to the empty state.
        worst = 0.0
        for L in range(1, 41):
            states = sorted({0, L // 2, L})
            for p in np.linspace(0.1, 0.9, 9):
                params = D.DiscreteQueueParams(p=float(p), L=L)
                matrix = D.build_kernel(params)
                for n in (65, 100, 300):
                    power = np.linalg.matrix_power(matrix, n)
                    for frm in states:
                        for to in states:
                            got = D.green_function(params, n, frm, to)
                            worst = max(worst, abs(got - power[frm, to]))
        assert worst <= 1e-9


    @pytest.mark.parametrize("p", [0.1, 0.9])
    def test_large_buffer_matches_matrix_power(self, p):
        # At L = 1000 the spectral sum for 500 -> 0 and 1000 -> 0 at p = 0.1
        # (and the reflected pairs at p = 0.9) would cancel terms near
        # q^{(to-frm)/2} ~ 1e238 and 1e477; auto must not take it there.
        params = D.DiscreteQueueParams(p=p, L=1000)
        power = np.linalg.matrix_power(D.build_kernel(params), 100)
        pairs = ((500, 0), (1000, 0), (0, 500), (0, 1000), (500, 1000), (1000, 1000), (0, 0))
        for frm, to in pairs:
            got = D.green_function(params, 100, frm, to)
            assert got == pytest.approx(power[frm, to], abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.77, 1.0])
    def test_row_propagation_matches_matrix_power(self, p):
        worst = 0.0
        for L in (1, 2, 7, 40):
            params = D.DiscreteQueueParams(p=p, L=L)
            matrix = D.build_kernel(params)
            for n in (0, 1, 5, 64, 200):
                power = np.linalg.matrix_power(matrix, n)
                for frm in sorted({0, L // 2, L}):
                    row = D._propagate_row(params, n, frm)
                    worst = max(worst, np.abs(row - power[frm]).max())
        assert worst <= 1e-13

    def test_large_buffer_short_and_cancelling_cases(self):
        # p = 0.1, L = 1000: within 64 steps no state farther than 64 away
        # is reachable, and at 100 steps 500 -> 0 and 1000 -> 0 are the
        # cancelling spectral sums that auto must leave; all are exactly 0.
        params = D.DiscreteQueueParams(p=0.1, L=1000)
        for n in (64, 100):
            assert D.green_function(params, n, 500, 0) == 0.0
            assert D.green_function(params, n, 1000, 0) == 0.0
        power = np.linalg.matrix_power(D.build_kernel(params), 64)
        for frm, to in ((0, 0), (0, 30), (1000, 1000), (980, 1000)):
            assert D.green_function(params, 64, frm, to) == pytest.approx(power[frm, to], abs=1e-13)

    def test_degenerate_long_run_is_a_point_mass(self):
        # p = 0 drives every state to 0 within L steps; the propagation
        # stops once the row is fixed, so a huge n costs no more than L.
        params = D.DiscreteQueueParams(p=0.0, L=5)
        assert D.green_function(params, 10**9, 3, 0) == 1.0
        assert D.green_function(params, 10**9, 3, 1) == 0.0

    def test_spectral_refuses_cancelling_sum(self):
        params = D.DiscreteQueueParams(p=0.1, L=1000)
        for frm in (500, 1000):
            with pytest.raises(D.DegenerateParamsError, match="cancel"):
                D._spectral_green(params, 100, frm, 0)


class TestMeanLossRate:
    def test_matches_boundary_weight_identity(self):
        for p in (0.1, 0.4, 0.5, 0.62, 0.9):
            params = D.DiscreteQueueParams(p=p, L=15)
            pi = D.stationary_distribution(params)
            assert D.mean_loss_rate_exact(params) == pytest.approx(pi[-1] * p, abs=1e-12)

    def test_matches_closed_form_ratio(self):
        # direct transcription of the geometric closed form at small L
        p, L = 0.7, 6
        q = p / (1 - p)
        want = p * (q ** (L + 1) - q**L) / (q ** (L + 1) - 1)
        got = D.mean_loss_rate_exact(D.DiscreteQueueParams(p=p, L=L))
        assert got == pytest.approx(want, rel=1e-12)

    def test_balanced_limit_follows_exact_formula(self):
        # The q -> 1 limit of the closed form is p/(L+1); the brute-force
        # stationary chain is the adjudicating oracle.
        params = D.DiscreteQueueParams(p=0.5, L=20)
        got = D.mean_loss_rate_exact(params)
        assert got == pytest.approx(0.5 / 21.0, rel=1e-13)
        kernel = D.build_kernel(params)
        pi = np.full(21, 1.0 / 21.0)
        assert np.abs(pi @ kernel - pi).max() < 1e-15
        assert got == pytest.approx(pi[-1] * 0.5, rel=1e-13)

    def test_heavy_load_asymptote(self):
        got = D.mean_loss_rate_exact(D.DiscreteQueueParams(p=0.75, L=10))
        assert got == pytest.approx(2 * 0.75 - 1.0, rel=1e-2)

    def test_degenerate_endpoints(self):
        assert D.mean_loss_rate_exact(D.DiscreteQueueParams(p=0.0, L=5)) == 0.0
        assert D.mean_loss_rate_exact(D.DiscreteQueueParams(p=1.0, L=5)) == 1.0

    def test_light_load_is_exponentially_small(self):
        rate = D.mean_loss_rate_exact(D.DiscreteQueueParams(p=0.4, L=20))
        q = 0.4 / 0.6
        assert 0.0 < rate < q**18


class TestLossVariance:
    def test_single_window_is_bernoulli(self):
        for p, L in ((0.5, 8), (0.7, 3), (0.25, 12)):
            params = D.DiscreteQueueParams(p=p, L=L)
            m = D.mean_loss_rate_exact(params)
            assert D.loss_variance_exact(params, 1) == pytest.approx(m * (1 - m), abs=1e-14)

    @pytest.mark.parametrize("p,L,N", [(0.5, 8, 50), (0.65, 6, 37), (0.35, 10, 80)])
    def test_matches_matrix_power_oracle(self, p, L, N):
        params = D.DiscreteQueueParams(p=p, L=L)
        want = brute_force_variance(params, N)
        got = D.loss_variance_exact(params, N)
        assert got == pytest.approx(want, abs=1e-9)

    @given(p=st.floats(0.05, 0.95), L=st.integers(1, 12), N=st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_matches_matrix_power_oracle_random(self, p, L, N):
        params = D.DiscreteQueueParams(p=p, L=L)
        want = brute_force_variance(params, N)
        got = D.loss_variance_exact(params, N)
        assert got == pytest.approx(want, abs=1e-9)

    def test_matches_monte_carlo(self):
        params = D.DiscreteQueueParams(p=0.5, L=8)
        N = 50
        path = D.simulate_path(params, n_steps=N * 120_000, seed=33)
        series = ST.WindowedSeries.from_counts(path.window_counts(N), N)
        summary = ST.mean_and_variance(series)
        exact = D.loss_variance_exact(params, N)
        assert abs(summary.variance - exact) <= 3.0 * summary.variance_se

    def test_degenerate_paths_have_no_variance(self):
        assert D.loss_variance_exact(D.DiscreteQueueParams(p=1.0, L=4), 100) == 0.0
        assert D.loss_variance_exact(D.DiscreteQueueParams(p=0.0, L=4), 100) == 0.0


class TestCompressibility:
    def test_balanced_saturation(self):
        # Saturated ratio approaches two thirds of the capacity.
        params = D.DiscreteQueueParams(p=0.5, L=30)
        n_sat = int(20 * D.crossover_window(params))
        chi = D.compressibility(params, n_sat)
        assert chi == pytest.approx(2 * 30 / 3.0, rel=0.05)

    def test_offcritical_saturation_value(self):
        # The saturated variance-to-mean ratio at |2p-1| = b is (1-b^2)/b;
        # its small-b reduction (1-b)/b is recovered for weak drift.
        params = D.DiscreteQueueParams(p=0.7, L=50)
        n_sat = int(200 * D.crossover_window(params))
        b = 0.4
        assert D.compressibility(params, n_sat) == pytest.approx((1 - b * b) / b, rel=0.01)
        weak = D.DiscreteQueueParams(p=0.52, L=500)
        b = 0.04
        chi = D.compressibility(weak, int(50 * D.crossover_window(weak)))
        assert chi == pytest.approx((1 - b) / b, rel=0.05)

    @pytest.mark.parametrize("L", [100, 200])
    def test_critical_growth_slope(self, L):
        # Log-log slope of the variance-to-mean ratio in the growth window
        # [1e2, min(1e4, crossover/10)] sits at one half.
        params = D.DiscreteQueueParams(p=0.5, L=L)
        n_lo = 100
        n_hi = int(min(1e4, max(D.crossover_window(params) / 10.0, n_lo + 1)))
        chi_lo = D.compressibility(params, n_lo)
        chi_hi = D.compressibility(params, n_hi)
        slope = math.log(chi_hi / chi_lo) / math.log(n_hi / n_lo)
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_zero_mean_is_undefined(self):
        with pytest.raises(D.DegenerateParamsError):
            D.compressibility(D.DiscreteQueueParams(p=0.0, L=5), 10)


class TestCriticalCoefficient:
    def test_integrand_limits(self):
        assert growth_integrand(1e-9) == pytest.approx(0.5, abs=1e-12)
        assert growth_integrand(30.0) == pytest.approx(
            1.0 / 900.0 - 1.0 / 810000.0, rel=1e-12
        )

    def test_value_against_closed_form(self):
        # The integral evaluates in closed form to (4/3) sqrt(2/pi).
        assert D.critical_coefficient() == pytest.approx(
            (4.0 / 3.0) * math.sqrt(2.0 / math.pi), rel=1e-8
        )

    def test_consistent_with_exact_growth(self):
        # Fit of chi/sqrt(N) deep inside the growth window of a large buffer.
        params = D.DiscreteQueueParams(p=0.5, L=1000)
        ns = np.unique(np.round(np.logspace(2, 4, 9)).astype(int))
        ratios = [D.compressibility(params, int(n)) / math.sqrt(n) for n in ns]
        fitted = math.exp(float(np.mean(np.log(ratios))))
        assert fitted == pytest.approx(D.critical_coefficient(), rel=0.05)

    def test_growth_fit_at_a_million_states(self):
        # The closed-form spectrum makes L = 10^6 an O(L) evaluation; the
        # growth window then spans four decades of N.
        params = D.DiscreteQueueParams(p=0.5, L=10**6)
        ns = np.unique(np.round(np.logspace(2, 6, 9)).astype(int))
        ratios = [D.compressibility(params, int(n)) / math.sqrt(n) for n in ns]
        fitted = math.exp(float(np.mean(np.log(ratios))))
        assert fitted == pytest.approx(D.critical_coefficient(), rel=0.01)


class TestCorrelatorR2:
    @given(p=st.floats(0.05, 0.95), L=st.integers(1, 12), N=st.integers(1, 60),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_matrix_power_oracle(self, p, L, N, data):
        M = data.draw(st.integers(N + 1, 3 * N), label="M")
        params = D.DiscreteQueueParams(p=p, L=L)
        want = brute_force_r2(params, N, M)
        got = D.correlator_r2(params, N, M, branch="exact")
        assert got == pytest.approx(want, abs=1e-10)

    def test_critical_closed_form_reduction(self):
        # At balance the analytic branch divided by the critical closed form
        # equals the ratio of the fitted to exact window ratio; both scale
        # as 1/sqrt(separation).
        n, m = 20, 800
        analytic = D.correlator_r2(D.DiscreteQueueParams(p=0.5, L=50), n, m, branch="analytic")
        chi = D.compressibility(D.DiscreteQueueParams(p=0.5, L=50), n)
        want = (0.5 * n / chi) * math.sqrt(2.0 / (math.pi * m))
        assert analytic == pytest.approx(want, rel=1e-12)
        closed = D.critical_r2(n, m)
        assert closed == pytest.approx(
            math.sqrt(n / (2 * math.pi * m)) / D.critical_coefficient(), rel=1e-12
        )

    @pytest.mark.parametrize("N,M", [(10, 100), (20, 264), (20, 400), (50, 1000),
                                     (100, 1000), (100, 2000), (50, 3000)])
    def test_analytic_branch_matches_mpmath(self, N, M):
        # The bracket exp(-M b^2/2) sqrt(2/(pi M)) - b erfc(b sqrt(M/2))
        # cancels to a relative 1/(2x^2), x = b sqrt(M/2) (here up to 23);
        # evaluated without the cancellation it keeps 5e-13 against the
        # bracket at 60 digits, over both sides of the series switch at x = 7.
        mpmath.mp.dps = 60
        for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            params = D.DiscreteQueueParams(p=p, L=100)
            b = abs(2 * mpmath.mpf(p) - 1)
            bracket = (mpmath.exp(-M * b * b / 2) * mpmath.sqrt(2 / (mpmath.pi * M))
                       - b * mpmath.erfc(b * mpmath.sqrt(mpmath.mpf(M) / 2)))
            want = float(p * N / mpmath.mpf(D.compressibility(params, N)) * bracket)
            got = D.correlator_r2(params, N, M, branch="analytic")
            assert got == pytest.approx(want, rel=5e-13, abs=0.0)

    def test_analytic_branch_halves_per_quadrupling(self):
        params = D.DiscreteQueueParams(p=0.5, L=50)
        values = [D.correlator_r2(params, 20, m, branch="analytic") for m in (100, 400, 1600)]
        assert values[0] / values[1] == pytest.approx(2.0, rel=1e-12)
        assert values[1] / values[2] == pytest.approx(2.0, rel=1e-12)

    def test_exact_branch_power_law_in_large_buffer(self):
        # The separation power law holds on the exact branch once the buffer
        # is deep enough that the walk cannot feel the far wall.
        params = D.DiscreteQueueParams(p=0.5, L=1000)
        r100 = D.correlator_r2(params, 20, 100, branch="exact")
        r400 = D.correlator_r2(params, 20, 400, branch="exact")
        assert r100 / r400 == pytest.approx(2.0, rel=0.03)

    def test_offcritical_decorrelates_exponentially(self):
        params = D.DiscreteQueueParams(p=0.7, L=20)
        near = D.correlator_r2(params, 5, 40, branch="exact")
        far = D.correlator_r2(params, 5, 400, branch="exact")
        assert near > 0
        assert abs(far) < 1e-6 * near

    def test_matches_monte_carlo(self):
        params = D.DiscreteQueueParams(p=0.5, L=50)
        path = D.simulate_path(params, n_steps=10**7, seed=202)
        series = ST.WindowedSeries.from_counts(path.window_counts(20), 20)
        est = ST.correlation_estimate(series, [5])[0]  # lag 5 windows = 100 steps
        exact = D.correlator_r2(params, 20, 100, branch="exact")
        assert abs(est.value - exact) <= 3.0 * est.se

    @pytest.mark.parametrize("L,N,M", [(3000, 100, 1000), (1000, 1000, 10000)])
    def test_underflowed_variance_is_named(self, L, N, M):
        # pi(L) ~ q^L is below the smallest double, so the window variance
        # the correlator is normalized by is 0.
        with pytest.raises(D.DegenerateParamsError, match="underflow"):
            D.correlator_r2(D.DiscreteQueueParams(p=0.3, L=L), N, M)

    def test_rejects_overlapping_windows(self):
        with pytest.raises(ValueError):
            D.correlator_r2(D.DiscreteQueueParams(p=0.5, L=10), 10, 10)

    def test_mode_table_built_once_per_call(self, monkeypatch):
        # The covariance and the variance it is normalized by share one table.
        modes = D._modes
        calls = []

        def spy(params):
            calls.append(params)
            return modes(params)

        monkeypatch.setattr(D, "_modes", spy)
        params = D.DiscreteQueueParams(p=0.45, L=30)
        D.correlator_r2(params, 10, 50, branch="exact")
        assert calls == [params]


def _assert_path_matches_loop(path, params, n_steps, burn_in=0, seed=0):
    """``path`` against the per-step loop's dense record; returns that
    record ``(lengths, losses)``."""
    lengths, losses = simulate_path_py(params, n_steps, burn_in=burn_in, seed=seed)
    assert path.n_steps == n_steps
    assert (path.start, path.end) == (lengths[0], lengths[-1])
    assert path.loss_steps.dtype == np.int64
    assert np.array_equal(path.loss_steps, np.flatnonzero(losses))
    return lengths, losses


class TestSimulatePath:
    def test_deterministic_under_seed(self):
        params = D.DiscreteQueueParams(p=0.5, L=20)
        a = D.simulate_path(params, 5000, seed=11)
        b = D.simulate_path(params, 5000, seed=11)
        assert (a.start, a.end) == (b.start, b.end)
        assert np.array_equal(a.loss_steps, b.loss_steps)
        _assert_path_matches_loop(a, params, 5000, seed=11)

    def test_saturating_arrivals(self):
        params = D.DiscreteQueueParams(p=1.0, L=5)
        path = D.simulate_path(params, 50, burn_in=0, seed=1)
        # all mass at the full state; every step onward is a loss
        assert path.start == path.end == 5
        assert np.array_equal(path.loss_steps, np.arange(50))
        _assert_path_matches_loop(path, params, 50, seed=1)

    def test_saturating_arrivals_from_empty(self):
        # started empty, the queue fills in exactly L steps and every step
        # after that drops a packet
        L = 5
        params = D.DiscreteQueueParams(p=1.0, L=L)
        path = D.simulate_path(params, 50, burn_in=L, seed=1)
        assert path.start == L
        assert np.array_equal(path.loss_steps, np.arange(50))
        _assert_path_matches_loop(path, params, 50, burn_in=L, seed=1)
        ramp = D.simulate_path(params, 50, burn_in=2, seed=1)
        assert ramp.start == 2
        assert np.array_equal(ramp.loss_steps, np.arange(L - 2, 50))
        _assert_path_matches_loop(ramp, params, 50, burn_in=2, seed=1)

    def test_empty_arrivals(self):
        params = D.DiscreteQueueParams(p=0.0, L=5)
        path = D.simulate_path(params, 200, seed=2)
        assert path.loss_count() == 0
        assert path.start == path.end == 0
        _assert_path_matches_loop(path, params, 200, seed=2)

    @given(p=st.floats(0.1, 0.9), L=st.integers(1, 15), seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_path_invariants(self, p, L, seed):
        params = D.DiscreteQueueParams(p=p, L=L)
        path = D.simulate_path(params, 400, seed=seed)
        lengths, _ = _assert_path_matches_loop(path, params, 400, seed=seed)
        assert lengths.min() >= 0 and lengths.max() <= L
        steps = np.diff(lengths)
        assert set(np.unique(steps)).issubset({-1, 0, 1})
        # zero increments only at the walls
        held = lengths[:-1][steps == 0]
        assert np.isin(held, [0, L]).all()
        # loss events exactly where the full queue holds
        expect = (lengths[:-1] == L) & (lengths[1:] == L)
        assert np.array_equal(path.loss_steps, np.flatnonzero(expect))
        assert path.loss_count() == int(expect.sum())

    def test_burn_in_starts_empty(self):
        params = D.DiscreteQueueParams(p=0.9, L=30)
        path = D.simulate_path(params, 100, burn_in=5, seed=3)
        assert path.start <= 5
        _assert_path_matches_loop(path, params, 100, burn_in=5, seed=3)

    def test_rate_matches_exact_at_scale(self):
        params = D.DiscreteQueueParams(p=0.5, L=20)
        path = D.simulate_path(params, 10**6, seed=101)
        series = ST.WindowedSeries.from_counts(path.window_counts(100), 100)
        summary = ST.mean_and_variance(series)
        exact = D.mean_loss_rate_exact(params)
        assert abs(summary.mean / 100 - exact) <= 3.0 * summary.mean_se / 100

    @pytest.mark.parametrize("N", [1, 7, 1000, 10007, 20000])
    def test_window_counts_match_dense_sums(self, monkeypatch, N):
        # N = 1, N dividing neither the path nor the chunk, N = n_steps and
        # N > n_steps; the steps after the last whole window are dropped.
        monkeypatch.setattr(D, "_CHUNK", 4096)
        params = D.DiscreteQueueParams(p=0.5, L=3)
        path = D.simulate_path(params, 10007, seed=5)
        _, losses = _assert_path_matches_loop(path, params, 10007, seed=5)
        n_windows = losses.size // N
        want = losses[: n_windows * N].reshape(n_windows, N).sum(axis=1).astype(np.int64)
        got = path.window_counts(N)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_window_length_must_be_positive(self):
        path = D.simulate_path(D.DiscreteQueueParams(p=0.5, L=3), 100, seed=5)
        with pytest.raises(ValueError, match="window length"):
            path.window_counts(0)


class TestWalkKernel:
    """The clip-map block kernel against the per-step loop, bit for bit."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.97, 1.0])
    @pytest.mark.parametrize("L", [1, 2, 20, 300, 40000])
    def test_path_matches_loop(self, monkeypatch, p, L):
        # A 4096-step chunk makes the paths cross chunk boundaries; 10007 is
        # prime, so neither the chunks nor the blocks divide it. L = 40000
        # takes the int64 states.
        monkeypatch.setattr(D, "_CHUNK", 4096)
        params = D.DiscreteQueueParams(p=p, L=L)
        for n_steps, burn_in in ((1, 0), (1, 5), (10007, 0), (10007, 4099)):
            path = D.simulate_path(params, n_steps, burn_in=burn_in, seed=17)
            _assert_path_matches_loop(path, params, n_steps, burn_in=burn_in, seed=17)

    def test_default_chunk_matches_loop(self):
        params = D.DiscreteQueueParams(p=0.5, L=20)
        path = D.simulate_path(params, 1_000_003, seed=202)
        _assert_path_matches_loop(path, params, 1_000_003, seed=202)

    @pytest.mark.parametrize("l0", [0, 3, 7])
    def test_chunk_kernel_matches_loop(self, l0):
        # Prefixes of every size class: one step, fewer steps than a block
        # row, a partial last block, and whole blocks.
        u = np.random.default_rng(5).random(3001)
        ref_len = np.zeros(u.size + 1, dtype=np.int64)
        ref_loss = np.zeros(u.size, dtype=np.bool_)
        ref_len[0] = l0
        walk_chunk_py(l0, 7, 0.55, u, ref_len, ref_loss)
        for m in (1, 2, 5, 55, 56, 57, 1000, 2999, 3001):
            end, hits = D._walk_chunk(l0, 7, 0.55, u[:m])
            assert end == ref_len[m], m
            assert np.array_equal(hits, np.flatnonzero(ref_loss[:m])), m
            assert D._walk_chunk(l0, 7, 0.55, u[:m], replay=False) == (end, None)

    def test_memory_stays_within_a_few_chunks(self):
        # A path keeps its loss steps only: 5e6 steps at p = 1/2, L = 20 hold
        # about 120 000 losses (1 MB), so the peak is set by one chunk of
        # uniforms (8 MiB) and the chunk's step rows, not by the path length.
        params = D.DiscreteQueueParams(p=0.5, L=20)
        D.simulate_path(params, 10, seed=1)  # first-call allocations
        tracemalloc.start()
        try:
            path = D.simulate_path(params, 5_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.loss_count() > 100_000
        assert peak < 2.5 * D._CHUNK * 8


class TestParamValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            D.DiscreteQueueParams(p=1.2, L=5)
        with pytest.raises(ValueError):
            D.DiscreteQueueParams(p=0.5, L=0)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_capacity_rejected(self, L):
        with pytest.raises(ValueError, match="capacity"):
            D.DiscreteQueueParams(p=0.5, L=L)

    def test_q_at_saturated_arrivals(self):
        with pytest.raises(D.DegenerateParamsError):
            _ = D.DiscreteQueueParams(p=1.0, L=5).q

    def test_q_value(self):
        assert D.DiscreteQueueParams(p=0.75, L=2).q == pytest.approx(3.0)


class TestIntegerArguments:
    """Step counts, states and window lengths take Python ints, NumPy ints
    and integral floats; anything else raises a ValueError naming the
    argument and its minimum."""

    P = D.DiscreteQueueParams(p=0.5, L=20)
    BAD = [100.5, 10.5, -1, math.nan, math.inf]

    @pytest.mark.parametrize("N", BAD + [0])
    def test_loss_variance_exact(self, N):
        with pytest.raises(ValueError, match=r"window length N must be an integer >= 1"):
            D.loss_variance_exact(self.P, N)

    @pytest.mark.parametrize("N", BAD + [0])
    def test_compressibility(self, N):
        with pytest.raises(ValueError, match=r"window length N must be an integer >= 1"):
            D.compressibility(self.P, N)

    @pytest.mark.parametrize("N, M, message", [
        (10, 40.5, r"separation M must be an integer >= 11"),
        (10, 10, r"separation M must be an integer >= 11"),
        (10.5, 40, r"window length N"),
        (10, math.nan, r"separation M"),
    ])
    def test_correlator_r2(self, N, M, message):
        for branch in ("exact", "analytic"):
            with pytest.raises(ValueError, match=message):
                D.correlator_r2(self.P, N, M, branch=branch)

    @pytest.mark.parametrize("n", BAD)
    def test_green_function(self, n):
        with pytest.raises(ValueError, match=r"step count n must be an integer >= 0"):
            D.green_function(self.P, n, 0, 5)

    @pytest.mark.parametrize("n, frm, to, message", [
        (10, 0.5, 5, r"state frm must be an integer >= 0"),
        (100, 2.5, 5, r"state frm"),
        (100, 2, 5.5, r"state to"),
        (100, -1, 5, r"state frm"),
        (100, 2, 21, r"states must lie in 0\.\.L"),
    ])
    def test_green_function_states(self, n, frm, to, message):
        with pytest.raises(ValueError, match=message):
            D.green_function(self.P, n, frm, to)

    @pytest.mark.parametrize("n_steps, burn_in, message", [
        (1000.5, 0, r"n_steps must be an integer >= 1"),
        (0, 0, r"n_steps must be an integer >= 1"),
        (1000, 10.5, r"burn_in must be an integer >= 0"),
        (1000, -1, r"burn_in must be an integer >= 0"),
    ])
    def test_simulate_path(self, n_steps, burn_in, message):
        with pytest.raises(ValueError, match=message):
            D.simulate_path(self.P, n_steps, burn_in=burn_in)

    @pytest.mark.parametrize("N", BAD + [0])
    def test_window_counts(self, N):
        path = D.simulate_path(self.P, 1000, seed=3)
        with pytest.raises(ValueError, match=r"window length N must be an integer >= 1"):
            path.window_counts(N)

    @pytest.mark.parametrize("whole", [np.int64(100), 100.0, np.float64(100.0)])
    def test_integral_values_accepted(self, whole):
        assert D.loss_variance_exact(self.P, whole) == D.loss_variance_exact(self.P, 100)
        assert D.green_function(self.P, whole, 0, 5) == D.green_function(self.P, 100, 0, 5)
        assert D.correlator_r2(self.P, 10, whole * 4) == D.correlator_r2(self.P, 10, 400)
        path = D.simulate_path(self.P, whole * 10, burn_in=whole, seed=3)
        ref = D.simulate_path(self.P, 1000, burn_in=100, seed=3)
        assert path.n_steps == 1000 and type(path.n_steps) is int
        assert np.array_equal(path.window_counts(whole), ref.window_counts(100))
