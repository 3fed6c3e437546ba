import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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

    def test_mode_table_is_read_only(self):
        _, lam, w = D._modes(D.DiscreteQueueParams(p=0.45, L=30))
        for a in (lam, w):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_mode_cache_is_bounded(self):
        D._modes.cache_clear()
        maxsize = D._modes.cache_parameters()["maxsize"]
        for i in range(maxsize + 10):
            D.loss_variance_exact(D.DiscreteQueueParams(p=0.3 + 0.01 * i, L=40), 100)
        info = D._modes.cache_info()
        assert info.misses == maxsize + 10
        assert info.currsize <= maxsize

    def test_mode_cache_builds_each_table_of_a_revisited_grid_once(self):
        # A window table over a 4 x 3 (p, L) grid, point by point as the CLI
        # writes it, then correlators on the same grid, then a preset's three
        # (p, L): 15 distinct tables, each built once.
        D._modes.cache_clear()
        grid = [D.DiscreteQueueParams(p=p, L=L)
                for p in (0.45, 0.5, 0.51, 0.55) for L in (100, 1000, 3000)]
        for params in grid:
            for N in (1, 100, 1000):
                D.loss_variance_exact(params, N)
        for params in grid:
            for N, M in ((100, 1_000), (1_000, 10_000)):
                D.correlator_r2(params, N, M)
        for p in (0.3, 0.5, 0.7):
            D.loss_variance_exact(D.DiscreteQueueParams(p=p, L=20), 1000)
        info = D._modes.cache_info()
        assert info.misses == len(grid) + 3 == 15
        assert info.hits > 0

    @given(p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           L=st.integers(1, 5000), k=st.integers(0, 4999), offset=st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_power_is_numpy_power_bit_for_bit(self, p, L, k, offset):
        # Modes with |lam|^n below 2^-1100 are written as the signed zero pow
        # returns there, not computed; n near mode k's cut puts modes on
        # both sides of it.
        _, lam, _ = D._modes(D.DiscreteQueueParams(p=p, L=L))
        near_cut = max(0, round(-1100.0 / math.log2(abs(lam[k % L]))) + offset)
        for n in (0, 1, 2, near_cut, 10**6):
            assert D._power(lam, n).tobytes() == np.power(lam, n).tobytes()

    @given(lam=st.lists(st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                                  st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
                                  st.floats(-1.0, -1.0 + 1e-12, exclude_min=True)),
                        min_size=1, max_size=40),
           n=st.one_of(st.integers(0, 10**15), st.integers(2**60, 2**62)),
           k=st.integers(0, 39), log2_at=st.sampled_from([-60.0, -54.0]),
           offset=st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    @example(lam=[1.0 - 2.0**-53, -(1.0 - 2.0**-53), 0.5, -0.0], n=2**62, k=0, log2_at=-60.0,
             offset=0)
    def test_one_minus_power_is_bit_for_bit(self, lam, n, k, log2_at, offset):
        # 1 - lam^n is 1.0 below |lam|^n = 2^-54, and pow is skipped below
        # 2^-60. Besides the drawn n, which reaches past 7.5e17, where
        # 2^(-60/n) rounds to 1.0, n near |lam_k|^n = 2^-60 or 2^-54 puts
        # modes on both sides of the cut and of the rounding edge.
        lam = np.array(lam)
        mode = abs(lam[k % lam.size])
        near = [max(0, round(log2_at / math.log2(mode)) + offset)] if 0.0 < mode < 1.0 else []
        for m in [n, *near]:
            want = [v.hex() for v in (1.0 - np.power(lam, m)).tolist()]
            assert [v.hex() for v in D._one_minus_power(lam, m).tolist()] == want


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

    def test_unreachable_state_is_zero_without_stepping(self, monkeypatch):
        # 2e4 steps cannot cover 1e5 states: the walk moves one state per step.
        def fail(*args):
            raise AssertionError("no row or spectral sum is needed")

        monkeypatch.setattr(D, "_propagate_row", fail)
        monkeypatch.setattr(D, "_spectral_green", fail)
        params = D.DiscreteQueueParams(p=0.9, L=100000)
        assert D.green_function(params, 20000, 0, 100000) == 0.0
        assert D.green_function(params, 20000, 100000, 79999) == 0.0

    def test_degenerate_long_run_is_a_point_mass(self):
        # p = 0 drives every state to 0 within L steps; the propagation
        # stops once the row is fixed, so a huge n costs no more than L.
        params = D.DiscreteQueueParams(p=0.0, L=5)
        assert D.green_function(params, 10**9, 3, 0) == 1.0
        assert D.green_function(params, 10**9, 3, 1) == 0.0

    def test_underflowed_mode_sum_skips_an_overflowing_ratio(self):
        # q^50 = 1e450 overflows, but every transient power underflows
        # (|lam| <= 2 sqrt(p(1-p)), about 6.3e-5), so the value is pi(100).
        params = D.DiscreteQueueParams(p=1 - 1e-9, L=100)
        pi = D.stationary_distribution(params)
        assert D.green_function(params, 1000, 0, 100) == pi[100]

    def test_overflowing_ratio_on_a_nonzero_sum_propagates_the_row(self):
        # q^78 at p = 0.9999 overflows, and 182..185 steps leave powers near
        # 1e-309 that do not underflow to 0: the row of 0 is propagated.
        params = D.DiscreteQueueParams(p=1 - 1e-4, L=156)
        for n in range(182, 186):
            got = D.green_function(params, n, 0, 156)
            assert got == float(D._propagate_row(params, n, 0)[156])
            assert 0.0 <= got <= 1.0

    def test_spectral_refuses_cancelling_sum(self, monkeypatch):
        # The spectral sums for 500 -> 0 and 1000 -> 0 at p = 0.1, L = 1000
        # would cancel terms far above the round-off scale that the spectral
        # route accepts; green_function propagates the row instead. At 1200
        # steps 1000 -> 0 is reachable, so the routed value is not 0.
        def fail(*args):
            raise AssertionError("the spectral sum must not be taken")

        params = D.DiscreteQueueParams(p=0.1, L=1000)
        monkeypatch.setattr(D, "_spectral_green", fail)
        for n, frm in ((100, 500), (100, 1000), (1200, 1000)):
            assert D._spectral_scale_log10(params, n, frm, 0) > D._SPECTRAL_SCALE_LOG10_MAX
            assert D.green_function(params, n, frm, 0) == float(D._propagate_row(params, n, frm)[0])
        assert D.green_function(params, 1200, 1000, 0) > 0.0

    def test_spectral_route_stays_a_probability(self):
        # Near p = 1/2 at L = 1e5 the spectral sum for 0 -> 50000 in 1e5
        # steps cancels to -1.9e-14 at round-off level; the true value
        # underflows.
        params = D.DiscreteQueueParams(p=0.5 + 1e-5, L=10**5)
        assert D._spectral_scale_log10(params, 10**5, 0, 50000) <= D._SPECTRAL_SCALE_LOG10_MAX
        assert 0.0 <= D.green_function(params, 10**5, 0, 50000) <= 1.0


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

    @staticmethod
    def _mpmath_rate(p, L, q=None):
        """p (1 - q) q^L / (1 - q^{L+1}), p/(L+1) at q = 1, at 40 digits;
        q defaults to p/(1-p) of the exact p."""
        with mpmath.workdps(40):
            p = mpmath.mpf(p)
            q = p / (1 - p) if q is None else mpmath.mpf(q)
            if q == 1:
                return p / (L + 1)
            return p * (1 - q) * q**L / (1 - q ** (L + 1))

    @given(p=st.floats(0.05, 0.95), L=st.integers(1, 100_000))
    @example(p=0.3, L=3000).via("largest capacity of the benchmark tables")
    @example(p=0.501, L=100_000).via("near balance, deep buffer")
    @example(p=0.499, L=100_000).via("near balance, deep buffer")
    @example(p=0.9, L=100_000).via("heavy load, deep buffer")
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_up_to_large_capacity(self, p, L):
        # The reference takes the model's own odds ratio q = params.q: the
        # rounding of p/(1-p) itself, amplified L times by q^L, is a property
        # of the input (1.6e-11 at L = 1e5), not of the evaluator.
        params = D.DiscreteQueueParams(p=p, L=L)
        want = self._mpmath_rate(p, L, params.q)
        got = D.mean_loss_rate_exact(params)
        assert abs(got - want) <= 1e-12 * want + 4 * 5e-324

    @pytest.mark.parametrize("p,L", [(0.1, 1000), (0.2, 1000), (0.3, 1000), (0.1, 3000),
                                     (0.2, 3000), (0.3, 3000), (0.4, 3000), (0.4, 2000)])
    def test_rate_below_the_smallest_double(self, p, L):
        # pi(L) ~ q^L underflows here; the rate is 0 and the statistics that
        # divide by it raise the package error, never a bare OverflowError.
        params = D.DiscreteQueueParams(p=p, L=L)
        want = float(self._mpmath_rate(p, L))
        assert want == 0.0
        assert D.mean_loss_rate_exact(params) == want
        with pytest.raises(D.DegenerateParamsError):
            D.compressibility(params, 10)
        with pytest.raises(D.DegenerateParamsError):
            D.correlator_r2(params, 10, 100, branch="analytic")


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

    def test_near_one_corner_matches_the_time_sum(self):
        # At L = 3000 seven modes have 29 |1 - lam| < 1e-3 and take the
        # weight sum's Taylor series. The oracle is the time sum
        # N m (1 - m) + 2 sum_k (N - k) (p^2 pi_L K^{k-1}(L, L) - m^2).
        params, N = D.DiscreteQueueParams(p=0.5, L=3000), 30
        pi_L, lam, _ = D._modes(params)
        assert np.count_nonzero((N - 1) * np.abs(1.0 - lam) < 1e-3) == 7
        p, L = params.p, params.L
        m = p * pi_L
        pairs = sum((N - k) * (p * p * pi_L * D._propagate_row(params, k - 1, L)[L] - m * m)
                    for k in range(1, N))
        want = N * m * (1.0 - m) + 2.0 * pairs
        assert D.loss_variance_exact(params, N) == pytest.approx(want, rel=1e-12)

    def test_degenerate_paths_have_no_variance(self):
        assert D.loss_variance_exact(D.DiscreteQueueParams(p=1.0, L=4), 100) == 0.0
        assert D.loss_variance_exact(D.DiscreteQueueParams(p=0.0, L=4), 100) == 0.0


class TestExactPins:
    # float.hex() of (loss_variance_exact, compressibility, correlator_r2) at
    # (p, L, N, M): the cached mode table and the powers left uncomputed
    # below 2^-1100 must not move a bit.
    PINNED = [
        (0.05, 1, 1, 2, ('0x1.46dc5d638865cp-9', '0x1.feb851eb851ecp-1',
                         '0x1.77207486f662fp-60')),
        (0.97, 2, 5, 7, ('0x1.07f276dbdf99dp-1', '0x1.c142275bf31f6p-4',
                         '0x1.e0d2df6b455f1p-10')),
        (0.3, 20, 10, 100, ('0x1.3b4a8113019e2p-23', '0x1.f5bc1ab8c98f5p+0',
                            '0x1.c8fe3e1a9403dp-20')),
        (0.5, 20, 1, 2, ('0x1.7ccea8583c5f3p-6', '0x1.f3cf3cf3cf3cfp-1',
                         '0x1.da895da895da8p-3')),
        (0.7, 100, 100, 1000, ('0x1.4580069358e53p+6', '0x1.04666ba913ea9p+1',
                               '0x1.6c02b67282999p-128')),
        (0.45, 100, 1000, 10000, ('0x1.92622ca2b4766p-20', '0x1.302bcfbef3952p+3',
                                  '0x1.0ebd67d20dccfp-80')),
        (0.5, 1000, 100000, 200000, ('0x1.bf289345f2b3ap+13', '0x1.1e77b5ebee4e3p+8',
                                     '0x1.23948bb247386p-3')),
        (0.51, 3000, 100000, 1000000, ('0x1.8196800000ee0p+16', '0x1.8ad78d4fe02e9p+5',
                                       '0x1.d08bab41401dep-278')),
        (0.55, 3000, 10000, 50000, ('0x1.33d4000000008p+13', '0x1.3b374bc6a7efbp+3',
                                    '0x1.06c8235779445p-309')),
        (0.5, 3000, 100, 101, ('0x1.6a6f7cef37ae5p-3', '0x1.53e583ce19e5fp+3',
                               '0x1.a32b227fd488bp-2')),
    ]

    @pytest.mark.parametrize("p, L, N, M, want", PINNED)
    def test_values_are_pinned_to_the_bit(self, p, L, N, M, want):
        params = D.DiscreteQueueParams(p=p, L=L)
        got = (D.loss_variance_exact(params, N), D.compressibility(params, N),
               D.correlator_r2(params, N, M))
        assert tuple(v.hex() for v in got) == want


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

    def test_near_one_corner_matches_the_two_step_closed_form(self):
        # One mode at L = 3000 has |1 - lam| < 1e-6 and takes the geometric
        # factor's series. One-step windows two steps apart have
        # Cov = pi_L p^2 (K(L, L) - pi_L) = pi_L p^2 (p - pi_L), and
        # Var = m (1 - m), m = p pi_L.
        params = D.DiscreteQueueParams(p=0.5, L=3000)
        pi_L, lam, _ = D._modes(params)
        assert np.count_nonzero(np.abs(1.0 - lam) < 1e-6) == 1
        p = params.p
        want = p * (p - pi_L) / (1.0 - p * pi_L)
        assert want == pytest.approx(0.24987502, abs=1e-8)
        assert D.correlator_r2(params, 1, 2) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("branch", ["exact", "analytic"])
    def test_degenerate_p_rejected(self, p, branch):
        with pytest.raises(D.DegenerateParamsError, match="degenerate p"):
            D.correlator_r2(D.DiscreteQueueParams(p=p, L=5), 10, 30, branch)

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


def _assert_path_matches_record(path, n_steps, lengths, losses):
    """``path`` against the first ``n_steps`` steps of the per-step loop's
    dense record ``(lengths, losses)``."""
    assert path.n_steps == n_steps
    assert (path.start, path.end) == (lengths[0], lengths[n_steps])
    assert path.loss_steps.dtype == np.int64
    assert np.array_equal(path.loss_steps, np.flatnonzero(losses[:n_steps]))


def _assert_path_matches_loop(path, params, n_steps, burn_in=0, seed=0):
    """``path`` against the per-step loop's dense record; returns that
    record ``(lengths, losses)``."""
    lengths, losses = simulate_path_py(params, n_steps, burn_in=burn_in, seed=seed)
    _assert_path_matches_record(path, n_steps, lengths, losses)
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
    """The byte-map kernel against the per-step loop, bit for bit."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.97, 1.0])
    @pytest.mark.parametrize("L", [1, 2, 3, 7, 8, 9, 15, 16, 17, 20, 300, 32759, 32766, 40000])
    def test_path_matches_loop(self, monkeypatch, p, L):
        # 4096- and 4099-step chunks make the paths cross chunk boundaries:
        # the first fill the scan's 2^9 bytes, the second end 3 steps into a
        # byte; 10007 is prime, so neither the chunks nor the bytes divide
        # it. Up to L = 17 the hit tables' states o..L meet the bottom wall
        # or lie just above it. The tables are int32 from L = 16384 on, so
        # L = 32759, 32766 and 40000 are plain int32 cases; the int16
        # boundary itself is tested below under saturating drift.
        # The loop draws a path's uniforms after its burn-in's from one
        # stream, so a shorter path is a prefix of the 10007-step record.
        params = D.DiscreteQueueParams(p=p, L=L)
        for burn_in in (0, 5, 4099, 4099 + 4):
            lengths, losses = simulate_path_py(params, 10007, burn_in=burn_in, seed=17)
            for n_steps in (*range(1, 18), 10007):
                monkeypatch.setattr(D, "_CHUNK", 4096)
                path = D.simulate_path(params, n_steps, burn_in=burn_in, seed=17)
                _assert_path_matches_record(path, n_steps, lengths, losses)
                monkeypatch.setattr(D, "_CHUNK", 4096 + 3)
                again = D.simulate_path(params, n_steps, burn_in=burn_in, seed=17)
                assert (again.start, again.end) == (path.start, path.end)
                assert np.array_equal(again.loss_steps, path.loss_steps)

    @pytest.mark.parametrize("p", [0.03, 0.97])
    @pytest.mark.parametrize("L", [16383, 16384])
    def test_saturating_drift_at_the_int16_boundary(self, p, L):
        # L = 16383 is the largest capacity whose tables are int16. Over
        # 2^17 + 3 steps the drift carries the shifts of 2^12 bytes and more
        # past L, and the int16 shifts of 2^13 bytes and more wrap; from an
        # empty start at p = 0.97 the walk first climbs to the full wall.
        params = D.DiscreteQueueParams(p=p, L=L)
        for burn_in in (0, 4099):
            path = D.simulate_path(params, (1 << 17) + 3, burn_in=burn_in, seed=23)
            _assert_path_matches_loop(path, params, (1 << 17) + 3, burn_in=burn_in, seed=23)

    def test_table_type_holds_twice_the_capacity(self):
        for L, dtype in ((16383, np.int16), (16384, np.int32), (2**30 - 1, np.int32),
                         (2**30, np.int64)):
            maps = D._byte_maps(L)
            assert (maps.shift.dtype, maps.lo.dtype, maps.hi.dtype) == (dtype,) * 3, L

    def test_default_chunk_matches_loop(self):
        params = D.DiscreteQueueParams(p=0.5, L=20)
        path = D.simulate_path(params, 1_000_003, seed=202)
        _assert_path_matches_loop(path, params, 1_000_003, seed=202)

    @pytest.mark.parametrize("l0", [0, 3, 7])
    def test_chunk_kernel_matches_loop(self, l0):
        # Prefixes of every size class: fewer steps than a byte, whole and
        # partial bytes, and 2^k and 2^k + 1 bytes, with and without tail
        # steps: a power of two fills the scan's levels, one byte more pads
        # it to twice the size.
        u = np.random.default_rng(5).random(8 * 1025 + 3)
        ref_len = np.zeros(u.size + 1, dtype=np.int64)
        ref_loss = np.zeros(u.size, dtype=np.bool_)
        ref_len[0] = l0
        walk_chunk_py(l0, 7, 0.55, u, ref_len, ref_loss)
        maps = D._byte_maps(7)
        powers = [8 * ((1 << k) + extra) + tail
                  for k in range(11) for extra in (0, 1) for tail in (0, 3)]
        for m in (1, 2, 5, 7, 8, 9, 16, 17, 55, 56, 57, 1000, 2999, 3001, *powers):
            end, hits = D._walk_chunk(l0, 0.55, u[:m], maps)
            assert end == ref_len[m], m
            assert hits.dtype == np.int64
            assert np.array_equal(hits, np.flatnonzero(ref_loss[:m])), m
            assert D._walk_chunk(l0, 0.55, u[:m], maps, replay=False) == (end, None)

    @pytest.mark.parametrize("L", [1, 2, 8, 9, 20])
    def test_byte_tables_match_loop(self, L):
        # Every byte from every start state: its clip map gives the loop's
        # end state, and its hit bits the loop's losses (none below o).
        maps = D._byte_maps(L)
        width = D._PAD + 1
        assert maps.o == max(L - 8, 0)
        assert (maps.shift[D._PAD], maps.lo[D._PAD], maps.hi[D._PAD]) == (0, 0, L)
        assert not maps.hit.reshape(-1, width)[:, D._PAD].any()
        assert not maps.hit[:width].any()
        for code in range(256):
            up = (code >> np.arange(8)) & 1 == 1
            u = np.where(up, 0.25, 0.75)
            for x in range(L + 1):
                lengths = np.zeros(9, dtype=np.int64)
                losses = np.zeros(8, dtype=np.bool_)
                end = walk_chunk_py(x, L, 0.5, u, lengths, losses)
                assert min(max(x + maps.shift[code], maps.lo[code]), maps.hi[code]) == end
                row = max(x - maps.o + 1, 0)
                bits = int(np.packbits(losses, bitorder="little")[0])
                assert maps.hit[row * width + code] == bits, (code, x)

    def test_memory_stays_within_a_few_chunks(self):
        # A path keeps its loss steps only: 5e6 steps at p = 1/2, L = 20 hold
        # about 120 000 losses (1 MB), so the peak is set by one chunk of
        # uniforms (8 MiB) and the chunk's byte rows, not by the path length.
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
