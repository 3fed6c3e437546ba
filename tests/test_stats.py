import math

import numpy as np
import pytest

from queueloss import discrete as D
from queueloss import stats as ST


class TestMeanAndVariance:
    def test_constant_series(self):
        series = ST.WindowedSeries.from_counts(np.full(100, 3.0), 10)
        summary = ST.mean_and_variance(series)
        assert summary.mean == 3.0
        assert summary.variance == 0.0
        assert summary.mean_se == 0.0

    def test_bernoulli_windows(self):
        rng = np.random.default_rng(0)
        m = 0.23
        xs = (rng.random(200_000) < m).astype(float)
        summary = ST.mean_and_variance(ST.WindowedSeries.from_counts(xs, 1))
        assert abs(summary.mean - m) <= 3.0 * summary.mean_se
        assert abs(summary.variance - m * (1 - m)) <= 3.0 * summary.variance_se

    def test_matches_exact_window_variance(self):
        params = D.DiscreteQueueParams(p=0.5, L=30)
        N = 1000
        path = D.simulate_path(params, n_steps=N * 12_000, seed=77)
        series = ST.WindowedSeries.from_counts(path.window_counts(N), N)
        summary = ST.mean_and_variance(series)
        exact = D.loss_variance_exact(params, N)
        assert abs(summary.variance - exact) <= 3.0 * summary.variance_se

    def test_too_few_windows(self):
        with pytest.raises(ST.InsufficientWindowsError):
            ST.mean_and_variance(ST.WindowedSeries.from_counts(np.ones(10), 1))

    def test_mean_and_variance_order_invariant(self):
        rng = np.random.default_rng(4)
        xs = rng.exponential(1.0, 5000)
        shuffled = rng.permutation(xs)
        a = ST.mean_and_variance(ST.WindowedSeries.from_counts(xs, 1))
        b = ST.mean_and_variance(ST.WindowedSeries.from_counts(shuffled, 1))
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance == pytest.approx(b.variance, rel=1e-12)

    def test_batch_error_shrinks_like_root_n(self):
        rng = np.random.default_rng(9)
        ses = []
        sizes = (1000, 100_000)
        for n in sizes:
            xs = rng.normal(0.0, 1.0, n)
            ses.append(ST.mean_and_variance(ST.WindowedSeries.from_counts(xs, 1)).mean_se)
        shrink = ses[0] / ses[1]
        assert shrink == pytest.approx(math.sqrt(sizes[1] / sizes[0]), rel=0.2)


class TestCompressibilityEstimate:
    def test_poisson_counts_give_unity(self):
        rng = np.random.default_rng(5)
        xs = rng.poisson(3.0, 50_000).astype(float)
        est = ST.compressibility_estimate(ST.WindowedSeries.from_counts(xs, 1))
        assert abs(est.value - 1.0) <= 3.0 * est.se

    def test_critical_growth_matches_exact(self):
        params = D.DiscreteQueueParams(p=0.5, L=100)
        path = D.simulate_path(params, n_steps=4 * 10**6, seed=13)
        for N in (100, 1000):
            series = ST.WindowedSeries.from_counts(path.window_counts(N), N)
            est = ST.compressibility_estimate(series)
            exact = D.compressibility(params, N)
            assert abs(est.value - exact) <= 3.0 * est.se

    def test_saturated_offcritical_value(self):
        # Saturation at |2p-1| = b sits at (1-b^2)/b; the small-b reading
        # (1-b)/b would be 40 percent low here and is excluded by the data.
        params = D.DiscreteQueueParams(p=0.7, L=50)
        path = D.simulate_path(params, n_steps=6 * 10**6, seed=55)
        N = 1220
        series = ST.WindowedSeries.from_counts(path.window_counts(N), N)
        est = ST.compressibility_estimate(series)
        exact = D.compressibility(params, N)
        assert abs(est.value - exact) <= 3.0 * est.se
        b = 0.4
        assert abs(est.value - (1 - b * b) / b) <= 3.0 * est.se

    def test_zero_mean_rejected(self):
        with pytest.raises(ST.DegenerateSeriesError):
            ST.compressibility_estimate(ST.WindowedSeries.from_counts(np.zeros(100), 1))

    def test_zero_variance_rejected(self):
        with pytest.raises(ST.DegenerateSeriesError, match="zero variance"):
            ST.compressibility_estimate(ST.WindowedSeries(np.full(100, 2.0), 10))

    def test_saturated_walk_rejected(self):
        # At p = 1 every step from the full start state is a loss, so every
        # window holds exactly N losses.
        params = D.DiscreteQueueParams(p=1.0, L=5)
        path = D.simulate_path(params, n_steps=5000, seed=3)
        counts = path.window_counts(50)
        assert np.all(counts == 50)
        with pytest.raises(ST.DegenerateSeriesError, match="zero variance"):
            ST.compressibility_estimate(ST.WindowedSeries.from_counts(counts, 50))


class TestCorrelationEstimate:
    def test_white_noise_uncorrelated(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(0.0, 1.0, 20_000)
        series = ST.WindowedSeries.from_counts(xs, 1)
        for est in ST.correlation_estimate(series, [1, 10, 100]):
            assert abs(est.value) <= 3.5 * est.se

    def test_critical_window_decay(self):
        # At balance the window correlator follows an inverse-square-root
        # law in the separation; compare against the exact spectral branch.
        params = D.DiscreteQueueParams(p=0.5, L=50)
        path = D.simulate_path(params, n_steps=10**7, seed=202)
        N = 20
        series = ST.WindowedSeries.from_counts(path.window_counts(N), N)
        for lag in (5, 10, 20):
            est = ST.correlation_estimate(series, [lag])[0]
            exact = D.correlator_r2(params, N, lag * N, branch="exact")
            assert abs(est.value - exact) <= 3.0 * est.se

    def test_correlator_is_order_sensitive(self):
        rng = np.random.default_rng(8)
        ar = np.zeros(20_000)
        noise = rng.normal(size=ar.size)
        for i in range(1, ar.size):
            ar[i] = 0.9 * ar[i - 1] + noise[i]
        series = ST.WindowedSeries.from_counts(ar, 1)
        before = ST.correlation_estimate(series, [3])[0].value
        shuffled = ST.WindowedSeries.from_counts(rng.permutation(ar), 1)
        after = ST.correlation_estimate(shuffled, [3])[0].value
        assert before > 0.5
        assert abs(after) < 0.1

    def test_separation_budget(self):
        series = ST.WindowedSeries.from_counts(np.arange(100, dtype=float), 1)
        with pytest.raises(ST.InsufficientWindowsError):
            ST.correlation_estimate(series, [50])

    def test_rejects_nonpositive_lag(self):
        series = ST.WindowedSeries.from_counts(np.arange(100, dtype=float), 1)
        with pytest.raises(ValueError):
            ST.correlation_estimate(series, [0])

    @pytest.mark.parametrize("values, error, match", [
        (np.arange(29.0), ST.InsufficientWindowsError, "need at least 30 windows, got 29"),
        (np.full(100, 3.0), ST.DegenerateSeriesError, "zero variance"),
    ], ids=["too-few-windows", "zero-variance"])
    def test_named_error(self, values, error, match):
        series = ST.WindowedSeries.from_counts(values, 1)
        with pytest.raises(error, match=match):
            ST.correlation_estimate(series, [1])


class TestWindowedSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            ST.WindowedSeries(values=np.array([[1.0]]), window_length=1)
        with pytest.raises(ValueError):
            ST.WindowedSeries(values=np.array([1.0, np.nan]), window_length=1)

    def test_from_loss_sample(self):
        from queueloss.simulate import LossSample

        sample = LossSample(
            window_length=5.0,
            t_start=0.0,
            values=np.array([0.0, 0.5]),
            idle=np.array([0.1, 0.0]),
        )
        series = ST.WindowedSeries.from_loss_sample(sample)
        assert series.window_length == 5.0
        assert series.values.tolist() == [0.0, 0.5]
        assert series.n_windows == 2
