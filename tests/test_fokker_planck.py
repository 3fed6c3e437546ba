import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate

from queueloss import discrete as D
from queueloss import fokker_planck as F
from reference_numerics import (
    integrate,
    inverted_propagator,
    loss_pdf_via_fresh_terms,
    loss_pdf_via_laplace_invert,
    mode_sum_loss_correlator,
    quadrature_loss_correlator,
)


CTRL = F.SeriesControl()


def numeric_laplace_of_series(params, x, eps, y):
    """Quadrature Laplace transform of the eigenseries over reduced time.

    The transient is integrated with a sqrt substitution that removes the
    short-time density spike; the stationary plateau contributes p(x)/eps
    analytically.
    """
    p_stat = float(F.stationary_density(params, x))

    def g(u):
        tau = u * u
        t = params.time_from_tau(tau)
        w = float(F.transition_density(params, CTRL, x, t, y))
        return 2.0 * u * math.exp(-eps * tau) * (w - p_stat)

    horizon = 40.0 / (math.pi**2 + params.v**2 + eps)
    val, err = sci_integrate.quad(g, 0.0, math.sqrt(horizon), limit=400, epsabs=1e-12)
    assert err < 1e-8
    return val + p_stat / eps


class TestStationaryDensity:
    def test_driftless_is_uniform(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        xs = np.linspace(0, 1, 11)
        assert np.allclose(F.stationary_density(params, xs), 1.0, atol=1e-14)

    @pytest.mark.parametrize("v", [-4.0, -0.3, 1e-7, 0.3, 4.0])
    def test_normalized(self, v):
        params = F.FpParams(a=v, sigma2=1.0)
        res = integrate(lambda x: float(F.stationary_density(params, x)), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_full_wall_value(self):
        params = F.FpParams(a=1.0, sigma2=1.0)
        want = 2.0 * math.e**2 / (math.e**2 - 1.0)  # 2.3130...
        assert float(F.stationary_density(params, 1.0)) == pytest.approx(want, rel=1e-12)

    def test_tiny_drift_series_continuous(self):
        lo = float(F.stationary_density(F.FpParams(a=1e-9, sigma2=1.0), 0.8))
        hi = float(F.stationary_density(F.FpParams(a=1.1e-4, sigma2=1.0), 0.8))
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0 + 2.2e-4 * 0.3, abs=1e-7)


class TestTransitionDensity:
    @pytest.mark.parametrize("v", [-5.0, -1.0, 0.0, 0.5, 5.0])
    @pytest.mark.parametrize("tau", [1e-3, 1e-1, 10.0])
    def test_normalization(self, v, tau):
        params = F.FpParams(a=2.0 * v, sigma2=2.0)
        t = params.time_from_tau(tau)
        res = integrate(
            lambda x: float(F.transition_density(params, CTRL, x, t, 0.3)), 0.0, 1.0,
            tol=1e-11,
        )
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_long_time_forgets_start(self):
        params = F.FpParams(a=1.5, sigma2=1.5)
        t = params.time_from_tau(8.0)
        xs = np.linspace(0, 1, 9)
        for y in (0.0, 0.5, 1.0):
            w = F.transition_density(params, CTRL, xs, t, y)
            assert np.abs(w - F.stationary_density(params, xs)).max() < 1e-12

    def test_driftless_long_time_uniform(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        w = F.transition_density(params, CTRL, np.linspace(0, 1, 5), params.time_from_tau(6.0), 0.9)
        assert np.allclose(w, 1.0, atol=1e-10)

    def test_short_time_matches_free_gaussian(self):
        # interior start, tiny spread: the walls are invisible
        params = F.FpParams(a=1.0, sigma2=1.0)
        t = 0.002
        xs = np.linspace(0.45, 0.55, 7)
        w = F.transition_density(params, CTRL, xs, t, 0.5)
        var = params.sigma2 * t
        want = np.exp(-((xs - 0.5 - params.a * t) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.abs(w - want).max() < 1e-8

    def test_short_time_wall_peak(self):
        # Thousands of modes at tau = 4e-9 carry round-off above 1e-9 but far
        # below 1e-9 of the peak 2/sqrt(4 pi tau), the wall's mirrored Gaussian.
        params = F.FpParams(a=0.0, sigma2=2.0)
        got = F.transition_density(params, CTRL, 1.0, 4e-9, 1.0)
        assert got == pytest.approx(2.0 / math.sqrt(4.0 * math.pi * 4e-9), rel=1e-9)

    def test_chapman_kolmogorov(self):
        params = F.FpParams(a=1.0, sigma2=2.0)
        cases = [(0.3, 0.7, 0.05, 0.1), (0.9, 0.9, 0.02, 0.02), (0.1, 0.5, 0.5, 1.0)]
        for x, y, t1, t2 in cases:
            val, err = sci_integrate.quad(
                lambda m: float(F.transition_density(params, CTRL, x, t2, m))
                * float(F.transition_density(params, CTRL, m, t1, y)),
                0.0,
                1.0,
                limit=300,
                epsabs=1e-11,
            )
            direct = float(F.transition_density(params, CTRL, x, t1 + t2, y))
            assert val == pytest.approx(direct, abs=1e-5)

    def test_tail_bound_reported_and_conservative(self, monkeypatch):
        params = F.FpParams(a=0.0, sigma2=2.0)
        t = 0.08
        exact = float(F.transition_density(params, CTRL, 0.5, t, 0.5))
        monkeypatch.setattr(F, "_modes_for", lambda tau: 12)
        val, bound = F.transition_density(params, CTRL, 0.5, t, 0.5, return_tail_bound=True)
        assert abs(val - exact) <= bound
        assert bound > 0

    def test_more_modes_never_raise_bound(self, monkeypatch):
        params = F.FpParams(a=0.0, sigma2=2.0)
        t = 0.02
        bounds = []
        for k in (20, 40, 80):
            monkeypatch.setattr(F, "_modes_for", lambda tau, k=k: k)
            _, bound = F.transition_density(params, CTRL, 0.4, t, 0.6, return_tail_bound=True)
            bounds.append(bound)
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_mode_budget_floor(self):
        # tau = 1e-10 needs 600008 modes, above the fixed cap of 100000.
        params = F.FpParams(a=0.0, sigma2=2.0)
        with pytest.raises(F.SeriesTruncationError, match="600008 modes"):
            F.transition_density(params, CTRL, 0.5, params.time_from_tau(1e-10), 0.5)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            F.transition_density(F.FpParams(a=0.0, sigma2=1.0), CTRL, 0.5, 0.0, 0.5)

    @pytest.mark.parametrize("x,y", [(2.0, 0.5), (-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5)])
    def test_rejects_positions_outside_unit_interval(self, x, y):
        params = F.FpParams(a=1.0, sigma2=2.0)
        for evaluate in (F.transition_density, F.probability_current):
            with pytest.raises(ValueError, match="positions"):
                evaluate(params, CTRL, x, 1.0, y)
        with pytest.raises(ValueError, match="positions"):
            F.transition_density(params, CTRL, np.array([0.5, 1.0 + 1e-12]), 1.0, 0.5)

    @pytest.mark.parametrize("a,t,x,y", [(100.0, 0.01, 1.0, 0.0), (100.0, 1e-3, 0.5, 0.0),
                                         (800.0, 1e-3, 0.5, 0.0), (1600.0, 5e-4, 0.875, 0.0)])
    def test_cancelling_series_raises(self, a, t, x, y):
        # Terms of order e^{v(x-y) - lam_n tau} cancel to a value many orders
        # below them; the sum returned 434682, -29231, -5.7e18 and -inf here.
        params = F.FpParams(a=a, sigma2=1.0)
        for evaluate in (F.transition_density, F.probability_current):
            with pytest.raises(F.SeriesTruncationError, match="cancels"):
                evaluate(params, CTRL, x, t, y)

    @pytest.mark.parametrize("a,x,y", [(800.0, 1.0, 0.0), (-800.0, 0.0, 1.0)])
    def test_overflowing_envelope_is_finite(self, a, x, y):
        # e^{|v|} overflows a double; every mode has decayed, so the density
        # is the stationary 2|v| at the wall the drift pushes toward.
        params = F.FpParams(a=a, sigma2=1.0)
        assert F.transition_density(params, CTRL, x, 1.0, y) == pytest.approx(1600.0, rel=1e-12)
        assert F.probability_current(params, CTRL, x, 1.0, y) == 0.0

    def test_large_drift_wall_density(self):
        # v = 800: e^{|v|} alone overflows a double, the tail bound must not.
        params = F.FpParams(a=800.0, sigma2=1.0)
        v = params.v
        got, bound = F.transition_density(params, CTRL, 1.0, 1.0, 1.0, return_tail_bound=True)
        assert got == pytest.approx(2.0 * v / -math.expm1(-2.0 * v), rel=1e-9)
        assert 0.0 <= bound < 1e-100
        # At v = 2000, tau = 1e-3 the bound itself exceeds a double and is
        # reported as infinite; the value is still the stationary 2v.
        steep = F.FpParams(a=2000.0, sigma2=1.0)
        got, bound = F.transition_density(steep, CTRL, 1.0, 0.002, 1.0, return_tail_bound=True)
        assert got == pytest.approx(4000.0, rel=1e-9)
        assert bound == math.inf


class TestProbabilityCurrent:
    @pytest.mark.parametrize("v", [-2.0, 0.0, 1.0])
    @pytest.mark.parametrize("tau", [1e-3, 0.1, 2.0])
    def test_zero_flux_walls(self, v, tau):
        params = F.FpParams(a=v, sigma2=1.0)
        t = params.time_from_tau(tau)
        for wall in (0.0, 1.0):
            assert abs(F.probability_current(params, CTRL, wall, t, 0.4)) < 1e-9

    def test_equilibrium_has_no_current(self):
        params = F.FpParams(a=0.8, sigma2=1.0)
        t = params.time_from_tau(9.0)  # relaxed to the stationary profile
        xs = np.linspace(0, 1, 9)
        assert np.abs(F.probability_current(params, CTRL, xs, t, 0.2)).max() < 1e-10

    def test_driftless_antisymmetry_from_center(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        t = 0.08
        xs = np.linspace(0.05, 0.95, 7)
        j = F.probability_current(params, CTRL, xs, t, 0.5)
        j_mirror = F.probability_current(params, CTRL, 1.0 - xs, t, 0.5)
        assert np.abs(j + j_mirror).max() < 1e-12


class TestLaplacePropagator:
    def test_corner_identities(self):
        params = F.FpParams(a=1.4, sigma2=2.0)
        v = params.v
        for eps in (0.1, 1.0, 10.0):
            kappa = math.sqrt(eps + v * v)
            want11 = (kappa / math.tanh(kappa) + v) / eps
            want00 = (kappa / math.tanh(kappa) - v) / eps
            assert F.laplace_propagator(params, 1.0, eps, 1.0) == pytest.approx(want11, rel=1e-12)
            assert F.laplace_propagator(params, 0.0, eps, 0.0) == pytest.approx(want00, rel=1e-12)
            assert F.boundary_return_transform(params, eps) == pytest.approx(want11, rel=1e-12)

    def test_wall_difference_identity(self):
        params = F.FpParams(a=-0.9, sigma2=1.5)
        for eps in (0.2, 2.0):
            diff = F.laplace_propagator(params, 1.0, eps, 1.0) - F.laplace_propagator(
                params, 0.0, eps, 0.0
            )
            assert diff == pytest.approx(2.0 * params.v / eps, rel=1e-12)

    def test_drift_flip_swaps_walls(self):
        params = F.FpParams(a=0.7, sigma2=1.0)
        flipped = params.flipped()
        for eps in (0.3, 3.0):
            assert F.laplace_propagator(params, 1.0, eps, 1.0) == pytest.approx(
                F.laplace_propagator(flipped, 0.0, eps, 0.0), rel=1e-12
            )

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_matches_transform_of_series(self, eps):
        for v in (-2.0, 0.0, 0.7):
            params = F.FpParams(a=2.0 * v, sigma2=2.0)
            for x, y in ((1.0, 1.0), (0.3, 0.8), (0.5, 0.5)):
                want = numeric_laplace_of_series(params, x, eps, y)
                got = F.laplace_propagator(params, x, eps, y)
                assert got == pytest.approx(want, abs=1e-6)

    def test_large_argument_does_not_overflow(self):
        params = F.FpParams(a=50.0, sigma2=1.0)  # kappa ~ 1e3 at eps ~ 1e6
        val = F.laplace_propagator(params, 0.9, 1e6, 0.2)
        assert math.isfinite(val)

    def test_complex_nodes_supported(self):
        params = F.FpParams(a=0.5, sigma2=1.0)
        vals = F.laplace_propagator(params, 1.0, np.array([1 + 1j, 2 - 3j]), 1.0)
        assert np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))


class TestHalflineDensity:
    def test_free_gaussian_far_from_wall(self):
        params = F.FpParams(a=0.8, sigma2=2.0)
        t = 0.001
        xs = np.array([0.28, 0.3, 0.32])
        got = F.halfline_density(params, xs, t, 0.3)
        var = params.sigma2 * t
        want = np.exp(-((xs - 0.3 - params.a * t) ** 2) / (2 * var)) / math.sqrt(
            2 * math.pi * var
        )
        assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("t,y", [(0.01, 0.9), (0.05, 0.99), (0.2, 0.5)])
    def test_mass_conserved(self, t, y):
        # The wall at 1 is zero-flux; losses accrue through local time, not
        # leakage, so the half-line density keeps unit mass.
        params = F.FpParams(a=0.8, sigma2=2.0)
        val, err = sci_integrate.quad(
            lambda u: float(F.halfline_density(params, u, t, y)), -np.inf, 1.0, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_zero_flux_at_wall(self):
        params = F.FpParams(a=0.8, sigma2=2.0)
        t, y, h = 0.05, 0.9, 1e-7
        w1 = float(F.halfline_density(params, 1.0, t, y))
        wm = float(F.halfline_density(params, 1.0 - h, t, y))
        flux = params.a * w1 - 0.5 * params.sigma2 * (w1 - wm) / h
        assert abs(flux) < 1e-5

    def test_agrees_with_boxed_density_near_wall(self):
        params = F.FpParams(a=0.5, sigma2=1.0)
        t = 0.02
        xs = np.linspace(0.7, 1.0, 8)
        for y in (0.75, 0.9, 1.0):
            boxed = F.transition_density(params, CTRL, xs, t, y)
            half = F.halfline_density(params, xs, t, y)
            assert np.abs(boxed - half).max() < 1e-4

    @pytest.mark.parametrize("x,y", [(math.nan, 0.5), (0.5, math.nan)])
    def test_rejects_nan_positions(self, x, y):
        with pytest.raises(ValueError, match="positions"):
            F.halfline_density(F.FpParams(a=1.0, sigma2=2.0), x, 0.5, y)

    def test_rejects_positions_beyond_wall(self):
        with pytest.raises(ValueError):
            F.halfline_density(F.FpParams(a=0.0, sigma2=1.0), 1.2, 0.1, 0.5)


class TestLossRateCoefficient:
    def test_direct_value(self):
        assert F.loss_rate_coefficient(F.FpParams(a=0.3, sigma2=2.0)) == 1.0

    def test_flip_invariant(self):
        params = F.FpParams(a=-1.7, sigma2=3.0)
        assert F.loss_rate_coefficient(params) == F.loss_rate_coefficient(params.flipped())

    def test_drift_deficit_limit(self):
        # The mean drift deficit of the half-line kernel per unit time
        # extrapolates (in sqrt t) to sigma^2/2.
        params = F.FpParams(a=0.8, sigma2=2.0)

        def deficit_rate(t):
            def inner(y):
                val, _ = sci_integrate.quad(
                    lambda u: (u - y - params.a * t)
                    * float(F.halfline_density(params, u, t, y)),
                    -np.inf,
                    1.0,
                    limit=200,
                )
                return val

            val, _ = sci_integrate.quad(inner, -np.inf, 1.0, limit=120)
            return abs(val) / t

        t1, t2 = 1e-3, 1e-4
        r1, r2 = deficit_rate(t1), deficit_rate(t2)
        slope = (r1 - r2) / (math.sqrt(t1) - math.sqrt(t2))
        extrapolated = r2 - slope * math.sqrt(t2)
        assert extrapolated == pytest.approx(F.loss_rate_coefficient(params), rel=0.01)


class TestLossMoments:
    def test_first_moment_exact_all_times(self):
        params = F.FpParams(a=0.6, sigma2=2.0)
        p1 = float(F.stationary_density(params, 1.0))
        for tau in (1e-4, 0.3, 7.0, 300.0):
            t = params.time_from_tau(tau)
            assert F.loss_moment(params, CTRL, 1, t) == pytest.approx(p1 * tau, rel=1e-12)

    def test_second_moment_short_time_branch(self):
        params = F.FpParams(a=0.6, sigma2=2.0)
        t = params.time_from_tau(1e-3)
        got = F.loss_moment(params, CTRL, 2, t)
        want = F.loss_moment_asymptotic(params, 2, t, "short")
        assert got == pytest.approx(want, rel=0.05)

    def test_second_moment_long_time_branch(self):
        params = F.FpParams(a=0.6, sigma2=2.0)
        t = params.time_from_tau(100.0)
        got = F.loss_moment(params, CTRL, 2, t)
        want = F.loss_moment_asymptotic(params, 2, t, "long")
        assert got == pytest.approx(want, rel=0.05)

    def test_matches_nested_time_ordered_integral(self):
        # Independent route: the two-fold time-ordered product collapses to
        # a single convolution against the wall return density.
        params = F.FpParams(a=0.6, sigma2=2.0)
        p1 = float(F.stationary_density(params, 1.0))
        for tau in (0.05, 0.5, 2.0):
            def g(z):
                u = z * z
                w = float(
                    F.transition_density(params, CTRL, 1.0, params.time_from_tau(u), 1.0)
                )
                return 2.0 * z * (tau - u) * w

            val, _ = sci_integrate.quad(g, 0.0, math.sqrt(tau), limit=300, epsabs=1e-12)
            want = 2.0 * p1 * val
            got = F.loss_moment(params, CTRL, 2, params.time_from_tau(tau))
            assert got == pytest.approx(want, rel=1e-6)

    def test_regime_interpolation_monotone_with_stated_slopes(self):
        params = F.FpParams(a=0.0, sigma2=2.0)
        taus = np.logspace(-3, 2, 26)
        m2 = np.array(
            [F.loss_moment(params, CTRL, 2, params.time_from_tau(u)) for u in taus]
        )
        assert np.all(np.diff(m2) > 0)
        short = np.polyfit(np.log(taus[:6]), np.log(m2[:6]), 1)[0]
        long_ = np.polyfit(np.log(taus[-6:]), np.log(m2[-6:]), 1)[0]
        assert short == pytest.approx(1.5, abs=0.05)
        assert long_ == pytest.approx(2.0, abs=0.05)

    def test_second_moment_dominates_squared_first(self):
        params = F.FpParams(a=0.4, sigma2=2.0)
        for tau in (1e-3, 0.1, 1.0, 30.0):
            t = params.time_from_tau(tau)
            m1 = F.loss_moment(params, CTRL, 1, t)
            m2 = F.loss_moment(params, CTRL, 2, t)
            assert m2 >= m1 * m1
            assert m2 >= 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            F.loss_moment(F.FpParams(a=0.0, sigma2=1.0), CTRL, 0, 1.0)


class TestLossProbability:
    def test_short_time_branch(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        t = params.time_from_tau(1e-3)
        got = F.loss_probability(params, CTRL, t)
        want = F.loss_probability_asymptotic(params, t, "short")
        assert got == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_long_time_branch(self, a):
        params = F.FpParams(a=a, sigma2=2.0)
        assert F.loss_probability_asymptotic(params, 1000.0, "long") == 1.0
        assert F.loss_probability(params, CTRL, 1000.0) == pytest.approx(1.0, abs=1e-6)

    def test_bounded_monotone_saturating(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        taus = np.logspace(-3, 2, 11)
        vals = [F.loss_probability(params, CTRL, params.time_from_tau(u)) for u in taus]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


class TestLossPdf:
    @staticmethod
    def _short_branch_gap(params, t):
        """Largest relative gap between the short-time branch and loss_pdf
        at x = f sqrt(4 tau), f in {0, 0.5, 1, 2, 4}."""
        scale = math.sqrt(4.0 * params.tau(t))
        gaps = []
        for f in (0.0, 0.5, 1.0, 2.0, 4.0):
            want = F.loss_pdf(params, CTRL, f * scale, t)
            gaps.append(abs(F.loss_pdf_asymptotic(params, f * scale, t, "short") - want) / want)
        return max(gaps)

    @pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2])
    def test_short_time_branch_at_zero_drift(self, t):
        assert self._short_branch_gap(F.FpParams(a=0.0, sigma2=2.0), t) <= 1e-7

    def test_short_time_branch_error_shrinks_as_root_t(self):
        # With drift the branch is off by O(sqrt(tau)): 3.8e-2 at t = 1e-4.
        params = F.FpParams(a=1.0, sigma2=2.0)
        far, near = (self._short_branch_gap(params, t) for t in (1e-4, 1e-6))
        assert near / far == pytest.approx(0.1, rel=0.25)
        assert near < 1e-2

    def test_conditional_normalizes(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        t = params.time_from_tau(1e-3)
        val, err = sci_integrate.quad(
            lambda x: F.loss_pdf_conditional(params, CTRL, x, t), 0.0, np.inf, limit=300
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_conditional_matches_short_time_shape(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        tau = 1e-3
        t = params.time_from_tau(tau)
        for x in (0.0, 0.02, 0.05):
            got = F.loss_pdf_conditional(params, CTRL, x, t)
            want = math.sqrt(math.pi / (4 * tau)) * math.erfc(x / math.sqrt(4 * tau))
            assert got == pytest.approx(want, rel=0.05)

    def test_defective_mass_equals_loss_probability(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        t = params.time_from_tau(0.5)
        val, _ = sci_integrate.quad(
            lambda x: F.loss_pdf(params, CTRL, x, t), 0.0, np.inf, limit=300
        )
        assert val == pytest.approx(F.loss_probability(params, CTRL, t), abs=1e-7)

    @pytest.mark.parametrize("a, sigma2, t, x", [(5.0, 0.5, 10.0, 87.6), (2.0, 1.0, 10.0, 78.96)])
    def test_deep_tail_overflow_raises_inversion_error(self, a, sigma2, t, x):
        # e^{x B} overflows at the first point. At the second the terms
        # c e^{x B} stay finite, but the two contours' sums are about 1e63
        # apart, far past the error budget.
        match = "non-finite" if x == 87.6 else "did not settle"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(F.InversionError, match=match):
                F.loss_pdf(F.FpParams(a=a, sigma2=sigma2), CTRL, x, t)

    def test_inverted_regime_flag(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        _, regime = F.loss_pdf(params, CTRL, 5.0, params.time_from_tau(10.0), return_regime=True)
        assert regime == "inverted"
        _, regime = F.loss_pdf(params, CTRL, 120.0, params.time_from_tau(100.0), return_regime=True)
        assert regime == "surrogate"

    def test_longtime_concentration(self):
        # Means from the exact first moment; spread from the inverted second
        # moment: a narrow peak at tau p(1).
        params = F.FpParams(a=0.5, sigma2=2.0)
        tau = 100.0
        t = params.time_from_tau(tau)
        p1 = float(F.stationary_density(params, 1.0))
        mean = F.loss_moment(params, CTRL, 1, t)
        m2 = F.loss_moment(params, CTRL, 2, t)
        width = math.sqrt(m2 - mean * mean) / mean
        assert mean == pytest.approx(tau * p1, rel=1e-12)
        assert width < 0.1
        surrogate_mean, surrogate_var = F.loss_pdf_longtime_summary(params, t)
        assert surrogate_mean == pytest.approx(mean, rel=1e-12)
        assert surrogate_var == pytest.approx(m2 - mean * mean, rel=0.05)

    def test_surrogate_density_moments(self):
        params = F.FpParams(a=0.5, sigma2=2.0)
        t = params.time_from_tau(100.0)
        mean, var = F.loss_pdf_longtime_summary(params, t)
        xs = np.linspace(mean - 10 * math.sqrt(var), mean + 10 * math.sqrt(var), 4001)
        dens = F.loss_pdf_asymptotic(params, xs, t, "long")
        mass = np.trapezoid(dens, xs)
        mu = np.trapezoid(dens * xs, xs) / mass
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mu == pytest.approx(mean, rel=1e-9)


class TestNonFiniteArguments:
    PARAMS = F.FpParams(a=0.5, sigma2=2.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_times_rejected(self, t):
        p = self.PARAMS
        for evaluate in (
            lambda: F.transition_density(p, CTRL, 0.5, t, 0.5),
            lambda: F.probability_current(p, CTRL, 0.5, t, 0.5),
            lambda: F.halfline_density(p, 0.5, t, 0.5),
            lambda: F.loss_moment(p, CTRL, 1, t),
            lambda: F.loss_moment(p, CTRL, 2, t),
            lambda: F.loss_moment_asymptotic(p, 2, t, "short"),
            lambda: F.loss_moment_asymptotic(p, 2, t, "long"),
            lambda: F.loss_probability(p, CTRL, t),
            lambda: F.loss_probability_asymptotic(p, t, "short"),
            lambda: F.loss_probability_asymptotic(p, t, "long"),
            lambda: F.loss_pdf(p, CTRL, 0.1, t),
            lambda: F.loss_pdf_conditional(p, CTRL, 0.1, t),
            lambda: F.loss_pdf_asymptotic(p, 0.1, t, "short"),
            lambda: F.loss_pdf_asymptotic(p, 0.1, t, "long"),
            lambda: F.loss_pdf_longtime_summary(p, t),
            lambda: F.loss_variance_longtime(p, t),
            lambda: F.loss_correlator(p, CTRL, t, 1.0, 1.0),
            lambda: F.loss_correlator(p, CTRL, 1.0, t, 1.0),
            lambda: F.loss_correlator(p, CTRL, 1.0, 1.0, t),
            lambda: F.loss_correlator_asymptotic(p, t, 1.0, 1.0, "window"),
            lambda: F.loss_correlator_asymptotic(p, 1.0, t, 1.0, "window"),
            lambda: F.loss_correlator_asymptotic(p, 1.0, 1.0, t, "separated"),
        ):
            with pytest.raises(ValueError, match="t must be positive and finite"):
                evaluate()

    @pytest.mark.parametrize("a,sigma2", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                          (1.0, math.nan), (1e300, 1e-300)])
    def test_params_rejected(self, a, sigma2):
        with pytest.raises(ValueError, match="finite"):
            F.FpParams(a=a, sigma2=sigma2)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_volumes_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            F.loss_pdf(self.PARAMS, CTRL, x, 1.0)


class TestZeroLossMass:
    # v = -800: e^{2v} underflows, so p(1) == 0 and no traffic is ever lost.
    PARAMS = F.FpParams(a=-800.0, sigma2=1.0)

    @pytest.mark.parametrize("t", [1.0, 100.0])
    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_density_is_zero(self, x, t):
        assert F.stationary_density(self.PARAMS, 1.0) == 0.0
        assert F.loss_pdf(self.PARAMS, CTRL, x, t) == 0.0

    @pytest.mark.parametrize("t", [1.0, 100.0])
    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_conditional_density_rejected(self, x, t):
        with pytest.raises(ValueError, match="loss probability is 0"):
            F.loss_pdf_conditional(self.PARAMS, CTRL, x, t)


class TestUnderflowingWallDensity:
    # v = -2000: p(1) underflows to 0, so the closed-form branches have no
    # loss mass to work with and return 0 without a warning.
    PARAMS = F.FpParams(a=-1.0, sigma2=1e-3)

    def test_window_correlator_is_zero(self):
        assert F.stationary_density(self.PARAMS, 1.0) == 0.0
        assert F.loss_correlator_asymptotic(self.PARAMS, 1.0, 2.0, 5.0, "window") == 0.0

    def test_long_time_density_is_zero(self):
        assert F.loss_pdf_asymptotic(self.PARAMS, 0.0, 1e6, "long") == 0.0
        dens = F.loss_pdf_asymptotic(self.PARAMS, np.array([0.0, 0.5]), 1e6, "long")
        assert dens.tolist() == [0.0, 0.0]


class TestMomentOverflow:
    @pytest.mark.parametrize("regime", ["short", "long"])
    def test_overflow_is_named(self, regime):
        with pytest.raises(ValueError, match="overflows"):
            F.loss_moment_asymptotic(F.FpParams(0.0, 1.0), 2, 1e300, regime)

    def test_large_order_is_named(self):
        with pytest.raises(ValueError, match="overflows"):
            F.loss_moment_asymptotic(F.FpParams(0.0, 1.0), 400, 1.0, "short")


class TestWindowCorrelatorOverflow:
    def test_large_windows_stay_finite(self):
        # p(1) tau1 tau2 = 2.5e399 overflows; the value, about 2e249, does not.
        got = F.loss_correlator_asymptotic(F.FpParams(0.0, 1.0), 1e200, 1e200, 1e300, "window")
        assert got == pytest.approx(2.5 / math.sqrt(50.0 * math.pi) * 1e250, rel=1e-14)

    @pytest.mark.parametrize("tau", [1.0, 1e200])
    def test_far_separation_stays_finite(self, tau):
        # pi tau_T overflows at tau_T = 1e308, where the value is tau^2 / 1.77e154.
        got = F.loss_correlator_asymptotic(F.FpParams(0.0, 2.0), tau, tau, 1e308, "window")
        assert got == pytest.approx(tau / math.sqrt(math.pi) * (tau / 1e154), rel=1e-14)

    def test_overflow_is_named(self):
        with pytest.raises(ValueError, match="overflows"):
            F.loss_correlator_asymptotic(F.FpParams(0.0, 1.0), 1e300, 1e300, 1.0, "window")


#: The evaluators that read the wall record, as f(params, t).
WALL_EVALUATORS = (lambda p, t: F.loss_moment(p, CTRL, 2, t),
                   lambda p, t: F.loss_probability(p, CTRL, t),
                   lambda p, t: F.loss_pdf(p, CTRL, 0.0, t))


class TestEdgeGuards:
    """At edge inputs an evaluator returns a value or raises a named error,
    never a NumPy warning (RuntimeWarning is an error in this suite)."""

    def test_underflowing_reduced_time_is_rejected(self):
        # sigma2 t / 2 underflows to 0
        with pytest.raises(ValueError, match="underflow"):
            F.loss_moment(F.FpParams(0.0, 1e-300), CTRL, 2, 1e-300)

    def test_inversions_below_the_contour_floor(self):
        # The contour's nodes grow as 1/tau; eps^2 overflows below tau of
        # about 6.7e-152.
        params = F.FpParams(1.0, 1.0)
        for evaluate in WALL_EVALUATORS:
            with pytest.raises(F.InversionError, match="overflows"):
                evaluate(params, 1e-155)
        # Just above the floor the probability and the density return values;
        # the k = 2 moment's transform has underflowed there (next test).
        for evaluate in WALL_EVALUATORS[1:]:
            assert math.isfinite(evaluate(params, 1e-150))

    @pytest.mark.parametrize("k, t", [(2, 1e-150), (2, 1e-130), (2, 1e-125), (3, 1e-110),
                                      (4, 1e-100)])
    def test_moment_whose_transform_underflows_is_named(self, k, t):
        # The moment is a normal double (1.23e-195 at k = 2, t = 1e-130, by
        # the short-time branch), but k! p(1) W^{k-1} / eps^2 is subnormal or
        # 0 at both contours' head node s = r. The inversion returned 0.0,
        # and at k = 2, t = 1e-125 a value 1.2e-3 off.
        params = F.FpParams(1.0, 1.0)
        assert F.loss_moment_asymptotic(params, k, t, "short") > 2.2250738585072014e-308
        with pytest.raises(F.InversionError, match="underflows"):
            F.loss_moment(params, CTRL, k, t)

    def test_moment_with_a_normal_head_node_is_inverted(self):
        # At t = 1e-120 the head-node value is 5.1e-304: inverted, and within
        # 1e-9 of the short-time branch, which is exact to far more there.
        params = F.FpParams(1.0, 1.0)
        assert F.loss_moment(params, CTRL, 2, 1e-120) == pytest.approx(
            F.loss_moment_asymptotic(params, 2, 1e-120, "short"), rel=1e-9)

    def test_halfline_density_at_large_drift_and_small_time(self):
        # e^{a (x - y) / sigma2} = e^{1e4} overflowed apart from the Gaussian
        # e^{-(x - y)^2 / (2 sigma2 t)} = e^{-2e4} that cancels it. The
        # density is 6.1e-4884 by 50-digit mpmath: 0.0 in doubles.
        assert F.halfline_density(F.FpParams(a=50.0, sigma2=1e-3), 0.5, 1e-3, 0.3) == 0.0

    def test_first_moment_at_any_positive_tau(self):
        params = F.FpParams(1.0, 1.0)
        p1 = F.stationary_density(params, 1.0)
        for t in (1e-155, 1e-300, 1e-320):
            assert F.loss_moment(params, CTRL, 1, t) == p1 * params.tau(t)

    @pytest.mark.parametrize("a", [1e155, -1e155])
    def test_drift_whose_square_overflows_is_rejected(self, a):
        with pytest.raises(ValueError, match="finite square"):
            F.FpParams(a=a, sigma2=1.0)

    def test_wall_record_overflow_is_named(self):
        # v^2 is finite, but eps^2 W^2, about 4 v^2, is not.
        params = F.FpParams(a=1.3e154, sigma2=1.0)
        for evaluate in WALL_EVALUATORS:
            with pytest.raises(F.InversionError, match="overflows"):
                evaluate(params, 1.0)

    @pytest.mark.parametrize("a", [1e80, -1e80])
    def test_correlator_at_huge_drift_underflows_to_zero(self, a):
        # lam * lam overflows on every mode; e^{-lam tau_T} is 0 on all of them.
        assert F.loss_correlator(F.FpParams(a=a, sigma2=1.0), CTRL, 1.0, 1.0, 1.0) == 0.0

    def test_correlator_at_huge_diffusion_is_finite(self):
        # v = 0 and every tau is 0.5, as at sigma2 = 2 and t = 0.5: the
        # correlator reads only v and tau, so sigma2 = 1e300 is no overflow.
        got = F.loss_correlator(F.FpParams(0.0, 1e300), CTRL, 1e-300, 1e-300, 1e-300)
        assert got == F.loss_correlator(F.FpParams(0.0, 2.0), CTRL, 0.5, 0.5, 0.5)
        assert got == 1.4554717762989356e-4

    def test_division_by_zero_on_the_contour_is_named(self):
        # v = -100, tau = 5e14: eps^2 W is 0 on a node.
        with pytest.raises(F.InversionError):
            F.loss_probability(F.FpParams(a=-1e5, sigma2=1e3), CTRL, 1e12)


def clear_inversion_caches():
    F.numerics._talbot_contours.cache_clear()
    F._wall_record.cache_clear()
    F._wall_density.cache_clear()
    F._loss_probability.cache_clear()


class TestWallTransformCache:
    PARAMS = F.FpParams(a=0.5, sigma2=2.0)

    def pdf_curve(self, t, xs):
        return [F.loss_pdf(self.PARAMS, CTRL, x, t).hex() for x in xs]

    def test_one_transform_evaluation_per_params_and_time(self, monkeypatch):
        clear_inversion_caches()
        calls = []
        transform = F.boundary_return_transform

        def counted(params, eps):
            calls.append(np.size(eps))
            return transform(params, eps)

        monkeypatch.setattr(F, "boundary_return_transform", counted)
        t = 0.7
        F.loss_moment(self.PARAMS, CTRL, 2, t)
        F.loss_probability(self.PARAMS, CTRL, t)
        for x in np.linspace(0.0, 1.0, 20):
            F.loss_pdf(self.PARAMS, CTRL, x, t)
        F.loss_pdf_conditional(self.PARAMS, CTRL, 0.3, t)
        assert len(calls) == 1
        F.loss_probability(self.PARAMS, CTRL, 1.4)
        assert len(calls) == 2
        fine = F.numerics.LAPLACE_NODES
        assert calls == [fine + fine - fine // 6] * 2

    def test_conditional_curve_inverts_the_probability_once(self, monkeypatch):
        # n points: n density inversions and one of the loss probability.
        # Every inversion ends in one contour sum; only the probability's
        # goes through laplace_invert.
        clear_inversion_caches()
        calls, sums = [], []
        invert, contour_sums = F.numerics.laplace_invert, F.numerics._contour_sums

        def counted(transform, tau):
            calls.append(tau)
            return invert(transform, tau)

        def counted_sums(terms, contours, tau):
            sums.append(tau)
            return contour_sums(terms, contours, tau)

        monkeypatch.setattr(F.numerics, "laplace_invert", counted)
        monkeypatch.setattr(F.numerics, "_contour_sums", counted_sums)
        xs = np.linspace(0.05, 1.0, 12)
        curve = [F.loss_pdf_conditional(self.PARAMS, CTRL, x, 0.7) for x in xs]
        assert len(sums) == xs.size + 1
        assert len(calls) == 1
        clear_inversion_caches()
        monkeypatch.setattr(F.numerics, "laplace_invert", invert)
        monkeypatch.setattr(F.numerics, "_contour_sums", contour_sums)
        prob = F.loss_probability(self.PARAMS, CTRL, 0.7)
        assert curve == [F.loss_pdf(self.PARAMS, CTRL, x, 0.7) / prob for x in xs]

    def test_cold_and_warm_curves_identical(self):
        xs = np.linspace(0.0, 1.2, 25)
        clear_inversion_caches()
        cold = self.pdf_curve(0.9, xs)
        backward = self.pdf_curve(0.9, xs[::-1])[::-1]
        clear_inversion_caches()
        again = self.pdf_curve(0.9, xs)
        assert backward == cold
        assert again == cold

    def test_cached_wall_values_read_only(self):
        cached = F._wall_record(self.PARAMS.v, 0.45)
        arrays = [a for a in cached if isinstance(a, np.ndarray)]
        # W(1, eps; 1) and a loss_pdf point's node vectors c and b
        assert len(arrays) == 3
        assert arrays[0] is cached.w and arrays[1] is cached.c and arrays[2] is cached.b
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_equal_drift_shares_one_record(self):
        # v = 0.5 and tau = 0.5 for both parameter sets.
        clear_inversion_caches()
        first = F.loss_probability(F.FpParams(1.0, 2.0), CTRL, 0.5)
        second = F.loss_probability(F.FpParams(0.5, 1.0), CTRL, 1.0)
        info = F._loss_probability.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first == second
        # A moment at the second parameter set reads the first's record.
        F.loss_moment(F.FpParams(0.5, 1.0), CTRL, 2, 1.0)
        info = F._wall_record.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_wall_cache_is_bounded(self):
        clear_inversion_caches()
        maxsize = F._wall_record.cache_parameters()["maxsize"]
        for i in range(maxsize + 10):
            F.loss_probability(self.PARAMS, CTRL, 0.1 + 0.01 * i)
        info = F._wall_record.cache_info()
        assert info.misses == maxsize + 10
        assert info.currsize <= maxsize

    def test_wall_density_cache_is_bounded(self):
        clear_inversion_caches()
        maxsize = F._wall_density.cache_parameters()["maxsize"]
        for i in range(maxsize + 10):
            F.loss_moment(F.FpParams(a=0.01 * i, sigma2=2.0), CTRL, 1, 0.5)
        info = F._wall_density.cache_info()
        assert info.misses == maxsize + 10
        assert info.currsize <= maxsize

    # float.hex() of (loss_pdf(x), m2, m3, p_loss) at (a, sigma2, t, x): the
    # caches of p(1), W and the contour factors must not move a bit.
    # The loss_pdf values were taken when a point's terms became c e^{x b}
    # (seven of the twelve moved, by at most 2.9e-10 relative); m2, m3 and
    # p_loss are older.
    PINNED = [
        (-1.0, 0.5, 0.002, 0.01, ('0x1.eb4423d684000p-5', '0x1.471816f8c8400p-20',
                                  '0x1.c78ce930a6800p-25', '0x1.00c13f5ff8000p-9')),
        (-1.0, 2.0, 0.01, 0.05, ('0x1.ce8cd12cf0000p-2', '0x1.bc087e279e000p-11',
                                 '0x1.58b730e21d000p-13', '0x1.191f94aaf0000p-4')),
        (-1.0, 0.5, 1.2, 0.2, ('0x1.97725389d5555p-3', '0x1.2b0b1a3575555p-7',
                               '0x1.6448763d7aaaap-8', '0x1.b68a24b200000p-4')),
        (-1.0, 2.0, 2.0, 0.5, ('0x1.f892a1a999999p-2', '0x1.0a746d4653333p+1',
                               '0x1.2e0257c5b0000p+2', '0x1.edce2c8e66666p-1')),
        (-1.0, 0.5, 80.0, 1.0, ('0x1.05718a7eccccdp-1', '0x1.718f7ff49999ap+1',
                                '0x1.ad5df31800000p+2', '0x1.ff59779cccccdp-1')),
        (0.0, 0.5, 0.004, 0.02, ('0x1.4f3792122e000p-1', '0x1.8f1a102432800p-15',
                                 '0x1.92a7371083e00p-19', '0x1.244f96c2f0000p-5')),
        (0.0, 2.0, 0.1, 0.1, ('0x1.a567eb3b00000p-1', '0x1.85bf7f60d8000p-5',
                              '0x1.eb852a4e48000p-6', '0x1.6d631d1980000p-2')),
        (0.0, 0.5, 4.0, 0.7, ('0x1.0a29dc5966666p-1', '0x1.9f4a18414ccccp+0',
                              '0x1.ab13372613333p+1', '0x1.dcce118a66666p-1')),
        (0.0, 2.0, 20.0, 19.0, ('0x1.bafc6e3dca90ap-4', '0x1.9d49f49ee6667p+8',
                                '0x1.133f7df7d28f6p+13', '0x1.ffffffeb851ecp-1')),
        (2.0, 0.5, 0.02, 0.1, ('0x1.2d549ade40000p+1', '0x1.4fdbf1a776000p-8',
                               '0x1.b7ce696874000p-11', '0x1.fb3fd7c940000p-2')),
        (2.0, 2.0, 0.5, 0.4, ('0x1.a86189cffffffp-2', '0x1.f0c83776d9999p+0',
                              '0x1.f623297d53332p+1', '0x1.e7dd023666666p-1')),
        (2.0, 0.5, 20.0, 35.0, ('0x1.24c38c9ed9c76p-5', '0x1.92c0043591eb8p+10',
                                '0x1.fdd03e4e2999ap+15', '0x1.ffffffdeb851fp-1')),
    ]

    @pytest.mark.parametrize("a, sigma2, t, x, want", PINNED)
    def test_values_are_pinned_to_the_bit(self, a, sigma2, t, x, want):
        params = F.FpParams(a=a, sigma2=sigma2)
        got = (
            F.loss_pdf(params, CTRL, x, t),
            F.loss_moment(params, CTRL, 2, t),
            F.loss_moment(params, CTRL, 3, t),
            F.loss_probability(params, CTRL, t),
        )
        assert tuple(v.hex() for v in got) == want


def _outcome(f, *args):
    """float.hex() of f(*args), or the type of the exception it raises."""
    try:
        return f(*args).hex()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


class TestWallRecordParity:
    """loss_pdf reads one cached record per (params, tau) and enters
    np.errstate only past the record's overflow-free x; it must return what
    the same terms formed afresh return, bit for bit, error for error, and
    what the direct laplace_invert path returns, up to round-off."""

    @given(a=st.floats(-6.0, 6.0), sigma2=st.floats(0.05, 4.0),
           log10_t=st.floats(-4.0, 2.0), near_bound=st.booleans(),
           u=st.floats(0.0, 1.1), rel=st.floats(-1e-3, 1e-3))
    @settings(max_examples=300, deadline=None)
    @example(a=5.0, sigma2=0.5, log10_t=1.0, near_bound=False, u=87.6, rel=0.0)
    @example(a=2.0, sigma2=1.0, log10_t=1.0, near_bound=False, u=78.96, rel=0.0)
    def test_matches_the_laplace_invert_path(self, a, sigma2, log10_t, near_bound, u, rel):
        # x is u times the tail cutoff, or within rel of the overflow-free
        # bound where that lies below the cutoff; the two examples are the
        # deep-tail points of TestLossPdf (u there is x itself).
        params, t = F.FpParams(a=a, sigma2=sigma2), 10.0**log10_t
        x = self.lost_volume(params, log10_t, near_bound, u, rel)
        assert _outcome(F.loss_pdf, params, CTRL, x, t) == \
            _outcome(loss_pdf_via_fresh_terms, params, x, t)

    @staticmethod
    def lost_volume(params, log10_t, near_bound, u, rel):
        tau = params.tau(10.0**log10_t)
        if tau > F.PDF_INVERSION_TAU_MAX or log10_t == 1.0:
            return u
        record = F._wall_record(params.v, tau)
        if near_bound and 0.0 < record.x_safe < record.x_cut:
            return record.x_safe * (1.0 + rel)
        return u * record.x_cut

    @given(a=st.floats(-6.0, 6.0), sigma2=st.floats(0.05, 4.0),
           log10_t=st.floats(-4.0, 2.0), near_bound=st.booleans(),
           u=st.floats(0.0, 1.1), rel=st.floats(-1e-3, 1e-3))
    @settings(max_examples=300, deadline=None)
    @example(a=5.0, sigma2=0.5, log10_t=1.0, near_bound=False, u=87.6, rel=0.0)
    @example(a=2.0, sigma2=1.0, log10_t=1.0, near_bound=False, u=78.96, rel=0.0)
    @example(a=1.0, sigma2=0.5, log10_t=1.0, near_bound=False, u=0.08037463200477886, rel=0.0)
    def test_within_round_off_of_the_generic_path(self, a, sigma2, log10_t, near_bound, u, rel):
        # Both paths form each term t_k on the fine contour from the same W
        # and contour factors, in five complex steps, each within about 4 u
        # of |t_k| (u = eps/2), and an exponent z_k, x B_k or -x/W_k, within
        # about 4 u of |z_k|, which e^{z_k} turns into a relative error of
        # that size. With the contour sums, the values differ by at most
        # about scale sum_k (25 + 7 |z_k|) u |t_k|, which 16 eps (1 + |z_k|)
        # covers; a subnormal step adds at most 2^-1074. The largest ratio
        # to this bound in 12 000 random draws was 1.4/16.
        params, t = F.FpParams(a=a, sigma2=sigma2), 10.0**log10_t
        x = self.lost_volume(params, log10_t, near_bound, u, rel)
        got = _outcome(F.loss_pdf, params, CTRL, x, t)
        want = _outcome(loss_pdf_via_laplace_invert, params, x, t)
        if isinstance(got, type) or isinstance(want, type):
            assert got == want
            return
        got, want = float.fromhex(got), float.fromhex(want)
        tau = params.tau(t)
        record = F._wall_record(params.v, tau) if tau <= F.PDF_INVERSION_TAU_MAX else None
        if record is None or x > record.x_cut:  # the surrogate or the tail cutoff
            assert got == want
            return
        (head, off, scale), _ = record.contours
        fine = np.r_[head, off.start:off.stop]
        z = x * record.b[fine]
        terms = np.abs(record.c[fine] * np.exp(z))
        bound = 16.0 * scale * (np.finfo(float).eps * float(np.sum(terms * (1.0 + np.abs(z))))
                                + fine.size * math.ulp(0.0))
        assert abs(got - want) <= bound

    @given(a=st.floats(-6.0, 6.0), sigma2=st.floats(0.05, 4.0), log10_t=st.floats(-4.0, 1.3))
    @settings(max_examples=150, deadline=None)
    @example(a=5.0, sigma2=0.5, log10_t=1.0)
    @example(a=2.0, sigma2=1.0, log10_t=1.0)
    def test_no_step_overflows_up_to_the_bound(self, a, sigma2, log10_t):
        params = F.FpParams(a=a, sigma2=sigma2)
        record = F._wall_record(params.v, params.tau(10.0**log10_t))
        assert record.x_safe > 0.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for x in (0.0, record.x_safe):
                assert np.isfinite(F._pdf_terms(x, record.c, record.b)).all()

    def test_errstate_only_past_the_bound(self, monkeypatch):
        params, t = F.FpParams(a=5.0, sigma2=0.5), 10.0
        record = F._wall_record(params.v, params.tau(t))
        entered = []
        errstate = np.errstate

        def counted(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(F.np, "errstate", counted)
        # Far in the tail some of these points miss the error budget.
        outcomes = [_outcome(F.loss_pdf, params, CTRL, x, t)
                    for x in np.linspace(0.0, record.x_safe, 9)]
        assert entered == []
        assert F.InversionError in outcomes and str in map(type, outcomes)
        with pytest.raises(F.InversionError, match="non-finite"):
            F.loss_pdf(params, CTRL, 87.6, t)
        assert entered == [{"over": "ignore", "invalid": "ignore", "divide": "ignore"}]


class TestLossVarianceLongtime:
    def test_driftless_two_thirds(self):
        params = F.FpParams(a=0.0, sigma2=2.0)
        t = params.time_from_tau(50.0)
        m1 = F.loss_moment(params, CTRL, 1, t)
        assert F.loss_variance_longtime(params, t) == pytest.approx(2.0 * m1 / 3.0, rel=1e-9)

    def test_strong_drift_branch(self):
        params = F.FpParams(a=40.0, sigma2=2.0)  # v = 20
        t = params.time_from_tau(50.0)
        m1 = F.loss_moment(params, CTRL, 1, t)
        assert F.loss_variance_longtime(params, t) == pytest.approx(m1 / 20.0, rel=1e-3)

    def test_warns_below_threshold(self):
        params = F.FpParams(a=0.0, sigma2=2.0)
        with pytest.warns(UserWarning):
            F.loss_variance_longtime(params, params.time_from_tau(0.5))

    def test_summary_takes_the_variance_without_warning(self):
        # The summary calls the closed form directly: no warning, and the
        # process-wide warning filters are left as they are.
        params = F.FpParams(a=0.0, sigma2=2.0)
        t = params.time_from_tau(1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = warnings.filters
            before = list(filters)
            _, var = F.loss_pdf_longtime_summary(params, t)
            assert warnings.filters is filters and filters == before
        assert caught == []
        with pytest.warns(UserWarning, match="tau=1 < 3"):
            assert F.loss_variance_longtime(params, t) == var

    def test_consistent_with_saturated_walk_ratio(self):
        # Cross-model check: variance/mean of 2/3 in buffer units matches the
        # saturated discrete ratio 2L/3 once the buffer is L service units.
        params = F.FpParams(a=0.0, sigma2=2.0)
        t = params.time_from_tau(50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = F.loss_variance_longtime(params, t) / F.loss_moment(params, CTRL, 1, t)
        L = 50
        walk = D.DiscreteQueueParams(p=0.5, L=L)
        n_sat = int(50 * D.crossover_window(walk))
        chi = D.compressibility(walk, n_sat)
        assert chi == pytest.approx(ratio * L, rel=0.05)


class TestLossCorrelator:
    def test_window_regime_power_law(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        t1 = t2 = 2e-6
        seps = np.geomspace(2e-5, 2e-3, 7)
        corr = np.array([F.loss_correlator(params, CTRL, t1, t2, float(T)) for T in seps])
        slope = np.polyfit(np.log(seps), np.log(corr), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_window_regime_amplitude(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        t1 = t2 = 2e-6
        T = 1e-4
        got = F.loss_correlator(params, CTRL, t1, t2, T)
        want = F.loss_correlator_asymptotic(params, t1, t2, T, "window")
        assert got == pytest.approx(want, rel=0.05)

    def test_window_regime_root_two_per_doubling(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        t1 = t2 = 2e-6
        for T in (2e-5, 8e-5, 3.2e-4):
            near = F.loss_correlator(params, CTRL, t1, t2, T)
            far = F.loss_correlator(params, CTRL, t1, t2, 2.0 * T)
            assert near / far == pytest.approx(math.sqrt(2.0), rel=0.03)

    def test_separated_windows_decorrelate(self):
        params = F.FpParams(a=1.0, sigma2=1.0)
        t1 = t2 = 0.05
        near = F.loss_correlator(params, CTRL, t1, t2, t1)
        far = F.loss_correlator(params, CTRL, t1, t2, 20.0)
        assert near > 0.0
        assert abs(far) < 0.01 * near
        assert F.loss_correlator_asymptotic(params, t1, t2, 40.0, "separated") == 0.0

    def test_short_separation_continuity_scale(self):
        # Continuation toward touching windows stays within an order of
        # magnitude of the one-window variance at that scale.
        params = F.FpParams(a=0.0, sigma2=2.0)
        t = 0.05
        m1 = F.loss_moment(params, CTRL, 1, t)
        m2 = F.loss_moment(params, CTRL, 2, t)
        var = m2 - m1 * m1
        corr = F.loss_correlator(params, CTRL, t, t, t / 50.0)
        assert 0.1 * corr < var < 50.0 * corr


    def test_large_drift_is_finite(self):
        params = F.FpParams(a=800.0, sigma2=1.0)
        assert math.isfinite(F.loss_correlator(params, CTRL, 0.5, 2.0, 1.0))


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestSeriesAgainstInversion:
    """The series density either raises SeriesTruncationError or meets a
    40-digit inversion of the closed-form propagator to 1e-9 of its scale.
    The two examples are off by 5 times that while sum_n |c_n psi_n(x)| stays
    below it: the round-off estimate must weigh each term's own rounding."""

    @example(v=100.0, tau=0.002184814095159601, x=0.9876947376557083, y=0.5933871710951234)
    @example(v=30.0, tau=0.005773501561, x=0.969907574, y=0.207817667)
    @given(v=st.floats(-100.0, 100.0), tau=_log_uniform(1e-3, 2.0), x=st.floats(0.0, 1.0),
           y=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_raises_or_matches(self, v, tau, x, y):
        params = F.FpParams(a=2.0 * v, sigma2=2.0)  # reduced drift v, tau = t
        try:
            got = F.transition_density(params, CTRL, x, tau, y)
        except F.SeriesTruncationError:
            return
        want = inverted_propagator(v, x, y, tau)
        assert abs(got - want) <= 1e-9 * max(1.0, float(F.stationary_density(params, x)))


class TestLossCorrelatorOracles:
    """The closed-form mode sum against quadrature and a long fixed sum."""

    @given(a=st.floats(-4.0, 4.0), sigma2=_log_uniform(0.25, 4.0), t1=_log_uniform(0.01, 5.0),
           t2=_log_uniform(0.01, 5.0), T=_log_uniform(0.01, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_quadrature(self, a, sigma2, t1, t2, T):
        params = F.FpParams(a=a, sigma2=sigma2)
        got = F.loss_correlator(params, CTRL, t1, t2, T)
        want = quadrature_loss_correlator(params, CTRL, t1, t2, T)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-13)

    @given(a=st.floats(-4.0, 4.0), sigma2=_log_uniform(0.25, 4.0), t1=_log_uniform(1e-4, 5.0),
           t2=_log_uniform(1e-4, 5.0), T=_log_uniform(1e-4, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_long_mode_sum(self, a, sigma2, t1, t2, T):
        params = F.FpParams(a=a, sigma2=sigma2)
        got = F.loss_correlator(params, CTRL, t1, t2, T)
        want = mode_sum_loss_correlator(a, sigma2, t1, t2, T)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


class TestCorrelatorsOnReducedVariables:
    """Both correlators read only v and the three reduced times: scaling
    a, sigma2 and 1/t by any s leaves them bit for bit where v and tau stay
    put, even past sigma2 of 2.7e154, where (sigma2/2)^2 overflows."""

    @given(a=st.floats(-4.0, 4.0), sigma2=_log_uniform(0.25, 4.0), t1=_log_uniform(0.01, 5.0),
           t2=_log_uniform(0.01, 5.0), T=_log_uniform(0.01, 10.0), s=_log_uniform(1e-150, 1e150))
    @settings(max_examples=60, deadline=None)
    @example(a=0.0, sigma2=1.0, t1=1.0, t2=1.0, T=1.0, s=1e150)
    @example(a=1.0, sigma2=2.0, t1=1.0, t2=0.5, T=2.0, s=1e300)
    def test_scaled_problem_reads_its_own_v_and_tau(self, a, sigma2, t1, t2, T, s):
        scaled = F.FpParams(a=a * s, sigma2=sigma2 * s)
        times = (t1 / s, t2 / s, T / s)
        # At sigma2 = 2, a = 2 v and t = tau pass v and tau through exactly.
        reduced = F.FpParams(a=2.0 * scaled.v, sigma2=2.0)
        taus = tuple(scaled.tau(t) for t in times)
        assert F.loss_correlator(scaled, CTRL, *times) == F.loss_correlator(reduced, CTRL, *taus)
        assert (F.loss_correlator_asymptotic(scaled, *times, "window")
                == F.loss_correlator_asymptotic(reduced, *taus, "window"))


class TestDiffusionLimitBridge:
    """The exact bounded walk as an oracle for the continuum loss variance.

    In the diffusion limit a walk on L + 1 levels with p = 1/2 + a/(2L) is
    the continuum queue with drift a and diffusion 4p(1 - p), after
    positions x = l/L, time t = N/L^2 and lost volume = losses/L. The
    discrete variance meets m2 - m1^2 with a relative error of order 1/L.
    """

    @given(L=st.sampled_from([1000, 4000]), a=st.floats(-1.0, 2.5), t=_log_uniform(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_walk_variance_converges_at_rate_one_over_L(self, L, a, t):
        p = 0.5 + a / (2.0 * L)
        N = round(t * L * L)
        walk = D.loss_variance_exact(D.DiscreteQueueParams(p=p, L=L), N) / L**2
        params = F.FpParams(a=a, sigma2=4.0 * p * (1.0 - p))
        t_walk = N / L**2
        m1 = F.loss_moment(params, CTRL, 1, t_walk)
        m2 = F.loss_moment(params, CTRL, 2, t_walk)
        assert walk == pytest.approx(m2 - m1 * m1, rel=3.0 / L)


class TestIdlenessSymmetry:
    """Every loss-side quantity maps to the idleness side via x -> 1-x, v -> -v."""

    def test_stationary_density(self):
        params = F.FpParams(a=1.3, sigma2=2.0)
        xs = np.linspace(0, 1, 9)
        lhs = F.stationary_density(params, xs)
        rhs = F.stationary_density(params.flipped(), 1.0 - xs)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_transition_density(self):
        params = F.FpParams(a=-0.9, sigma2=1.0)
        t = 0.3
        xs = np.linspace(0, 1, 7)
        lhs = F.transition_density(params, CTRL, xs, t, 0.8)
        rhs = F.transition_density(params.flipped(), CTRL, 1.0 - xs, t, 0.2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_laplace_propagator(self):
        params = F.FpParams(a=0.6, sigma2=1.2)
        lhs = F.laplace_propagator(params, 0.75, 1.7, 0.2)
        rhs = F.laplace_propagator(params.flipped(), 0.25, 1.7, 0.8)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSeriesControl:
    def test_mode_heuristic(self):
        assert F._modes_for(1.0) == 14
        assert F._modes_for(1e-4) == 608

    def test_validation(self):
        with pytest.raises(ValueError):
            F.FpParams(a=0.0, sigma2=0.0)
