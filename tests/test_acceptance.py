"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Three clauses are implemented exactly as stated and marked strict-xfail
because the desk-scale parameters they pin land outside the validity regime
of the closed forms they check (the numbers in the reasons are exact, not
statistical); each is paired with a passing companion that verifies the same
law where it holds. Everything else passes at its stated tolerance.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from queueloss import discrete as D
from queueloss import fokker_planck as F
from queueloss import simulate as S
from queueloss import stats as ST
from reference_numerics import integrate

CTRL = F.SeriesControl()


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# 1. Mean loss rate across the three regimes, exact and Monte Carlo
# ---------------------------------------------------------------------------


class TestCriterion1MeanLossRate:
    def test_three_regimes_with_monte_carlo(self):
        L = 20
        results = []
        for p, seed in ((0.75, 11), (0.4, 12), (0.5, 13)):
            params = D.DiscreteQueueParams(p=p, L=L)
            exact = D.mean_loss_rate_exact(params)
            path = D.simulate_path(params, n_steps=10**6, seed=seed)
            series = ST.WindowedSeries.from_counts(path.window_counts(100), 100)
            summary = ST.mean_and_variance(series)
            rate_mc = summary.mean / 100.0
            rate_se = summary.mean_se / 100.0
            consistent = abs(rate_mc - exact) <= 3.0 * rate_se
            results.append((p, exact, rate_mc, rate_se, consistent))
        heavy = results[0]
        light = results[1]
        balanced = results[2]
        ok_heavy = abs(heavy[1] - 0.5) <= 0.01 * 0.5
        ok_light = light[2] < 10.0 * light[1] and light[1] < 1e-4
        ok_balanced = abs(balanced[1] - 0.5 / (L + 1)) < 1e-14
        ok_mc = all(r[4] for r in results)
        ok = ok_heavy and ok_light and ok_balanced and ok_mc
        report(
            "1 mean-loss-rate",
            ok,
            f"exact(p=.75)={heavy[1]:.4f} (target .5/1%), exact(p=.4)={light[1]:.3g}, "
            f"exact(p=.5)={balanced[1]:.5f}, all MC pulls within 3se: {ok_mc}",
        )
        assert ok_heavy and ok_light and ok_balanced
        for p, exact, mc, se, consistent in results:
            assert consistent, f"MC rate at p={p}: {mc:.3g} vs {exact:.3g} (se {se:.2g})"


# ---------------------------------------------------------------------------
# 2. Critical compressibility growth
# ---------------------------------------------------------------------------


def _chi_growth_fit(L: int, n_lo: float, n_hi: float, points: int = 13):
    params = D.DiscreteQueueParams(p=0.5, L=L)
    ns = np.unique(np.round(np.logspace(math.log10(n_lo), math.log10(n_hi), points)).astype(int))
    chi = np.array([D.compressibility(params, int(n)) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(chi), 1)[0])
    amplitude = float(np.exp(np.mean(np.log(chi) - 0.5 * np.log(ns))))
    return ns, chi, slope, amplitude


class TestCriterion2CriticalGrowth:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "stated window [1e2, 1e4] at L=100 overlaps saturation (crossover "
            "near N=1013): the exact slope over that window is 0.390 and the "
            "fitted amplitude is 22 percent below the growth coefficient; no "
            "evaluation of the stated quantities at L=100 can meet 0.50 +/- "
            "0.05 and 10 percent. The growth law itself is verified at L=1000 "
            "in the companion test."
        ),
    )
    def test_stated_window_at_desk_capacity(self):
        c = D.critical_coefficient()
        _, _, slope, amplitude = _chi_growth_fit(100, 1e2, 1e4)
        ok = abs(slope - 0.5) <= 0.05 and abs(amplitude / c - 1.0) <= 0.10
        report(
            "2 critical-growth (strict, L=100)",
            ok,
            f"loglog slope={slope:.3f} (target .50+-.05), "
            f"amplitude/c={amplitude / c:.3f} (target 1+-.10)",
        )
        assert abs(slope - 0.5) <= 0.05
        assert abs(amplitude / c - 1.0) <= 0.10

    def test_growth_law_in_validity_regime(self):
        # Same fit with the buffer deep enough that the stated window sits
        # entirely inside the growth regime (crossover near N = 1.0e5).
        c = D.critical_coefficient()
        _, _, slope, amplitude = _chi_growth_fit(1000, 1e2, 1e4)
        ok = abs(slope - 0.5) <= 0.05 and abs(amplitude / c - 1.0) <= 0.10
        report(
            "2 critical-growth (validity regime, L=1000)",
            ok,
            f"loglog slope={slope:.3f} (target .50+-.05), "
            f"amplitude/c={amplitude / c:.3f} (target 1+-.10)",
        )
        assert abs(slope - 0.5) <= 0.05
        assert abs(amplitude / c - 1.0) <= 0.10


# ---------------------------------------------------------------------------
# 3. Saturation of the compressibility
# ---------------------------------------------------------------------------


class TestCriterion3Saturation:
    def test_balanced_saturation(self):
        params = D.DiscreteQueueParams(p=0.5, L=30)
        n = int(20 * D.crossover_window(params))
        chi = D.compressibility(params, n)
        target = 2 * 30 / 3.0
        ok = abs(chi / target - 1.0) <= 0.05
        report(
            "3 saturation (p=.5, L=30)",
            ok,
            f"chi(N={n})={chi:.3f} vs 2L/3={target:.1f} "
            f"({100 * (chi / target - 1):+.1f}%)",
        )
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the target value (1-b)/b = 1.5 at b = |2p-1| = 0.4 is the weak-"
            "drift asymptote of the saturated ratio; the exact saturated value "
            "at p=0.7 is (1-b^2)/b = 2.1 (confirmed independently by matrix-"
            "power sums, a generating-function calculation, and Monte Carlo), "
            "so no window length can land within 5 percent of 1.5. The "
            "companion test verifies the asymptote where weak drift holds."
        ),
    )
    def test_offcritical_saturation_stated_target(self):
        params = D.DiscreteQueueParams(p=0.7, L=50)
        n = int(200 * D.crossover_window(params))
        chi = D.compressibility(params, n)
        ok = abs(chi / 1.5 - 1.0) <= 0.05
        report(
            "3 saturation (strict, p=.7, L=50)",
            ok,
            f"chi(N={n})={chi:.4f} vs stated 1.5 ({100 * (chi / 1.5 - 1):+.1f}%)",
        )
        assert ok

    def test_offcritical_saturation_weak_drift_regime(self):
        # Exact saturated ratio, and recovery of the (1-b)/b form once the
        # drift is weak while b L stays large.
        strong = D.DiscreteQueueParams(p=0.7, L=50)
        chi_strong = D.compressibility(strong, int(200 * D.crossover_window(strong)))
        b = 0.4
        exact_ok = abs(chi_strong / ((1 - b * b) / b) - 1.0) <= 0.01
        weak = D.DiscreteQueueParams(p=0.52, L=500)
        chi_weak = D.compressibility(weak, int(50 * D.crossover_window(weak)))
        bw = 0.04
        weak_ok = abs(chi_weak / ((1 - bw) / bw) - 1.0) <= 0.05
        report(
            "3 saturation (validity regime)",
            exact_ok and weak_ok,
            f"chi(p=.7,L=50)={chi_strong:.4f} vs (1-b^2)/b={(1 - b * b) / b:.2f}; "
            f"chi(p=.52,L=500)={chi_weak:.2f} vs (1-b)/b={(1 - bw) / bw:.1f}",
        )
        assert exact_ok and weak_ok


# ---------------------------------------------------------------------------
# 4. Window-correlator power law in the separation
# ---------------------------------------------------------------------------


class TestCriterion4CorrelatorPowerLaw:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the exact-branch correlator at L=50 carries the finite-buffer "
            "offset (the spectral sum is ~ sqrt(2/(pi M)) - 1/(L+1)) and cuts "
            "off exponentially beyond M ~ 2(L+1)^2/pi^2 = 530, so the "
            "100 -> 400 halving ratio is 2.98 and larger separations decay "
            "exponentially; the stated 3 percent halving over [1e2, 1e4] "
            "cannot hold at L=50. The law is verified on the analytic branch "
            "and, for the exact branch, at L=1000 in the companions."
        ),
    )
    def test_exact_branch_stated_window(self):
        params = D.DiscreteQueueParams(p=0.5, L=50)
        ms = [100, 400, 1600, 6400]
        values = [D.correlator_r2(params, 20, m, branch="exact") for m in ms]
        ratios = [values[i] / values[i + 1] for i in range(len(ms) - 1)]
        ok = all(abs(r / 2.0 - 1.0) <= 0.03 for r in ratios)
        report(
            "4 correlator power law (strict, exact branch, L=50)",
            ok,
            "ratios per 4x: " + ", ".join(f"{r:.3f}" for r in ratios) + " (target 2 +- 3%)",
        )
        for r in ratios:
            assert abs(r / 2.0 - 1.0) <= 0.03

    def test_analytic_branch_stated_window(self):
        params = D.DiscreteQueueParams(p=0.5, L=50)
        ms = [100, 400, 1600, 6400]
        values = [D.correlator_r2(params, 20, m, branch="analytic") for m in ms]
        ratios = [values[i] / values[i + 1] for i in range(len(ms) - 1)]
        ok = all(abs(r / 2.0 - 1.0) <= 0.03 for r in ratios)
        report(
            "4 correlator power law (analytic branch)",
            ok,
            "ratios per 4x: " + ", ".join(f"{r:.4f}" for r in ratios),
        )
        assert ok

    def test_exact_branch_in_validity_regime(self):
        params = D.DiscreteQueueParams(p=0.5, L=1000)
        r100 = D.correlator_r2(params, 20, 100, branch="exact")
        r400 = D.correlator_r2(params, 20, 400, branch="exact")
        ratio = r100 / r400
        ok = abs(ratio / 2.0 - 1.0) <= 0.03
        report(
            "4 correlator power law (validity regime, L=1000)",
            ok,
            f"halving ratio M=100->400: {ratio:.3f} (target 2 +- 3%)",
        )
        assert ok

    def test_simulation_matches_exact_branch(self):
        params = D.DiscreteQueueParams(p=0.5, L=50)
        path = D.simulate_path(params, n_steps=10**7, seed=202)
        series = ST.WindowedSeries.from_counts(path.window_counts(20), 20)
        pulls = []
        for lag in (5, 10, 20):  # separations M = 100, 200, 400 steps
            est = ST.correlation_estimate(series, [lag])[0]
            exact = D.correlator_r2(params, 20, lag * 20, branch="exact")
            pulls.append((lag * 20, (est.value - exact) / est.se))
        ok = all(abs(pull) <= 3.0 for _, pull in pulls)
        report(
            "4 correlator simulation",
            ok,
            "pulls at M=100/200/400: " + ", ".join(f"{p:+.2f}" for _, p in pulls),
        )
        assert ok


# ---------------------------------------------------------------------------
# 5. Continuum solver correctness
# ---------------------------------------------------------------------------


class TestCriterion5SolverCorrectness:
    def test_normalization_flux_composition_transform(self):
        worst_norm = 0.0
        worst_flux = 0.0
        for v in (-5.0, -1.0, 0.0, 0.5, 2.0, 5.0):
            params = F.FpParams(a=2.0 * v, sigma2=2.0)
            for tau in (1e-3, 1e-2, 0.1, 1.0, 10.0):
                t = params.time_from_tau(tau)
                res = integrate(
                    lambda x: float(F.transition_density(params, CTRL, x, t, 0.3)),
                    0.0,
                    1.0,
                    tol=1e-11,
                )
                worst_norm = max(worst_norm, abs(res.value - 1.0))
                worst_flux = max(
                    worst_flux,
                    abs(F.probability_current(params, CTRL, 0.0, t, 0.3)),
                    abs(F.probability_current(params, CTRL, 1.0, t, 0.3)),
                )

        worst_ck = 0.0
        params = F.FpParams(a=1.0, sigma2=2.0)
        for x, y, t1, t2 in ((0.3, 0.7, 0.05, 0.1), (0.9, 0.9, 0.02, 0.02), (0.1, 0.5, 0.5, 1.0)):
            val, _ = sci_integrate.quad(
                lambda m: float(F.transition_density(params, CTRL, x, t2, m))
                * float(F.transition_density(params, CTRL, m, t1, y)),
                0.0,
                1.0,
                limit=300,
                epsabs=1e-11,
            )
            worst_ck = max(
                worst_ck, abs(val - float(F.transition_density(params, CTRL, x, t1 + t2, y)))
            )

        worst_lap = 0.0
        for v in (-2.0, 0.0, 0.7):
            params = F.FpParams(a=2.0 * v, sigma2=2.0)
            p_ref = {}
            for x, y in ((1.0, 1.0), (0.3, 0.8)):
                p_stat = float(F.stationary_density(params, x))
                for eps in (0.1, 1.0, 10.0):
                    def g(u, _x=x, _y=y, _eps=eps, _p=p_stat):
                        tau = u * u
                        w = float(
                            F.transition_density(params, CTRL, _x, params.time_from_tau(tau), _y)
                        )
                        return 2.0 * u * math.exp(-_eps * tau) * (w - _p)

                    horizon = 40.0 / (math.pi**2 + params.v**2 + eps)
                    val, _ = sci_integrate.quad(
                        g, 0.0, math.sqrt(horizon), limit=400, epsabs=1e-12
                    )
                    numeric = val + p_stat / eps
                    closed = F.laplace_propagator(params, x, eps, y)
                    worst_lap = max(worst_lap, abs(numeric - closed))

        ok = worst_norm <= 1e-8 and worst_flux <= 1e-6 and worst_ck <= 1e-5 and worst_lap <= 1e-6
        report(
            "5 solver-correctness",
            ok,
            f"norm dev {worst_norm:.2e} (<=1e-8), flux {worst_flux:.2e} (<=1e-6), "
            f"composition {worst_ck:.2e} (<=1e-5), transform {worst_lap:.2e} (<=1e-6)",
        )
        assert worst_norm <= 1e-8
        assert worst_flux <= 1e-6
        assert worst_ck <= 1e-5
        assert worst_lap <= 1e-6


# ---------------------------------------------------------------------------
# 6. Loss-moment regimes
# ---------------------------------------------------------------------------


class TestCriterion6MomentRegimes:
    def test_first_exact_and_second_in_both_regimes(self):
        params = F.FpParams(a=0.6, sigma2=2.0)  # reduced drift 0.3
        p1 = float(F.stationary_density(params, 1.0))
        first_ok = all(
            F.loss_moment(params, CTRL, 1, params.time_from_tau(tau))
            == pytest.approx(p1 * tau, rel=1e-12)
            for tau in (1e-3, 0.1, 1.0, 1e2)
        )
        t_short = params.time_from_tau(1e-3)
        t_long = params.time_from_tau(1e2)
        m2_short = F.loss_moment(params, CTRL, 2, t_short)
        m2_long = F.loss_moment(params, CTRL, 2, t_long)
        want_short = F.loss_moment_asymptotic(params, 2, t_short, "short")
        want_long = F.loss_moment_asymptotic(params, 2, t_long, "long")
        short_ok = abs(m2_short / want_short - 1.0) <= 0.05
        long_ok = abs(m2_long / want_long - 1.0) <= 0.05
        ok = first_ok and short_ok and long_ok
        report(
            "6 moment-regimes",
            ok,
            f"m1 exact: {first_ok}; m2/branch at tau=1e-3: {m2_short / want_short:.4f}, "
            f"at tau=1e2: {m2_long / want_long:.4f} (each 1 +- .05)",
        )
        assert ok


# ---------------------------------------------------------------------------
# 7. Lost-volume distribution regimes
# ---------------------------------------------------------------------------


class TestCriterion7LossPdfRegimes:
    def test_short_time_long_time_and_conditional_mass(self):
        params = F.FpParams(a=0.5, sigma2=2.0)  # reduced drift 0.25
        p1 = float(F.stationary_density(params, 1.0))

        tau_s = 1e-3
        t_s = params.time_from_tau(tau_s)
        p_loss = F.loss_probability(params, CTRL, t_s)
        want = p1 * math.sqrt(4.0 * tau_s / math.pi)
        short_ok = abs(p_loss / want - 1.0) <= 0.05

        mass, _ = sci_integrate.quad(
            lambda x: F.loss_pdf_conditional(params, CTRL, x, t_s), 0.0, np.inf, limit=300
        )
        mass_ok = abs(mass - 1.0) <= 1e-6

        tau_l = 1e2
        t_l = params.time_from_tau(tau_l)
        mean = F.loss_moment(params, CTRL, 1, t_l)
        m2 = F.loss_moment(params, CTRL, 2, t_l)
        width = math.sqrt(m2 - mean * mean) / mean
        mean_ok = abs(mean / (tau_l * p1) - 1.0) <= 0.02
        width_ok = width < 0.1
        surrogate_mean, surrogate_var = F.loss_pdf_longtime_summary(params, t_l)
        surrogate_ok = (
            abs(surrogate_mean / mean - 1.0) <= 1e-12
            and abs(surrogate_var / (m2 - mean * mean) - 1.0) <= 0.05
        )
        ok = short_ok and mass_ok and mean_ok and width_ok and surrogate_ok
        report(
            "7 loss-pdf-regimes",
            ok,
            f"p_loss/branch={p_loss / want:.4f} (1 +- .05), conditional mass dev "
            f"{abs(mass - 1):.1e} (<=1e-6), long-time mean/target={mean / (tau_l * p1):.4f} "
            f"(1 +- .02), rel width {width:.3f} (<0.1)",
        )
        assert ok


# ---------------------------------------------------------------------------
# 8. Correlator regimes in the continuum
# ---------------------------------------------------------------------------


class TestCriterion8CorrelatorRegimes:
    def test_window_power_law_and_separated_decay(self):
        params = F.FpParams(a=0.0, sigma2=1.0)
        t_w = 2e-6
        seps = np.geomspace(2e-5, 2e-3, 7)
        corr = np.array(
            [F.loss_correlator(params, CTRL, t_w, t_w, float(T)) for T in seps]
        )
        slope = float(np.polyfit(np.log(seps), np.log(corr), 1)[0])
        slope_ok = abs(slope + 0.5) <= 0.05

        drift = F.FpParams(a=1.0, sigma2=1.0)
        t1 = 0.05
        near = F.loss_correlator(drift, CTRL, t1, t1, t1)
        far = F.loss_correlator(drift, CTRL, t1, t1, 20.0 / drift.sigma2)
        decay_ok = abs(far) < 0.01 * near
        ok = slope_ok and decay_ok
        report(
            "8 correlator-regimes",
            ok,
            f"window slope {slope:.3f} (-0.5 +- .05); far/near at |v|=1: "
            f"{abs(far) / near:.2e} (<0.01)",
        )
        assert ok


# ---------------------------------------------------------------------------
# 9. End-to-end bridge from packets to the continuum
# ---------------------------------------------------------------------------


class TestCriterion9EndToEndBridge:
    def test_packet_run_matches_fitted_continuum(self):
        traffic = S.TrafficModel(
            interarrival=S.Distribution(kind="exponential", mean=0.01),
            packet_size=S.Distribution(kind="deterministic", mean=0.01),
            r_out=1.0,
        )
        log = S.run(traffic, duration=200_000.0, seed=7)
        assert abs(log.conservation_residual()) < 1e-9 * log.arrived
        est = S.estimate_drift_diffusion(log, dt=0.2)
        params = F.FpParams(a=est.a, sigma2=est.sigma2)

        sample = S.window_losses(log, t_window=20.0)
        series = ST.WindowedSeries.from_loss_sample(sample)
        summary = ST.mean_and_variance(series)
        t_w = sample.window_length

        m1 = F.loss_moment(params, CTRL, 1, t_w)
        m2 = F.loss_moment(params, CTRL, 2, t_w)
        var_pred = m2 - m1 * m1
        p_loss = F.loss_probability(params, CTRL, t_w)

        pull_mean = (summary.mean - m1) / summary.mean_se
        pull_var = (summary.variance - var_pred) / summary.variance_se
        hit = float((sample.values > 0).mean())
        hit_se = math.sqrt(hit * (1 - hit) / sample.n_windows)
        pull_hit = (hit - p_loss) / hit_se

        gap = 40.0
        corr_pred = F.loss_correlator(params, CTRL, t_w, t_w, gap)
        lag = int(round((t_w + gap) / t_w))
        est_corr = ST.correlation_estimate(series, [lag])[0]
        denom = float(np.mean((series.values - series.values.mean()) ** 2))
        cov_emp = est_corr.value * denom
        cov_se = est_corr.se * denom
        pull_corr = (cov_emp - corr_pred) / cov_se

        pulls = {
            "mean": pull_mean,
            "variance": pull_var,
            "zero-loss": pull_hit,
            "correlation": pull_corr,
        }
        ok = all(abs(p) <= 3.0 for p in pulls.values())
        report(
            "9 end-to-end-bridge",
            ok,
            f"fitted a={est.a:+.2e}, sigma2={est.sigma2:.5f}; pulls "
            + ", ".join(f"{k} {v:+.2f}" for k, v in pulls.items())
            + " (each within 3)",
        )
        assert ok


# ---------------------------------------------------------------------------
# 10. Cross-model consistency of the saturated variance-to-mean ratio
# ---------------------------------------------------------------------------


class TestCriterion10CrossModel:
    def test_saturated_ratio_matches_after_unit_conversion(self):
        L = 50
        walk = D.DiscreteQueueParams(p=0.5, L=L)
        n_sat = int(50 * D.crossover_window(walk))
        chi_walk = D.compressibility(walk, n_sat)

        params = F.FpParams(a=0.0, sigma2=2.0)
        t = params.time_from_tau(50.0)
        ratio = F.loss_variance_longtime(params, t) / F.loss_moment(params, CTRL, 1, t)
        converted = ratio * L  # one buffer is L service units
        ok = abs(chi_walk / converted - 1.0) <= 0.05
        report(
            "10 cross-model",
            ok,
            f"walk chi_inf={chi_walk:.3f}; continuum ratio*L={converted:.3f}; "
            f"rel dev {100 * (chi_walk / converted - 1):+.2f}% (<=5%)",
        )
        assert ok
