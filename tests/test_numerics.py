import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from queueloss import numerics
from queueloss.discrete import DiscreteQueueParams, critical_coefficient, stationary_distribution
from queueloss.fokker_planck import FpParams, stationary_density
from reference_numerics import (
    QuadratureError,
    integrate,
    quadrature_critical_coefficient,
    tridiag_eigen,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestIntegrate:
    def test_gaussian_tail(self):
        res = integrate(lambda x: math.exp(-x * x), 0.0, np.inf)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)
        assert res.error >= 0.0
        assert res.neval > 0

    @pytest.mark.parametrize("v", [-3.0, 0.5, 4.0])
    def test_stationary_density_normalizes(self, v):
        params = FpParams(a=v, sigma2=1.0)
        res = integrate(lambda x: float(stationary_density(params, x)), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_integrand_reported(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)


class TestLaplaceInvert:
    def test_ramp_pair(self):
        value, err = numerics.laplace_invert(lambda s: 1.0 / s**2, 2.5)
        assert value == pytest.approx(2.5, rel=1e-7)
        assert err < 1e-6

    def test_exponential_pair(self):
        value, _ = numerics.laplace_invert(lambda s: 1.0 / (s + 1.0), 0.7)
        assert value == pytest.approx(math.exp(-0.7), rel=1e-7)

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, 5.0])
    def test_wall_return_transform_matches_series(self, tau):
        # Inverting the closed-form boundary transform must reproduce the
        # eigenseries density at the full wall.
        from queueloss.fokker_planck import (
            SeriesControl,
            boundary_return_transform,
            transition_density,
        )

        params = FpParams(a=0.0, sigma2=2.0)
        value, _ = numerics.laplace_invert(
            lambda s: boundary_return_transform(params, s), tau
        )
        series = float(
            transition_density(params, SeriesControl(), 1.0, params.time_from_tau(tau), 1.0)
        )
        assert value == pytest.approx(series, abs=1e-6)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            numerics.laplace_invert(lambda s: 1.0 / s, 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite"):
            numerics.laplace_invert(lambda s: 1.0 / s, tau)

    def test_transform_called_once_on_both_contours(self):
        seen = []

        def F(s):
            seen.append(len(s))
            return 1.0 / (s + 1.0)

        numerics.laplace_invert(F, 0.7)
        numerics.laplace_invert(F, 0.7)
        fine = numerics.LAPLACE_NODES
        assert seen == [fine + fine - fine // 6] * 2

    def test_cached_contour_is_read_only(self):
        *arrays, contours = numerics._talbot_contours(1.3)
        arrays += [a for c in contours for a in c if isinstance(a, np.ndarray)]
        # nodes, the factors e^{s tau} and 1 + i sigma with the heads folded in
        assert len(arrays) == 3
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize(
        "F",
        [lambda s: np.exp(1000.0 * s), lambda s: np.full(s.shape, 1e307 + 0j)],
        ids=["in-transform", "in-terms"],
    )
    def test_overflow_raises_inversion_error_not_warning(self, F):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(numerics.InversionError, match="non-finite"):
                numerics.laplace_invert(F, 1.0)

    def test_terms_summing_past_float_range_raise_inversion_error(self):
        # Every term is finite (about 1e307 where |e^{s tau} (1 + i sigma)| > 1),
        # but their sum leaves the float range, so math.fsum itself raises.
        _, factor, one_i_sigma, _ = numerics._talbot_contours(1.0)
        weight = factor * one_i_sigma
        big = np.abs(weight) > 1.0
        values = np.ones(factor.size, dtype=complex)
        values[big] = 1e307 / weight[big]
        with np.errstate(over="raise"):
            terms = (factor * values * one_i_sigma).real
        assert np.isfinite(terms).all() and (terms[big] > 1e306).sum() > 2
        with pytest.raises(numerics.InversionError, match="non-finite"):
            numerics.laplace_invert(lambda s: values, 1.0)

    def test_contour_cache_is_bounded(self):
        numerics._talbot_contours.cache_clear()
        maxsize = numerics._talbot_contours.cache_parameters()["maxsize"]
        for i in range(maxsize + 10):
            numerics.laplace_invert(lambda s: 1.0 / (s + 1.0), 0.1 + 0.01 * i)
        info = numerics._talbot_contours.cache_info()
        assert info.misses == maxsize + 10
        assert info.currsize <= maxsize


class TestTridiagEigen:
    def test_two_by_two_closed_form(self):
        # [[2, 1], [1, 2]] has eigenpairs 3 and 1 with (1, 1)/sqrt2, (1, -1)/sqrt2.
        vals, vecs = tridiag_eigen(np.array([2.0, 2.0]), np.array([1.0]))
        assert vals == pytest.approx([3.0, 1.0])
        assert abs(vecs[:, 0] @ np.array([1.0, 1.0]) / math.sqrt(2)) == pytest.approx(1.0)

    def test_kernel_top_eigenpair(self):
        params = DiscreteQueueParams(p=0.5, L=10)
        diag = np.zeros(11)
        diag[0] = 0.5
        diag[10] = 0.5
        off = np.full(10, 0.5)
        vals, vecs = tridiag_eigen(diag, off)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        pi = stationary_distribution(params)
        top = vecs[:, 0] * np.sign(vecs[0, 0])
        assert np.abs(top - np.sqrt(pi)).max() < 1e-10

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(3)
        diag = rng.normal(size=9)
        off = rng.normal(size=8)
        vals, vecs = tridiag_eigen(diag, off)
        full = np.diag(diag)
        full += np.diag(off, 1) + np.diag(off, -1)
        rebuilt = (vecs * vals) @ vecs.T
        assert np.abs(rebuilt - full).max() < 1e-10

    def test_eigenvalues_sorted_descending(self):
        vals, _ = tridiag_eigen(np.array([0.0, 1.0, -1.0]), np.array([0.3, 0.3]))
        assert np.all(np.diff(vals) <= 0)


class TestHelpers:
    @pytest.mark.parametrize("kappa", [1e-6, 0.5, 30.0, 800.0])
    def test_cosh_ratio_stable(self, kappa):
        a = 0.37
        got = numerics.cosh_ratio(kappa, a)
        if kappa < 700:
            want = math.cosh(kappa * a) / math.sinh(kappa)
            assert got == pytest.approx(want, rel=1e-10)
        else:
            assert math.isfinite(got)

    def test_sinh_ratio_matches_naive(self):
        got = numerics.sinh_ratio(2.0, -0.4)
        assert got == pytest.approx(math.sinh(-0.8) / math.sinh(2.0), rel=1e-12)

    def test_coth_branches(self):
        assert numerics.coth(1e-6) == pytest.approx(1.0 / 1e-6, rel=1e-9)
        assert numerics.coth(5.0) == pytest.approx(1.0 / math.tanh(5.0), rel=1e-12)
        assert numerics.coth(-5.0) == pytest.approx(-numerics.coth(5.0))
        z = numerics.coth(complex(900.0, 2.0))
        assert abs(z - 1.0) < 1e-10

    def test_hyperbolic_helpers_on_arrays(self):
        # Small, large and complex nodes in one array must give what the
        # scalar calls give (to round-off); coth also mirrors a negative
        # real part.
        kappa = np.array([1e-6, 30.0, 800.0, 1e-6 + 2e-6j, 2.5 - 1.5j, 40.0 + 7.0j])
        a = 0.37
        for f in (numerics.cosh_ratio, numerics.sinh_ratio):
            got = f(kappa, a)
            assert got.shape == kappa.shape
            for g, k in zip(got, kappa):
                assert g == pytest.approx(f(k, a), rel=1e-15)
        z = np.concatenate((kappa, -kappa, [-3.0 + 0.5j]))
        got = numerics.coth(z)
        for g, zi in zip(got, z):
            assert g == pytest.approx(numerics.coth(zi), rel=1e-15)
        want = 1.0 / math.tanh(5.0)
        assert numerics.coth(np.array([-5.0, 5.0])) == pytest.approx([-want, want], rel=1e-12)


class TestErrorFunctions:
    def test_erfc_against_mpmath(self):
        xs = np.linspace(0.0, 26.0, 2601)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.erfc(mpmath.mpf(x))) for x in xs])
        got = numerics.erfc(xs)
        assert got.shape == xs.shape
        assert np.abs(got / want - 1.0).max() <= 1e-15
        for x, w in zip(xs[::100], want[::100]):
            g = numerics.erfc(float(x))
            assert np.ndim(g) == 0
            assert abs(g / w - 1.0) <= 1e-15

    def test_erfc_against_scipy(self):
        # SciPy's erfc rounds x^2 inside exp(-x^2), which leaves it up to
        # 5.7e-14 off near x = 24; math.erfc is within 3.3e-16 there.
        xs = np.linspace(0.0, 26.0, 26001)
        assert np.abs(numerics.erfc(xs) / special.erfc(xs) - 1.0).max() <= 1e-13
        assert numerics.erfc(-2.0) == pytest.approx(special.erfc(-2.0), rel=1e-15)

    def test_erfc_keeps_subnormal_tail(self):
        # SciPy flushes erfc to 0 past x = 26.6.
        with mpmath.workdps(40):
            want = float(mpmath.erfc(27))
        assert 0.0 < numerics.erfc(27.0) == pytest.approx(want, rel=1e-3)

    def test_erfcx_against_scipy(self):
        xs = np.concatenate((np.logspace(-3.0, 6.0, 9001), [25.0, np.nextafter(25.0, 0.0)]))
        got = numerics.erfcx(xs)
        assert got.shape == xs.shape
        assert np.abs(got / special.erfcx(xs) - 1.0).max() <= 1e-13
        for x in (1e-3, 1.0, 24.9, 25.0, 400.0, 1e6):
            g = numerics.erfcx(x)
            assert np.ndim(g) == 0
            assert g == pytest.approx(special.erfcx(x), rel=1e-13)
        assert numerics.erfcx(np.inf) == 0.0

    @given(x=st.one_of(st.floats(7.0, 25.0), st.floats(25.0, 1e6)))
    @example(x=7.0)
    @example(x=25.0)
    @example(x=1e6)
    @settings(max_examples=200, deadline=None)
    def test_erfcx_tail_against_mpmath(self, x):
        # From x = 7 on, (1 - g) / (x sqrt(pi)) with the tail series g.
        with mpmath.workdps(40):
            want = mpmath.erfc(x) * mpmath.exp(mpmath.mpf(x) ** 2)
            assert abs(numerics.erfcx(x) / want - 1) <= 5e-16
            assert abs(numerics.erfcx(np.array([x]))[0] / want - 1) <= 5e-16

    @given(x=st.floats(0.0, 1e3))
    @example(x=0.0)
    @example(x=float(np.nextafter(7.0, 0.0)))
    @example(x=7.0)
    @settings(max_examples=200, deadline=None)
    def test_erfcx_gap_against_mpmath(self, x):
        # Below x = 7 the subtraction magnifies erfcx's relative error,
        # about x^2 rounding units, by 2x^2: up to 5e-13 near x = 7.
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            want = 1 - mpmath.sqrt(mpmath.pi) * xm * mpmath.erfc(xm) * mpmath.exp(xm * xm)
            assert abs(numerics.erfcx_gap(x) / want - 1) <= 1e-12


class TestCriticalCoefficientOracle:
    def test_closed_form_matches_quadrature(self):
        want = quadrature_critical_coefficient()
        assert critical_coefficient() == pytest.approx(want, rel=1e-12)


def test_package_import_loads_no_scipy():
    # Importing the package and its CLI must need NumPy alone.
    code = (
        "import sys, queueloss, queueloss.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # The process pool's modules cost ~15 ms to import; only a grid run
    # with --jobs above 1 makes a pool.
    code = "import sys, queueloss.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_numpy_ma():
    # numpy.ma costs 12-14 ms to import; nothing the CLI runs at import
    # time (its presets included) may pull it in.
    code = "import sys, queueloss.cli; print('numpy.ma' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_check_suite_runs_without_scipy():
    # The invariant suite must pass with SciPy unimportable.
    code = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "from queueloss import cli\n"
        "sys.exit(cli.main(['check']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
