"""Drift-diffusion queue on the unit interval with zero-flux walls.

The buffer occupancy x in [0, 1] obeys dx = a dt + sigma dW between the
walls; the probability current a w - (sigma^2/2) w' vanishes at both ends,
so mass is conserved and overflow losses are accounted separately through
the occupation density at the full wall (local-time accrual at rate
sigma^2/2). Everything is expressed in the reduced variables v = a/sigma^2
and tau = sigma^2 t / 2.

The transition density is the eigenseries

    w(x, tau; y) = p(x) + e^{v(x-y)} sum_{n>=1} 2 e^{-(pi^2 n^2 + v^2) tau}
                   psi_n(x) psi_n(y) / (pi^2 n^2 + v^2),
    psi_n(u) = pi n cos(pi n u) + v sin(pi n u),

with p the stationary density 2v e^{2vx}/(e^{2v} - 1). The series includes
the stationary term and modes at every integer n: that reading (and no
other) reproduces the stationary long-time limit, unit normalization, the
delta initial condition, and the closed-form Laplace transform implemented
in :func:`laplace_propagator`, which the test suite checks against it to
1e-6.

Loss moments and the lost-volume PDF are given in the Laplace domain
conjugate to tau and are inverted numerically; short- and long-time closed
forms are exposed as separate asymptotic evaluators.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import InversionError

__all__ = [
    "FpParams",
    "SeriesControl",
    "SeriesTruncationError",
    "InversionError",
    "stationary_density",
    "transition_density",
    "probability_current",
    "laplace_propagator",
    "boundary_return_transform",
    "halfline_density",
    "loss_rate_coefficient",
    "loss_moment",
    "loss_moment_asymptotic",
    "loss_probability",
    "loss_probability_asymptotic",
    "loss_pdf",
    "loss_pdf_conditional",
    "loss_pdf_asymptotic",
    "loss_pdf_longtime_summary",
    "loss_variance_longtime",
    "loss_correlator",
    "loss_correlator_asymptotic",
]


class SeriesTruncationError(RuntimeError):
    """The eigenseries cannot meet its tolerance: it needs more modes than the
    budget allows, or (strong drift, short times) its terms cancel so far that
    round-off exceeds 1e-9 of the density's scale."""


@dataclass(frozen=True)
class FpParams:
    """Drift and diffusion of the buffer occupancy per unit time."""

    a: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0:
            raise ValueError(f"diffusion must be positive, got {self.sigma2}")
        if not math.isfinite(self.sigma2):
            raise ValueError(f"diffusion must be finite, got {self.sigma2}")
        if not math.isfinite(self.v):
            raise ValueError(f"drift must be finite, got a={self.a} (v = a/sigma2 = {self.v})")

    @property
    def v(self) -> float:
        """Reduced drift a / sigma^2."""
        return self.a / self.sigma2

    def tau(self, t: float) -> float:
        """Reduced time sigma^2 t / 2."""
        return 0.5 * self.sigma2 * t

    def time_from_tau(self, tau: float) -> float:
        return 2.0 * tau / self.sigma2

    def flipped(self) -> "FpParams":
        """Parameters of the idleness-side problem (x -> 1-x, v -> -v)."""
        return FpParams(a=-self.a, sigma2=self.sigma2)


@dataclass(frozen=True)
class SeriesControl:
    """Mode-truncation knobs shared by the series evaluators."""

    k_max: int | None = None
    mode_cap: int = 100_000

    def __post_init__(self) -> None:
        if self.k_max is not None and self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    def modes_for(self, tau: float) -> int:
        """Mode count ceil(6/sqrt(tau)) + 8, capped; raises below the floor."""
        if self.k_max is not None:
            return self.k_max
        if tau <= 0.0:
            raise ValueError("reduced time must be positive")
        need = math.ceil(6.0 / math.sqrt(tau)) + 8
        if need > self.mode_cap:
            raise SeriesTruncationError(
                f"tau={tau:.3g} needs {need} modes, above the cap {self.mode_cap}"
            )
        return need


def stationary_density(params: FpParams, ell) -> np.ndarray | float:
    """Stationary occupancy density 2v e^{2vl} / (e^{2v} - 1); 1 when v = 0."""
    x = np.asarray(ell, dtype=float)
    v = params.v
    u = 2.0 * v
    if abs(u) < 1e-4:
        out = 1.0 + u * (x - 0.5) + u * u * (x * x / 2.0 - x / 2.0 + 1.0 / 12.0)
    elif v > 0.0:
        out = u * np.exp(u * (x - 1.0)) / (-math.expm1(-u))
    else:
        out = u * np.exp(u * x) / math.expm1(u)
    return out if out.ndim else float(out)


def _wall_modes(params: FpParams, ctrl: SeriesControl, tau: float):
    """Wall-mode table at reduced time tau: n = 1..modes_for(tau) and the
    decay rates lam_n = pi^2 n^2 + v^2."""
    n = np.arange(1, ctrl.modes_for(tau) + 1, dtype=float)
    return n, np.pi**2 * n * n + params.v * params.v


def _series(params: FpParams, ctrl: SeriesControl, ell_to, t: float, ell_from: float,
            deriv: bool = False):
    """The eigenseries from ``ell_from`` to the targets ``ell_to`` after time t.

    Returns (w(x), tail bound, p(x), s(x), e^{v(x-y)}) with the mode sum
    s = sum_n c_n psi_n(x), c_n = 2 e^{-lam_n tau} psi_n(y) / lam_n, and
    w = p + e^{v(x-y)} s; ``deriv`` appends sum_n c_n psi_n'(x). Where
    e^{v(x-y)} would overflow, part of its exponent moves into c_n; only
    their product is meaningful.

    SeriesTruncationError where w overflows or the terms cancel below
    round-off: where
    4 * 2.2e-16 e^{v(x-y)} sqrt(sum_n [c_n psi_n(x) (lam_n tau + 2 pi n + 6)]^2)
    exceeds 1e-9 max(1, p(x), |w(x)|). Each term carries the rounding of its
    decay exponent lam_n tau and of its phases pi n x and pi n y; the errors
    of many terms add in quadrature, and the factor 4 covers a few that align.
    """
    x = np.atleast_1d(np.asarray(ell_to, dtype=float))
    y = float(ell_from)
    if not (np.all((0.0 <= x) & (x <= 1.0)) and 0.0 <= y <= 1.0):
        raise ValueError("positions must lie in [0, 1]")
    tau = _reduced_time(params, t)
    n, lam = _wall_modes(params, ctrl, tau)
    v = params.v
    # psi_n(u) = pi n cos(pi n u) + v sin(pi n u); column 0 is the start y.
    arg = np.pi * np.outer(n, np.append(y, x))
    pin = (np.pi * n)[:, None]
    psi = pin * np.cos(arg) + v * np.sin(arg)
    # Contiguous copies: matmul sums a strided operand in another order.
    psi_x = np.ascontiguousarray(psi[:, 1:])
    log_env = v * (x - y)
    shift = max(log_env.max() - 700.0, 0.0)  # nonzero only past |v| = 700
    p = stationary_density(params, x)
    with np.errstate(over="ignore", invalid="ignore"):
        c = 2.0 / lam * np.exp(shift - lam * tau) * psi[:, 0]
        envelope = np.exp(log_env - shift)
        series = c @ psi_x
        # Squares of c_n / max|c_n|, so they cannot underflow.
        c_max = np.abs(c).max() or 1.0
        weight = (c / c_max * (lam * tau + 2.0 * np.pi * n + 6.0)) ** 2
        roundoff = 4.0 * 2.2e-16 * envelope * c_max * np.sqrt(weight @ (psi_x * psi_x))
        value = p + envelope * series
        scale = np.maximum(np.maximum(1.0, p), np.abs(value))
    ok = np.isfinite(value) & (roundoff <= 1e-9 * scale)
    if not np.all(ok):
        worst = np.argmin(ok)
        raise SeriesTruncationError(
            f"the eigenseries cancels at v={v:.3g}, tau={tau:.3g}, x={x[worst]:.3g}, "
            f"y={y:.3g}: round-off {roundoff[worst]:.3g} against a density scale "
            f"{scale[worst]:.3g}"
        )
    # Geometric tail bound: remaining modes are below
    # 2 e^{|v| - pi^2 k^2 tau} summed over k > kmax. The exponents are
    # combined first so a large drift cannot overflow when the decay wins.
    k1 = len(n) + 1
    expo = abs(v) - np.pi**2 * k1 * k1 * tau
    tail = 2.0 * math.exp(expo) if expo < 700.0 else math.inf
    tail *= 1.0 / max(np.pi**2 * 2.0 * k1 * tau, 1e-300)
    out = (value, tail, p, series, envelope)
    if deriv:
        dpsi_x = np.ascontiguousarray((-pin * pin * np.sin(arg) + v * pin * np.cos(arg))[:, 1:])
        out += (c @ dpsi_x,)
    return out


def transition_density(
    params: FpParams,
    ctrl: SeriesControl,
    ell_to,
    t: float,
    ell_from: float,
    return_tail_bound: bool = False,
):
    """Transition density w(ell_to, t; ell_from) of the reflected diffusion.

    Accepts a scalar or vector of target positions. The truncation tail of
    the eigenseries is bounded geometrically; pass ``return_tail_bound`` to
    receive it alongside the value.
    """
    out, tail = _series(params, ctrl, ell_to, t, ell_from)[:2]
    value = out if np.ndim(ell_to) else float(out[0])
    if return_tail_bound:
        return value, tail
    return value


def probability_current(
    params: FpParams,
    ctrl: SeriesControl,
    ell_to,
    t: float,
    ell_from: float,
):
    """Probability current a w - (sigma^2/2) dw/dx, term-by-term in the series.

    Vanishes identically at both walls; the zero there is an exact
    mode-by-mode cancellation, so the numerical residual is at round-off.
    """
    w, _, w_stat, w_series, envelope, dseries = _series(params, ctrl, ell_to, t, ell_from, True)
    v = params.v
    dw_series = envelope * (dseries + v * w_series)
    dw_stat = 2.0 * v * w_stat
    j = params.a * w - 0.5 * params.sigma2 * (dw_stat + dw_series)
    return j if np.ndim(ell_to) else float(j[0])


def _shaped_like(eps, out):
    """A transform evaluated at ``eps``: the complex array for array input,
    a float for a real scalar and a complex number for a complex scalar."""
    if np.ndim(eps):
        return out
    return complex(out) if np.iscomplexobj(eps) else complex(out).real


def laplace_propagator(params: FpParams, ell_to: float, eps, ell_from: float):
    """Closed-form Laplace transform (over tau) of the transition density.

    With kappa = sqrt(eps + v^2),

        W = e^{v(x-y)} / (2 kappa sinh kappa) *
            { (2v^2/eps) cosh[kappa(x+y-1)] + (2 kappa v/eps) sinh[kappa(x+y-1)]
              + cosh[kappa(|x-y|-1)] + cosh[kappa(x+y-1)] }.

    Hyperbolics are evaluated in exponent-shifted form so large kappa cannot
    overflow. Accepts real eps > 0 or complex eps off the negative real
    axis (inversion contours).
    """
    x, y = float(ell_to), float(ell_from)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("positions must lie in [0, 1]")
    v = params.v
    eps_arr = np.asarray(eps, dtype=complex)
    s_arg = x + y - 1.0
    d_arg = abs(x - y) - 1.0
    kappa = np.sqrt(eps_arr + v * v)
    bracket = (2.0 * v * v / eps_arr) * numerics.cosh_ratio(kappa, s_arg)
    bracket += (2.0 * kappa * v / eps_arr) * numerics.sinh_ratio(kappa, s_arg)
    bracket += numerics.cosh_ratio(kappa, d_arg)
    bracket += numerics.cosh_ratio(kappa, s_arg)
    return _shaped_like(eps, np.exp(v * (x - y)) * bracket / (2.0 * kappa))


def boundary_return_transform(params: FpParams, eps):
    """Laplace transform of the density at the full wall started there:
    W(1, eps; 1) = [kappa coth(kappa) + v] / eps, kappa = sqrt(eps + v^2).
    """
    v = params.v
    eps_arr = np.asarray(eps, dtype=complex)
    kappa = np.sqrt(eps_arr + v * v)
    return _shaped_like(eps, (kappa * numerics.coth(kappa) + v) / eps_arr)


def halfline_density(params: FpParams, ell_to, t: float, ell_from: float):
    """Transition density with the empty wall removed (domain x <= 1).

    Image solution for the reflected drifting diffusion:

        w0 = g(x - y - at) + e^{...} image term + drift correction
           = N(x; y + at, sigma^2 t) + mirror Gaussian
             + v e^{-2v(1-x)} erfc[(2 - x - y - at)/sqrt(2 sigma^2 t)]

    written with the exponent-shifted erfcx where the prefactor could
    overflow. Mass on (-inf, 1] is exactly conserved (the wall at 1 is
    zero-flux; lost volume is accounted by local time, not leakage).
    """
    _reduced_time(params, t)  # checks t; the image solution works in t itself
    x = np.atleast_1d(np.asarray(ell_to, dtype=float))
    y = float(ell_from)
    if not (np.all(x <= 1.0) and y <= 1.0):
        raise ValueError("positions must be numbers at most the full level 1")
    a, s2 = params.a, params.sigma2
    v = params.v
    var = s2 * t
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    drift_gauss = np.exp(a * (x - y) / s2 - a * a * t / (2.0 * s2))
    direct = np.exp(-((x - y) ** 2) / (2.0 * var))
    mirror = np.exp(-((2.0 - x - y) ** 2) / (2.0 * var))
    arg = (2.0 - x - y - a * t) / math.sqrt(2.0 * var)
    expo = -2.0 * v * (1.0 - x)
    # v * e^{expo} * erfc(arg), via erfcx when the plain product would
    # overflow or lose all precision.
    small = arg < 25.0
    corr = np.empty_like(x)
    corr[small] = v * np.exp(expo[small]) * numerics.erfc(arg[small])
    big = ~small
    if np.any(big):
        corr[big] = v * numerics.erfcx(arg[big]) * np.exp(expo[big] - arg[big] ** 2)
    out = norm * drift_gauss * (direct + mirror) + corr
    return out if np.ndim(ell_to) else float(out[0])


def loss_rate_coefficient(params: FpParams) -> float:
    """Local-time coefficient sigma^2/2 converting wall occupancy to loss."""
    return 0.5 * params.sigma2


def _reduced_time(params: FpParams, t: float) -> float:
    """tau of a window of length t; ValueError unless t > 0 and tau is finite."""
    tau = float(params.tau(t))
    if not (t > 0.0 and math.isfinite(tau)):
        raise ValueError(f"t must be positive and finite, got t={t} (tau={tau})")
    return tau


@functools.lru_cache(maxsize=128)
def _wall_density(params: FpParams) -> float:
    """p(1), the stationary density at the full wall."""
    return float(stationary_density(params, 1.0))


@functools.lru_cache(maxsize=128)
def _wall_on_contours(params: FpParams, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """W = W(1, eps; 1) and the lost-volume density's denominator eps^2 W^2
    on the nodes of both inversion contours at ``tau``, read-only and in
    the order :func:`numerics.laplace_invert` passes them."""
    eps = numerics._talbot_contours(tau)[0]
    w = boundary_return_transform(params, eps)
    return numerics._read_only(w), numerics._read_only(eps * eps * w * w)


def _invert_wall(params: FpParams, tau: float, what: str, g) -> float:
    """Invert g(eps, W, eps^2 W^2) at reduced time tau, W = W(1, eps; 1).

    W and eps^2 W^2 are evaluated once per (params, tau), on the nodes of
    both contours together, and kept in a bounded cache: every moment, the
    loss probability and every loss_pdf point at one (params, t) share them.
    """
    w, d = _wall_on_contours(params, tau)
    # laplace_invert calls the transform once, on exactly the nodes w and d
    # were evaluated on.
    value, err = numerics.laplace_invert(lambda eps: g(eps, w, d), tau)
    # The guard catches genuine non-convergence (wild contour-to-contour
    # drift, non-finite nodes); accuracy at the package's working scales is
    # pinned separately by the validation suite against known inverses and
    # the nested-integral oracle.
    budget = 1e-3 * abs(value) + 1e-4
    if err > budget:
        raise InversionError(
            f"{what} inversion at tau={tau:.3g} did not settle "
            f"(estimate {err:.3g} with {numerics.LAPLACE_NODES} nodes)"
        )
    return value


def loss_moment(params: FpParams, ctrl: SeriesControl, k: int, t: float) -> float:
    """k-th moment of lost volume in [0, t], stationary start.

    The first moment is exact at all times: p(1) tau. Higher moments invert
    M^{(k)}(eps) = k! p(1) W(1, eps; 1)^{k-1} / eps^2 numerically over tau.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    tau = _reduced_time(params, t)
    p1 = _wall_density(params)
    if k == 1:
        return p1 * tau
    kfac = math.factorial(k)
    return _invert_wall(params, tau, f"loss moment k={k}",
                        lambda eps, w, _: kfac * p1 * w ** (k - 1) / eps**2)


def loss_moment_asymptotic(params: FpParams, k: int, t: float, regime: str) -> float:
    """Closed-form short/long-time branches of the k-th loss moment.

    short: k! p(1) tau^{(k+1)/2} / Gamma((k+3)/2); long: p(1)^k tau^k.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    tau = _reduced_time(params, t)
    p1 = _wall_density(params)
    if regime == "short":
        return math.factorial(k) * p1 * tau ** ((k + 1) / 2.0) / math.gamma((k + 3) / 2.0)
    if regime == "long":
        return p1**k * tau**k
    raise ValueError(f"unknown regime {regime!r}")


def loss_probability(params: FpParams, ctrl: SeriesControl, t: float) -> float:
    """Probability that any traffic is lost during [0, t], inverted from
    p(1) / (eps^2 W(1, eps; 1)); clipped to [0, 1] at round-off level."""
    tau = _reduced_time(params, t)
    p1 = _wall_density(params)
    value = _invert_wall(params, tau, "loss probability", lambda eps, w, _: p1 / (eps * eps * w))
    return min(max(value, 0.0), 1.0)


def loss_probability_asymptotic(params: FpParams, t: float, regime: str) -> float:
    """Short-time branch p(1) sqrt(4 tau / pi); long-time branch 1."""
    tau = _reduced_time(params, t)
    if regime == "short":
        return _wall_density(params) * math.sqrt(4.0 * tau / math.pi)
    if regime == "long":
        return 1.0
    raise ValueError(f"unknown regime {regime!r}")


#: Above this reduced time the lost-volume density concentrates so sharply
#: that the exp(-x/W) factor cancels the contour damping of the inversion
#: (the transform behaves like a time shift by x/p(1)); the direct inversion
#: is validated up to here and the narrow-Gaussian surrogate takes over.
PDF_INVERSION_TAU_MAX = 20.0


def loss_pdf(
    params: FpParams,
    ctrl: SeriesControl,
    x: float,
    t: float,
    return_regime: bool = False,
):
    """Density over positive lost volume x after time t (defective: its
    total mass is the loss probability; the remaining mass is the atom at 0).

    Inverts P(x; eps) = p(1) exp(-x / W) / (eps^2 W^2), W = W(1, eps; 1),
    for reduced times up to :data:`PDF_INVERSION_TAU_MAX`. Beyond that the
    density is a near-delta concentration at tau p(1) and the returned value
    is the narrow-Gaussian surrogate with the long-time variance; pass
    ``return_regime`` to receive the ``"inverted"`` / ``"surrogate"`` flag.
    """
    if not math.isfinite(x):
        raise ValueError(f"lost volume must be finite, got {x}")
    if x < 0.0:
        raise ValueError("lost volume must be >= 0")
    tau = _reduced_time(params, t)
    p1 = _wall_density(params)
    if tau > PDF_INVERSION_TAU_MAX:
        # With p(1) = 0 there is no loss mass, and the surrogate would be 0/0.
        value = float(loss_pdf_asymptotic(params, x, t, "long")) if p1 > 0.0 else 0.0
        return (value, "surrogate") if return_regime else value
    # Deep-tail cutoff: losses beyond tau p(1) by many diffusive spreads have
    # density below double-precision inversion resolution, and the shifted
    # effective time there turns negative, which no contour can represent.
    if x > p1 * (tau + 12.0 * math.sqrt(tau) + 1.0):
        return (0.0, "tail-cutoff") if return_regime else 0.0

    value = _invert_wall(params, tau, "loss pdf",
                         lambda eps, w, d: p1 * np.exp(-x / w) / d)
    return (value, "inverted") if return_regime else value


def loss_pdf_conditional(params: FpParams, ctrl: SeriesControl, x: float, t: float) -> float:
    """Density of the lost volume given that a loss occurred (integrates to 1);
    ValueError where the loss probability is 0 (p(1) underflows at large
    negative drift) and the condition is empty."""
    density = loss_pdf(params, ctrl, x, t)
    prob = loss_probability(params, ctrl, t)
    if prob == 0.0:
        raise ValueError(
            f"conditional loss density undefined at a={params.a}, sigma2={params.sigma2}, "
            f"t={t}: the loss probability is 0"
        )
    return density / prob


def loss_pdf_longtime_summary(params: FpParams, t: float) -> tuple[float, float]:
    """(mean, variance) of the narrow long-time loss distribution.

    The density concentrates at tau p(1); the variance is the long-time
    closed form used by :func:`loss_variance_longtime`. Returned as a summary
    because a literal point mass is not a computable density.
    """
    tau = _reduced_time(params, t)
    return tau * _wall_density(params), _longtime_variance(params, tau)


def loss_pdf_asymptotic(params: FpParams, x, t: float, regime: str):
    """Regime branches of the lost-volume density.

    short: p(1) erfc(x / sqrt(4 tau)); long: narrow-Gaussian surrogate for
    the concentration at tau p(1) (asymptotic stand-in, not an inversion).
    """
    tau = _reduced_time(params, t)
    xs = np.asarray(x, dtype=float)
    if regime == "short":
        p1 = _wall_density(params)
        out = p1 * numerics.erfc(xs / math.sqrt(4.0 * tau))
    elif regime == "long":
        mean, var = loss_pdf_longtime_summary(params, t)
        out = np.exp(-((xs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return out if np.ndim(x) else float(out)


def _longtime_variance(params: FpParams, tau: float) -> float:
    """m1 * [coth|v|/|v| - 1/sinh^2|v|] at reduced time ``tau``, m1 = p(1) tau,
    with the drift-free limit (2/3) m1."""
    m1 = _wall_density(params) * tau
    av = abs(params.v)
    if av < 1e-4:
        # coth(u)/u - 1/sinh^2(u) = 2/3 - 4 u^2 / 45 + O(u^4)
        factor = 2.0 / 3.0 - 4.0 * av * av / 45.0
    elif av > 350.0:
        factor = 1.0 / av
    else:
        factor = numerics.coth(av) / av - 1.0 / math.sinh(av) ** 2
    return m1 * factor


def loss_variance_longtime(params: FpParams, t: float) -> float:
    """Long-time variance of the lost volume,
    m1 * [coth|v|/|v| - 1/sinh^2|v|], with the drift-free limit (2/3) m1;
    warns below tau = 3, where the closed form does not apply."""
    tau = _reduced_time(params, t)
    if tau < 3.0:
        warnings.warn(
            f"long-time variance requested at tau={tau:.3g} < 3; "
            "the closed form assumes tau >> 1",
            stacklevel=2,
        )
    return _longtime_variance(params, tau)


def loss_correlator(
    params: FpParams,
    ctrl: SeriesControl,
    t1: float,
    t2: float,
    T: float,
) -> float:
    """Covariance of lost volumes in two windows of lengths t1 and t2 whose
    closest edges are T apart.

    The window double integral of the wall density reduces to a convolution
    against the overlap length ovl(s) = min(s, t1, t2, t1 + t2 - s),

        corr = r^2 p(1) * integral_0^{t1+t2} ovl(s) [w(1, T+s; 1) - p(1)] ds,

    with r = sigma^2 / 2. Integrated mode by mode against the eigenseries
    w(1, s; 1) - p(1) = sum_n A_n e^{-k_n s} it is the closed form

        corr = r^2 p(1) sum_n A_n e^{-k_n T} (1 - e^{-k_n t1}) (1 - e^{-k_n t2}) / k_n^2,
        A_n = 2 pi^2 n^2 / (pi^2 n^2 + v^2),  k_n = (pi^2 n^2 + v^2) sigma^2 / 2,

    truncated at the mode count of the series density at separation T.
    ValueError unless t1, t2 and T are positive and finite.
    """
    *_, tau_T = (_reduced_time(params, t) for t in (t1, t2, T))
    n, lam = _wall_modes(params, ctrl, tau_T)
    r = loss_rate_coefficient(params)
    k = r * lam
    amp = 2.0 * (np.pi * n) ** 2 / lam
    terms = amp * np.exp(-k * T) * np.expm1(-k * t1) * np.expm1(-k * t2) / (k * k)
    return r * r * _wall_density(params) * float(np.sum(terms))


def loss_correlator_asymptotic(
    params: FpParams,
    t1: float,
    t2: float,
    T: float,
    regime: str,
) -> float:
    """Closed-form branches of the window correlator.

    window (2/sigma^2 >> T >> t1, t2):
        m1(t1) m1(t2) sqrt(2/(pi sigma^2 T)) / p(1);
    separated (T >> 2/sigma^2): 0 (the decay is exponential for v != 0).
    """
    tau1, tau2, _ = (_reduced_time(params, t) for t in (t1, t2, T))
    if regime == "separated":
        return 0.0
    if regime != "window":
        raise ValueError(f"unknown regime {regime!r}")
    p1 = _wall_density(params)
    return p1 * tau1 * (p1 * tau2) * math.sqrt(2.0 / (math.pi * params.sigma2 * T)) / p1
