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

The public evaluators take an :class:`FpParams` and a time t, convert them
once to v and tau, and call private cores that take those two floats, so
every cache is keyed on floats and parameters with equal v share entries;
the loss correlators, too, read only v and the windows' tau. The series
take the fixed mode count ceil(6/sqrt(tau)) + 8, at most 100 000. Every
inversion reads one bounded cache entry per (v, tau), the wall record:
p(1), the read-only W = W(1, eps; 1) on the nodes of both inversion
contours, the contour data, the deep-tail cutoff of the lost-volume PDF,
and two node vectors that hold everything a PDF point needs but x,
C = p(1) factor (1 + i sigma) / (eps^2 W^2) and B = -1/W, with a bound on
x below which no step of C e^{x B} can overflow. W = [kappa coth(kappa) +
v] / eps, kappa = sqrt(eps + v^2), cancels where v < 0 and |eps| << v^2;
on the nodes with v < 0 and |eps| < v^2 its bracket is formed as
2 kappa e^{-2 kappa} / (1 - e^{-2 kappa}) + eps / (kappa - v) instead
(:func:`boundary_return_transform`). The record forms
eps^2 W^2 only to build C, and raises :class:`InversionError` where it
overflows on the contour: below tau of about 6.7e-152, as the contour's
nodes grow as 1/tau, and above v of about 6.7e153, where eps^2 W^2 is
about 4 v^2. Moments and the loss probability invert through
``numerics.laplace_invert``; a ``loss_pdf`` point forms its terms
Re(C e^{x B}) in three array operations in one buffer and sums them with
the same contour sum, entering ``np.errstate`` only past that x, so a warm
point costs one cache lookup and its own arithmetic. An inversion whose
error estimate exceeds 1e-3 of its value raises :class:`InversionError`;
the PDF's budget adds an absolute 1e-4.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
    """Drift and diffusion of the buffer occupancy per unit time; ValueError
    unless sigma2 is positive and finite and v = a/sigma2 has a finite
    square (|v| below about 1.34e154)."""

    a: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0:
            raise ValueError(f"diffusion must be positive, got {self.sigma2}")
        if not math.isfinite(self.sigma2):
            raise ValueError(f"diffusion must be finite, got {self.sigma2}")
        if not math.isfinite(self.v * self.v):
            raise ValueError(f"drift must be finite with a finite square of v = a/sigma2, "
                             f"got a={self.a} (v = {self.v})")

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
    """Accepted by the continuum evaluators and read by none of them: the
    series take the fixed mode count of :func:`_modes_for`, and the
    inversions a fixed contour."""


#: The most modes a series may take; below tau of about 3.6e-9 it needs more.
_MODE_CAP = 100_000


def _modes_for(tau: float) -> int:
    """Mode count ceil(6/sqrt(tau)) + 8 at reduced time tau > 0;
    SeriesTruncationError above :data:`_MODE_CAP`."""
    need = math.ceil(6.0 / math.sqrt(tau)) + 8
    if need > _MODE_CAP:
        raise SeriesTruncationError(f"tau={tau:.3g} needs {need} modes, above the cap {_MODE_CAP}")
    return need


def stationary_density(params: FpParams, ell) -> np.ndarray | float:
    """Stationary occupancy density 2v e^{2vl} / (e^{2v} - 1); 1 when v = 0."""
    return _stationary_density(params.v, ell)


def _stationary_density(v: float, ell) -> np.ndarray | float:
    x = np.asarray(ell, dtype=float)
    u = 2.0 * v
    if abs(u) < 1e-4:
        out = 1.0 + u * (x - 0.5) + u * u * (x * x / 2.0 - x / 2.0 + 1.0 / 12.0)
    elif v > 0.0:
        out = u * np.exp(u * (x - 1.0)) / (-math.expm1(-u))
    else:
        out = u * np.exp(u * x) / math.expm1(u)
    return out if out.ndim else float(out)


def _wall_modes(v: float, tau: float):
    """Wall-mode table at reduced drift v and time tau: n = 1.._modes_for(tau)
    and the decay rates lam_n = pi^2 n^2 + v^2."""
    n = np.arange(1, _modes_for(tau) + 1, dtype=float)
    return n, np.pi**2 * n * n + v * v


def _series(v: float, tau: float, ell_to, ell_from: float, deriv: bool = False):
    """The eigenseries from ``ell_from`` to the targets ``ell_to`` at reduced
    drift v after reduced time tau.

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
    n, lam = _wall_modes(v, tau)
    # psi_n(u) = pi n cos(pi n u) + v sin(pi n u); column 0 is the start y.
    arg = np.pi * np.outer(n, np.append(y, x))
    pin = (np.pi * n)[:, None]
    psi = pin * np.cos(arg) + v * np.sin(arg)
    # Contiguous copies: matmul sums a strided operand in another order.
    psi_x = np.ascontiguousarray(psi[:, 1:])
    log_env = v * (x - y)
    shift = max(log_env.max() - 700.0, 0.0)  # nonzero only past |v| = 700
    p = _stationary_density(v, x)
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
    out, tail = _series(params.v, _reduced_time(params, t), ell_to, ell_from)[:2]
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
    v = params.v
    w, _, w_stat, w_series, envelope, dseries = _series(v, _reduced_time(params, t), ell_to,
                                                        ell_from, True)
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

    Where v < 0 and |eps| << v^2, kappa is close to -v and the bracket
    cancels. On every node with v < 0 and |eps| < v^2 it is formed as
    kappa (coth(kappa) - 1) + (kappa + v)
      = 2 kappa e^{-2 kappa} / (1 - e^{-2 kappa}) + eps / (kappa - v),
    whose two terms do not cancel.
    """
    v = params.v
    eps_arr = np.asarray(eps, dtype=complex)
    kappa = np.sqrt(eps_arr + v * v)
    bracket = np.asarray(kappa * numerics.coth(kappa) + v)
    near = (np.abs(eps_arr) < v * v) & (v < 0.0)
    k = kappa[near]
    bracket[near] = 2.0 * k * np.exp(-2.0 * k) / -np.expm1(-2.0 * k) + eps_arr[near] / (k - v)
    return _shaped_like(eps, bracket / eps_arr)


def halfline_density(params: FpParams, ell_to, t: float, ell_from: float):
    """Transition density with the empty wall removed (domain x <= 1).

    Image solution for the reflected drifting diffusion:

        w0 = g(x - y - at) + e^{...} image term + drift correction
           = N(x; y + at, sigma^2 t) + mirror Gaussian
             + v e^{-2v(1-x)} erfc[(2 - x - y - at)/sqrt(2 sigma^2 t)]

    Each Gaussian is one exponential, its drift factor e^{v(x - y) - a^2 t
    / (2 sigma^2)} inside the exponent: the direct one is e^{-(x - y -
    at)^2 / (2 sigma^2 t)}, the mirror one e^{expo - arg^2} with expo = -2v
    (1 - x) and arg = (2 - x - y - at) / sqrt(2 sigma^2 t), which also
    scales the drift correction written with the exponent-shifted erfcx
    where its prefactor could overflow. Mass on (-inf, 1] is exactly
    conserved (the wall at 1 is zero-flux; lost volume is accounted by
    local time, not leakage).
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
    direct = np.exp(-((x - y - a * t) ** 2) / (2.0 * var))
    arg = (2.0 - x - y - a * t) / math.sqrt(2.0 * var)
    expo = -2.0 * v * (1.0 - x)
    mirror = np.exp(expo - arg * arg)
    # v * e^{expo} * erfc(arg), via erfcx when the plain product would
    # overflow or lose all precision.
    small = arg < 25.0
    corr = np.empty_like(x)
    corr[small] = v * np.exp(expo[small]) * numerics.erfc(arg[small])
    big = ~small
    if np.any(big):
        corr[big] = v * numerics.erfcx(arg[big]) * mirror[big]
    out = norm * (direct + mirror) + corr
    return out if np.ndim(ell_to) else float(out[0])


def loss_rate_coefficient(params: FpParams) -> float:
    """Local-time coefficient sigma^2/2 converting wall occupancy to loss."""
    return 0.5 * params.sigma2


def _reduced_time(params: FpParams, t: float) -> float:
    """tau of a window of length t; ValueError unless t > 0 and tau is
    finite and positive (not underflowed to 0)."""
    tau = float(params.tau(t))
    if not (t > 0.0 and 0.0 < tau < math.inf):
        raise ValueError(f"t must be positive and finite, with a reduced time sigma2 t / 2 "
                         f"that does not underflow; got t={t} (tau={tau})")
    return tau


@functools.lru_cache(maxsize=128)
def _wall_density(v: float) -> float:
    """p(1), the stationary density at the full wall."""
    return _stationary_density(v, 1.0)


#: The smallest normal double, the floor of a wall transform's head-node
#: value (:func:`_invert_wall`).
_NORMAL_MIN = float(np.finfo(float).tiny)


class _WallRecord(NamedTuple):
    """Everything an inversion at one (v, tau) reads; a loss_pdf point reads
    all of it but W."""

    p1: float
    #: W(1, eps; 1) on every node
    w: np.ndarray
    #: a point's terms are Re(c e^{x b}): c = p(1) factor (1 + i sigma) / (eps^2 W^2)
    #: with the contour factors of numerics._talbot_contours(tau), and b = -1/W
    c: np.ndarray
    b: np.ndarray
    contours: tuple
    #: the deep-tail cutoff p(1) (tau + 12 sqrt(tau) + 1)
    x_cut: float
    #: up to here no step of a point's terms can overflow
    x_safe: float


@functools.lru_cache(maxsize=128)
def _wall_record(v: float, tau: float) -> _WallRecord:
    """The :class:`_WallRecord` at reduced drift v and time tau: W = W(1, eps; 1)
    and a loss_pdf point's node vectors c and b on the nodes of both
    inversion contours, read-only and in the order of
    :func:`numerics._talbot_contours`, next to p(1), the contour data, the
    deep-tail cutoff and the overflow-free x. The density's denominator
    eps^2 W^2 is formed here for c alone and not kept.

    One bounded cache entry serves every moment, the loss probability and
    every loss_pdf point at one (v, tau), whichever (a, sigma2, t) they
    came from, so a point costs one lookup. W is evaluated through
    :func:`boundary_return_transform` on ``FpParams(a=v, sigma2=1.0)``,
    whose v is v to the bit. InversionError where eps^2 W^2 is not finite
    on every node: there is no inversion to read from the record.

    Up to x_safe no step of Re(c e^{x b}) can overflow: with
    room = 693 - log max(1, max|c|), so that e^693 < 2^1000, and
    rate = max(max Re b, room 2^-1000 max|b|), x_safe = room / rate keeps
    |x b| below 2^1000, e^{x Re b} and |c| e^{x Re b} below e^693, and
    so the complex product's partial sums finite. x_safe is -inf where c or
    b is not finite or the rate is not positive.
    """
    p1 = _wall_density(v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps, factor, one_i_sigma, contours = numerics._talbot_contours(tau)
        w = boundary_return_transform(FpParams(a=v, sigma2=1.0), eps)
        d = eps * eps * w * w
        c = p1 * factor * one_i_sigma / d
        b = -1.0 / w
    if not np.isfinite(d).all():
        raise InversionError(f"eps^2 W^2 overflows on the inversion contour at v={v:.3g}, "
                             f"tau={tau:.3g}")
    x_safe = -math.inf
    if np.isfinite(c).all() and np.isfinite(b).all():
        room = 693.0 - math.log(max(1.0, float(np.abs(c).max())))
        rate = max(float(b.real.max()), room * 2.0**-1000 * float(np.abs(b).max()))
        if rate > 0.0:
            x_safe = room / rate
    return _WallRecord(p1, *map(numerics._read_only, (w, c, b)), contours,
                       p1 * (tau + 12.0 * math.sqrt(tau) + 1.0), x_safe)


def _settled(value: float, err: float, tau: float, what: str, floor: float = 0.0) -> float:
    """``value`` of an inversion at reduced time tau, unless its error
    estimate ``err`` exceeds 1e-3 |value| + floor: then InversionError."""
    # The guard catches genuine non-convergence (wild contour-to-contour
    # drift, non-finite nodes); accuracy at the package's working scales is
    # pinned separately by the validation suite against known inverses and
    # the nested-integral oracle.
    if err > 1e-3 * abs(value) + floor:
        raise InversionError(
            f"{what} inversion at tau={tau:.3g} did not settle "
            f"(estimate {err:.3g} with {numerics.LAPLACE_NODES} nodes)"
        )
    return value


def _invert_wall(v: float, tau: float, what: str, g) -> float:
    """Invert g(eps, W) at reduced drift v and time tau, W = W(1, eps; 1),
    with W from :func:`_wall_record`.

    InversionError where p(1) > 0 but the transform at either contour's
    head node s = r is below the smallest normal double: the transform has
    underflowed on the contour, and the inversion would return 0 or lose
    digits (k >= 2 moments at small tau, the loss probability at strongly
    negative v and small tau).
    """
    p1, w, _, _, contours, _, _ = _wall_record(v, tau)

    def transform(eps):
        # laplace_invert calls it once, on exactly the nodes w was evaluated on.
        values = g(eps, w)
        if p1 > 0.0 and min(abs(values[head]) for head, _, _ in contours) < _NORMAL_MIN:
            raise InversionError(f"{what} transform underflows on the inversion contour at "
                                 f"v={v:.3g}, tau={tau:.3g}")
        return values

    return _settled(*numerics.laplace_invert(transform, tau), tau, what)


def loss_moment(params: FpParams, ctrl: SeriesControl, k: int, t: float) -> float:
    """k-th moment of lost volume in [0, t], stationary start.

    The first moment is exact at all times: p(1) tau. Higher moments invert
    M^{(k)}(eps) = k! p(1) W(1, eps; 1)^{k-1} / eps^2 numerically over tau,
    and raise InversionError where it underflows on the contour (k = 2
    below tau of about 1e-120) or where the inversion's error estimate
    exceeds 1e-3 of its value.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    tau = _reduced_time(params, t)
    p1 = _wall_density(params.v)
    if k == 1:
        return p1 * tau
    kfac = math.factorial(k)
    return _invert_wall(params.v, tau, f"loss moment k={k}",
                        lambda eps, w: kfac * p1 * w ** (k - 1) / eps**2)


def loss_moment_asymptotic(params: FpParams, k: int, t: float, regime: str) -> float:
    """Closed-form short/long-time branches of the k-th loss moment.

    short: k! p(1) tau^{(k+1)/2} / Gamma((k+3)/2); long: p(1)^k tau^k.
    ValueError where the moment overflows a double.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    tau = _reduced_time(params, t)
    p1 = _wall_density(params.v)
    if regime not in ("short", "long"):
        raise ValueError(f"unknown regime {regime!r}")
    try:
        if regime == "short":
            value = math.factorial(k) * p1 * tau ** ((k + 1) / 2.0) / math.gamma((k + 3) / 2.0)
        else:
            value = p1**k * tau**k
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"{regime}-time loss moment k={k} overflows a double at tau={tau:.3g}")
    return value


@functools.lru_cache(maxsize=128)
def _loss_probability(v: float, tau: float) -> float:
    """The loss probability at reduced drift v and time tau, kept per
    (v, tau) next to W so that a conditional density curve
    (:func:`loss_pdf_conditional`) inverts it once."""
    p1 = _wall_density(v)
    value = _invert_wall(v, tau, "loss probability", lambda eps, w: p1 / (eps * eps * w))
    return min(max(value, 0.0), 1.0)


def loss_probability(params: FpParams, ctrl: SeriesControl, t: float) -> float:
    """Probability that any traffic is lost during [0, t], inverted from
    p(1) / (eps^2 W(1, eps; 1)); clipped to [0, 1] at round-off level.
    InversionError where the inversion's error estimate exceeds 1e-3 of its
    value."""
    return _loss_probability(params.v, _reduced_time(params, t))


def loss_probability_asymptotic(params: FpParams, t: float, regime: str) -> float:
    """Short-time branch p(1) sqrt(4 tau / pi); long-time branch 1."""
    tau = _reduced_time(params, t)
    if regime == "short":
        return _wall_density(params.v) * math.sqrt(4.0 * tau / math.pi)
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
    for reduced times up to :data:`PDF_INVERSION_TAU_MAX`: each contour
    term is Re(C e^{x B}), from the node vectors C = p(1) factor
    (1 + i sigma) / (eps^2 W^2) and B = -1/W of the wall record. Beyond that the
    density is a near-delta concentration at tau p(1) and the returned value
    is the narrow-Gaussian surrogate with the long-time variance; pass
    ``return_regime`` to receive the ``"inverted"`` / ``"surrogate"`` flag.
    """
    if not math.isfinite(x):
        raise ValueError(f"lost volume must be finite, got {x}")
    if x < 0.0:
        raise ValueError("lost volume must be >= 0")
    tau = _reduced_time(params, t)
    if tau > PDF_INVERSION_TAU_MAX:
        value = float(loss_pdf_asymptotic(params, x, t, "long"))
        return (value, "surrogate") if return_regime else value
    _, _, c, b, contours, x_cut, x_safe = _wall_record(params.v, tau)
    # Deep-tail cutoff: losses beyond tau p(1) by many diffusive spreads have
    # density below double-precision inversion resolution, and the shifted
    # effective time there turns negative, which no contour can represent.
    if x > x_cut:
        return (0.0, "tail-cutoff") if return_regime else 0.0
    if x <= x_safe:
        terms = _pdf_terms(x, c, b)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = _pdf_terms(x, c, b)
    value, err = numerics._contour_sums(terms, contours, tau)
    # The density keeps an absolute floor: at many accepted points the
    # estimate exceeds 1e-3 of the value.
    value = _settled(value, err, tau, "loss pdf", floor=1e-4)
    return (value, "inverted") if return_regime else value


def _pdf_terms(x: float, c, b) -> list:
    """Real parts of the loss_pdf terms c e^{x b} on every contour node (see
    :class:`_WallRecord`), formed in one buffer."""
    out = np.multiply(x, b)
    np.exp(out, out=out)
    np.multiply(c, out, out=out)
    return out.real.tolist()


def loss_pdf_conditional(params: FpParams, ctrl: SeriesControl, x: float, t: float) -> float:
    """Density of the lost volume given that a loss occurred (integrates to 1);
    ValueError where the loss probability is 0 (p(1) underflows at large
    negative drift) and the condition is empty."""
    density = loss_pdf(params, ctrl, x, t)
    prob = _loss_probability(params.v, _reduced_time(params, t))
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
    return tau * _wall_density(params.v), _longtime_variance(params.v, tau)


def loss_pdf_asymptotic(params: FpParams, x, t: float, regime: str):
    """Regime branches of the lost-volume density.

    short: p(1) erfc(x / sqrt(4 tau)); long: narrow-Gaussian surrogate for
    the concentration at tau p(1) (asymptotic stand-in, not an inversion),
    0 where p(1) underflows to 0.
    """
    tau = _reduced_time(params, t)
    xs = np.asarray(x, dtype=float)
    if regime == "short":
        p1 = _wall_density(params.v)
        out = p1 * numerics.erfc(xs / math.sqrt(4.0 * tau))
    elif regime == "long":
        mean, var = loss_pdf_longtime_summary(params, t)
        if var > 0.0:
            out = np.exp(-((xs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        else:
            # p(1) underflows to 0: there is no loss mass to concentrate.
            out = np.zeros_like(xs)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return out if np.ndim(x) else float(out)


def _longtime_variance(v: float, tau: float) -> float:
    """m1 * [coth|v|/|v| - 1/sinh^2|v|] at reduced drift v and time tau,
    m1 = p(1) tau, with the drift-free limit (2/3) m1."""
    m1 = _wall_density(v) * tau
    av = abs(v)
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
    return _longtime_variance(params.v, tau)


def loss_correlator(
    params: FpParams,
    ctrl: SeriesControl,
    t1: float,
    t2: float,
    T: float,
) -> float:
    """Covariance of lost volumes in two windows of lengths t1 and t2 whose
    closest edges are T apart.

    With the loss rate sigma^2/2 times the wall density, the window double
    integral of that density reduces to a convolution against the overlap
    length ovl(s) = min(s, tau1, tau2, tau1 + tau2 - s) in reduced time,

        corr = p(1) * integral_0^{tau1+tau2} ovl(s) [w(1, tau_T+s; 1) - p(1)] ds,

    where tau1, tau2 and tau_T are the reduced times of t1, t2 and T.
    Integrated mode by mode against the eigenseries
    w(1, s; 1) - p(1) = sum_n A_n e^{-lam_n s} it is the closed form

        corr = p(1) sum_n A_n e^{-lam_n tau_T} (1 - e^{-lam_n tau1})
                        (1 - e^{-lam_n tau2}) / lam_n^2,
        A_n = 2 pi^2 n^2 / lam_n,  lam_n = pi^2 n^2 + v^2,

    truncated at the mode count of the series density at separation T. It
    depends on v and the three tau alone, and is finite wherever they are.
    ValueError unless t1, t2 and T are positive and finite.
    """
    tau1, tau2, tau_T = (_reduced_time(params, t) for t in (t1, t2, T))
    n, lam = _wall_modes(params.v, tau_T)
    amp = 2.0 * (np.pi * n) ** 2 / lam
    # From |v| of about 1e77 on, lam * lam overflows on modes whose
    # e^{-lam tau_T} is already 0; their terms are 0.
    with np.errstate(over="ignore"):
        terms = (amp * np.exp(-lam * tau_T) * np.expm1(-lam * tau1) * np.expm1(-lam * tau2)
                 / (lam * lam))
    return _wall_density(params.v) * float(np.sum(terms))


def loss_correlator_asymptotic(
    params: FpParams,
    t1: float,
    t2: float,
    T: float,
    regime: str,
) -> float:
    """Closed-form branches of the window correlator, in the reduced times
    tau1, tau2 and tau_T of t1, t2 and T.

    window (1 >> tau_T >> tau1, tau2): p(1) tau1 tau2 / sqrt(pi tau_T),
    that is m1(t1) m1(t2) sqrt(2/(pi sigma^2 T)) / p(1), and 0 where p(1)
    underflows to 0; separated (tau_T >> 1): 0 (the decay is exponential
    for v != 0). ValueError where the window branch overflows a double.
    """
    tau1, tau2, tau_T = (_reduced_time(params, t) for t in (t1, t2, T))
    if regime == "separated":
        return 0.0
    if regime != "window":
        raise ValueError(f"unknown regime {regime!r}")
    p1, root = _wall_density(params.v), math.sqrt(math.pi * tau_T)
    value = p1 * tau1 * tau2 / root
    if not value < math.inf or root == math.inf:  # a product overflowed: divide first
        value = p1 * tau1 * (tau2 / math.sqrt(math.pi) / math.sqrt(tau_T))
    if value == math.inf:
        raise ValueError(f"window loss correlator overflows a double at tau1={tau1:.3g}")
    return value
