"""Shared numerical kernels.

The fixed-contour Laplace inversion, the complementary error functions and
the overflow-safe hyperbolic ratios are implemented here on NumPy and
``math`` alone; the package needs no other runtime dependency. One
asymptotic series of the erfc tail serves both erfcx and erfcx_gap from
x = 7 on. All kernels are pure functions and safe for concurrent use. The
inversion keeps each time's contour data in a bounded
``functools.lru_cache``: the nodes, and on the off-axis nodes of both
contours together the factors e^{s tau} and 1 + i sigma, so one call forms
every term in one pass and sums each contour with one ``math.fsum`` over a
list. The continuum layer caches likewise what does not depend on the lost
volume: W(1, eps; 1) and the lost-volume density's denominator eps^2 W^2
per (parameters, tau), and p(1) per parameters. The cached arrays are
read-only, so every caller shares them without copying and none can change
what another reads.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np


class NumericsError(RuntimeError):
    """Base class for numerical-kernel failures."""


class InversionError(NumericsError):
    """Numerical Laplace inversion did not converge."""


# ---------------------------------------------------------------------------
# Laplace inversion on a fixed deformed contour
# ---------------------------------------------------------------------------


#: Nodes of the inversion contour; the error estimate compares it against a
#: coarser contour of LAPLACE_NODES - LAPLACE_NODES // 6 = 40 nodes.
LAPLACE_NODES = 48


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=128)
def _talbot_contours(tau: float):
    """Both inversion contours at ``tau``, as the tuple (nodes, off,
    e^{s tau}, 1 + i sigma, contours): the nodes of the fine (48) and coarse
    (40) contour concatenated in that order; the indices of their off-axis
    nodes, and e^{s tau} and 1 + i sigma on those, concatenated likewise;
    and per contour the tuple (the index of its head node s = r, the slice
    of the off-axis arrays it owns, the head factor 0.5 e^{r tau}, the
    scale r/m).
    """
    # Contour s(theta) = r*theta*(cot(theta) + i), theta in (-pi, pi),
    # with the customary radius r = 2m/(5 tau); node 0 is the real axis
    # crossing s = r, the rest the upper half (the lower half is conjugate).
    nodes, off, exp_s_tau, one_i_sigma, contours, start = [], [], [], [], [], 0
    at = 0  # off-axis nodes so far
    for m in (LAPLACE_NODES, LAPLACE_NODES - LAPLACE_NODES // 6):
        r = 2.0 * m / (5.0 * tau)
        theta = np.arange(1, m) * (np.pi / m)
        cot = 1.0 / np.tan(theta)
        s = np.concatenate(([r], r * theta * (cot + 1j)))
        sigma = theta + (theta * cot - 1.0) * cot
        nodes.append(s)
        off.append(np.arange(start + 1, start + m))
        exp_s_tau.append(np.exp(s[1:] * tau))
        one_i_sigma.append(1.0 + 1j * sigma)
        contours.append((start, slice(at, at + m - 1), 0.5 * math.exp(r * tau), r / m))
        start += m
        at += m - 1
    return (*(_read_only(np.concatenate(a)) for a in (nodes, off, exp_s_tau, one_i_sigma)),
            tuple(contours))


def laplace_invert(F: Callable, tau: float) -> tuple[float, float]:
    """Invert a Laplace transform at time ``tau`` on a fixed deformed contour.

    ``F`` must be analytic to the right of (and off) the negative real axis
    and accept a complex ndarray; it is called once, on the read-only
    nodes of both contours together. Returns ``(value, error_estimate)``
    where the estimate is the difference against the coarser contour.
    Raises ``ValueError`` unless ``tau`` is finite and positive, and
    :class:`InversionError` on non-finite node values; overflow in ``F``,
    in the terms or in their sums raises that error, never a NumPy warning.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    nodes, off, exp_s_tau, one_i_sigma, contours = _talbot_contours(float(tau))
    with np.errstate(over="ignore", invalid="ignore"):
        fs = np.asarray(F(nodes), dtype=complex)
        terms = ((exp_s_tau * fs[off]) * one_i_sigma).real.tolist()
    re = fs.real
    try:
        v1, v2 = [scale * (head_factor * float(re[head]) + math.fsum(terms[at]))
                  for head, at, head_factor, scale in contours]
    except (ValueError, OverflowError):  # fsum met inf - inf or left the float range
        v1 = v2 = math.nan
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise InversionError(f"non-finite inversion at tau={tau} with {LAPLACE_NODES} nodes")
    return v1, abs(v1 - v2)


# ---------------------------------------------------------------------------
# Overflow-safe special-function helpers
# ---------------------------------------------------------------------------


_erfc = np.vectorize(math.erfc, otypes=[float])


def erfc(x):
    """Complementary error function, elementwise on a scalar or an array.

    ``math.erfc`` is within 4e-16 relative of the exact value on [0, 26.5]
    and keeps the subnormal values past x = 26.6 instead of flushing them
    to 0.
    """
    return _erfc(x)[()]


#: erfcx and erfcx_gap switch from exp(x^2) erfc(x) to the tail series here.
_TAIL_FROM = 7.0
#: Terms of the tail series; from x = 7 on, its terms drop below 1e-17 of
#: the sum by the 29th, long before they start to grow near n = x^2.
_TAIL_TERMS = 30


def _erfc_tail_series(x):
    """1 - sqrt(pi) x erfcx(x) for x >= 7, elementwise on a float or an
    array: the asymptotic series (Abramowitz & Stegun 7.1.23)
    sum_{n=1}^{30} (-1)^{n+1} (2n-1)!! / (2x^2)^n."""
    t = 0.5 / (x * x)
    term = total = t
    for n in range(1, _TAIL_TERMS):
        term = term * (-(2 * n + 1) * t)
        total = total + term
    return total


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x), elementwise.

    From x = 7 on, (1 - g) / (x sqrt(pi)) with g the tail series of
    :func:`erfcx_gap`, within 3e-16 relative. Below 7, the plain product,
    whose relative error grows as x^2 times the rounding unit.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x >= _TAIL_FROM
    out[~big] = np.exp(x[~big] ** 2) * erfc(x[~big])
    xb = x[big]
    out[big] = (1.0 - _erfc_tail_series(xb)) / (xb * math.sqrt(math.pi))
    return out[()]


def erfcx_gap(x: float) -> float:
    """1 - sqrt(pi) x erfcx(x) for a float x >= 0, which falls off as 1/(2x^2).

    Below x = 7, the erfcx form, whose rounding error the subtraction
    magnifies by about 2x^2 (to a few 1e-13 relative near x = 7); from 7
    on, the tail series, which does not cancel.
    """
    if x < _TAIL_FROM:
        return 1.0 - math.sqrt(math.pi) * x * float(erfcx(x))
    return _erfc_tail_series(x)


def _shifted_ratio(kappa, a, sign: float, series: Callable):
    """(e^{kappa(a-1)} + sign e^{-kappa(a+1)}) / (1 - e^{-2 kappa}) elementwise,
    replaced by ``series(kappa, (kappa a)^2, kappa^2)`` where |kappa| < 1e-4."""
    k = np.asarray(kappa)
    small = np.abs(k) < 1e-4
    safe = np.where(small, 1.0, k)
    num = np.exp(safe * (a - 1.0)) + sign * np.exp(-safe * (a + 1.0))
    out = np.asarray(num / (1.0 - np.exp(-2.0 * safe)))
    if small.any():
        ks = k[small]
        out[small] = series(ks, (ks * a) ** 2, ks * ks)
    return out[()]


def cosh_ratio(kappa, a):
    """cosh(kappa * a) / sinh(kappa) for |a| <= 1 without overflow.

    Valid for real or complex, scalar or array ``kappa`` with
    Re(kappa) >= 0; every exponent in the shifted form is non-positive. A
    short series covers |kappa| -> 0.
    """
    return _shifted_ratio(
        kappa, a, 1.0,
        lambda k, ka2, k2: (1.0 + ka2 / 2.0 + ka2 * ka2 / 24.0)
        / (k * (1.0 + k2 / 6.0 + k2 * k2 / 120.0)),
    )


def sinh_ratio(kappa, a):
    """sinh(kappa * a) / sinh(kappa) for |a| <= 1 without overflow."""
    return _shifted_ratio(
        kappa, a, -1.0, lambda k, ka2, k2: a * (1.0 + ka2 / 6.0) / (1.0 + k2 / 6.0)
    )


def coth(z):
    """Hyperbolic cotangent, stable for large |Re z| and accurate near 0:
    cosh_ratio(z, 1), mirrored as -coth(-z) where Re z < 0."""
    z = np.asarray(z)
    sign = np.where(z.real < 0.0, -1.0, 1.0)
    return (sign * cosh_ratio(sign * z, 1.0))[()]
