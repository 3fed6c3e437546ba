"""Generic numerics kept as oracles for the package's closed forms and kernels.

The package evaluates the bounded walk's spectrum, the critical growth
coefficient and the continuum window correlator in closed form; the dense
eigensolve and the adaptive quadratures they replaced live on here, where
they check those closed forms from an independent direction. The adaptive
quadrature itself (:func:`integrate`, on SciPy's QUADPACK) is kept here too,
so the package needs NumPy alone. The same goes for the two Monte Carlo
kernels: the package runs them as NumPy block kernels, and the per-step
loops they replaced are kept here as the bit-identity oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from scipy import integrate as _quadpack
from scipy import linalg as _linalg

from queueloss import fokker_planck as F
from queueloss import numerics


class EigenError(numerics.NumericsError):
    """Eigendecomposition failed or exceeded its residual budget."""


class QuadratureError(numerics.NumericsError):
    """Adaptive quadrature did not converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its reported error bound."""

    value: float
    error: float
    neval: int


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    limit: int = 200,
) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over [a, b]; b may be ``numpy.inf``.

    Semi-infinite ranges are handled by the integrator's internal variable
    substitution mapping the tail onto a finite interval. Raises
    :class:`QuadratureError` if the subdivision limit is hit or the reported
    error exceeds ``max(tol, 1e-6 * |value|)``.
    """
    out = _quadpack.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit, full_output=1)
    value, error, info = out[0], out[1], out[2]
    if len(out) > 3:
        raise QuadratureError(f"quadrature failed on [{a}, {b}]: {out[3]}")
    if not math.isfinite(value) or error > max(tol * 100.0, 1e-6 * abs(value)):
        raise QuadratureError(
            f"quadrature error {error:.3g} exceeds budget on [{a}, {b}]"
        )
    return QuadratureResult(value=value, error=error, neval=int(info["neval"]))


def tridiag_eigen(
    diag: np.ndarray,
    offdiag: np.ndarray,
    residual_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric tridiagonal matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors in the matching columns. Every pair is
    checked against the residual budget ``|A v - lambda v| <= tol * |A|``.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if offdiag.size != diag.size - 1:
        raise ValueError("offdiag must have one fewer entry than diag")
    if diag.size == 1:
        return diag.copy(), np.ones((1, 1))
    try:
        vals, vecs = _linalg.eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy rarely fails
        raise EigenError(f"tridiagonal eigensolve failed: {exc}") from exc

    av = diag[:, None] * vecs
    av[:-1] += offdiag[:, None] * vecs[1:]
    av[1:] += offdiag[:, None] * vecs[:-1]
    residual = np.abs(av - vecs * vals[None, :]).max(axis=0)
    scale = max(np.abs(vals).max(), 1e-300)
    worst = int(np.argmax(residual))
    if residual[worst] > residual_tol * scale:
        raise EigenError(
            f"eigenpair {worst} residual {residual[worst]:.3g} exceeds "
            f"{residual_tol:.1g} * |A|"
        )
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def walk_eigen(p: float, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and squared top-row eigenvector components of
    the symmetrized bounded-walk kernel, by dense eigensolve."""
    diag = np.zeros(L + 1)
    diag[0] = 1.0 - p
    diag[L] = p
    off = np.full(L, math.sqrt(p * (1.0 - p)))
    vals, vecs = tridiag_eigen(diag, off)
    return vals, vecs[L, :] ** 2


def growth_integrand(x: float) -> float:
    """(x^2 - 1 + exp(-x^2)) / x^4, continuously extended to 1/2 at 0."""
    if x < 0.05:
        u = x * x
        return 0.5 - u / 6.0 + u * u / 24.0 - u**3 / 120.0
    return (x * x - 1.0 + math.exp(-x * x)) / x**4


def quadrature_critical_coefficient(tol: float = 1e-12) -> float:
    """Critical growth amplitude (2 sqrt(2)/pi) * integral_0^inf growth_integrand,
    by adaptive quadrature split at x = 2 for uniform error control."""
    head = integrate(growth_integrand, 0.0, 2.0, tol=tol)
    tail = integrate(growth_integrand, 2.0, np.inf, tol=tol)
    total_err = head.error + tail.error
    value = head.value + tail.value
    if total_err > 1e-8 * abs(value):
        raise QuadratureError(
            f"growth-coefficient quadrature error {total_err:.3g} too large"
        )
    return (2.0 * math.sqrt(2.0) / math.pi) * value


def quadrature_loss_correlator(params, ctrl, t1: float, t2: float, T: float) -> float:
    """Window correlator by adaptive quadrature of the overlap convolution

        r^2 p(1) * integral_0^{t1+t2} ovl(s) [w(1, T+s; 1) - p(1)] ds

    over the eigenseries wall density, ovl(s) = min(s, t1, t2, t1 + t2 - s).
    The range is split at the two kinks of ovl; one adaptive pass over the
    whole range misses a short ramp (0.6% off at t1/t2 = 500).
    """
    r = F.loss_rate_coefficient(params)
    p1 = float(F.stationary_density(params, 1.0))

    def integrand(s: float) -> float:
        ovl = min(s, t1, t2, t1 + t2 - s)
        wb = float(F.transition_density(params, ctrl, 1.0, T + s, 1.0))
        return ovl * (wb - p1)

    edges = (0.0, min(t1, t2), max(t1, t2), t1 + t2)
    total = math.fsum(
        integrate(integrand, lo, hi, tol=1e-12, limit=400).value
        for lo, hi in zip(edges, edges[1:])
    )
    return r * r * p1 * total


def mode_sum_loss_correlator(
    a: float, sigma2: float, t1: float, t2: float, T: float, modes: int = 100_000
) -> float:
    """Window correlator summed over a fixed, generous number of modes,
    compensated; independent of the package's truncation rule."""
    v = a / sigma2
    r = sigma2 / 2.0
    p1 = 1.0 if v == 0.0 else 2.0 * v / -math.expm1(-2.0 * v)
    pn2 = (math.pi * np.arange(1, modes + 1, dtype=float)) ** 2
    k = r * (pn2 + v * v)
    terms = (2.0 * pn2 / (pn2 + v * v)) * np.exp(-k * T) \
        * -np.expm1(-k * t1) * -np.expm1(-k * t2) / (k * k)
    return r * r * p1 * math.fsum(terms)


def inverted_propagator(v: float, x: float, y: float, tau: float, dps: int = 40) -> float:
    """Transition density at reduced time tau by mpmath's Talbot inversion,
    at ``dps`` digits, of the closed-form transform that
    :func:`F.laplace_propagator` evaluates in double precision; independent
    of the eigenseries and of the package's fixed-contour inversion."""
    with mpmath.workdps(dps):
        v, x, y = mpmath.mpf(v), mpmath.mpf(x), mpmath.mpf(y)
        s_arg, d_arg = x + y - 1, abs(x - y) - 1

        def transform(eps):
            kappa = mpmath.sqrt(eps + v * v)
            bracket = ((2 * v * v / eps) * mpmath.cosh(kappa * s_arg)
                       + (2 * kappa * v / eps) * mpmath.sinh(kappa * s_arg)
                       + mpmath.cosh(kappa * d_arg) + mpmath.cosh(kappa * s_arg))
            return mpmath.exp(v * (x - y)) * bracket / (2 * kappa * mpmath.sinh(kappa))

        return float(mpmath.invertlaplace(transform, mpmath.mpf(tau), method="talbot"))


def wall_transform(v, eps):
    """W(1, eps; 1) = [kappa coth(kappa) + v] / eps, kappa = sqrt(eps + v^2),
    in mpmath at its working precision: the form that
    :func:`F.boundary_return_transform` rewrites where it cancels."""
    kappa = mpmath.sqrt(eps + v * v)
    return (kappa * mpmath.coth(kappa) + v) / eps


def inverted_wall(k: int, v: float, tau: float, dps: int = 60) -> float:
    """The loss probability (k = 0) or the k-th loss moment (k >= 2) at
    reduced drift v and time tau by mpmath's Talbot inversion, at ``dps``
    digits, of p(1) / (eps^2 W) or k! p(1) W^(k-1) / eps^2 with W from
    :func:`wall_transform`; independent of the package's W and contour."""
    with mpmath.workdps(dps):
        v = mpmath.mpf(v)
        p1 = 2 * v / -mpmath.expm1(-2 * v) if v else mpmath.mpf(1)
        if k == 0:
            def transform(eps):
                return p1 / (eps * eps * wall_transform(v, eps))
        else:
            def transform(eps):
                return mpmath.factorial(k) * p1 * wall_transform(v, eps) ** (k - 1) / eps**2
        return float(mpmath.invertlaplace(transform, mpmath.mpf(tau), method="talbot"))


def loss_pdf_via_laplace_invert(params, x: float, t: float) -> float:
    """The lost-volume density as :func:`F.loss_pdf` evaluated it when every
    point went through :func:`numerics.laplace_invert`: the same validation,
    surrogate and tail cutoff, and below them p(1) e^{-x/W} / (eps^2 W^2),
    W = W(1, eps; 1) evaluated afresh on the contour nodes, inverted there
    under the error budget 1e-3 |value| + 1e-4."""
    if not math.isfinite(x):
        raise ValueError(f"lost volume must be finite, got {x}")
    if x < 0.0:
        raise ValueError("lost volume must be >= 0")
    tau = F._reduced_time(params, t)
    p1 = float(F.stationary_density(params, 1.0))
    if tau > F.PDF_INVERSION_TAU_MAX:
        return float(F.loss_pdf_asymptotic(params, x, t, "long")) if p1 > 0.0 else 0.0
    if x > p1 * (tau + 12.0 * math.sqrt(tau) + 1.0):
        return 0.0

    eps = numerics._talbot_contours(tau)[0]  # the nodes laplace_invert passes
    w = F.boundary_return_transform(params, eps)
    d = eps * eps * w * w
    value, err = numerics.laplace_invert(lambda _: p1 * np.exp(-x / w) / d, tau)
    if err > 1e-3 * abs(value) + 1e-4:
        raise numerics.InversionError(f"loss pdf inversion at tau={tau:.3g} did not settle")
    return value


def loss_pdf_via_fresh_terms(params, x: float, t: float) -> float:
    """The lost-volume density as :func:`F.loss_pdf` forms it, with no wall
    record: the same validation, surrogate and tail cutoff, and below them
    the terms Re(C e^{x B}) on the contour nodes, with C = p(1) factor
    (1 + i sigma) / (eps^2 W^2) and B = -1/W formed afresh from
    :func:`F.boundary_return_transform` and ``numerics._talbot_contours``,
    every step inside ``np.errstate``, summed by ``numerics._contour_sums``
    under the error budget 1e-3 |value| + 1e-4."""
    if not math.isfinite(x):
        raise ValueError(f"lost volume must be finite, got {x}")
    if x < 0.0:
        raise ValueError("lost volume must be >= 0")
    tau = F._reduced_time(params, t)
    p1 = float(F.stationary_density(params, 1.0))
    if tau > F.PDF_INVERSION_TAU_MAX:
        return float(F.loss_pdf_asymptotic(params, x, t, "long")) if p1 > 0.0 else 0.0
    eps, factor, one_i_sigma, contours = numerics._talbot_contours(tau)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = F.boundary_return_transform(params, eps)
        d = eps * eps * w * w
        if not np.isfinite(d).all():
            raise numerics.InversionError("eps^2 W^2 overflows on the inversion contour")
        if x > p1 * (tau + 12.0 * math.sqrt(tau) + 1.0):
            return 0.0
        c = p1 * factor * one_i_sigma / d
        terms = (c * np.exp(x * (-1.0 / w))).real.tolist()
    value, err = numerics._contour_sums(terms, contours, tau)
    if err > 1e-3 * abs(value) + 1e-4:
        raise numerics.InversionError(f"loss pdf inversion at tau={tau:.3g} did not settle")
    return value


# ---------------------------------------------------------------------------
# Per-step Monte Carlo loops
# ---------------------------------------------------------------------------


def walk_chunk_py(l0, L, p, u, lengths, losses):
    ell = l0
    for i in range(u.size):
        if u[i] < p:
            if ell == L:
                losses[i] = True
            else:
                ell += 1
        elif ell > 0:
            ell -= 1
        lengths[i + 1] = ell
    return ell


def simulate_path_py(params, n_steps: int, burn_in: int = 0, seed: int = 0):
    """``(lengths, loss_events)`` of ``discrete.simulate_path`` by the
    per-step loop, with every uniform drawn at once."""
    from queueloss import discrete as D

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    L = params.L
    if burn_in > 0:
        ell = 0
        u = rng.random(burn_in)
        scratch_len = np.zeros(burn_in + 1, dtype=np.int64)
        scratch_loss = np.zeros(burn_in, dtype=np.bool_)
        scratch_len[0] = ell
        ell = int(walk_chunk_py(ell, L, params.p, u, scratch_len, scratch_loss))
    else:
        pi = D.stationary_distribution(params)
        ell = int(rng.choice(L + 1, p=pi))
    lengths = np.zeros(n_steps + 1, dtype=np.int64)
    losses = np.zeros(n_steps, dtype=np.bool_)
    lengths[0] = ell
    u = rng.random(n_steps)
    walk_chunk_py(ell, L, params.p, u, lengths, losses)
    return lengths, losses


#: Values the per-arrival loop draws from each stream at a time: a size no
#: kernel constant matches, so agreement also shows that the split of the
#: draws decides none of the values.
_LOOP_DRAWS = 1000


def kernel_py(traffic, gap_rng, size_rng, duration, sample_dt, ell, queue_samples, cum_lost,
              cum_idle, *, events: list | None = None):
    """The per-arrival loop ``simulate._kernel`` replaced, with its signature:
    the same two streams, one arrival at a time. Given a list ``events``,
    it appends one ``(time, size, accepted, queue_before, queue_after)``
    row per arrival, for tests that check the queue rules by hand."""
    r_out = traffic.r_out
    t = serviced = dropped = arrived = idle = 0.0
    # Kahan compensation terms: the volume totals grow to ~duration while the
    # per-event increments are tiny, and the conservation identity is checked
    # at 1e-9, which naive accumulation cannot hold over 1e7 events.
    c_serv = c_drop = c_arr = c_idle = 0.0
    n_drops = n_arrivals = 0
    n_grid = queue_samples.size
    grid_idx = 0
    while t < duration:
        etas = traffic.interarrival.sample(gap_rng, _LOOP_DRAWS)
        sizes = traffic.packet_size.sample(size_rng, _LOOP_DRAWS)
        consumed = 0
        for i in range(etas.size):
            p = sizes[i]
            eta = etas[i]
            if ell + p <= 1.0:
                ell_plus = ell + p
                accepted = True
            else:
                ell_plus = ell
                accepted = False
                yk = p - c_drop
                tk = dropped + yk
                c_drop = (tk - dropped) - yk
                dropped = tk
                n_drops += 1
            yk = p - c_arr
            tk = arrived + yk
            c_arr = (tk - arrived) - yk
            arrived = tk
            if events is not None:
                events.append((t, p, accepted, ell, ell_plus))
            seg_end = t + eta
            while grid_idx < n_grid and grid_idx * sample_dt <= seg_end:
                tg = grid_idx * sample_dt
                dtg = tg - t
                q = ell_plus - dtg * r_out
                if q < 0.0:
                    q = 0.0
                queue_samples[grid_idx] = q
                cum_lost[grid_idx] = dropped
                part_idle = dtg - ell_plus / r_out
                if part_idle < 0.0:
                    part_idle = 0.0
                cum_idle[grid_idx] = idle + part_idle
                grid_idx += 1
            drained = eta * r_out
            if drained > ell_plus:
                yk = (eta - ell_plus / r_out) - c_idle
                tk = idle + yk
                c_idle = (tk - idle) - yk
                idle = tk
                drained = ell_plus
            yk = drained - c_serv
            tk = serviced + yk
            c_serv = (tk - serviced) - yk
            serviced = tk
            ell = ell_plus - drained
            t = seg_end
            consumed = i + 1
            if t >= duration:
                break
        n_arrivals += consumed
    # Every arrival of the loop is a scalar step.
    return ell, arrived, serviced, dropped, idle, n_arrivals, n_drops, n_arrivals
