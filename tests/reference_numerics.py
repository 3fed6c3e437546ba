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


def kernel_py(traffic, rng, duration, sample_dt, ell, queue_samples, cum_lost, cum_idle, record):
    """The per-arrival loop ``simulate._kernel`` replaced, with its signature:
    the same chunked draws, one arrival at a time."""
    from queueloss import simulate as S

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
        etas = traffic.interarrival.sample(rng, S._CHUNK)
        sizes = traffic.packet_size.sample(rng, S._CHUNK)
        if record is not None:
            ev = S._event_columns(S._CHUNK)
            ev_time, ev_size, ev_accepted, ev_q_before, ev_q_after = ev.values()
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
            if record is not None:
                ev_time[i] = t
                ev_size[i] = p
                ev_accepted[i] = accepted
                ev_q_before[i] = ell
                ev_q_after[i] = ell_plus
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
        if record is not None:
            record.append({k: c[:consumed].copy() for k, c in ev.items()})
    return ell, arrived, serviced, dropped, idle, n_arrivals, n_drops
