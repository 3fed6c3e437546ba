"""Generic numerics kept as oracles for the package's closed forms and kernels.

The package evaluates the bounded walk's spectrum and the continuum window
correlator in closed form; the dense eigensolve and the adaptive quadrature
they replaced live on here, where they check those closed forms from an
independent direction. The same goes for the two Monte Carlo kernels: the
package runs them as NumPy block kernels, and the per-step loops they
replaced are kept here as the bit-identity oracles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as _linalg

from queueloss import fokker_planck as F
from queueloss import numerics


class EigenError(numerics.NumericsError):
    """Eigendecomposition failed or exceeded its residual budget."""


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
        numerics.integrate(integrand, lo, hi, tol=1e-12, limit=400).value
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


def advance_chunk_py(
    etas,
    sizes,
    r_out,
    duration,
    sample_dt,
    state,
    grid_idx,
    queue_samples,
    cum_lost,
    cum_idle,
    ev_time,
    ev_size,
    ev_accepted,
    ev_q_before,
    ev_q_after,
    record,
):
    ell = state[0]
    t = state[1]
    serviced = state[2]
    dropped = state[3]
    arrived = state[4]
    idle = state[5]
    n_drops = state[6]
    # Kahan compensation terms: the volume totals grow to ~duration while the
    # per-event increments are tiny, and the conservation identity is checked
    # at 1e-9, which naive accumulation cannot hold over 1e7 events.
    c_serv = state[7]
    c_drop = state[8]
    c_arr = state[9]
    c_idle = state[10]
    n_grid = queue_samples.size
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
            n_drops += 1.0
        yk = p - c_arr
        tk = arrived + yk
        c_arr = (tk - arrived) - yk
        arrived = tk
        if record:
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
    state[0] = ell
    state[1] = t
    state[2] = serviced
    state[3] = dropped
    state[4] = arrived
    state[5] = idle
    state[6] = n_drops
    state[7] = c_serv
    state[8] = c_drop
    state[9] = c_arr
    state[10] = c_idle
    return consumed, grid_idx
