"""Generic numerics kept as oracles for the package's closed forms.

The package evaluates the bounded walk's spectrum and the continuum window
correlator in closed form; the dense eigensolve and the adaptive quadrature
they replaced live on here, where they check those closed forms from an
independent direction.
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
