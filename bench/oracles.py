"""Reference computations made apart from the package, and the check log.

Nothing here imports ``queueloss``. The discrete references propagate a unit
mass through the bounded walk step by step; the continuum references invert
an independently coded wall transform with ``mpmath`` or sum the
correlator's mode series; the Monte Carlo references are the closed forms of
the traffic model.
"""

from __future__ import annotations

import math
from collections import defaultdict

import mpmath
import numpy as np

MP_DPS = 25


class CheckLog:
    """Failures grouped by check family; a run is correct when it is empty."""

    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def true(self, family: str, label: str, ok: bool) -> None:
        self.counts[family] += 1
        if not ok:
            self.failures[family].append(label)

    def close(self, family: str, label: str, got: float, ref: float,
              rtol: float, atol: float = 0.0) -> None:
        ok = math.isfinite(got) and abs(got - ref) <= rtol * abs(ref) + atol
        self.true(family, f"{label}: got {got!r}, reference {ref!r}", ok)

    def within_se(self, family: str, label: str, got: float, ref: float,
                  se: float, k: float) -> None:
        ok = math.isfinite(got) and se > 0.0 and abs(got - ref) <= k * se
        self.true(family, f"{label}: got {got!r} +- {se!r}, reference {ref!r}", ok)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        for family in sorted(self.counts):
            bad = self.failures.get(family, [])
            lines.append(f"check {family}: {self.counts[family] - len(bad)}/"
                         f"{self.counts[family]} passed")
            lines.extend(f"  FAIL {msg}" for msg in bad[:5])
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Bounded walk
# ---------------------------------------------------------------------------


def full_state_share(p: float, L: int) -> float:
    """Stationary weight of the full state, (q-1)/(q - q^{-L}), in mpmath."""
    with mpmath.workdps(MP_DPS):
        p_ = mpmath.mpf(p)
        q = p_ / (1 - p_)
        if q == 1:
            return float(1 / mpmath.mpf(L + 1))
        return float((q - 1) / (q - q ** (-L)))


def full_state_returns(chains, kmax: int) -> np.ndarray:
    """g[i, k] = P(X_k = L | X_0 = L) for the walk ``chains[i] = (p, L)``, k < kmax.

    Propagates a unit mass from the full state one step at a time: up with
    p, down with 1-p, holding at both walls. All chains share one vector,
    each between two zero pads so no mass crosses from one to the next.
    """
    sizes = np.array([L + 1 for _, L in chains])
    starts = 1 + np.concatenate(([0], np.cumsum(sizes + 1)[:-1]))
    ends = starts + sizes - 1
    pads = np.concatenate(([0], ends + 1))
    up = np.zeros(int(ends[-1]) + 2)
    for (p, _), lo, hi in zip(chains, starts, ends):
        up[lo:hi + 1] = p
    down = np.where(up > 0.0, 1.0 - up, 0.0)
    hold_low, hold_high = down[starts], up[ends]
    x = np.zeros_like(up)
    x[ends] = 1.0
    y = np.empty_like(x)
    moved = np.empty_like(x)
    g = np.empty((len(chains), kmax))
    for k in range(kmax):
        g[:, k] = x[ends]
        np.multiply(x[:-1], up[:-1], out=y[1:])
        y[0] = 0.0
        np.multiply(x[1:], down[1:], out=moved[:-1])
        y[:-1] += moved[:-1]
        y[pads] = 0.0
        y[starts] += hold_low * x[starts]
        y[ends] += hold_high * x[ends]
        x, y = y, x
    return g


def window_variances(g: np.ndarray, pi_L: float, p: float, windows) -> np.ndarray:
    """Var of the loss count in N steps from the return probabilities g.

    Loss indicators at steps i < j have covariance pi_L p^2 (g_{j-i-1} - pi_L),
    so Var = N m (1-m) + 2 pi_L p^2 sum_{j=0}^{N-2} (N-1-j) (g_j - pi_L).
    """
    m = pi_L * p
    d = g - pi_L
    s0 = np.concatenate(([0.0], np.cumsum(d)))
    s1 = np.concatenate(([0.0], np.cumsum(np.arange(d.size) * d)))
    out = []
    for N in windows:
        n = int(N) - 1
        out.append(N * m * (1.0 - m) + 2.0 * pi_L * p * p * (n * s0[n] - s1[n]))
    return np.array(out)


def window_covariance(g: np.ndarray, pi_L: float, p: float, N: int, M: int) -> float:
    """Covariance of loss counts in windows [0, N) and [M, M+N)."""
    lag = np.arange(M - N + 1, M + N)
    weight = N - np.abs(lag - M)
    return pi_L * p * p * float(np.dot(weight, g[lag - 1] - pi_L))


# ---------------------------------------------------------------------------
# Continuum queue
# ---------------------------------------------------------------------------


def wall_density(v: float) -> float:
    """Stationary density at the full wall, 2v / (1 - e^{-2v}); 1 at v = 0."""
    with mpmath.workdps(MP_DPS):
        v_ = mpmath.mpf(v)
        return 1.0 if v == 0 else float(2 * v_ / (1 - mpmath.exp(-2 * v_)))


def _wall_transform(eps, v):
    kappa = mpmath.sqrt(eps + v * v)
    return (kappa * mpmath.coth(kappa) + v) / eps


def loss_inversions(a: float, sigma2: float, t: float) -> tuple[float, float]:
    """(m2, p_loss) from W(1, eps; 1) = (kappa coth kappa + v)/eps by mpmath.

    m2 inverts 2 p(1) W / eps^2 and p_loss inverts p(1) / (eps^2 W) at
    tau = sigma2 t / 2.
    """
    with mpmath.workdps(MP_DPS):
        v = mpmath.mpf(a) / mpmath.mpf(sigma2)
        tau = mpmath.mpf(sigma2) * mpmath.mpf(t) / 2
        p1 = 2 * v / (1 - mpmath.exp(-2 * v)) if v != 0 else mpmath.mpf(1)
        m2 = mpmath.invertlaplace(lambda e: 2 * p1 * _wall_transform(e, v) / (e * e),
                                  tau, method="talbot")
        pl = mpmath.invertlaplace(lambda e: p1 / (e * e * _wall_transform(e, v)),
                                  tau, method="talbot")
        return float(m2), float(pl)


def truncated_loss_mass(a: float, sigma2: float, t: float, top: float) -> float:
    """Mass of the loss density on [0, top] by mpmath.

    The density's transform p(1) e^{-x/W} / (eps^2 W^2) integrates over
    [0, top] to p(1) (1 - e^{-top/W}) / (eps^2 W), inverted at tau.
    """
    with mpmath.workdps(MP_DPS):
        v = mpmath.mpf(a) / mpmath.mpf(sigma2)
        tau = mpmath.mpf(sigma2) * mpmath.mpf(t) / 2
        p1 = 2 * v / (1 - mpmath.exp(-2 * v)) if v != 0 else mpmath.mpf(1)
        top_ = mpmath.mpf(top)

        def mass(eps):
            w = _wall_transform(eps, v)
            return p1 * -mpmath.expm1(-top_ / w) / (eps * eps * w)

        return float(mpmath.invertlaplace(mass, tau, method="talbot"))


def correlator_mode_sum(a: float, sigma2: float, t1: float, t2: float, T: float,
                        modes: int = 100_000) -> float:
    """r^2 p(1) sum_n A_n e^{-k_n T} (1-e^{-k_n t1})(1-e^{-k_n t2}) / k_n^2,
    A_n = 2 pi^2 n^2 / (pi^2 n^2 + v^2), k_n = (pi^2 n^2 + v^2) sigma2 / 2."""
    v = a / sigma2
    pn2 = (np.pi * np.arange(1, modes + 1, dtype=float)) ** 2
    k = (pn2 + v * v) * sigma2 / 2.0
    terms = (2.0 * pn2 / (pn2 + v * v)) * np.exp(-k * T) \
        * -np.expm1(-k * t1) * -np.expm1(-k * t2) / (k * k)
    return (sigma2 / 2.0) ** 2 * wall_density(v) * math.fsum(terms)


def longtime_spread(v: float, tau: float) -> float:
    """Standard deviation sqrt(p(1) tau [coth|v|/|v| - 1/sinh^2|v|]) of the
    long-time lost volume; sets the x-grid panels near the loss peak."""
    av = abs(v)
    factor = 2.0 / 3.0 if av < 1e-6 else 1.0 / math.tanh(av) / av - 1.0 / math.sinh(av) ** 2
    return math.sqrt(wall_density(v) * tau * factor)
