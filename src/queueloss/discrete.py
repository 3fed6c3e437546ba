"""Bounded single-server queue in discrete time: exact loss statistics and paths.

The queue length walks on {0, ..., L}: up one unit with probability p (an
arriving packet is enqueued), down one unit otherwise (a service unit
leaves). At the walls the blocked move is a hold: an arrival into a full
buffer is dropped (that step is a loss event) and a service slot on an empty
buffer idles. Detailed balance holds with weights q^l, q = p/(1-p), so the
transition matrix is similar to a symmetric tridiagonal matrix whose
spectrum is known in closed form (Feller, vol. 1, XVI.3): with
theta_k = pi k/(L+1), the transient eigenvalues are 2 sqrt(p(1-p)) cos theta_k
and the eigenvectors are sinusoids. All exact evaluators below run off that
spectrum in O(L) work, which turns the time sums appearing in window
variances and correlators into closed geometric sums. The mode table is
built once per (p, L) and kept in a small bounded cache, and the mode
powers lam^n that underflow to zero are written as zeros, not computed;
nor is lam^n where the sums need only 1 - lam^n and it rounds to 1.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = [
    "DiscreteQueueParams",
    "DiscretePath",
    "DegenerateParamsError",
    "build_kernel",
    "stationary_distribution",
    "green_function",
    "mean_loss_rate_exact",
    "loss_variance_exact",
    "compressibility",
    "critical_coefficient",
    "correlator_r2",
    "critical_r2",
    "crossover_window",
    "simulate_path",
]


class DegenerateParamsError(ValueError):
    """Raised when a statistic is undefined at degenerate parameters."""


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an int, if it is a Python or NumPy int or an integral
    float of at least ``minimum``; otherwise a ValueError naming it."""
    if not (math.isfinite(value) and int(value) == value and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DiscreteQueueParams:
    """Arrival probability per slot and buffer capacity in service units."""

    p: float
    L: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"arrival probability must be in [0, 1], got {self.p}")
        object.__setattr__(self, "L", _integer("capacity L", self.L, 1))

    @property
    def q(self) -> float:
        """Up/down odds ratio p/(1-p); only defined for p < 1."""
        if self.p >= 1.0:
            raise DegenerateParamsError("q is undefined at p = 1; take limits explicitly")
        return self.p / (1.0 - self.p)

    @property
    def is_degenerate(self) -> bool:
        return self.p in (0.0, 1.0)


def build_kernel(params: DiscreteQueueParams) -> np.ndarray:
    """One-step (L+1) x (L+1) transition matrix of the bounded walk.

    Interior states move up with p and down with 1-p; state 0 holds with
    1-p; state L holds with p. Rows sum to one exactly.
    """
    L, p = params.L, params.p
    m = np.zeros((L + 1, L + 1))
    ell = np.arange(L)
    m[ell, ell + 1] = p
    m[ell + 1, ell] = 1.0 - p
    m[0, 0] = 1.0 - p
    m[L, L] = p
    return m


def stationary_distribution(params: DiscreteQueueParams) -> np.ndarray:
    """Stationary law over queue lengths 0..L, proportional to q^l.

    Degenerate arrival probabilities give the point masses at the empty and
    full states. The weights are evaluated in log space relative to the
    largest one, q^l at q < 1 and q^{l-L} at q > 1, so large capacities
    neither overflow nor lose digits to a difference of large logarithms;
    weights below the smallest double underflow to 0. The last entry,
    pi(L), is the full-buffer weight behind the loss rate and every exact
    evaluator below.
    """
    L = params.L
    if params.p == 0.0:
        out = np.zeros(L + 1)
        out[0] = 1.0
        return out
    if params.p == 1.0:
        out = np.zeros(L + 1)
        out[L] = 1.0
        return out
    logq = math.log(params.q)
    w = np.exp((np.arange(L + 1) - (L if logq > 0.0 else 0)) * logq)
    return w / w.sum()


def _angles(L: int) -> np.ndarray:
    """theta_k = pi k/(L+1) for k = 1..L."""
    return (np.pi / (L + 1)) * np.arange(1, L + 1)


@functools.lru_cache(maxsize=16)
def _modes(params: DiscreteQueueParams) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form transient modes of D^{1/2} K D^{-1/2}, D = diag(stationary
    law): ``(pi_L, lam, w)``, kept per parameters in a small bounded cache
    with read-only arrays, so that a table of windows at one (p, L) builds
    it once, and a grid of up to 16 (p, L) revisited point by point (a CLI
    table, then correlators on the same grid) builds each table once. The
    cache holds at most 16 x 2 x L doubles: 48 KB per table at L = 3000.
    Its callers take every power lam^n through :func:`_power`, which leaves
    the powers that underflow uncomputed.

    The similarity transform makes the kernel symmetric tridiagonal with
    off-diagonal sqrt(p(1-p)) and diagonal (1-p, 0, ..., 0, p). Besides the
    stationary eigenvalue 1, whose boundary weight is pi_L = pi(L), it has
    lam_k = 2 sqrt(p(1-p)) cos theta_k, theta_k = pi k/(L+1), k = 1..L,
    sorted descending. The boundary weight w_k is the squared top-row
    component of the normalized eigenvector k, so that the n-step return
    probability to the full state is pi_L + sum_k w_k lam_k^n; in closed form

        w_k = 2 sin^2 theta_k / ((L+1) ((1 - sqrt q)^2 + 4 sqrt q sin^2(theta_k/2))),

    a denominator of non-negative terms that cannot cancel near q = 1.
    """
    if params.is_degenerate:
        raise DegenerateParamsError("spectral form requires 0 < p < 1")
    L, p = params.L, params.p
    theta = _angles(L)
    lam = 2.0 * math.sqrt(p * (1.0 - p)) * np.cos(theta)
    rq = math.sqrt(params.q)
    half = np.sin(0.5 * theta)
    w = 2.0 * np.sin(theta) ** 2 / ((L + 1) * ((1.0 - rq) ** 2 + 4.0 * rq * half * half))
    pi_L = float(stationary_distribution(params)[-1])
    return pi_L, numerics._read_only(lam), numerics._read_only(w)


#: log2 of the smallest |lam|^n that :func:`_power` computes. Below it the
#: power is at least 2^25 below the smallest subnormal, 2^-1074, so ``pow``
#: rounds it to a signed zero with room to spare for its own rounding.
_POWER_LOG2_MIN = -1100.0
#: log2 of the smallest |lam|^n that :func:`_one_minus_power` computes.
#: Below 2^-54, 1 - lam^n and 1 + |lam|^n round to 1.0, ties included.
_ONE_MINUS_LOG2_MIN = -60.0


def _power(lam: np.ndarray, n: int, log2_min: float = _POWER_LOG2_MIN) -> np.ndarray:
    """np.power(lam, n), computing only the modes with |lam|^n >= 2^log2_min;
    the rest are signed zeros (negative for lam < 0 and odd n). With the
    default floor 2^-1100 those are the zeros ``pow`` returns there, so the
    result is np.power(lam, n) bit for bit. Deep windows and separations
    leave most powers below the floor.

    The cut on |lam| is the rounded 2^(log2_min/n) lowered by 2^-51 of
    itself, at least two ulps, so that it cannot round up: near 1.0 one ulp
    of lam moves lam^n by a factor e^{n 2^-53}, which at n past about 10^16
    no margin in log2_min covers. The step covers ``pow``'s rounding (below
    one ulp) and, from n of a few hundred on, the quotient's; below that n
    those roundings move the cut's |lam|^n by a relative 1e-13 at most."""
    out = lam * 0.0 if n % 2 else np.zeros_like(lam)  # lam * 0.0 is -0.0 where lam < 0
    cut = 2.0 ** (log2_min / n) * (1.0 - 2.0**-51) if n else 0.0
    return np.power(lam, n, out=out, where=np.abs(lam) >= cut)


def _one_minus_power(lam: np.ndarray, n: int) -> np.ndarray:
    """1.0 - np.power(lam, n), bit for bit, computing ``pow`` only on the
    modes with |lam|^n >= 2^-60; on the rest it is 1.0."""
    return 1.0 - _power(lam, n, _ONE_MINUS_LOG2_MIN)


def _eigvec_row(params: DiscreteQueueParams, theta: np.ndarray, ell: int) -> np.ndarray:
    """Component ell of the transient eigenvectors at the angles ``theta``,
    before normalization: u_ell(k) = sin((ell+1) theta_k) - q^{-1/2} sin(ell theta_k).

    The squared norm of eigenvector k is u_L(k)^2 / w_k.
    """
    return np.sin((ell + 1) * theta) - np.sin(ell * theta) / math.sqrt(params.q)


def _propagate_row(params: DiscreteQueueParams, n: int, frm: int) -> np.ndarray:
    """Row ``frm`` of the n-step kernel K^n, by n steps of the walk's law.

    Each step moves mass p up and 1-p down, holding the blocked share at
    the walls, in O(L); a row that a step leaves unchanged is final.
    """
    L, p = params.L, params.p
    row = np.zeros(L + 1)
    row[frm] = 1.0
    for _ in range(n):
        nxt = np.empty_like(row)
        np.multiply(row[:-1], p, out=nxt[1:])
        nxt[0] = 0.0
        nxt[:-1] += (1.0 - p) * row[1:]
        nxt[0] += (1.0 - p) * row[0]
        nxt[L] += p * row[L]
        if np.array_equal(nxt, row):
            break
        row = nxt
    return row


#: log10 of the largest round-off scale (see :func:`_spectral_scale_log10`)
#: at which :func:`green_function` takes the spectral sum. Measured errors
#: stay below 6.3e-16 times the scale (L <= 400, p in 0.05..0.95, n in
#: 65..1000), so below 1e-9 here.
_SPECTRAL_SCALE_LOG10_MAX = 6.0


def _spectral_scale_log10(params: DiscreteQueueParams, n: int, frm: int, to: int) -> float:
    """log10 of (L+1) q^{(to-frm)/2} (2 sqrt(p(1-p)))^n, the scale of the
    round-off in the spectral sum for the n-step probability frm -> to.

    The sum's terms are bounded by q^{(to-frm)/2} (2 sqrt(p(1-p)))^n, since
    products of orthonormal eigenvector components sum to at most 1 in
    absolute value; each term carries the round-off of sine arguments up to
    (L+1) theta_k.
    """
    p = params.p
    return (math.log10(params.L + 1.0) + 0.5 * (to - frm) * math.log10(params.q)
            + n * math.log10(2.0 * math.sqrt(p * (1.0 - p))))


def _spectral_green(params: DiscreteQueueParams, n: int, frm: int, to: int) -> float:
    """n-step transition probability as the spectral sum over closed-form
    eigenvector rows, clipped to [0, 1] at round-off level. It is accurate
    only where its round-off scale is small (:func:`green_function` routes
    the rest to row propagation). Where the mode sum is not 0 but its factor
    q^{(to-frm)/2} overflows, the row of ``frm`` is propagated instead."""
    L = params.L
    _, lam, w = _modes(params)
    # K^n = D^{-1/2} (V Lam^n V^T) D^{1/2} with D = diag(pi); the stationary
    # mode contributes pi(to) and each transient mode u_frm u_to lam^n / |u|^2.
    theta = _angles(L)
    norm2 = _eigvec_row(params, theta, L) ** 2 / w
    rows = _eigvec_row(params, theta, frm) * _eigvec_row(params, theta, to) / norm2
    amp = float(np.dot(rows, _power(lam, n)))
    pi_to = float(stationary_distribution(params)[to])
    if amp == 0.0:  # every transient power underflowed; the ratio may overflow
        return pi_to
    try:
        ratio = math.exp(0.5 * (to - frm) * math.log(params.q))
    except OverflowError:
        return float(_propagate_row(params, n, frm)[to])
    return min(max(pi_to + ratio * amp, 0.0), 1.0)


def green_function(params: DiscreteQueueParams, n: int, frm: int, to: int) -> float:
    """n-step transition probability from state ``frm`` to state ``to``.

    It is exactly 0 where n steps cannot cover the distance. Otherwise, up
    to 64 steps, for a degenerate walk, wherever the spectral sum would
    have to cancel terms too large for double precision (q^{(to-frm)/2}
    huge and n too short for the modes to decay), and where its factor
    q^{(to-frm)/2} overflows a double on modes that have not decayed to 0,
    the row of ``frm`` is propagated through n steps of the walk (O(nL),
    the row of the matrix power). Otherwise the spectral sum over
    closed-form eigenvector rows is taken. The two agree to 1e-9 where they
    overlap.
    """
    n = _integer("step count n", n, 0)
    frm, to = _integer("state frm", frm, 0), _integer("state to", to, 0)
    L = params.L
    if not (frm <= L and to <= L):
        raise ValueError("states must lie in 0..L")
    if n < abs(to - frm):
        # The walk moves at most one state per step.
        return 0.0
    if (n <= 64 or params.is_degenerate
            or _spectral_scale_log10(params, n, frm, to) > _SPECTRAL_SCALE_LOG10_MAX):
        return float(_propagate_row(params, n, frm)[to])
    return _spectral_green(params, n, frm, to)


def mean_loss_rate_exact(params: DiscreteQueueParams) -> float:
    """Mean packets discarded per step in the stationary regime: the arrival
    probability times the stationary weight pi(L) of the full state.

    In closed form p (1 - q) q^L / (1 - q^{L+1}), p/(L+1) at p = 1/2; it is
    exponentially small below p = 1/2 and tends to 2p - 1 above. Where pi(L)
    is below the smallest double the rate is 0.
    """
    return params.p * float(stationary_distribution(params)[-1])


def _near_one(lam: np.ndarray, span: float, cut: float, direct, series) -> np.ndarray:
    """direct(lam, x) on the modes with span |x| >= cut and series(x) on the
    near-1 corner span |x| < cut, x = 1 - lam; only a non-empty corner
    splits the modes. The callers' direct forms divide by powers of x and
    cancel where span x is small, and their series are Taylor expansions in x.
    """
    x = 1.0 - lam
    small = span * np.abs(x) < cut
    if not small.any():
        return direct(lam, x)
    out = np.empty_like(lam)
    out[~small] = direct(lam[~small], x[~small])
    out[small] = series(x[small])
    return out


def _window_weight_sum(lam: np.ndarray, N: int) -> np.ndarray:
    """sum_{k=0}^{N-2} (N-1-k) lam^k, stable through lam -> 1.

    Direct form [(N-1)(1-lam) - lam(1 - lam^{N-1})] / (1-lam)^2 cancels badly
    when (N-1)(1-lam) is small; a 4-term Taylor expansion in (1-lam) covers
    that corner (see :func:`_near_one`).
    """
    nm1 = float(N - 1)

    def series(x):
        c2 = nm1 * (N - 2.0) / 2.0
        c3 = c2 * (N - 3.0) / 3.0
        c4 = c3 * (N - 4.0) / 4.0
        c5 = c4 * (N - 5.0) / 5.0
        return (c2 + nm1) - (c3 + c2) * x + (c4 + c3) * x**2 - (c5 + c4) * x**3

    return _near_one(lam, nm1, 1e-3,
                     lambda lb, x: (nm1 * x - lb * _one_minus_power(lb, N - 1)) / (x * x), series)


def loss_variance_exact(params: DiscreteQueueParams, N: int) -> float:
    """Variance of the per-window loss count over a window of N steps.

    The double time sum over pairs of loss events collapses to
    sum_k (N-1-k) G_k(L, L), evaluated mode by mode as a geometric window
    sum; the stationary mode's quadratic-in-N contribution cancels against
    the squared mean analytically, leaving

        Var = N m (1 - m) + 2 pi(L) p^2 sum_{j>=1} w_j T(lam_j, N)

    with m the per-step loss probability and w_j the boundary weights.
    """
    N = _integer("window length N", N, 1)
    if params.is_degenerate:
        return 0.0
    return _window_variance(params.p, N, *_modes(params))


def _window_variance(p: float, N: int, pi_L: float, lam: np.ndarray, w: np.ndarray) -> float:
    """:func:`loss_variance_exact` from the mode table ``(pi_L, lam, w)``."""
    m = pi_L * p
    tail = float(np.dot(w, _window_weight_sum(lam, N)))
    return N * m * (1.0 - m) + 2.0 * pi_L * p * p * tail


def compressibility(params: DiscreteQueueParams, N: int) -> float:
    """Variance-to-mean ratio of the window loss count (chi in the glossary)."""
    N = _integer("window length N", N, 1)
    rate = mean_loss_rate_exact(params)
    if rate == 0.0:
        raise DegenerateParamsError("compressibility undefined at zero mean loss")
    return loss_variance_exact(params, N) / (N * rate)


def crossover_window(params: DiscreteQueueParams) -> float:
    """Window length [(2p-1)^2 + (pi/L)^2]^{-1} separating growth and saturation."""
    b = 2.0 * params.p - 1.0
    return 1.0 / (b * b + (math.pi / params.L) ** 2)


def critical_coefficient() -> float:
    """Amplitude c of the critical square-root growth of the compressibility.

    c = (2 sqrt(2)/pi) I with I = integral_0^inf (x^2 - 1 + e^{-x^2}) / x^4 dx.
    Integrating by parts twice, with boundary terms that vanish at both
    ends (the numerator is x^4/2 + O(x^6) near 0):

        I = (2/3) integral_0^inf (1 - e^{-x^2}) / x^2 dx
          = (2/3) integral_0^inf 2 e^{-x^2} dx = 2 sqrt(pi) / 3,

    so c = (4/3) sqrt(2/pi).
    """
    return (4.0 / 3.0) * math.sqrt(2.0 / math.pi)


def _geometric_window_factor(lam: np.ndarray, N: int) -> np.ndarray:
    """(1 - lam^N) / (1 - lam), stable at lam -> 1 through the series
    N (1 - (N-1)(1-lam)/2) on the corner of :func:`_near_one`."""
    return _near_one(lam, N, 1e-6, lambda lb, x: _one_minus_power(lb, N) / x,
                     lambda x: N * (1.0 - (N - 1.0) * x / 2.0))


def correlator_r2(
    params: DiscreteQueueParams,
    N: int,
    M: int,
    branch: str = "exact",
) -> float:
    """Normalized covariance of loss counts in two windows of N steps
    whose starts are M > N steps apart.

    ``branch="exact"`` evaluates the spectral double sum
    Cov = pi(L) p^2 sum_{j>=1} w_j lam_j^{M-N} [(1-lam_j^N)/(1-lam_j)]^2
    normalized by the exact window variance. ``branch="analytic"`` evaluates
    the closed half-line asymptote

        (p N / chi_N) [exp(-M (2p-1)^2 / 2) sqrt(2/(pi M))
                       - |2p-1| erfc(|2p-1| sqrt(M/2))]
      = (p N / chi_N) sqrt(2/(pi M)) e^{-x^2} (1 - sqrt(pi) x erfcx(x)),

    x = |2p-1| sqrt(M/2), in the second form, whose bracket
    :func:`numerics.erfcx_gap` evaluates without cancellation. It is valid
    deep in the growth regime (window and separation both far below the
    crossover window and far above 1); outside it the exact branch is
    authoritative.
    """
    N = _integer("window length N", N, 1)
    M = _integer("separation M", M, N + 1)
    if branch not in ("exact", "analytic"):
        raise ValueError(f"unknown branch {branch!r}")
    if params.is_degenerate:
        raise DegenerateParamsError("correlator undefined at degenerate p")
    if branch == "analytic":
        p = params.p
        x = abs(2.0 * p - 1.0) * math.sqrt(M / 2.0)
        chi = compressibility(params, N)
        bracket = math.sqrt(2.0 / (math.pi * M)) * math.exp(-x * x) * numerics.erfcx_gap(x)
        return (p * N / chi) * bracket
    pi_L, lam, w = _modes(params)
    p = params.p
    geom = _geometric_window_factor(lam, N)
    cov = pi_L * p * p * float(np.dot(w, _power(lam, M - N) * geom * geom))
    var = _window_variance(p, N, pi_L, lam, w)
    if var == 0.0:
        raise DegenerateParamsError(
            f"correlator undefined at p={p}, L={params.L}, N={N}: the window loss "
            "variance underflows to 0 (pi(L) is below the smallest double)"
        )
    return cov / var


def critical_r2(N: int, M: int) -> float:
    """Critical-point closed form of the window correlator, c^{-1} sqrt(N/(2 pi M))."""
    return math.sqrt(N / (2.0 * math.pi * M)) / critical_coefficient()


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscretePath:
    """A sampled walk of ``n_steps`` steps, kept as its loss steps only.

    ``start`` and ``end`` are the queue lengths before the first and after
    the last step; ``loss_steps`` holds, in increasing order, the int64
    indices 0..n_steps-1 of the steps whose arrival met a full buffer.
    """

    params: DiscreteQueueParams
    seed: int
    n_steps: int
    start: int
    end: int
    loss_steps: np.ndarray = field(repr=False)

    def loss_count(self) -> int:
        return self.loss_steps.size

    def window_counts(self, N: int) -> np.ndarray:
        """Loss counts (int64) over consecutive non-overlapping windows of
        N steps; the steps after the last whole window are left out."""
        N = _integer("window length N", N, 1)
        n_windows = self.n_steps // N
        kept = self.loss_steps[: self.loss_steps.searchsorted(n_windows * N)]
        return np.bincount(kept // N, minlength=n_windows)


#: Steps drawn and walked per pass of :func:`simulate_path`: its uniforms
#: exist one chunk at a time (PCG64 gives the same stream in any chunking).
_CHUNK = 1 << 20
#: The identity map's code, which pads a chunk's bytes to a power of two.
_PAD = 256


@dataclass(frozen=True)
class _ByteMaps:
    """The walk's 8-step maps on 0..L, one per byte of up-steps (bit i set
    when step i goes up) plus the identity, code ``_PAD``.

    Eight steps compose to the clip map x -> min(max(x + shift, lo), hi),
    with shift the net step, lo = f(0) and hi = f(L). Row x - o + 1 of
    ``hit`` (flattened, ``_PAD + 1`` codes a row) has bit i set when step i,
    started at x >= o = max(L - 8, 0), meets a full buffer; row 0 is zero,
    for every start below o, which cannot reach L and step up again. The
    tables take the narrowest of int16, int32 and int64 that holds 2L, so
    that a state plus the shift of a non-constant map, below L in size (see
    :func:`_walk_chunk`), fits them: int16 up to L = 16383.
    """

    L: int
    o: int
    shift: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    hit: np.ndarray


def _byte_maps(L: int) -> _ByteMaps:
    """Walk each byte's eight steps, with both walls, from 0, from L and
    from every state in o..L, so the tables are exact at any L >= 1."""
    dtype = next(t for t in (np.int16, np.int32, np.int64) if 2 * L <= np.iinfo(t).max)
    o = max(L - 8, 0)
    up = np.unpackbits(np.arange(256, dtype=np.uint8), bitorder="little").reshape(256, 8).T == 1
    x = np.empty((L - o + 3, 256), dtype=np.int64)
    x[0], x[1], x[2:] = 0, L, np.arange(o, L + 1)[:, None]
    hit = np.zeros((L - o + 2, _PAD + 1), dtype=np.uint8)
    for i, u in enumerate(up):
        hit[1:, :256] |= ((x[2:] == L) & u).astype(np.uint8) << i
        x = np.where(u, np.minimum(x + 1, L), np.maximum(x - 1, 0))
    shift = np.append(2 * up.sum(axis=0) - 8, 0)
    return _ByteMaps(L, o, shift.astype(dtype), np.append(x[0], 0).astype(dtype),
                     np.append(x[1], L).astype(dtype), hit.reshape(-1))


def _clip(x, lo, hi):
    """min(max(x, lo), hi), in place in the array ``x``."""
    return np.minimum(np.maximum(x, lo, out=x), hi, out=x)


def _walk_chunk(l0, p, u, maps, replay=True):
    """Walk ``u.size`` steps from ``l0``, up where ``u < p`` and down
    otherwise; returns ``(end_state, loss_steps)``, the sorted int64
    indices of the steps that hit a full buffer, or ``(end_state, None)``
    without the ``replay`` that finds them.

    The steps are packed eight to a byte, whose map is a clip map (see
    :class:`_ByteMaps`), padded with identities to a power of two, and
    composed pairwise level by level (a log-depth prefix scan, Blelloch
    1990): f then g is x -> min(max(x + s_f + s_g, lo), hi) with
    lo = min(max(lo_f + s_g, lo_g), hi_g) and hi the same from hi_f. The
    sums wrap in the tables' integer type only where a shift is L or more in
    size, and such a shift sends every state of 0..L to one wall: its map is
    constant (lo = hi) and every map built on it too, whatever the shift
    reads. The root maps the start state to the end state. The
    ``replay`` carries start states back down: a left child starts where its
    parent does, a right child where its left sibling's map sends that
    state. Each byte's start state then gives its hit bits by one table
    lookup. The last ``u.size % 8`` steps run one at a time.
    """
    L = maps.L
    n8 = u.size // 8
    x = int(l0)
    hits = []
    if n8:
        codes = np.packbits(u[: 8 * n8] < p, bitorder="little")
        padded = np.full(1 << (n8 - 1).bit_length(), _PAD, dtype=np.intp)
        padded[:n8] = codes
        # mode="clip" skips the bounds check; every code is in range.
        levels = [tuple(t.take(padded, mode="clip") for t in (maps.shift, maps.lo, maps.hi))]
        while levels[-1][0].size > 1:
            s, lo, hi = levels[-1]
            s_g, lo_g, hi_g = s[1::2], lo[1::2], hi[1::2]
            # NumPy's integer arrays wrap; a shift that wraps belongs to a constant map.
            levels.append((s[::2] + s_g, _clip(lo[::2] + s_g, lo_g, hi_g),
                           _clip(hi[::2] + s_g, lo_g, hi_g)))
        (s,), (lo,), (hi,) = levels.pop()
        x0, x = x, min(max(x + int(s), int(lo)), int(hi))
        if replay:
            state = np.array([x0], dtype=maps.shift.dtype)
            for s, lo, hi in reversed(levels):
                down = np.empty((state.size, 2), dtype=state.dtype)
                down[:, 0] = state
                _clip(np.add(state, s[::2], out=down[:, 1]), lo[::2], hi[::2])
                state = down.reshape(-1)
            row = state[:n8] - (maps.o - 1)
            np.maximum(row, 0, out=row)
            bits = maps.hit.take(row * (_PAD + 1) + codes, mode="clip")
            at = np.flatnonzero(bits != 0)
            # unpackbits gives 0 or 1, so its bytes are valid booleans.
            k = np.flatnonzero(np.unpackbits(bits[at], bitorder="little").view(np.bool_))
            hits.append(8 * at[k >> 3] + (k & 7))
    tail = []
    for i, step_up in enumerate((u[8 * n8 :] < p).tolist(), 8 * n8):
        if step_up:
            if x == L:
                tail.append(i)
            else:
                x += 1
        elif x > 0:
            x -= 1
    if not replay:
        return x, None
    hits.append(np.array(tail, dtype=np.int64))
    return x, np.concatenate(hits)


def simulate_path(
    params: DiscreteQueueParams,
    n_steps: int,
    burn_in: int = 0,
    seed: int = 0,
) -> DiscretePath:
    """Sample a trajectory of the bounded walk.

    With ``burn_in == 0`` the initial state is drawn from the exact
    stationary law, so window statistics are stationary from the first step;
    with ``burn_in > 0`` the walk starts empty and the first ``burn_in``
    steps are discarded. Identical seeds give identical paths (the generator
    is the counter-based PCG64 behind a 64-bit seed).

    The uniforms are drawn into one buffer and walked one chunk at a time,
    eight steps to a byte map and each chunk by a log-depth scan of the
    byte maps (see :func:`_walk_chunk`), and the path keeps only the end
    states and the loss steps: 8 bytes per loss, none per step.
    """
    n_steps = _integer("step count n_steps", n_steps, 1)
    burn_in = _integer("burn-in length burn_in", burn_in, 0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    L, p = params.L, params.p
    maps = _byte_maps(L)
    # One buffer takes every chunk's uniforms: a fresh 8 MiB array per chunk
    # raised the monte-carlo benchmark's peak RSS from 70-76 MB to 79-82 MB.
    u = np.empty(min(_CHUNK, max(n_steps, burn_in)))
    if burn_in > 0:
        ell = 0
        for s in range(0, burn_in, _CHUNK):
            chunk = rng.random(out=u[: min(_CHUNK, burn_in - s)])
            ell, _ = _walk_chunk(ell, p, chunk, maps, replay=False)
    else:
        pi = stationary_distribution(params)
        ell = int(rng.choice(L + 1, p=pi))
    start = ell
    hits = []
    for s in range(0, n_steps, _CHUNK):
        ell, chunk_hits = _walk_chunk(ell, p, rng.random(out=u[: min(_CHUNK, n_steps - s)]), maps)
        chunk_hits += s
        hits.append(chunk_hits)
    return DiscretePath(params=params, seed=seed, n_steps=n_steps, start=start, end=ell,
                        loss_steps=np.concatenate(hits))
