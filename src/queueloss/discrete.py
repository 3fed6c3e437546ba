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
variances and correlators into closed geometric sums.
"""

from __future__ import annotations

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
    full states. Evaluated in log space so large capacities cannot overflow.
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
    logw = np.arange(L + 1) * logq
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _angles(L: int) -> np.ndarray:
    """theta_k = pi k/(L+1) for k = 1..L."""
    return (np.pi / (L + 1)) * np.arange(1, L + 1)


def _modes(params: DiscreteQueueParams) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form transient modes of D^{1/2} K D^{-1/2}, D = diag(stationary
    law): ``(pi_L, lam, w)``.

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
    return pi_L, lam, w


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
#: that :func:`_spectral_green` accepts. Measured errors stay below 6.3e-16
#: times the scale (L <= 400, p in 0.05..0.95, n in 65..1000), so below 1e-9
#: here.
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
    eigenvector rows; raises :class:`DegenerateParamsError` where the sum
    would cancel terms too large for double precision."""
    L = params.L
    _, lam, w = _modes(params)
    scale = _spectral_scale_log10(params, n, frm, to)
    if scale > _SPECTRAL_SCALE_LOG10_MAX:
        raise DegenerateParamsError(
            f"spectral sum for {n} steps {frm} -> {to} at p={params.p}, L={L} would cancel "
            f"below double precision (round-off scale 1e{scale:.0f})"
        )
    # K^n = D^{-1/2} (V Lam^n V^T) D^{1/2} with D = diag(pi); the stationary
    # mode contributes pi(to) and each transient mode u_frm u_to lam^n / |u|^2.
    theta = _angles(L)
    norm2 = _eigvec_row(params, theta, L) ** 2 / w
    rows = _eigvec_row(params, theta, frm) * _eigvec_row(params, theta, to) / norm2
    amp = float(np.dot(rows, np.power(lam, int(n))))
    ratio = math.exp(0.5 * (to - frm) * math.log(params.q))
    return float(stationary_distribution(params)[to]) + ratio * amp


def green_function(params: DiscreteQueueParams, n: int, frm: int, to: int) -> float:
    """n-step transition probability from state ``frm`` to state ``to``.

    Up to 64 steps, for a degenerate walk, and wherever the spectral sum
    would have to cancel terms too large for double precision
    (q^{(to-frm)/2} huge and n too short for the modes to decay), the row of
    ``frm`` is propagated through n steps of the walk (O(nL), the row of the
    matrix power). Otherwise the spectral sum over closed-form eigenvector
    rows is taken. The two agree to 1e-9 where they overlap.
    """
    n = _integer("step count n", n, 0)
    frm, to = _integer("state frm", frm, 0), _integer("state to", to, 0)
    L = params.L
    if not (frm <= L and to <= L):
        raise ValueError("states must lie in 0..L")
    if (n <= 64 or params.is_degenerate
            or _spectral_scale_log10(params, n, frm, to) > _SPECTRAL_SCALE_LOG10_MAX):
        return float(_propagate_row(params, n, frm)[to])
    return _spectral_green(params, n, frm, to)


def mean_loss_rate_exact(params: DiscreteQueueParams) -> float:
    """Mean packets discarded per step in the stationary regime.

    Equals the stationary weight of the full state times the arrival
    probability; the closed form p (q^{L+1} - q^L)/(q^{L+1} - 1) is evaluated
    in the overflow-free rearrangement p (q-1)/(q - q^{-L}), with the limit
    value p/(L+1) at p = 1/2.
    """
    p, L = params.p, params.L
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    q = params.q
    if q == 1.0:
        return p / (L + 1.0)
    logq = math.log(q)
    rate = p * math.expm1(logq) / (q - math.exp(-L * logq))
    return max(rate, 0.0)


def _window_weight_sum(lam: np.ndarray, N: int) -> np.ndarray:
    """sum_{k=0}^{N-2} (N-1-k) lam^k, stable through lam -> 1.

    Direct form [(N-1)(1-lam) - lam(1 - lam^{N-1})] / (1-lam)^2 cancels badly
    when (N-1)(1-lam) is small; a 4-term Taylor expansion in (1-lam) covers
    that corner.
    """
    lam = np.asarray(lam, dtype=float)
    x = 1.0 - lam
    nm1 = float(N - 1)
    out = np.empty_like(lam)
    small = nm1 * np.abs(x) < 1e-3
    if np.any(small):
        xs = x[small]
        c2 = nm1 * (N - 2.0) / 2.0
        c3 = c2 * (N - 3.0) / 3.0
        c4 = c3 * (N - 4.0) / 4.0
        c5 = c4 * (N - 5.0) / 5.0
        out[small] = (c2 + nm1) - (c3 + c2) * xs + (c4 + c3) * xs**2 - (c5 + c4) * xs**3
    big = ~small
    if np.any(big):
        lb = lam[big]
        xb = x[big]
        lam_pow = np.power(lb, N - 1)
        out[big] = (nm1 * xb - lb * (1.0 - lam_pow)) / (xb * xb)
    return out


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
    """(1 - lam^N) / (1 - lam), stable at lam -> 1."""
    lam = np.asarray(lam, dtype=float)
    x = 1.0 - lam
    out = np.empty_like(lam)
    small = N * np.abs(x) < 1e-6
    if np.any(small):
        xs = x[small]
        out[small] = N * (1.0 - (N - 1.0) * xs / 2.0)
    big = ~small
    if np.any(big):
        out[big] = (1.0 - np.power(lam[big], N)) / x[big]
    return out


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
    if branch == "analytic":
        p = params.p
        x = abs(2.0 * p - 1.0) * math.sqrt(M / 2.0)
        chi = compressibility(params, N)
        bracket = math.sqrt(2.0 / (math.pi * M)) * math.exp(-x * x) * numerics.erfcx_gap(x)
        return (p * N / chi) * bracket
    if branch != "exact":
        raise ValueError(f"unknown branch {branch!r}")
    if params.is_degenerate:
        raise DegenerateParamsError("correlator undefined at degenerate p")
    pi_L, lam, w = _modes(params)
    p = params.p
    geom = _geometric_window_factor(lam, N)
    cov = pi_L * p * p * float(np.dot(w, np.power(lam, M - N) * geom * geom))
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
#: Steps per block of the clip-map scan; near the square root of a chunk,
#: so the row passes and the scalar pass over the block maps cost alike.
_BLOCK = 256


def _walk_chunk(l0, L, p, u, replay=True):
    """Walk ``u.size`` steps from ``l0``, up where ``u < p`` and down
    otherwise; returns ``(end_state, loss_steps)``, the sorted indices of
    the steps that hit a full buffer, or ``(end_state, None)`` without the
    ``replay`` that finds them.

    A step is the clip map x -> min(max(x + c, 0), L), c = +-1, and clip
    maps compose to clip maps x -> min(max(x + C, lo), hi). The steps are
    laid out as ``b`` rows of one step from each of ``n/b`` contiguous
    blocks: ``b`` whole-row passes compose each block's map, a scalar pass
    over the block maps gives each block's start state, and ``b`` more row
    passes replay the states in one row, marking the hits.
    """
    n = u.size
    b = min(_BLOCK, math.isqrt(n - 1) + 1)
    nb = -(-n // b)
    # int16 holds every state and block shift up to L = 32766.
    dtype = np.int16 if L < np.iinfo(np.int16).max else np.int64
    # Steps +1/-1, padded with 0 (the identity on 0..L, which never hits)
    # to whole blocks.
    steps = np.zeros(nb * b, dtype=np.int8)
    steps[:n] = u < p
    steps[:n] += steps[:n] - 1
    rows = np.ascontiguousarray(steps.reshape(nb, b).T)
    shift = np.zeros(nb, dtype=dtype)
    bounds = np.zeros((2, nb), dtype=dtype)
    bounds[1] = L
    for c in rows:
        shift += c
        bounds += c
        np.maximum(bounds, 0, out=bounds)
        np.minimum(bounds, L, out=bounds)
    starts = []
    x = int(l0)
    for s, lo, hi in zip(shift.tolist(), *bounds.tolist()):
        starts.append(x)
        x = min(max(x + s, lo), hi)
    if not replay:
        return x, None
    full = np.empty((b, nb), dtype=np.bool_)
    state = np.array(starts, dtype=dtype)
    for c, hit in zip(rows, full):
        state += c
        np.greater(state, L, out=hit)
        np.maximum(state, 0, out=state)
        np.minimum(state, L, out=state)
    # Column j of ``full`` is block j, so its transpose runs in step order.
    return x, np.flatnonzero(full.T)


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

    The uniforms are drawn and walked one chunk at a time, each chunk as
    blocks of composed clip maps (see :func:`_walk_chunk`), and the path
    keeps only the end states and the loss steps: 8 bytes per loss, none
    per step.
    """
    n_steps = _integer("step count n_steps", n_steps, 1)
    burn_in = _integer("burn-in length burn_in", burn_in, 0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    L, p = params.L, params.p
    if burn_in > 0:
        ell = 0
        for s in range(0, burn_in, _CHUNK):
            ell, _ = _walk_chunk(ell, L, p, rng.random(min(_CHUNK, burn_in - s)), replay=False)
    else:
        pi = stationary_distribution(params)
        ell = int(rng.choice(L + 1, p=pi))
    start = ell
    hits = []
    for s in range(0, n_steps, _CHUNK):
        ell, chunk_hits = _walk_chunk(ell, L, p, rng.random(min(_CHUNK, n_steps - s)))
        chunk_hits += s
        hits.append(chunk_hits)
    return DiscretePath(params=params, seed=seed, n_steps=n_steps, start=start, end=ell,
                        loss_steps=np.concatenate(hits))
