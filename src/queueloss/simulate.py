"""Packet-level Monte Carlo of the continuum buffer model.

Event-driven execution of the stated service discipline: packets arrive as
a renewal process with random sizes (everything normalized to buffer = 1),
join the queue when they fit and are dropped whole otherwise, and the queue
drains deterministically at the output rate between arrivals, clipped at
empty. Being event-driven, the trajectory between arrivals is exact
piecewise-linear dynamics with no discretization error.

Runs stream their results onto a uniform sampling grid (queue level,
cumulative lost volume, cumulative idle time), which is what the
drift/diffusion estimator and the window extractor consume; full per-event
records are optional because long runs would not fit in memory. The module
is pure computation: it writes no files (the CSV exports live in
:mod:`queueloss.cli`).

One kernel call runs the whole simulation, drawing arrivals in fixed-size
chunks. It runs arrivals near a wall one at a time and the rest in free-path
blocks: between wall contacts the queue level is a running sum of packet
sizes and drained volumes and the clock a running sum of interarrival
times, so a block of arrivals is two cumulative sums up to its first drop
or idle clip, which then runs as a single step. Blocks start after a few
quiet arrivals away from the walls and double while they stay free. The
result is the per-arrival loop's to the bit, except that the offered and
serviced volume totals are summed in larger steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Distribution",
    "TrafficModel",
    "EventLog",
    "LossSample",
    "DriftDiffusionEstimate",
    "InsufficientDataError",
    "run",
    "estimate_drift_diffusion",
    "window_losses",
]

_CHUNK = 1 << 20


class InsufficientDataError(RuntimeError):
    """Raised when a log does not contain enough samples for an estimator."""


@dataclass(frozen=True)
class Distribution:
    """Interarrival or packet-size law: exponential, deterministic or uniform."""

    kind: str
    mean: float | None = None
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if self.kind in ("exponential", "deterministic"):
            if self.mean is None or not (math.isfinite(self.mean) and self.mean > 0.0):
                raise ValueError(f"{self.kind} law needs a positive mean")
        elif self.kind == "uniform":
            if self.low is None or self.high is None:
                raise ValueError("uniform law needs low and high")
            if not 0.0 <= self.low <= self.high:
                raise ValueError("uniform law needs 0 <= low <= high")
            if not (math.isfinite(self.high) and self.high > 0.0):
                raise ValueError("uniform law needs a finite positive high")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @property
    def mean_value(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        return float(self.mean)

    @property
    def variance(self) -> float:
        if self.kind == "exponential":
            return float(self.mean) ** 2
        if self.kind == "uniform":
            return (self.high - self.low) ** 2 / 12.0
        return 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws; for the deterministic law a read-only zero-stride
        view of its mean, which takes no memory."""
        if self.kind == "exponential":
            return rng.exponential(self.mean, n)
        if self.kind == "deterministic":
            return np.broadcast_to(np.float64(self.mean), (n,))
        return rng.uniform(self.low, self.high, n)


@dataclass(frozen=True)
class TrafficModel:
    """Arrival law, packet-size law, and output rate (buffer units per time)."""

    interarrival: Distribution
    packet_size: Distribution
    r_out: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_out) and self.r_out > 0.0):
            raise ValueError("output rate must be positive")
        mean_size = self.packet_size.mean_value
        if mean_size > 0.05:
            raise ValueError(
                f"mean packet size {mean_size} exceeds 0.05 of the buffer; "
                "the continuum reduction needs small packets"
            )
        if self.packet_size.kind == "uniform" and self.packet_size.high > 0.5:
            raise ValueError("maximum packet size must stay well below the buffer")

    @property
    def eta0(self) -> float:
        """Time to drain a full buffer with no arrivals, 1 / r_out."""
        return 1.0 / self.r_out

    @property
    def input_rate(self) -> float:
        """Mean offered traffic per unit time, in buffer units."""
        return self.packet_size.mean_value / self.interarrival.mean_value

    def criticality_gap(self) -> float:
        """|r_in * eta0 - 1|; small values indicate the near-critical regime.

        Reported for diagnostics, never enforced.
        """
        return abs(self.input_rate * self.eta0 - 1.0)


#: Quiet arrivals (neither a drop nor an idle clip) the scalar steps wait
#: for before speculating on a block: wall events cluster a few apart.
_QUIET = 4
#: Nor before the queue is this many mean arrival-plus-drain moves from both
#: walls: nearer, a block would most likely end within a few arrivals.
_WALL_MOVES = 2.0
#: Arrivals converted to Python floats at a time for the scalar steps, whose
#: arithmetic on NumPy scalars would cost several times as much.
_SCALAR_RUN = 32
#: First speculative block: a block's fixed cost is that of ~40 scalar steps.
_BLOCK_MIN = 256
#: Largest speculative block, so an event late in it wastes a bounded cumsum.
_BLOCK_MAX = 1 << 13


def _event_columns(n):
    """Zeroed per-arrival record columns for ``n`` arrivals."""
    return {"time": np.zeros(n), "size": np.zeros(n), "accepted": np.zeros(n, dtype=np.bool_),
            "queue_before": np.zeros(n), "queue_after": np.zeros(n)}


def _record_capacity(traffic, duration):
    """Arrivals the event record of a run is first sized for: the mean
    renewal count duration/mean plus six of its standard deviations,
    sqrt(duration/mean) std/mean, and a few spare."""
    law = traffic.interarrival
    n = duration / law.mean_value
    return int(n + 6.0 * math.sqrt(n * law.variance) / law.mean_value) + 64


def _grow(ev, n):
    """The record columns ``ev`` copied into zeroed columns for ``n``
    arrivals, or for a quarter more than ``ev`` holds if that is more."""
    grown = _event_columns(max(n, ev["time"].size * 5 // 4))
    for k, c in ev.items():
        grown[k][: c.size] = c
    return grown


def _kernel(traffic, rng, duration, sample_dt, ell, queue_samples, cum_lost, cum_idle, record):
    """Run the whole simulation from level ``ell`` at t = 0; returns
    ``(final_queue, arrived, serviced, dropped, idle_time, n_arrivals,
    n_drops, events)`` and fills the grid arrays in place.

    Arrivals are drawn ``_CHUNK`` at a time, interarrival times first. With
    ``record`` true, ``events`` is the per-arrival record, written straight
    into one set of columns sized by :func:`_record_capacity` and grown
    (:func:`_grow`) only when the next arrivals would overflow them;
    otherwise None.

    Near a wall every arrival is a scalar step. Between wall contacts the
    queue follows the free path ell -> ell + p -> ell + p - eta r_out, the
    sequential cumsum of [ell, p0, -eta0 r_out, p1, -eta1 r_out, ...]
    (x - y == x + (-y) exactly), and the arrival times are the cumsum of
    [t, eta0, eta1, ...]. So once the scalar steps have gone quiet away
    from the walls, the kernel takes a block of arrivals at once, finds the
    first drop (ell + p > 1), idle clip (ell + p - eta r_out < 0) or arrival
    ending the run, commits the free arrivals before it (the grid samples
    by ``searchsorted`` of the grid times on the arrival times) and hands
    that arrival to the scalar step. Blocks double while they stay free.
    Levels, times, grid samples, drops and idle time, with their
    compensation terms, are thus the per-arrival loop's to the bit. The
    offered volume enters its compensated sum once per chunk and a block's
    serviced volume once per block, so those two totals may differ from a
    per-arrival sum in the last bits.
    """
    r_out = traffic.r_out
    if record:
        ev = _event_columns(_record_capacity(traffic, duration))
        ev_time, ev_size, ev_accepted, ev_q_before, ev_q_after = ev.values()
    t = serviced = dropped = arrived = idle = 0.0
    # Kahan compensation terms: the volume totals grow to ~duration while the
    # per-event increments are tiny, and the conservation identity is checked
    # at 1e-9, which naive accumulation cannot hold over 1e7 events.
    c_serv = c_drop = c_arr = c_idle = 0.0
    n_drops = n_arrivals = 0
    n_grid = queue_samples.size
    grid_times = np.arange(n_grid) * sample_dt
    grid_idx = 0
    next_tg = 0.0
    path = np.empty(2 * _BLOCK_MAX + 1)
    drain_buf = np.empty(_BLOCK_MAX)
    times = np.empty(_BLOCK_MAX + 1)
    while t < duration:
        etas = traffic.interarrival.sample(rng, _CHUNK)
        sizes = traffic.packet_size.sample(rng, _CHUNK)
        # Reset per chunk: block placement, and with it the last bits of the
        # serviced total, depends on them.
        gap = _WALL_MOVES * (float(sizes.mean()) + r_out * float(etas.mean()))
        quiet = 0
        block = _BLOCK_MIN
        n = _CHUNK
        i = 0
        while i < n:
            if quiet < _QUIET or not gap <= ell <= 1.0 - gap:
                stop = min(i + _SCALAR_RUN, n)
                if record and n_arrivals + stop > ev_time.size:
                    ev = _grow(ev, n_arrivals + stop)
                    ev_time, ev_size, ev_accepted, ev_q_before, ev_q_after = ev.values()
                for p, eta in zip(sizes[i:stop].tolist(), etas[i:stop].tolist()):
                    quiet += 1
                    accepted = ell + p <= 1.0
                    if accepted:
                        ell_plus = ell + p
                    else:
                        ell_plus = ell
                        yk = p - c_drop
                        tk = dropped + yk
                        c_drop = (tk - dropped) - yk
                        dropped = tk
                        n_drops += 1
                        quiet = 0
                    if record:
                        row = n_arrivals + i
                        ev_time[row] = t
                        ev_size[row] = p
                        ev_accepted[row] = accepted
                        ev_q_before[row] = ell
                        ev_q_after[row] = ell_plus
                    seg_end = t + eta
                    while next_tg <= seg_end:
                        dtg = next_tg - t
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
                        next_tg = grid_idx * sample_dt if grid_idx < n_grid else math.inf
                    drained = eta * r_out
                    if drained > ell_plus:
                        yk = (eta - ell_plus / r_out) - c_idle
                        tk = idle + yk
                        c_idle = (tk - idle) - yk
                        idle = tk
                        drained = ell_plus
                        quiet = 0
                    yk = drained - c_serv
                    tk = serviced + yk
                    c_serv = (tk - serviced) - yk
                    serviced = tk
                    ell = ell_plus - drained
                    t = seg_end
                    i += 1
                    if t >= duration:
                        n = i  # the run is over: consume nothing more
                        break
                    if quiet >= _QUIET and gap <= ell <= 1.0 - gap:
                        block = _BLOCK_MIN
                        break
                continue
            k = min(block, n - i)
            free = path[: 2 * k + 1]
            free[0] = ell
            free[1::2] = sizes[i : i + k]
            drain = np.multiply(etas[i : i + k], r_out, out=drain_buf[:k])
            np.negative(drain, out=free[2::2])
            np.add.accumulate(free, out=free)
            clock = times[: k + 1]
            clock[0] = t
            clock[1:] = etas[i : i + k]
            np.add.accumulate(clock, out=clock)
            # From ell in [0, 1], the first level outside [0, 1] is the first
            # drop (ell + p > 1) or idle clip (ell + p - eta r_out < 0).
            hit = np.logical_or(free[1:] > 1.0, free[1:] < 0.0)
            j = int(hit.argmax())
            e = j // 2 if hit[j] else k
            if clock[k] >= duration:
                e = min(e, int(clock[1:].searchsorted(duration)))
            if e < k:
                quiet = 0
            else:
                block = min(2 * block, _BLOCK_MAX)
            if e == 0:
                continue
            yk = float(drain[:e].sum()) - c_serv
            tk = serviced + yk
            c_serv = (tk - serviced) - yk
            serviced = tk
            ell_plus = free[1 : 2 * e : 2]
            if record:
                row = n_arrivals + i
                if row + e > ev_time.size:
                    ev = _grow(ev, row + e)
                    ev_time, ev_size, ev_accepted, ev_q_before, ev_q_after = ev.values()
                ev_time[row : row + e] = clock[:e]
                ev_size[row : row + e] = sizes[i : i + e]
                ev_accepted[row : row + e] = True
                ev_q_before[row : row + e] = free[0 : 2 * e : 2]
                ev_q_after[row : row + e] = ell_plus
            t = float(clock[e])
            if next_tg <= t:
                g_next = grid_idx + int(grid_times[grid_idx:].searchsorted(t, side="right"))
                tg = grid_times[grid_idx:g_next]
                seg = clock[1 : e + 1].searchsorted(tg)
                dtg = tg - clock[seg]
                lp = ell_plus[seg]
                q = lp - dtg * r_out
                queue_samples[grid_idx:g_next] = np.where(q < 0.0, 0.0, q)
                cum_lost[grid_idx:g_next] = dropped
                part_idle = dtg - lp / r_out
                np.add(idle, np.where(part_idle < 0.0, 0.0, part_idle), out=cum_idle[grid_idx:g_next])
                grid_idx = g_next
                next_tg = grid_idx * sample_dt if grid_idx < n_grid else math.inf
            ell = float(free[2 * e])
            i += e
        yk = float(sizes[:i].sum()) - c_arr
        tk = arrived + yk
        c_arr = (tk - arrived) - yk
        arrived = tk
        n_arrivals += i
    # Views of the first n_arrivals rows: the few spare rows stay allocated
    # with them rather than paying for a copy of the whole record.
    events = {k: c[:n_arrivals] for k, c in ev.items()} if record else None
    return ell, arrived, serviced, dropped, idle, n_arrivals, n_drops, events


@dataclass
class EventLog:
    """Streamed summary of one simulation run.

    ``queue_samples``, ``cum_lost`` and ``cum_idle`` live on the uniform
    grid ``k * sample_dt``; ``events`` holds the optional full per-arrival
    record ``(time, size, accepted, queue_before, queue_after)``.
    """

    traffic: TrafficModel
    duration: float
    seed: int
    sample_dt: float
    initial_queue: float
    final_queue: float
    arrived: float
    serviced: float
    dropped: float
    idle_time: float
    n_arrivals: int
    n_drops: int
    queue_samples: np.ndarray = field(repr=False)
    cum_lost: np.ndarray = field(repr=False)
    cum_idle: np.ndarray = field(repr=False)
    events: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def conservation_residual(self) -> float:
        """arrived - (serviced + dropped + final - initial); ~0 by volume
        conservation."""
        return self.arrived - (
            self.serviced + self.dropped + self.final_queue - self.initial_queue
        )

    def summary(self) -> dict[str, float]:
        return {
            "duration": self.duration,
            "arrived": self.arrived,
            "serviced": self.serviced,
            "dropped": self.dropped,
            "idle_time": self.idle_time,
            "n_arrivals": float(self.n_arrivals),
            "n_drops": float(self.n_drops),
            "final_queue": self.final_queue,
        }


def run(
    traffic: TrafficModel,
    duration: float,
    seed: int,
    record_events: bool = False,
    sample_dt: float | None = None,
    initial_queue: float = 0.0,
) -> EventLog:
    """Execute the event-driven simulation for ``duration`` time units.

    The first packet arrives at t = 0. Identical arguments give bit-identical
    logs (PCG64 behind a 64-bit seed, chunked draws in fixed order). One call
    of the free-path block kernel described in the module docstring runs
    every arrival. ``sample_dt`` defaults to 20 mean interarrival times, the
    coarsest grid the drift estimator accepts.
    """
    mean_eta = traffic.interarrival.mean_value
    if not math.isfinite(duration):
        raise ValueError("duration must be finite")
    if duration < 50.0 * mean_eta:
        raise ValueError("duration must cover many interarrival times")
    if sample_dt is None:
        sample_dt = 20.0 * mean_eta
    elif not (math.isfinite(sample_dt) and sample_dt > 0.0):
        raise ValueError("sample_dt must be finite and positive")
    if not 0.0 <= initial_queue <= 1.0:
        raise ValueError("initial_queue must lie in [0, 1]")
    n_grid = int(math.floor(duration / sample_dt)) + 1
    queue_samples = np.zeros(n_grid)
    cum_lost = np.zeros(n_grid)
    cum_idle = np.zeros(n_grid)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    final, arrived, serviced, dropped, idle, n_arrivals, n_drops, events = _kernel(
        traffic, rng, duration, sample_dt, float(initial_queue), queue_samples, cum_lost,
        cum_idle, record_events)
    return EventLog(
        traffic=traffic,
        duration=duration,
        seed=seed,
        sample_dt=sample_dt,
        initial_queue=initial_queue,
        final_queue=final,
        arrived=arrived,
        serviced=serviced,
        dropped=dropped,
        idle_time=idle,
        n_arrivals=n_arrivals,
        n_drops=n_drops,
        queue_samples=queue_samples,
        cum_lost=cum_lost,
        cum_idle=cum_idle,
        events=events,
    )


@dataclass(frozen=True)
class DriftDiffusionEstimate:
    """Coarse-grained drift and diffusion with standard errors."""

    a: float
    sigma2: float
    a_se: float
    sigma2_se: float
    dt: float
    n_samples: int

    def as_fp_params(self):
        from .fokker_planck import FpParams

        return FpParams(a=self.a, sigma2=self.sigma2)


def estimate_drift_diffusion(
    log: EventLog,
    dt: float,
    interior: tuple[float, float] = (0.1, 0.9),
) -> DriftDiffusionEstimate:
    """Estimate (a, sigma^2) from coarse-grained queue increments.

    Only increments whose endpoints both lie in the interior band are used,
    so the walls do not bias the free-space moments. ``dt`` must be at
    least 20 mean interarrival times (and is rounded to the sampling grid).
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    floor = 20.0 * log.traffic.interarrival.mean_value
    if dt < floor * (1.0 - 1e-9):
        raise ValueError(
            f"dt={dt:.4g} is below 20 mean interarrival times ({floor:.4g})"
        )
    stride = max(int(round(dt / log.sample_dt)), 1)
    dt_eff = stride * log.sample_dt
    q = log.queue_samples[::stride]
    lo, hi = interior
    # Condition on the increment's starting point only: requiring the end
    # point to stay in the band would censor large excursions and bias the
    # variance low. The band margin keeps actual wall contact within dt rare.
    mask = (q[:-1] >= lo) & (q[:-1] <= hi)
    dq = np.diff(q)[mask]
    n = dq.size
    if n < 50:
        raise InsufficientDataError(
            f"only {n} interior increments; need at least 50"
        )
    mean = float(dq.mean())
    var = float(dq.var(ddof=1))
    a_hat = mean / dt_eff
    s2_hat = var / dt_eff
    a_se = math.sqrt(var / n) / dt_eff
    centered = dq - mean
    m2 = float((centered**2).mean())
    m4 = float((centered**4).mean())
    s2_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n) / dt_eff
    return DriftDiffusionEstimate(
        a=a_hat, sigma2=s2_hat, a_se=a_se, sigma2_se=s2_se, dt=dt_eff, n_samples=n
    )


@dataclass(frozen=True)
class LossSample:
    """Lost volume per observation window, plus the idle time alongside."""

    window_length: float
    spacing: float
    t_start: float
    values: np.ndarray = field(repr=False)
    idle: np.ndarray = field(repr=False)

    @property
    def n_windows(self) -> int:
        return self.values.size

    def window_starts(self) -> np.ndarray:
        step = self.window_length + self.spacing
        return self.t_start + step * np.arange(self.n_windows)


def _rough_relaxation(log: EventLog) -> float:
    dq = np.diff(log.queue_samples)
    var_rate = float(dq.var()) / log.sample_dt
    if var_rate <= 0.0:
        return 0.0
    return 2.0 / var_rate


def window_losses(
    log: EventLog,
    t_window: float,
    spacing: float = 0.0,
    warmup: float | None = None,
) -> LossSample:
    """Lost volume per window of ``t_window`` after a stationarity warm-up.

    Windows are aligned to the sampling grid, so the sums are exact event
    totals. The default warm-up is ten relaxation times 2/sigma^2 (rough
    estimate from the log itself), capped at a third of the run.
    """
    if not math.isfinite(t_window):
        raise ValueError(f"window length must be finite, got {t_window}")
    if t_window <= 0.0:
        raise ValueError("window length must be positive")
    if t_window > log.duration / 10.0:
        raise ValueError("window length must be below a tenth of the run")
    if not (math.isfinite(spacing) and spacing >= 0.0):
        raise ValueError("spacing must be finite and non-negative")
    if warmup is not None and not (math.isfinite(warmup) and warmup >= 0.0):
        raise ValueError("warmup must be finite and non-negative")
    dt = log.sample_dt
    k = max(int(round(t_window / dt)), 1)
    s = int(round(spacing / dt))
    if warmup is None:
        warmup = min(10.0 * _rough_relaxation(log), log.duration / 3.0)
    start = int(math.ceil(warmup / dt))
    n_grid = log.queue_samples.size
    step = k + s
    n_windows = (n_grid - 1 - start) // step
    if n_windows < 1:
        raise InsufficientDataError("run too short for any window after warm-up")
    starts = start + step * np.arange(n_windows)
    values = log.cum_lost[starts + k] - log.cum_lost[starts]
    idle = log.cum_idle[starts + k] - log.cum_idle[starts]
    return LossSample(
        window_length=k * dt,
        spacing=s * dt,
        t_start=start * dt,
        values=values,
        idle=idle,
    )
