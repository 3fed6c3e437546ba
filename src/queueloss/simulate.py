"""Packet-level Monte Carlo of the continuum buffer model.

Event-driven execution of the stated service discipline: packets arrive as
a renewal process with random sizes (everything normalized to buffer = 1),
join the queue when they fit and are dropped whole otherwise, and the queue
drains deterministically at the output rate between arrivals, clipped at
empty. Being event-driven, the trajectory between arrivals is exact
piecewise-linear dynamics with no discretization error.

Runs stream their results onto a uniform sampling grid (queue level,
cumulative lost volume, cumulative idle time), which is what the
drift/diffusion estimator and the window extractor consume; no per-arrival
record is kept. The module is pure computation: it writes no files (the CSV
export lives in :mod:`queueloss.cli`).

One kernel call runs the whole simulation, one sub-chunk of arrivals at a
time: it draws the sub-chunk's interarrival times and packet sizes, each
from its own random stream, and works through them. Per sub-chunk one
vectorised pass forms the arrival clock (a running sum of interarrival
times, which never resets), the drained volumes and the level increments.
The arrivals then run in order as free-path blocks: between wall contacts
the queue level is a running sum of packet sizes and drained volumes, so a
block of arrivals is one cumulative sum from the current level up to its
first drop or idle clip. The rest of that wall's event cluster over the
block's free path is settled in a few array passes. Idle clips are the
free path's new running minima (the Lindley recursion), and each segment
between two clips is summed again from 0.0; with a constant packet size
the drops are where a running maximum steps up, and the levels are summed
again with the dropped packets' increments set to 0.0. Both passes verify
the levels they produce against the drop and clip rules and commit only
what agrees. Only an arrival that both drops and clips, and drops under a
random size law, run one at a time, the latter until the queue is a few
moves below the top wall. All of these only note the arrivals that drop or
clip. One block per sub-chunk then books those events in arrival order
(the lost volume and idle time as running totals, and each clip's drain
cut to the level it drained), and a last vectorised pass samples the grid
from the clock, the levels and those running totals.
The result is the per-arrival loop's to the bit, except that the offered
and serviced volume totals are summed in larger steps: the serviced volume
of a sub-chunk is one sum of its drains, each idle clip's cut to the level
it drained.
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

#: The coarse-graining scale, in mean interarrival times: the default
#: sampling step of :func:`run` and the shortest increment that
#: :func:`estimate_drift_diffusion` accepts.
_COARSE_ARRIVALS = 20.0


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


#: The scalar steps of a drop under a random size law hand back to blocks
#: once the queue is this many mean arrival-plus-drain moves below the top
#: wall: nearer, a block would most likely end within a few arrivals.
_WALL_MOVES = 2.0
#: Arrivals converted to Python floats at a time for the scalar steps, whose
#: arithmetic on NumPy scalars would cost several times as much.
_SCALAR_RUN = 32
#: First free-path block after scalar steps: a block's fixed cost is that of
#: ~40 scalar steps. Blocks double while they stay free, and after a wall
#: pass one runs to the sub-chunk's end, so the next pass sees all of it.
_BLOCK_MIN = 256
#: Segments between idle clips of at most this many level increments are
#: accumulated together, as the zero-padded columns of one 2-D accumulate;
#: each longer one takes an accumulate call of its own. 64 to 512 rows ran
#: slower at r_out = 1.02, where the padded area grows with the columns.
_SEG_ROWS = 32
#: Arrivals drawn at a time, whose clock, drains, level increments and grid
#: samples are formed in one vectorised pass each, so that a block only
#: accumulates levels; blocks do not cross a sub-chunk's end. The size sets
#: the speed and how far a run draws past its last arrival, never which
#: values it draws. At 2^13 the level and increment buffers hold as many
#: doubles as the largest block path, 2^14 + 1. 2^14 ran the kernel about 3%
#: faster, but its larger buffers raised the ``monte-carlo`` benchmark's peak
#: RSS to 72.6-74.0 MB in 8 of 10 runs; at this size it stays within the
#: 69.6-73.9 MB that the per-block buffers gave.
_SUB = 1 << 13


def _compensated(total, comp, values, totals=None):
    """Add ``values`` to ``total`` one at a time with Kahan compensation
    ``comp``, appending each running total to ``totals`` if given; returns
    the new ``(total, comp)``."""
    for y in values:
        yk = y - comp
        tk = total + yk
        comp = (tk - total) - yk
        total = tk
        if totals is not None:
            totals.append(total)
    return total, comp


def _clip_levels(step_buf, level_buf, e, end, pad, one_bits):
    """Settle the idle-clip cluster that starts with the clip of arrival
    ``e``, over the free path up to arrival ``end``; returns the clips the
    per-arrival loop makes, ``e`` first, through the last one verified.

    The loop's queue is the free path reflected at 0 (the Lindley
    recursion), so it clips wherever the free path's drained level sets a
    new running minimum. Each segment between two such clips is accumulated
    from 0.0 into ``level_buf``, where the loop restarts it: segments of at
    most ``_SEG_ROWS`` increments as the zero-padded columns of a 2-D
    accumulate (``step_buf[pad]`` holds the 0.0), in batches whose padded
    area fits a path buffer, and longer ones one call each. A segment is
    verified when its levels stay inside [0, 1] up to its clip's negative
    drained level.
    """
    # Level before e, then the drained levels: the first is below 0.
    floor = np.minimum.accumulate(level_buf[2 * e : 2 * end + 1 : 2])
    clips = (floor[1:] < floor[:-1]).nonzero()[0]
    clips += e
    if clips.size == 1:
        return clips
    starts = 2 * clips[:-1] + 3
    lengths = clips[1:] - clips[:-1]
    lengths *= 2
    short = lengths <= _SEG_ROWS
    rows = lengths[short]
    if rows.size:
        firsts = starts[short]
        row = np.arange(int(rows.max()))[:, None]
        width = pad // row.size
        for c in range(0, rows.size, width):
            idx = firsts[c : c + width] + row
            idx[row >= rows[c : c + width]] = pad
            level_buf.put(idx, np.add.accumulate(step_buf.take(idx), axis=0))
    for a, b in zip(starts[~short].tolist(), (starts + lengths)[~short].tolist()):
        np.add.accumulate(step_buf[a:b], out=level_buf[a:b])
    # Levels outside [0, 1] must be exactly the clips' drained levels.
    lo = int(starts[0])
    hits = np.greater(level_buf[lo : 2 * int(clips[-1]) + 3].view(np.uint64), one_bits)
    hits = hits.nonzero()[0]
    hits += lo
    expected = starts + lengths
    expected -= 1
    n = min(hits.size, expected.size)
    wrong = np.not_equal(hits[:n], expected[:n]).nonzero()[0]
    return clips[: int(wrong[0]) + 1 if wrong.size else n + 1]


def _drop_levels(step_buf, level_buf, e, end, size, one_bits):
    """Settle the drop cluster of constant-size packets that starts with the
    drop of arrival ``e``, over the free path up to arrival ``end``.

    Through arrival j the loop has dropped D_j = max_{k<=j} ceil((U_k -
    1) / size) packets, U being the free path's up-levels, as long as the
    queue does not empty. The levels follow with each dropped packet's
    increment set to 0.0 (ell + 0.0 == ell), accumulated from the exact
    level before ``e`` into ``level_buf``. Returns the number of arrivals
    from ``e`` whose levels the loop would reach too (at least one: each
    predicted drop's packet does not fit, and every level stays in [0, 1]),
    and the drops among them.
    """
    lo, hi = 2 * e, 2 * end + 1
    owed = np.maximum.accumulate(level_buf[lo + 1 : hi : 2])
    owed -= 1.0
    owed /= size
    np.ceil(owed, out=owed)
    new = np.empty(owed.size, dtype=np.bool_)
    new[0] = True
    np.not_equal(owed[1:], owed[:-1], out=new[1:])
    drops = new.nonzero()[0]
    drops += e
    packets = 2 * drops + 1
    step_buf[packets] = 0.0
    step_buf[lo] = level_buf[lo]
    np.add.accumulate(step_buf[lo:hi], out=level_buf[lo:hi])
    step_buf[packets] = size
    # A missed drop leaves an up-level above 1.0, a missed clip a drained
    # level below 0.0; a predicted drop must not fit.
    out = np.greater(level_buf[lo + 1 : hi].view(np.uint64), one_bits)
    f = int(out.argmax())
    f = f // 2 if out[f] else end - e
    fits = np.less_equal(level_buf[packets - 1] + size, 1.0)
    q = int(fits.argmax())
    if fits[q]:
        f = min(f, int(drops[q]) - e)
    return f, drops[: int(drops.searchsorted(e + f))]


def _kernel(traffic, gap_rng, size_rng, duration, sample_dt, ell, queue_samples, cum_lost,
            cum_idle):
    """Run the whole simulation from level ``ell`` at t = 0; returns
    ``(final_queue, arrived, serviced, dropped, idle_time, n_arrivals,
    n_drops, scalar_arrivals)`` and fills the grid arrays in place.

    One loop draws and works through ``_SUB`` arrivals at a time,
    interarrival times from ``gap_rng`` and packet sizes from ``size_rng``.
    A generator gives the same values however its draws are split, so no
    constant of the kernel decides which values a run gets. Per sub-chunk
    one vectorised pass forms the arrival clock, the cumsum of [t, eta0,
    eta1, ...] (time never resets, so these are the loop's times to the
    bit, and the arrival whose interval reaches ``duration`` ends the run),
    the drains eta r_out and the level increments [., p0, -d0, p1, -d1,
    ...] (x - y == x + (-y) exactly).

    The level pass then runs the sub-chunk's arrivals in order, storing
    each arrival's level after its packet, ell_plus. Between wall contacts
    the queue follows the free path ell -> ell + p -> ell + p - d, the
    sequential cumsum of ell and the increments; so a block of arrivals
    writes ell into the increment slot before its first arrival,
    accumulates from there into the level array and commits the arrivals
    before the first drop (ell + p > 1) or idle clip (ell + p - d < 0).
    The wall event and the rest of its cluster over the block's free path
    are then settled in a few array passes, which commit what they verify:

    - An idle clip: :func:`_clip_levels`. The arrivals through the last
      verified clip commit; the stretch after it is left to the next block,
      whose free path starts at 0.0 as the loop's does.
    - A drop under a constant packet size: :func:`_drop_levels`.
    - An arrival that both drops and clips, or a drop under a random size
      law, where a packet that fits may follow one that did not: scalar
      steps on Python floats, until the queue is at or below ``top``. That
      is 1.0 for a constant size, so just the arrival runs, and
      ``_WALL_MOVES`` mean moves below the wall under a random size law.

    Blocks double while they stay free, from ``_BLOCK_MIN`` after scalar
    steps; after a pass, the next block runs to the sub-chunk's end, so the
    pass it ends in sees the rest of the path. ``scalar_arrivals`` counts
    the arrivals that took scalar steps.

    The level pass only notes the arrivals that drop or clip. After it, one
    block books the sub-chunk's events in arrival order: the lost volume
    takes each drop's packet, the idle time each clip's eta - ell_plus /
    r_out, each with its running totals, and each clip's drain becomes
    ell_plus, the volume it serviced. A second vectorised pass samples the
    grid times that fell in the sub-chunk: the arrival whose interval holds
    each one (``searchsorted`` on the clock), its ell_plus drained for the
    elapsed time and clipped at 0, the lost volume after the last drop at
    or before that arrival and the idle time after the last clip before
    it, plus the clipped partial idle. The sub-chunk's serviced volume is
    one sum of its drains. (Subtracting the clipped excess from the full
    drains instead cancels where the queue is mostly idle: 1e-11 relative
    at r_out = 50.)

    Levels, times, grid samples, drops and idle time, with their
    compensation terms, are thus the per-arrival loop's to the bit. The
    offered and serviced volumes enter their compensated sums once per
    sub-chunk, so those two totals may differ from a per-arrival sum in the
    last bits.
    """
    r_out = traffic.r_out
    t = serviced = dropped = arrived = idle = 0.0
    # Kahan compensation terms: the volume totals grow to ~duration while the
    # per-event increments are tiny, and the conservation identity is checked
    # at 1e-9, which naive accumulation cannot hold over 1e7 events.
    c_serv = c_drop = c_arr = c_idle = 0.0
    n_drops = n_arrivals = n_scalar = 0
    grid_times = np.arange(queue_samples.size) * sample_dt
    grid_idx = 0
    # A constant size makes a drop cluster's drops a running maximum, and
    # the scalar steps then take just the arrival that both drops and clips.
    # Under a random size law they run until the queue is below the top wall.
    # Where the blocks start sets only the speed: no output depends on it.
    size = None
    top = 1.0
    if traffic.packet_size.kind == "deterministic":
        size = float(traffic.packet_size.mean)
    else:
        moves = traffic.packet_size.mean_value + r_out * traffic.interarrival.mean_value
        top = max(1.0 - _WALL_MOVES * moves, 0.0)
    # One slot past the longest path: 0.0 in step_buf, the clip pass's pad.
    pad = 2 * _SUB + 1
    step_buf = np.zeros(pad + 1)
    level_buf = np.empty(pad + 1)
    # Non-negative doubles order like their bits read as unsigned integers,
    # and every negative one (sign bit set) reads above 1.0. So the bits of a
    # level exceed those of 1.0 exactly when it lies outside [0, 1] or is
    # -0.0, which no level reached from [0, 1] is.
    level_bits = level_buf.view(np.uint64)
    one_bits = np.float64(1.0).view(np.uint64)
    hit_buf = np.empty(2 * _SUB, dtype=np.bool_)
    scalar = False
    block = _BLOCK_MIN
    while t < duration:
        eta_s = traffic.interarrival.sample(gap_rng, _SUB)
        p_s = traffic.packet_size.sample(size_rng, _SUB)
        clock = np.add.accumulate(np.concatenate(([t], eta_s)))
        # The first arrival whose interval reaches the end is the last.
        m = min(int(clock[1:].searchsorted(duration)) + 1, _SUB)
        clock, eta_s, p_s = clock[: m + 1], eta_s[:m], p_s[:m]
        drain = eta_s * r_out
        # steps[2i] takes the level before a block that starts at i.
        steps = step_buf[: 2 * m + 1]
        steps[1::2] = p_s
        np.negative(drain, out=steps[2::2])
        level = level_buf[: 2 * m + 1]
        ell_plus = level[1::2]
        drop_at = []
        clip_at = []
        i = 0
        while i < m:
            if scalar:
                stop = min(i + _SCALAR_RUN, m)
                ups = []
                arrivals = zip(range(i, stop), p_s[i:stop].tolist(), drain[i:stop].tolist())
                for a, p, d in arrivals:
                    up = ell + p
                    if up > 1.0:
                        up = ell
                        drop_at.append(a)
                    ups.append(up)
                    if d > up:
                        clip_at.append(a)
                        d = up
                    ell = up - d
                    if ell <= top:
                        scalar = False
                        break
                ell_plus[i : a + 1] = ups
                n_scalar += a + 1 - i
                i = a + 1
                continue
            k = min(block, m - i)
            lo = 2 * i
            hi = lo + 2 * k + 1
            steps[lo] = ell
            np.add.accumulate(steps[lo:hi], out=level[lo:hi])
            # From ell in [0, 1], the first level outside [0, 1] is the
            # first drop (ell + p > 1) or idle clip (ell + p - d < 0).
            hit = np.greater(level_bits[lo + 1 : hi], one_bits, out=hit_buf[: 2 * k])
            j = int(hit.argmax())
            if not hit[j]:
                ell = float(level[hi - 1])
                i += k
                block = min(2 * block, _SUB)
                continue
            block = _SUB
            e = i + j // 2
            if j % 2:
                clips = _clip_levels(step_buf, level_buf, e, i + k, pad, one_bits)
                clip_at.extend(clips.tolist())
                ell = 0.0
                i = int(clips[-1]) + 1
            elif size is not None and drain[e] <= level[2 * e]:
                f, drops = _drop_levels(step_buf, level_buf, e, i + k, size, one_bits)
                drop_at.extend(drops.tolist())
                i = e + f
                ell = float(level[2 * i])
            else:
                i = e
                ell = float(level[2 * e])
                scalar = True
                block = _BLOCK_MIN
        # Book the sub-chunk's events in arrival order, each running total
        # after its event: a drop loses its packet, and an idle clip idles
        # for the rest of its interval and services only its ell_plus.
        drops = np.array(drop_at, dtype=np.intp)
        clips = np.array(clip_at, dtype=np.intp)
        lost, idled = [dropped], [idle]
        dropped, c_drop = _compensated(dropped, c_drop, p_s[drops].tolist(), lost)
        n_drops += drops.size
        ups = ell_plus[clips]
        idle, c_idle = _compensated(idle, c_idle, (eta_s[clips] - ups / r_out).tolist(), idled)
        drain[clips] = ups
        serviced, c_serv = _compensated(serviced, c_serv, (float(np.add.reduce(drain)),))
        t = float(clock[m])
        g_next = int(grid_times.searchsorted(t, side="right"))
        if g_next > grid_idx:
            tg = grid_times[grid_idx:g_next]
            seg = clock[1:].searchsorted(tg)
            dtg = tg - clock[seg]
            lp = ell_plus[seg]
            q = lp - dtg * r_out
            queue_samples[grid_idx:g_next] = np.where(q < 0.0, 0.0, q)
            cum_lost[grid_idx:g_next] = np.take(lost, drops.searchsorted(seg, side="right"))
            part_idle = dtg - lp / r_out
            np.copyto(part_idle, 0.0, where=part_idle < 0.0)
            part_idle += np.take(idled, clips.searchsorted(seg))
            cum_idle[grid_idx:g_next] = part_idle
            grid_idx = g_next
        arrived, c_arr = _compensated(arrived, c_arr, (float(p_s.sum()),))
        n_arrivals += m
    return ell, arrived, serviced, dropped, idle, n_arrivals, n_drops, n_scalar


@dataclass
class EventLog:
    """Streamed summary of one simulation run.

    ``queue_samples``, ``cum_lost`` and ``cum_idle`` live on the uniform
    grid ``k * sample_dt``.
    ``scalar_arrivals`` counts the arrivals the kernel ran one at a time
    rather than in free-path blocks and wall passes, a cost diagnostic that
    :meth:`summary` leaves out.
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
    scalar_arrivals: int
    queue_samples: np.ndarray = field(repr=False)
    cum_lost: np.ndarray = field(repr=False)
    cum_idle: np.ndarray = field(repr=False)

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
    sample_dt: float | None = None,
    initial_queue: float = 0.0,
) -> EventLog:
    """Execute the event-driven simulation for ``duration`` time units.

    The first packet arrives at t = 0. Identical arguments give bit-identical
    logs: interarrival times come from PCG64 on ``SeedSequence(seed)``, and
    packet sizes from PCG64 on that sequence's first spawned child, so each
    law has a stream of its own and a run draws about as many values as it
    has arrivals. One call
    of the block-and-wall-pass kernel described in the module docstring runs
    every arrival. ``sample_dt`` defaults to the coarse-graining scale of
    20 mean interarrival times, the shortest increment the drift estimator
    accepts, so ``estimate_drift_diffusion(log, dt=log.sample_dt)`` uses
    every grid step.
    """
    mean_eta = traffic.interarrival.mean_value
    if not math.isfinite(duration):
        raise ValueError("duration must be finite")
    if duration < 50.0 * mean_eta:
        raise ValueError("duration must cover many interarrival times")
    if sample_dt is None:
        sample_dt = _COARSE_ARRIVALS * mean_eta
    elif not (math.isfinite(sample_dt) and sample_dt > 0.0):
        raise ValueError("sample_dt must be finite and positive")
    if not 0.0 <= initial_queue <= 1.0:
        raise ValueError("initial_queue must lie in [0, 1]")
    n_grid = int(math.floor(duration / sample_dt)) + 1
    queue_samples = np.zeros(n_grid)
    cum_lost = np.zeros(n_grid)
    cum_idle = np.zeros(n_grid)
    seeds = np.random.SeedSequence(seed)
    gap_rng, size_rng = map(np.random.default_rng, (seeds, *seeds.spawn(1)))
    final, arrived, serviced, dropped, idle, n_arrivals, n_drops, scalar = _kernel(
        traffic, gap_rng, size_rng, duration, sample_dt, float(initial_queue), queue_samples,
        cum_lost, cum_idle)
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
        scalar_arrivals=scalar,
        queue_samples=queue_samples,
        cum_lost=cum_lost,
        cum_idle=cum_idle,
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


def estimate_drift_diffusion(
    log: EventLog,
    dt: float,
    interior: tuple[float, float] = (0.1, 0.9),
) -> DriftDiffusionEstimate:
    """Estimate (a, sigma^2) from coarse-grained queue increments.

    Only increments whose endpoints both lie in the interior band are used,
    so the walls do not bias the free-space moments. ``dt`` must be at
    least the coarse-graining scale, the default sampling step of
    :func:`run` (``dt=log.sample_dt`` on such a log), and is rounded to the
    sampling grid. The estimate is plain numbers, and
    ``fokker_planck.FpParams(a=est.a, sigma2=est.sigma2)`` is the continuum
    model it describes.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    floor = _COARSE_ARRIVALS * log.traffic.interarrival.mean_value
    if dt < floor * (1.0 - 1e-9):
        raise ValueError(
            f"dt={dt:.4g} is below {_COARSE_ARRIVALS:g} mean interarrival times ({floor:.4g})"
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
    # The squared deviations give var = dq.var(ddof=1) and m2 bit for bit,
    # and m4 as the mean of their squares.
    squares = np.square(dq - mean)
    var = float(squares.sum()) / (n - 1)
    m2 = float(squares.mean())
    m4 = float(np.square(squares).mean())
    a_hat = mean / dt_eff
    s2_hat = var / dt_eff
    a_se = math.sqrt(var / n) / dt_eff
    s2_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n) / dt_eff
    return DriftDiffusionEstimate(
        a=a_hat, sigma2=s2_hat, a_se=a_se, sigma2_se=s2_se, dt=dt_eff, n_samples=n
    )


@dataclass(frozen=True)
class LossSample:
    """Lost volume and idle time per observation window.

    The windows are back to back: window i covers
    [t_start + i window_length, t_start + (i+1) window_length).
    """

    window_length: float
    t_start: float
    values: np.ndarray = field(repr=False)
    idle: np.ndarray = field(repr=False)

    @property
    def n_windows(self) -> int:
        return self.values.size

    def window_starts(self) -> np.ndarray:
        return self.t_start + self.window_length * np.arange(self.n_windows)


def _rough_relaxation(log: EventLog) -> float:
    dq = np.diff(log.queue_samples)
    var_rate = float(dq.var()) / log.sample_dt
    if var_rate <= 0.0:
        return 0.0
    return 2.0 / var_rate


def window_losses(
    log: EventLog,
    t_window: float,
    *,
    warmup: float | None = None,
) -> LossSample:
    """Lost volume per window of ``t_window`` after a stationarity warm-up.

    Windows are aligned to the sampling grid and follow each other without
    gaps, so the sums are exact event totals; the window length is
    ``t_window`` rounded to a whole number of grid steps (at least one).
    The default warm-up is ten relaxation times 2/sigma^2 (rough estimate
    from the log itself), capped at a third of the run; ``warmup`` is
    keyword-only.
    """
    if not math.isfinite(t_window):
        raise ValueError(f"window length must be finite, got {t_window}")
    if t_window <= 0.0:
        raise ValueError("window length must be positive")
    if t_window > log.duration / 10.0:
        raise ValueError("window length must be below a tenth of the run")
    if warmup is not None and not (math.isfinite(warmup) and warmup >= 0.0):
        raise ValueError("warmup must be finite and non-negative")
    dt = log.sample_dt
    k = max(int(round(t_window / dt)), 1)
    if warmup is None:
        warmup = min(10.0 * _rough_relaxation(log), log.duration / 3.0)
    start = int(math.ceil(warmup / dt))
    n_grid = log.queue_samples.size
    n_windows = (n_grid - 1 - start) // k
    if n_windows < 1:
        raise InsufficientDataError("run too short for any window after warm-up")
    starts = start + k * np.arange(n_windows)
    values = log.cum_lost[starts + k] - log.cum_lost[starts]
    idle = log.cum_idle[starts + k] - log.cum_idle[starts]
    return LossSample(
        window_length=k * dt,
        t_start=start * dt,
        values=values,
        idle=idle,
    )
