import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queueloss import cli
from queueloss import fokker_planck as F
from queueloss import simulate as S
from queueloss import stats as ST
from reference_numerics import kernel_py


def poisson_traffic(mean_gap=0.01, size=0.01, r_out=1.0):
    return S.TrafficModel(
        interarrival=S.Distribution(kind="exponential", mean=mean_gap),
        packet_size=S.Distribution(kind="deterministic", mean=size),
        r_out=r_out,
    )


class TestDistribution:
    def test_exponential_sampling_moments(self):
        dist = S.Distribution(kind="exponential", mean=0.5)
        rng = np.random.default_rng(0)
        xs = dist.sample(rng, 200_000)
        assert xs.mean() == pytest.approx(0.5, rel=0.02)

    def test_uniform_bounds(self):
        dist = S.Distribution(kind="uniform", low=0.002, high=0.004)
        rng = np.random.default_rng(1)
        xs = dist.sample(rng, 1000)
        assert xs.min() >= 0.002 and xs.max() <= 0.004
        assert dist.mean_value == pytest.approx(0.003)

    def test_deterministic(self):
        dist = S.Distribution(kind="deterministic", mean=0.01)
        assert (dist.sample(np.random.default_rng(2), 5) == 0.01).all()

    def test_deterministic_sample_is_a_zero_byte_view(self):
        # A constant needs no per-draw storage; the view must not be
        # writable, or one write would change every draw at once.
        xs = S.Distribution(kind="deterministic", mean=0.01).sample(
            np.random.default_rng(2), 1 << 20)
        assert xs.shape == (1 << 20,) and xs.dtype == np.float64
        assert xs.strides == (0,)
        assert not xs.flags.writeable

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("law, draw", [
        *[({"kind": "exponential", "mean": m}, lambda rng, n, m=m: rng.exponential(m, n))
          for m in (0.01, 0.3, 1.0, 1e-5, 7.3)],
        ({"kind": "deterministic", "mean": 0.3}, lambda rng, n: np.full(n, 0.3)),
        *[({"kind": "uniform", "low": lo, "high": hi}, lambda rng, n, lo=lo, hi=hi:
           rng.uniform(lo, hi, n)) for lo, hi in ((0.0, 1.0), (0.005, 0.015), (0.2, 0.2))],
    ])
    def test_sample_is_the_generator_draw(self, law, draw, seed):
        # Seeded runs depend on these bits, and on the generator state
        # each draw leaves for the next one.
        n = 4099
        rng = np.random.Generator(np.random.PCG64(seed))
        ref = np.random.Generator(np.random.PCG64(seed))
        xs = S.Distribution(**law).sample(rng, n)
        assert xs.shape == (n,) and xs.dtype == np.float64
        assert np.array_equal(xs.view(np.uint64), draw(ref, n).view(np.uint64))
        assert rng.random() == ref.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            S.Distribution(kind="exponential", mean=-1.0)
        with pytest.raises(ValueError):
            S.Distribution(kind="uniform", low=0.2, high=0.1)
        with pytest.raises(ValueError):
            S.Distribution(kind="pareto", mean=1.0)

    @pytest.mark.parametrize("kind", ["exponential", "deterministic"])
    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_rejects_non_finite_mean(self, kind, mean):
        with pytest.raises(ValueError, match="positive mean"):
            S.Distribution(kind=kind, mean=mean)

    @pytest.mark.parametrize("low, high",
                             [(0.0, math.inf), (math.nan, 0.1), (0.0, math.nan), (0.0, 0.0)])
    def test_rejects_non_finite_or_zero_uniform_bounds(self, low, high):
        # high = 0 is the zero law: as interarrival times it would never
        # advance the clock.
        with pytest.raises(ValueError, match="uniform law needs"):
            S.Distribution(kind="uniform", low=low, high=high)


class TestTrafficModel:
    def test_drain_time_scale(self):
        traffic = poisson_traffic(r_out=4.0)
        assert traffic.eta0 == 0.25

    @pytest.mark.parametrize("r_out", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_output_rate(self, r_out):
        with pytest.raises(ValueError, match="output rate"):
            poisson_traffic(r_out=r_out)

    def test_near_critical_indicator_reported_not_enforced(self):
        balanced = poisson_traffic()
        assert balanced.criticality_gap() == pytest.approx(0.0, abs=1e-12)
        lopsided = poisson_traffic(mean_gap=0.02)  # offered load half the service
        assert lopsided.criticality_gap() == pytest.approx(0.5)

    def test_rejects_large_packets(self):
        with pytest.raises(ValueError):
            S.TrafficModel(
                interarrival=S.Distribution(kind="exponential", mean=0.01),
                packet_size=S.Distribution(kind="deterministic", mean=0.2),
                r_out=1.0,
            )


class TestRun:
    def test_volume_conservation(self):
        log = S.run(poisson_traffic(), duration=2000.0, seed=42)
        assert abs(log.conservation_residual()) < 1e-9 * max(1.0, log.arrived)

    def test_conservation_on_long_run(self):
        log = S.run(poisson_traffic(), duration=100_000.0, seed=7)
        assert abs(log.conservation_residual()) < 1e-9 * max(1.0, log.arrived)

    def test_deterministic_under_seed(self):
        a = S.run(poisson_traffic(), duration=1500.0, seed=5)
        b = S.run(poisson_traffic(), duration=1500.0, seed=5)
        assert a.summary() == b.summary()
        assert np.array_equal(a.queue_samples, b.queue_samples)

    def test_fast_service_never_drops(self):
        log = S.run(poisson_traffic(r_out=50.0), duration=500.0, seed=3)
        assert log.n_drops == 0
        assert log.queue_samples.max() <= 0.02

    def test_zero_size_packets_keep_queue_empty(self):
        traffic = S.TrafficModel(
            interarrival=S.Distribution(kind="exponential", mean=0.01),
            packet_size=S.Distribution(kind="deterministic", mean=1e-12),
            r_out=1.0,
        )
        log = S.run(traffic, duration=200.0, seed=1)
        assert log.n_drops == 0
        assert log.queue_samples.max() < 1e-8

    def test_queue_samples_bounded(self):
        log = S.run(poisson_traffic(), duration=5000.0, seed=11)
        assert log.queue_samples.min() >= 0.0
        assert log.queue_samples.max() <= 1.0

    def test_drop_rule_hand_computed(self, monkeypatch):
        # Deterministic arrivals every 0.5 with packets of 0.04 against
        # r_out = 0.02: drain 0.01 per gap, so net +0.03 per arrival.
        # The queue first exceeds 1 - 0.04 after arrival 33, which is the
        # first drop.
        traffic = S.TrafficModel(
            interarrival=S.Distribution(kind="deterministic", mean=0.5),
            packet_size=S.Distribution(kind="deterministic", mean=0.04),
            r_out=0.02,
        )
        log, ev = _run_with_rows(monkeypatch, traffic, duration=30.0)
        # queue after arrival k (1-based) is 0.04 + 0.03 (k-1) until a drop
        assert ev["queue_after"][0] == pytest.approx(0.04)
        assert ev["queue_after"][10] == pytest.approx(0.04 + 0.03 * 10)
        k_drop = int(np.argmin(ev["accepted"]))
        q_before = ev["queue_before"][k_drop]
        assert q_before + 0.04 > 1.0
        assert ev["queue_after"][k_drop] == pytest.approx(q_before)
        # a drop happens exactly when the packet does not fit
        fits = ev["queue_before"] + ev["size"] <= 1.0
        assert np.array_equal(ev["accepted"], fits)
        # From then on the queue sits at the top, where the drain of four
        # gaps (0.04) makes room for one packet: of the 28 arrivals from the
        # 33rd to the 60th, the last at t = 29.5, 21 are dropped.
        assert log.n_arrivals == 60 and k_drop == 32
        assert log.n_drops == int((~fits).sum()) == 21
        assert log.dropped == pytest.approx(21 * 0.04, rel=1e-12)
        # A grid time equal to an arrival's time samples the queue before
        # that arrival, so the lost volume first shows at t = 20 (grid step
        # 10), the first grid time after the drop at t = 16.
        assert ev["time"][k_drop] == 16.0
        assert int(np.flatnonzero(log.cum_lost)[0]) == 2

    def test_piecewise_linear_drain_between_events(self, monkeypatch):
        traffic = S.TrafficModel(
            interarrival=S.Distribution(kind="deterministic", mean=0.2),
            packet_size=S.Distribution(kind="deterministic", mean=0.01),
            r_out=0.01,
        )
        log, ev = _run_with_rows(monkeypatch, traffic, duration=400.0, sample_dt=4.0)
        for g, tg in ((20, 80.0), (55, 220.0)):
            i = int(np.searchsorted(ev["time"], tg, side="right") - 1)
            expected = max(ev["queue_after"][i] - (tg - ev["time"][i]) * traffic.r_out, 0.0)
            assert log.queue_samples[g] == pytest.approx(expected, abs=1e-12)

    def test_duration_guard(self):
        with pytest.raises(ValueError):
            S.run(poisson_traffic(), duration=0.1, seed=0)

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match="duration"):
            S.run(poisson_traffic(), duration=duration, seed=0)

    @pytest.mark.parametrize("sample_dt", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_sample_step(self, sample_dt):
        with pytest.raises(ValueError, match="sample_dt"):
            S.run(poisson_traffic(), duration=100.0, seed=0, sample_dt=sample_dt)

    @pytest.mark.parametrize("initial_queue", [1.5, -0.1, math.nan])
    def test_rejects_initial_queue_outside_buffer(self, initial_queue):
        with pytest.raises(ValueError, match="initial_queue"):
            S.run(poisson_traffic(), duration=100.0, seed=0, initial_queue=initial_queue)


def _law(kind, mean):
    if kind == "uniform":
        return S.Distribution(kind="uniform", low=0.5 * mean, high=1.5 * mean)
    return S.Distribution(kind=kind, mean=mean)


def _run_both(monkeypatch, traffic, duration, seed, **kwargs):
    """The run by the block kernel, then by the per-arrival loop."""
    new = S.run(traffic, duration=duration, seed=seed, **kwargs)
    monkeypatch.setattr(S, "_kernel", kernel_py)
    ref = S.run(traffic, duration=duration, seed=seed, **kwargs)
    return new, ref


def _run_with_rows(monkeypatch, traffic, duration, **kwargs):
    """The run by the block kernel (seed 0), tied bit for bit to the
    per-arrival loop's, and the loop's per-arrival columns time, size,
    accepted, queue_before and queue_after."""
    new = S.run(traffic, duration=duration, seed=0, **kwargs)
    rows = []
    monkeypatch.setattr(S, "_kernel", functools.partial(kernel_py, events=rows))
    ref = S.run(traffic, duration=duration, seed=0, **kwargs)
    _assert_same_log(new, ref)
    names = ("time", "size", "accepted", "queue_before", "queue_after")
    return new, {name: np.array(column) for name, column in zip(names, zip(*rows))}


def _assert_same_log(new, ref):
    for name in ("queue_samples", "cum_lost", "cum_idle"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    for name in ("final_queue", "dropped", "idle_time", "n_arrivals", "n_drops"):
        assert getattr(new, name) == getattr(ref, name), name
    # The block kernel adds offered and serviced volume in larger steps.
    assert new.arrived == pytest.approx(ref.arrived, rel=1e-12, abs=0.0)
    assert new.serviced == pytest.approx(ref.serviced, rel=1e-12, abs=0.0)


class TestKernelMatchesLoop:
    """The free-path block kernel against the per-arrival loop."""

    @pytest.mark.parametrize("law", ["exponential", "uniform", "deterministic"])
    @pytest.mark.parametrize("r_out", [0.98, 1.0, 1.02, 50.0])
    def test_bit_identical_across_chunks(self, monkeypatch, law, r_out):
        # 3001-arrival sub-chunks: a 300-unit run crosses about ten of them.
        monkeypatch.setattr(S, "_SUB", 3001)
        traffic = S.TrafficModel(
            interarrival=_law(law, 0.01), packet_size=_law(law, 0.01), r_out=r_out
        )
        new, ref = _run_both(monkeypatch, traffic, 300.0, 7, initial_queue=0.96)
        _assert_same_log(new, ref)

    def test_interior_arrivals_run_in_blocks(self, monkeypatch):
        # Deterministic traffic in balance keeps the queue at 0.5, far from
        # both walls; the kernel must take blocks, and the loop's every
        # arrival is a scalar step.
        monkeypatch.setattr(S, "_SUB", 20_000)
        gap = S.Distribution(kind="deterministic", mean=0.01)
        traffic = S.TrafficModel(interarrival=gap, packet_size=gap, r_out=1.0)
        new, ref = _run_both(monkeypatch, traffic, 200.0, 0, sample_dt=0.2, initial_queue=0.5)
        n = new.n_arrivals
        assert n > 19_000
        assert new.scalar_arrivals < n // 100
        assert ref.scalar_arrivals == n
        assert "scalar_arrivals" not in new.summary()

    def test_bit_identical_at_default_chunk(self, monkeypatch):
        new, ref = _run_both(monkeypatch, poisson_traffic(r_out=1.02), 2000.0, 7,
                             sample_dt=0.05)
        _assert_same_log(new, ref)

    def test_serviced_total_when_mostly_idle(self, monkeypatch):
        # At r_out = 50 every arrival clips, so the drains sum to 50 times
        # the serviced volume. With constant gaps and sizes a total formed
        # as drains less the clipped excess misses by 1e-11 relative.
        gap = _law("deterministic", 0.01)
        traffic = S.TrafficModel(interarrival=gap, packet_size=gap, r_out=50.0)
        new, ref = _run_both(monkeypatch, traffic, 500.0, 0)
        _assert_same_log(new, ref)


class TestWallPasses:
    """Whole clusters of wall events settled per pass against the
    per-arrival loop: idle clips at the empty wall, drops of constant-size
    packets at the full one, and the scalar steps that remain."""

    @pytest.mark.parametrize("r_out", [0.98, 1.02])
    def test_critical_runs_take_almost_no_scalar_steps(self, monkeypatch, r_out):
        # Near criticality the queue keeps hitting the walls: per-arrival
        # steps at every wall contact took 7-12% of the arrivals here.
        new, ref = _run_both(monkeypatch, poisson_traffic(r_out=r_out), 2000.0, 3)
        _assert_same_log(new, ref)
        assert new.n_drops > 0 and new.idle_time > 0.0
        assert new.scalar_arrivals < new.n_arrivals // 100

    def test_arrival_that_drops_and_clips(self, monkeypatch):
        # From a full buffer the first packet does not fit, and the drain
        # until the next arrival (1.5) is longer than the buffer: the one
        # arrival that takes a scalar step under a constant size.
        gap = S.Distribution(kind="deterministic", mean=0.03)
        size = S.Distribution(kind="deterministic", mean=0.01)
        traffic = S.TrafficModel(interarrival=gap, packet_size=size, r_out=50.0)
        new, ref = _run_both(monkeypatch, traffic, 30.0, 0, initial_queue=1.0)
        _assert_same_log(new, ref)
        assert new.n_drops == 1 and new.scalar_arrivals == 1

    def test_random_size_drop_then_clips(self, monkeypatch):
        # Under a random size law the drop takes scalar steps, which hand
        # back to blocks after a few arrivals without a drop even though
        # every one of them clips.
        gap = S.Distribution(kind="deterministic", mean=0.03)
        size = _law("uniform", 0.01)
        traffic = S.TrafficModel(interarrival=gap, packet_size=size, r_out=50.0)
        new, ref = _run_both(monkeypatch, traffic, 30.0, 0, initial_queue=1.0)
        _assert_same_log(new, ref)
        assert new.n_drops == 1 and new.scalar_arrivals == 1

    def test_clip_pass_commits_only_confirmed_clips(self):
        # A free path (level) whose drained levels set new minima at
        # arrivals 0, 1 and 2, as rounding can make a near tie do, over
        # increments (step) after which arrival 1 drains to exactly 0.0 from
        # the clip at 0: the loop does not clip there, so the pass keeps
        # only the clip at 0 and leaves arrival 1 to the next block.
        pad = 7
        step = np.zeros(pad + 1)
        step[1:7] = [0.01, -0.5, 0.01, -0.01, 0.01, -0.5]
        free = [0.2, 0.21, -0.29, -0.28, -0.29000001, -0.28000001, -0.78000001]
        one_bits = np.float64(1.0).view(np.uint64)

        def clips():
            level = np.full(pad + 1, np.nan)
            level[:7] = free
            return S._clip_levels(step, level, 0, 3, pad, one_bits).tolist()

        assert clips() == [0]
        # With a drain that clips, all three are confirmed.
        step[4] = -0.02
        assert clips() == [0, 1, 2]

    @pytest.mark.parametrize("r_out", [0.5, 1.5])
    def test_cluster_reaching_a_sub_chunk_end(self, monkeypatch, r_out):
        # Constant gaps and sizes: at r_out = 1.5 every arrival clips, at
        # 0.5 every other one drops once the buffer is full, so each
        # cluster runs through many sub-chunks of 257 arrivals.
        TestSubChunkSeams._seams(monkeypatch)
        gap = _law("deterministic", 0.01)
        traffic = S.TrafficModel(interarrival=gap, packet_size=gap, r_out=r_out)
        new, ref = _run_both(monkeypatch, traffic, 100.0, 0, initial_queue=0.9)
        _assert_same_log(new, ref)
        assert (new.n_drops > 4000) == (r_out < 1.0)
        assert new.scalar_arrivals == 0


def _poisson_clock(seed, n):
    """The first n + 1 arrival times of ``run(poisson_traffic(), seed=seed)``:
    sequential sums of the gap stream's first n draws."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return np.add.accumulate(np.concatenate([[0.0], rng.exponential(0.01, n)]))


class TestSubChunkSeams:
    """Sub-chunks of 257 arrivals, against the per-arrival loop, which
    draws 1000 at a time: runs that end on a sub-chunk's last arrival, grid
    steps from a fraction of one interarrival time to more than a
    sub-chunk's span, and every start level."""

    @staticmethod
    def _seams(mp):
        mp.setattr(S, "_SUB", 257)

    @pytest.mark.parametrize("last", [257, 514, 2827, 3084])
    def test_run_ending_on_a_sub_chunk_end(self, monkeypatch, last):
        # The run ends with the first arrival whose interval reaches the
        # duration: here the last arrival of a sub-chunk (the first, second,
        # 11th and 12th), after which the next sub-chunk is never drawn.
        self._seams(monkeypatch)
        duration = float(_poisson_clock(11, last)[last])
        new, ref = _run_both(monkeypatch, poisson_traffic(r_out=1.0), duration, 11,
                             sample_dt=0.05, initial_queue=0.5)
        assert new.n_arrivals == last
        _assert_same_log(new, ref)

    @pytest.mark.parametrize("initial_queue", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("r_out", [1.0, 50.0])
    @pytest.mark.parametrize("sample_dt", [0.003, 5.0])
    def test_grid_steps_and_start_levels(self, monkeypatch, initial_queue, r_out, sample_dt):
        # 0.003 puts several grid points in one arrival's interval; 5.0 is
        # about twice a sub-chunk's span, so some sub-chunks sample nothing.
        # At r_out = 50 every arrival clips.
        self._seams(monkeypatch)
        new, ref = _run_both(monkeypatch, poisson_traffic(r_out=r_out), 60.0, 4,
                             sample_dt=sample_dt, initial_queue=initial_queue)
        assert new.n_arrivals > 5000
        _assert_same_log(new, ref)

    @pytest.mark.parametrize("r_out", [0.98, 1.02])
    def test_grid_times_on_sub_chunk_ends(self, monkeypatch, r_out):
        # Gaps of 1/64 sum exactly, so with a grid step of 257 gaps every
        # grid time is the end of a sub-chunk's last interval; the loop
        # samples it with that arrival, not the next sub-chunk's first.
        self._seams(monkeypatch)
        gap = S.Distribution(kind="deterministic", mean=1.0 / 64.0)
        traffic = S.TrafficModel(interarrival=gap, packet_size=gap, r_out=r_out)
        new, ref = _run_both(monkeypatch, traffic, 2000.0 / 64.0, 0,
                             sample_dt=257.0 / 64.0, initial_queue=0.5)
        _assert_same_log(new, ref)

    @given(law=st.sampled_from(["exponential", "uniform", "deterministic"]),
           r_out=st.one_of(st.floats(0.95, 1.05), st.just(50.0)),
           initial_queue=st.sampled_from([0.0, 0.5, 1.0]),
           sample_dt=st.floats(0.002, 8.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop(self, law, r_out, initial_queue, sample_dt, seed):
        traffic = S.TrafficModel(
            interarrival=_law(law, 0.01), packet_size=_law(law, 0.01), r_out=r_out
        )
        with pytest.MonkeyPatch.context() as mp:
            self._seams(mp)
            new, ref = _run_both(mp, traffic, 40.0, seed, sample_dt=sample_dt,
                                 initial_queue=initial_queue)
        _assert_same_log(new, ref)


class TestDrawStreams:
    """Gaps and sizes come from two streams of their own, drawn one
    sub-chunk at a time, so a run draws about what it uses and the
    sub-chunk size decides none of the values."""

    @staticmethod
    def _spy(monkeypatch):
        """Every ``Distribution.sample`` draw, listed per generator in the
        order made."""
        draws = {}
        sample = S.Distribution.sample

        def spy(self, rng, n):
            out = sample(self, rng, n)
            draws.setdefault(rng, []).append(out)
            return out

        monkeypatch.setattr(S.Distribution, "sample", spy)
        return draws

    def test_short_run_draws_what_it_uses(self, monkeypatch):
        draws = self._spy(monkeypatch)
        law = _law("exponential", 0.01)
        traffic = S.TrafficModel(interarrival=law, packet_size=law, r_out=1.0)
        log = S.run(traffic, duration=30.0, seed=5)
        assert len(draws) == 2
        for stream in draws.values():
            assert log.n_arrivals <= sum(x.size for x in stream) <= log.n_arrivals + S._SUB

    @pytest.mark.parametrize("law", ["exponential", "uniform", "deterministic"])
    @pytest.mark.parametrize("r_out", [0.98, 1.02, 50.0])
    def test_sub_chunk_size_decides_no_draw(self, monkeypatch, law, r_out):
        traffic = S.TrafficModel(
            interarrival=_law(law, 0.01), packet_size=_law(law, 0.01), r_out=r_out
        )
        draws = self._spy(monkeypatch)
        runs = []
        for sub in (S._SUB, 257):
            monkeypatch.setattr(S, "_SUB", sub)
            draws.clear()
            log = S.run(traffic, duration=300.0, seed=9, initial_queue=0.5)
            runs.append((log, [np.concatenate(stream) for stream in draws.values()]))
        (new, new_draws), (ref, ref_draws) = runs
        for name in ("queue_samples", "cum_lost", "cum_idle"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), name
        for name in ("final_queue", "dropped", "idle_time", "n_arrivals", "n_drops"):
            assert getattr(new, name) == getattr(ref, name), name
        # Split in 257s, each stream gives the same values, and at most one
        # sub-chunk past the run's last arrival.
        for whole, split in zip(new_draws, ref_draws):
            assert new.n_arrivals <= split.size <= new.n_arrivals + 257
            n = min(whole.size, split.size)
            assert np.array_equal(whole[:n], split[:n])


class TestDriftDiffusionEstimate:
    def test_deterministic_traffic_has_no_diffusion(self):
        # a gentle deterministic drift keeps the queue in the interior band
        # for the whole run: the increment variance must vanish. The gap is
        # a dyadic rational so arrival and grid instants compare exactly and
        # every sample lands at the same saw-tooth phase.
        gap = 1.0 / 128.0
        traffic = S.TrafficModel(
            interarrival=S.Distribution(kind="deterministic", mean=gap),
            packet_size=S.Distribution(kind="deterministic", mean=0.0078120),
            r_out=1.0,
        )
        # start just above the interior band so the phase-odd t = 0 sample
        # (taken post-arrival, unlike the aligned later ones) is excluded
        log = S.run(traffic, duration=3000.0, seed=0, initial_queue=0.96)
        est = S.estimate_drift_diffusion(log, dt=4 * 20 * gap, interior=(0.05, 0.95))
        assert est.sigma2 == pytest.approx(0.0, abs=1e-12)
        drift = (0.0078120 - gap) / gap
        assert est.a == pytest.approx(drift, rel=1e-6)

    def test_poisson_renewal_oracle(self):
        # Poisson arrivals rate lam with fixed size s: drift lam s - r_out,
        # diffusion lam s^2 (compound-Poisson increment variance).
        lam, s, r_out = 100.0, 0.01, 1.02
        traffic = poisson_traffic(mean_gap=1.0 / lam, size=s, r_out=r_out)
        log = S.run(traffic, duration=150_000.0, seed=17)
        est = S.estimate_drift_diffusion(log, dt=0.2, interior=(0.2, 0.8))
        assert abs(est.a - (lam * s - r_out)) <= 3.0 * est.a_se
        assert abs(est.sigma2 - lam * s * s) <= 3.0 * est.sigma2_se

    def test_rejects_fine_steps(self):
        log = S.run(poisson_traffic(), duration=1000.0, seed=2)
        with pytest.raises(ValueError):
            S.estimate_drift_diffusion(log, dt=0.05)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, dt):
        log = S.run(poisson_traffic(), duration=1000.0, seed=2)
        with pytest.raises(ValueError, match="dt"):
            S.estimate_drift_diffusion(log, dt=dt)

    def test_insufficient_interior_reported(self):
        # service far above load pins the queue at 0, outside the band
        log = S.run(poisson_traffic(r_out=20.0), duration=1000.0, seed=2)
        with pytest.raises(S.InsufficientDataError):
            S.estimate_drift_diffusion(log, dt=0.2)


class TestWindowLosses:
    def test_no_drops_gives_zero_sample(self):
        log = S.run(poisson_traffic(r_out=10.0), duration=2000.0, seed=4)
        sample = S.window_losses(log, t_window=20.0, warmup=100.0)
        assert sample.n_windows >= 90
        assert (sample.values == 0.0).all()

    def test_still_queue_takes_no_warmup(self):
        # A sampled queue that never moves has no variance, so its rough
        # relaxation time, and with it the default warm-up, is 0.
        log = S.run(poisson_traffic(r_out=10.0), duration=2000.0, seed=4)
        still = dataclasses.replace(log, queue_samples=np.full_like(log.queue_samples, 0.25))
        sample = S.window_losses(still, t_window=20.0)
        assert sample.t_start == 0.0
        assert sample.n_windows == S.window_losses(log, t_window=20.0, warmup=0.0).n_windows

    def test_window_sums_match_cumulative_totals(self):
        log = S.run(poisson_traffic(), duration=30_000.0, seed=8)
        sample = S.window_losses(log, t_window=25.0, warmup=0.0)
        assert sample.values.sum() == pytest.approx(
            log.cum_lost[int(sample.n_windows * 25.0 / log.sample_dt)], rel=1e-12
        )

    @pytest.fixture(scope="class")
    def long_log(self):
        return S.run(poisson_traffic(), duration=100_000.0, seed=21)

    def test_mean_rate_bridges_to_continuum(self, long_log):
        est = S.estimate_drift_diffusion(long_log, dt=0.2)
        params = F.FpParams(a=est.a, sigma2=est.sigma2)
        sample = S.window_losses(long_log, t_window=20.0)
        series = ST.WindowedSeries.from_loss_sample(sample)
        summary = ST.mean_and_variance(series)
        predicted = F.loss_moment(params, F.SeriesControl(), 1, sample.window_length)
        assert abs(summary.mean - predicted) <= 3.0 * summary.mean_se

    def test_zero_loss_probability_bridges_to_continuum(self, long_log):
        est = S.estimate_drift_diffusion(long_log, dt=0.2)
        sample = S.window_losses(long_log, t_window=20.0)
        p_hit = float((sample.values > 0).mean())
        se = math.sqrt(p_hit * (1 - p_hit) / sample.n_windows)
        params = F.FpParams(a=est.a, sigma2=est.sigma2)
        predicted = F.loss_probability(params, F.SeriesControl(), sample.window_length)
        assert abs(p_hit - predicted) <= 3.0 * se

    def test_window_too_long_rejected(self):
        log = S.run(poisson_traffic(), duration=1000.0, seed=1)
        with pytest.raises(ValueError):
            S.window_losses(log, t_window=200.0)

    @pytest.mark.parametrize("t_window", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_window(self, t_window):
        log = S.run(poisson_traffic(), duration=1000.0, seed=1)
        with pytest.raises(ValueError, match="window length must be finite"):
            S.window_losses(log, t_window=t_window)

    @pytest.mark.parametrize("warmup", [-10.0, math.inf, math.nan])
    def test_rejects_bad_warmup(self, warmup):
        # A negative warm-up used to wrap the first window round to the end
        # of the grid, giving minus the run's whole dropped volume.
        log = S.run(poisson_traffic(r_out=1.02), duration=2000.0, seed=1)
        with pytest.raises(ValueError, match="warmup"):
            S.window_losses(log, t_window=20.0, warmup=warmup)


class TestContinuumBridgeGrid:
    """Fitted (a, sigma2) fed back into the continuum evaluators must
    reproduce window-loss mean, variance, zero-loss probability, and one
    correlation point within 3 standard errors, across drift signs and
    window lengths."""

    @pytest.mark.parametrize("rate,seed", [(98.0, 31), (100.0, 32), (102.0, 33)])
    @pytest.mark.parametrize("t_window", [10.0, 40.0])
    def test_all_statistics_consistent(self, rate, seed, t_window):
        traffic = poisson_traffic(mean_gap=1.0 / rate, size=0.01, r_out=1.0)
        log = S.run(traffic, duration=120_000.0, seed=seed)
        est = S.estimate_drift_diffusion(log, dt=20.0 / rate)
        params = F.FpParams(a=est.a, sigma2=est.sigma2)
        ctrl = F.SeriesControl()
        sample = S.window_losses(log, t_window=t_window)
        series = ST.WindowedSeries.from_loss_sample(sample)
        summary = ST.mean_and_variance(series)
        t_w = sample.window_length

        m1 = F.loss_moment(params, ctrl, 1, t_w)
        m2 = F.loss_moment(params, ctrl, 2, t_w)
        assert abs(summary.mean - m1) <= 3.0 * summary.mean_se
        assert abs(summary.variance - (m2 - m1 * m1)) <= 3.0 * summary.variance_se

        hit = float((sample.values > 0).mean())
        hit_se = math.sqrt(max(hit * (1 - hit), 1e-12) / sample.n_windows)
        p_loss = F.loss_probability(params, ctrl, t_w)
        assert abs(hit - p_loss) <= 3.0 * hit_se + 1e-9

        lag = 2
        gap = (lag - 1) * t_w
        corr_pred = F.loss_correlator(params, ctrl, t_w, t_w, gap)
        est_corr = ST.correlation_estimate(series, [lag])[0]
        denom = float(np.mean((series.values - series.values.mean()) ** 2))
        assert abs(est_corr.value * denom - corr_pred) <= 3.0 * est_corr.se * denom


class TestContinuumCorrelationDecay:
    def test_window_correlations_follow_quadrature_decay(self):
        # Balanced run, short windows: inter-window covariances at growing
        # separations track the continuum correlator, whose decay in this
        # regime is the inverse square root of the separation.
        traffic = poisson_traffic()
        log = S.run(traffic, duration=150_000.0, seed=77)
        est = S.estimate_drift_diffusion(log, dt=0.2)
        params = F.FpParams(a=est.a, sigma2=est.sigma2)
        ctrl = F.SeriesControl()
        t_w = 5.0
        sample = S.window_losses(log, t_window=t_w)
        series = ST.WindowedSeries.from_loss_sample(sample)
        denom = float(np.mean((series.values - series.values.mean()) ** 2))
        preds = []
        for lag in (2, 5, 9):
            gap = (lag - 1) * t_w
            pred = F.loss_correlator(params, ctrl, t_w, t_w, gap)
            est_corr = ST.correlation_estimate(series, [lag])[0]
            assert abs(est_corr.value * denom - pred) <= 3.0 * est_corr.se * denom
            preds.append(pred)
        # the separation decay itself (slow inverse-square-root fall-off in
        # this regime) is pinned deterministically in the continuum tests;
        # here the predicted values must at least decay monotonically
        assert preds[0] > preds[1] > preds[2] > 0.0


class TestCsvExport:
    """The window export, written by the CLI module's one CSV writer."""

    def test_window_schema(self, tmp_path):
        log = S.run(poisson_traffic(), duration=2000.0, seed=12)
        sample = S.window_losses(log, t_window=20.0, warmup=40.0)
        path = tmp_path / "windows.csv"
        cli.export_windows_csv(sample, path, metadata={"seed": 12})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# seed: 12"
        assert lines[1] == "window_index,t_start,lost_volume,idle_time"
        assert len(lines) == 2 + sample.n_windows
        first = lines[2].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(sample.t_start)

    def test_export_bytes_pinned(self, tmp_path):
        # The exact bytes of the run's grid arrays and of its window file for
        # 300 time units of overloaded uniform-size traffic, whose sizes come
        # from the seed's spawned child stream; the parent directory is
        # created.
        traffic = S.TrafficModel(
            interarrival=S.Distribution(kind="exponential", mean=0.01),
            packet_size=S.Distribution(kind="uniform", low=0.008, high=0.014),
            r_out=1.02,
        )
        log = S.run(traffic, duration=300.0, seed=3)
        grid = {  # name: SHA-256 of the float64 array's bytes
            "queue_samples": "7ade4a9c06776311d2dc1453364a8eaeb46e1a5cd7e48577f5f5cbb76ff49f16",
            "cum_lost": "5b49f6dcda56266e9423ba464fe21a63c98847a6fd73a7cf10251f73a09608bc",
            "cum_idle": "fc4434a4d6672d0989a67c111c7cc3da53d8f8a08b81578c6562399eb273d118",
        }
        for name, digest in grid.items():
            column = getattr(log, name)
            assert column.dtype == np.float64 and column.size == 1501, name
            assert hashlib.sha256(column.tobytes()).hexdigest() == digest, name
        sample = S.window_losses(log, t_window=5.0, warmup=10.0)
        path = tmp_path / "exports" / "windows.csv"
        cli.export_windows_csv(sample, path, metadata={"seed": 3, "t_window": 5.0})
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            1390, "8f0a8d7db3dec5b68ce74d50fdf136413382a376864c7c5e240657fedffebb5e")
