"""The three benchmark workloads: inputs, one timed round, and output checks.

Each workload has ``prepare(seed, out_dir)`` (set-up: inputs only, no
package call), ``run_round(inputs, ql)`` (the timed work, returning a
:class:`Round`) and ``check(inputs, out, log)`` (comparisons against
:mod:`oracles`, never timed).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def read_csv(text: str) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Metadata and numeric rows of a CSV table written by ``queueloss.cli``."""
    meta: dict[str, str] = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        meta[key] = value
    header = lines.pop(0).split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines if line]
    return meta, rows


def _flag(name: str, values) -> str:
    """``--name=v1,v2``; the ``=`` keeps a leading minus from reading as a flag."""
    return f"--{name}=" + ",".join(repr(float(v)) for v in values)


def _attempt(fn, *args):
    """(value, None) or (None, exception type name) for one operation."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - failures are counted, not fatal
        return None, type(exc).__name__


@dataclass
class Round:
    """Raw outputs of one round and the operations attempted and failed.

    An operation is one evaluator call (``record``) or one row of a CLI
    table (``table``); a table's missing rows are its failed grid points.
    """

    values: dict = field(default_factory=dict)
    errors: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    _tables: dict = field(default_factory=dict)

    def record(self, key, fn, *args):
        """Run one operation; its value is kept under ``key`` unless that is None."""
        self.attempted += 1
        value, error = _attempt(fn, *args)
        if error is not None:
            self.failed += 1
            self.errors[error] += 1
        if key is not None:
            self.values[key] = value
        return value

    def table(self, key, status: int, path: Path, rows: int) -> None:
        """A CLI call's exit status and the CSV it wrote, expected to hold ``rows``."""
        self.values[f"{key}_status"] = status
        self._tables[key] = (path, rows)

    def merge(self, other: "Round") -> None:
        """Add another part's outputs to this round."""
        self.values.update(other.values)
        self.errors.update(other.errors)
        self.attempted += other.attempted
        self.failed += other.failed
        self._tables.update(other._tables)

    def read_tables(self) -> None:
        """Read the CSV tables into ``values`` (after the timing)."""
        for key, (path, rows) in self._tables.items():
            self.values[key] = path.read_text()
            self.attempted += rows
            self.failed += rows - len(read_csv(self.values[key])[1])
        self._tables.clear()


def fingerprint(out: Round) -> str:
    """Digest of a round's outputs, for the check that rounds repeat exactly."""
    h = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, dict):
            for key in sorted(value, key=repr):
                h.update(repr(key).encode())
                feed(value[key])
        elif isinstance(value, np.ndarray):
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())

    feed(out.values)
    feed(dict(out.errors))
    return h.hexdigest()


def check_round(workload, inputs: dict, out: Round, log: oracles.CheckLog) -> None:
    """The workload's own checks plus the exit status of every CLI call."""
    workload.check(inputs, out, log)
    statuses = {k: v for k, v in out.values.items()
                if isinstance(k, str) and k.endswith("_status")}
    log.true("cli-status", f"CLI exit statuses {statuses}", not any(statuses.values()))


# ---------------------------------------------------------------------------
# discrete-exact
# ---------------------------------------------------------------------------

#: The fig2-desk compressibility windows (19 log-spaced lengths 1e2..1e5),
#: plus N = 1 for the Bernoulli check.
FIG2_WINDOWS = (1,) + tuple(int(n) for n in np.unique(np.round(np.logspace(2, 5, 19)).astype(int)))


@dataclass(frozen=True)
class DiscreteExact:
    ps: tuple = (0.45, 0.5, 0.51, 0.55)
    Ls: tuple = (100, 1000, 3000)
    windows: tuple = FIG2_WINDOWS
    pairs: tuple = ((100, 1_000), (1_000, 10_000), (10_000, 50_000))
    preset: str = "loss-asymptotes"
    preset_grid: tuple = ((0.3, 0.5, 0.7), (20,), (1000,))

    name = "discrete-exact"

    def prepare(self, seed: int, out_dir: Path) -> dict:
        del seed  # exact outputs do not depend on the seed
        table_argv = ["exact-discrete", _flag("p", self.ps), _flag("L", self.Ls),
                      _flag("N", self.windows),
                      "--out", str(out_dir / "table"), "--jobs", "1"]
        preset_argv = ["exact-discrete", "--preset", self.preset,
                       "--out", str(out_dir / "preset"), "--jobs", "1"]
        return {"table_argv": table_argv, "preset_argv": preset_argv,
                "table_csv": out_dir / "table" / "exact_discrete.csv",
                "preset_csv": out_dir / "preset" / "exact_discrete.csv"}

    def run_round(self, inputs: dict, ql) -> Round:
        out = Round()
        out.table("table_csv", ql.cli.main(inputs["table_argv"]), inputs["table_csv"],
                  len(self.ps) * len(self.Ls) * len(self.windows))
        for p in self.ps:
            for L in self.Ls:
                params = ql.discrete.DiscreteQueueParams(p=p, L=L)
                for N, M in self.pairs:
                    out.record(("r2", p, L, N, M), ql.discrete.correlator_r2, params, N, M)
        out.table("preset_csv", ql.cli.main(inputs["preset_argv"]), inputs["preset_csv"],
                  math.prod(len(axis) for axis in self.preset_grid))
        return out

    def check(self, inputs: dict, out: Round, log: oracles.CheckLog) -> None:
        _, rows = read_csv(out.values["table_csv"])
        _, preset_rows = read_csv(out.values["preset_csv"])
        preset_ps, preset_Ls, preset_Ns = self.preset_grid
        log.true("preset-grid", "loss-asymptotes rows cover p x L x N",
                 sorted((r["p"], r["L"], r["N"]) for r in preset_rows)
                 == sorted((p, L, N) for p in preset_ps for L in preset_Ls for N in preset_Ns))
        chains = sorted({(r["p"], int(r["L"])) for r in rows + preset_rows})
        kmax = int(max(max(r["N"] for r in rows + preset_rows),
                       max(M + N for N, M in self.pairs)))
        returns = oracles.full_state_returns(chains, kmax)
        for (p, L), g in zip(chains, returns):
            pi_L = oracles.full_state_share(p, L)
            mine = [r for r in rows + preset_rows if r["p"] == p and r["L"] == L]
            ref_var = oracles.window_variances(g, pi_L, p, [r["N"] for r in mine])
            for r, var in zip(mine, ref_var):
                check_exact_row(log, f"p={p} L={L} N={int(r['N'])}", r, p, L, pi_L, var)
            if (p, L) not in {(q, M) for q in self.ps for M in self.Ls}:
                continue
            for N, M in self.pairs:
                got = out.values[("r2", p, L, N, M)]
                if got is not None:
                    var_N = oracles.window_variances(g, pi_L, p, [N])[0]
                    ref = oracles.window_covariance(g, pi_L, p, N, M) / var_N
                    check_r2(log, f"p={p} L={L} N={N} M={M}", got, ref)


def check_exact_row(log, tag, row, p, L, pi_L, var_ref) -> None:
    """One exact-discrete CSV row against the propagated references."""
    rate = pi_L * p
    N = row["N"]
    log.close("rate", f"{tag} mean_loss_rate", row["mean_loss_rate"], rate, 1e-10)
    log.close("variance", f"{tag} loss_variance", row["loss_variance"], var_ref, 1e-8)
    log.close("compressibility", f"{tag} compressibility", row["compressibility"],
              var_ref / (N * rate), 1e-8)
    if N == 1:
        log.close("bernoulli", f"{tag} one-step variance", row["loss_variance"],
                  rate * (1.0 - rate), 1e-10)
    b = 2.0 * p - 1.0
    log.close("crossover", f"{tag} crossover_window", row["crossover_window"],
              1.0 / (b * b + (math.pi / L) ** 2), 1e-10)
    if p > 0.5:
        asym = b
    elif p == 0.5:
        asym = p / (L + 1.0)
    else:
        q = p / (1.0 - p)
        asym = (1.0 - 2.0 * p) / (1.0 - p) * q**L
    log.close("asymptote", f"{tag} rate_asymptote", row["rate_asymptote"], asym, 1e-10)


def check_r2(log, tag, got, ref) -> None:
    log.true("r2-bound", f"{tag} |r2| <= 1 (got {got!r})", abs(got) <= 1.0)
    # The reference sums lagged covariances with round-off near 1e-13, so
    # vanishing correlators are compared on an absolute floor.
    log.close("r2", f"{tag} correlator_r2", got, ref, 1e-7, 1e-10)


# ---------------------------------------------------------------------------
# continuum
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def pdf_top(a: float, sigma2: float, t: float) -> float:
    """End of a loss_pdf curve's x grid, p(1)(tau + 6 sqrt(tau) + 1)."""
    tau = 0.5 * sigma2 * t
    return oracles.wall_density(a / sigma2) * (tau + 6.0 * math.sqrt(tau) + 1.0)


def pdf_grid(a: float, sigma2: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, pdf_top(a, sigma2, t)].

    Panels double from sqrt(tau)/2 (the short-time boundary layer at x = 0)
    and are one long-time spread wide within eight spreads of the peak at
    p(1) tau, so the curve's mass integrates to ~1e-9.
    """
    v, tau = a / sigma2, 0.5 * sigma2 * t
    p1 = oracles.wall_density(v)
    top = pdf_top(a, sigma2, t)
    edges = {0.0, top}
    edge = 0.5 * math.sqrt(tau)
    while edge < top:
        edges.add(edge)
        edge *= 2.0
    spread = oracles.longtime_spread(v, tau)
    edges.update(e for e in (p1 * tau + j * spread for j in range(-8, 9)) if 0.0 < e < top)
    e = np.array(sorted(edges))
    half = 0.5 * np.diff(e)[:, None]
    nodes = (half * (_GL_NODES + 1.0) + e[:-1, None]).ravel()
    weights = (half * _GL_WEIGHTS).ravel()
    return nodes, weights


@dataclass(frozen=True)
class Continuum:
    drifts: tuple = (-1.0, 0.0, 0.5, 1.0, 2.0)
    sigma2s: tuple = (0.5, 2.0)
    times: tuple = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
    pdf_tau_max: float = 20.0
    corr_drifts: tuple = (-1.0, 0.0, 0.5, 2.0)
    corr_sigma2: float = 1.0
    corr_windows: tuple = (0.5, 2.0)
    corr_separations: tuple = (0.01, 0.03, 0.1, 0.3, 1.0, 10.0)
    #: fault (b): |v| > 709 overflows the eigenseries tail bound
    overflow_drift: float = 800.0

    name = "continuum"

    def prepare(self, seed: int, out_dir: Path) -> dict:
        del seed  # exact outputs do not depend on the seed
        argv = ["fp-eval", _flag("a", self.drifts), _flag("sigma2", self.sigma2s),
                _flag("t", self.times), "--out", str(out_dir / "fp"), "--jobs", "1"]
        curves = []
        for a in self.drifts:
            for s2 in self.sigma2s:
                for t in self.times:
                    if 0.5 * s2 * t <= self.pdf_tau_max:
                        nodes, weights = pdf_grid(a, s2, t)
                        curves.append((a, s2, t, nodes.tolist(), weights))
        return {"argv": argv, "csv": out_dir / "fp" / "fp_eval.csv", "curves": curves}

    def run_round(self, inputs: dict, ql) -> Round:
        fp = ql.fokker_planck
        out = Round()
        out.table("csv", ql.cli.main(inputs["argv"]), inputs["csv"],
                  len(self.drifts) * len(self.sigma2s) * len(self.times))
        for a, s2, t, nodes, _ in inputs["curves"]:
            params = fp.FpParams(a=a, sigma2=s2)
            ctrl = fp.SeriesControl()
            for i, x in enumerate(nodes):
                out.record(("pdf", a, s2, t, i), fp.loss_pdf, params, ctrl, x, t)
        t1, t2 = self.corr_windows
        for a in self.corr_drifts:
            params = fp.FpParams(a=a, sigma2=self.corr_sigma2)
            ctrl = fp.SeriesControl()
            for T in self.corr_separations:
                out.record(("corr", a, T), fp.loss_correlator, params, ctrl, t1, t2, T)
        params = fp.FpParams(a=self.overflow_drift, sigma2=self.corr_sigma2)
        ctrl = fp.SeriesControl()
        out.record("overflow_density", fp.transition_density, params, ctrl, 1.0, 1.0, 1.0)
        out.record("overflow_correlator", fp.loss_correlator, params, ctrl, t1, t2, 1.0)
        return out

    def check(self, inputs: dict, out: Round, log: oracles.CheckLog) -> None:
        _, rows = read_csv(out.values["csv"])
        for row in rows:
            a, s2, t = row["a"], row["sigma2"], row["t"]
            m2_ref, pl_ref = oracles.loss_inversions(a, s2, t)
            check_fp_row(log, f"a={a} sigma2={s2} t={t:.6g}", row, m2_ref, pl_ref)
        for a in self.drifts:
            for s2 in self.sigma2s:
                series = [r["p_loss"] for r in sorted(rows, key=lambda r: r["t"])
                          if r["a"] == a and r["sigma2"] == s2]
                # Near p_loss = 1 the inversions carry ~1e-8 of round-off, so
                # the order is checked at the p_loss tolerance.
                log.true("p_loss-monotone", f"a={a} sigma2={s2} p_loss non-decreasing in t",
                         all(y >= x - 1e-7 for x, y in zip(series, series[1:])))
        for a, s2, t, nodes, weights in inputs["curves"]:
            values = [out.values[("pdf", a, s2, t, i)] for i in range(len(nodes))]
            check_pdf_curve(log, f"a={a} sigma2={s2} t={t:.6g}", values, weights,
                            oracles.truncated_loss_mass(a, s2, t, pdf_top(a, s2, t)))
        t1, t2 = self.corr_windows
        for a in self.corr_drifts:
            for T in self.corr_separations:
                got = out.values[("corr", a, T)]
                if got is not None:
                    ref = oracles.correlator_mode_sum(a, self.corr_sigma2, t1, t2, T)
                    check_correlator(log, f"a={a} T={T}", got, ref)
        v = self.overflow_drift / self.corr_sigma2
        got = out.values["overflow_density"]
        if got is not None:
            log.close("large-drift", f"w(1, t; 1) at v={v}", got, oracles.wall_density(v), 1e-9)
        got = out.values["overflow_correlator"]
        if got is not None:
            ref = oracles.correlator_mode_sum(self.overflow_drift, self.corr_sigma2, t1, t2, 1.0)
            check_correlator(log, f"a={self.overflow_drift} T=1", got, ref)


def check_fp_row(log, tag, row, m2_ref, pl_ref) -> None:
    """One fp-eval CSV row against the mpmath inversions and closed forms."""
    a, s2, t = row["a"], row["sigma2"], row["t"]
    tau = 0.5 * s2 * t
    p1 = oracles.wall_density(a / s2)
    log.close("fp-tau", f"{tag} tau", row["tau"], tau, 1e-11)
    log.close("m1", f"{tag} m1", row["m1"], p1 * tau, 1e-10)
    log.close("m2", f"{tag} m2", row["m2"], m2_ref, 1e-7)
    log.close("loss_variance", f"{tag} loss_variance", row["loss_variance"],
              m2_ref - (p1 * tau) ** 2, 1e-7, 1e-7 * m2_ref)
    log.close("p_loss", f"{tag} p_loss", row["p_loss"], pl_ref, 1e-7)
    log.true("p_loss-range", f"{tag} p_loss={row['p_loss']!r} in [0, 1]",
             0.0 <= row["p_loss"] <= 1.0)
    log.close("m2-branches", f"{tag} short branch", row["m2_short_branch"],
              2.0 * p1 * tau**1.5 / math.gamma(2.5), 1e-10)
    log.close("m2-branches", f"{tag} long branch", row["m2_long_branch"], (p1 * tau) ** 2, 1e-10)


def check_pdf_curve(log, tag, values, weights, mass_ref) -> None:
    """Non-negativity of a loss_pdf curve and its mass on the x grid.

    The reference is the density's mass on [0, pdf_top], which is p_loss to
    ~1e-9 for v >= 0 and less than p_loss at negative drift, where the grid
    ends short of the density. A curve with a failed point has no mass.
    """
    done = [val for val in values if val is not None]
    peak = max(done, default=0.0)
    # Where the density vanishes the contour sum cancels to round-off, which
    # reaches ~1e-8 of the peak; the floor sits at the mass tolerance.
    log.true("pdf-nonnegative", f"{tag} min={min(done, default=0.0)!r}",
             all(val >= -1e-7 * peak for val in done))
    if len(done) < len(values):
        return
    mass = math.fsum(w * val for w, val in zip(weights, values))
    log.close("pdf-mass", f"{tag} curve mass", mass, mass_ref, 1e-7)


def check_correlator(log, tag, got, ref) -> None:
    # integrate() works to an absolute 1e-12, so small covariances get a floor.
    log.close("correlator", f"{tag} loss_correlator", got, ref, 1e-7, 1e-13)


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    walk_p: float = 0.5
    walk_L: int = 20
    walk_steps: int = 5_000_000
    walk_windows: tuple = (10, 100, 1000)
    interarrival_mean: float = 0.01
    packet_size: float = 0.01
    r_outs: tuple = (0.98, 1.0, 1.02)
    duration: float = 8000.0
    t_window: float = 20.0
    #: statistical checks pass within this many batch-means standard errors
    z_max: float = 6.0

    name = "monte-carlo"

    def prepare(self, seed: int, out_dir: Path) -> dict:
        del out_dir
        seeds = np.random.SeedSequence(seed).generate_state(1 + len(self.r_outs), dtype=np.uint64)
        return {"walk_seed": int(seeds[0]), "packet_seeds": [int(s) for s in seeds[1:]]}

    def run_round(self, inputs: dict, ql) -> Round:
        out = Round()
        params = ql.discrete.DiscreteQueueParams(p=self.walk_p, L=self.walk_L)
        # The path (17 bytes per step) must not outlive the round, or the
        # first round's copy would add to every later round's memory peak.
        path = out.record(None, ql.discrete.simulate_path, params,
                          self.walk_steps, 0, inputs["walk_seed"])
        if path is not None:
            for N in self.walk_windows:
                out.record(("walk", N), _walk_window, ql, params, path, N)
        del path
        out.values["rate_exact"] = ql.discrete.mean_loss_rate_exact(params)
        for r_out, seed in zip(self.r_outs, inputs["packet_seeds"]):
            out.record(("packet", r_out), self._packet_run, ql, r_out, seed)
        return out

    def _packet_run(self, ql, r_out: float, seed: int) -> dict:
        sim = ql.simulate
        traffic = sim.TrafficModel(
            interarrival=sim.Distribution(kind="exponential", mean=self.interarrival_mean),
            packet_size=sim.Distribution(kind="deterministic", mean=self.packet_size),
            r_out=r_out,
        )
        log = sim.run(traffic, duration=self.duration, seed=seed)
        est = sim.estimate_drift_diffusion(log, dt=20.0 * self.interarrival_mean)
        sample = sim.window_losses(log, t_window=self.t_window)
        st = ql.stats.mean_and_variance(ql.stats.WindowedSeries.from_loss_sample(sample))
        return {
            "arrived": log.arrived, "serviced": log.serviced, "dropped": log.dropped,
            "initial": log.initial_queue, "final": log.final_queue,
            "n_arrivals": log.n_arrivals, "n_drops": log.n_drops,
            "a_hat": est.a, "a_se": est.a_se, "s2_hat": est.sigma2, "s2_se": est.sigma2_se,
            "windows": np.array(sample.values), "mean": st.mean, "variance": st.variance,
        }

    def check(self, inputs: dict, out: Round, log: oracles.CheckLog) -> None:
        p, L = self.walk_p, self.walk_L
        pi_L = oracles.full_state_share(p, L)
        rate = pi_L * p
        log.close("walk-rate-exact", "mean_loss_rate_exact", out.values["rate_exact"], rate, 1e-10)
        g = oracles.full_state_returns([(p, L)], max(self.walk_windows))[0]
        ref_var = oracles.window_variances(g, pi_L, p, self.walk_windows)
        for N, var in zip(self.walk_windows, ref_var):
            res = out.values.get(("walk", N))
            if res is not None:
                check_walk_window(log, f"N={N}", res, N, rate, var, self.z_max)
        r_in = self.packet_size / self.interarrival_mean
        s2 = self.packet_size**2 / self.interarrival_mean
        for r_out in self.r_outs:
            res = out.values.get(("packet", r_out))
            if res is not None:
                check_packet_run(log, f"r_out={r_out}", res, self.packet_size,
                                 r_in - r_out, s2, self.z_max)


def _walk_window(ql, params, path, N):
    counts = path.window_counts(N)
    st = ql.stats.mean_and_variance(ql.stats.WindowedSeries.from_counts(counts, N))
    return {"counts": counts, "mean": st.mean, "mean_se": st.mean_se,
            "variance": st.variance, "variance_se": st.variance_se,
            "variance_exact": ql.discrete.loss_variance_exact(params, N)}


def _sample_moments(values: np.ndarray) -> tuple[float, float]:
    x = np.asarray(values, dtype=float)
    mean = math.fsum(x) / x.size
    return mean, math.fsum((x - mean) ** 2) / (x.size - 1)


def check_walk_window(log, tag, res, N, rate, var_ref, z_max) -> None:
    mean, var = _sample_moments(res["counts"])
    log.close("stats-moments", f"walk {tag} window mean", res["mean"], mean, 1e-12)
    log.close("stats-moments", f"walk {tag} window variance", res["variance"], var, 1e-9)
    log.close("walk-variance-exact", f"{tag} loss_variance_exact", res["variance_exact"],
              var_ref, 1e-8)
    log.within_se("walk-statistics", f"walk {tag} loss rate", res["mean"] / N, rate,
                  res["mean_se"] / N, z_max)
    log.within_se("walk-statistics", f"walk {tag} window variance", res["variance"], var_ref,
                  res["variance_se"], z_max)


def check_packet_run(log, tag, res, size, a_ref, s2_ref, z_max) -> None:
    arrived = res["arrived"]
    residual = arrived - (res["serviced"] + res["dropped"] + res["final"] - res["initial"])
    log.true("conservation", f"{tag} residual {residual!r} <= 1e-9 * arrived",
             abs(residual) <= 1e-9 * arrived)
    log.close("conservation", f"{tag} arrived volume", arrived, res["n_arrivals"] * size, 1e-9)
    log.close("conservation", f"{tag} dropped volume", res["dropped"], res["n_drops"] * size,
              1e-9, 1e-12)
    windows = res["windows"]
    log.true("windows", f"{tag} window losses non-negative, sum within dropped volume",
             bool(np.all(windows >= 0.0)) and math.fsum(windows) <= res["dropped"] * (1 + 1e-12))
    mean, var = _sample_moments(windows)
    log.close("stats-moments", f"packet {tag} window mean", res["mean"], mean, 1e-12, 1e-15)
    log.close("stats-moments", f"packet {tag} window variance", res["variance"], var, 1e-9, 1e-15)
    log.within_se("drift-diffusion", f"{tag} a_hat", res["a_hat"], a_ref, res["a_se"], z_max)
    log.within_se("drift-diffusion", f"{tag} sigma2_hat", res["s2_hat"], s2_ref,
                  res["s2_se"], z_max)


@dataclass(frozen=True)
class Combined:
    """Parts run one after another as one round, each in its own directory."""

    name: str
    parts: tuple

    def prepare(self, seed: int, out_dir: Path) -> list:
        return [part.prepare(seed, out_dir / part.name) for part in self.parts]

    def run_round(self, inputs: list, ql) -> Round:
        out = Round()
        for part, part_inputs in zip(self.parts, inputs):
            out.merge(part.run_round(part_inputs, ql))
        return out

    def check(self, inputs: list, out: Round, log: oracles.CheckLog) -> None:
        for part, part_inputs in zip(self.parts, inputs):
            part.check(part_inputs, out, log)


# The exact discrete tables and the continuum evaluators share one workload:
# apart, the continuum's pure-Python rounds swung by a quarter between runs
# on a shared host, and next to the steadier eigensolves they swing less.
WORKLOADS = {w.name: w for w in (Combined("exact", (DiscreteExact(), Continuum())),
                                 MonteCarlo())}
