"""Command-line harness: configured experiment runs emitting CSV tables.

Subcommands
-----------
exact-discrete   closed-form loss statistics over a (p, L, N) grid
sim-discrete     Monte Carlo paths vs the exact evaluators, with error bars
fp-eval          continuum-model evaluators over an (a, sigma2, t) grid
sim-continuous   packet simulator runs bridged to the continuum predictions
sweep            run any of the above from a config file across its grid
check            fast invariant suite; nonzero exit on any failure

Every experiment writes one of four CSV kinds, each one entry of
:data:`KINDS` (its grid axes, worker, header and whether each grid point
runs once per replica seed). A config picks its kind by ``model``, and a
discrete config with ``steps`` is the Monte Carlo kind. Each subcommand
other than ``sweep`` writes only its own kind and rejects a config of
another kind; ``sweep`` runs any.

Configs are INI-style ``key = value`` files with sections (see README for
the schema); every CSV starts with ``#``-prefixed metadata (config hash,
seed list, package version). The config hash covers every config field
except the output directory, so one experiment written to two directories
gives byte-for-byte identical files.

This module owns every file format the package writes: the experiment
tables and the window and event exports of packet runs
(:func:`export_windows_csv`, :func:`export_events_csv`) all go through one
CSV writer; the model modules write no files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__, discrete, fokker_planck, numerics, simulate, stats

_FMT = "%.12g"


class ConfigError(ValueError):
    """A config file failed validation; the message names section and key."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    grid: dict[str, list[float]]
    windows: list[float]
    replicas: int = 1
    seed: int = 0
    out: str = "results"
    duration: float | None = None
    steps: int | None = None

    def __post_init__(self) -> None:
        if self.model not in ("discrete", "continuous", "fp"):
            raise ConfigError(f"[experiment] model must be discrete/continuous/fp, got {self.model!r}")
        if not self.grid or any(len(v) == 0 for v in self.grid.values()):
            raise ConfigError("[grid] is empty")
        if not self.windows:
            raise ConfigError("[windows] is empty")
        if self.replicas < 1:
            raise ConfigError("[experiment] replicas must be >= 1")
        if self.seed < 0:
            raise ConfigError("[experiment] seed must be >= 0")


#: The config fields that set how long a Monte Carlo run is.
_RUN_LENGTHS = ("duration", "steps")

#: The keys ``load_config`` accepts in ``[experiment]``.
_EXPERIMENT_KEYS = ("model", "replicas", "seed", "out")


def _parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    try:
        exp = parser["experiment"]
        unknown = sorted(set(exp) - set(_EXPERIMENT_KEYS))
        if unknown:
            raise ConfigError(f"config {path!r}: unknown [experiment] key(s) {', '.join(unknown)}"
                              f"; expected {', '.join(_EXPERIMENT_KEYS)}")
        grid = dict(parser["grid"]) if parser.has_section("grid") else {}
        duration = grid.pop("duration", None)
        steps = grid.pop("steps", None)
        windows = dict(parser["windows"]) if parser.has_section("windows") else {}
        if len(windows) > 1 or not set(windows) <= {"n", "t"}:
            raise ConfigError(f"config {path!r}: [windows] takes one key, n or t, "
                              f"got {', '.join(windows)}")
        return ExperimentConfig(
            model=exp.get("model", "discrete").strip(),
            grid={key: _parse_float_list(val) for key, val in grid.items()},
            windows=_parse_float_list(windows.get("t", windows.get("n", ""))),
            replicas=exp.getint("replicas", 1),
            seed=exp.getint("seed", 0),
            out=exp.get("out", "results"),
            duration=None if duration is None else float(duration),
            steps=None if steps is None else int(float(steps)),
        )
    except ConfigError:
        raise
    except (KeyError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"config {path!r}: {exc}") from exc


PRESETS: dict[str, ExperimentConfig] = {
    # Compressibility sweep at criticality: square-root rise into the
    # saturation plateau near 2L/3 (the crossover window at L=100 sits near
    # N ~ 1e3, so the sweep runs a decade past it).
    "fig2-desk": ExperimentConfig(
        model="discrete",
        grid={"p": [0.5], "l": [100.0]},
        windows=[float(n) for n in np.unique(np.round(np.logspace(2, 5, 19)).astype(int))],
        replicas=1,
        seed=20240,
    ),
    # Mean loss rate across the three regimes: exponentially small,
    # buffer-limited, and order 2p-1.
    "loss-asymptotes": ExperimentConfig(
        model="discrete",
        grid={"p": [0.3, 0.5, 0.7], "l": [20.0]},
        windows=[1000.0],
        replicas=1,
        seed=20241,
    ),
}


def _config_hash(config: ExperimentConfig) -> str:
    """Digest of every config field except ``out``, the output directory;
    the order in which the grid axes were listed does not count."""
    fields = {k: v for k, v in config.__dict__.items() if k != "out"}
    fields["grid"] = sorted(config.grid.items())
    canon = repr(sorted(fields.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _write_csv(path: Path, header: str, rows: Iterable, meta: dict) -> None:
    """Write the ``# key: value`` metadata lines, the header and one line per
    row, floats as %.12g, creating the parent directory. ``rows`` may be any
    iterable; each row is written as it is drawn."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        fh.write(header + "\n")
        fh.writelines(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row) + "\n"
                      for row in rows)


def export_windows_csv(sample: simulate.LossSample, path, metadata: dict | None = None) -> None:
    """Write the window table: window_index, t_start, lost_volume, idle_time."""
    rows = zip(range(sample.n_windows), sample.window_starts(), sample.values, sample.idle)
    _write_csv(Path(path), "window_index,t_start,lost_volume,idle_time", rows, metadata or {})


def export_events_csv(log: simulate.EventLog, path, metadata: dict | None = None) -> None:
    """Write the full event record (requires ``record_events=True``).

    Columns, in order: time, size, accepted, queue_before, queue_after.
    """
    if log.events is None:
        raise ValueError("log was run without record_events=True")
    ev = log.events
    rows = ((time, size, int(accepted), before, after) for time, size, accepted, before, after
            in zip(ev["time"], ev["size"], ev["accepted"], ev["queue_before"], ev["queue_after"]))
    _write_csv(Path(path), "time,size,accepted,queue_before,queue_after", rows, metadata or {})


def _rate_asymptote(p: float, L: float) -> float:
    if p > 0.5:
        return 2.0 * p - 1.0
    if p == 0.5:
        return p / (L + 1.0)
    q = p / (1.0 - p)
    return (1.0 - 2.0 * p) / (1.0 - p) * q**L


# ---------------------------------------------------------------------------
# Grid-point workers: worker(point, config, seed) -> rows. ``point`` holds
# the kind's axis values; ``seed`` is a :class:`Seed` for seeded kinds and
# None otherwise. Module-level so process pools can pickle them.
# ---------------------------------------------------------------------------


class Seed(NamedTuple):
    """One replica of a seeded grid point: its index and its 64-bit seed."""

    replica: int
    value: int


def _exact_discrete_point(point, config: ExperimentConfig, seed: Seed | None) -> list[list]:
    p, L = point
    params = discrete.DiscreteQueueParams(p=p, L=int(L))
    rate = discrete.mean_loss_rate_exact(params)
    rows = []
    for N in config.windows:
        N = int(N)
        var = discrete.loss_variance_exact(params, N)
        chi = var / (N * rate) if rate > 0 else float("nan")
        rows.append([p, int(L), N, rate, _rate_asymptote(p, L), var, chi,
                     discrete.crossover_window(params)])
    return rows


def _sim_discrete_point(point, config: ExperimentConfig, seed: Seed | None) -> list[list]:
    p, L = point
    params = discrete.DiscreteQueueParams(p=p, L=int(L))
    path = discrete.simulate_path(params, n_steps=config.steps, seed=seed.value)
    rate_exact = discrete.mean_loss_rate_exact(params)
    rows = []
    for N in config.windows:
        N = int(N)
        series = stats.WindowedSeries.from_counts(path.window_counts(N), N)
        st = stats.mean_and_variance(series)
        rate = st.mean / N
        rate_se = st.mean_se / N
        var_exact = discrete.loss_variance_exact(params, N)
        rate_ok = abs(rate - rate_exact) <= 3.0 * rate_se if rate_se > 0 else True
        var_ok = abs(st.variance - var_exact) <= 3.0 * st.variance_se
        rows.append([p, int(L), N, seed.replica, seed.value, rate, rate_se, rate_exact,
                     int(rate_ok), st.variance, st.variance_se, var_exact, int(var_ok)])
    return rows


def _fp_point(point, config: ExperimentConfig, seed: Seed | None) -> list[list]:
    a, sigma2 = point
    params = fokker_planck.FpParams(a=a, sigma2=sigma2)
    ctrl = fokker_planck.SeriesControl()
    rows = []
    for t in config.windows:
        tau = params.tau(t)
        m1 = fokker_planck.loss_moment(params, ctrl, 1, t)
        m2 = fokker_planck.loss_moment(params, ctrl, 2, t)
        p_loss = fokker_planck.loss_probability(params, ctrl, t)
        short = fokker_planck.loss_moment_asymptotic(params, 2, t, "short")
        long_ = fokker_planck.loss_moment_asymptotic(params, 2, t, "long")
        rows.append([a, sigma2, t, tau, m1, m2, m2 - m1 * m1, p_loss, short, long_])
    return rows


def _sim_continuous_point(point, config: ExperimentConfig, seed: Seed | None) -> list[list]:
    ia_mean, size, r_out = point
    traffic = simulate.TrafficModel(
        interarrival=simulate.Distribution(kind="exponential", mean=ia_mean),
        packet_size=simulate.Distribution(kind="deterministic", mean=size),
        r_out=r_out,
    )
    log = simulate.run(traffic, duration=config.duration, seed=seed.value)
    conserved = abs(log.conservation_residual()) <= 1e-9 * max(1.0, log.arrived)
    est = simulate.estimate_drift_diffusion(log, dt=20.0 * ia_mean)
    params = est.as_fp_params()
    ctrl = fokker_planck.SeriesControl()
    rows = []
    for t_w in config.windows:
        sample = simulate.window_losses(log, t_window=t_w)
        series = stats.WindowedSeries.from_loss_sample(sample)
        st = stats.mean_and_variance(series)
        m1 = fokker_planck.loss_moment(params, ctrl, 1, sample.window_length)
        m2 = fokker_planck.loss_moment(params, ctrl, 2, sample.window_length)
        var_pred = m2 - m1 * m1
        mean_ok = abs(st.mean - m1) <= 3.0 * st.mean_se
        var_ok = abs(st.variance - var_pred) <= 3.0 * st.variance_se
        rows.append([ia_mean, size, r_out, config.duration, seed.replica, seed.value, t_w,
                     est.a, est.a_se, est.sigma2, est.sigma2_se,
                     st.mean, st.mean_se, m1, int(mean_ok),
                     st.variance, st.variance_se, var_pred, int(var_ok),
                     int(conserved)])
    return rows


@dataclass(frozen=True)
class TableKind:
    """One CSV kind: the config model that writes it, the grid axes it ranges
    over (in task order), its worker and header, and whether each point runs
    once per replica seed. ``needs`` names the other config fields it
    requires (of ``duration`` and ``steps``; the other one must be unset)."""

    model: str
    axes: tuple[str, ...]
    worker: Callable
    header: str
    seeded: bool = False
    needs: tuple[str, ...] = ()


KINDS: dict[str, TableKind] = {
    "discrete-exact": TableKind(
        "discrete", ("p", "l"), _exact_discrete_point,
        "p,L,N,mean_loss_rate,rate_asymptote,loss_variance,compressibility,crossover_window",
    ),
    "discrete-sim": TableKind(
        "discrete", ("p", "l"), _sim_discrete_point,
        "p,L,N,replica,seed,rate_mc,rate_se,rate_exact,rate_within_3se,"
        "variance_mc,variance_se,variance_exact,variance_within_3se",
        seeded=True, needs=("steps",),
    ),
    "fp": TableKind(
        "fp", ("a", "sigma2"), _fp_point,
        "a,sigma2,t,tau,m1,m2,loss_variance,p_loss,m2_short_branch,m2_long_branch",
    ),
    "continuous-sim": TableKind(
        "continuous", ("interarrival_mean", "packet_size", "r_out"), _sim_continuous_point,
        "interarrival_mean,packet_size,r_out,duration,replica,seed,t_window,a_hat,a_se,"
        "sigma2_hat,sigma2_se,mean_mc,mean_se,mean_fp,mean_within_3se,"
        "variance_mc,variance_se,variance_fp,variance_within_3se,volume_conserved",
        seeded=True, needs=("duration",),
    ),
}


def table_kind(config: ExperimentConfig) -> str:
    """The CSV kind a config writes; ``steps`` makes a discrete run Monte Carlo."""
    if config.model == "discrete":
        return "discrete-sim" if config.steps else "discrete-exact"
    return next(kind for kind, table in KINDS.items() if table.model == config.model)


def _run_point(task):
    """Run one grid point, capturing its failure instead of killing the run."""
    worker, point, config, seed = task
    try:
        return "ok", worker(point, config, seed)
    except Exception as exc:  # noqa: BLE001 - per-point status reporting
        return "error", f"{type(exc).__name__}: {exc}"


def _replica_seeds(root: int, replicas: int) -> list[int]:
    """64-bit replica seeds hashed from the root by ``SeedSequence``; unlike
    ``root + c * r``, the seed lists of different roots do not overlap."""
    return [int(s) for s in np.random.SeedSequence(root).generate_state(replicas, np.uint64)]


def run_experiment(config: ExperimentConfig, out_path: Path, jobs: int = 1) -> int:
    """Execute a configured grid and write one CSV; returns the exit status.

    The exit status is 1 when a continuous-model row fails volume
    conservation or when no grid point produced a row; disagreement flags
    are data. A grid point whose evaluator raises is left out of the body
    and named on stderr and in a ``failed_point_<i>`` metadata line (its
    axis values, its replica and seed where the kind is seeded, and the
    exception); while other points produce rows it does not change the
    status. Invalid grids, including grid keys the kind does not use and
    discrete window lengths that are not integers >= 1, raise
    :class:`ConfigError` before any point runs, as does ``jobs`` below 1.
    At most one worker process runs per task.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    kind = table_kind(config)
    table = KINDS[kind]
    missing = [axis for axis in table.axes if not config.grid.get(axis)]
    missing += [field for field in table.needs if not getattr(config, field)]
    if missing:
        raise ConfigError(f"[grid] the {kind} table needs {', '.join(missing)}")
    unknown = sorted(set(config.grid) - set(table.axes))
    unknown += [field for field in _RUN_LENGTHS
                if getattr(config, field) is not None and field not in table.needs]
    if unknown:
        raise ConfigError(f"[grid] {', '.join(unknown)} not used by the {kind} table, "
                          f"whose axes are {', '.join(table.axes)}")
    if table.model == "discrete":
        bad = [N for N in config.windows if not (float(N).is_integer() and N >= 1)]
        if bad:
            raise ConfigError(f"[windows] discrete window lengths must be integers >= 1, got {bad}")
    seeds = _replica_seeds(config.seed, config.replicas)
    replicas = [Seed(r, s) for r, s in enumerate(seeds)] if table.seeded else [None]
    points = itertools.product(*(config.grid[axis] for axis in table.axes))
    tasks = [(table.worker, point, config, seed)
             for point, seed in itertools.product(points, replicas)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_point, tasks))
    else:
        outcomes = [_run_point(task) for task in tasks]
    rows: list[list] = []
    failures: list[str] = []
    for (_, point, _, seed), (status, payload) in zip(tasks, outcomes):
        if status == "ok":
            rows.extend(payload)
            continue
        where = [f"{axis}={value!r}" for axis, value in zip(table.axes, point)]
        where += [] if seed is None else [f"replica={seed.replica}", f"seed={seed.value}"]
        failures.append(f"{' '.join(where)}: {payload}")
        print(f"grid point failed: {failures[-1]}", file=sys.stderr)
    rows.sort(key=lambda row: tuple(map(float, row)))

    conserved = not table.header.endswith("volume_conserved") or all(row[-1] for row in rows)
    meta = {"tool": f"queueloss {__version__}", "config_hash": _config_hash(config),
            "model": config.model, "seeds": " ".join(str(s) for s in seeds)}
    meta.update((f"failed_point_{i}", failure) for i, failure in enumerate(failures))
    _write_csv(out_path, table.header, rows, meta)
    return 0 if rows and conserved else 1


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------


def run_checks() -> int:
    """Fast hard-invariant suite; prints one line per check."""
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        if not ok:
            failures += 1

    params = discrete.DiscreteQueueParams(p=0.6, L=12)
    kernel = discrete.build_kernel(params)
    report("kernel rows sum to 1", bool(np.abs(kernel.sum(axis=1) - 1).max() < 1e-12))
    pi = discrete.stationary_distribution(params)
    report("stationary law is a fixed point", bool(np.abs(pi @ kernel - pi).max() < 1e-10))
    rate = discrete.mean_loss_rate_exact(params)
    report("rate equals boundary weight times p", abs(rate - pi[-1] * params.p) < 1e-12)
    m = rate
    report(
        "one-step loss variance is Bernoulli",
        abs(discrete.loss_variance_exact(params, 1) - m * (1 - m)) < 1e-12,
    )

    fpp = fokker_planck.FpParams(a=1.0, sigma2=2.0)
    ctrl = fokker_planck.SeriesControl()
    density = fokker_planck.transition_density
    # The densities are smooth on [0, 1]: a 32-node Gauss-Legendre rule
    # integrates them to round-off.
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    mids, weights = 0.5 * (gl_x + 1.0), 0.5 * gl_w
    norm = math.fsum(weights * density(fpp, ctrl, mids, 0.05, 0.4))
    report("transition density normalized", abs(norm - 1.0) < 1e-8)
    j0 = abs(fokker_planck.probability_current(fpp, ctrl, 0.0, 0.05, 0.4))
    j1 = abs(fokker_planck.probability_current(fpp, ctrl, 1.0, 0.05, 0.4))
    report("boundary flux vanishes", max(j0, j1) < 1e-6)
    last_leg = np.array([density(fpp, ctrl, 0.7, 0.04, mid) for mid in mids])
    ck = math.fsum(weights * last_leg * density(fpp, ctrl, mids, 0.03, 0.2))
    direct = density(fpp, ctrl, 0.7, 0.07, 0.2)
    report("Chapman-Kolmogorov composes", abs(ck - direct) < 1e-5)
    inverted, _ = numerics.laplace_invert(
        lambda eps: fokker_planck.laplace_propagator(fpp, 0.7, eps, 0.4), fpp.tau(0.05))
    report("series density matches the inverted propagator",
           abs(density(fpp, ctrl, 0.7, 0.05, 0.4) - inverted) < 1e-7)
    v1, _ = numerics.laplace_invert(lambda s: 1.0 / s**2, 1.7)
    v2, _ = numerics.laplace_invert(lambda s: 1.0 / (s + 1.0), 1.7)
    report(
        "Laplace inversion matches known pairs",
        abs(v1 - 1.7) < 1e-7 * 1.7 and abs(v2 - math.exp(-1.7)) < 1e-7,
    )
    # loss_pdf is 0 past p(1)(tau + 12 sqrt(tau) + 1); four 16-node panels
    # up to there integrate the smooth density to about 1e-9.
    t_pdf = 0.5
    tau = fpp.tau(t_pdf)
    top = float(fokker_planck.stationary_density(fpp, 1.0)) * (tau + 12.0 * math.sqrt(tau) + 1.0)
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    half = 0.125 * top
    xs = (np.arange(4)[:, None] * 2.0 + 1.0 + gl_x) * half
    mass = math.fsum(
        w * fokker_planck.loss_pdf(fpp, ctrl, x, t_pdf)
        for x, w in zip(xs.ravel().tolist(), np.tile(half * gl_w, 4).tolist())
    )
    report("lost-volume density integrates to the loss probability",
           abs(mass - fokker_planck.loss_probability(fpp, ctrl, t_pdf)) < 1e-7)

    traffic = simulate.TrafficModel(
        interarrival=simulate.Distribution(kind="exponential", mean=0.01),
        packet_size=simulate.Distribution(kind="deterministic", mean=0.01),
        r_out=1.0,
    )
    log = simulate.run(traffic, duration=500.0, seed=9)
    report(
        "simulated volume conserved",
        abs(log.conservation_residual()) < 1e-9 * max(1.0, log.arrived),
    )
    log_b = simulate.run(traffic, duration=500.0, seed=9)
    report("simulation deterministic under the seed", log.summary() == log_b.summary())
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Flag(NamedTuple):
    """A grid flag of a subcommand. ``target`` is a grid axis, ``windows`` or
    a run length (``steps``, ``duration``). A run-length flag applies on top
    of --config/--preset when given; its ``default`` fills the field only
    when neither sets it."""

    name: str
    target: str
    default: object = None
    type: Callable = str


_P = _Flag("--p", "p")
_L = _Flag("--L", "l")

#: subcommand: (help, the CSV kind it writes or None for any, CSV name, grid flags)
_SUBCOMMANDS = {
    "exact-discrete": ("closed-form discrete-model tables", "discrete-exact",
                       "exact_discrete.csv", (_P, _L, _Flag("--N", "windows", "1000"))),
    "sim-discrete": ("Monte Carlo discrete paths vs exact", "discrete-sim", "sim_discrete.csv",
                     (_P, _L, _Flag("--N", "windows", "100"),
                      _Flag("--steps", "steps", 10**6, int))),
    "fp-eval": ("continuum-model evaluator tables", "fp", "fp_eval.csv",
                (_Flag("--a", "a"), _Flag("--sigma2", "sigma2"), _Flag("--t", "windows", "1.0"))),
    "sim-continuous": ("packet simulator bridged to the continuum", "continuous-sim",
                       "sim_continuous.csv",
                       (_Flag("--interarrival-mean", "interarrival_mean", "0.01"),
                        _Flag("--packet-size", "packet_size", "0.01"),
                        _Flag("--r-out", "r_out", "1.0"), _Flag("--t-window", "windows", "20"),
                        _Flag("--duration", "duration", 20000.0, float))),
    "sweep": ("run the full grid from a config file", None, "sweep_{model}.csv", ()),
}


def _resolve(args: argparse.Namespace, kind: str | None, flags) -> ExperimentConfig:
    """The config a subcommand runs: --config, else --preset, else its grid
    flags; then --out/--seed/--replicas and the run-length flags given on
    top. A config of another kind than the subcommand's is a
    :class:`ConfigError`."""
    passed = {flag.target: getattr(args, flag.target) for flag in flags}
    given = {flag.target: flag.default if passed[flag.target] is None else passed[flag.target]
             for flag in flags}
    if args.config:
        config = load_config(args.config)
    elif args.preset:
        config = PRESETS[args.preset]
    elif flags and all(value is not None for value in given.values()):
        table = KINDS[kind]
        fields = {k: v for k, v in given.items() if k not in table.axes and k != "windows"}
        config = ExperimentConfig(
            model=table.model,
            grid={axis: _parse_float_list(given[axis]) for axis in table.axes},
            windows=_parse_float_list(given["windows"]),
            **fields,
        )
    else:
        raise ConfigError("need --config, --preset, or explicit grid flags")
    updates = {k: getattr(args, k) for k in ("out", "seed", "replicas")
               if getattr(args, k) is not None}
    updates.update({field: given[field] for field in _RUN_LENGTHS if field in given
                    and (passed[field] is not None or getattr(config, field) is None)})
    config = replace(config, **updates)
    if kind is not None and table_kind(config) != kind:
        raise ConfigError(
            f"{args.command} writes only the {kind} table, but the config describes "
            f"a {table_kind(config)} table; run it with sweep"
        )
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="queueloss",
        description="Finite-buffer queue loss statistics: exact, continuum, and Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, _, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", type=str, default=None, help="INI config file")
        sp.add_argument("--preset", type=str, default=None, choices=sorted(PRESETS))
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="root 64-bit seed")
        sp.add_argument("--replicas", type=int, default=None)
        sp.add_argument("--jobs", type=int, default=1, help="parallel grid workers")
        for flag in flags:
            sp.add_argument(flag.name, dest=flag.target, type=flag.type)
    sub.add_parser("check", help="run the hard-invariant suite")

    args = parser.parse_args(argv)
    if args.command == "check":
        return run_checks()
    _, kind, csv_name, flags = _SUBCOMMANDS[args.command]
    try:
        config = _resolve(args, kind, flags)
        out = Path(config.out) / csv_name.format(model=config.model)
        return run_experiment(config, out.absolute(), jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
