"""Command-line harness: configured experiment runs emitting CSV tables.

Subcommands
-----------
exact-discrete   closed-form loss statistics over a (p, L, N) grid
sim-discrete     Monte Carlo paths vs the exact evaluators, with error bars
fp-eval          continuum-model evaluators over an (a, sigma2, t) grid
sim-continuous   packet simulator runs bridged to the continuum predictions
sweep            run any of the above from a config file across its grid
check            fast invariant suite; nonzero exit on any failure

Configs are INI-style ``key = value`` files with sections (see README for
the schema); every CSV starts with ``#``-prefixed metadata (config hash,
seed list, package version) so a run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

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
    laplace_nodes: int = 48

    def __post_init__(self) -> None:
        if self.model not in ("discrete", "continuous", "fp"):
            raise ConfigError(f"[experiment] model must be discrete/continuous/fp, got {self.model!r}")
        if not self.grid or any(len(v) == 0 for v in self.grid.values()):
            raise ConfigError("[grid] is empty")
        if not self.windows:
            raise ConfigError("[windows] is empty")
        if self.replicas < 1:
            raise ConfigError("[experiment] replicas must be >= 1")


def _parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    try:
        exp = parser["experiment"]
        model = exp.get("model", "discrete").strip()
        grid_sec = parser["grid"] if parser.has_section("grid") else {}
        grid = {key: _parse_float_list(val) for key, val in dict(grid_sec).items()
                if key not in ("duration", "steps")}
        win_sec = parser["windows"] if parser.has_section("windows") else {}
        windows: list[float] = []
        for key in ("n", "t"):
            if key in win_sec:
                windows = _parse_float_list(win_sec[key])
        duration = None
        steps = None
        if parser.has_section("grid"):
            if "duration" in parser["grid"]:
                duration = float(parser["grid"]["duration"])
            if "steps" in parser["grid"]:
                steps = int(float(parser["grid"]["steps"]))
        return ExperimentConfig(
            model=model,
            grid=grid,
            windows=windows,
            replicas=exp.getint("replicas", 1),
            seed=exp.getint("seed", 0),
            out=exp.get("out", "results"),
            duration=duration,
            steps=steps,
            laplace_nodes=exp.getint("laplace_nodes", 48),
        )
    except (KeyError, ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
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
    canon = repr(sorted(config.__dict__.items(), key=lambda kv: kv[0]))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _write_csv(path: Path, header: list[str], rows: list[list], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _rate_asymptote(p: float, L: float) -> float:
    if p > 0.5:
        return 2.0 * p - 1.0
    if p == 0.5:
        return p / (L + 1.0)
    q = p / (1.0 - p)
    return (1.0 - 2.0 * p) / (1.0 - p) * q**L


# ---------------------------------------------------------------------------
# Grid-point workers (module-level so process pools can pickle them)
# ---------------------------------------------------------------------------


def _exact_discrete_point(args) -> list[list]:
    p, L, windows = args
    params = discrete.DiscreteQueueParams(p=p, L=int(L))
    rate = discrete.mean_loss_rate_exact(params)
    rows = []
    for N in windows:
        N = int(N)
        var = discrete.loss_variance_exact(params, N)
        chi = var / (N * rate) if rate > 0 else float("nan")
        rows.append([p, int(L), N, rate, _rate_asymptote(p, L), var, chi,
                     discrete.crossover_window(params)])
    return rows


def _sim_discrete_point(args) -> list[list]:
    p, L, windows, steps, seed, replica = args
    params = discrete.DiscreteQueueParams(p=p, L=int(L))
    path = discrete.simulate_path(params, n_steps=steps, seed=seed)
    rate_exact = discrete.mean_loss_rate_exact(params)
    rows = []
    for N in windows:
        N = int(N)
        series = stats.WindowedSeries.from_counts(path.window_counts(N), N)
        st = stats.mean_and_variance(series)
        rate = st.mean / N
        rate_se = st.mean_se / N
        var_exact = discrete.loss_variance_exact(params, N)
        rate_ok = abs(rate - rate_exact) <= 3.0 * rate_se if rate_se > 0 else True
        var_ok = abs(st.variance - var_exact) <= 3.0 * st.variance_se
        rows.append([p, int(L), N, replica, seed, rate, rate_se, rate_exact,
                     int(rate_ok), st.variance, st.variance_se, var_exact, int(var_ok)])
    return rows


def _fp_point(args) -> list[list]:
    a, sigma2, windows, nodes = args
    params = fokker_planck.FpParams(a=a, sigma2=sigma2)
    ctrl = fokker_planck.SeriesControl(laplace_nodes=nodes)
    rows = []
    for t in windows:
        tau = params.tau(t)
        m1 = fokker_planck.loss_moment(params, ctrl, 1, t)
        m2 = fokker_planck.loss_moment(params, ctrl, 2, t)
        p_loss = fokker_planck.loss_probability(params, ctrl, t)
        short = fokker_planck.loss_moment_asymptotic(params, 2, t, "short")
        long_ = fokker_planck.loss_moment_asymptotic(params, 2, t, "long")
        rows.append([a, sigma2, t, tau, m1, m2, m2 - m1 * m1, p_loss, short, long_])
    return rows


def _sim_continuous_point(args) -> list[list]:
    ia_mean, size, r_out, windows, duration, seed, replica = args
    traffic = simulate.TrafficModel(
        interarrival=simulate.Distribution(kind="exponential", mean=ia_mean),
        packet_size=simulate.Distribution(kind="deterministic", mean=size),
        r_out=r_out,
    )
    log = simulate.run(traffic, duration=duration, seed=seed)
    conserved = abs(log.conservation_residual()) <= 1e-9 * max(1.0, log.arrived)
    est = simulate.estimate_drift_diffusion(log, dt=20.0 * ia_mean)
    params = est.as_fp_params()
    ctrl = fokker_planck.SeriesControl()
    rows = []
    for t_w in windows:
        sample = simulate.window_losses(log, t_window=t_w)
        series = stats.WindowedSeries.from_loss_sample(sample)
        st = stats.mean_and_variance(series)
        m1 = fokker_planck.loss_moment(params, ctrl, 1, sample.window_length)
        m2 = fokker_planck.loss_moment(params, ctrl, 2, sample.window_length)
        var_pred = m2 - m1 * m1
        mean_ok = abs(st.mean - m1) <= 3.0 * st.mean_se
        var_ok = abs(st.variance - var_pred) <= 3.0 * st.variance_se
        rows.append([ia_mean, size, r_out, duration, replica, seed, t_w,
                     est.a, est.a_se, est.sigma2, est.sigma2_se,
                     st.mean, st.mean_se, m1, int(mean_ok),
                     st.variance, st.variance_se, var_pred, int(var_ok),
                     int(conserved)])
    return rows


def _run_point(work):
    """Run one grid point, capturing its failure instead of killing the run."""
    worker, task = work
    try:
        return "ok", worker(task)
    except Exception as exc:  # noqa: BLE001 - per-point status reporting
        return "error", f"{type(exc).__name__}: {exc}"


_HEADERS = {
    "discrete-exact": ["p", "L", "N", "mean_loss_rate", "rate_asymptote",
                       "loss_variance", "compressibility", "crossover_window"],
    "discrete-sim": ["p", "L", "N", "replica", "seed", "rate_mc", "rate_se",
                     "rate_exact", "rate_within_3se", "variance_mc", "variance_se",
                     "variance_exact", "variance_within_3se"],
    "fp": ["a", "sigma2", "t", "tau", "m1", "m2", "loss_variance", "p_loss",
           "m2_short_branch", "m2_long_branch"],
    "continuous-sim": ["interarrival_mean", "packet_size", "r_out", "duration",
                       "replica", "seed", "t_window", "a_hat", "a_se",
                       "sigma2_hat", "sigma2_se", "mean_mc", "mean_se",
                       "mean_fp", "mean_within_3se", "variance_mc", "variance_se",
                       "variance_fp", "variance_within_3se", "volume_conserved"],
}


def run_experiment(config: ExperimentConfig, out_path: Path, jobs: int = 1) -> int:
    """Execute a configured grid and write one CSV; returns the exit status.

    The exit status is 1 only when a continuous-model row fails volume
    conservation; disagreement flags are data. A grid point whose evaluator
    raises is left out of the body and named on stderr and in a
    ``failed_point_<i>`` metadata line; it does not change the status.
    Invalid grids, including discrete window lengths that are not integers
    >= 1, raise :class:`ConfigError` before any point runs.
    """
    seeds = [config.seed + 1000003 * r for r in range(config.replicas)]
    tasks: list[tuple] = []
    if config.model == "discrete":
        ps = config.grid.get("p")
        ls = config.grid.get("l") or config.grid.get("L")
        if not ps or not ls:
            raise ConfigError("[grid] needs p and L for the discrete model")
        bad = [N for N in config.windows if not (float(N).is_integer() and N >= 1)]
        if bad:
            raise ConfigError(f"[windows] discrete window lengths must be integers >= 1, got {bad}")
        if config.steps:
            kind = "discrete-sim"
            for p in ps:
                for L in ls:
                    for r, seed in enumerate(seeds):
                        tasks.append((p, L, config.windows, config.steps, seed, r))
            worker = _sim_discrete_point
        else:
            kind = "discrete-exact"
            for p in ps:
                for L in ls:
                    tasks.append((p, L, config.windows))
            worker = _exact_discrete_point
    elif config.model == "fp":
        kind = "fp"
        a_list = config.grid.get("a")
        s_list = config.grid.get("sigma2")
        if not a_list or not s_list:
            raise ConfigError("[grid] needs a and sigma2 for the fp model")
        for a in a_list:
            for s2 in s_list:
                tasks.append((a, s2, config.windows, config.laplace_nodes))
        worker = _fp_point
    else:
        kind = "continuous-sim"
        ia = config.grid.get("interarrival_mean")
        size = config.grid.get("packet_size")
        r_out = config.grid.get("r_out")
        if not (ia and size and r_out):
            raise ConfigError(
                "[grid] needs interarrival_mean, packet_size, r_out for the continuous model"
            )
        if not config.duration:
            raise ConfigError("[grid] duration is required for the continuous model")
        for m in ia:
            for s in size:
                for ro in r_out:
                    for r, seed in enumerate(seeds):
                        tasks.append((m, s, ro, config.windows, config.duration, seed, r))
        worker = _sim_continuous_point

    wrapped = [(worker, t) for t in tasks]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_point, wrapped))
    else:
        outcomes = [_run_point(w) for w in wrapped]
    chunks = []
    failures: list[str] = []
    for task, outcome in zip(tasks, outcomes):
        status, payload = outcome
        if status == "ok":
            chunks.append(payload)
        else:
            failures.append(f"{task}: {payload}")
            print(f"grid point failed: {task}: {payload}", file=sys.stderr)
    rows: list[list] = [row for chunk in chunks for row in chunk]
    rows.sort(
        key=lambda r: tuple(
            (0, float(x), "") if isinstance(x, (int, float)) else (1, 0.0, str(x))
            for x in r
        )
    )

    status = 0
    if kind == "continuous-sim" and any(int(r[-1]) == 0 for r in rows):
        status = 1
    meta = {
        "tool": f"queueloss {__version__}",
        "config_hash": _config_hash(config),
        "model": config.model,
        "seeds": " ".join(str(s) for s in seeds),
    }
    for i, failure in enumerate(failures):
        meta[f"failed_point_{i}"] = failure
    _write_csv(out_path, _HEADERS[kind], rows, meta)
    return status


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
    report("kernel rows sum to 1", bool(np.abs(kernel.matrix.sum(axis=1) - 1).max() < 1e-12))
    pi = discrete.stationary_distribution(params)
    report("stationary law is a fixed point", bool(np.abs(pi @ kernel.matrix - pi).max() < 1e-10))
    rate = discrete.mean_loss_rate_exact(params)
    report("rate equals boundary weight times p", abs(rate - pi[-1] * params.p) < 1e-12)
    m = rate
    report(
        "one-step loss variance is Bernoulli",
        abs(discrete.loss_variance_exact(params, 1) - m * (1 - m)) < 1e-12,
    )

    fpp = fokker_planck.FpParams(a=1.0, sigma2=2.0)
    ctrl = fokker_planck.SeriesControl()
    norm = numerics.integrate(
        lambda x: float(fokker_planck.transition_density(fpp, ctrl, x, 0.05, 0.4)), 0.0, 1.0
    )
    report("transition density normalized", abs(norm.value - 1.0) < 1e-8)
    j0 = abs(fokker_planck.probability_current(fpp, ctrl, 0.0, 0.05, 0.4))
    j1 = abs(fokker_planck.probability_current(fpp, ctrl, 1.0, 0.05, 0.4))
    report("boundary flux vanishes", max(j0, j1) < 1e-6)
    ck = numerics.integrate(
        lambda mid: float(
            fokker_planck.transition_density(fpp, ctrl, 0.7, 0.04, mid)
        ) * float(fokker_planck.transition_density(fpp, ctrl, mid, 0.03, 0.2)),
        0.0,
        1.0,
        tol=1e-11,
    )
    direct = float(fokker_planck.transition_density(fpp, ctrl, 0.7, 0.07, 0.2))
    report("Chapman-Kolmogorov composes", abs(ck.value - direct) < 1e-5)
    v1, _ = numerics.laplace_invert(lambda s: 1.0 / s**2, 1.7)
    v2, _ = numerics.laplace_invert(lambda s: 1.0 / (s + 1.0), 1.7)
    report(
        "Laplace inversion matches known pairs",
        abs(v1 - 1.7) < 1e-7 * 1.7 and abs(v2 - math.exp(-1.7)) < 1e-7,
    )

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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=str, default=None, help="INI config file")
    sp.add_argument("--preset", type=str, default=None, choices=sorted(PRESETS))
    sp.add_argument("--out", type=str, default=None, help="output directory")
    sp.add_argument("--seed", type=int, default=None, help="root 64-bit seed")
    sp.add_argument("--replicas", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1, help="parallel grid workers")


def _materialize(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    fallback = overrides.pop("fallback", None)
    if args.config:
        config = load_config(args.config)
    elif args.preset:
        config = PRESETS[args.preset]
    else:
        config = fallback
        if config is None:
            raise ConfigError("need --config, --preset, or explicit grid flags")
    updates = {}
    if args.out is not None:
        updates["out"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.replicas is not None:
        updates["replicas"] = args.replicas
    updates.update(overrides)
    if updates:
        config = ExperimentConfig(**{**config.__dict__, **updates})
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="queueloss",
        description="Finite-buffer queue loss statistics: exact, continuum, and Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exact-discrete", help="closed-form discrete-model tables")
    _add_common(sp)
    sp.add_argument("--p", type=str, default=None, help="comma list of arrival probabilities")
    sp.add_argument("--L", type=str, default=None, help="comma list of capacities")
    sp.add_argument("--N", type=str, default=None, help="comma list of window lengths")

    sp = sub.add_parser("sim-discrete", help="Monte Carlo discrete paths vs exact")
    _add_common(sp)
    sp.add_argument("--p", type=str, default=None)
    sp.add_argument("--L", type=str, default=None)
    sp.add_argument("--N", type=str, default=None)
    sp.add_argument("--steps", type=int, default=10**6)

    sp = sub.add_parser("fp-eval", help="continuum-model evaluator tables")
    _add_common(sp)
    sp.add_argument("--a", type=str, default=None)
    sp.add_argument("--sigma2", type=str, default=None)
    sp.add_argument("--t", type=str, default=None)

    sp = sub.add_parser("sim-continuous", help="packet simulator bridged to the continuum")
    _add_common(sp)
    sp.add_argument("--interarrival-mean", type=str, default="0.01")
    sp.add_argument("--packet-size", type=str, default="0.01")
    sp.add_argument("--r-out", type=str, default="1.0")
    sp.add_argument("--t-window", type=str, default="20")
    sp.add_argument("--duration", type=float, default=20000.0)

    sp = sub.add_parser("sweep", help="run the full grid from a config file")
    _add_common(sp)

    sub.add_parser("check", help="run the hard-invariant suite")

    args = parser.parse_args(argv)

    if args.command == "check":
        return run_checks()

    try:
        if args.command == "exact-discrete":
            fallback = None
            if args.p and args.L:
                fallback = ExperimentConfig(
                    model="discrete",
                    grid={"p": _parse_float_list(args.p), "l": _parse_float_list(args.L)},
                    windows=_parse_float_list(args.N or "1000"),
                )
            config = _materialize(args, fallback=fallback)
            out = Path(config.out) / "exact_discrete.csv"
            return run_experiment(config, out.absolute(), jobs=args.jobs)
        if args.command == "sim-discrete":
            fallback = None
            if args.p and args.L:
                fallback = ExperimentConfig(
                    model="discrete",
                    grid={"p": _parse_float_list(args.p), "l": _parse_float_list(args.L)},
                    windows=_parse_float_list(args.N or "100"),
                    steps=args.steps,
                )
            config = _materialize(args, fallback=fallback, steps=args.steps)
            out = Path(config.out) / "sim_discrete.csv"
            return run_experiment(config, out.absolute(), jobs=args.jobs)
        if args.command == "fp-eval":
            fallback = None
            if args.a and args.sigma2:
                fallback = ExperimentConfig(
                    model="fp",
                    grid={"a": _parse_float_list(args.a), "sigma2": _parse_float_list(args.sigma2)},
                    windows=_parse_float_list(args.t or "1.0"),
                )
            config = _materialize(args, fallback=fallback)
            out = Path(config.out) / "fp_eval.csv"
            return run_experiment(config, out.absolute(), jobs=args.jobs)
        if args.command == "sim-continuous":
            fallback = ExperimentConfig(
                model="continuous",
                grid={
                    "interarrival_mean": _parse_float_list(args.interarrival_mean),
                    "packet_size": _parse_float_list(args.packet_size),
                    "r_out": _parse_float_list(args.r_out),
                },
                windows=_parse_float_list(args.t_window),
                duration=args.duration,
            )
            config = _materialize(args, fallback=fallback)
            out = Path(config.out) / "sim_continuous.csv"
            return run_experiment(config, out.absolute(), jobs=args.jobs)
        if args.command == "sweep":
            config = _materialize(args)
            out = Path(config.out) / f"sweep_{config.model}.csv"
            return run_experiment(config, out.absolute(), jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
