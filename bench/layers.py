"""Per-layer metrics computed from the spans of traced rounds.

Every metric is defined for every workload: a layer a workload does not
call reports 0, and so does a function a later change removes.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, Span

#: Discrete evaluators that read the spectral decomposition; the first of
#: them to run at a new (p, L) pays for building it.
SPECTRAL = frozenset({"loss_variance_exact", "compressibility", "correlator_r2", "green_function"})

#: name -> f(args, kwargs, result) recorded as the span's ``info``.
EXTRACTORS = {
    **{f"discrete.{name}": (lambda a, k, r: (a[0].p, a[0].L)) for name in SPECTRAL},
    "discrete.simulate_path": lambda a, k, r: r.n_steps,
    "simulate.run": lambda a, k, r: r.n_arrivals,
    "fokker_planck.loss_moment": lambda a, k, r: a[2] if len(a) > 2 else k["k"],
    "fokker_planck.boundary_return_transform": lambda a, k, r: _size(a[1] if len(a) > 1 else k["eps"]),
    "numerics.integrate": lambda a, k, r: r.neval,
}

#: (metric name, unit) in the order they are reported.
METRICS = (
    ("discrete.cold_eval_ms", "ms"),
    ("discrete.warm_eval_us", "us"),
    ("discrete.self_s", "s"),
    ("discrete.walk_ns_per_step", "ns"),
    ("numerics.tridiag_eigen_ms", "ms"),
    ("numerics.tridiag_eigen.calls", "count"),
    ("fokker_planck.loss_moment_us", "us"),
    ("fokker_planck.loss_probability_us", "us"),
    ("fokker_planck.loss_pdf_us", "us"),
    ("fokker_planck.transform_nodes", "count"),
    ("fokker_planck.loss_correlator_ms", "ms"),
    ("fokker_planck.transition_density_us", "us"),
    ("fokker_planck.transition_density.calls", "count"),
    ("fokker_planck.self_s", "s"),
    ("numerics.integrate_ms", "ms"),
    ("numerics.integrate.neval", "count"),
    ("numerics.laplace_invert_us", "us"),
    ("numerics.laplace_invert.calls", "count"),
    ("numerics.self_s", "s"),
    ("simulate.run_ns_per_arrival", "ns"),
    ("simulate.estimate_drift_diffusion_ms", "ms"),
    ("simulate.window_losses_ms", "ms"),
    ("simulate.self_s", "s"),
    ("stats.mean_and_variance_us", "us"),
    ("stats.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def _size(eps) -> int:
    return len(eps) if hasattr(eps, "__len__") else 1


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _per_call(rounds: list[list[Span]], name: str, unit: str, keep=lambda s: True) -> float:
    """Median duration of the successful calls of ``name``, in ``unit``."""
    return _SCALE[unit] * _median(s.duration for spans in rounds for s in spans
                                  if s.name == name and not s.failed and keep(s))


def _per_round(rounds: list[list[Span]], fn) -> float:
    """Median over rounds of ``fn(spans of one round)``."""
    return _median(fn(spans) for spans in rounds)


def _calls(rounds, name) -> float:
    return _per_round(rounds, lambda spans: sum(1 for s in spans if s.name == name))


def _info_sum(rounds, name) -> float:
    return _per_round(rounds, lambda spans: sum(s.info or 0 for s in spans if s.name == name))


def _self_time(rounds, layer) -> float:
    return _per_round(rounds, lambda spans: sum(s.self_time for s in spans if s.layer == layer))


def _per_unit(rounds, name, scale) -> float:
    """Median of duration / info over calls of ``name`` (info counts the work)."""
    return scale * _median(s.duration / s.info for spans in rounds for s in spans
                           if s.name == name and not s.failed and s.info)


def _cold_warm(rounds: list[list[Span]]) -> tuple[list[float], list[float]]:
    """Durations of outermost spectral calls: the first per (p, L) in a round
    at the round's largest L (cold), and every later one (warm)."""
    cold, warm = [], []
    for spans in rounds:
        outer = [s for s in spans
                 if s.layer == "discrete" and s.name.split(".", 1)[1] in SPECTRAL
                 and not s.failed and s.info is not None
                 and (s.parent < 0 or spans[s.parent].layer != "discrete")]
        if not outer:
            continue
        largest = max(s.info[1] for s in outer)
        seen = set()
        for s in outer:
            if s.info in seen:
                warm.append(s.duration)
            else:
                seen.add(s.info)
                if s.info[1] == largest:
                    cold.append(s.duration)
    return cold, warm


def layer_metrics(rounds: list[list[Span]], traced_walls, untraced_walls) -> dict[str, float]:
    """Every per-layer metric from the spans of the traced rounds."""
    cold, warm = _cold_warm(rounds)
    out = {
        "discrete.cold_eval_ms": 1e3 * _median(cold),
        "discrete.warm_eval_us": 1e6 * _median(warm),
        "discrete.walk_ns_per_step": _per_unit(rounds, "discrete.simulate_path", 1e9),
        "numerics.tridiag_eigen_ms": _per_call(rounds, "numerics.tridiag_eigen", "ms"),
        "numerics.tridiag_eigen.calls": _calls(rounds, "numerics.tridiag_eigen"),
        "fokker_planck.loss_moment_us": _per_call(
            rounds, "fokker_planck.loss_moment", "us", lambda s: (s.info or 0) >= 2),
        "fokker_planck.loss_probability_us": _per_call(rounds, "fokker_planck.loss_probability", "us"),
        "fokker_planck.loss_pdf_us": _per_call(rounds, "fokker_planck.loss_pdf", "us"),
        "fokker_planck.transform_nodes": _info_sum(rounds, "fokker_planck.boundary_return_transform"),
        "fokker_planck.loss_correlator_ms": _per_call(rounds, "fokker_planck.loss_correlator", "ms"),
        "fokker_planck.transition_density_us": _per_call(
            rounds, "fokker_planck.transition_density", "us"),
        "fokker_planck.transition_density.calls": _calls(rounds, "fokker_planck.transition_density"),
        "numerics.integrate_ms": _per_call(rounds, "numerics.integrate", "ms"),
        "numerics.integrate.neval": _info_sum(rounds, "numerics.integrate"),
        "numerics.laplace_invert_us": _per_call(rounds, "numerics.laplace_invert", "us"),
        "numerics.laplace_invert.calls": _calls(rounds, "numerics.laplace_invert"),
        "simulate.run_ns_per_arrival": _per_unit(rounds, "simulate.run", 1e9),
        "simulate.estimate_drift_diffusion_ms": _per_call(
            rounds, "simulate.estimate_drift_diffusion", "ms"),
        "simulate.window_losses_ms": _per_call(rounds, "simulate.window_losses", "ms"),
        "stats.mean_and_variance_us": _per_call(rounds, "stats.mean_and_variance", "us"),
        "trace.overhead_s": statistics.fmean(traced_walls) - statistics.fmean(untraced_walls),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _self_time(rounds, layer)
    return {name: out[name] for name, _ in METRICS}
