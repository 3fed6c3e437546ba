#!/usr/bin/env python3
"""queueloss benchmark: one workload, timed in a fresh interpreter.

    python3 bench/run.py --workload exact --seed 1 --seconds 45 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed, checks
the outputs of the first round against references computed apart from the
package, and prints an environment record, the per-round times and the
check summary. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 0 when every check passes, 1 when one fails and 2 when the package
cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads: the workloads run with --jobs 1, and one BLAS
# thread keeps their timings free of thread scheduling on a shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("exact", "monte-carlo")
#: Extra fresh interpreters that only set up; setup_s is the median of
#: these and the measuring process itself.
SETUP_PROBES = 4


def import_package():
    """Import queueloss from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import queueloss
    import queueloss.cli  # noqa: F401

    if Path(queueloss.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"queueloss resolved to {queueloss.__file__}, not {SRC}")
    return queueloss


def set_up(workload_name: str, seed: int, work_dir: Path):
    """Import the package and prepare the workload's inputs.

    Returns (package, workload, inputs, seconds); the benchmark's own
    modules are imported outside the timing.
    """
    t0 = time.perf_counter()
    ql = import_package()
    imported = time.perf_counter() - t0
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    t1 = time.perf_counter()
    inputs = workload.prepare(seed, work_dir)
    return ql, workload, inputs, imported + time.perf_counter() - t1


def probe_setups(args) -> list[float]:
    """Set-up times of fresh interpreters that stop before the first round."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def environment(args) -> str:
    numba = importlib.util.find_spec("numba") is not None
    import numpy
    import scipy

    return " ".join([
        f"workload={args.workload}",
        f"seed={args.seed}",
        f"seconds={args.seconds}",
        f"trace={args.trace}",
        "backend=" + ("numba" if numba else "pure-python (numba not importable)"),
        f"python={platform.python_version()}",
        f"numpy={numpy.__version__}",
        f"scipy={scipy.__version__}",
        f"nproc={len(os.sched_getaffinity(0))}",
        f"blas_threads={BLAS_THREADS}",
    ])


def cache_clearers(ql) -> list:
    """cache_clear of every functools cache in the package, so that each
    round starts as cold as a fresh process."""
    return [obj.cache_clear for mod in vars(ql).values() if hasattr(mod, "__spec__")
            for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]


def run_rounds(workload, inputs, ql, seconds: float, tracer=None) -> dict:
    """Whole rounds until ``seconds`` have passed; with a tracer, untraced
    and traced rounds alternate."""
    import workloads

    clearers = cache_clearers(ql)
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    traced_spans = []
    first = digest = None
    repeats = True
    attempted = failed = 0
    modes = ("untraced", "traced") if tracer else ("untraced",)
    deadline = time.perf_counter() + seconds
    while True:
        for mode in modes:
            for clear in clearers:
                clear()
            gc.collect()
            if mode == "traced":
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = workload.run_round(inputs, ql)
            finally:
                elapsed = time.perf_counter() - t0
                if mode == "traced":
                    tracer.uninstall()
            walls[mode].append(elapsed)
            if mode == "traced":
                traced_spans.append(tracer.take())
            out.read_tables()
            attempted += out.attempted
            failed += out.failed
            if first is None:
                first, digest = out, workloads.fingerprint(out)
            else:
                repeats = repeats and workloads.fingerprint(out) == digest
            print(f"round {mode} {elapsed:.4f} s  attempted={out.attempted} failed={out.failed}"
                  + "".join(f" {k}={v}" for k, v in sorted(out.errors.items())), flush=True)
        if time.perf_counter() >= deadline:
            break
    return {"walls": walls, "spans": traced_spans, "first": first, "repeats": repeats,
            "attempted": attempted, "failed": failed}


def write_spans(path: Path, rounds) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = [[[s.name, s.parent, s.start, s.end, s.failed, s.info] for s in spans]
            for spans in rounds]
    path.write_text(json.dumps(data, default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        ql, workload, inputs, setup = set_up(args.workload, args.seed, work_dir)
    except ImportError as exc:
        print(f"cannot import queueloss from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    import layers
    import oracles
    import spans
    import workloads

    print("env " + environment(args), flush=True)
    setups = [setup] + probe_setups(args)
    print("setup " + " ".join(f"{s:.4f}" for s in setups), flush=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer({name: getattr(ql, name) for name in spans.LAYERS},
                              layers.EXTRACTORS)
    try:
        result = run_rounds(workload, inputs, ql, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    log = oracles.CheckLog()
    workloads.check_round(workload, inputs, result["first"], log)
    log.true("repeat", "every round gave identical outputs", result["repeats"])
    print(log.summary(), flush=True)

    walls = result["walls"]
    if args.trace:
        metrics = layers.layer_metrics(result["spans"], walls["traced"], walls["untraced"])
        units = dict(layers.METRICS)
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", result["spans"])
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.fmean(walls["untraced"]),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": log.ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0 if log.ok else 1


if __name__ == "__main__":
    sys.exit(main())
