#!/usr/bin/env python3
"""Reference figures: every workload on several seeds, one fresh run each.

    python3 bench/figures.py --seeds 1-10 --seconds 45 --trace 0
    python3 bench/figures.py --seeds 1-3 --seconds 45 --trace 1

Prints one markdown row per workload and metric: the median over the runs,
the spread (distance between the first and third quartile from
``statistics.quantiles(values, n=4)``, over the median) and the share of
failed operations. Runs are sequential so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, WORKLOAD_NAMES


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print("| workload | metric | unit | median | spread | runs | failed share |")
    print("|---|---|---|---|---|---|---|")
    status = 0
    for workload in WORKLOAD_NAMES:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                status = 1
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            print(f"| {workload} | {name} | {units[name]} | {statistics.median(vals):.6g} "
                  f"| {spread(vals):.3f} | {len(vals)} | {', '.join(map(repr, sorted(shares)))} |",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
