"""Tests of the benchmark itself: its checks catch planted errors, and its
seed reaches the Monte Carlo inputs only.

    python3 -m pytest bench/test_bench.py -q

Closeness checks get a planted relative error of 1e-6; property checks
(signs, bounds, order) a planted violation; statistical checks a shift of
ten standard errors, since no 1e-6 change can show through sampling noise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
import spans
import workloads

ql = run.import_package()

TINY_DISCRETE = workloads.DiscreteExact(
    ps=(0.45, 0.5, 0.55), Ls=(20,), windows=(1, 100, 1000), pairs=((10, 100), (100, 500)))
TINY_CONTINUUM = workloads.Continuum(
    drifts=(-1.0, 0.5), sigma2s=(2.0,), times=(0.1, 1.0), corr_drifts=(0.5,),
    corr_separations=(0.1, 1.0))
TINY_MONTE_CARLO = workloads.MonteCarlo(walk_steps=200_000, duration=2000.0)


def run_once(workload, tmp_path: Path, seed: int = 1):
    inputs = workload.prepare(seed, tmp_path / f"seed{seed}")
    out = workload.run_round(inputs, ql)
    out.read_tables()
    return inputs, out


def failed_families(workload, inputs, out) -> set[str]:
    log = oracles.CheckLog()
    workloads.check_round(workload, inputs, out, log)
    return set(log.failures)


def scale_cell(csv_text: str, column: str, row: int, factor: float) -> str:
    """Multiply one cell of a CSV table by ``factor``."""
    lines = csv_text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    col = lines[start].split(",").index(column)
    cells = lines[start + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[start + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def without_paths(out):
    """Round outputs with each CSV table reduced to its rows (the metadata
    hashes the output directory)."""
    planted = copy.deepcopy(out)
    for key, value in out.values.items():
        if isinstance(value, str):
            planted.values[key] = workloads.read_csv(value)[1]
    return workloads.fingerprint(planted)


@pytest.fixture(scope="module")
def discrete_round(tmp_path_factory):
    return run_once(TINY_DISCRETE, tmp_path_factory.mktemp("discrete"))


@pytest.fixture(scope="module")
def continuum_round(tmp_path_factory):
    return run_once(TINY_CONTINUUM, tmp_path_factory.mktemp("continuum"))


@pytest.fixture(scope="module")
def monte_carlo_round(tmp_path_factory):
    return run_once(TINY_MONTE_CARLO, tmp_path_factory.mktemp("mc"))


def test_rounds_pass_their_checks(discrete_round, continuum_round, monte_carlo_round):
    for workload, (inputs, out) in ((TINY_DISCRETE, discrete_round),
                                    (TINY_CONTINUUM, continuum_round),
                                    (TINY_MONTE_CARLO, monte_carlo_round)):
        assert failed_families(workload, inputs, out) == set(), workload.name


@pytest.mark.parametrize("column, row, family", [
    ("mean_loss_rate", 1, "rate"),
    ("loss_variance", 2, "variance"),
    ("loss_variance", 0, "bernoulli"),
    ("compressibility", 4, "compressibility"),
    ("crossover_window", 5, "crossover"),
    ("rate_asymptote", 7, "asymptote"),
])
def test_discrete_table_checks_catch_planted_error(discrete_round, column, row, family):
    inputs, out = discrete_round
    planted = copy.deepcopy(out)
    planted.values["table_csv"] = scale_cell(out.values["table_csv"], column, row, 1 + 1e-6)
    assert family in failed_families(TINY_DISCRETE, inputs, planted)


def test_discrete_r2_checks_catch_planted_error(discrete_round):
    inputs, out = discrete_round
    key = ("r2", 0.5, 20, 10, 100)
    planted = copy.deepcopy(out)
    planted.values[key] *= 1 + 1e-6
    assert "r2" in failed_families(TINY_DISCRETE, inputs, planted)
    planted.values[key] = 1.5
    assert "r2-bound" in failed_families(TINY_DISCRETE, inputs, planted)


def test_cli_status_is_checked(discrete_round):
    inputs, out = discrete_round
    planted = copy.deepcopy(out)
    planted.values["table_csv_status"] = 1
    assert "cli-status" in failed_families(TINY_DISCRETE, inputs, planted)


def test_discrete_preset_grid_is_checked(discrete_round):
    inputs, out = discrete_round
    planted = copy.deepcopy(out)
    planted.values["preset_csv"] = scale_cell(out.values["preset_csv"], "p", 0, 1.1)
    assert "preset-grid" in failed_families(TINY_DISCRETE, inputs, planted)


@pytest.mark.parametrize("column, family", [
    ("tau", "fp-tau"),
    ("m1", "m1"),
    ("m2", "m2"),
    ("loss_variance", "loss_variance"),
    ("p_loss", "p_loss"),
    ("m2_short_branch", "m2-branches"),
    ("m2_long_branch", "m2-branches"),
])
def test_fp_table_checks_catch_planted_error(continuum_round, column, family):
    inputs, out = continuum_round
    planted = copy.deepcopy(out)
    planted.values["csv"] = scale_cell(out.values["csv"], column, 2, 1 + 1e-6)
    assert family in failed_families(TINY_CONTINUUM, inputs, planted)


def test_p_loss_properties_are_checked(continuum_round):
    inputs, out = continuum_round
    planted = copy.deepcopy(out)
    # rows are sorted by (a, sigma2, t): row 2 is a=0.5 at t=0.1, row 3 at t=1
    planted.values["csv"] = scale_cell(out.values["csv"], "p_loss", 3, 0.1)
    assert "p_loss-monotone" in failed_families(TINY_CONTINUUM, inputs, planted)
    planted.values["csv"] = scale_cell(out.values["csv"], "p_loss", 3, 1.5)
    assert "p_loss-range" in failed_families(TINY_CONTINUUM, inputs, planted)


def _curve_keys(out, a):
    return [k for k in out.values if k[0] == "pdf" and k[1] == a and k[3] == 1.0]


@pytest.mark.parametrize("a", [0.5, -1.0])
def test_pdf_checks_catch_planted_error(continuum_round, a):
    inputs, out = continuum_round
    keys = _curve_keys(out, a)
    planted = copy.deepcopy(out)
    for key in keys:
        planted.values[key] *= 1 + 1e-6
    assert "pdf-mass" in failed_families(TINY_CONTINUUM, inputs, planted)
    planted = copy.deepcopy(out)
    planted.values[keys[-1]] = -1e-3
    assert "pdf-nonnegative" in failed_families(TINY_CONTINUUM, inputs, planted)


def test_correlator_checks_catch_planted_error(continuum_round):
    inputs, out = continuum_round
    planted = copy.deepcopy(out)
    planted.values[("corr", 0.5, 0.1)] *= 1 + 1e-6
    assert "correlator" in failed_families(TINY_CONTINUUM, inputs, planted)


def test_large_drift_density_is_checked_once_it_returns(continuum_round):
    inputs, out = continuum_round
    assert out.errors["OverflowError"] == 2
    v = TINY_CONTINUUM.overflow_drift / TINY_CONTINUUM.corr_sigma2
    planted = copy.deepcopy(out)
    planted.values["overflow_density"] = oracles.wall_density(v)
    assert failed_families(TINY_CONTINUUM, inputs, planted) == set()
    planted.values["overflow_density"] *= 1 + 1e-6
    assert "large-drift" in failed_families(TINY_CONTINUUM, inputs, planted)


@pytest.mark.parametrize("field, family", [
    ("variance_exact", "walk-variance-exact"),
    ("mean", "stats-moments"),
    ("variance", "stats-moments"),
])
def test_walk_checks_catch_planted_error(monte_carlo_round, field, family):
    inputs, out = monte_carlo_round
    planted = copy.deepcopy(out)
    planted.values[("walk", 100)][field] *= 1 + 1e-6
    assert family in failed_families(TINY_MONTE_CARLO, inputs, planted)


def test_walk_rate_checks_catch_planted_error(monte_carlo_round):
    inputs, out = monte_carlo_round
    planted = copy.deepcopy(out)
    planted.values["rate_exact"] *= 1 + 1e-6
    assert "walk-rate-exact" in failed_families(TINY_MONTE_CARLO, inputs, planted)
    planted = copy.deepcopy(out)
    res = planted.values[("walk", 100)]
    shift = 10.0 * res["mean_se"]
    res["mean"] += shift
    res["counts"] = res["counts"] + shift  # keeps the stats-moments check passing
    assert "walk-statistics" in failed_families(TINY_MONTE_CARLO, inputs, planted)


@pytest.mark.parametrize("field, family", [
    ("dropped", "conservation"),
    ("arrived", "conservation"),
    ("mean", "stats-moments"),
    ("variance", "stats-moments"),
])
def test_packet_checks_catch_planted_error(monte_carlo_round, field, family):
    inputs, out = monte_carlo_round
    planted = copy.deepcopy(out)
    planted.values[("packet", 0.98)][field] *= 1 + 1e-6
    assert family in failed_families(TINY_MONTE_CARLO, inputs, planted)


def test_packet_statistics_are_checked(monte_carlo_round):
    inputs, out = monte_carlo_round
    planted = copy.deepcopy(out)
    res = planted.values[("packet", 1.0)]
    res["a_hat"] += 10.0 * res["a_se"]
    assert "drift-diffusion" in failed_families(TINY_MONTE_CARLO, inputs, planted)
    planted = copy.deepcopy(out)
    planted.values[("packet", 1.0)]["windows"][0] = -1.0
    assert "windows" in failed_families(TINY_MONTE_CARLO, inputs, planted)


def test_combined_round_runs_every_part(tmp_path, discrete_round, continuum_round):
    combined = workloads.Combined("both", (TINY_DISCRETE, TINY_CONTINUUM))
    inputs, out = run_once(combined, tmp_path)
    assert failed_families(combined, inputs, out) == set()
    parts = (discrete_round[1], continuum_round[1])
    assert out.attempted == sum(part.attempted for part in parts)
    assert out.failed == sum(part.failed for part in parts)


def test_seed_reaches_monte_carlo_inputs_only(tmp_path, discrete_round, continuum_round,
                                             monte_carlo_round):
    for workload, (_, out) in ((TINY_DISCRETE, discrete_round),
                               (TINY_CONTINUUM, continuum_round)):
        _, out2 = run_once(workload, tmp_path / workload.name, seed=2)
        assert without_paths(out2) == without_paths(out), workload.name
    mc1 = TINY_MONTE_CARLO.prepare(1, tmp_path)
    assert mc1 == TINY_MONTE_CARLO.prepare(1, tmp_path)
    mc2 = TINY_MONTE_CARLO.prepare(2, tmp_path)
    assert mc2["walk_seed"] != mc1["walk_seed"]
    assert set(mc2["packet_seeds"]).isdisjoint(mc1["packet_seeds"])
    _, out2 = run_once(TINY_MONTE_CARLO, tmp_path, seed=2)
    assert workloads.fingerprint(out2) != workloads.fingerprint(monte_carlo_round[1])


def test_self_time_excludes_children():
    module = type(sys)("fake")
    exec("def inner():\n    return sum(range(20_000))\n\n"
         "def outer():\n    return inner() + inner()\n", vars(module))
    outer = module.outer
    tracer = spans.Tracer({"fake": module})
    tracer.install()
    module.outer()
    tracer.uninstall()
    assert module.outer is outer
    recorded = tracer.take()
    assert [s.name for s in recorded] == ["fake.outer", "fake.inner", "fake.inner"]
    assert [s.parent for s in recorded] == [-1, 0, 0]
    top = recorded[0]
    assert top.self_time == pytest.approx(top.duration - recorded[1].duration
                                          - recorded[2].duration, abs=1e-12)


def test_removed_functions_report_zero():
    metrics = layers.layer_metrics([[]], [1.0], [1.0])
    assert [name for name, _ in layers.METRICS] == list(metrics)
    assert all(value == 0.0 for value in metrics.values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "cannot import queueloss" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_grid_spans_the_documented_range():
    nodes, weights = workloads.pdf_grid(2.0, 0.5, 10.0)
    p1 = oracles.wall_density(4.0)
    top = p1 * (2.5 + 6.0 * np.sqrt(2.5) + 1.0)
    assert 0.0 < nodes.min() and nodes.max() < top
    assert weights.sum() == pytest.approx(top, rel=1e-12)
