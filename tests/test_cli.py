import ast
from pathlib import Path

import numpy as np
import pytest

from queueloss import cli

DATA = Path(__file__).parent / "data" / "cli"
CONFIGS = DATA / "configs"


def read_body(path):
    """CSV rows with the comment header stripped."""
    lines = path.read_text().strip().split("\n")
    return [ln for ln in lines if not ln.startswith("#")]


class TestConfig:
    def test_load_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = discrete\nreplicas = 2\nseed = 7\n"
            "[grid]\np = 0.4, 0.6\nl = 10\n"
            "[windows]\nn = 50, 100\n"
        )
        config = cli.load_config(str(cfg))
        assert config.model == "discrete"
        assert config.grid["p"] == [0.4, 0.6]
        assert config.windows == [50.0, 100.0]
        assert config.replicas == 2

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config("/nonexistent/exp.ini")

    def test_empty_grid_rejected(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nmodel = discrete\n[grid]\n[windows]\nn = 10\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(cfg))

    def test_bad_value_names_key(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = discrete\n[grid]\np = zebra\nl = 10\n[windows]\nn = 10\n"
        )
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(cfg))

    def test_unknown_model_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.ExperimentConfig(model="quantum", grid={"p": [0.5]}, windows=[1.0])

    def test_unknown_experiment_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = fp\nlaplace_nodes = 30\n"
            "[grid]\na = 0\nsigma2 = 2\n[windows]\nt = 0.5\n"
        )
        out = tmp_path / "res"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "laplace_nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sigma", "steps"])
    def test_unknown_grid_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = fp\n"
            f"[grid]\na = 0\nsigma2 = 2\n{key} = 5\n[windows]\nt = 0.5\n"
        )
        out = tmp_path / "res"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"[grid] {key} not used by the fp table" in capsys.readouterr().err
        assert not out.exists()

    def test_windows_n_and_t_together_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = discrete\n"
            "[grid]\np = 0.5\nl = 9\n[windows]\nn = 100\nt = 7\n"
        )
        with pytest.raises(cli.ConfigError, match=r"\[windows\]"):
            cli.load_config(str(cfg))
        out = tmp_path / "res"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "[windows]" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_ignores_output_directory(self, tmp_path):
        argv = ["sweep", "--config", str(CONFIGS / "fp.ini"), "--out"]
        assert cli.main(argv + [str(tmp_path / "a")]) == 0
        assert cli.main(argv + [str(tmp_path / "b" / "c")]) == 0
        text = (tmp_path / "a" / "sweep_fp.csv").read_text()
        assert "# config_hash: " in text
        assert (tmp_path / "b" / "c" / "sweep_fp.csv").read_text() == text

    def test_hash_ignores_grid_key_order(self):
        one = cli.ExperimentConfig(model="discrete", grid={"p": [0.5], "l": [9.0]}, windows=[10.0])
        two = cli.ExperimentConfig(model="discrete", grid={"l": [9.0], "p": [0.5]}, windows=[10.0])
        assert cli._config_hash(one) == cli._config_hash(two)


class TestSubcommandKind:
    """Each subcommand writes only its own CSV kind; sweep runs any."""

    @pytest.mark.parametrize("argv", [
        ["exact-discrete", "--config", str(CONFIGS / "fp.ini")],
        ["exact-discrete", "--config", str(CONFIGS / "continuous.ini")],
        ["sim-discrete", "--config", str(CONFIGS / "fp.ini")],
        ["fp-eval", "--preset", "loss-asymptotes"],
        ["fp-eval", "--config", str(CONFIGS / "discrete.ini")],
        ["sim-continuous", "--preset", "fig2-desk"],
        ["sim-continuous", "--config", str(CONFIGS / "fp.ini")],
    ])
    def test_other_kind_rejected(self, tmp_path, capsys, argv):
        rc = cli.main(argv + ["--out", str(tmp_path / "res")])
        assert rc == 2
        assert "sweep" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_steps_config_rejected_by_exact_discrete(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = discrete\n[grid]\np = 0.5\nl = 9\nsteps = 20000\n"
            "[windows]\nn = 10\n"
        )
        rc = cli.main(["exact-discrete", "--config", str(cfg), "--out", str(tmp_path / "res")])
        assert rc == 2
        assert not (tmp_path / "res").exists()

    def test_sim_discrete_steps_flag_overrides_config(self, tmp_path):
        rc = cli.main(["sim-discrete", "--config", str(CONFIGS / "discrete.ini"),
                       "--steps", "20000", "--out", str(tmp_path)])
        assert rc == 0
        assert len(read_body(tmp_path / "sim_discrete.csv")) == 1 + 3 * 3


class TestRunLengthFlags:
    """--steps and --duration apply on top of a config when given; otherwise
    the config's value stands."""

    def test_sim_discrete_keeps_config_steps(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = discrete\n[grid]\np = 0.5\nl = 10\nsteps = 20000\n"
            "[windows]\nn = 100\n"
        )
        assert cli.main(["sim-discrete", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "sim_discrete.csv").read_text()
                == (tmp_path / "b" / "sweep_discrete.csv").read_text())

    def test_duration_flag_reaches_the_table(self, tmp_path):
        rc = cli.main(["sim-continuous", "--config", str(CONFIGS / "continuous.ini"),
                       "--duration", "800", "--out", str(tmp_path)])
        assert rc == 0
        header, *rows = read_body(tmp_path / "sim_continuous.csv")
        column = header.split(",").index("duration")
        assert rows and {row.split(",")[column] for row in rows} == {"800"}


class TestExactDiscrete:
    def test_preset_table(self, tmp_path):
        rc = cli.main(
            ["exact-discrete", "--preset", "loss-asymptotes", "--out", str(tmp_path)]
        )
        assert rc == 0
        body = read_body(tmp_path / "exact_discrete.csv")
        assert body[0].startswith("p,L,N,mean_loss_rate")
        rows = [ln.split(",") for ln in body[1:]]
        assert len(rows) == 3
        # middle-load row: rate p/(L+1)
        mid = [r for r in rows if r[0] == "0.5"][0]
        assert float(mid[3]) == pytest.approx(0.5 / 21.0, rel=1e-12)
        # heavy-load row approaches 2p - 1
        heavy = [r for r in rows if r[0] == "0.7"][0]
        assert float(heavy[3]) == pytest.approx(0.4, rel=1e-6)
        # light-load row is exponentially small
        light = [r for r in rows if r[0] == "0.3"][0]
        assert float(light[3]) < 1e-7

    def test_growth_then_plateau_preset(self, tmp_path):
        rc = cli.main(["exact-discrete", "--preset", "fig2-desk", "--out", str(tmp_path)])
        assert rc == 0
        body = read_body(tmp_path / "exact_discrete.csv")
        rows = [ln.split(",") for ln in body[1:]]
        ns = np.array([float(r[2]) for r in rows])
        chi = np.array([float(r[6]) for r in rows])
        order = np.argsort(ns)
        ns, chi = ns[order], chi[order]
        # square-root rise at the small-N end, flattening at the large-N end
        early = np.log(chi[2] / chi[0]) / np.log(ns[2] / ns[0])
        late = np.log(chi[-1] / chi[-3]) / np.log(ns[-1] / ns[-3])
        assert 0.35 < early < 0.55
        assert late < 0.25
        assert chi[-1] == pytest.approx(2 * 100 / 3.0, rel=0.05)

    def test_flag_grid(self, tmp_path):
        rc = cli.main(
            ["exact-discrete", "--p", "0.5", "--L", "9", "--N", "10", "--out", str(tmp_path)]
        )
        assert rc == 0
        body = read_body(tmp_path / "exact_discrete.csv")
        assert len(body) == 2

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cli.main(
                ["exact-discrete", "--preset", "loss-asymptotes", "--out", str(out)]
            )
        assert read_body(out_a / "exact_discrete.csv") == read_body(
            out_b / "exact_discrete.csv"
        )

    def test_requires_some_grid(self, tmp_path):
        rc = cli.main(["exact-discrete", "--out", str(tmp_path)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    def test_empty_grid_writes_nothing(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nmodel = discrete\n[grid]\n[windows]\nn = 10\n")
        out = tmp_path / "res"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()


    @pytest.mark.parametrize("command", ["exact-discrete", "sim-discrete"])
    @pytest.mark.parametrize("window", ["100.5", "0"])
    def test_rejects_non_integer_windows(self, tmp_path, command, window):
        rc = cli.main(
            [command, "--p", "0.5", "--L", "9", "--N", window, "--out", str(tmp_path)]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestSimDiscrete:
    def test_agreement_columns(self, tmp_path):
        rc = cli.main(
            [
                "sim-discrete",
                "--p", "0.5", "--L", "15", "--N", "100",
                "--steps", "200000", "--seed", "5", "--replicas", "2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        body = read_body(tmp_path / "sim_discrete.csv")
        header = body[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
        assert len(rows) == 2
        for row in rows:
            assert row["rate_within_3se"] == "1"
            assert row["variance_within_3se"] == "1"

    def test_replicas_have_distinct_seeds(self, tmp_path):
        cli.main(
            [
                "sim-discrete",
                "--p", "0.5", "--L", "15", "--N", "100",
                "--steps", "100000", "--seed", "5", "--replicas", "3",
                "--out", str(tmp_path),
            ]
        )
        body = read_body(tmp_path / "sim_discrete.csv")
        header = body[0].split(",")
        seeds = {dict(zip(header, ln.split(",")))["seed"] for ln in body[1:]}
        assert len(seeds) == 3


    def test_replica_seeds_do_not_collide_across_roots(self, tmp_path):
        # Seeds of the form root + 1000003 r gave root 0 replica 1 the seed
        # of root 1000003 replica 0.
        low = cli._replica_seeds(0, 4)
        high = cli._replica_seeds(1000003, 4)
        assert len(set(low)) == 4
        assert set(low).isdisjoint(high)
        cli.main(
            [
                "sim-discrete",
                "--p", "0.5", "--L", "15", "--N", "100",
                "--steps", "5000", "--seed", "0", "--replicas", "2",
                "--out", str(tmp_path),
            ]
        )
        text = (tmp_path / "sim_discrete.csv").read_text()
        assert f"# seeds: {low[0]} {low[1]}\n" in text
        body = read_body(tmp_path / "sim_discrete.csv")
        header = body[0].split(",")
        seeds = sorted(int(dict(zip(header, ln.split(",")))["seed"]) for ln in body[1:])
        assert seeds == sorted(low[:2])

    def test_negative_seed_rejected(self, tmp_path):
        rc = cli.main(["sim-discrete", "--p", "0.5", "--L", "15", "--N", "100",
                       "--steps", "1000", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2


class TestFpEval:
    def test_moment_columns(self, tmp_path):
        rc = cli.main(
            [
                "fp-eval",
                "--a", "0,0.5", "--sigma2", "2", "--t", "0.001,1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        body = read_body(tmp_path / "fp_eval.csv")
        header = body[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
        assert len(rows) == 4
        drift_free_small = [
            r for r in rows if r["a"] == "0" and r["t"] == "0.001"
        ][0]
        # first moment p(1) tau with p(1) = 1 at zero drift
        assert float(drift_free_small["m1"]) == pytest.approx(0.001, rel=1e-9)
        assert float(drift_free_small["m2"]) == pytest.approx(
            float(drift_free_small["m2_short_branch"]), rel=0.05
        )


class TestSimContinuous:
    def test_bridge_run(self, tmp_path):
        rc = cli.main(
            [
                "sim-continuous",
                "--duration", "30000",
                "--t-window", "20",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        body = read_body(tmp_path / "sim_continuous.csv")
        header = body[0].split(",")
        row = dict(zip(header, body[1].split(",")))
        assert row["volume_conserved"] == "1"
        assert row["mean_within_3se"] == "1"
        assert float(row["sigma2_hat"]) == pytest.approx(0.01, rel=0.05)


class TestPartialFailure:
    def test_failed_point_reported_others_emitted(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = fp\nseed = 1\n"
            "[grid]\na = 0\nsigma2 = 0, 2\n"  # sigma2 = 0 is invalid
            "[windows]\nt = 0.5\n"
        )
        out = tmp_path / "res"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        text = (out / "sweep_fp.csv").read_text()
        assert "# failed_point_0" in text
        assert "diffusion must be positive" in text
        body = read_body(out / "sweep_fp.csv")
        assert len(body) == 2  # header plus the surviving grid point
        assert "grid point failed" in capsys.readouterr().err

    def test_every_point_failed_exits_nonzero(self, tmp_path, capsys):
        # 5000 steps hold 5 windows of 1000, fewer than the estimators need.
        rc = cli.main(["sim-discrete", "--preset", "loss-asymptotes", "--steps", "5000",
                       "--replicas", "2", "--out", str(tmp_path)])
        assert rc == 1
        path = tmp_path / "sim_discrete.csv"
        assert "# failed_point_5" in path.read_text()
        assert len(read_body(path)) == 1  # the header alone
        assert capsys.readouterr().err.count("grid point failed") == 6


class TestSweep:
    def test_from_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = fp\nseed = 1\n"
            "[grid]\na = 0\nsigma2 = 2\n"
            "[windows]\nt = 0.01, 0.1\n"
        )
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]
        )
        assert rc == 0
        body = read_body(tmp_path / "res" / "sweep_fp.csv")
        assert len(body) == 3

    def test_parallel_collector_matches_serial(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nmodel = discrete\nseed = 4\n"
            "[grid]\np = 0.4, 0.5, 0.6\nl = 12\n"
            "[windows]\nn = 50, 200\n"
        )
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s1")])
        cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--jobs", "3"]
        )
        assert read_body(tmp_path / "s1" / "sweep_discrete.csv") == read_body(
            tmp_path / "s2" / "sweep_discrete.csv"
        )

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "res"
        rc = cli.main(["fp-eval", "--a=0", "--sigma2=2", "--t=0.5", "--jobs", jobs,
                       "--out", str(out)])
        assert rc == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_sized_by_task_count(self, tmp_path, monkeypatch):
        # A fake pool records its size and maps serially, so no process
        # starts: under fork a real pool starts every worker it is sized for.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        rc = cli.main(["fp-eval", "--a=0,1", "--sigma2=2", "--t=0.5", "--jobs", "64",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert sizes == [2]
        assert len(read_body(tmp_path / "fp_eval.csv")) == 3


class TestCheck:
    def test_invariant_suite_passes(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 8


#: case id -> argv (without --out); the expected file is DATA/<case id>/<csv>.
#: After a deliberate output change, rewrite a case's file with
#: ``PYTHONPATH=src python -m queueloss.cli <argv> --out tests/data/cli/<case id>``.
GOLDEN = {
    "exact-discrete": ["exact-discrete", "--p=0.3,0.5,0.7", "--L=9,20", "--N=1,10,100"],
    "sim-discrete": ["sim-discrete", "--p=0.5,1.5", "--L=9", "--N=10,20", "--steps", "20000",
                     "--seed", "5", "--replicas", "2", "--jobs", "2"],
    "fp-eval": ["fp-eval", "--a=-1,0,1", "--sigma2=2", "--t=0.01,0.5"],
    "sim-continuous": ["sim-continuous", "--duration", "400", "--t-window", "4", "--seed", "3"],
    "sweep-discrete": ["sweep", "--config", str(CONFIGS / "discrete.ini")],
    "sweep-fp": ["sweep", "--config", str(CONFIGS / "fp.ini")],
    "sweep-continuous": ["sweep", "--config", str(CONFIGS / "continuous.ini"), "--jobs", "2"],
}


class TestGoldenOutput:
    """Whole files, metadata included, against checked-in outputs. Covers
    every subcommand and sweep model, replicas, failed points and --jobs 2."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_matches_golden_file(self, tmp_path, case):
        assert cli.main(GOLDEN[case] + ["--out", str(tmp_path)]) == 0
        (written,) = tmp_path.iterdir()
        assert written.read_text() == (DATA / case / written.name).read_text()


class TestModuleBoundaries:
    """The CLI owns every file format the package writes; the model modules
    are pure computation."""

    PACKAGE = Path(cli.__file__).parent

    @staticmethod
    def _calls(path, names):
        tree = ast.parse(path.read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno} {name}")
        return found

    def test_only_cli_writes_files(self):
        writers = {"open", "write_text", "write_bytes", "mkdir"}
        modules = sorted(self.PACKAGE.glob("*.py"))
        assert {m.name for m in modules} >= {"cli.py", "simulate.py", "discrete.py"}
        found = [call for m in modules if m.name != "cli.py" for call in self._calls(m, writers)]
        assert found == []

    def test_no_module_rewrites_warning_filters(self):
        # catch_warnings swaps the process-wide filter list; under threads it
        # can drop or leak another caller's filters.
        found = [call for m in sorted(self.PACKAGE.glob("*.py"))
                 for call in self._calls(m, {"catch_warnings", "simplefilter", "filterwarnings"})]
        assert found == []
