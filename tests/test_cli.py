import numpy as np
import pytest

from queueloss import cli


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


class TestCheck:
    def test_invariant_suite_passes(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 8
