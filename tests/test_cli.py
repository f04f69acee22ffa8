"""End-to-end tests of the config-driven experiment runner."""

import json
import math
import os

import numpy as np
import pytest

from vpbandit import cli


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_all(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = f.read()
    return out


class TestBounds:
    def test_summary_values(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "bounds",
            "seed": 0,
            "n": 10,
            "a": 1,
            "b": 3,
            "nu": 2,
            "horizon": 100000,
        }
        rc = cli.main(
            ["bounds", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
        )
        assert float(summary["theorem2_lower"]) == pytest.approx(0.7)
        assert float(summary["theorem2_upper"]) == pytest.approx(0.9)
        assert float(summary["equilibrium_attacker"]) == pytest.approx(0.8)
        assert float(summary["tuned_eta"]) == pytest.approx(0.0035666349775320217)


class TestSinglePlayer:
    CFG = {
        "schema_version": 1,
        "kind": "single_player",
        "seed": 11,
        "environment": {"type": "harmonic_bernoulli", "n_arms": 6},
        "scaling": {"kind": "uniform_discrete", "a": 1, "b": 3},
        "eta": 0.1,
        "horizon": 300,
        "replicas": 2,
        "record_weights": True,
    }

    def test_curve_schema_and_weight_rows(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(
            [
                "simulate-single",
                "--config",
                _write_config(tmp_path, self.CFG),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "t,regret_mean,regret_stderr,bound"
        assert len(curves) == 301
        weights = (out / "weights.csv").read_text().splitlines()
        assert weights[0] == "t,m," + ",".join(f"w_{i}_norm" for i in range(1, 7))
        for line in weights[1:]:
            parts = [float(v) for v in line.split(",")]
            m = parts[1]
            assert abs(sum(parts[2:]) - m) <= 1e-9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["eta_resolved"] == 0.1
        assert manifest["schema_version"] == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(self.CFG)
        cfg["replcias"] = 3  # typo must not be silently ignored
        rc = cli.main(
            [
                "simulate-single",
                "--config",
                _write_config(tmp_path, cfg),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1


class TestGame:
    CFG = {
        "schema_version": 1,
        "kind": "game",
        "seed": 42,
        "n": 6,
        "horizon": 400,
        "scaling": {"kind": "uniform_discrete", "a": 1, "b": 2},
        "replicas": 2,
    }

    def test_rerun_is_byte_identical(self, tmp_path):
        cfgp = _write_config(tmp_path, self.CFG)
        for d in ("o1", "o2"):
            assert cli.main(["simulate-game", "--config", cfgp, "--out", str(tmp_path / d)]) == 0
        assert _read_all(tmp_path / "o1") == _read_all(tmp_path / "o2")

    def test_trace_files_and_equilibrium_in_summary(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(
            ["simulate-game", "--config", _write_config(tmp_path, self.CFG), "--out", str(out)]
        ) == 0
        names = sorted(os.listdir(out))
        assert "trace_000.csv" in names and "trace_001.csv" in names
        header = (out / "trace_000.csv").read_text().splitlines()[0]
        assert header == "t,I_t,M_t,J_t,r,s,running_r,running_s"
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines()
        )
        # uniform{1,2} play counts have stationary mean 1.5
        assert float(summary["equilibrium_attacker"]) == pytest.approx(1 - 1.5 / 6)

    def test_seed_overrides(self, tmp_path, monkeypatch):
        cfgp = _write_config(tmp_path, self.CFG)
        base, flag, env = tmp_path / "b", tmp_path / "f", tmp_path / "e"
        cli.main(["simulate-game", "--config", cfgp, "--out", str(base)])
        cli.main(["simulate-game", "--config", cfgp, "--seed", "7", "--out", str(flag)])
        monkeypatch.setenv("BANDIT_SEED", "7")
        cli.main(["simulate-game", "--config", cfgp, "--seed", "99", "--out", str(env)])
        # --seed changes the run; BANDIT_SEED wins over --seed
        assert _read_all(base) != _read_all(flag)
        assert _read_all(flag) == _read_all(env)

    def test_kind_mismatch_is_a_usage_error(self, tmp_path):
        rc = cli.main(
            ["bounds", "--config", _write_config(tmp_path, self.CFG), "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(
            ["simulate-game", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
        )
        assert rc == 2


class TestBadInput:
    """Bad input ends with one ``error:`` line and a nonzero exit status."""

    def _run(self, tmp_path, capsys, cfg, *extra):
        rc = cli.main(
            ["simulate-game", "--config", _write_config(tmp_path, cfg), "--out",
             str(tmp_path / "out"), *extra]
        )
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return rc

    def test_zero_replicas(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, {**TestGame.CFG, "replicas": 0}) == 1

    def test_zero_workers(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, TestGame.CFG, "--workers", "0") == 2
        assert self._run(tmp_path, capsys, TestGame.CFG, "--workers", "-2") == 2

    def test_non_integer_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BANDIT_SEED", "abc")
        assert self._run(tmp_path, capsys, TestGame.CFG) == 2

    def test_config_not_an_object(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, [TestGame.CFG]) == 2

    def test_non_integer_config_seed(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, {**TestGame.CFG, "seed": "x"}) == 2


class TestCompare:
    def test_columns_and_finals(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "compare",
            "seed": 5,
            "environment": {
                "type": "synthetic_trace",
                "n_arms": 8,
                "attacked": [1, 4],
                "horizon": 500,
                "n_bursts": [20, 6],
            },
        }
        out = tmp_path / "out"
        assert cli.main(
            ["compare", "--config", _write_config(tmp_path, cfg), "--out", str(out)]
        ) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "t,epsilon_greedy,exp3,exp3m,exp3mvp,ucb1"
        assert len(lines) == 501
        summary = (out / "summary.txt").read_text()
        assert "final_exp3mvp=" in summary


class TestSweepAndIngest:
    def test_sweep_interval_orders(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "sweep",
            "seed": 0,
            "n": 10,
            "a": 1,
            "b": 3,
            "steps": 20,
        }
        out = tmp_path / "out"
        assert cli.main(
            ["sweep", "--config", _write_config(tmp_path, cfg), "--out", str(out)]
        ) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        for row in rows:
            mu, lo, hi = (float(v) for v in row.split(","))
            assert 0.0 < lo <= hi
            # homogeneous interval endpoints scale linearly with mu
            assert hi == pytest.approx(mu * 0.9)

    def test_ingest_writes_trace(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(
            "Timestamp,CAN_ID,Flag\n0.0,aaa,R\n0.1,bbb,T\n0.6,aaa,T\n0.9,bbb,R\n"
        )
        cfg = {"schema_version": 1, "kind": "ingest", "seed": 0, "path": str(log)}
        out = tmp_path / "out"
        assert cli.main(
            ["ingest", "--config", _write_config(tmp_path, cfg), "--out", str(out)]
        ) == 0
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary["arms"] == "2"
        assert summary["attacked_arms"] == "2"
        assert (out / "trace.csv").exists() and (out / "trace.meta").exists()
