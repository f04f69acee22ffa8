"""End-to-end tests of the config-driven experiment runner."""

import contextlib
import functools
import io
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpbandit import cli, environments, game
from vpbandit.analysis import attacker_value
from vpbandit.environments import BernoulliEnv, PayoffProfile
from vpbandit.errors import InvalidConfigError
from vpbandit.game import SinglePlayerSpec, run_single_player
from vpbandit.scaling import ScalingSpec


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
        lines = (out / "summary.txt").read_text().splitlines()
        summary = dict(line.split("=", 1) for line in lines)
        assert float(summary["eta"]) == 0.1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1

    def test_weight_rows_are_replica_zero(self, tmp_path):
        # replica 0 of the regret curves, rebuilt from the documented seed
        # split: environment and replica streams, then one child per replica
        out = tmp_path / "out"
        cfgp = _write_config(tmp_path, self.CFG)
        assert cli.main(["simulate-single", "--config", cfgp, "--out", str(out)]) == 0
        spec = SinglePlayerSpec(
            BernoulliEnv.harmonic(6), ScalingSpec.uniform(1, 3), eta=0.1, horizon=300
        )
        _, run_ss = np.random.SeedSequence(self.CFG["seed"]).spawn(2)
        child = np.random.default_rng(run_ss).spawn(self.CFG["replicas"])[0]
        run = run_single_player(spec, child, record_weights=True)
        rows = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 1], run.play_counts)
        np.testing.assert_array_equal(rows[:, 2:], run.marginals)

    def test_weight_rows_do_not_depend_on_workers(self, tmp_path):
        cfgp = _write_config(tmp_path, self.CFG)
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            argv = ["simulate-single", "--config", cfgp, "--out", str(out), "--workers", workers]
            assert cli.main(argv) == 0
            texts.append((out / "weights.csv").read_bytes())
        assert texts[0] == texts[1]

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

    def _summary(self, tmp_path, **change):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, dict(self.CFG, **change))
        assert cli.main(["simulate-game", "--config", cfg, "--out", str(out)]) == 0
        return dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())

    def test_asymmetric_truncated_gaussian_has_equilibrium_in_summary(self, tmp_path):
        scaling = {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 1.5, "std": 0.8}
        summary = self._summary(tmp_path, scaling=scaling)
        # E[M] of the law rounded from N(1.5, 0.8) on [1, 3], by mpmath at 50 digits
        nu = 1.66794657181565334620
        assert float(summary["equilibrium_defender"]) == pytest.approx(nu / 6, rel=1e-14)
        assert float(summary["equilibrium_attacker"]) == pytest.approx(1 - nu / 6, rel=1e-14)

    def test_unequal_payoffs_have_the_game_value_in_summary(self, tmp_path):
        payoff = [0.4, 0.9, 0.8, 0.55, 0.7, 0.6]
        summary = self._summary(tmp_path, payoff=payoff)
        value, kstar = attacker_value(
            PayoffProfile(mu=np.array(payoff)), ScalingSpec.uniform(1, 2).law()
        )
        # 17 significant digits round-trip: the line is the value bit for bit
        assert float(summary["equilibrium_attacker"]) == value
        assert 1 < kstar < 6 and value != 1 - 1.5 / 6
        # no defender value is derived for unequal payoffs
        assert "equilibrium_defender" not in summary

    def test_equal_payoffs_scale_the_defender_value(self, tmp_path):
        summary = self._summary(tmp_path, payoff=[0.5] * 6)
        assert float(summary["equilibrium_defender"]) == 0.5 * 1.5 / 6
        assert float(summary["equilibrium_attacker"]) == pytest.approx(0.5 * (1 - 1.5 / 6))

    def test_equal_first_and_last_payoffs_are_not_equal_payoffs(self, tmp_path):
        summary = self._summary(tmp_path, n=3, payoff=[1.0, 0.5, 1.0])
        assert "equilibrium_defender" not in summary

    def test_payoffs_keep_the_config_order(self, tmp_path):
        payoff = [0.2, 1.0, 0.5, 0.9]
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, dict(self.CFG, n=4, payoff=payoff, seed=3))
        assert cli.main(["simulate-game", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["payoff"] == payoff
        # location I_t is worth payoff[I_t] to whichever player scores it
        for name in ("trace_000.csv", "trace_001.csv"):
            rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
            assert {row[1] for row in rows} == {"0", "1", "2", "3"}
            for row in rows:
                assert float(row[4]) + float(row[5]) == payoff[int(row[1])]

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

    def _run(self, tmp_path, capsys, cfg, *extra, sub="simulate-game"):
        rc = cli.main(
            [sub, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
             *extra]
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

    def test_config_that_is_not_json(self, tmp_path, capsys):
        cfgp = tmp_path / "config.json"
        cfgp.write_text('{"kind": "game",')
        assert cli.main(["simulate-game", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: config is not valid JSON: ")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "sub, cfg, owner, name",
        [
            ("bounds", {"schema_version": 1, "kind": "bounds", "seed": 0, "n": 10, "a": 1, "b": 3},
             PayoffProfile, "homogeneous"),
            ("simulate-game", TestGame.CFG, game, "sample_arm_counts"),
        ],
        ids=["bounds", "simulate-game"],
    )
    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                         "and data type float64"),
             "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
             "and data type float64"),
            (MemoryError(), "error: MemoryError"),
        ],
        ids=["numpy", "bare"],
    )
    def test_run_too_large_for_memory(self, tmp_path, monkeypatch, sub, cfg, owner, name, exc,
                                      line):
        # an allocation that fails is simulated: a real one could be granted and fill the machine
        def allocate(*args, **kwargs):
            raise exc

        monkeypatch.setattr(owner, name, allocate)
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        assert (rc, err) == (1, [line])
        assert os.listdir(tmp_path) == ["c.json"]

    def test_non_integer_config_seed(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, {**TestGame.CFG, "seed": "x"}) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"n": 3, "scaling": {"kind": "uniform_discrete", "a": 1, "b": 3}},
            {"scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 50, "std": 0.1}},
            {"replicas": 0},
            {"defender_eta": 5},
            {"tail_fraction": -3},
            {"tail_fraction": 0},
            {"tail_fraction": 1.5},
            {"attacker": "greedy", "scan_discount": 2.0},
            {"attacker": "greedy", "scan_discount": -1.0},
            {"attacker": "greedy", "scan_discount": 0.0},
            {"attacker": "greedy", "scan_discount": 1e300},
        ],
        ids=["b-not-below-n", "gaussian-without-mass", "zero-replicas", "eta-above-one",
             "tail-negative", "tail-zero", "tail-above-one", "discount-above-one",
             "discount-negative", "discount-zero", "discount-huge"],
    )
    def test_rejected_value_leaves_no_output(self, tmp_path, capsys, change):
        assert self._run(tmp_path, capsys, {**TestGame.CFG, **change}) == 1
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("n", [-1, 0, 3])
    def test_sweep_checks_n_a_b_first(self, tmp_path, capsys, n):
        cfg = {"schema_version": 1, "kind": "sweep", "seed": 0, "n": n, "a": 1, "b": 3}
        assert self._run(tmp_path, capsys, cfg, sub="sweep") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_failed_run_removes_the_parents_it_made(self, tmp_path, capsys):
        cfgp = _write_config(tmp_path, {**TestGame.CFG, "defender_eta": 5})
        out = tmp_path / "a" / "b" / "out"
        assert cli.main(["simulate-game", "--config", cfgp, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: defender_eta must be in (0, 1)")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_tail_fraction_of_one_is_the_whole_horizon(self, tmp_path):
        cfgp = _write_config(tmp_path, {**TestGame.CFG, "tail_fraction": 1})
        assert cli.main(["simulate-game", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        assert "tail_rounds=400" in (tmp_path / "o" / "summary.txt").read_text().splitlines()

    def test_existing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert self._run(tmp_path, capsys, {**TestGame.CFG, "replicas": 0}) == 1
        assert os.listdir(out) == ["notes.txt"]
        cfgp = _write_config(tmp_path, TestGame.CFG)
        assert cli.main(["simulate-game", "--config", cfgp, "--out", str(out)]) == 0
        assert "notes.txt" in os.listdir(out) and "summary.txt" in os.listdir(out)
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]

    def test_run_that_fails_after_its_csvs_leaves_no_manifest_or_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_equilibrium_items", fail)  # the game's last step
        assert self._run(tmp_path, capsys, TestGame.CFG) == 1
        assert sorted(os.listdir(out)) == [
            "curves.csv", "notes.txt", "trace_000.csv", "trace_001.csv"
        ]

    def test_replicas_flag_only_where_the_kind_has_replicas(self, tmp_path, capsys):
        cfgp = _write_config(tmp_path, {"schema_version": 1, "kind": "bounds", "seed": 0,
                                        "n": 10, "a": 1, "b": 3})
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--config", cfgp, "--out", str(tmp_path / "o"), "--replicas", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --replicas 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        game = _write_config(tmp_path, TestGame.CFG, "game.json")
        assert cli.main(
            ["simulate-game", "--config", game, "--out", str(tmp_path / "g"), "--replicas", "1"]
        ) == 0
        assert sorted(n for n in os.listdir(tmp_path / "g") if n.startswith("trace_")) == [
            "trace_000.csv"
        ]


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


def _row_writer(path, header, rows):
    """The per-row writer ``write_csv`` replaced: one ``_fmt`` call per value."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(cli._fmt(v) for v in row) + "\n")


_SPECIAL_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                   0.1, 1e16, -2.5e-7]


class TestWriteCsv:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_same_bytes_as_the_row_writer(self, tmp_path, blocks, offset):
        n = max(0, blocks * environments.CSV_BLOCK + offset)
        rng = np.random.default_rng(n)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        floats[: len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS[:n]
        columns = [
            rng.random(n) < 0.5,
            rng.integers(-(2**62), 2**62, size=n, dtype=np.int64),
            rng.integers(0, 256, size=n, dtype=np.uint8),
            floats,
            [f"s{k};{k % 3}" for k in range(n)],
            np.array([f"u{k}" for k in range(n)], dtype=str),
        ]
        header = ["b", "i", "u8", "f", "s", "u"]
        cli.write_csv(tmp_path / "new.csv", header, columns)
        _row_writer(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert len((tmp_path / "new.csv").read_bytes().splitlines()) == n + 1

    def test_rejects_columns_of_different_lengths(self, tmp_path):
        with pytest.raises(InvalidConfigError, match=r"columns of different lengths \[3, 4\]"):
            cli.write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.arange(4)])

    def test_scan_sets_match_per_row_indices(self):
        rows = [[1, 3], [], [0, 1, 2, 3, 4], [4], [], []]  # empty rounds in and at the end
        scanned = np.array([j for row in rows for j in row])
        counts = np.array([len(row) for row in rows])
        expected = [";".join(map(str, row)) for row in rows]
        assert cli._scan_sets(scanned, counts) == expected
        assert expected[1] == "" and expected[2] == "0;1;2;3;4"
        assert cli._scan_sets(np.zeros(0, dtype=int), np.zeros(0, dtype=int)) == []


# A config of every kind with every key of its table set, covering every
# environment type and scaling kind; "@LOG@" stands for a CAN log path.
_LOG_COLUMNS = {"timestamp": "Timestamp", "identity": "CAN_ID", "flag": "Flag"}
FULL_CONFIGS = {
    "bounds": ("bounds", {"n": 10, "a": 1, "b": 3, "nu": 2, "horizon": 1000, "eta": 0.1,
                          "gmax": 50.0}),
    "sweep": ("sweep", {"n": 10, "a": 1, "b": 3, "mu_min": 0.1, "mu_max": 0.9, "steps": 5}),
    "single_player-bernoulli": ("simulate-single", {
        "environment": {"type": "bernoulli", "means": [0.9, 0.5, 0.1, 0.2]},
        "scaling": {"kind": "constant", "a": 1, "b": 2, "m": 2},
        "eta": 0.1, "horizon": 30, "replicas": 1, "record_weights": True,
    }),
    "single_player-harmonic": ("simulate-single", {
        "environment": {"type": "harmonic_bernoulli", "n_arms": 5, "top": 0.8},
        "scaling": {"kind": "budget_threshold", "a": 1, "b": 3, "threshold": 0.2},
        "eta": "corollary_1_1", "horizon": 30,
    }),
    "single_player-synthetic": ("simulate-single", {
        "environment": {"type": "synthetic_trace", "n_arms": 6, "attacked": [1, 4],
                        "horizon": 40, "burst_length_range": [2.0, 4.0],
                        "round_window": 0.5, "n_bursts": [4, 2]},
        "scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2, "std": 0.8},
    }),
    "compare-trace_csv": ("compare", {
        "environment": {"type": "trace_csv", "path": "@LOG@", "column_map": _LOG_COLUMNS,
                        "round_window": 0.1},
        "scaling": {"kind": "uniform_discrete", "a": 1, "b": 2},
        "epsilon": 0.2, "fixed_m": 2,
    }),
    "game-exp3": ("simulate-game", {
        "n": 5, "horizon": 40,
        "scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8},
        "attacker": "exp3", "defender_eta": 0.1, "attacker_eta": 0.1,
        "payoff": [1.0, 0.5, 0.5, 0.25, 1], "replicas": 1, "tail_fraction": 0.5,
    }),
    "game-greedy": ("simulate-game", {
        "n": 5, "horizon": 40,
        "scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8},
        "attacker": "greedy", "defender_eta": 0.1,
        "payoff": [1.0, 0.5, 0.5, 0.25, 1], "scan_discount": 0.9, "replicas": 1,
        "tail_fraction": 0.5,
    }),
    "ingest": ("ingest", {"path": "@LOG@", "column_map": _LOG_COLUMNS, "round_window": 0.1}),
}


_DROP = object()  # a change that removes the key


def _full_config(case, log_path):
    sub, body = FULL_CONFIGS[case]
    cfg = {"schema_version": 1, "kind": case.split("-")[0], "seed": 3, **body}
    return sub, json.loads(json.dumps(cfg).replace("@LOG@", str(log_path)))


def _key_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
    return cfg


def _write_can_log(path):
    rows = [f"{0.05 * k:.2f},{'id' + 'ABC'[k % 3]},{'T' if k % 4 == 0 else 'R'}"
            for k in range(40)]
    path.write_text("Timestamp,CAN_ID,Flag\n" + "\n".join(rows) + "\n")
    return path


def _run_main(sub, cfg, cfg_path, out):
    """(exit status, stderr lines) of one CLI run.

    Warnings count as stderr lines: a plain run prints them there, while
    pytest would only record them.
    """
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([sub, "--config", str(cfg_path), "--out", str(out)])
    return rc, err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]


def _assert_one_error(rc, err, status=1):
    assert rc == status
    assert len(err) == 1 and err[0].startswith("error: "), err


def _assert_fails_fast(rc, err, out, status=1):
    _assert_one_error(rc, err, status)
    assert not out.exists()


_WRONG_TYPE_CASES = [
    (case, path)
    for case in FULL_CONFIGS
    for path in _key_paths(_full_config(case, "log.csv")[1])
]


class TestSchema:
    @pytest.mark.parametrize("case", sorted(FULL_CONFIGS))
    def test_full_config_runs(self, tmp_path, case):
        sub, cfg = _full_config(case, _write_can_log(tmp_path / "log.csv"))
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        assert (rc, err) == (0, [])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for key, value in cfg.items():
            # sections are written with their defaults
            if not isinstance(value, dict):
                assert manifest[key] == value, key

    def test_integer_passes_through_as_a_number(self, tmp_path):
        sub, cfg = _full_config("single_player-synthetic", "unused")
        assert _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out") == (0, [])
        scaling = json.loads((tmp_path / "out" / "manifest.json").read_text())["scaling"]
        assert scaling == cfg["scaling"] and isinstance(scaling["mean"], int)

    @pytest.mark.parametrize(
        "case, path", _WRONG_TYPE_CASES, ids=[f"{c}:{'.'.join(p)}" for c, p in _WRONG_TYPE_CASES]
    )
    def test_wrong_type_fails_before_any_output(self, tmp_path, case, path):
        sub, cfg = _full_config(case, _write_can_log(tmp_path / "log.csv"))
        old = functools.reduce(operator.getitem, path, cfg)
        cfg = _replaced(cfg, path, [] if isinstance(old, str) else "x")
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        # seed and kind are checked as usage errors before the config is resolved
        _assert_fails_fast(rc, err, tmp_path / "out", 2 if path in (("seed",), ("kind",)) else 1)

    @pytest.mark.parametrize(
        "sub, change",
        [
            ("simulate-game", {"n": "10"}),
            ("simulate-game", {"tail_fraction": "a"}),
            ("simulate-game", {"scaling": "x"}),
            ("simulate-game", {"n": True}),
            ("simulate-game", {"scaling": {"kind": "constant", "a": 1, "b": 2, "mean": 3}}),
            ("simulate-single", {"record_weights": "no"}),
            ("ingest", {"path": 5}),
            ("ingest", {"column_map": {"flags": "Flag"}}),
            ("simulate-game", {"defender_eta": None}),
            ("simulate-game", {"horizon": 40.0}),
            ("simulate-game", {"scaling": {"kind": "uniform_discrete", "a": 1, "b": 2,
                                           "threshold": 0.5}}),
            ("sweep", {"steps": -1}),
            ("sweep", {"steps": 0}),
            ("simulate-single", {"environment": {"type": "synthetic_trace", "n_arms": 6,
                                                 "attacked": [1, 4], "horizon": -4}}),
            ("simulate-single", {"environment": {"type": "synthetic_trace", "n_arms": 6,
                                                 "attacked": [1, 4], "horizon": 40,
                                                 "n_bursts": -5}}),
            ("simulate-single", {"horizon": -5}),
            ("simulate-single", {"horizon": 0}),
            # budget is not a key: b is the budget_threshold rule's cap
            ("simulate-single", {"environment": {"type": "harmonic_bernoulli", "n_arms": 5},
                                 "scaling": {"kind": "budget_threshold", "a": 1, "b": 3},
                                 "horizon": 20, "budget": 2}),
            ("simulate-single", {"budget": 7}),
            ("bounds", {"gmax": -1e6}),
            # a subnormal payoff overflows the harmonic sum of the game value
            ("sweep", {"mu_min": 1e-320}),
            ("simulate-game", {"payoff": [1.0, 1e-320, 0.5, 0.25, 1]}),
            # budget_threshold has no play-count law, so no game value
            ("simulate-game", {"scaling": {"kind": "budget_threshold", "a": 1, "b": 3}}),
            # theorem1_bound takes both eta and gmax: one alone is an unused key
            ("bounds", {"gmax": _DROP}),
            ("bounds", {"eta": _DROP}),
        ],
    )
    def test_bad_values_fail_before_any_output(self, tmp_path, sub, change):
        case = {"simulate-game": "game-exp3", "simulate-single": "single_player-bernoulli",
                "ingest": "ingest", "sweep": "sweep", "bounds": "bounds"}[sub]
        _, cfg = _full_config(case, _write_can_log(tmp_path / "log.csv"))
        cfg = {k: v for k, v in {**cfg, **change}.items() if v is not _DROP}
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        if "budget" in change:
            assert err == ["error: unknown key(s) in config: ['budget']"]
        if change == {"scaling": {"kind": "budget_threshold", "a": 1, "b": 3}}:
            assert "'budget_threshold' has no play-count law" in err[0]
        if _DROP in change.values():
            given, dropped = ("eta", "gmax") if "gmax" in change else ("gmax", "eta")
            assert err == [f"error: {given} needs {dropped}: theorem1_bound takes both"]

    @pytest.mark.parametrize(
        "case, path, where",
        [("game-exp3", ("horizon",), "config"),
         ("single_player-bernoulli", ("environment", "means"), "config.environment")],
    )
    def test_missing_key_fails_before_any_output(self, tmp_path, case, path, where):
        sub, cfg = _full_config(case, "unused")
        del functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]]
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert err == [f"error: missing key(s) in {where}: [{path[-1]!r}]"]

    def test_compare_needs_a_trace_environment(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "compare", "seed": 3,
               "environment": {"type": "bernoulli", "means": [0.9, 0.5, 0.1, 0.2]}}
        rc, err = _run_main("compare", cfg, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert err == ["error: compare needs a trace environment"]

    @pytest.mark.parametrize(
        "case, change, message",
        [
            ("game-exp3", {"defender_eta": 1.5}, "defender_eta must be in (0, 1), got 1.5"),
            ("game-exp3", {"attacker_eta": 1.5}, "attacker_eta must be in (0, 1], got 1.5"),
            # each attacker kind takes only its own key
            ("game-greedy", {"attacker_eta": 0.1},
             "attacker_eta applies only to the exp3 attacker"),
            ("game-exp3", {"scan_discount": 0.9},
             "scan_discount applies only to the greedy attacker"),
            ("single_player-bernoulli", {"eta": 0}, "eta must be in (0, 1), got 0.0"),
        ],
    )
    def test_bad_rate_names_its_key(self, tmp_path, case, change, message):
        sub, cfg = _full_config(case, "unused")
        rc, err = _run_main(sub, {**cfg, **change}, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("mean, std", [(50, 0.1), (10, 1)])
    def test_gaussian_without_mass_fails_fast(self, tmp_path, mean, std):
        # both specs used to hang the play-count rejection sampler
        sub, cfg = _full_config("game-exp3", "unused")
        cfg["scaling"].update(mean=mean, std=std)
        _assert_one_error(*_run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out"))

    @pytest.mark.parametrize(
        "body", ["nan,idA,R\n0.1,idB,T\n", "0.0,idA,R\nnan,idB,T\n", "0.0,idA,R\ninf,idB,T\n"]
    )
    def test_non_finite_timestamp_fails_fast(self, tmp_path, body):
        log = tmp_path / "log.csv"
        log.write_text("Timestamp,CAN_ID,Flag\n" + body)
        sub, cfg = _full_config("ingest", log)
        _assert_one_error(*_run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out"))

    @pytest.mark.parametrize("case", ["ingest", "compare-trace_csv"])
    @pytest.mark.parametrize("line", [1, 1001])
    def test_log_that_is_not_utf8_fails_fast(self, tmp_path, case, line):
        rows = [b"Timestamp,CAN_ID,Flag"]
        rows += [b"%.2f,id%d,T" % (0.01 * k, k % 3) for k in range(1200)]
        rows[line - 1] += b"\xff"
        # the header sits in the first 8 KiB block the decoder reads, line 1001 past it
        assert line == 1 or len(b"\n".join(rows[: line - 1])) > 8192
        log = tmp_path / "log.csv"
        log.write_bytes(b"\n".join(rows) + b"\n")
        sub, cfg = _full_config(case, log)
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert f"{log} is not UTF-8" in err[0]

    @pytest.mark.parametrize("case", ["ingest", "compare-trace_csv"])
    def test_log_whose_trace_is_too_large_fails_fast(self, tmp_path, case):
        # one stray timestamp used to size a 7.11 PiB indicator matrix
        log = tmp_path / "log.csv"
        log.write_text("Timestamp,CAN_ID,Flag\n0.0,idA,T\n1e15,idB,R\n")
        sub, cfg = _full_config(case, log)
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert "spans 1e+15 s: at round_window 0.1" in err[0]

    @pytest.mark.parametrize("eta", [0.1, "corollary_1_1"])
    def test_horizon_beyond_the_trace_fails_fast(self, tmp_path, eta):
        # 40 rows 0.05 s apart in 0.5 s rounds: a 4-round trace
        log = _write_can_log(tmp_path / "log.csv")
        _, cfg = _full_config("single_player-bernoulli", log)
        cfg.update(environment={"type": "trace_csv", "path": str(log), "round_window": 0.5},
                   eta=eta, horizon=4)
        assert _run_main("simulate-single", cfg, tmp_path / "c.json", tmp_path / "ok") == (0, [])
        rc, err = _run_main("simulate-single", {**cfg, "horizon": 50}, tmp_path / "c.json",
                            tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert "exceeds the trace's 4 rounds" in err[0]

    @pytest.mark.parametrize("case", ["ingest", "compare-trace_csv"])
    def test_log_with_a_byte_order_mark_gives_the_same_outputs(self, tmp_path, case):
        log = _write_can_log(tmp_path / "log.csv")
        sub, cfg = _full_config(case, log)
        assert _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "plain") == (0, [])
        log.write_bytes(b"\xef\xbb\xbf" + log.read_bytes())
        assert _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "marked") == (0, [])
        assert _read_all(tmp_path / "marked") == _read_all(tmp_path / "plain")

    @pytest.mark.parametrize("label", ["a;b", "d\ne", "f\rg"])
    def test_label_that_trace_meta_cannot_hold_fails_fast(self, tmp_path, label):
        # trace.meta joins the labels with ';', one key per line; a quoted CSV
        # field holds either, so the ingest stops before writing any file
        log = tmp_path / "log.csv"
        log.write_text(f'Timestamp,CAN_ID,Flag\n0.0,"{label}",T\n0.1,c,R\n', newline="")
        sub, cfg = _full_config("ingest", log)
        rc, err = _run_main(sub, cfg, tmp_path / "c.json", tmp_path / "out")
        _assert_fails_fast(rc, err, tmp_path / "out")
        assert err == [f"error: arm label {label!r} holds ';' or a line break"]
        # in a directory that exists, neither trace file is written
        (tmp_path / "kept").mkdir()
        _assert_one_error(*_run_main(sub, cfg, tmp_path / "c.json", tmp_path / "kept"))
        assert not any((tmp_path / "kept").iterdir())


_LEAF = st.one_of(st.none(), st.booleans(), st.text(max_size=8))
_WRONG = st.one_of(
    st.text(max_size=12),
    st.lists(_LEAF, max_size=3),
    st.dictionaries(st.text(max_size=6), _LEAF, max_size=3),
    st.none(),
    st.booleans(),
)


@pytest.fixture(scope="module")
def can_log(tmp_path_factory):
    return _write_can_log(tmp_path_factory.mktemp("log") / "log.csv")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_config_fails_with_one_error_line(can_log, data):
    case = data.draw(st.sampled_from(sorted(FULL_CONFIGS)))
    sub, cfg = _full_config(case, can_log)
    path = data.draw(st.sampled_from(list(_key_paths(cfg))))
    value = data.draw(_WRONG)
    assume(type(value) is not type(functools.reduce(operator.getitem, path, cfg)))
    cfg = _replaced(cfg, path, value)  # a value of the wrong JSON type
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        rc, err = _run_main(sub, cfg, pathlib.Path(work) / "c.json", out)
        assert rc in (1, 2)
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not os.path.exists(out)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Values of a number key's type, mostly out of its range.  A round window of
# 1e-9 asks for a trace over ingest's bound on rounds × arms; one of 1e-320
# puts a burst's end round at infinity.
_NUMBER = st.one_of(
    st.integers(-1, 7), st.sampled_from([-1.0, 0.0, 1e-320, 1e-9, 1e-3, 1.0, 2.5, 1e300])
)


@settings(max_examples=150, deadline=1000)  # ms per example
@given(data=st.data())
def test_fuzzed_out_of_range_number_never_raises(can_log, data):
    case = data.draw(st.sampled_from(sorted(FULL_CONFIGS)))
    sub, cfg = _full_config(case, can_log)
    numeric = {}
    for path in _key_paths(cfg):
        old = functools.reduce(operator.getitem, path, cfg)
        if _is_number(old) or isinstance(old, list) and all(map(_is_number, old)):
            numeric[path] = old
    path = data.draw(st.sampled_from(sorted(numeric)))
    lists = isinstance(numeric[path], list)
    cfg = _replaced(cfg, path, data.draw(st.lists(_NUMBER, max_size=5) if lists else _NUMBER))
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        rc, err = _run_main(sub, cfg, pathlib.Path(work) / "c.json", out)
        if rc == 0:
            assert err == []  # no warning either: a run that succeeds is silent
        else:
            assert rc in (1, 2)
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert not os.path.exists(out)


# Run in a fresh interpreter: prints, after the import and after each run,
# the exit status and the scipy modules then loaded.
_SCIPY_PROBE = """
import json, sys
import vpbandit.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps(["import", 0, scipy_modules()]))
for sub, cfg, out in json.loads(sys.argv[1]):
    print(json.dumps([sub, cli.main([sub, "--config", cfg, "--out", out]), scipy_modules()]))
"""


def test_no_command_loads_scipy(tmp_path):
    log = _write_can_log(tmp_path / "log.csv")
    runs = []
    for case in ["bounds", "sweep", "game-exp3", "game-greedy", "ingest", "compare-trace_csv",
                 "single_player-bernoulli", "single_player-harmonic"]:
        sub, cfg = _full_config(case, log)
        (tmp_path / f"{case}.json").write_text(json.dumps(cfg))
        runs.append([sub, str(tmp_path / f"{case}.json"), str(tmp_path / case)])
    env = {k: v for k, v in os.environ.items() if k != "BANDIT_SEED"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [step[:2] for step in steps] == [["import", 0]] + [[sub, 0] for sub, _, _ in runs]
    for sub, _, loaded in steps:
        assert loaded == [], sub
