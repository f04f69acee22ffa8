"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the repo root.

Runs every workload at a tiny size, and checks that each output checker
rejects a deliberately corrupted output.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run
import tracing

sys.path.insert(0, run.SRC)

from vpbandit import cli  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report = run.run_workload(workload, seed=5, seconds=0.2, trace=trace, size="tiny")
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert report["failures"] == []  # tiny horizons stay clear of the known defect
    assert result["attempted"] >= 1
    units = tracing.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == units


def _run_cli(workload, tmp_path):
    commands, expect = inputs.write_inputs(workload, 9, str(tmp_path), "tiny")
    out_dirs = {}
    for name, sub, config in commands:
        out_dirs[name] = str(tmp_path / name)
        assert cli.main([sub, "--config", config, "--out", out_dirs[name], "--workers", "1"]) == 0
    return out_dirs, expect


def _rewrite_row(path, index, edit):
    with open(path, newline="") as f:
        lines = f.read().splitlines(keepends=True)
    end = lines[index][len(lines[index].rstrip("\r\n")):]
    cells = lines[index].rstrip("\r\n").split(",")
    edit(cells)
    lines[index] = ",".join(cells) + end
    with open(path, "w", newline="") as f:
        f.write("".join(lines))


def test_ingest_check_rejects_a_flipped_indicator(tmp_path):
    out_dirs, expect = _run_cli("can-trace", tmp_path)
    path = os.path.join(out_dirs["ingest"], "trace.csv")
    assert checks.check_trace_csv(path, expect["truth"])[1]

    def flip(cells):
        cells[3] = "1" if cells[3] == "0" else "0"

    _rewrite_row(path, 5, flip)
    name, ok, detail = checks.check_trace_csv(path, expect["truth"])
    assert not ok and "1 cells differ" in detail


def test_weights_check_rejects_a_row_off_its_play_count(tmp_path):
    out_dirs, expect = _run_cli("regret-harmonic", tmp_path)
    path = os.path.join(out_dirs["single"], "weights.csv")
    cfg = expect["single"]
    assert checks.check_weights(path, 1, 3, cfg["horizon"])[1]

    def shift(cells):
        cells[2] = repr(float(cells[2]) - 1e-6)

    _rewrite_row(path, 7, shift)
    name, ok, detail = checks.check_weights(path, 1, 3, cfg["horizon"])
    assert not ok and "sum to" in detail


def test_game_trace_check_rejects_rewards_not_summing_to_one(tmp_path):
    out_dirs, expect = _run_cli("game-n10", tmp_path)
    path = os.path.join(out_dirs["game"], "trace_000.csv")
    assert checks.check_game_trace(path, 1, 3)[0][1]

    def break_sum(cells):
        cells[5] = "0.5"  # the s column

    _rewrite_row(path, 3, break_sum)
    (name, ok, detail), _ = checks.check_game_trace(path, 1, 3)
    assert not ok and "r + s" in detail


def test_regret_check_rejects_a_row_over_the_bound(tmp_path):
    out_dirs, expect = _run_cli("regret-harmonic", tmp_path)
    path = os.path.join(out_dirs["single"], "curves.csv")
    horizon = expect["single"]["horizon"]
    assert checks.check_regret(path, horizon)[1]

    def exceed(cells):
        cells[1] = repr(float(cells[3]) + 1.0)  # regret_mean above the bound column

    _rewrite_row(path, 11, exceed)
    name, ok, detail = checks.check_regret(path, horizon)
    assert not ok and "first t=11" in detail


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game-n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
