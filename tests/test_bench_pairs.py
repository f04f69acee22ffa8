"""``tools/bench_pairs.py``: its summary of a metric, and one short pair.

The pair exports HEAD and the working tree with ``git archive`` and runs the
benchmark once on each, so it needs a git checkout with a commit.
"""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _end_to_end():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_summary_counts_wins_and_reads_the_spread(better):
    metric = {"name": "m", "unit": "1/s", "better": better, "bound": 0.25}
    base = [100.0 + k for k in range(10)]  # quartiles 102.25 and 106.75
    change = [x + 5.0 for x in base]
    change[3] = base[3]  # a tie counts for neither side
    up = _tool().summarize(metric, base, change)
    assert up["base"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert up["change"]["median"] == 109.5 and up["pairs"] == 10
    if better == "higher":
        # 9 of 10 won, and the gap of 5.0 exceeds the base's IQR of 4.5
        assert (up["wins"], up["gain"], up["within_bound"]) == (9, True, True)
    else:
        assert (up["wins"], up["gain"], up["within_bound"]) == (0, False, True)
        worse = _tool().summarize(metric, base, [x * 1.3 for x in base])
        assert (worse["wins"], worse["within_bound"]) == (0, False)
    assert up["change_frac"] == pytest.approx(5.0 / 104.5)


def test_usage_without_a_base_revision(capsys):
    assert _tool().main([]) == 2
    assert "usage: python3 tools/bench_pairs.py <base-rev>" in capsys.readouterr().err


def test_one_short_pair_of_head_against_itself():
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True)
    if head.returncode:
        pytest.skip("needs a git checkout with a commit")
    lines = []
    report = _tool().compare("HEAD", ["game-n1000"], seeds=[7], seconds=1, log=lines.append)
    assert report["base"] == head.stdout.decode().strip()
    assert report["seeds"] == [7] and report["seconds"] == 1
    assert lines and lines[0].startswith("game-n1000 seed 7: base ")
    w = report["workloads"]["game-n1000"]
    assert w["first"] == ["base"]
    assert w["correct"] == {"base": True, "change": True}
    assert w["failed"] == {"base": 0, "change": 0}
    assert list(w["metrics"]) == [m["name"] for m in _end_to_end()]
    for name, m in w["metrics"].items():
        assert m["pairs"] == 1 and m["wins"] in (0, 1)
        for side in ("base", "change"):
            value = w["runs"][side][0][name]
            assert m[side] == {"median": value, "q1": value, "q3": value} and value > 0
        assert m["gain"] is (m["wins"] == 1)  # one pair has no spread
