"""Compare the working tree with a base revision on the benchmark, in pairs.

Run from a checkout, at the repository root::

    python3 tools/bench_pairs.py <base-rev>

``git archive`` exports ``<base-rev>`` and the working tree (every file
``git add -A`` would stage, through a temporary index, so their blobs land
in the object store as ``git add`` leaves them) into a temporary
directory.  On both sides it runs ``perfbench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0`` unchanged, ``PAIRS`` pairs per workload
of ``BENCHMARK.json``, the side that runs first alternating pair by pair, at
consecutive seeds from a random start, which it prints first.  For each
end-to-end metric it reports each side's median and quartiles, the change of
the median, and how many pairs the change won; ``gain`` says whether it won
at least nine of ten pairs by a median gap wider than the base's
interquartile range, ``within_bound`` whether its median is no worse than
the base's by more than the metric's bound.  The report is printed as lines
and then, as the last line of standard output, as one JSON object, which
``tools/bench_snapshot.py`` stores as its ``pairs`` block.
"""

import functools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True, **kwargs)


def export(rev, dest):
    """Write ``rev`` (a revision, or ``None`` for the working tree) into
    ``dest``; returns the commit or tree id that was exported."""
    if rev is None:
        with tempfile.TemporaryDirectory() as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
            _git("add", "-A", env=env)
            tree = _git("write-tree", env=env, text=True).stdout.strip()
    else:
        tree = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    os.makedirs(dest)
    archive = _git("archive", "--format=tar", tree).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return tree


def run_once(tree, workload, seed, seconds):
    """The result line of one untraced ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{k: m["value"] for k, m in result["metrics"].items()}}


def spread(values):
    """Median and quartiles (linear interpolation between order statistics)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric, base, change):
    """One end-to-end metric over the pairs: ``metric`` is its
    ``BENCHMARK.json`` entry, ``base`` and ``change`` its values pair by pair."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b, c = spread(base), spread(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    gap = sign * (c["median"] - b["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": b,
        "change": c,
        "change_frac": c["median"] / b["median"] - 1.0 if b["median"] else None,
        "wins": wins,
        "pairs": len(base),
        "gain": wins >= 0.9 * len(base) and gap > b["q3"] - b["q1"],
        "within_bound": -gap <= metric["bound"] * abs(b["median"]),
    }


def compare(base_rev, workloads, seeds, seconds, log=print):
    """Run ``len(seeds)`` pairs per workload; returns the report dict."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "change")}
        ids = {"base": export(base_rev, trees["base"]), "change": export(None, trees["change"])}
        report = {"base_rev": base_rev, "base": ids["base"], "change_tree": ids["change"],
                  "seconds": seconds, "seeds": list(seeds), "workloads": {}}
        for workload in workloads:
            runs = {"base": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed, seconds))
                log(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {runs[side][-1]['rounds_per_s']:.5g}" for side in order))
            report["workloads"][workload] = {
                "first": ["base" if k % 2 == 0 else "change" for k in range(len(seeds))],
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                "metrics": {
                    m["name"]: summarize(m, [r[m["name"]] for r in runs["base"]],
                                         [r[m["name"]] for r in runs["change"]])
                    for m in metrics
                },
                "runs": runs,
            }
    return report


def print_report(report, log=print):
    for workload, w in report["workloads"].items():
        log(f"{workload}: failed {w['failed']}, correct {w['correct']}")
        for name, m in w["metrics"].items():
            b, c = m["base"], m["change"]
            frac = "n/a" if m["change_frac"] is None else f"{m['change_frac']:+.1%}"
            log(f"  {name}: {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] -> "
                f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {m['unit']} ({frac}), "
                f"change better in {m['wins']} of {m['pairs']}; gain {m['gain']}, "
                f"within bound {m['within_bound']}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/bench_pairs.py <base-rev>", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    start = random.SystemRandom().randrange(10_000, 1_000_000)
    seeds = list(range(start, start + PAIRS))
    print(f"seeds {seeds[0]}..{seeds[-1]}", flush=True)
    workloads = [w["name"] for w in bench["workloads"]]
    log = functools.partial(print, flush=True)
    report = compare(argv[0], workloads, seeds, bench["run_seconds"], log=log)
    print_report(report, log=log)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
