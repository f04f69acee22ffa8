"""Write the next ``BENCH_<n>.json``: one full benchmark run, kept for later comparison.

Run from a checkout, at the repository root::

    python3 tools/bench_snapshot.py [PAIRS_OUTPUT]

It runs ``perfbench/run.py --workload all`` unchanged, at seed ``SEED``
and ``BENCHMARK.json``'s ``run_seconds``, and keeps, per workload, the
result line's end-to-end and per-layer metrics, and from
``perfbench/out/results/`` the environment and the calibration kernel's
median of each run, with ``git rev-parse HEAD``.  ``n`` is one more than
the highest ``BENCH_<n>.json`` at the top level.  ``PAIRS_OUTPUT``, the
saved standard output of ``tools/bench_pairs.py``, adds its last line, the
paired comparison's report, as the ``pairs`` block.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2601  # the seed of every BENCH_<n>.json, so that any two compare


def main(argv):
    pairs = None
    if argv:
        with open(argv[0]) as f:
            pairs = json.loads(f.read().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    run = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
           "--seconds", str(seconds)]
    proc = subprocess.run(run, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    if proc.returncode:
        return proc.returncode
    workloads = json.loads(proc.stdout.splitlines()[-1])
    for name, layers in workloads.items():
        for trace, layer in enumerate(("end_to_end", "per_layer")):
            with open(os.path.join(ROOT, "perfbench", "out", "results",
                                   f"{name}-seed{SEED}-trace{trace}.json")) as f:
                report = json.load(f)
            layers[f"{layer}_kernel_median_s"] = report["kernel_s"]
        layers["environment"] = report["environment"]
    git = ["git", "rev-parse", "HEAD"]
    head = subprocess.run(git, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    names = map(re.compile(r"BENCH_(\d+)\.json").fullmatch, os.listdir(ROOT))
    taken = [int(m[1]) for m in names if m]
    path = os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")
    snapshot = {"git_head": head, "seed": SEED, "seconds": float(seconds)}
    if pairs is not None:
        snapshot["pairs"] = pairs
    with open(path, "w") as f:
        f.write(json.dumps({**snapshot, "workloads": workloads}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
