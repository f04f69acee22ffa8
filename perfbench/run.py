"""vpbandit benchmark: drives the real CLI on seeded workloads and checks outputs.

Run from the repository root::

    python3 perfbench/run.py --workload game-n10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload untraced and then traced.

Each run generates its inputs from ``--seed`` (untimed), measures import
time in fresh interpreters, then runs the workload's CLI commands in one
fresh worker process with ``--workers 1`` for ``--seconds`` seconds and
checks the outputs against independent oracles.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics from a traced
run that follows an untraced one in the same worker.  The last line of
standard output is one JSON object; a copy with the environment record is
written under ``perfbench/out/results/``.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 4
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import vpbandit.cli; "
    "print(time.perf_counter() - t)"
)
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cli_wall_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Checks of the paper's claims that the program is known to miss at a
# workload's settings.  They run on every run and each miss is printed and
# recorded in the results file as a known defect, but it is not counted in
# ``attempted``/``failed``: the result line's ``correct`` covers the run's
# outputs (exit statuses, byte identity, output oracles), and the benchmark
# must stay usable as a speed gate until the defect is fixed.  A check listed
# here that passes is reported as fixed, so the entry can be removed.
KNOWN_DEFECTS = {
    ("regret-harmonic", "regret_vs_bound"): "with the default horizon-tuned eta, mean "
    "regret on the harmonic instance exceeds the Theorem 1 bound",
}


def _child_env():
    env = dict(os.environ)
    env.pop("BANDIT_SEED", None)  # it would override every generated config seed
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples=SETUP_SAMPLES):
    """Seconds a fresh interpreter takes to ``import vpbandit.cli``, per sample.

    One unrecorded import first writes the bytecode cache, as any earlier
    use of the checkout would have.  Unlike the workload times these are not
    scaled by the calibration kernel: import time is dominated by loading
    files and shared libraries, which the kernel does not track.
    """
    times = []
    for k in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import vpbandit.cli failed:\n{proc.stderr.strip()}")
        if k:
            times.append(float(proc.stdout.strip()))
    return times


def _scaled_median(seconds, kernel_s):
    return statistics.median(calibrate.scale(s, k) for s, k in zip(seconds, kernel_s))


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, index, "size")) as f:
                sizes[f"L{level}_{kind}"] = f.read().strip()
    except OSError:
        return "unknown"
    return sizes


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


def _run_worker(spec, work):
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "worker_result.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()[-2000:]}")
    with open(result_path) as f:
        return json.load(f)


def _median_metrics(per_iteration):
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}


def run_workload(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns the result dict (printed as the last line)."""
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    work = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        commands, expect = inputs.write_inputs(workload, seed, work, size)
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
        if not trace:
            report["setup_samples"] = measure_setup()
        spec = {
            "commands": [[name, sub, os.path.relpath(path, ROOT)] for name, sub, path in commands],
            "out_root": os.path.relpath(os.path.join(work, "runs"), ROOT),
            "seconds": seconds,
            "trace": trace,
        }
        res = _run_worker(spec, work)
        out_dirs = {n: os.path.join(ROOT, d) for n, d in res["reference_dirs"].items()}
        results = checks.check_outputs(out_dirs, expect)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    statuses = res["statuses"]
    failures = [f"exit status {rc!r} from {name} (iteration {k})" for name, k, rc in statuses if rc != 0]
    failures += [f"{name} iteration {k} differs from iteration 0 in {files}" for name, k, files in res["mismatches"]]
    known, counted = [], []
    for name, ok, detail in results:
        reason = KNOWN_DEFECTS.get((workload, name))
        if reason:
            known.append(f"{name}: {detail} ({reason})" if not ok else f"{name}: now passes")
            continue
        counted.append(name)
        if not ok:
            failures.append(f"{name}: {detail}")
    attempted = len(statuses) + res["compared"] + len(counted)
    failed = len(failures)

    wall = _scaled_median(res["cli_wall_s"], res["kernel_s"])
    report["raw_cli_wall_s"] = statistics.median(res["cli_wall_s"])
    report["kernel_s"] = statistics.median(res["kernel_s"])
    if trace:
        metrics = _median_metrics(res["layers"])
        traced = _scaled_median(res["traced_cli_wall_s"], res["traced_kernel_s"])
        metrics["trace.overhead_frac"] = traced / wall - 1.0
        units = tracing.PER_LAYER
    else:
        # rounds per scaled second inside the simulation entry points
        rates = [
            e["rounds"] / calibrate.scale(e["inside_s"], k)
            for e, k in zip(res["entry"], res["kernel_s"])
            if e["inside_s"] > 0
        ]
        metrics = {
            "setup_s": statistics.median(report["setup_samples"]),
            "cli_wall_s": wall,
            "rounds_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    report.update(
        iterations=len(res["cli_wall_s"]),
        cli_wall_samples=res["cli_wall_s"],
        kernel_samples=res["kernel_s"],
        checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        failures=failures,
        known_defects=known,
        failed_frac=failed / attempted,
        environment=environment(),
    )
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report["result"] = summary
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(report, f, indent=2)
    return report


def _print_report(report):
    r = report["result"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    print(f"workload {report['workload']} (seed {report['seed']}): {why[report['workload']]}")
    print(
        f"  {report['iterations']} timed iterations in {report['seconds']} s; "
        f"ops attempted {r['attempted']}, failed {r['failed']} "
        f"(failed_frac {report['failed_frac']:.4g})"
    )
    print(
        f"  cli and round times below are scaled to the reference kernel speed; kernel median "
        f"{report['kernel_s'] * 1e3:.1f} ms (reference {calibrate.REFERENCE_KERNEL_S * 1e3:.0f} ms), "
        f"raw cli wall median {report['raw_cli_wall_s']:.4g} s"
    )
    for name, m in r["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    for line in report["known_defects"]:
        print(f"  KNOWN DEFECT, not counted in failed: {line}")
    env = report["environment"]
    print(f"  environment: {json.dumps(env, sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vpbandit", "cli.py")):
        print(f"error: no package sources at {SRC}; run from a vpbandit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in inputs.WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    for name, trace in runs:
        try:
            report = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        _print_report(report)
        sys.stdout.flush()
        results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = report["result"]
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"benchmark took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(code)
