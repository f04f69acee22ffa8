"""Runs one workload's CLI commands in this fresh process and times them.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json`` with
``PYTHONPATH`` pointing at the package sources.  The spec names the
commands, the output root and the time budget; ``run.py`` writes it and
reads the result.  Iteration 0 is a warm-up: it is not timed, and its
outputs are the reference that later iterations must match byte for byte
and that the output checks read.
"""

import hashlib
import json
import os
import resource
import shutil
import sys
import time

import calibrate
import tracing


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


class Runner:
    def __init__(self, spec, cli):
        self.spec = spec
        self.cli = cli
        self.iteration = 0
        self.statuses = []  # (command, iteration, exit status)
        self.mismatches = []  # (command, iteration, files that differ)
        self.reference = {}
        self.compared = 0

    def run_iteration(self, tracer=None, per_iteration=None):
        """Run every command once; returns (commands wall in ns, per-iteration record).

        ``per_iteration(busy_ns, wall_ns)`` runs before this iteration's
        outputs are hashed and removed.
        """
        k = self.iteration
        self.iteration += 1
        root = os.path.join(self.spec["out_root"], f"iter_{k:03d}")
        dirs = {}
        busy = 0
        begin = time.perf_counter_ns()
        for name, sub, config in self.spec["commands"]:
            dirs[name] = os.path.join(root, name)
            argv = [sub, "--config", config, "--out", dirs[name], "--workers", "1"]
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.root("cli.main", self.cli.main, argv)
            except Exception as exc:  # an uncaught error is a failed command, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            busy += time.perf_counter_ns() - t0
            self.statuses.append((name, k, rc))
        wall = time.perf_counter_ns() - begin
        record = per_iteration(busy, wall) if per_iteration is not None else None
        for name, path in dirs.items():
            digest = _hash_dir(path) if os.path.isdir(path) else {}
            if k == 0:
                self.reference[name] = digest
            else:
                self.compared += 1
                if digest != self.reference[name]:
                    diff = sorted(set(digest.items()) ^ set(self.reference[name].items()))
                    self.mismatches.append((name, k, sorted({f for f, _ in diff})))
        if k > 0:
            shutil.rmtree(root, ignore_errors=True)
        return busy, record

    def timed(self, seconds, min_iterations, tracer=None, per_iteration=None):
        """Iterate until ``seconds`` have passed and at least ``min_iterations`` ran.

        Returns per-iteration lists: command seconds, calibration kernel
        seconds measured around the iteration, and ``per_iteration`` records.
        """
        busy_s, kernel_s, records = [], [], []
        start = time.perf_counter()
        while len(busy_s) < min_iterations or time.perf_counter() - start < seconds:
            (busy, record), kernel = calibrate.timed_with_kernel(
                lambda: self.run_iteration(tracer, per_iteration)
            )
            busy_s.append(busy / 1e9)
            kernel_s.append(kernel)
            records.append(record)
        return busy_s, kernel_s, records


def main(spec_path, result_path):
    with open(spec_path) as f:
        spec = json.load(f)
    import vpbandit.cli as cli
    from vpbandit import analysis, baselines, environments, game, scaling

    modules = {
        "cli": cli,
        "game": game,
        "analysis": analysis,
        "environments": environments,
        "scaling": scaling,
        "baselines": baselines,
    }
    runner = Runner(spec, cli)
    runner.run_iteration()  # warm-up and byte-identity reference
    seconds = spec["seconds"]
    entry = tracing.Tracer(modules, entry_only=True)

    def entry_rate(busy, wall):
        stats = entry.collect()
        inside = sum(s["total_ns"] for s in stats.values())
        rounds = sum(s.get("units", 0) for s in stats.values())
        return {"rounds": rounds, "inside_s": inside / 1e9}

    entry.install()
    share = 0.5 if spec["trace"] else 1.0
    wall_s, kernel_s, rates = runner.timed(seconds * share, 2, per_iteration=entry_rate)
    entry.uninstall()
    result = {"cli_wall_s": wall_s, "kernel_s": kernel_s, "entry": rates}
    if spec["trace"]:
        tracer = tracing.Tracer(modules, entry_only=False)
        tracer.install()
        traced_s, traced_kernel_s, layers = runner.timed(
            seconds * (1 - share),
            2,
            tracer=tracer,
            per_iteration=lambda busy, wall: tracing.layer_metrics(tracer.collect(), wall),
        )
        tracer.uninstall()
        result["traced_cli_wall_s"] = traced_s
        result["traced_kernel_s"] = traced_kernel_s
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["statuses"] = runner.statuses
    result["mismatches"] = runner.mismatches
    result["compared"] = runner.compared
    result["reference_dirs"] = {
        name: os.path.join(spec["out_root"], "iter_000", name) for name, _, _ in spec["commands"]
    }
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
