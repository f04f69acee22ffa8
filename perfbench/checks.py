"""Output checks: each compares one CLI output against an independent oracle.

Every check returns ``(name, ok, detail)``.  The oracles are recomputed from
the generated inputs and the raw per-round outputs, never taken from the
program's own summaries.
"""

import csv
import json
import os

import numpy as np

EQUILIBRIUM_TOL = 0.03  # the acceptance suite's tolerance on the game's tail means
THEOREM2_TOL = 0.02
WEIGHT_SUM_TOL = 1e-9


def _rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _result(name, failures, detail_ok="ok"):
    return (name, not failures, failures[0] if failures else detail_ok)


def _scaling_bounds(cfg):
    return cfg["scaling"]["a"], cfg["scaling"]["b"]


def check_game_trace(path, a, b):
    """|J_t| = M_t in [a, b]; r = 0 exactly when I_t is in J_t; r + s = 1."""
    header, rows = _rows(path)
    bad = []
    if header != ["t", "I_t", "M_t", "J_t", "r", "s", "running_r", "running_s"]:
        bad.append(f"unexpected header {header}")
    for k, row in enumerate(rows):
        if bad:
            break
        t, i, m = int(row[0]), int(row[1]), int(row[2])
        scanned = [int(j) for j in row[3].split(";")] if row[3] else []
        r, s = float(row[4]), float(row[5])
        if t != k + 1:
            bad.append(f"row {k + 1}: t={t}")
        elif not a <= m <= b or len(set(scanned)) != m:
            bad.append(f"t={t}: M_t={m}, |J_t|={len(set(scanned))}")
        elif (r == 0.0) != (i in scanned):
            bad.append(f"t={t}: r={r} with I_t={i}, J_t={scanned}")
        elif r + s != 1.0:
            bad.append(f"t={t}: r + s = {r + s}")
    return _result(f"trace_rows:{os.path.basename(path)}", bad), rows


def _tail_means(traces, tail):
    att = np.mean([np.mean([float(r[4]) for r in rows[-tail:]]) for rows in traces])
    dfd = np.mean([np.mean([float(r[5]) for r in rows[-tail:]]) for rows in traces])
    return float(att), float(dfd)


def check_game(out_dir, cfg):
    """Trace rows of every replica, then the tail means against theory."""
    n, horizon, replicas = cfg["n"], cfg["horizon"], cfg["replicas"]
    a, b = _scaling_bounds(cfg)
    results, traces = [], []
    for idx in range(replicas):
        res, rows = check_game_trace(os.path.join(out_dir, f"trace_{idx:03d}.csv"), a, b)
        results.append(res)
        results.append(
            _result(f"trace_len:{idx:03d}", [] if len(rows) == horizon else [f"{len(rows)} rows"])
        )
        traces.append(rows)
    tail = max(1, int(cfg["tail_fraction"] * horizon))
    att, dfd = _tail_means(traces, tail)
    if cfg["attacker"] == "exp3":
        nu = cfg["scaling"]["mean"]  # symmetric truncation keeps the mean
        want_d, want_a = nu / n, (n - nu) / n
        off = max(abs(att - want_a), abs(dfd - want_d))
        results.append(
            _result(
                "equilibrium",
                [] if off <= EQUILIBRIUM_TOL else [f"tail ({dfd:.4f}, {att:.4f}) vs ({want_d}, {want_a})"],
                f"tail ({dfd:.4f}, {att:.4f})",
            )
        )
    else:
        lo, hi = (n - b) / n, (n - a) / n
        ok = lo - THEOREM2_TOL <= att <= hi + THEOREM2_TOL
        results.append(
            _result("theorem2", [] if ok else [f"greedy tail {att:.4f} outside ({lo}, {hi})"],
                    f"greedy tail {att:.4f}")
        )
    return results


def check_weights(path, a, b, horizon):
    """Every row of marginals lies in [0, 1] and sums to its M_t."""
    header, rows = _rows(path)
    bad = [] if len(rows) == horizon else [f"{len(rows)} rows, expected {horizon}"]
    for row in rows:
        if bad:
            break
        m = int(row[1])
        w = np.array(row[2:], dtype=float)
        if not a <= m <= b:
            bad.append(f"t={row[0]}: M_t={m}")
        elif np.any(w < 0.0) or np.any(w > 1.0):
            bad.append(f"t={row[0]}: marginal outside [0, 1]")
        elif abs(w.sum() - m) > WEIGHT_SUM_TOL:
            bad.append(f"t={row[0]}: marginals sum to {w.sum()!r}, M_t={m}")
    return _result("weights_rows", bad)


def check_regret(path, horizon):
    """Mean regret stays at or below the Theorem 1 bound on every row."""
    header, rows = _rows(path)
    if len(rows) != horizon:
        return _result("regret_vs_bound", [f"{len(rows)} rows, expected {horizon}"])
    data = np.array(rows, dtype=float)
    over = np.flatnonzero(data[:, 1] > data[:, 3])
    if over.size:
        t = over[0]
        return _result(
            "regret_vs_bound",
            [
                f"{over.size} of {horizon} rows over the bound, first t={int(data[t, 0])}; "
                f"final regret {data[-1, 1]:.1f} vs bound {data[-1, 3]:.1f}"
            ],
        )
    return _result("regret_vs_bound", [])


def check_single(out_dir, cfg):
    a, b = _scaling_bounds(cfg)
    horizon = cfg["horizon"]
    return [
        check_weights(os.path.join(out_dir, "weights.csv"), a, b, horizon),
        check_regret(os.path.join(out_dir, "curves.csv"), horizon),
    ]


def check_trace_csv(path, truth):
    """The ingested indicator matrix equals the generator's ground truth."""
    header, rows = _rows(path)
    n_arms = len(truth["labels"])
    want = truth["indicators"]
    if header != ["round"] + [f"arm_{i}" for i in range(n_arms)]:
        return _result("ingest_trace", [f"unexpected header {header[:4]}..."])
    got = np.array(rows, dtype=int)
    if got.shape != (want.shape[0], want.shape[1] + 1):
        return _result("ingest_trace", [f"shape {got.shape}, expected {want.shape} plus round"])
    if np.any(got[:, 0] != np.arange(want.shape[0])):
        return _result("ingest_trace", ["round column is not 0..T-1"])
    diff = np.argwhere(got[:, 1:] != want)
    if diff.size:
        t, k = diff[0]
        return _result("ingest_trace", [f"{len(diff)} cells differ, first round {t} arm {k}"])
    return _result("ingest_trace", [])


def check_trace_meta(path, truth):
    with open(path) as f:
        meta = dict(line.rstrip("\n").split("=", 1) for line in f)
    bad = []
    if meta.get("arm_labels") != ";".join(truth["labels"]):
        bad.append("arm_labels differ from the sorted identities")
    if meta.get("rounds") != str(truth["n_rounds"]):
        bad.append(f"rounds={meta.get('rounds')}, expected {truth['n_rounds']}")
    return _result("ingest_meta", bad)


def check_compare(path, cfg, n_rounds):
    """Five curves, one row per round, each inside [0, plays per round]."""
    header, rows = _rows(path)
    names = ["epsilon_greedy", "exp3", "exp3m", "exp3mvp", "ucb1"]
    if header != ["t"] + names:
        return _result("compare_curves", [f"unexpected header {header}"])
    data = np.array(rows, dtype=float)
    if data.shape != (n_rounds, 6):
        return _result("compare_curves", [f"shape {data.shape}, expected ({n_rounds}, 6)"])
    # multi-play learners score the sum over their scan set
    plays = {"exp3m": 3, "exp3mvp": cfg["scaling"]["b"]}
    bad = []
    for k, name in enumerate(names, start=1):
        col = data[:, k]
        if np.any(col < 0.0) or np.any(col > plays.get(name, 1)):
            bad.append(f"{name} leaves [0, {plays.get(name, 1)}]")
    return _result("compare_curves", bad)


def check_common(out_dir):
    """manifest.json parses and summary.txt is key=value lines."""
    bad = []
    try:
        with open(os.path.join(out_dir, "manifest.json")) as f:
            json.load(f)
        with open(os.path.join(out_dir, "summary.txt")) as f:
            if not all("=" in line for line in f):
                bad.append("summary.txt has a line without '='")
    except (OSError, ValueError) as exc:
        bad.append(str(exc))
    return _result(f"manifest_summary:{os.path.basename(out_dir)}", bad)


def check_outputs(out_dirs, expect):
    """All checks for one workload; ``out_dirs`` maps command name to its directory."""
    results = [check_common(d) for d in out_dirs.values()]
    try:
        if "game" in out_dirs:
            results += check_game(out_dirs["game"], expect["game"])
        if "single" in out_dirs:
            results += check_single(out_dirs["single"], expect["single"])
        if "ingest" in out_dirs:
            truth = expect["truth"]
            results.append(check_trace_csv(os.path.join(out_dirs["ingest"], "trace.csv"), truth))
            results.append(check_trace_meta(os.path.join(out_dirs["ingest"], "trace.meta"), truth))
            results.append(
                check_compare(
                    os.path.join(out_dirs["compare"], "compare.csv"),
                    expect["compare"],
                    truth["n_rounds"],
                )
            )
    except (OSError, ValueError, IndexError, KeyError) as exc:
        results.append(("outputs_readable", False, f"{type(exc).__name__}: {exc}"))
    return results
