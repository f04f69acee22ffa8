"""Seeded inputs for every workload: CLI configs and the CAN log.

Everything here is a pure function of the benchmark seed, so the same seed
always yields byte-identical inputs.  The program under test only ever sees
the files written by ``write_inputs``; the ground truth kept alongside (the
per-round, per-identity injected-frame matrix) is the ingest oracle.
"""

import json
import os

import numpy as np

WORKLOADS = ("game-n10", "game-n1000", "regret-harmonic", "can-trace")

TRUNC_GAUSS_1_3 = {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8}

ROUND_WINDOW_US = 250_000  # the CLI's default 0.25 s round window
BASE_TIME_US = 1_478_198_376_000_000  # epoch-style timestamps, as in car-hacking logs
# Frames this close to a round boundary are nudged off it: the program buckets
# parsed floats, whose representation error (~0.1 us at this epoch) must not
# decide the round.
BOUNDARY_MARGIN_US = 3

# Sizes: "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {
        "game-n10": {"horizon": 5000, "replicas": 2},
        "game-n1000": {"horizon": 150, "replicas": 2},
        "regret-harmonic": {"horizon": 8000, "replicas": 2},
        "can-trace": {"duration_s": 150},
    },
    "tiny": {
        "game-n10": {"horizon": 300, "replicas": 2},
        "game-n1000": {"horizon": 10, "replicas": 2},
        "regret-harmonic": {"horizon": 300, "replicas": 2},
        "can-trace": {"duration_s": 12},
    },
}


def _game_config(seed, n, horizon, replicas, attacker):
    return {
        "schema_version": 1,
        "kind": "game",
        "seed": seed,
        "n": n,
        "horizon": horizon,
        "scaling": dict(TRUNC_GAUSS_1_3),
        "attacker": attacker,
        "replicas": replicas,
        "tail_fraction": 0.5,
    }


def _regret_config(seed, horizon, replicas):
    # eta is left out on purpose: the CLI's horizon-tuned default is measured.
    return {
        "schema_version": 1,
        "kind": "single_player",
        "seed": seed,
        "environment": {"type": "harmonic_bernoulli", "n_arms": 10},
        "scaling": dict(TRUNC_GAUSS_1_3),
        "horizon": horizon,
        "replicas": replicas,
        "record_weights": True,
    }


def can_log(seed, duration_s):
    """A ``Timestamp,CAN_ID,Flag`` log and its ground truth.

    26 identities send periodic frames (about 940 frames/s in total) with
    +-0.2 ms jitter; three identities also get injected bursts of 3-5 s
    (flag ``T``) at one frame per 5-10 ms.  Returns ``(text, truth)`` where
    ``truth`` holds the sorted labels, the round count and the (rounds,
    identities) injected indicator matrix.
    """
    rng = np.random.default_rng([seed, 0xCA])
    duration_us = int(duration_s * 1_000_000)
    ids = [f"{v:04x}" for v in rng.choice(0x800, size=26, replace=False)]
    periods_ms = [10] * 4 + [20] * 6 + [50] * 8 + [100] * 8
    times, idents, flags = [], [], []
    for k, period_ms in enumerate(periods_ms):
        period = period_ms * 1000
        t = np.arange(int(rng.integers(period)), duration_us, period)
        t = t + rng.integers(-200, 201, size=t.size)
        times.append(t)
        idents.append(np.full(t.size, k))
        flags.append(np.zeros(t.size, dtype=bool))
    for k in rng.choice(len(ids), size=3, replace=False):
        for start in np.sort(rng.uniform(0, duration_us, size=max(1, duration_s // 30))):
            length = rng.uniform(3e6, 5e6)
            step = int(rng.integers(5000, 10001))
            t = np.arange(int(start), int(min(start + length, duration_us)), step)
            times.append(t)
            idents.append(np.full(t.size, int(k)))
            flags.append(np.ones(t.size, dtype=bool))
    t = np.concatenate(times)
    ident = np.concatenate(idents)
    flag = np.concatenate(flags)
    order = np.argsort(t, kind="stable")
    t, ident, flag = t[order] - t[order][0], ident[order], flag[order]
    # t[0] == 0 is the first round's origin; keep every later frame off a boundary
    phase = t % ROUND_WINDOW_US
    near = (t > 0) & ((phase < BOUNDARY_MARGIN_US) | (phase > ROUND_WINDOW_US - BOUNDARY_MARGIN_US))
    t = np.where(near & (phase < BOUNDARY_MARGIN_US), t + BOUNDARY_MARGIN_US, t)
    t = np.where(near & (phase >= BOUNDARY_MARGIN_US), t - BOUNDARY_MARGIN_US, t)

    labels = sorted(ids)
    col = np.array([labels.index(s) for s in ids])
    n_rounds = int(t.max()) // ROUND_WINDOW_US + 1
    truth = np.zeros((n_rounds, len(labels)), dtype=np.int8)
    truth[t[flag] // ROUND_WINDOW_US, col[ident[flag]]] = 1

    stamp = t + BASE_TIME_US
    lines = ["Timestamp,CAN_ID,Flag"]
    lines += [
        f"{s // 1_000_000}.{s % 1_000_000:06d},{ids[i]},{'T' if f else 'R'}"
        for s, i, f in zip(stamp.tolist(), ident.tolist(), flag.tolist())
    ]
    return "\n".join(lines) + "\n", {"labels": labels, "n_rounds": n_rounds, "indicators": truth}


def write_inputs(workload, seed, work_dir, size="full"):
    """Write the workload's configs (and log) into ``work_dir``.

    Returns ``(commands, expect)``: ``commands`` is a list of
    ``(name, subcommand, config_path)`` run in order each iteration, and
    ``expect`` is what the output checks compare against.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    p = SIZES[size][workload]
    configs = {}
    expect = {}
    if workload == "game-n10":
        configs["game"] = ("simulate-game", _game_config(seed, 10, p["horizon"], p["replicas"], "exp3"))
    elif workload == "game-n1000":
        configs["game"] = ("simulate-game", _game_config(seed, 1000, p["horizon"], p["replicas"], "greedy"))
    elif workload == "regret-harmonic":
        configs["single"] = ("simulate-single", _regret_config(seed, p["horizon"], p["replicas"]))
    else:
        text, truth = can_log(seed, p["duration_s"])
        log_path = os.path.join(work_dir, "can_log.csv")
        with open(log_path, "w") as f:
            f.write(text)
        expect["truth"] = truth
        configs["ingest"] = (
            "ingest",
            {"schema_version": 1, "kind": "ingest", "seed": seed, "path": log_path},
        )
        configs["compare"] = (
            "compare",
            {
                "schema_version": 1,
                "kind": "compare",
                "seed": seed,
                "environment": {"type": "trace_csv", "path": log_path},
                "scaling": {"kind": "budget_threshold", "a": 1, "b": 3, "threshold": 0.1},
            },
        )
    commands = []
    for name, (sub, cfg) in configs.items():
        path = os.path.join(work_dir, f"{name}.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
        commands.append((name, sub, path))
        expect[name] = cfg
    return commands, expect
