"""Config-driven experiment runner.

Every run takes a JSON config (schema version 1), resolves all defaults,
and writes into the output directory, in this order:

* plot-ready CSV curves depending on the experiment kind, written by the
  kind's runner through ``environments.write_csv`` (``ingest`` writes
  ``trace.csv`` and ``trace.meta`` through ``IntrusionTrace.save``)
* ``summary.txt`` — final metrics and applicable theoretical values, one
  ``key=value`` per line (``environments.write_pairs``)
* ``manifest.json`` — the config with every default filled in and no other
  key; fed back to the same subcommand, it reproduces the run byte for byte.
  A log ``path`` (``ingest``, the ``trace_csv`` environment) is kept as
  given, so a relative one reproduces the run only from the first run's
  working directory

``run_experiment`` writes the last two once the runner has returned, so a
directory holds a manifest only for a run that finished.

The key tables below are the whole config schema: one per experiment kind,
scaling kind and environment type, each mapping a key to its default and
type.  Unknown keys, keys that the section's kind does not use, missing keys
and values of the wrong type are rejected (exit status 1) before any output
is written.  A game's ``attacker_eta`` belongs to the exp3 attacker and its
``scan_discount`` to the greedy one; ``GameConfig`` rejects the other
kind's key, and the failed run removes its output directory.  The seed is
mandatory (no wall-clock defaults); ``--seed`` and the ``BANDIT_SEED``
environment variable override the config value, in that order of
increasing precedence.
"""

import argparse
import json
import math
import os
import shutil
import sys
from itertools import islice

import numpy as np

from . import analysis
from .environments import (
    BernoulliEnv,
    CAR_HACKING_COLUMNS,
    DEFAULT_ROUND_WINDOW,
    IntrusionTrace,
    PayoffProfile,
    ingest_can_log,
    synthesize_intrusion_trace,
    write_csv,
    write_pairs,
)
from .errors import InvalidConfigError, VPBanditError
from .game import (
    ATTACKER_KEYS,
    GameConfig,
    SinglePlayerSpec,
    run_comparison,
    run_game_replicas,
    run_single_player,  # noqa: F401 -- perfbench/tracing.py wraps this name
)
from .scaling import ScalingSpec

SCHEMA_VERSION = 1


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _scan_sets(scanned, counts):
    """The ``J_t`` column: each round's ``counts[t]`` scanned arms joined by ``;``."""
    text = map(str, scanned.tolist())
    return [";".join(islice(text, k)) for k in counts.tolist()]


# ---------------------------------------------------------------------------
# config schema: key -> (default, check)
#
# A default is a value, REQUIRED, or OMIT (the key stays out of the resolved
# section when absent).  A check takes (value, where) and returns the
# resolved value or raises InvalidConfigError; given values pass through
# unchanged, except nested sections, which are resolved in turn.

REQUIRED = object()
OMIT = object()


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_seed(v):
    return _is_int(v) and v >= 0


def _is_count(v):
    return _is_int(v) and v >= 1


def _list_of(ok, size=None):
    return lambda v: isinstance(v, list) and all(map(ok, v)) and size in (None, len(v))


def _type(desc, ok):
    def check(value, where):
        if not ok(value):
            raise InvalidConfigError(f"{where} must be {desc}, got {value!r}")
        return value

    return check


def _object(value, where):
    if not isinstance(value, dict):
        raise InvalidConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def resolve(section, table, where):
    """Check ``section`` against ``table`` and fill its defaults."""
    unknown = set(_object(section, where)) - set(table)
    if unknown:
        raise InvalidConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [k for k, (default, _) in table.items() if default is REQUIRED and k not in section]
    if missing:
        raise InvalidConfigError(f"missing key(s) in {where}: {missing}")
    out = {}
    for key, (default, check) in table.items():
        if key in section:
            out[key] = check(section[key], f"{where}.{key}")
        elif default is not OMIT:
            out[key] = default
    return out


def _nested(table):
    return lambda section, where: resolve(section, table, where)


def _tagged(tag, tables):
    """A section whose ``tag`` key picks its table."""

    def check(section, where):
        name = _object(section, where).get(tag)
        if not isinstance(name, str) or name not in tables:
            raise InvalidConfigError(f"{where}.{tag} must be one of {list(tables)}, got {name!r}")
        return resolve(section, tables[name], where)

    return check


INT = _type("an integer", _is_int)
COUNT = _type("an integer >= 1", _is_count)
NUM = _type("a finite number", _is_num)
NUMS = _type("a list of finite numbers", _list_of(_is_num))
BOOL = _type("true or false", lambda v: isinstance(v, bool))
STR = _type("a string", lambda v: isinstance(v, str))
PATH = _type("a file path", lambda v: isinstance(v, str) and "\0" not in v)
FRACTION = _type("a number in (0, 1]", lambda v: _is_num(v) and 0 < v <= 1)
ETA = _type('a finite number or "corollary_1_1"', lambda v: v == "corollary_1_1" or _is_num(v))

SEED = _type("a nonnegative integer", _is_seed)
SCHEMA = _type(str(SCHEMA_VERSION), lambda v: _is_int(v) and v == SCHEMA_VERSION)
COMMON = {"schema_version": (REQUIRED, SCHEMA), "kind": (REQUIRED, STR), "seed": (REQUIRED, SEED)}

_RANGE = {"kind": (REQUIRED, STR), "a": (REQUIRED, INT), "b": (REQUIRED, INT)}
# ScalingSpec fills m and threshold; the manifest reads them back from the spec
SCALINGS = {
    "constant": {**_RANGE, "m": (OMIT, INT)},
    "uniform_discrete": _RANGE,
    "truncated_gaussian": {**_RANGE, "mean": (REQUIRED, NUM), "std": (REQUIRED, NUM)},
    "budget_threshold": {**_RANGE, "threshold": (OMIT, NUM)},
}

_COLUMNS = _nested({k: (v, STR) for k, v in CAR_HACKING_COLUMNS.items()})
_CAN_LOG = {
    "path": (REQUIRED, PATH),
    "column_map": (CAR_HACKING_COLUMNS, _COLUMNS),
    "round_window": (DEFAULT_ROUND_WINDOW, NUM),
}
_is_ints = _list_of(_is_int)
# keys are the keyword arguments of the environment's constructor
ENVIRONMENTS = {
    "bernoulli": {"type": (REQUIRED, STR), "means": (REQUIRED, NUMS)},
    "harmonic_bernoulli": {"type": (REQUIRED, STR), "n_arms": (REQUIRED, INT), "top": (0.75, NUM)},
    "synthetic_trace": {
        "type": (REQUIRED, STR),
        "n_arms": (REQUIRED, INT),
        "attacked": (REQUIRED, _type("a list of integers", _is_ints)),
        "horizon": (REQUIRED, COUNT),
        "burst_length_range": ((3.0, 5.0), _type("two finite numbers", _list_of(_is_num, 2))),
        "round_window": (DEFAULT_ROUND_WINDOW, NUM),
        "n_bursts": (
            300,
            _type("an integer >= 1 or a list of integers", lambda v: _is_count(v) or _is_ints(v)),
        ),
    },
    "trace_csv": {"type": (REQUIRED, STR), **_CAN_LOG},
}

_SCALING = _tagged("kind", SCALINGS)
_ENVIRONMENT = _tagged("type", ENVIRONMENTS)
_COMPARE_SCALING = {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8}
_NMAB = {"n": (REQUIRED, INT), "a": (REQUIRED, INT), "b": (REQUIRED, INT)}

CONFIGS = {
    "bounds": {
        **COMMON,
        **_NMAB,
        "nu": (OMIT, NUM),
        "horizon": (OMIT, INT),
        "eta": (OMIT, NUM),
        "gmax": (OMIT, NUM),
    },
    "single_player": {
        **COMMON,
        "environment": (REQUIRED, _ENVIRONMENT),
        "scaling": (REQUIRED, _SCALING),
        "eta": ("corollary_1_1", ETA),
        "horizon": (None, COUNT),  # None: the trace length
        "replicas": (1, INT),
        "record_weights": (False, BOOL),
    },
    "compare": {
        **COMMON,
        "environment": (REQUIRED, _ENVIRONMENT),
        "scaling": (_COMPARE_SCALING, _SCALING),
        "epsilon": (0.1, NUM),
        "fixed_m": (3, INT),
    },
    "game": {
        **COMMON,
        "n": (REQUIRED, INT),
        "horizon": (REQUIRED, INT),
        "scaling": (REQUIRED, _SCALING),
        "attacker": ("exp3", STR),
        "defender_eta": (None, NUM),
        "attacker_eta": (OMIT, NUM),  # exp3 only
        "payoff": (OMIT, NUMS),
        "scan_discount": (OMIT, FRACTION),  # greedy only
        "replicas": (1, INT),
        "tail_fraction": (0.2, FRACTION),
    },
    "ingest": {**COMMON, **_CAN_LOG},
    "sweep": {
        **COMMON,
        **_NMAB,
        "mu_min": (0.05, NUM),
        "mu_max": (1.0, NUM),
        "steps": (100, COUNT),
    },
}
resolve_config = _tagged("kind", CONFIGS)


def _scaling_manifest(spec):
    return {k: getattr(spec, k) for k in SCALINGS[spec.kind]}


def _environment(section, seed_seq):
    """Build the environment of a resolved ``environment`` section."""
    kwargs = {k: v for k, v in section.items() if k != "type"}
    env_type = section["type"]
    if env_type == "bernoulli":
        return BernoulliEnv(**kwargs)
    if env_type == "harmonic_bernoulli":
        return BernoulliEnv.harmonic(**kwargs)
    if env_type == "synthetic_trace":
        return synthesize_intrusion_trace(**kwargs, rng=np.random.default_rng(seed_seq))
    return ingest_can_log(**kwargs)


# ---------------------------------------------------------------------------
# experiment kinds; each takes its resolved config, the output directory and
# the replica worker count, writes its CSVs and returns (manifest, summary items)


def _equilibrium_items(payoff, law):
    """Game-value summary lines; the defender's, mu_1 nu / N, for equal payoffs only."""
    mu = payoff.mu
    equal = mu.min() == mu.max()
    items = [("equilibrium_defender", mu[0] * law[2] / mu.size)] if equal else []
    return items + [("equilibrium_attacker", analysis.attacker_value(payoff, law)[0])]


def _run_bounds(cfg, out_dir, workers):
    n, a, b = cfg["n"], cfg["a"], cfg["b"]
    analysis.check_nab(n, a, b)
    if ("eta" in cfg) != ("gmax" in cfg):
        given, missing = ("eta", "gmax") if "eta" in cfg else ("gmax", "eta")
        raise InvalidConfigError(f"{given} needs {missing}: theorem1_bound takes both")
    flat = PayoffProfile.homogeneous(n)
    lo, hi = (analysis.attacker_value(flat, ((c,), (1.0,), c))[0] for c in (b, a))
    items = [("theorem2_lower", lo), ("theorem2_upper", hi)]
    if "nu" in cfg:
        items += _equilibrium_items(flat, ((cfg["nu"],), (1.0,), cfg["nu"]))
    if "horizon" in cfg:
        eta, ceiling = analysis.corollary11_eta(n, a, b, cfg["horizon"])
        items += [("tuned_eta", eta), ("regret_ceiling", ceiling)]
    if "eta" in cfg:
        items.append(("theorem1_bound", analysis.theorem1_bound(cfg["gmax"], n, a, b, cfg["eta"])))
    return cfg, items


def _run_single_player(cfg, out_dir, workers):
    env_ss, run_ss = np.random.SeedSequence(cfg["seed"]).spawn(2)
    env = _environment(cfg["environment"], env_ss)
    scaling = ScalingSpec(**cfg["scaling"])
    spec = SinglePlayerSpec(env, scaling, eta=cfg["eta"], horizon=cfg["horizon"])
    # positional: the benchmark's entry span counts spec.horizon * replicas
    report = analysis.pseudo_regret(
        spec, cfg["replicas"], np.random.default_rng(run_ss),
        workers=workers, record_weights=cfg["record_weights"],
    )
    t = np.arange(1, spec.horizon + 1)
    header = ["t", "regret_mean", "regret_stderr", "bound"]
    columns = [t, report.regret_mean, report.regret_stderr, report.bound]
    write_csv(os.path.join(out_dir, "curves.csv"), header, columns)
    if cfg["record_weights"]:
        # replica 0's marginal trajectories (rows sum to M_t)
        header = ["t", "m"] + [f"w_{i + 1}_norm" for i in range(spec.n_arms)]
        columns = [t, report.play_counts, *report.marginals.T]
        write_csv(os.path.join(out_dir, "weights.csv"), header, columns)
    manifest = {**cfg, "scaling": _scaling_manifest(scaling), "horizon": spec.horizon}
    return manifest, [
        ("final_regret_mean", report.regret_mean[-1]),
        ("final_regret_stderr", report.regret_stderr[-1]),
        ("final_bound", report.bound[-1]),
        ("final_gmax_mean", report.gmax_mean[-1]),
        ("final_reward_mean", report.reward_mean[-1]),
        ("eta", spec.eta),
        ("replicas", cfg["replicas"]),
    ]


def _run_compare(cfg, out_dir, workers):
    env_ss, run_ss = np.random.SeedSequence(cfg["seed"]).spawn(2)
    env = _environment(cfg["environment"], env_ss)
    if not isinstance(env, IntrusionTrace):
        raise InvalidConfigError("compare needs a trace environment")
    scaling = ScalingSpec(**cfg["scaling"])
    curves = run_comparison(
        env, np.random.default_rng(run_ss), epsilon=cfg["epsilon"], vp_scaling=scaling,
        fixed_m=cfg["fixed_m"],
    )
    names = sorted(curves)
    columns = [np.arange(1, env.n_rounds + 1)] + [curves[name] for name in names]
    write_csv(os.path.join(out_dir, "compare.csv"), ["t"] + names, columns)
    manifest = {**cfg, "scaling": _scaling_manifest(scaling)}
    return manifest, [(f"final_{name}", curves[name][-1]) for name in names]


def _run_game(cfg, out_dir, workers):
    scaling = ScalingSpec(**cfg["scaling"])
    payoff = PayoffProfile(mu=np.asarray(cfg["payoff"], dtype=float)) if "payoff" in cfg else None
    config = GameConfig(
        n_arms=cfg["n"], horizon=cfg["horizon"], scaling=scaling, attacker_kind=cfg["attacker"],
        defender_eta=cfg["defender_eta"], attacker_eta=cfg.get("attacker_eta"), payoff=payoff,
        scan_discount=cfg.get("scan_discount"), seed=cfg["seed"],
    )
    traces = run_game_replicas(config, cfg["replicas"], workers=workers)
    t = np.arange(1, config.horizon + 1)
    averages = [trace.running_averages() for trace in traces]  # (running_r, running_s)
    header = ["t", "I_t", "M_t", "J_t", "r", "s", "running_r", "running_s"]
    for idx, (trace, running) in enumerate(zip(traces, averages)):
        scan_sets = _scan_sets(trace.scanned, trace.play_counts)
        columns = [t, trace.attacker_arm, trace.play_counts, scan_sets, trace.attacker_reward,
                   trace.defender_reward, *running]
        write_csv(os.path.join(out_dir, f"trace_{idx:03d}.csv"), header, columns)
    columns = [t, *np.mean(averages, axis=0)]
    write_csv(os.path.join(out_dir, "curves.csv"), ["t", "attacker_mean", "defender_mean"], columns)
    tail = max(1, int(cfg["tail_fraction"] * config.horizon))
    att_tail = float(np.mean([tr.attacker_reward[-tail:].mean() for tr in traces]))
    def_tail = float(np.mean([tr.defender_reward[-tail:].mean() for tr in traces]))
    items = [("attacker_tail_mean", att_tail), ("defender_tail_mean", def_tail),
             ("tail_rounds", tail), *_equilibrium_items(config.payoff, scaling.law())]
    own = ATTACKER_KEYS[config.attacker_kind]
    manifest = {**cfg, "scaling": _scaling_manifest(scaling), "defender_eta": config.defender_eta,
                own: getattr(config, own), "payoff": list(map(float, config.payoff.mu))}
    return manifest, items


def _run_ingest(cfg, out_dir, workers):
    trace = ingest_can_log(**{k: cfg[k] for k in _CAN_LOG})
    trace.save(os.path.join(out_dir, "trace.csv"), os.path.join(out_dir, "trace.meta"))
    density = trace.attack_density()
    return cfg, [
        ("arms", trace.n_arms),
        ("rounds", trace.n_rounds),
        ("attack_density_mean", float(density.mean())),
        ("attacked_arms", int(np.count_nonzero(density))),
    ]


def _run_sweep(cfg, out_dir, workers):
    n, a, b, steps = cfg["n"], cfg["a"], cfg["b"], cfg["steps"]
    analysis.check_nab(n, a, b)  # before n sizes any payoff profile
    mus = np.linspace(cfg["mu_min"], cfg["mu_max"], steps)
    profiles = (PayoffProfile.homogeneous(n, mu) for mu in mus)
    values = [[analysis.attacker_value(p, ((c,), (1.0,), c))[0] for c in (b, a)] for p in profiles]
    lower, upper = np.array(values).T
    write_csv(os.path.join(out_dir, "sweep.csv"), ["mu", "lower", "upper"], [mus, lower, upper])
    return cfg, [("points", steps)]


# ---------------------------------------------------------------------------
# entry point


_RUNNERS = {
    "bounds": _run_bounds,
    "single_player": _run_single_player,
    "compare": _run_compare,
    "game": _run_game,
    "ingest": _run_ingest,
    "sweep": _run_sweep,
}


def run_experiment(cfg, out_dir, workers=1):
    """Resolve a config dict, dispatch, and write all outputs.

    The whole config is resolved before the output directory is made.  The
    kind's runner writes its CSVs and returns the manifest and the summary
    items; then ``summary.txt`` is written and ``manifest.json`` last, so a
    manifest marks a finished run.  A run that fails after the directory is
    made removes the directories it made, so it leaves no output directory;
    in a directory that existed it leaves what it wrote before the failure,
    never a manifest.
    """
    cfg = resolve_config(cfg, "config")
    made = _first_missing(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        manifest, items = _RUNNERS[cfg["kind"]](cfg, out_dir, workers)
        write_pairs(os.path.join(out_dir, "summary.txt"), items, _fmt)
        with open(os.path.join(out_dir, "manifest.json"), "w", newline="") as f:
            f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    return 0


def _first_missing(path):
    """The outermost directory that ``os.makedirs(path)`` would create."""
    path, missing = os.path.abspath(path), None
    while not os.path.exists(path):
        path, missing = os.path.dirname(path), path
    return missing


_SUBCOMMAND_KIND = {
    "bounds": "bounds",
    "simulate-single": "single_player",
    "simulate-game": "game",
    "compare": "compare",
    "ingest": "ingest",
    "sweep": "sweep",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vpbandit",
        description="Variable-play adversarial bandit experiments and bound calculators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMAND_KIND.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if "replicas" in CONFIGS[kind]:
            p.add_argument("--replicas", type=int, default=None, help="override replica count")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel replica workers")
    return parser


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        return _usage_error(f"--workers must be >= 1, got {args.workers}")
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except OSError as exc:
        return _usage_error(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        return _usage_error(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        return _usage_error(f"config must be a JSON object, got {type(cfg).__name__}")
    expected_kind = _SUBCOMMAND_KIND[args.command]
    if cfg.setdefault("kind", expected_kind) != expected_kind:
        return _usage_error(
            f"config kind {cfg['kind']!r} does not match subcommand {args.command!r}"
        )
    if args.seed is not None:
        cfg["seed"] = args.seed
    env_seed = os.environ.get("BANDIT_SEED")
    if env_seed:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            return _usage_error(f"BANDIT_SEED must be an integer, got {env_seed!r}")
    if not _is_seed(cfg.get("seed", 0)):  # a missing seed is reported by run_experiment
        return _usage_error(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    if getattr(args, "replicas", None) is not None:
        cfg["replicas"] = args.replicas
    try:
        return run_experiment(cfg, args.out, workers=args.workers)
    except (VPBanditError, OSError, MemoryError) as exc:  # numpy's MemoryError names its array
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
