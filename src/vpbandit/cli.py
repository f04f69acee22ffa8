"""Config-driven experiment runner.

Every run takes a JSON config (schema version 1), resolves all defaults,
and writes into the output directory:

* ``manifest.json`` — the fully resolved config, enough to reproduce the run
* ``summary.txt`` — final metrics and applicable theoretical values, one
  ``key=value`` per line
* plot-ready CSV curves depending on the experiment kind

Unknown config keys are rejected.  The seed is mandatory (no wall-clock
defaults); ``--seed`` and the ``BANDIT_SEED`` environment variable override
the config value, in that order of increasing precedence.
"""

import argparse
import json
import os
import sys

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
)
from .errors import InvalidConfigError, VPBanditError
from .game import (
    DEFAULT_IOTA,
    DEFAULT_SCAN_DISCOUNT,
    ETA_CLAMP,
    GameConfig,
    SinglePlayerSpec,
    run_comparison,
    run_game_replicas,
    run_single_player,
)
from .scaling import ScalingSpec

SCHEMA_VERSION = 1
KINDS = ("bounds", "single_player", "compare", "game", "ingest", "sweep")


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header, rows):
    """Comma-separated with a header row; floats at 17 significant digits."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def emit_plot_data(report, path):
    """Write a regret report as t,regret_mean,regret_stderr,bound."""
    rows = zip(
        range(1, report.regret_mean.size + 1),
        report.regret_mean,
        report.regret_stderr,
        report.bound,
    )
    write_csv(path, ["t", "regret_mean", "regret_stderr", "bound"], rows)


def _write_summary(path, items):
    with open(path, "w") as f:
        for k, v in items:
            f.write(f"{k}={_fmt(v)}\n")


def _write_manifest(out_dir, resolved):
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)
        f.write("\n")


def _check_keys(section, allowed, required, where):
    unknown = set(section) - set(allowed)
    if unknown:
        raise InvalidConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise InvalidConfigError(f"missing key(s) in {where}: {sorted(missing)}")


# ---------------------------------------------------------------------------
# config sections


def _scaling_from_config(section):
    _check_keys(
        section,
        ("kind", "a", "b", "m", "mean", "std", "threshold"),
        ("kind", "a", "b"),
        "scaling",
    )
    return ScalingSpec(**section)


def _scaling_resolved(spec):
    out = {"kind": spec.kind, "a": spec.a, "b": spec.b}
    if spec.kind == "constant":
        out["m"] = spec.m
    if spec.kind == "truncated_gaussian":
        out["mean"] = spec.mean
        out["std"] = spec.std
    if spec.kind == "budget_threshold":
        out["threshold"] = spec.threshold
    return out


def _scaling_mean(spec):
    """Stationary mean of the play count, when one is defined."""
    if spec.kind == "constant":
        return float(spec.m)
    if spec.kind == "uniform_discrete":
        return 0.5 * (spec.a + spec.b)
    if spec.kind == "truncated_gaussian":
        if abs((spec.mean - spec.a) - (spec.b - spec.mean)) < 1e-12:
            return float(spec.mean)  # symmetric interval keeps the mean
    return None


def _environment_from_config(section, seed_seq):
    env_type = section.get("type")
    if env_type == "bernoulli":
        _check_keys(section, ("type", "means"), ("type", "means"), "environment")
        return BernoulliEnv(means=section["means"]), dict(section)
    if env_type == "harmonic_bernoulli":
        _check_keys(section, ("type", "n_arms", "top"), ("type", "n_arms"), "environment")
        top = section.get("top", 0.75)
        env = BernoulliEnv.harmonic(section["n_arms"], top)
        return env, {"type": env_type, "n_arms": section["n_arms"], "top": top}
    if env_type == "synthetic_trace":
        allowed = (
            "type",
            "n_arms",
            "attacked",
            "horizon",
            "burst_length_range",
            "round_window",
            "n_bursts",
        )
        _check_keys(section, allowed, ("type", "n_arms", "attacked", "horizon"), "environment")
        resolved = {
            "type": env_type,
            "n_arms": section["n_arms"],
            "attacked": list(section["attacked"]),
            "horizon": section["horizon"],
            "burst_length_range": list(section.get("burst_length_range", [3.0, 5.0])),
            "round_window": section.get("round_window", DEFAULT_ROUND_WINDOW),
            "n_bursts": section.get("n_bursts", 300),
        }
        env = synthesize_intrusion_trace(
            n_arms=resolved["n_arms"],
            attacked=resolved["attacked"],
            horizon=resolved["horizon"],
            burst_length_range=tuple(resolved["burst_length_range"]),
            round_window=resolved["round_window"],
            n_bursts=resolved["n_bursts"],
            rng=np.random.default_rng(seed_seq),
        )
        return env, resolved
    if env_type == "trace_csv":
        _check_keys(
            section,
            ("type", "path", "column_map", "round_window"),
            ("type", "path"),
            "environment",
        )
        resolved = {
            "type": env_type,
            "path": section["path"],
            "column_map": {**CAR_HACKING_COLUMNS, **section.get("column_map", {})},
            "round_window": section.get("round_window", DEFAULT_ROUND_WINDOW),
        }
        env = ingest_can_log(
            section["path"],
            column_map=resolved["column_map"],
            round_window=resolved["round_window"],
        )
        return env, resolved
    raise InvalidConfigError(f"unknown environment type {env_type!r}")


# ---------------------------------------------------------------------------
# experiment kinds


def _run_bounds(cfg, out_dir):
    allowed = ("schema_version", "kind", "seed", "n", "a", "b", "nu", "horizon", "eta", "gmax")
    _check_keys(cfg, allowed, ("n", "a", "b"), "config")
    n, a, b = cfg["n"], cfg["a"], cfg["b"]
    items = []
    lo, hi = analysis.theorem2_bounds(n, a, b)
    items += [("theorem2_lower", lo), ("theorem2_upper", hi)]
    if "nu" in cfg:
        d, at = analysis.equilibrium_values(n, cfg["nu"])
        items += [("equilibrium_defender", d), ("equilibrium_attacker", at)]
    if "horizon" in cfg:
        eta, ceiling = analysis.corollary11_eta(n, a, b, cfg["horizon"])
        items += [("tuned_eta", eta), ("regret_ceiling", ceiling)]
    if "eta" in cfg and "gmax" in cfg:
        items.append(("theorem1_bound", analysis.theorem1_bound(cfg["gmax"], n, a, b, cfg["eta"])))
    _write_manifest(out_dir, cfg)
    _write_summary(os.path.join(out_dir, "summary.txt"), items)


def _run_single_player(cfg, out_dir, workers):
    allowed = (
        "schema_version",
        "kind",
        "seed",
        "environment",
        "scaling",
        "eta",
        "horizon",
        "replicas",
        "record_weights",
        "budget",
    )
    _check_keys(cfg, allowed, ("environment", "scaling"), "config")
    ss = np.random.SeedSequence(cfg["seed"])
    env_ss, run_ss = ss.spawn(2)
    env, env_resolved = _environment_from_config(cfg["environment"], env_ss)
    scaling = _scaling_from_config(cfg["scaling"])
    spec = SinglePlayerSpec(
        env=env,
        scaling=scaling,
        eta=cfg.get("eta", "corollary_1_1"),
        horizon=cfg.get("horizon"),
        budget=cfg.get("budget"),
    )
    replicas = cfg.get("replicas", 1)
    record_weights = bool(cfg.get("record_weights", False))
    report = analysis.pseudo_regret(
        spec,
        replicas,
        np.random.default_rng(run_ss),
        record_weights=record_weights,
        workers=workers,
    )
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "single_player",
        "seed": cfg["seed"],
        "environment": env_resolved,
        "scaling": _scaling_resolved(scaling),
        "eta": cfg.get("eta", "corollary_1_1"),
        "eta_resolved": spec.resolve_eta(),
        "eta_clamp": ETA_CLAMP,
        "horizon": spec.horizon,
        "replicas": replicas,
        "record_weights": record_weights,
    }
    _write_manifest(out_dir, resolved)
    emit_plot_data(report, os.path.join(out_dir, "curves.csv"))
    if record_weights:
        # one dedicated replica for the marginal trajectories (rows sum to M_t)
        run = run_single_player(spec, np.random.default_rng(run_ss.spawn(1)[0]), record_weights=True)
        n = spec.n_arms
        header = ["t", "m"] + [f"w_{i + 1}_norm" for i in range(n)]
        rows = (
            [t + 1, run.play_counts[t]] + list(run.marginals[t]) for t in range(spec.horizon)
        )
        write_csv(os.path.join(out_dir, "weights.csv"), header, rows)
    _write_summary(
        os.path.join(out_dir, "summary.txt"),
        [
            ("final_regret_mean", report.regret_mean[-1]),
            ("final_regret_stderr", report.regret_stderr[-1]),
            ("final_bound", report.bound[-1]),
            ("final_gmax_mean", report.gmax_mean[-1]),
            ("final_reward_mean", report.reward_mean[-1]),
            ("eta", spec.resolve_eta()),
            ("replicas", replicas),
        ],
    )


def _run_compare(cfg, out_dir):
    allowed = (
        "schema_version",
        "kind",
        "seed",
        "environment",
        "scaling",
        "epsilon",
        "fixed_m",
    )
    _check_keys(cfg, allowed, ("environment",), "config")
    ss = np.random.SeedSequence(cfg["seed"])
    env_ss, run_ss = ss.spawn(2)
    env, env_resolved = _environment_from_config(cfg["environment"], env_ss)
    if not isinstance(env, IntrusionTrace):
        raise InvalidConfigError("compare needs a trace environment")
    scaling = (
        _scaling_from_config(cfg["scaling"])
        if "scaling" in cfg
        else ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8)
    )
    epsilon = cfg.get("epsilon", 0.1)
    fixed_m = cfg.get("fixed_m", 3)
    curves = run_comparison(
        env,
        np.random.default_rng(run_ss),
        epsilon=epsilon,
        vp_scaling=scaling,
        fixed_m=fixed_m,
    )
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "compare",
        "seed": cfg["seed"],
        "environment": env_resolved,
        "scaling": _scaling_resolved(scaling),
        "epsilon": epsilon,
        "fixed_m": fixed_m,
        "iota": DEFAULT_IOTA,
    }
    _write_manifest(out_dir, resolved)
    names = sorted(curves)
    rows = (
        [t + 1] + [curves[name][t] for name in names] for t in range(env.n_rounds)
    )
    write_csv(os.path.join(out_dir, "compare.csv"), ["t"] + names, rows)
    _write_summary(
        os.path.join(out_dir, "summary.txt"),
        [(f"final_{name}", curves[name][-1]) for name in names],
    )


def _run_game(cfg, out_dir, workers):
    allowed = (
        "schema_version",
        "kind",
        "seed",
        "n",
        "horizon",
        "scaling",
        "attacker",
        "defender_eta",
        "attacker_eta",
        "payoff",
        "scan_discount",
        "replicas",
        "tail_fraction",
    )
    _check_keys(cfg, allowed, ("n", "horizon", "scaling"), "config")
    scaling = _scaling_from_config(cfg["scaling"])
    payoff = None
    if "payoff" in cfg:
        payoff = PayoffProfile(mu=np.asarray(cfg["payoff"], dtype=float))
    config = GameConfig(
        n_arms=cfg["n"],
        horizon=cfg["horizon"],
        scaling=scaling,
        attacker_kind=cfg.get("attacker", "exp3"),
        defender_eta=cfg.get("defender_eta"),
        attacker_eta=cfg.get("attacker_eta"),
        payoff=payoff,
        scan_discount=cfg.get("scan_discount", DEFAULT_SCAN_DISCOUNT),
        seed=cfg["seed"],
    )
    replicas = cfg.get("replicas", 1)
    tail_fraction = cfg.get("tail_fraction", 0.2)
    traces = run_game_replicas(config, replicas, workers=workers)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "game",
        "seed": cfg["seed"],
        "n": config.n_arms,
        "horizon": config.horizon,
        "scaling": _scaling_resolved(scaling),
        "attacker": config.attacker_kind,
        "defender_eta": config.resolve_defender_eta(),
        "attacker_eta": config.resolve_attacker_eta()
        if config.attacker_kind == "exp3"
        else None,
        "scan_discount": config.scan_discount,
        "payoff": list(map(float, config.payoff.mu)),
        "iota": DEFAULT_IOTA,
        "replicas": replicas,
        "tail_fraction": tail_fraction,
    }
    _write_manifest(out_dir, resolved)
    att_curves = []
    def_curves = []
    for idx, trace in enumerate(traces):
        run_r, run_s = trace.running_averages()
        att_curves.append(run_r)
        def_curves.append(run_s)
        rows = (
            [
                t + 1,
                trace.attacker_arm[t],
                trace.play_counts[t],
                ";".join(str(j) for j in np.flatnonzero(trace.scanned[t])),
                trace.attacker_reward[t],
                trace.defender_reward[t],
                run_r[t],
                run_s[t],
            ]
            for t in range(trace.n_rounds)
        )
        write_csv(
            os.path.join(out_dir, f"trace_{idx:03d}.csv"),
            ["t", "I_t", "M_t", "J_t", "r", "s", "running_r", "running_s"],
            rows,
        )
    att_mean = np.mean(att_curves, axis=0)
    def_mean = np.mean(def_curves, axis=0)
    rows = zip(range(1, config.horizon + 1), att_mean, def_mean)
    write_csv(os.path.join(out_dir, "curves.csv"), ["t", "attacker_mean", "defender_mean"], rows)
    tail = max(1, int(tail_fraction * config.horizon))
    att_tail = float(np.mean([t.attacker_reward[-tail:].mean() for t in traces]))
    def_tail = float(np.mean([t.defender_reward[-tail:].mean() for t in traces]))
    items = [
        ("attacker_tail_mean", att_tail),
        ("defender_tail_mean", def_tail),
        ("tail_rounds", tail),
    ]
    nu = _scaling_mean(scaling)
    if nu is not None and 0 < nu < config.n_arms:
        d_eq, a_eq = analysis.equilibrium_values(config.n_arms, nu)
        items += [("equilibrium_defender", d_eq), ("equilibrium_attacker", a_eq)]
    _write_summary(os.path.join(out_dir, "summary.txt"), items)


def _run_ingest(cfg, out_dir):
    allowed = ("schema_version", "kind", "seed", "path", "column_map", "round_window")
    _check_keys(cfg, allowed, ("path",), "config")
    column_map = {**CAR_HACKING_COLUMNS, **cfg.get("column_map", {})}
    window = cfg.get("round_window", DEFAULT_ROUND_WINDOW)
    trace = ingest_can_log(cfg["path"], column_map=column_map, round_window=window)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ingest",
        "seed": cfg["seed"],
        "path": cfg["path"],
        "column_map": column_map,
        "round_window": window,
    }
    _write_manifest(out_dir, resolved)
    trace.save(os.path.join(out_dir, "trace.csv"), os.path.join(out_dir, "trace.meta"))
    density = trace.attack_density()
    _write_summary(
        os.path.join(out_dir, "summary.txt"),
        [
            ("arms", trace.n_arms),
            ("rounds", trace.n_rounds),
            ("attack_density_mean", float(density.mean())),
            ("attacked_arms", int(np.count_nonzero(density))),
        ],
    )


def _run_sweep(cfg, out_dir):
    allowed = ("schema_version", "kind", "seed", "n", "a", "b", "mu_min", "mu_max", "steps")
    _check_keys(cfg, allowed, ("n", "a", "b"), "config")
    n, a, b = cfg["n"], cfg["a"], cfg["b"]
    mu_min = cfg.get("mu_min", 0.05)
    mu_max = cfg.get("mu_max", 1.0)
    steps = cfg.get("steps", 100)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep",
        "seed": cfg["seed"],
        "n": n,
        "a": a,
        "b": b,
        "mu_min": mu_min,
        "mu_max": mu_max,
        "steps": steps,
        "interval_form": "harmonic",
    }
    _write_manifest(out_dir, resolved)
    rows = []
    for mu in np.linspace(mu_min, mu_max, steps):
        interval = analysis.kstar_interval(PayoffProfile.homogeneous(n, mu), a, b)
        rows.append([mu, interval.lower, interval.upper])
    write_csv(os.path.join(out_dir, "sweep.csv"), ["mu", "lower", "upper"], rows)
    _write_summary(os.path.join(out_dir, "summary.txt"), [("points", steps)])


# ---------------------------------------------------------------------------
# entry point


def run_experiment(cfg, out_dir, workers=1):
    """Validate a config dict, dispatch, and write all outputs."""
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise InvalidConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise InvalidConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if "seed" not in cfg:
        raise InvalidConfigError("seed is mandatory")
    os.makedirs(out_dir, exist_ok=True)
    if kind == "bounds":
        _run_bounds(cfg, out_dir)
    elif kind == "single_player":
        _run_single_player(cfg, out_dir, workers)
    elif kind == "compare":
        _run_compare(cfg, out_dir)
    elif kind == "game":
        _run_game(cfg, out_dir, workers)
    elif kind == "ingest":
        _run_ingest(cfg, out_dir)
    else:
        _run_sweep(cfg, out_dir)
    return 0


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
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
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
    seed = cfg.get("seed", 0)  # a missing seed is reported by run_experiment
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        return _usage_error(f"seed must be a nonnegative integer, got {seed!r}")
    if args.replicas is not None:
        cfg["replicas"] = args.replicas
    try:
        return run_experiment(cfg, args.out, workers=args.workers)
    except VPBanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
