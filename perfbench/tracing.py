"""Outside-in spans around the package's public functions.

Functions are wrapped at the names their callers look up (``vpbandit.game``
imports ``dep_round`` into its own namespace, so that binding is the one
patched), and methods on their classes.  Spans live in memory as parallel
lists with a parent index; ``collect`` turns one iteration's spans into
per-name counts, total and self time (duration minus child spans).
"""

import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("bandit_core", "game", "scaling", "environments", "analysis", "baselines", "cli")


def _horizon(args, kwargs, out):
    return args[0].horizon


def _replica_rounds(args, kwargs, out):
    return args[0].horizon * args[1]


def _comparison_rounds(args, kwargs, out):
    return 5 * args[0].n_rounds  # two multi-play and three single-play learners


def _patches(modules):
    """(owner, attribute, span name, work-units function) for the traced run."""
    game, cli, analysis = modules["game"], modules["cli"], modules["analysis"]
    env, scaling, baselines = modules["environments"], modules["scaling"], modules["baselines"]
    return [
        (game, "dep_round", "bandit_core.dep_round", None),
        (game, "cap_threshold", "bandit_core.cap_threshold", None),
        (game.Exp3MVPLearner, "play", "game.defender_play", None),
        (game.Exp3MVPLearner, "update", "game.defender_update", None),
        (game.Exp3Attacker, "select", "game.attacker_select", None),
        (game.Exp3Attacker, "update", "game.attacker_update", None),
        (game.GreedyAttacker, "select", "game.attacker_select", None),
        (game.GreedyAttacker, "update", "game.attacker_update", None),
        (game, "play_round", "game.play_round", None),
        (game, "run_game", "game.run_game", _horizon),
        (game, "run_single_player", "game.run_single_player", _horizon),
        (cli, "run_single_player", "game.run_single_player", _horizon),
        (cli, "run_game_replicas", "game.run_game_replicas", None),
        # the comparison's own loops run exp3, ucb1 and epsilon-greedy
        (cli, "run_comparison", "game.run_comparison", lambda a, k, o: 3 * a[0].n_rounds),
        (game, "sample_arm_counts", "scaling.sample_arm_counts", lambda a, k, o: a[1]),
        (game, "sample_arm_count", "scaling.sample_arm_count", None),
        (scaling.MovingAverage, "push", "scaling.moving_average_push", None),
        (cli, "ingest_can_log", "environments.ingest_can_log",
         lambda a, k, o: o.metadata["n_rows"]),
        (env.IntrusionTrace, "save", "environments.trace_save", lambda a, k, o: a[0].n_rounds),
        (game, "bernoulli_rewards", "environments.bernoulli_rewards", None),
        (analysis, "pseudo_regret", "analysis.pseudo_regret", None),
        (analysis, "g_max_curve", "analysis.g_max_curve", lambda a, k, o: len(a[1])),
        (analysis, "theorem1_bound", "analysis.theorem1_bound", None),
        (game, "ucb1_select", "baselines.ucb1_select", None),
        (game, "epsilon_greedy_select", "baselines.epsilon_greedy_select", None),
        (baselines.FrequentistState, "update", "baselines.frequentist_update", None),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "write_csv", "cli.write_csv", None),  # rows and bytes counted in collect()
    ]


def _entry_patches(modules):
    """The simulation entry points whose time ``rounds_per_s`` divides by."""
    cli, analysis = modules["cli"], modules["analysis"]
    return [
        (cli, "run_game_replicas", "entry.run_game_replicas", _replica_rounds),
        (analysis, "pseudo_regret", "entry.pseudo_regret", _replica_rounds),
        (cli, "run_comparison", "entry.run_comparison", _comparison_rounds),
        (cli, "run_single_player", "entry.run_single_player", _horizon),
    ]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, modules, entry_only):
        self._plan = _entry_patches(modules) if entry_only else _patches(modules)
        self._saved = []
        self._names = []
        self._name_id = {}
        self.reset()

    def reset(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self.units = defaultdict(int)
        self.csv_paths = []

    def _wrap(self, span_name, fn, units):
        nid = self._name_id.setdefault(span_name, len(self._names))
        if nid == len(self._names):
            self._names.append(span_name)
        clock = time.perf_counter_ns
        is_csv = span_name == "cli.write_csv"

        def wrapper(*args, **kwargs):
            i = len(self.start)
            stack = self._stack
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if units is not None:
                self.units[span_name] += units(args, kwargs, out)
            if is_csv:
                self.csv_paths.append(args[0])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, span_name, fn, *args):
        """Run ``fn(*args)`` inside a top-level span."""
        return self._wrap(span_name, fn, None)(*args)

    def install(self):
        for owner, attr, span_name, units in self._plan:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original, units))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def collect(self):
        """Per-name calls, total_ns, self_ns and work units; then reset."""
        if not self.start:
            stats = {}
        else:
            name = np.asarray(self.name)
            parent = np.asarray(self.parent)
            dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
            has = parent >= 0
            child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
            self_ns = dur - child
            k = len(self._names)
            calls = np.bincount(name, minlength=k)
            total = np.bincount(name, weights=dur, minlength=k)
            own = np.bincount(name, weights=self_ns, minlength=k)
            stats = {
                n: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
                for i, n in enumerate(self._names)
                if calls[i]
            }
        for n, u in self.units.items():
            stats.setdefault(n, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})["units"] = u
        csv_rows = csv_bytes = 0
        for path in self.csv_paths:
            csv_bytes += os.path.getsize(path)
            with open(path, "rb") as f:
                csv_rows += sum(1 for _ in f) - 1  # minus the header
        if self.csv_paths:
            stats["cli.write_csv"]["units"] = csv_rows
            stats["cli.write_csv"]["bytes"] = csv_bytes
        self.reset()
        return stats


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "bandit_core.dep_round.calls": "count",
    "bandit_core.dep_round.us_per_call": "us",
    "bandit_core.cap_threshold.calls": "count",
    "bandit_core.cap_threshold.us_per_call": "us",
    "bandit_core.capping_rate": "ratio",
    "bandit_core.self_share": "ratio",
    "game.defender_play.us_per_call": "us",
    "game.defender_play.self_us": "us",
    "game.defender_update.us_per_call": "us",
    "game.attacker_select.us_per_call": "us",
    "game.attacker_update.us_per_call": "us",
    "game.play_round.self_us": "us",
    "game.loop.self_us_per_round": "us",
    "game.rounds": "count",
    "game.self_share": "ratio",
    "scaling.sample_arm_counts.us_per_draw": "us",
    "scaling.sample_arm_count.us_per_call": "us",
    "scaling.moving_average_push.us_per_call": "us",
    "scaling.self_share": "ratio",
    "environments.ingest_can_log.rows": "count",
    "environments.ingest_can_log.us_per_row": "us",
    "environments.trace_save.us_per_row": "us",
    "environments.bernoulli_rewards.us_per_call": "us",
    "environments.self_share": "ratio",
    "analysis.g_max_curve.us_per_round": "us",
    "analysis.theorem1_bound.calls": "count",
    "analysis.theorem1_bound.us_per_call": "us",
    "analysis.pseudo_regret.self_s": "s",
    "analysis.self_share": "ratio",
    "baselines.ucb1_select.us_per_call": "us",
    "baselines.epsilon_greedy_select.us_per_call": "us",
    "baselines.frequentist_update.us_per_call": "us",
    "baselines.self_share": "ratio",
    "cli.write_csv.rows": "count",
    "cli.write_csv.bytes": "B",
    "cli.write_csv.us_per_row": "us",
    "cli.run_experiment.self_s": "s",
    "cli.self_share": "ratio",
    "trace.cli_wall_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(stats, wall_ns):
    """Per-layer metrics of one traced iteration whose commands took ``wall_ns``.

    A metric of a function the workload never calls reads 0.
    """

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def per(name, key, denom):
        d = get(name, denom) if isinstance(denom, str) else denom
        return get(name, key) / 1e3 / d if d else 0.0

    m = {
        "bandit_core.dep_round.calls": get("bandit_core.dep_round", "calls"),
        "bandit_core.dep_round.us_per_call": per("bandit_core.dep_round", "total_ns", "calls"),
        "bandit_core.cap_threshold.calls": get("bandit_core.cap_threshold", "calls"),
        "bandit_core.cap_threshold.us_per_call": per("bandit_core.cap_threshold", "total_ns", "calls"),
        "game.defender_play.us_per_call": per("game.defender_play", "total_ns", "calls"),
        "game.defender_play.self_us": per("game.defender_play", "self_ns", "calls"),
        "game.defender_update.us_per_call": per("game.defender_update", "total_ns", "calls"),
        "game.attacker_select.us_per_call": per("game.attacker_select", "total_ns", "calls"),
        "game.attacker_update.us_per_call": per("game.attacker_update", "total_ns", "calls"),
        "game.play_round.self_us": per("game.play_round", "self_ns", "calls"),
        "scaling.sample_arm_counts.us_per_draw": per("scaling.sample_arm_counts", "total_ns", "units"),
        "scaling.sample_arm_count.us_per_call": per("scaling.sample_arm_count", "total_ns", "calls"),
        "scaling.moving_average_push.us_per_call": per("scaling.moving_average_push", "total_ns", "calls"),
        "environments.ingest_can_log.rows": get("environments.ingest_can_log", "units"),
        "environments.ingest_can_log.us_per_row": per("environments.ingest_can_log", "total_ns", "units"),
        "environments.trace_save.us_per_row": per("environments.trace_save", "total_ns", "units"),
        "environments.bernoulli_rewards.us_per_call": per("environments.bernoulli_rewards", "total_ns", "calls"),
        "analysis.g_max_curve.us_per_round": per("analysis.g_max_curve", "total_ns", "units"),
        "analysis.theorem1_bound.calls": get("analysis.theorem1_bound", "calls"),
        "analysis.theorem1_bound.us_per_call": per("analysis.theorem1_bound", "total_ns", "calls"),
        "analysis.pseudo_regret.self_s": get("analysis.pseudo_regret", "self_ns") / 1e9,
        "baselines.ucb1_select.us_per_call": per("baselines.ucb1_select", "total_ns", "calls"),
        "baselines.epsilon_greedy_select.us_per_call": per("baselines.epsilon_greedy_select", "total_ns", "calls"),
        "baselines.frequentist_update.us_per_call": per("baselines.frequentist_update", "total_ns", "calls"),
        "cli.write_csv.rows": get("cli.write_csv", "units"),
        "cli.write_csv.bytes": get("cli.write_csv", "bytes"),
        "cli.write_csv.us_per_row": per("cli.write_csv", "total_ns", "units"),
        "cli.run_experiment.self_s": get("cli.run_experiment", "self_ns") / 1e9,
        "trace.cli_wall_s": wall_ns / 1e9,
    }
    plays = get("game.defender_play", "calls")
    m["bandit_core.capping_rate"] = get("bandit_core.cap_threshold", "calls") / plays if plays else 0.0
    loops = ("game.run_game", "game.run_single_player", "game.run_comparison", "game.run_game_replicas")
    rounds = sum(get(n, "units") for n in loops)
    m["game.rounds"] = rounds
    m["game.loop.self_us_per_round"] = sum(get(n, "self_ns") for n in loops) / 1e3 / rounds if rounds else 0.0
    attributed = 0.0
    for layer in LAYERS:
        own = sum(s["self_ns"] for n, s in stats.items() if n.split(".", 1)[0] == layer)
        attributed += own
        m[f"{layer}.self_share"] = own / wall_ns
    m["trace.unattributed_share"] = (wall_ns - attributed) / wall_ns
    return m
