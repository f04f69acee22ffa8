"""The benchmark's traced names still exist in the package.

``perfbench/tracing.py`` wraps functions and methods at the names their
callers look up.  A renamed or moved function would make it fail with a
``KeyError`` when the benchmark runs, so every name it patches is checked
here, reading ``perfbench/`` without changing it.  The simulation loops must
also still call the wrapped names: each round draws through ``game.dep_round``,
and a game calls ``game.play_round`` and the attacker's ``select`` once per
round and the defender's ``update`` once per catch.
"""

import collections
import importlib.util
import pathlib

import numpy as np
import pytest

from vpbandit import analysis, baselines, cli, environments, game, scaling

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "game": game,
    "cli": cli,
    "analysis": analysis,
    "environments": environments,
    "scaling": scaling,
    "baselines": baselines,
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("plan", ["_patches", "_entry_patches"])
def test_every_traced_name_exists(plan):
    entries = getattr(_tracing(), plan)(MODULES)
    assert entries
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, *_ in entries
        if attr not in vars(owner)
    ]
    assert not missing


def _counting_dep_round(monkeypatch):
    calls = []
    dep_round = game.dep_round

    def counting(*args, **kwargs):
        calls.append(args[0])
        return dep_round(*args, **kwargs)

    monkeypatch.setattr(game, "dep_round", counting)
    return calls


def test_game_draws_through_dep_round_every_round(monkeypatch):
    # the benchmark's subset-sampling span wraps ``game.dep_round``: a
    # shortcut past it would leave that span empty
    calls = _counting_dep_round(monkeypatch)
    config = game.GameConfig(
        n_arms=10, horizon=600, scaling=scaling.ScalingSpec.uniform(1, 4), seed=3
    )
    trace = game.run_game(config)
    assert calls == trace.play_counts.tolist()


def test_single_player_draws_through_dep_round_every_round(monkeypatch):
    calls = _counting_dep_round(monkeypatch)
    spec = game.SinglePlayerSpec(
        env=environments.BernoulliEnv.harmonic(10),
        scaling=scaling.ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8),
        horizon=600,
    )
    run = game.run_single_player(spec, np.random.default_rng(5))
    assert calls == run.play_counts.tolist()


@pytest.mark.parametrize("kind", ["exp3", "greedy"])
def test_game_calls_the_traced_spans_per_round(monkeypatch, kind):
    # ``game.attacker_select`` and ``game.play_round`` count rounds, and
    # ``game.defender_update`` counts catches: a round the attacker escapes
    # calls no update
    calls = collections.Counter()

    def counting(owner, attr):
        fn = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    attacker = {"exp3": game.Exp3Attacker, "greedy": game.GreedyAttacker}[kind]
    counting(game, "play_round")
    counting(attacker, "select")
    counting(game.Exp3MVPLearner, "update")
    config = game.GameConfig(
        n_arms=10, horizon=600, scaling=scaling.ScalingSpec.uniform(1, 4), attacker_kind=kind,
        seed=3,
    )
    trace = game.run_game(config)
    catches = int(np.count_nonzero(trace.defender_reward > 0))
    assert 0 < catches < config.horizon
    assert calls == {"play_round": config.horizon, "select": config.horizon, "update": catches}
