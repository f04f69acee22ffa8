"""Acceptance suite: one end-to-end check per delivery criterion.

Heavier than the unit tests (the equilibrium run plays two million rounds);
everything is seeded, so each check is deterministic.
"""

import itertools
import json
import math
import os

import mpmath
import numpy as np

from reference import attacker_value_lp, dep_round_many, learner_capped
from vpbandit import cli
from vpbandit.analysis import (
    attacker_value,
    corollary11_eta,
    g_max,
    pseudo_regret,
    theorem1_bound,
)
from vpbandit.environments import BernoulliEnv, PayoffProfile, synthesize_intrusion_trace
from vpbandit.game import (
    Exp3MVPLearner,
    GameConfig,
    SinglePlayerSpec,
    run_comparison,
    run_game,
    run_game_replicas,
    run_single_player,
)
from vpbandit.scaling import ScalingSpec

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# equilibrium of the two-player game


def test_equilibrium_of_the_two_player_game():
    # ten locations, truncated-Gaussian play counts on [1, 3] with mean 2:
    # long-run averages must settle at (N - nu)/N = 0.8 for the attacker and
    # nu/N = 0.2 for the defender
    config = GameConfig(
        n_arms=10,
        horizon=100_000,
        scaling=ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8),
        seed=2024,
    )
    traces = run_game_replicas(config, 20)
    att = float(np.mean([t.attacker_reward[-20_000:].mean() for t in traces]))
    dfd = float(np.mean([t.defender_reward[-20_000:].mean() for t in traces]))
    a_eq, _ = attacker_value(PayoffProfile.homogeneous(10), config.scaling.law())
    d_eq = 2 / 10
    assert a_eq == 0.8
    assert abs(att - a_eq) <= 0.03
    assert abs(dfd - d_eq) <= 0.03


# ---------------------------------------------------------------------------
# regret stays under the closed-form ceiling; weights concentrate


HARMONIC_SPEC = SinglePlayerSpec(
    env=BernoulliEnv.harmonic(10),
    scaling=ScalingSpec.uniform(1, 3),
    eta=0.1,
    horizon=20_000,
)


def test_mean_regret_stays_below_the_bound():
    report = pseudo_regret(HARMONIC_SPEC, 10, np.random.default_rng(7))
    assert np.all(report.regret_mean <= report.bound + 1e-9)


def test_weights_concentrate_on_the_top_arms(monkeypatch):
    # the replicas of the regret test above; each one must concentrate, so
    # their mean does too.  Each round's normalized weights are recorded
    # after the learner's draw, before its update.
    rows = []
    play = Exp3MVPLearner.play

    def recording(self, m, rng):
        out = play(self, m, rng)
        rows.append(self.weights / self.weights.sum())
        return out

    monkeypatch.setattr(Exp3MVPLearner, "play", recording)
    for child in np.random.default_rng(7).spawn(10):
        rows.clear()
        run_single_player(HARMONIC_SPEC, child)
        top_share = np.array(rows)[:, :3].sum(axis=1)
        assert top_share.size == HARMONIC_SPEC.horizon
        assert np.all(top_share[15_000:] >= 0.8)


# ---------------------------------------------------------------------------
# fixed-play and variable-play learners on an intrusion trace


def test_variable_play_matches_fixed_play_on_a_trace():
    rng = np.random.default_rng(3)
    trace = synthesize_intrusion_trace(
        n_arms=26,
        attacked=(3, 17),
        horizon=7_000,
        n_bursts=(280, 12),
        rng=rng,
    )
    curves = run_comparison(trace, rng, eta=0.2)
    finals = {name: float(c[-1]) for name, c in curves.items()}
    vp, fixed = finals["exp3mvp"], finals["exp3m"]
    assert abs(vp - fixed) / max(vp, fixed) < 0.10
    single_best = max(finals["exp3"], finals["ucb1"], finals["epsilon_greedy"])
    assert min(vp, fixed) > single_best


# ---------------------------------------------------------------------------
# subset-sampling marginals


def _marginals(weights, eta, m):
    learner = Exp3MVPLearner(weights.size, eta)
    learner.weights = weights
    _, probs = learner.play(m, 0.5)
    return np.asarray(probs), learner_capped(weights, eta, m)


def test_dependent_rounding_marginals_match():
    rng = np.random.default_rng(11)
    draws = 100_000
    for _ in range(50):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        weights = rng.uniform(0.05, 5.0, size=n)
        eta = float(rng.uniform(0.0, 0.5))
        p, _ = _marginals(weights, eta, m)
        sets = dep_round_many(m, p, rng.random(draws))
        assert np.all(sets.sum(axis=1) == m)
        freq = sets.mean(axis=0)
        sigma = np.sqrt(p * (1.0 - p) / draws)
        assert np.all(np.abs(freq - p) <= 3.0 * sigma + 1e-12)


# ---------------------------------------------------------------------------
# marginal sums over random weight states


def test_marginals_sum_to_the_play_count():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n))
        weights = np.exp(rng.uniform(-8.0, 8.0, size=n))
        eta = float(rng.uniform(0.0, 0.95))
        probs, capped = _marginals(weights, eta, m)
        assert abs(probs.sum() - m) <= 1e-9
        if capped is not None:
            assert np.all(probs[capped] == 1.0)


# ---------------------------------------------------------------------------
# hindsight optimum against exhaustive search


def test_hindsight_optimum_equals_brute_force():
    # integer rewards keep both sides' sums exact, so the comparison can be
    # an equality rather than a tolerance
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        horizon = int(rng.integers(1, 9))
        b = int(rng.integers(1, min(3, n - 1) + 1))
        y = rng.integers(0, 4, size=(horizon, n)).astype(float)
        m = rng.integers(1, b + 1, size=horizon)
        value, _ = g_max(y, m)
        best = -1.0
        for ranking in itertools.permutations(range(n), int(m.max())):
            total = sum(y[t, list(ranking[: m[t]])].sum() for t in range(horizon))
            best = max(best, total)
        assert value == best


# ---------------------------------------------------------------------------
# game value against a linear program of the mixed game


def _point(c):
    return (c,), (1.0,), c


def test_game_value_matches_the_linear_program():
    # cut sizes: both endpoints of 50 random small instances
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        mu = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
        a = int(rng.integers(1, n - 1))
        b = int(rng.integers(a, n))
        for c in (a, b):
            value, _ = attacker_value(PayoffProfile(mu=mu), _point(c))
            assert abs(value - attacker_value_lp(mu, [c], [1.0])) <= 1e-9
    # Dirichlet play-count laws on a random [a, b], a third with tied payoffs
    rng = np.random.default_rng(31)
    for i in range(300):
        n = int(rng.integers(3, 31))
        mu = rng.uniform(0.02, 1.0, size=n)
        if i % 3 == 0:
            mu = np.maximum(np.round(mu, 1), 0.1)
        mu = np.sort(mu)[::-1]
        a = int(rng.integers(1, n))
        b = int(rng.integers(a, n))
        counts = np.arange(a, b + 1)
        probs = rng.dirichlet(np.ones(counts.size))
        value, _ = attacker_value(PayoffProfile(mu=mu), (counts, probs, float(counts @ probs)))
        assert abs(value - attacker_value_lp(mu, counts, probs)) <= 1e-9
    # homogeneous payoffs collapse to the flat-interval formulas exactly
    for n, a, b in ((10, 1, 3), (6, 2, 4), (4, 1, 2)):
        flat = PayoffProfile.homogeneous(n, 1.0)
        assert attacker_value(flat, _point(b)) == ((n - b) / n, n)
        assert attacker_value(flat, _point(a)) == ((n - a) / n, n)


# ---------------------------------------------------------------------------
# heterogeneous game rewards: inside the predicted interval, at the game value


def test_heterogeneous_game_reward_containment():
    rng = np.random.default_rng(23)
    for k in range(10):
        mu = np.sort(rng.uniform(0.4, 1.0, size=10))[::-1]
        prof = PayoffProfile(mu=mu)
        scaling = ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8)
        lower, _ = attacker_value(prof, _point(3))
        upper, _ = attacker_value(prof, _point(1))
        value, _ = attacker_value(prof, scaling.law())
        config = GameConfig(n_arms=10, horizon=60_000, scaling=scaling, payoff=prof, seed=500 + k)
        trace = run_game(config)
        measured = float(trace.attacker_reward[-20_000:].mean())
        assert lower - 0.02 <= measured <= upper + 0.02
        assert abs(measured - value) <= 0.02


# ---------------------------------------------------------------------------
# closed forms against 50-digit arithmetic


def test_closed_forms_match_high_precision_evaluation():
    rng = np.random.default_rng(29)
    e = mpmath.e
    for _ in range(100):
        n = int(rng.integers(3, 40))
        a = int(rng.integers(1, n - 1))
        b = int(rng.integers(a, n))
        nu = int(rng.integers(1, n))
        horizon = int(rng.integers(10, 10**7))
        eta = float(rng.uniform(0.001, 1.0))
        gmax = float(rng.uniform(0.0, 1e5))
        mn, ma, mb, mt = mpmath.mpf(n), mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(horizon)

        ref = (1 + (e - 2) * mb / ma) * mpmath.mpf(eta) * mpmath.mpf(gmax) + (
            mn / mpmath.mpf(eta)
        ) * mpmath.log(mn / mb)
        got = theorem1_bound(gmax, n, a, b, eta)
        assert abs(got - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))

        ref_eta = min(
            mpmath.mpf(1),
            mpmath.sqrt(mn * ma * mpmath.log(mn / mb) / ((ma + (e - 2) * mb) * mb * mt)),
        )
        ref_ceiling = 2 * mpmath.sqrt(1 + (e - 2) * mb / ma) * mpmath.sqrt(
            mb * mt * mn * mpmath.log(mn / mb)
        )
        got_eta, got_ceiling = corollary11_eta(n, a, b, horizon)
        assert abs(got_eta - float(ref_eta)) <= 1e-12 * max(1.0, float(ref_eta))
        assert abs(got_ceiling - float(ref_ceiling)) <= 1e-12 * float(ref_ceiling)

        flat = PayoffProfile.homogeneous(n)
        got_a, _ = attacker_value(flat, _point(nu))
        assert abs(got_a - float((mn - nu) / mn)) <= 1e-12

        lo, _ = attacker_value(flat, _point(b))
        hi, _ = attacker_value(flat, _point(a))
        assert abs(lo - float((mn - mb) / mn)) <= 1e-12
        assert abs(hi - float((mn - ma) / mn)) <= 1e-12


# ---------------------------------------------------------------------------
# experiment runs are reproducible byte for byte


def test_experiments_rerun_byte_identically(tmp_path):
    configs = [
        {
            "schema_version": 1,
            "kind": "game",
            "seed": 99,
            "n": 8,
            "horizon": 600,
            "scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8},
            "replicas": 2,
        },
        {
            "schema_version": 1,
            "kind": "single_player",
            "seed": 99,
            "environment": {"type": "harmonic_bernoulli", "n_arms": 6},
            "scaling": {"kind": "uniform_discrete", "a": 1, "b": 3},
            "eta": 0.1,
            "horizon": 400,
            "replicas": 2,
            "record_weights": True,
        },
    ]
    for idx, cfg in enumerate(configs):
        outs = []
        for rep in ("x", "y"):
            out = tmp_path / f"{idx}_{rep}"
            assert cli.run_experiment(cfg, str(out)) == 0
            data = {}
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    with open(out / name, "rb") as f:
                        data[name] = f.read()
            outs.append(data)
        assert outs[0].keys() == outs[1].keys()
        assert outs[0] == outs[1]
