"""Tests for the two-player game loop, attacker policies, and simulations."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from reference import game_one_draw_per_round, greedy_select, single_player_one_draw_per_round

from vpbandit import game
from vpbandit.analysis import attacker_value, corollary11_eta
from vpbandit.environments import BernoulliEnv, PayoffProfile, synthesize_intrusion_trace
from vpbandit.errors import InvalidConfigError
from vpbandit.game import (
    DEFAULT_SCAN_DISCOUNT,
    ETA_CLAMP,
    Exp3Attacker,
    Exp3MVPLearner,
    GameConfig,
    GreedyAttacker,
    SinglePlayerSpec,
    make_attacker,
    map_replicas,
    play_round,
    run_comparison,
    run_game,
    run_game_replicas,
    run_single_player,
)
from vpbandit.scaling import ScalingSpec


class _FixedAttacker:
    """Stub that always hides in one location and records the rewards its
    updates receive."""

    def __init__(self, arm):
        self.arm = arm
        self.rewards = []

    def select(self, rng):
        return self.arm

    def update(self, arm, reward):
        self.rewards.append(reward)


class _FixedDefender:
    """Stub that always scans one fixed set."""

    def __init__(self, chosen, n_arms):
        self._chosen = list(chosen)
        self._probs = np.zeros(n_arms)
        self._probs[self._chosen] = 1.0

    def play(self, m, u):
        return self._chosen, self._probs

    def update(self, chosen, rewards, probs):
        pass


class _RecordingDefender(_FixedDefender):
    """Fixed-set stub that records every update it is given."""

    def __init__(self, chosen, n_arms):
        super().__init__(chosen, n_arms)
        self.updates = []

    def update(self, chosen, rewards, probs):
        self.updates.append((list(chosen), list(rewards)))


def _game_rounds(attacker, defender, counts, mu, rng):
    """Game rounds through the round loop with ``play_round`` as the reward
    source, both players drawing from ``rng``; returns the attacker's arms
    and the defender's round rewards."""
    arms = []

    def observe(t, chosen, probs):
        i, obs = play_round(attacker, chosen, mu, rng)
        arms.append(i)
        return obs

    _, s = game._rounds(defender, len(counts), counts, rng, observe)
    return arms, s.tolist()


def _one_round(attacker_arm, scan, n_arms, mu):
    """``(attacker_arm, attacker_reward, defender_reward)`` of one round with
    both moves fixed; the attacker's reward is the one its update receives."""
    attacker = _FixedAttacker(attacker_arm)
    arms, s = _game_rounds(
        attacker, _FixedDefender(scan, n_arms), [len(scan)], mu, np.random.default_rng(0)
    )
    (r,) = attacker.rewards
    return arms[0], r, s[0]


class TestCoupling:
    def test_homogeneous_hit(self):
        mu = PayoffProfile.homogeneous(4).mu.tolist()
        assert _one_round(2, [0, 2], 4, mu) == (2, 0.0, 1.0)

    def test_homogeneous_miss(self):
        mu = PayoffProfile.homogeneous(4).mu.tolist()
        assert _one_round(1, [0, 2], 4, mu) == (1, 1.0, 0.0)

    def test_heterogeneous_hit_scores_the_hit_location(self):
        mu = PayoffProfile(mu=np.array([0.9, 0.4, 0.2])).mu.tolist()
        _, r, s = _one_round(1, [1, 2], 3, mu)
        assert (r, s) == (0.0, pytest.approx(0.4))

    def test_a_miss_calls_no_defender_update(self):
        defender = _RecordingDefender([0, 2], 4)
        _game_rounds(_FixedAttacker(1), defender, [2], [1.0] * 4, np.random.default_rng(0))
        assert defender.updates == []

    def test_a_hit_updates_the_defender_once_at_the_attacked_arm(self):
        mu = PayoffProfile(mu=np.array([0.9, 0.4, 0.2, 0.7])).mu.tolist()
        defender = _RecordingDefender([0, 1, 3], 4)
        _game_rounds(_FixedAttacker(1), defender, [3], mu, np.random.default_rng(0))
        assert defender.updates == [([0, 1, 3], [0.0, 0.4, 0.0])]

    @pytest.mark.parametrize("kind", ["exp3", "greedy"])
    def test_a_miss_leaves_the_defender_unchanged(self, kind):
        config = GameConfig(
            n_arms=6, horizon=400, scaling=ScalingSpec.uniform(1, 3), attacker_kind=kind, seed=4
        )
        attacker = make_attacker(config)
        defender = Exp3MVPLearner(config.n_arms, config.defender_eta)
        rng = np.random.default_rng(1)
        mu = config.payoff.mu.tolist()
        misses = 0
        for m in [1, 2, 3] * 100:
            weights = defender.weights.tobytes()
            plans = dict(defender._plans)
            _, (s,) = _game_rounds(attacker, defender, [m], mu, rng)
            if s == 0.0:
                misses += 1
                assert defender.weights.tobytes() == weights
                assert all(defender._plans[k] is plan for k, plan in plans.items())
        assert 0 < misses < 300

    def test_homogeneous_rewards_sum_to_one_pointwise(self):
        config = GameConfig(
            n_arms=5, horizon=500, scaling=ScalingSpec.uniform(1, 2), seed=3
        )
        trace = run_game(config)
        np.testing.assert_array_equal(
            trace.attacker_reward + trace.defender_reward, np.ones(500)
        )


class TestExp3MVPLearner:
    def test_rejects_bad_eta(self):
        with pytest.raises(InvalidConfigError, match=r"eta must be in \(0, 1\), got 0.0"):
            Exp3MVPLearner(4, 0.0)
        with pytest.raises(InvalidConfigError, match=r"eta must be in \(0, 1\), got 1.0"):
            Exp3MVPLearner(4, 1.0)

    @pytest.mark.parametrize("n", [4, 40])
    def test_integer_weights_are_taken_as_floats(self, n):
        # N = 4 keeps the weights in a list, N = 40 in an array
        learners = [Exp3MVPLearner(n, 0.2) for _ in range(2)]
        learners[0].weights = np.arange(1, n + 1)
        learners[1].weights = np.arange(1.0, n + 1)
        for learner in learners:
            _, probs = learner.play(2, 0.5)
            learner.update([0, 1], [1.0, 1.0], probs)  # moves both weights
        assert learners[0].weights.dtype == np.float64
        assert learners[0].weights.tobytes() == learners[1].weights.tobytes()

    @pytest.mark.parametrize("player", [Exp3MVPLearner, Exp3Attacker])
    @pytest.mark.parametrize("n", [4, 40])
    @pytest.mark.parametrize(
        "change", ["short", "long", "matrix", 0.0, -1.0, math.inf, math.nan]
    )
    def test_rejects_weights_that_are_not_n_positive_finite_numbers(self, player, n, change):
        w = np.ones(n)
        if change == "short":
            w = w[:-1]
        elif change == "long":
            w = np.ones(n + 1)
        elif change == "matrix":
            w = np.ones((1, n))
        else:
            w[n // 2] = change
        p = player(n, 0.2)
        with pytest.raises(InvalidConfigError, match=f"weights must be {n} positive finite"):
            p.weights = w
        assert p.weights.tobytes() == np.ones(n).tobytes()

    @pytest.mark.parametrize("player", [Exp3MVPLearner, Exp3Attacker])
    @pytest.mark.parametrize("n", [4, 40])
    def test_weights_are_copied_in_and_out(self, player, n):
        w = np.linspace(0.5, 1.0, n)
        p = player(n, 0.2)
        p.weights = w
        w[0] = 7.0
        p.weights[1] = 7.0
        assert p.weights.tobytes() == np.linspace(0.5, 1.0, n).tobytes()


_SUMMAND = st.builds(lambda x, neg: -x if neg else x, st.floats(1e-300, 1e300), st.booleans())


class TestPairwiseSum:
    # no shrink phase: shrinking lists of up to 300 floats takes minutes
    @settings(max_examples=250, deadline=None, phases=[Phase.reuse, Phase.generate])
    @given(data=st.data())
    def test_matches_numpy_reduce_bit_for_bit(self, data):
        # the short loop below 8 values, blocks of 8 and a tail up to 128,
        # the split above it; sums of signed zeros are +0.0, as numpy's
        n = data.draw(st.integers(0, 300) | st.sampled_from([7, 8, 9, 16, 17, 128, 129, 136]))
        element = data.draw(st.sampled_from([_SUMMAND, _SUMMAND | st.just(-0.0),
                                             st.sampled_from([0.0, -0.0]), st.just(-0.0)]))
        values = data.draw(st.lists(element, min_size=n, max_size=n))
        expected = np.add.reduce(np.array(values, dtype=float))
        assert np.float64(game._pairwise_sum(values)).tobytes() == expected.tobytes()


class TestGreedyAttacker:
    def test_full_tie_is_uniform(self):
        att = GreedyAttacker(4)
        rng = np.random.default_rng(0)
        counts = np.bincount([att.select(rng) for _ in range(40_000)], minlength=4)
        freq = counts / 40_000
        sigma = math.sqrt(0.25 * 0.75 / 40_000)
        assert np.all(np.abs(freq - 0.25) <= 4 * sigma)

    def test_argmin_selection(self):
        att = GreedyAttacker(3)
        att.values[:] = [0.9, 0.1, 0.5]
        assert att.select(np.random.default_rng(0)) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 0.25, 1.0]) | st.floats(0.0, 1.0),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_select_matches_the_flatnonzero_reference(self, values, seed):
        # repeated values, zeros and subnormals: the same arm, the same
        # tie share and the same generator state as the reference selector
        att = GreedyAttacker(len(values))
        att.values[:] = values
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (att.select(rng), att._rho) == greedy_select(values, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_beats_a_fixed_scanning_set(self):
        # defender always scans {0, 1} out of 10; the attacker's long-run
        # average must reach at least (N - b) / N = 0.8
        n = 10
        att = GreedyAttacker(n)
        defender = _FixedDefender([0, 1], n)
        mu = PayoffProfile.homogeneous(n).mu.tolist()
        horizon = 2000
        _, s = _game_rounds(att, defender, [2] * horizon, mu, np.random.default_rng(1))
        # homogeneous payoffs: the attacker scores 1 in every round it is not caught
        assert (horizon - sum(s)) / horizon >= 0.8


class TestGameRuns:
    def test_two_arm_single_play_game_splits_evenly(self):
        # a = b = 1 with two locations: both averages converge to 1/2
        config = GameConfig(
            n_arms=2, horizon=30_000, scaling=ScalingSpec.constant(1), seed=5
        )
        trace = run_game(config)
        r_avg, s_avg = trace.running_averages()
        assert r_avg[-1] == pytest.approx(0.5, abs=0.05)
        assert s_avg[-1] == pytest.approx(0.5, abs=0.05)
        assert attacker_value(PayoffProfile.homogeneous(2), config.scaling.law()) == (0.5, 2)

    def test_attacker_decisions_replay_from_own_feedback(self):
        # information hygiene: the attacker's move at round t is a function
        # of its private random stream and its own past feedback only, so it
        # replays exactly from the recorded game trace
        config = GameConfig(
            n_arms=6,
            horizon=800,
            scaling=ScalingSpec.uniform(1, 3),
            attacker_kind="exp3",
            seed=9,
        )
        trace = run_game(config)
        att_rng = np.random.default_rng(config.seed).spawn(3)[0]
        attacker = make_attacker(config)
        for t in range(config.horizon):
            arm = attacker.select(att_rng)
            assert arm == trace.attacker_arm[t]
            attacker.update(arm, float(trace.attacker_reward[t]))

    def test_greedy_attacker_replay(self):
        config = GameConfig(
            n_arms=6,
            horizon=800,
            scaling=ScalingSpec.uniform(1, 3),
            attacker_kind="greedy",
            seed=10,
        )
        trace = run_game(config)
        scan_sets = np.split(trace.scanned, np.cumsum(trace.play_counts)[:-1])
        att_rng = np.random.default_rng(config.seed).spawn(3)[0]
        attacker = make_attacker(config)
        for t in range(config.horizon):
            arm = attacker.select(att_rng)
            assert arm == trace.attacker_arm[t]
            attacker.update(arm, 0.0 if arm in scan_sets[t] else 1.0)

    @pytest.mark.parametrize("attacker_kind", ["exp3", "greedy"])
    def test_scan_sets_are_consecutive_sorted_segments(self, attacker_kind):
        config = GameConfig(
            n_arms=7,
            horizon=600,
            scaling=ScalingSpec.truncated_gaussian(1, 4, mean=2.5, std=1.2),
            attacker_kind=attacker_kind,
            seed=12,
        )
        trace = run_game(config)
        assert trace.scanned.shape == (trace.play_counts.sum(),)
        scan_sets = np.split(trace.scanned, np.cumsum(trace.play_counts)[:-1])
        assert len(scan_sets) == config.horizon
        for m, i, r, seg in zip(
            trace.play_counts, trace.attacker_arm, trace.attacker_reward, scan_sets
        ):
            assert seg.size == m and 1 <= m <= 4
            assert np.all(np.diff(seg) > 0)  # sorted and distinct
            assert 0 <= seg[0] and seg[-1] < config.n_arms
            # homogeneous payoffs: the attacker scores 0 exactly when scanned
            assert (r == 0.0) == (i in seg)

    def test_replicas_deterministic_and_worker_independent(self):
        config = GameConfig(
            n_arms=5, horizon=300, scaling=ScalingSpec.uniform(1, 2), seed=21
        )
        a = run_game_replicas(config, 3, workers=1)
        b = run_game_replicas(config, 3, workers=1)
        c = run_game_replicas(config, 3, workers=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.attacker_reward, y.attacker_reward)
        for x, y in zip(a, c):
            np.testing.assert_array_equal(x.attacker_reward, y.attacker_reward)
            np.testing.assert_array_equal(x.play_counts, y.play_counts)
            np.testing.assert_array_equal(x.scanned, y.scanned)

    def test_replica_fan_out_rejects_bad_counts(self):
        config = GameConfig(n_arms=5, horizon=10, scaling=ScalingSpec.uniform(1, 2))
        with pytest.raises(InvalidConfigError, match="replicas must be an integer >= 1, got 0"):
            run_game_replicas(config, 0)
        with pytest.raises(InvalidConfigError, match="replicas must be an integer >= 1, got -1"):
            run_game_replicas(config, -1)
        with pytest.raises(InvalidConfigError, match="workers must be >= 1, got 0"):
            map_replicas(run_game, np.random.default_rng(0), 2, 0, config)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError, match="unknown attacker kind 'nope'"):
            GameConfig(n_arms=5, horizon=10, scaling=ScalingSpec.uniform(1, 2),
                       attacker_kind="nope")
        with pytest.raises(InvalidConfigError, match="b=3 must be < number of arms 3"):
            GameConfig(n_arms=3, horizon=10, scaling=ScalingSpec.uniform(1, 3))
        with pytest.raises(InvalidConfigError, match="payoff profile size must match n_arms"):
            GameConfig(
                n_arms=5,
                horizon=10,
                scaling=ScalingSpec.uniform(1, 2),
                payoff=PayoffProfile.homogeneous(4),
            )

    @pytest.mark.parametrize("discount", [0.0, -1.0, 2.0, 1e300, math.nan])
    def test_scan_discount_outside_unit_interval(self, discount):
        with pytest.raises(InvalidConfigError, match="scan_discount"):
            GameConfig(n_arms=5, horizon=10, scaling=ScalingSpec.uniform(1, 2),
                       attacker_kind="greedy", scan_discount=discount)

    @pytest.mark.parametrize("horizon", [1, 50_000])  # at T = 1 the clamp fires
    def test_rates_are_resolved_at_construction(self, horizon):
        scaling = ScalingSpec.uniform(1, 3)
        config = GameConfig(n_arms=10, horizon=horizon, scaling=scaling)
        assert config.defender_eta == min(corollary11_eta(10, 1, 3, horizon)[0], ETA_CLAMP)
        assert config.attacker_eta == min(corollary11_eta(10, 1, 1, horizon)[0], ETA_CLAMP)
        assert make_attacker(config).eta == config.attacker_eta
        given = GameConfig(n_arms=10, horizon=horizon, scaling=scaling,
                           defender_eta=0.3, attacker_eta=0.7)
        assert (given.defender_eta, given.attacker_eta) == (0.3, 0.7)

    def test_greedy_game_has_no_attacker_rate(self):
        config = GameConfig(n_arms=5, horizon=10, scaling=ScalingSpec.uniform(1, 2),
                            attacker_kind="greedy")
        assert (config.attacker_eta, config.scan_discount) == (None, DEFAULT_SCAN_DISCOUNT)
        config = GameConfig(n_arms=5, horizon=10, scaling=ScalingSpec.uniform(1, 2))
        assert config.scan_discount is None

    @pytest.mark.parametrize(
        "rates, message",
        [
            ({"defender_eta": 1.0}, r"defender_eta must be in \(0, 1\), got 1.0"),
            ({"defender_eta": 0.0}, r"defender_eta must be in \(0, 1\), got 0.0"),
            ({"attacker_eta": 1.5}, r"attacker_eta must be in \(0, 1\], got 1.5"),
            ({"attacker_eta": -0.1}, r"attacker_eta must be in \(0, 1\], got -0.1"),
            # each attacker kind takes only its own key, even at a valid value
            ({"attacker_kind": "greedy", "attacker_eta": 0.7},
             "^attacker_eta applies only to the exp3 attacker$"),
            ({"attacker_kind": "greedy", "attacker_eta": 5.0},
             "^attacker_eta applies only to the exp3 attacker$"),
            ({"scan_discount": DEFAULT_SCAN_DISCOUNT},
             "^scan_discount applies only to the greedy attacker$"),
            ({"defender_eta": "x"}, "^defender_eta must be a number, got 'x'$"),
            ({"attacker_eta": [1]}, r"^attacker_eta must be a number, got \[1\]$"),
        ],
    )
    def test_bad_rate_is_rejected_at_construction(self, rates, message):
        with pytest.raises(InvalidConfigError, match=message):
            GameConfig(n_arms=5, horizon=10, scaling=ScalingSpec.uniform(1, 2), **rates)

    def test_scaling_without_a_law_is_rejected(self):
        with pytest.raises(InvalidConfigError, match="'budget_threshold' has no play-count law"):
            GameConfig(n_arms=5, horizon=10,
                       scaling=ScalingSpec(kind="budget_threshold", a=1, b=2))


class TestComparison:
    @pytest.mark.parametrize(
        "change, message, replays",
        [
            ({}, None, 2),
            ({"epsilon": 1.5}, r"epsilon must be in \[0, 1\], got 1.5", 0),
            ({"epsilon": -0.1}, r"epsilon must be in \[0, 1\], got -0.1", 0),
            ({"fixed_m": 6}, "b=6 must be < number of arms 6", 0),  # the trace has 6 arms
            ({"fixed_m": 0}, "need 1 <= a <= b, got a=0 b=0", 0),
        ],
        ids=["valid", "epsilon-above-1", "epsilon-below-0", "fixed_m-equals-N", "fixed_m-0"],
    )
    def test_bad_arguments_fail_before_any_replay(self, monkeypatch, change, message, replays):
        calls = []
        replay = game.run_single_player

        def counted(*args, **kwargs):
            calls.append(args)
            return replay(*args, **kwargs)

        monkeypatch.setattr(game, "run_single_player", counted)
        trace = synthesize_intrusion_trace(
            6, attacked=(1,), horizon=50, n_bursts=4, rng=np.random.default_rng(0)
        )
        if message is None:
            run_comparison(trace, np.random.default_rng(1), **change)
        else:
            with pytest.raises(InvalidConfigError, match=message):
                run_comparison(trace, np.random.default_rng(1), **change)
        assert len(calls) == replays


class TestSinglePlayer:
    def test_eta_resolution(self):
        env, scaling = BernoulliEnv.harmonic(10), ScalingSpec.uniform(1, 3)
        for horizon in (1, 100_000):  # at T = 1 the clamp fires
            tuned = min(corollary11_eta(10, 1, 3, horizon)[0], ETA_CLAMP)
            for eta in ("corollary_1_1", None):
                assert SinglePlayerSpec(env, scaling, eta=eta, horizon=horizon).eta == tuned
            assert SinglePlayerSpec(env, scaling, eta=0.1, horizon=horizon).eta == 0.1
        assert tuned < ETA_CLAMP

    @pytest.mark.parametrize(
        "eta, message",
        [(1.0, r"eta must be in \(0, 1\), got 1.0"), (0.0, r"eta must be in \(0, 1\), got 0.0"),
         (-0.5, r"eta must be in \(0, 1\), got -0.5"),
         ("fast", "^eta must be a number, got 'fast'$"), ([0.1], r"^eta must be a number")],
        ids=["1.0", "0.0", "-0.5", "fast", "list"],
    )
    def test_bad_eta_is_rejected_at_construction(self, eta, message):
        with pytest.raises(InvalidConfigError, match=message):
            SinglePlayerSpec(BernoulliEnv.harmonic(10), ScalingSpec.uniform(1, 3), eta=eta,
                             horizon=10)

    def test_bernoulli_env_needs_a_horizon(self):
        with pytest.raises(InvalidConfigError, match="horizon required for non-trace environments"):
            SinglePlayerSpec(BernoulliEnv.harmonic(4), ScalingSpec.uniform(1, 2), eta=0.1)

    def test_trace_env_sets_horizon(self):
        tr = synthesize_intrusion_trace(
            6, attacked=(1,), horizon=120, n_bursts=4, rng=np.random.default_rng(0)
        )
        spec = SinglePlayerSpec(env=tr, scaling=ScalingSpec.uniform(1, 2))
        assert spec.horizon == 120

    def test_rejects_horizon_out_of_range(self):
        # each used to fail inside the simulation with a numpy error
        for horizon in (0, -5):
            with pytest.raises(InvalidConfigError, match="horizon must be >= 1"):
                SinglePlayerSpec(
                    env=BernoulliEnv.harmonic(4), scaling=ScalingSpec.uniform(1, 2),
                    eta=0.1, horizon=horizon,
                )
        tr = synthesize_intrusion_trace(
            6, attacked=(1,), horizon=4, n_bursts=1, rng=np.random.default_rng(0)
        )
        assert SinglePlayerSpec(env=tr, scaling=ScalingSpec.uniform(1, 2), horizon=4).horizon == 4
        with pytest.raises(InvalidConfigError, match="exceeds the trace's 4 rounds"):
            SinglePlayerSpec(env=tr, scaling=ScalingSpec.uniform(1, 2), horizon=5)

    def test_run_records_consistent_curves(self, monkeypatch):
        spec = SinglePlayerSpec(
            env=BernoulliEnv.harmonic(6),
            scaling=ScalingSpec.uniform(1, 3),
            eta=0.1,
            horizon=400,
        )
        # each round's normalized weights, after the draw and before the update
        normalized = []
        play = Exp3MVPLearner.play

        def recording(self, m, u):
            out = play(self, m, u)
            normalized.append(self.weights / self.weights.sum())
            return out

        monkeypatch.setattr(Exp3MVPLearner, "play", recording)
        run = run_single_player(spec, np.random.default_rng(7), record_weights=True)
        assert run.reward_matrix.shape == (400, 6)
        assert np.all(run.play_counts >= 1) and np.all(run.play_counts <= 3)
        # each round adds the 0/1 rewards of its M_t scanned arms
        gains = np.diff(run.cumulative_reward, prepend=0.0)
        assert np.all(gains == np.round(gains))
        assert np.all(gains >= 0) and np.all(gains <= run.play_counts)
        # recorded marginal rows sum to that round's play count
        np.testing.assert_allclose(
            run.marginals.sum(axis=1), run.play_counts, atol=1e-9
        )
        # normalized weight rows sum to 1
        assert len(normalized) == 400
        np.testing.assert_allclose(np.array(normalized).sum(axis=1), 1.0)

    def test_running_maximum_is_the_weights_maximum(self, monkeypatch):
        # the benchmark's regret instance at its tuned eta, where capping
        # fires: the learner's running maximum equals weights.max() after
        # every update, including rounds whose top arm did not move
        update = Exp3MVPLearner.update
        seen = {"rounds": 0, "capped": 0}

        def checked(self, chosen, rewards, probs):
            update(self, chosen, rewards, probs)
            assert self._max == self.weights.max()
            seen["rounds"] += 1
            seen["capped"] += bool((np.asarray(probs) == 1.0).any())

        monkeypatch.setattr(Exp3MVPLearner, "update", checked)
        spec = SinglePlayerSpec(
            env=BernoulliEnv.harmonic(10),
            scaling=ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8),
            horizon=8000,
        )
        run_single_player(spec, np.random.default_rng(12))
        assert seen["rounds"] == 8000 and seen["capped"] > 1000

    def test_running_maximum_follows_assigned_weights(self):
        learner = Exp3MVPLearner(4, 0.2)
        learner.weights = np.array([0.5, 3.0, 0.25, 1.0])
        assert learner._max == 3.0
        # arm 1 holds the maximum and is not moved
        _, probs = learner.play(2, 0.5)
        learner.update([0, 2], [1.0, 1.0], probs)
        assert learner._max == learner.weights.max() == 1.0
        assert learner.weights[1] == 1.0


class TestUniformBlocks:
    """The round loop draws the defender's or learner's uniforms
    UNIFORM_BLOCK at a time; every record equals a loop that calls
    ``rng.random()`` once per round, whatever the block size.  The horizons
    span several blocks of every size tried, the last one used in part."""

    @pytest.fixture(params=[1, 7, game.UNIFORM_BLOCK])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(game, "UNIFORM_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("kind", ["exp3", "greedy"])
    def test_game_records(self, block, kind):
        config = GameConfig(
            n_arms=8, horizon=2500, scaling=ScalingSpec.uniform(1, 4), attacker_kind=kind,
            payoff=PayoffProfile(mu=np.linspace(1.0, 0.3, 8)), seed=31,
        )
        trace = run_game(config)
        arms, scanned, r, s = game_one_draw_per_round(config, np.random.default_rng(31))
        for got, want in zip(
            (trace.attacker_arm, trace.scanned, trace.attacker_reward, trace.defender_reward),
            (arms, scanned, r, s),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("env", ["bernoulli", "trace"])
    @pytest.mark.parametrize("kind", ["truncated_gaussian", "budget_threshold"])
    def test_single_player_records(self, block, env, kind):
        n, horizon = 8, 2500
        if env == "trace":
            env = synthesize_intrusion_trace(
                n, attacked=(1, 5), horizon=horizon, n_bursts=40, rng=np.random.default_rng(4)
            )
        else:
            env = BernoulliEnv.harmonic(n)
        if kind == "budget_threshold":
            scaling = ScalingSpec(kind=kind, a=1, b=3, threshold=0.2)
        else:
            scaling = ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8)
        spec = SinglePlayerSpec(env=env, scaling=scaling, horizon=horizon)
        run = run_single_player(spec, np.random.default_rng(8))
        play_counts, cumulative = single_player_one_draw_per_round(
            spec, np.random.default_rng(8)
        )
        assert run.play_counts.dtype == play_counts.dtype
        assert run.play_counts.tobytes() == play_counts.tobytes()
        assert run.cumulative_reward.tobytes() == cumulative.tobytes()
        if kind == "budget_threshold":
            assert len(set(play_counts.tolist())) > 1  # the budget moved the play count
