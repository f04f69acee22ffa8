"""Tests for the single-play frequentist baselines."""

import math

import numpy as np
import pytest

from vpbandit.baselines import FrequentistState, epsilon_greedy_select, ucb1_select
from vpbandit.errors import InvalidConfigError


class TestUcb1:
    def test_unpulled_arms_first_in_index_order(self):
        st = FrequentistState(3)
        assert ucb1_select(st) == 0
        st.update(0, 1.0)
        assert ucb1_select(st) == 1
        st.update(1, 0.0)
        assert ucb1_select(st) == 2

    def test_index_formula(self):
        st = FrequentistState(2)
        st.update(0, 1.0)
        st.update(1, 0.0)
        # indices: 1 + sqrt(2 ln 2) vs 0 + sqrt(2 ln 2)
        bonus = math.sqrt(2 * math.log(2))
        assert 1 + bonus == pytest.approx(2.177, abs=1e-3)
        assert ucb1_select(st) == 0

    def test_converges_to_best_bernoulli_arm(self):
        means = np.array([0.2, 0.8, 0.5, 0.4])
        rng = np.random.default_rng(0)
        st = FrequentistState(4)
        horizon = 20_000
        picks = np.empty(horizon, dtype=int)
        for t in range(horizon):
            arm = ucb1_select(st)
            st.update(arm, float(rng.random() < means[arm]))
            picks[t] = arm
        tail = picks[-horizon // 10 :]
        assert np.mean(tail == 1) > 0.9


class TestEpsilonGreedy:
    def test_pure_exploitation(self):
        st = FrequentistState(2)
        st.update(0, 0.2)
        st.update(1, 0.9)
        rng = np.random.default_rng(0)
        assert all(epsilon_greedy_select(st, 0.0, rng) == 1 for _ in range(50))

    def test_pure_exploration_is_uniform(self):
        st = FrequentistState(5)
        rng = np.random.default_rng(1)
        draws = 100_000
        counts = np.bincount(
            [epsilon_greedy_select(st, 1.0, rng) for _ in range(draws)], minlength=5
        )
        sigma = math.sqrt(0.2 * 0.8 / draws)
        assert np.all(np.abs(counts / draws - 0.2) <= 3 * sigma)

    def test_mixture_frequency_of_the_best_arm(self):
        # frozen means, unique argmax: P(best) = 0.9 + 0.1/10 = 0.91
        st = FrequentistState(10)
        for arm in range(10):
            st.update(arm, 0.95 if arm == 4 else 0.1 * arm / 10)
        rng = np.random.default_rng(2)
        draws = 100_000
        freq = np.mean([epsilon_greedy_select(st, 0.1, rng) == 4 for _ in range(draws)])
        sigma = math.sqrt(0.91 * 0.09 / draws)
        assert abs(freq - 0.91) <= 3 * sigma

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidConfigError, match=r"epsilon must be in \[0, 1\], got 1.5"):
            epsilon_greedy_select(FrequentistState(2), 1.5, np.random.default_rng(0))
