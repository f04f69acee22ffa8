"""Single-play stochastic baselines: UCB1 and epsilon-greedy.

Both keep simple frequentist statistics (pull counts and empirical means).
Ties are always broken toward the lowest index so runs are reproducible.
"""

import math

import numpy as np

from .errors import InvalidConfigError


class FrequentistState:
    """Pull counts and incrementally updated empirical means.

    ``update`` reads and writes the two arrays through memoryviews of them,
    as Python ints and floats: the same IEEE operations as on numpy scalars.
    """

    def __init__(self, n_arms):
        self.n_arms = n_arms
        self.counts = np.zeros(n_arms, dtype=int)
        self.means = np.zeros(n_arms)
        self._counts = memoryview(self.counts)
        self._means = memoryview(self.means)
        self.t = 0

    def update(self, arm, reward):
        self.t += 1
        k = self._counts[arm] + 1
        self._counts[arm] = k
        mean = self._means[arm]
        self._means[arm] = mean + (reward - mean) / k


def ucb1_select(state):
    """Arm with the largest mean + sqrt(2 ln t / n) index.

    Each arm is pulled once first, in index order.
    """
    counts = state.counts
    first = int(counts.argmin())  # the lowest index of the smallest count
    if counts[first] == 0:
        return first
    bonus = np.sqrt(2.0 * math.log(state.t) / counts)
    return int((state.means + bonus).argmax())


def epsilon_greedy_select(state, epsilon, rng):
    """Uniform arm with probability epsilon, otherwise the empirical best."""
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.random() < epsilon:
        return int(rng.integers(state.n_arms))
    return int(state.means.argmax())
