"""Rules that decide how many arms the defender plays each round.

The play count is produced by a pluggable rule bounded by integers
``a <= M_t <= b``, and this module alone knows its law: ``sample_arm_counts``
draws the whole sequence of a stateless kind in one batch,
``sample_arm_count`` decides one round of ``budget_threshold``, and
``ScalingSpec.law`` gives the exact law of M_t for every stateless kind.
The ``budget_threshold`` kind is our own illustrative rule (the contract
only requires boundedness), combining a resource budget with the number of
arms whose recent reward average looks active.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

KINDS = ("constant", "uniform_discrete", "truncated_gaussian", "budget_threshold")

#: Smallest Gaussian mass on [a - 1/2, b + 1/2] accepted for the truncated
#: Gaussian: below it, rejection sampling needs over 1000 normal draws per
#: play count (and at mass 0 it never ends).
MIN_GAUSSIAN_MASS = 1e-3


class MovingAverage:
    """Per-arm mean of the last ``window`` reward estimates.

    Arms with no history yet average to 0 by convention, so unexplored arms
    do not inflate the play-count budget.
    """

    def __init__(self, n_arms, window):
        self._buf = np.zeros((window, n_arms))  # ring buffer, one row per push
        self._sums = np.zeros(n_arms)
        self._pushes = 0

    @property
    def averages(self):
        filled = min(self._pushes, len(self._buf))
        return self._sums / filled if filled else np.zeros(self._sums.size)

    def push(self, estimates):
        row = self._buf[self._pushes % len(self._buf)]
        self._sums += estimates - row
        row[:] = estimates
        self._pushes += 1


@dataclass
class ScalingSpec:
    """Declarative description of a play-count rule with bounds [a, b]."""

    kind: str
    a: int
    b: int
    m: int = None  # constant kind
    mean: float = None  # truncated_gaussian
    std: float = None
    threshold: float = 0.1  # budget_threshold

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfigError(f"unknown scaling kind {self.kind!r}")
        if not 1 <= self.a <= self.b:
            raise InvalidConfigError(f"need 1 <= a <= b, got a={self.a} b={self.b}")
        if self.kind == "constant":
            if self.m is None:
                self.m = self.a
            if not self.a <= self.m <= self.b:
                raise InvalidConfigError(f"constant m={self.m} outside [{self.a}, {self.b}]")
        if self.kind == "truncated_gaussian":
            if self.mean is None or self.std is None or self.std <= 0:
                raise InvalidConfigError("truncated_gaussian needs mean and std > 0")
            mass = self._gaussian_mass(self.a - 0.5, self.b + 0.5)
            if not mass >= MIN_GAUSSIAN_MASS:  # also rejects NaN
                raise InvalidConfigError(
                    f"truncated_gaussian mean={self.mean} std={self.std} has mass {mass:.3g} "
                    f"on [{self.a - 0.5}, {self.b + 0.5}], below {MIN_GAUSSIAN_MASS}"
                )

    def _gaussian_mass(self, lo, hi):
        """P(lo <= X <= hi) for X ~ N(mean, std^2).

        Taken as a difference of the two smaller tails, so that tiny masses
        keep their digits.
        """
        lo = (lo - self.mean) / (self.std * math.sqrt(2.0))
        hi = (hi - self.mean) / (self.std * math.sqrt(2.0))
        if lo + hi > 0:
            return 0.5 * (math.erfc(lo) - math.erfc(hi))
        return 0.5 * (math.erfc(-hi) - math.erfc(-lo))

    def validate_for(self, n_arms):
        if self.b >= n_arms:
            raise InvalidConfigError(f"b={self.b} must be < number of arms {n_arms}")

    def law(self):
        """Exact law of the play count, ``(counts, probs, mean)``.

        ``None`` for ``budget_threshold``, whose count follows the rewards.
        The truncated Gaussian rounds to k with probability proportional to
        P(k - 1/2 <= X <= k + 1/2), so its mean is sum_k k P(k); an interval
        symmetric about the Gaussian mean keeps that mean exactly.
        """
        if self.kind == "constant":
            return (self.m,), (1.0,), float(self.m)
        counts = tuple(range(self.a, self.b + 1))
        if self.kind == "uniform_discrete":
            return counts, (1.0 / len(counts),) * len(counts), 0.5 * (self.a + self.b)
        if self.kind == "truncated_gaussian":
            masses = [self._gaussian_mass(k - 0.5, k + 0.5) for k in counts]
            total = math.fsum(masses)
            probs = tuple(p / total for p in masses)
            if abs((self.mean - self.a) - (self.b - self.mean)) < 1e-12:
                return counts, probs, float(self.mean)
            return counts, probs, math.fsum(k * p for k, p in zip(counts, masses)) / total
        return None

    @classmethod
    def constant(cls, m):
        return cls(kind="constant", a=m, b=m, m=m)

    @classmethod
    def uniform(cls, a, b):
        return cls(kind="uniform_discrete", a=a, b=b)

    @classmethod
    def truncated_gaussian(cls, a, b, mean, std):
        return cls(kind="truncated_gaussian", a=a, b=b, mean=mean, std=std)


#: Rounds of reward estimates that the ``budget_threshold`` rule averages.
BUDGET_WINDOW = 10


def sample_arm_count(spec, ma):
    """This round's play count under the ``budget_threshold`` rule.

    The number of arms whose recent average in ``ma``, a ``MovingAverage``
    over ``BUDGET_WINDOW`` rounds, exceeds the threshold, clipped to
    [a, b]: b is the budget.
    """
    hot = len((ma.averages > spec.threshold).nonzero()[0])
    return min(spec.b, max(spec.a, hot))


def sample_arm_counts(spec, count, rng):
    """The whole play-count sequence of a stateless kind, in one batch.

    The truncated Gaussian rejects draws outside [a - 0.5, b + 0.5) and
    rounds half up to the nearest integer, which lands in [a, b] and keeps
    the integer mean equal to the Gaussian mean when the interval is
    symmetric about it.
    """
    a, b = spec.a, spec.b
    if spec.kind == "constant":
        return np.full(count, spec.m, dtype=int)
    if spec.kind == "uniform_discrete":
        return a + rng.integers(0, b - a + 1, size=count)
    if spec.kind == "truncated_gaussian":
        lo, hi = a - 0.5, b + 0.5
        out = np.empty(count, dtype=int)
        filled = 0
        while filled < count:
            x = rng.normal(spec.mean, spec.std, size=max(count - filled, 64))
            x = x[(x >= lo) & (x < hi)]
            take = min(x.size, count - filled)
            out[filled : filled + take] = np.floor(x[:take] + 0.5)
            filled += take
        return out
    raise InvalidConfigError(f"kind {spec.kind!r} cannot be batch-sampled")
