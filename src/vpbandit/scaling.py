"""Rules that decide how many arms the defender plays each round.

The play count is produced by a pluggable rule bounded by integers
``a <= M_t <= b``, and this module alone knows its law: ``sample_arm_counts``
draws the whole sequence of a stateless kind in one batch,
``sample_arm_count`` decides one round of ``budget_threshold``, and
``ScalingSpec.law`` gives the exact law of M_t for every stateless kind.
The ``budget_threshold`` kind is our own illustrative rule (the contract
only requires boundedness), combining a resource budget with the number of
arms whose recent reward average looks active.

That rule's window is sparse: a round changes the estimates of at most b
arms, so ``MovingAverage`` stores each round as its nonzero (arm, estimate)
pairs, updates the sums of only the arms of the new and the evicted round,
and keeps the set of hot arms, which ``sample_arm_count`` reads.  Once the
window is full a round costs O(touched arms), not O(N).  The bits are those
of a dense (window, N) numpy ring updated by ``sums += row - evicted``: at
an arm neither round touches that adds ``0.0 - 0.0 = +0.0``, and ``s + 0.0``
is ``s`` for every double but -0.0.  No sum is -0.0: sums start at +0.0,
an estimate is y/p with y >= 0 and p > 0, so no difference e - r is -0.0,
and a rounded sum is -0.0 only when both addends are.  A touched arm gets
the same ``s + (e - r)``, with 0.0 for the side that does not hold it, and
its average the same ``s / filled``, compared with the threshold's double
as numpy compares it.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidConfigError

KINDS = ("constant", "uniform_discrete", "truncated_gaussian", "budget_threshold")

#: Smallest Gaussian mass on [a - 1/2, b + 1/2] accepted for the truncated
#: Gaussian: below it, rejection sampling needs over 1000 normal draws per
#: play count (and at mass 0 it never ends).
MIN_GAUSSIAN_MASS = 1e-3


class MovingAverage:
    """Per-arm mean of the last ``window`` reward estimates, and the arms
    whose mean exceeds ``threshold``.

    Arms with no history yet average to 0 by convention, so unexplored arms
    do not inflate the play-count budget; with a negative threshold every
    arm is hot before the first push.  The ring holds one dict per round,
    arm -> estimate, and the sums are Python floats: ``push`` adds
    ``e - r`` (new estimate minus evicted one, 0.0 for the side without the
    arm) to the sum of each arm of the two rounds, the same double a dense
    numpy ring adds there; at every other arm it would add +0.0, which
    changes no sum (module docstring).  While the window fills every
    average moves, so every arm is re-tested; after that only the touched
    ones.  ``hot`` is compared with ``float(threshold)``, the double numpy
    compares an array with.
    """

    def __init__(self, n_arms, window, threshold=0.0):
        self._rows = [{}] * window  # ring, one round's nonzero estimates per slot
        self._sums = [0.0] * n_arms
        self._pushes = 0
        self._threshold = float(threshold)
        self.hot = set(range(n_arms)) if 0.0 > self._threshold else set()

    def push(self, estimates):
        """Add one round: a dict arm -> estimate, which the ring keeps.
        Arms left out estimate 0.0, so zero estimates may be left out."""
        rows = self._rows
        pushes = self._pushes
        slot = pushes % len(rows)
        evicted = rows[slot]
        rows[slot] = estimates
        self._pushes = pushes + 1
        s = self._sums
        for j, e in estimates.items():
            s[j] += e - evicted.get(j, 0.0)
        for j, r in evicted.items():
            if j not in estimates:
                s[j] += 0.0 - r
        threshold = self._threshold
        if pushes < len(rows):  # the window fills: every average moved
            self.hot = {j for j, x in enumerate(s) if x / (pushes + 1) > threshold}
            return
        window = len(rows)
        hot = self.hot
        for j in chain(estimates, evicted):
            if s[j] / window > threshold:
                hot.add(j)
            else:
                hot.discard(j)


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
        if self.kind == "budget_threshold":
            t = self.threshold
            # NaN, the infinities and ints beyond a double fail the bound
            finite = isinstance(t, numbers.Real) and abs(t) <= sys.float_info.max
            if isinstance(t, bool) or not finite:
                raise InvalidConfigError(
                    f"budget_threshold threshold must be a finite real number, got {t!r}"
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
    over ``BUDGET_WINDOW`` rounds built with the spec's threshold, exceeds
    that threshold, clipped to [a, b]: b is the budget.
    """
    return min(spec.b, max(spec.a, len(ma.hot)))


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
