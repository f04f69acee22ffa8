"""Repeated pursuit-evasion game and simulation loops.

One attacker picks a single location per round; the defender scans a
varying-size subset.  With homogeneous payoffs the round rewards couple as
a constant-sum game: the attacker scores 1 exactly when its location is not
scanned.

A single-player run and a game play the same round, in one loop
(``_rounds``): the variable-play learner draws a scan set, the run's reward
source observes it, and the learner is updated with the observations at
the scanned arms.  A single-player run's source reads a row of a fixed
reward matrix.  A game's source is the attacker, through ``play_round``: it
selects from its own stream, scores the scan set and updates.  A round the
attacker escapes scores 0 at every scanned arm, an update that moves no
weight, so the source returns no observations and the defender is not
updated.  Both players see only their own bandit feedback; their actions
are drawn from separate pre-committed random streams, so neither move can
depend on the other's current choice.  The learner uses one uniform per
round; the loop draws them ``UNIFORM_BLOCK`` at a time from the learner's
stream and passes each to ``play``.  ``rng.random(k)`` gives the doubles of
k calls of ``rng.random()``, so no result depends on the block size.  The
single-play learners of ``run_comparison`` (exp3, UCB1, epsilon-greedy)
replay their trace in a loop of their own.

``Exp3MVPLearner`` is the package's one implementation of the
variable-play learner; ``bandit_core`` supplies its capping and
subset-sampling steps.  The learners own their weights and update them in
place; assigning ``weights`` takes a checked float64 copy, and reading it
returns a new array.  Where the weights of the variable-play learner and
the Exp3 attacker live is set by N alone, when they are assigned: up to
``SMALL_PLAN_ARMS`` arms a list of Python floats, where numpy's fixed cost
per call would dominate a few numbers, above it a numpy array.  Both forms
hold the same doubles after every step: a weight's update and a rescale
are the same IEEE operations on either, a running sum is sequential on
both, and a list's total is summed by ``_pairwise_sum`` in the order of
numpy's ``np.add.reduce``.

The defender's weights move only in rounds where it catches the attacker,
so the learner caches a plan per play count m: the marginals, exactly 1.0
at the capped arms and only there; their running sums with the capped arms
counted as 0, which ``dep_round`` searches as its ``cumulative`` argument;
and the capped arms, which it takes outright.  The first two are read-only
sequences of N floats: two tuples of Python floats, built per element, on
a list of weights; a read-only array and a read-only memoryview of the
running sums, built by numpy, on an array.  Both builders do the same IEEE
operations in the same order (a multiply, an add, then a sequential
running sum), so the two plans hold the same doubles.  A plan is built the
first time m is played and dropped when the weights are assigned or an
update moves a weight; the weights' total, which every uncapped plan
divides by, is summed once per weight version.  With play counts in
[a, b] at most (b - a + 1) plans exist.  The attacker likewise keeps the
running sums it bisects until an update moves a weight.

The per-round records of a run are appended to ``array.array`` buffers of
8-byte items and handed out as numpy arrays over the same memory.
"""

import functools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .analysis import corollary11_eta
from .bandit_core import cap_threshold, dep_round
from .baselines import FrequentistState, epsilon_greedy_select, ucb1_select
from .environments import IntrusionTrace, PayoffProfile, bernoulli_rewards
from .errors import InvalidConfigError
from .scaling import BUDGET_WINDOW, MovingAverage, ScalingSpec, sample_arm_count, sample_arm_counts

DEFAULT_SCAN_DISCOUNT = 0.01
ETA_CLAMP = 1.0 - 1e-6  # tuned rates are clamped below 1, the learner's open bound
UNIFORM_BLOCK = 1024  # uniforms a simulation loop draws from a player's stream at once
# up to this many arms both players keep their weights as a list of Python
# floats and the learner builds its plans on them, above it with numpy; the
# crossover of the two builders' cost (README)
SMALL_PLAN_ARMS = 32


def _eta(eta, n_arms, a, b, horizon, key="eta"):
    """``eta`` as a float; ``None`` or ``"corollary_1_1"`` asks for the
    horizon-tuned rate of Corollary 1.1, clamped to ETA_CLAMP.  A rate that
    is not a number raises ``InvalidConfigError`` naming ``key``."""
    if eta is None or eta == "corollary_1_1":
        return min(corollary11_eta(n_arms, a, b, horizon)[0], ETA_CLAMP)
    try:
        return float(eta)
    except (TypeError, ValueError):
        raise InvalidConfigError(f"{key} must be a number, got {eta!r}") from None


def _pairwise_sum(values):
    """``float(np.add.reduce(values))`` of a list of floats, bit for bit.

    numpy sums pairwise: below 8 values one running sum, up to 128 eight
    running sums over blocks of 8, combined as a tree, then the tail in
    order; above 128 it splits at n/2 rounded down to a multiple of 8 and
    recurses.  Its reduce starts at 0.0, so a sum of zeros is +0.0.  The
    builtin ``sum`` is never called: since Python 3.12 it adds floats with
    compensation, which rounds differently, and the package supports 3.10.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    if end > 8:  # an empty loop still costs its range
        for i in range(8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for x in values[end:]:
        total += x
    return total


def _weight_state(w, n_arms):
    """``(weights, view, maximum)`` of an assigned weight vector: a float64
    copy the player owns, checked to hold N positive finite weights.  Up to
    SMALL_PLAN_ARMS arms the weights are a list of Python floats and their
    own view, above it an array and a memoryview of it; either view reads
    and writes single weights as Python floats."""
    w = np.array(w, dtype=float)
    if w.shape != (n_arms,) or not 0.0 < w.min() <= w.max() < math.inf:  # NaN fails too
        raise InvalidConfigError(f"weights must be {n_arms} positive finite numbers")
    top = float(w.max())
    if n_arms <= SMALL_PLAN_ARMS:
        ws = w.tolist()
        return ws, ws, top
    return w, memoryview(w), top


def _divide(weights, top):
    """Divide every weight by ``top`` in place, in either form; the list's
    ``x / top`` is the same IEEE division as the array's."""
    if isinstance(weights, list):
        weights[:] = [x / top for x in weights]
    else:
        weights /= top


def _rounds(learner, horizon, counts, rng, observe):
    """Play ``horizon`` rounds, one per count in ``counts``, read lazily; ``observe(t, chosen,
    probs)`` gives the rewards at ``chosen``, which update the learner, or ``None``, which
    scores 0 and moves no weight.  Returns the rounds' play counts and rewards."""
    play_counts, round_rewards = array("q"), array("d")
    uniforms = chain.from_iterable(
        rng.random(min(UNIFORM_BLOCK, horizon - start)).tolist()
        for start in range(0, horizon, UNIFORM_BLOCK)
    )
    for t, m, u in zip(range(horizon), counts, uniforms):
        chosen, probs = learner.play(m, u)
        obs = observe(t, chosen, probs)
        if obs is not None:
            learner.update(chosen, obs, probs)
        play_counts.append(m)
        round_rewards.append(sum(obs) if obs is not None else 0.0)  # exact: 0/1 or one nonzero
    return np.frombuffer(play_counts, dtype=np.int64), np.frombuffer(round_rewards)


# ---------------------------------------------------------------------------
# learner wrappers (select/update split so simultaneous moves are possible)


class Exp3MVPLearner:
    """Variable-play learner: capped exponential weights, subsets drawn by
    systematic sampling, and importance-weighted multiplicative updates of
    the uncapped arms.

    The learner owns its weights: assigning them takes a float64 copy, and
    reading them returns a new array.  Each play count's plan is cached
    until the weights are assigned or an update moves one (see the module
    docstring).
    """

    def __init__(self, n_arms, eta):
        if not 0.0 < eta < 1.0:
            raise InvalidConfigError(f"eta must be in (0, 1), got {eta}")
        self.n_arms = n_arms
        self.eta = eta
        self.weights = np.ones(n_arms)

    @property
    def weights(self):
        return np.array(self._weights)

    @weights.setter
    def weights(self, w):
        # the form, a list or an array, is set here by N alone; ``_plan`` and
        # ``update`` follow it.  ``_max`` is the running maximum they read.
        self._weights, self._view, self._max = _weight_state(w, self.n_arms)
        self._drop_plans()

    def _drop_plans(self):
        self._plans = {}
        self._total = None  # the weights' sum, computed by the first plan that needs it

    def _plan(self, m):
        """Build and cache ``(probs, cumulative, capped)`` for play count m:
        ``probs`` and ``cumulative`` are two tuples of floats when the
        weights are a list, else a read-only array and a read-only
        memoryview; ``capped`` is a tuple of the arms at 1.0."""
        w = self._weights
        n = self.n_arms
        if not 1 <= m < n:
            raise InvalidConfigError(f"m must satisfy 1 <= m < {n}, got {m}")
        eta = self.eta
        small = isinstance(w, list)
        c = (1.0 / m - eta / n) / (1.0 - eta)
        total = self._total
        if total is None:
            # what ``w.sum()`` computes, without its Python wrapper
            total = self._total = _pairwise_sum(w) if small else float(np.add.reduce(w))
        kappa = None
        if self._max >= c * total:
            kappa = cap_threshold(w, c)
            if small:
                total = _pairwise_sum([x if x < kappa else kappa for x in w])
            else:
                total = float(np.add.reduce(np.minimum(w, kappa)))
        scale = m * (1.0 - eta) / total
        floor = m * eta / n
        # the capped arms add nothing to the running sums; their marginals are
        # algebraically exactly 1, and pinned so downstream code can rely on it
        if small:
            capped = () if kappa is None else tuple([i for i, x in enumerate(w) if x >= kappa])
            probs = [x * scale + floor for x in w]
            for i in capped:
                probs[i] = 0.0
            cumulative = tuple(accumulate(probs))
            for i in capped:
                probs[i] = 1.0
            plan = self._plans[m] = (tuple(probs), cumulative, capped)
            return plan
        capped = () if kappa is None else tuple((w >= kappa).nonzero()[0].tolist())
        probs = w * scale
        probs += floor
        for i in capped:
            probs[i] = 0.0
        cumulative = np.add.accumulate(probs)
        for i in capped:
            probs[i] = 1.0
        probs.flags.writeable = False
        cumulative.flags.writeable = False
        plan = self._plans[m] = (probs, memoryview(cumulative), capped)
        return plan

    def play(self, m, u):
        """Draw a scan set of ``m`` of the ``N`` arms; returns ``(chosen, probs)``.

        ``probs`` are the selection marginals: large weights are capped so
        every marginal stays at most 1, and the remaining mass is mixed with
        uniform exploration eta/N.  ``probs`` sums to ``m``, is exactly 1.0
        at the capped arms and only there, and is the cached plan's
        read-only sequence of floats: a tuple up to ``SMALL_PLAN_ARMS``
        arms, else a read-only array (see the module docstring).  ``chosen``
        is the list of increasing arm indices that ``dep_round`` draws from
        ``probs`` with the uniform ``u``.
        """
        probs, cumulative, capped = self._plans.get(m) or self._plan(m)
        return dep_round(m, probs, u, cumulative, capped), probs

    def update(self, chosen, rewards, probs):
        """Importance-weighted multiplicative update, then rescale max to 1.

        ``probs`` is the plan ``play`` returned, either kind of sequence.
        An arm at marginal 1.0 is capped and keeps its weight.  Rewards are
        nonnegative, so a moved weight only grows and the new maximum is
        the larger of the running maximum and the moved weights; dividing by
        it leaves the maximum at exactly 1.0.  Single weights are read and
        written as Python floats, in the list or through the array's
        memoryview.  The rescale is skipped when the new maximum is already
        exactly 1.0, since dividing by 1.0 changes no weight, and skipped
        with the cached plans kept when no weight moved.
        """
        w = self._view
        coef = len(chosen) * self.eta / self.n_arms
        top = self._max
        moved = False
        for j, y in zip(chosen, rewards):
            if y:
                p = probs[j]
                if p == 1.0:
                    continue
                v = w[j] * math.exp(coef * (y / p))
                w[j] = v
                if v > top:
                    top = v
                moved = True
        if moved:
            if top != 1.0:  # dividing by 1.0 changes no weight
                _divide(self._weights, top)
            self._max = 1.0
            self._drop_plans()


class Exp3Attacker:
    """Single-play exponential-weight learner with exploration mixing.

    Keeps weights ``exp(cumulative_estimate)`` directly and samples
    the mixture (1 - eta) * weight-proportional + eta * uniform exactly, so
    a round costs O(N) with no exponentiation of the whole vector.  The
    weights take the learner's form by the same rule on N (see
    ``Exp3MVPLearner.weights``): a list of Python floats up to
    SMALL_PLAN_ARMS arms, else an array.  ``select`` bisects their running
    sums, cached until an update with a nonzero reward moves a weight.
    """

    def __init__(self, n_arms, eta):
        if not 0.0 < eta <= 1.0:
            raise InvalidConfigError(f"eta must be in (0, 1], got {eta}")
        self.n_arms = n_arms
        self.eta = eta
        self.weights = np.ones(n_arms)

    @property
    def weights(self):
        return np.array(self._weights)

    @weights.setter
    def weights(self, w):
        self._weights, self._view, _ = _weight_state(w, self.n_arms)
        self._cumulative = None

    def select(self, rng):
        n = self.n_arms
        if rng.random() < self.eta:
            return int(rng.integers(n))
        cs = self._cumulative
        if cs is None:
            w = self._weights
            # both sum sequentially, so they hold the same doubles
            cs = list(accumulate(w)) if isinstance(w, list) else memoryview(np.add.accumulate(w))
            self._cumulative = cs
        # the weights are positive, so u * cs[-1] <= cs[-1] finds an arm below n;
        # on the increasing sums, bisect_left is searchsorted's left side
        return bisect_left(cs, rng.random() * cs[n - 1])

    def update(self, arm, reward):
        """Multiply the played arm's weight by exp((eta / N) * reward / p),
        where p is the arm's selection probability before the update."""
        if not reward:
            return  # the factor is exp(0) = 1: no weight moves
        eta, n = self.eta, self.n_arms
        w, view = self._weights, self._view
        total = _pairwise_sum(w) if isinstance(w, list) else float(np.add.reduce(w))
        wa = view[arm]
        p = (1.0 - eta) * wa / total + eta / n
        v = wa * math.exp((eta / n) * reward / p)
        view[arm] = v
        self._cumulative = None
        if v > 1e100:  # no weight exceeds 1e100 after an update, so v is the maximum
            _divide(w, v)


class GreedyAttacker:
    """Attacks the location it believes is scanned least often.

    The scan-frequency estimate ``values`` only uses the attacker's own
    feedback: an importance-weighted scan indicator with exponential
    discounting, with uniform tie-breaking over the current argmin set.
    """

    def __init__(self, n_arms, discount=DEFAULT_SCAN_DISCOUNT):
        self.n_arms = n_arms
        self.values = np.zeros(n_arms)
        self.discount = discount
        self._rho = 1.0

    def select(self, rng):
        v = self.values
        ties = (v == v[v.argmin()]).nonzero()[0]  # the arms at the minimum
        k = ties.size
        self._rho = 1.0 / k
        return int(ties[0] if k == 1 else ties[rng.integers(k)])

    def update(self, arm, reward):
        # payoffs lie in (0, 1], so a reward of 0 means the location was scanned
        lam = self.discount
        v = self.values
        v *= 1.0 - lam
        v[arm] += lam * (float(reward == 0) / self._rho)


# ---------------------------------------------------------------------------
# single-player simulation


@dataclass
class SinglePlayerSpec:
    """A variable-play learner against a fixed reward process."""

    env: object  # BernoulliEnv or IntrusionTrace
    scaling: ScalingSpec
    eta: object = "corollary_1_1"  # a float or the tuning rule (see _eta); stored resolved
    horizon: int = None

    def __post_init__(self):
        if self.horizon is None:
            if isinstance(self.env, IntrusionTrace):
                self.horizon = self.env.n_rounds
            else:
                raise InvalidConfigError("horizon required for non-trace environments")
        if self.horizon < 1:
            raise InvalidConfigError(f"horizon must be >= 1, got {self.horizon}")
        if isinstance(self.env, IntrusionTrace) and self.horizon > self.env.n_rounds:
            raise InvalidConfigError(
                f"horizon {self.horizon} exceeds the trace's {self.env.n_rounds} rounds"
            )
        self.scaling.validate_for(self.n_arms)
        self.eta = _eta(self.eta, self.n_arms, self.scaling.a, self.scaling.b, self.horizon)
        if not 0.0 < self.eta < 1.0:
            raise InvalidConfigError(f"eta must be in (0, 1), got {self.eta}")

    @property
    def n_arms(self):
        return self.env.n_arms


@dataclass
class SinglePlayerRun:
    """Raw per-round record of one replica."""

    reward_matrix: np.ndarray  # realized rewards of all arms, (T, N)
    play_counts: np.ndarray
    cumulative_reward: np.ndarray  # G(t) curve
    marginals: np.ndarray = None  # (T, N) selection marginals if recorded


def run_single_player(spec, rng, record_weights=False):
    """Simulate the variable-play learner over one reward realization."""
    n = spec.n_arms
    horizon = spec.horizon
    env_rng, scale_rng, learner_rng = rng.spawn(3)
    learner = Exp3MVPLearner(n, spec.eta)
    needs_ma = spec.scaling.kind == "budget_threshold"
    ma = MovingAverage(n, BUDGET_WINDOW) if needs_ma else None
    if isinstance(spec.env, IntrusionTrace):
        rewards = spec.env.indicators[:horizon].astype(float)
    else:
        rewards = bernoulli_rewards(spec.env, horizon, env_rng)
    reward = memoryview(rewards)  # reward[t, j] is a Python float
    margs = np.empty((horizon, n)) if record_weights else None
    if needs_ma:  # lazy: each count reads the estimates of the rounds before it
        counts = (sample_arm_count(spec.scaling, ma) for _ in range(horizon))
    else:
        counts = sample_arm_counts(spec.scaling, horizon, scale_rng).tolist()

    def observe(t, chosen, probs):
        obs = []
        for j in chosen:  # on Python 3.11 a comprehension builds a closure per call
            obs.append(reward[t, j])
        if record_weights:
            margs[t] = probs
        if needs_ma:
            est = np.zeros(n)
            for j, y in zip(chosen, obs):
                est[j] = y / probs[j]
            ma.push(est)
        return obs

    play_counts, round_rewards = _rounds(learner, horizon, counts, learner_rng, observe)
    return SinglePlayerRun(
        reward_matrix=rewards,
        play_counts=play_counts,
        cumulative_reward=np.cumsum(round_rewards),
        marginals=margs,
    )


# ---------------------------------------------------------------------------
# algorithm comparison on a fixed trace


def run_comparison(trace, rng, epsilon=0.1, vp_scaling=None, fixed_m=3, eta=None):
    """Cumulative average reward of five learners replaying one trace.

    Returns a dict name -> curve of length T.  The multi-play learners score
    the sum of indicators over their scan set; single-play learners score
    the indicator of their one arm.  ``eta`` overrides the exploration rate
    of every exponential-weights learner; by default each uses the
    horizon-tuned rule for its own play-count bounds.  Every argument is
    checked before the first replay.
    """
    horizon = trace.n_rounds
    n = trace.n_arms
    if vp_scaling is None:
        vp_scaling = ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8)
    specs = {
        "exp3mvp": SinglePlayerSpec(env=trace, scaling=vp_scaling, eta=eta),
        "exp3m": SinglePlayerSpec(env=trace, scaling=ScalingSpec.constant(fixed_m), eta=eta),
    }
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    t_axis = np.arange(1, horizon + 1)
    curves = {
        name: run_single_player(spec, rng.spawn(1)[0]).cumulative_reward / t_axis
        for name, spec in specs.items()
    }
    indicator = memoryview(trace.indicators)
    # the functions and methods are looked up each round, where a profiler may wrap them
    for name, learner, pick in (
        ("exp3", Exp3Attacker(n, eta=_eta(eta, n, 1, 1, horizon)), lambda exp3, r: exp3.select(r)),
        ("ucb1", FrequentistState(n), lambda st, r: ucb1_select(st)),
        ("epsilon_greedy", FrequentistState(n),
         lambda st, r: epsilon_greedy_select(st, epsilon, r)),
    ):
        rb = rng.spawn(1)[0]
        rewards = array("d")
        for t in range(horizon):
            arm = pick(learner, rb)
            x = float(indicator[t, arm])
            learner.update(arm, x)
            rewards.append(x)
        curves[name] = np.cumsum(np.frombuffer(rewards)) / t_axis
    return curves


# ---------------------------------------------------------------------------
# two-player game


# the one config key each attacker kind takes
ATTACKER_KEYS = {"exp3": "attacker_eta", "greedy": "scan_discount"}


@dataclass
class GameConfig:
    n_arms: int
    horizon: int
    scaling: ScalingSpec  # a kind with a law: the game value is a function of it
    attacker_kind: str = "exp3"
    # each attacker kind takes only its own key, stored resolved; the other stays None
    defender_eta: float = None  # default: horizon-tuned rule with (a, b)
    attacker_eta: float = None  # exp3 only; default: horizon-tuned rule with a = b = 1
    payoff: PayoffProfile = None
    scan_discount: float = None  # greedy only; default: DEFAULT_SCAN_DISCOUNT
    seed: int = 0

    def __post_init__(self):
        if self.attacker_kind not in ATTACKER_KEYS:
            raise InvalidConfigError(f"unknown attacker kind {self.attacker_kind!r}")
        for kind, key in ATTACKER_KEYS.items():
            if kind != self.attacker_kind and getattr(self, key) is not None:
                raise InvalidConfigError(f"{key} applies only to the {kind} attacker")
        if self.horizon < 1:
            raise InvalidConfigError("horizon must be >= 1")
        if self.attacker_kind == "greedy":
            if self.scan_discount is None:
                self.scan_discount = DEFAULT_SCAN_DISCOUNT
            if not 0.0 < self.scan_discount <= 1.0:
                raise InvalidConfigError(
                    f"scan_discount must be in (0, 1], got {self.scan_discount}"
                )
        self.scaling.validate_for(self.n_arms)
        if self.scaling.law() is None:
            raise InvalidConfigError(
                f"scaling kind {self.scaling.kind!r} has no play-count law, which a game needs"
            )
        if self.payoff is None:
            self.payoff = PayoffProfile.homogeneous(self.n_arms)
        elif self.payoff.n_arms != self.n_arms:
            raise InvalidConfigError("payoff profile size must match n_arms")
        n, a, b = self.n_arms, self.scaling.a, self.scaling.b
        self.defender_eta = _eta(self.defender_eta, n, a, b, self.horizon, "defender_eta")
        if not 0.0 < self.defender_eta < 1.0:
            raise InvalidConfigError(f"defender_eta must be in (0, 1), got {self.defender_eta}")
        if self.attacker_kind == "exp3":
            self.attacker_eta = _eta(self.attacker_eta, n, 1, 1, self.horizon, "attacker_eta")
            if not 0.0 < self.attacker_eta <= 1.0:
                raise InvalidConfigError(f"attacker_eta must be in (0, 1], got {self.attacker_eta}")


@dataclass
class GameTrace:
    """Per-round record of one game run.  ``scanned`` concatenates the rounds'
    scan sets, each in increasing order and ``play_counts[t]`` arms long."""

    attacker_arm: np.ndarray
    play_counts: np.ndarray
    scanned: np.ndarray  # sum(play_counts) arm indices
    attacker_reward: np.ndarray
    defender_reward: np.ndarray

    @property
    def n_rounds(self):
        return self.attacker_arm.size

    def running_averages(self):
        t = np.arange(1, self.n_rounds + 1)
        return np.cumsum(self.attacker_reward) / t, np.cumsum(self.defender_reward) / t


def make_attacker(config):
    if config.attacker_kind == "greedy":
        return GreedyAttacker(config.n_arms, discount=config.scan_discount)
    return Exp3Attacker(config.n_arms, eta=config.attacker_eta)


def play_round(attacker, chosen, mu, attacker_rng):
    """The attacker's round against the scan set ``chosen``, a list of arms:
    it selects a location i, scores its payoff ``mu[i]`` unless caught, and
    updates.  Returns ``(i, observations)``: on a catch the defender's
    rewards at ``chosen``, ``mu[i]`` at i and 0 elsewhere; on a miss, which
    scores 0 at every scanned arm, ``None``."""
    i = attacker.select(attacker_rng)
    mu_i = mu[i]
    if i not in chosen:
        attacker.update(i, mu_i)
        return i, None
    attacker.update(i, 0.0)
    obs = [0.0] * len(chosen)  # no comprehension, which builds a closure per call on 3.11
    obs[chosen.index(i)] = mu_i
    return i, obs


def run_game(config, rng=None):
    """Play the full game for ``config.horizon`` rounds."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    att_rng, def_rng, scale_rng = rng.spawn(3)
    attacker = make_attacker(config)
    defender = Exp3MVPLearner(config.n_arms, config.defender_eta)
    horizon = config.horizon
    counts = sample_arm_counts(config.scaling, horizon, scale_rng).tolist()
    mu = config.payoff.mu.tolist()
    attacker_arm = array("q")
    scanned = array("q")

    def observe(t, chosen, probs):
        i, obs = play_round(attacker, chosen, mu, att_rng)
        attacker_arm.append(i)
        scanned.extend(chosen)
        return obs

    play_counts, s = _rounds(defender, horizon, counts, def_rng, observe)
    return GameTrace(
        attacker_arm=np.frombuffer(attacker_arm, dtype=np.int64),
        play_counts=play_counts,
        scanned=np.frombuffer(scanned, dtype=np.int64),
        attacker_reward=config.payoff.mu[attacker_arm] - s,  # what the defender did not catch
        defender_reward=s,
    )


# ---------------------------------------------------------------------------
# replica fan-out


def map_replicas(fn, parent, replicas, workers, *shared):
    """``[fn(*shared, k, child) for k, child in enumerate(parent.spawn(replicas))]``.

    Each call gets its replica index ``k``, counted from 0, before its child.
    ``parent`` is a ``SeedSequence`` or ``Generator``; its children are
    spawned up front and results come back in replica order, so they do not
    depend on ``workers``.  With ``workers > 1`` the calls run in a process
    pool, and ``fn`` and ``shared`` must be picklable.
    """
    if not isinstance(replicas, (int, np.integer)) or replicas < 1:
        raise InvalidConfigError(f"replicas must be an integer >= 1, got {replicas!r}")
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers!r}")
    call = functools.partial(fn, *shared)
    children = parent.spawn(replicas)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(call, range(replicas), children))
    return [call(k, child) for k, child in enumerate(children)]


def _game_replica(config, index, seed_seq):
    return run_game(config, np.random.default_rng(seed_seq))


def run_game_replicas(config, replicas, workers=1):
    """Independent game replicas with disjoint seed streams, in replica order."""
    return map_replicas(
        _game_replica, np.random.SeedSequence(config.seed), replicas, workers, config
    )
