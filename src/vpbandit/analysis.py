"""Hindsight optima, regret accounting, and closed-form bound evaluators.

SciPy is needed only for the hindsight optimum (``g_max``, ``g_max_curve``,
hence ``pseudo_regret`` and the ``simulate-single`` command); it is imported
on first use there, so importing this module loads numpy alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeError

E_MINUS_2 = math.e - 2.0


# ---------------------------------------------------------------------------
# hindsight optimum over nested arm families


def _rank_gain_matrix(reward_matrix, play_counts):
    y = np.asarray(reward_matrix, dtype=float)
    m = np.asarray(play_counts, dtype=int)
    if y.ndim != 2 or m.ndim != 1 or m.size != y.shape[0]:
        raise ShapeError("reward matrix must be (T, N) with one play count per round")
    b = int(m.max())
    if b > y.shape[1]:
        raise ShapeError("play count exceeds the number of arms")
    # gain of putting an arm at rank j: it collects rewards whenever M_t >= j
    gains = np.empty((b, y.shape[1]))
    for j in range(1, b + 1):
        gains[j - 1] = y[m >= j].sum(axis=0)
    return gains


def g_max(reward_matrix, play_counts):
    """Best cumulative reward of any nested family of top-M_t arm sets.

    A nested family is an ordering of arms: the arm at rank j is scanned in
    every round with M_t >= j.  The optimal ordering is an assignment of
    ranks to arms on the rank-gain matrix, solved exactly.

    Returns ``(value, ranking)`` where ``ranking[j-1]`` is the arm at rank j.
    """
    from scipy.optimize import linear_sum_assignment

    gains = _rank_gain_matrix(reward_matrix, play_counts)
    rows, cols = linear_sum_assignment(gains, maximize=True)
    ranking = np.empty(gains.shape[0], dtype=int)
    ranking[rows] = cols
    return float(gains[rows, cols].sum()), ranking


def g_max_curve(reward_matrix, play_counts):
    """``g_max`` of the reward prefix ending at each round (length-T curve)."""
    from scipy.optimize import linear_sum_assignment

    y = np.asarray(reward_matrix, dtype=float)
    m = np.asarray(play_counts, dtype=int)
    if y.ndim != 2 or m.size != y.shape[0]:
        raise ShapeError("reward matrix must be (T, N) with one play count per round")
    b = int(m.max())
    gains = np.zeros((b, y.shape[1]))
    out = np.empty(y.shape[0])
    for t in range(y.shape[0]):
        gains[: m[t]] += y[t]
        rows, cols = linear_sum_assignment(gains, maximize=True)
        out[t] = gains[rows, cols].sum()
    return out


# ---------------------------------------------------------------------------
# closed-form bounds


def theorem1_bound(gmax, n, a, b, eta):
    """Regret ceiling of the variable-play learner for a realized optimum.

    ``gmax`` may be an array of optima; the ceiling is then taken elementwise.
    """
    _check_nab(n, a, b)
    if not 0.0 < eta <= 1.0:
        raise InvalidParameterError(f"eta must be in (0, 1], got {eta}")
    return (1.0 + E_MINUS_2 * b / a) * eta * gmax + (n / eta) * math.log(n / b)


def corollary11_eta(n, a, b, horizon):
    """Horizon-tuned exploration rate and the matching regret ceiling.

    Returns ``(eta, ceiling)`` with
    eta = min(1, sqrt(N a ln(N/b) / ((a + (e-2) b) b T))).
    """
    _check_nab(n, a, b)
    if horizon < 1:
        raise InvalidParameterError(f"horizon must be >= 1, got {horizon}")
    eta = min(
        1.0,
        math.sqrt(n * a * math.log(n / b) / ((a + E_MINUS_2 * b) * b * horizon)),
    )
    ceiling = 2.0 * math.sqrt(1.0 + E_MINUS_2 * b / a) * math.sqrt(
        b * horizon * n * math.log(n / b)
    )
    return eta, ceiling


def equilibrium_values(n, nu):
    """Long-run average rewards (defender, attacker) = (nu/N, (N-nu)/N)."""
    if not 0 < nu < n:
        raise InvalidParameterError(f"need 0 < nu < N, got nu={nu} N={n}")
    return nu / n, (n - nu) / n


def theorem2_bounds(n, a, b):
    """Greedy-attacker average-reward interval ((N-b)/N, (N-a)/N)."""
    _check_nab(n, a, b)
    return (n - b) / n, (n - a) / n


def _check_nab(n, a, b):
    if not 1 <= a <= b < n:
        raise InvalidParameterError(f"need 1 <= a <= b < N, got a={a} b={b} N={n}")


# ---------------------------------------------------------------------------
# heterogeneous-payoff interval


@dataclass
class BoundInterval:
    """Attacker average-reward interval under heterogeneous payoffs.

    Uses the harmonic-sum form (K - c) / sum_{j<=K} (1/mu_j): the support of
    the optimal attack distribution is the K highest-payoff locations played
    inversely proportional to their payoffs.  The theorem statement's
    denominator differs (sum of mu rather than of 1/mu); both coincide for
    homogeneous payoffs, and the harmonic form is the one the optimization
    actually attains.
    """

    lower: float
    upper: float
    kstar_lower: int
    kstar_upper: int


def kstar_interval(profile, a, b):
    """Interval bounding the attacker's long-run average reward.

    ``profile.mu`` must be non-increasing (PayoffProfile canonicalizes).
    The endpoint for cut size c is max over K in {c+1, ..., N} of
    (K - c) / sum_{j<=K} 1/mu_j, with c = a for the upper endpoint and
    c = b for the lower; ties go to the smallest K.
    """
    mu = np.asarray(profile.mu, dtype=float)
    n = mu.size
    _check_nab(n, a, b)
    if np.any(np.diff(mu) > 0):
        raise InvalidParameterError("payoffs must be sorted non-increasing")
    harmonic = np.cumsum(1.0 / mu)  # harmonic[k-1] = sum_{j<=k} 1/mu_j

    def best(c):
        ks = np.arange(c + 1, n + 1)
        vals = (ks - c) / harmonic[ks - 1]
        i = int(np.argmax(vals))  # argmax takes the first (smallest K) on ties
        return float(vals[i]), int(ks[i])

    upper, k_up = best(a)
    lower, k_lo = best(b)
    return BoundInterval(lower=lower, upper=upper, kstar_lower=k_lo, kstar_upper=k_up)


# ---------------------------------------------------------------------------
# pseudo-regret over replicated runs


@dataclass
class RegretReport:
    """Aggregated regret curves over independent replicas.

    ``regret_mean[t]`` averages G_max(t) - G^J(t) over replicas, each
    computed on that replica's own realized rewards, so every per-replica
    curve is nonnegative.  ``bound[t]`` averages the theorem ceiling
    evaluated at each replica's realized G_max(t).
    """

    regret_mean: np.ndarray
    regret_stderr: np.ndarray
    bound: np.ndarray
    gmax_mean: np.ndarray
    reward_mean: np.ndarray
    replicas: int = 0


def _replica_curves(spec, child):
    from .game import run_single_player

    run = run_single_player(spec, child)
    gm = g_max_curve(run.reward_matrix, run.play_counts)
    bound = theorem1_bound(gm, spec.n_arms, spec.scaling.a, spec.scaling.b, run.eta)
    return gm - run.cumulative_reward, bound, gm, run.cumulative_reward


def pseudo_regret(spec, replicas, rng, workers=1):
    """Run independent replicas of a single-player experiment.

    ``spec`` is a ``vpbandit.game.SinglePlayerSpec``; the import lives in
    that module to keep this one free of simulation code.  Replica seeds are
    spawned up front, so results do not depend on ``workers``.
    """
    from .game import map_replicas

    results = map_replicas(_replica_curves, rng, replicas, workers, spec)
    regrets, bounds, gmaxes, rewards = map(np.asarray, zip(*results))
    return RegretReport(
        regret_mean=regrets.mean(axis=0),
        regret_stderr=regrets.std(axis=0, ddof=1) / math.sqrt(replicas)
        if replicas > 1
        else np.zeros(regrets.shape[1]),
        bound=bounds.mean(axis=0),
        gmax_mean=gmaxes.mean(axis=0),
        reward_mean=rewards.mean(axis=0),
        replicas=replicas,
    )
