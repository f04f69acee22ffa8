"""Reference implementations that the tests hold the library to.

Each one is a plain or vectorized form of a library step, kept here so the
library has one implementation and the tests an independent one to compare
it with, draw for draw or bit for bit.  The two simulations write out their
own rounds rather than calling the library's round loop or ``play_round``.
"""

import math

import numpy as np

from vpbandit.environments import IntrusionTrace, bernoulli_rewards
from vpbandit.errors import NumericPathologyError
from vpbandit.game import Exp3MVPLearner, make_attacker
from vpbandit.scaling import BUDGET_WINDOW, MovingAverage, sample_arm_count, sample_arm_counts


def systematic_draw(m, c, u):
    """One systematic-sampling draw by numpy's sorted search.

    The points ``(u + k) * c[-1] / m``, k = 0..m-1, each pick the arm whose
    interval of the cumulative marginals ``c`` (an array) holds them, found
    by ``searchsorted(side="right")``; a top point on or past the total is
    searched again over the arms up to the last one with mass.  Returns the
    arms as a list, or raises ``NumericPathologyError`` when they are not m
    distinct arms, as ``bandit_core.dep_round`` must.
    """
    total = float(c[-1])
    step = total / m
    points = [(u + k) * step for k in range(m)]
    idx = c.searchsorted(points, side="right")
    if idx[-1] == c.size:
        last = c.searchsorted(total)
        idx = c[:last].searchsorted(points, side="right")
    drawn = idx.tolist()
    if len(set(drawn)) != m:
        raise NumericPathologyError(f"systematic sampling did not draw {m} distinct arms")
    return drawn


def certainty_draw(m, p, u):
    """The checked ``dep_round`` draw, written with numpy: the arms at
    exactly 1.0 outright, and ``systematic_draw`` of the other m - k arms
    over the running sums with those arms counted as 0.  Returns the arms in
    increasing order."""
    p = np.asarray(p, dtype=float)
    sure = p == 1.0
    rest = m - int(sure.sum())
    drawn = systematic_draw(rest, np.where(sure, 0.0, p).cumsum(), u) if rest else []
    return sorted(np.flatnonzero(sure).tolist() + drawn)


def dep_round_many(m, p, u):
    """One systematic-sampling draw per uniform in ``u``, as a (len(u), N)
    0/1 matrix.

    The vectorized rule: row k places the points ``(u[k] + j) * total / m``,
    j = 0..m-1, on the cumulative marginals, searched over the arms up to
    the last one with mass, so row k is ``dep_round(m, p, u[k])``.
    """
    p = np.asarray(p, dtype=float)
    c = np.cumsum(p)
    total = c[-1]
    last = np.searchsorted(c, total)  # the last arm with a nonempty interval
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    idx = np.searchsorted(c[:last], (u + np.arange(m)) * (total / m), side="right")
    assert not (idx[:, 1:] == idx[:, :-1]).any(), "a draw repeated an arm"
    out = np.zeros((u.shape[0], p.size))
    np.put_along_axis(out, idx, 1.0, axis=1)
    return out


def cap_threshold_argsort(weights, target):
    """The capping scan as it read the sorted weights before the one-sort
    form: a stable argsort of ``-w`` in descending order, and each cap
    size's rest sum from the reversed cumulative sum.

    ``bandit_core.cap_threshold`` must return the same kappa bits, or raise
    ``NumericPathologyError`` where this does.
    """
    w = np.asarray(weights, dtype=float)
    order = (-w).argsort(kind="stable")
    ws = w[order]
    n = ws.size
    top = n if 1.0 / target >= n else math.ceil(1.0 / target)
    head = ws[: top + 1].tolist() + [-math.inf]
    suffix = ws[::-1].cumsum()[::-1][: top + 1].tolist() + [0.0]  # suffix[m] = sum of ws[m:]
    for m in range(1, top + 1):
        if m * target >= 1.0:
            break
        kappa = target * suffix[m] / (1.0 - m * target)
        if head[m - 1] >= kappa > head[m]:
            return kappa
    raise NumericPathologyError("no consistent cap size found")


def cap_threshold_scan(weights, target):
    """The capping scan over every cap-set size, on numpy scalars.

    Returns ``(kappa, capped)``, or ``None`` when no cap size is consistent:
    ``kappa`` is what ``bandit_core.cap_threshold`` returns, and ``capped``
    the sorted indices of the m largest weights, which must be the arms
    with ``weights >= kappa``.
    """
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    ws = w[order]
    n = ws.size
    suffix = np.concatenate([np.cumsum(ws[::-1])[::-1], [0.0]])
    for m in range(1, n + 1):
        if m * target >= 1.0:
            break
        kappa = target * suffix[m] / (1.0 - m * target)
        below = ws[m] if m < n else -math.inf
        if ws[m - 1] >= kappa > below:
            return kappa, np.sort(order[:m])
    return None


def learner_capped(weights, eta, m):
    """The arms the variable-play learner caps at play count m, by the scan
    above: None when the largest weight is below the share
    c = (1/m - eta/N) / (1 - eta) of the total, else their sorted indices."""
    w = np.asarray(weights, dtype=float)
    c = (1.0 / m - eta / w.size) / (1.0 - eta)
    return None if w.max() < c * w.sum() else cap_threshold_scan(w, c)[1]


def greedy_select(values, rng):
    """The greedy attacker's pick by ``np.flatnonzero(v == v.min())``.

    Returns ``(arm, rho)``: uniform over the arms at the smallest value,
    with ``rho`` one over their number.  ``rng`` draws one integer, and
    only when more than one arm ties.
    """
    v = np.asarray(values, dtype=float)
    ties = np.flatnonzero(v == v.min())
    if ties.size == 1:
        return int(ties[0]), 1.0
    return int(ties[rng.integers(ties.size)]), 1.0 / ties.size


def g_max_curve(reward_matrix, play_counts):
    """The hindsight-optimum curve, one scipy assignment per round.

    The rank-gain matrix grows by ``gains[:M_t] += y_t`` each round, and
    ``scipy.optimize.linear_sum_assignment`` solves it whole, over all N
    columns; the value is the 1-D sum of the chosen gains in rank order.
    """
    from scipy.optimize import linear_sum_assignment

    y = np.asarray(reward_matrix, dtype=float)
    m = np.asarray(play_counts, dtype=int)
    gains = np.zeros((int(m.max()), y.shape[1]))
    out = np.empty(y.shape[0])
    for t in range(y.shape[0]):
        gains[: m[t]] += y[t]
        rows, cols = linear_sum_assignment(gains, maximize=True)
        out[t] = gains[rows, cols].sum()
    return out


def per_count_bound(reward_matrix, play_counts):
    """The per-count comparator at every prefix, by a plain loop.

    For each play count c, the best c-set's reward over the rounds with
    M_t = c (Exp3.M's comparator for that count), summed over c.  No nested
    family beats it, so it bounds ``g_max_curve`` from above, and the two
    agree when the counts' best sets nest.
    """
    y = np.asarray(reward_matrix, dtype=float)
    totals = {}  # play count -> each arm's reward over the rounds with that count
    out = np.empty(y.shape[0])
    for t, m in enumerate(play_counts):
        totals[int(m)] = totals.get(int(m), 0.0) + y[t]
        out[t] = sum(sum(sorted(g.tolist(), reverse=True)[:c]) for c, g in totals.items())
    return out


def attacker_value_lp(mu, counts, probs):
    """The attacker's value of the mixed game, as one scipy ``linprog`` (HiGHS).

    The attacker mixes d over the N locations and earns mu_i at location i
    unless it is scanned; the defender sees the play count m, drawn with
    probability ``probs[k]`` from ``counts[k]``, and scans the m locations
    of largest mu_i d_i.  Each top-m sum is replaced by its LP dual,
    min m t + sum_i u_i over u_i >= mu_i d_i - t, u >= 0, so the max-min is
    one linear program over (d, then t_m and u_m for each count m).
    """
    from scipy.optimize import linprog

    mu = np.asarray(mu, dtype=float)
    n, k = mu.size, len(counts)
    width = n + k * (n + 1)
    cost = np.zeros(width)
    cost[:n] = -mu  # maximize sum_m P(m) (sum_i mu_i d_i - m t_m - sum_i u_{m,i})
    rows = np.zeros((k * n, width))
    for j, (m, p) in enumerate(zip(counts, probs)):
        t = n + j * (n + 1)
        cost[t] = p * m
        cost[t + 1 : t + 1 + n] = p
        block = rows[j * n : (j + 1) * n]
        block[:, :n] = np.diag(mu)  # mu_i d_i - t_m - u_{m,i} <= 0
        block[:, t] = -1.0
        block[:, t + 1 : t + 1 + n] = -np.eye(n)
    bounds = [(0, None)] * n + ([(None, None)] + [(0, None)] * n) * k
    res = linprog(
        cost, A_ub=rows, b_ub=np.zeros(k * n), A_eq=np.ones((1, width)) * (np.arange(width) < n),
        b_eq=[1.0], bounds=bounds, method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def game_one_draw_per_round(config, rng):
    """``run_game``'s rounds, written out on their own: each round the
    attacker selects, the defender plays on one ``rng.random()`` call, the
    round is scored, and the attacker is updated, the defender only on a
    catch.  The records are kept as numpy arrays.

    Returns ``(attacker_arm, scanned, attacker_reward, defender_reward)``.
    """
    att_rng, def_rng, scale_rng = rng.spawn(3)
    attacker = make_attacker(config)
    defender = Exp3MVPLearner(config.n_arms, config.defender_eta)
    play_counts = sample_arm_counts(config.scaling, config.horizon, scale_rng)
    mu = config.payoff.mu.tolist()
    arms, scans, r, s = [], [], [], []
    for m in play_counts.tolist():
        i = attacker.select(att_rng)
        chosen, probs = defender.play(m, def_rng.random())
        caught = i in chosen
        attacker.update(i, 0.0 if caught else mu[i])
        if caught:
            defender.update(chosen, np.where(np.array(chosen) == i, mu[i], 0.0).tolist(), probs)
        arms.append(i)
        scans.append(chosen)
        r.append(0.0 if caught else mu[i])
        s.append(mu[i] if caught else 0.0)
    return np.array(arms), np.concatenate(scans), np.array(r), np.array(s)


def single_player_one_draw_per_round(spec, rng):
    """``run_single_player``'s rounds, written out on their own: the learner
    plays on one ``rng.random()`` call per round and is updated with the
    rewards at its scan set, and the rewards and budget estimates are
    gathered by numpy fancy indexing.

    Returns ``(play_counts, cumulative_reward)``.
    """
    n, horizon = spec.n_arms, spec.horizon
    env_rng, scale_rng, learner_rng = rng.spawn(3)
    learner = Exp3MVPLearner(n, spec.eta)
    needs_ma = spec.scaling.kind == "budget_threshold"
    ma = MovingAverage(n, BUDGET_WINDOW) if needs_ma else None
    if isinstance(spec.env, IntrusionTrace):
        rewards = spec.env.indicators[:horizon].astype(float)
    else:
        rewards = bernoulli_rewards(spec.env, horizon, env_rng)
    counts = None if needs_ma else sample_arm_counts(spec.scaling, horizon, scale_rng)
    play_counts = np.empty(horizon, dtype=int)
    round_rewards = np.empty(horizon)
    for t in range(horizon):
        m = int(counts[t]) if counts is not None else sample_arm_count(spec.scaling, ma)
        chosen, probs = learner.play(m, learner_rng.random())
        idx = np.array(chosen)
        obs = rewards[t, idx]
        learner.update(chosen, obs.tolist(), probs)
        play_counts[t] = m
        round_rewards[t] = obs.sum()
        if needs_ma:
            est = np.zeros(n)
            est[idx] = obs / np.asarray(probs)[idx]
            ma.push(est)
    return play_counts, np.cumsum(round_rewards)


def exp3_probabilities(weights, eta):
    """The exp3 attacker's selection distribution: the weights' share,
    mixed with uniform exploration at rate ``eta``."""
    w = np.asarray(weights, dtype=float)
    return (1.0 - eta) * w / w.sum() + eta / w.size
