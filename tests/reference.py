"""Reference implementations that the tests hold the library to.

Each one is a plain or vectorized form of a library step, kept here so the
library has one implementation and the tests an independent one to compare
it with, draw for draw or bit for bit.
"""

import math

import numpy as np


def dep_round_many(m, p, draws, rng):
    """``draws`` systematic-sampling draws as a (draws, N) 0/1 matrix.

    The vectorized rule: row k places the points ``(u_k + j) * total / m``,
    j = 0..m-1, on the cumulative marginals, searched over the arms up to
    the last one with mass.  It takes one double of ``rng`` per row, in row
    order, so row k is the k-th of ``draws`` sequential ``dep_round`` calls.
    """
    p = np.asarray(p, dtype=float)
    c = np.cumsum(p)
    total = c[-1]
    last = np.searchsorted(c, total)  # the last arm with a nonempty interval
    u = rng.random((draws, 1))
    idx = np.searchsorted(c[:last], (u + np.arange(m)) * (total / m), side="right")
    assert not (idx[:, 1:] == idx[:, :-1]).any(), "a draw repeated an arm"
    out = np.zeros((draws, p.size))
    np.put_along_axis(out, idx, 1.0, axis=1)
    return out


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
