"""Hindsight optima, regret accounting, closed-form bounds and the game value.

The hindsight optimum G_max (``g_max``, ``g_max_curve``) is the best nested
family of arm sets: an ordering of arms whose rank-j arm is scanned in every
round with M_t >= j.  It is an assignment of the b = max M_t ranks to
distinct arms on the b x N rank-gain matrix, whose row j holds each arm's
reward summed over the rounds with M_t >= j.  It is solved exactly in numpy,
for every prefix of the horizon at once:

* Prefix gains.  The rank-gain matrices of successive rounds are one
  cumulative sum, built in chunks of rounds so that at most
  ``_CHUNK_ELEMENTS`` of them are held at any T and N.
* Certificate (``_solve``).  Let D_l = G_l - G_{l+1} for the rank-gain rows
  G_0..G_{b-1}, with D_{b-1} = G_{b-1}: D_l is each arm's reward over the
  rounds with M_t = l + 1.  The greedy chain gives rank l the best arm of
  D_l among the arms not yet ranked, the first on ties.  Proof that it is
  optimal wherever each top-(l+1) set S_l of the chain is a top set of D_l:
  (1) a ranking's value is sum_j G_j[a_j] = sum_l D_l(S_l), as G_j is the
  sum of D_l over l >= j; (2) D_l(S) is at most the sum of the l + 1 largest
  entries of D_l for any set S of l + 1 arms, so no ranking beats the sum of
  those top sums, the per-count comparator (Exp3.M's, Uchiya et al. 2010,
  summed over the counts); (3) the chain attains it.  Each S_l is a top set
  when the smallest D_l on it is no less than the largest D_l off it.  The
  chain stops once no round of a chunk is still certified.
* Exchange lemma.  The uncertified rounds go to the assignment solver
  (``_assign``).  Some optimal assignment gives every rank j an arm among
  the b largest entries of row j: were rank j on an arm outside them, one of
  those b arms would be unused, and moving rank j to it loses nothing.  So
  only the union of the rows' top b arms is kept, distinct arms first, in
  min(N, b*b) candidate columns; a repeated arm's column is disabled.
* Shortest augmenting paths (Jonker & Volgenant 1987; Crouse 2016, the
  method behind scipy's ``linear_sum_assignment``) place one rank at a time;
  the Dijkstra searches of all rounds in a chunk run in lockstep until each
  reaches a free column, taking a free column first among equal distances.

Either way a round's value is its chosen gains summed in rank order.  On
integer rewards the curve equals one ``linear_sum_assignment`` per round bit
for bit, and on real rewards to 1e-12 relative (``tests/test_analysis.py``
holds it to that loop).  On Bernoulli rewards with fixed means the counts'
best sets nest after the first few hundred rounds, so nearly every round is
certified; where they do not nest, as at large b with uniform counts, the
solver runs on almost every round and the chain costs about 1% more.
README.md tables the microseconds per round.  Every ``simulate-single``
configuration in the tests and the benchmark has b <= 3.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

E_MINUS_2 = math.e - 2.0


# ---------------------------------------------------------------------------
# hindsight optimum over nested arm families

#: Prefix-gain elements (rounds x ranks x arms) held at once: the hindsight
#: optimum walks the horizon in chunks of this budget over b*N rounds.
_CHUNK_ELEMENTS = 1 << 16


def _checked(reward_matrix, play_counts):
    """Rewards as a finite (T, N) float matrix, T >= 1; counts as ints in [1, N]."""
    y = np.asarray(reward_matrix, dtype=float)
    m = np.asarray(play_counts)
    if y.ndim != 2 or y.shape[0] < 1 or m.shape != y.shape[:1]:
        raise InvalidConfigError(
            f"need a (T, N) reward matrix with T >= 1 and one play count per round, "
            f"got rewards of shape {y.shape} and play counts of shape {m.shape}"
        )
    if not np.isfinite(y).all():
        raise InvalidConfigError("rewards must be finite")
    if m.dtype.kind not in "iu" or m.min() < 1 or m.max() > y.shape[1]:
        raise InvalidConfigError(f"play counts must be integers in [1, {y.shape[1]}]")
    return y, m


def _prefix_gains(y, m):
    """The (rounds, b, N) rank-gain prefixes, one chunk of rounds at a time.

    Row j of a round's gains is what each arm collected over the rounds so
    far with M_t > j.  Each chunk is a cumulative sum over a block whose
    first row carries the gains so far, adding y_t or 0 to every entry in
    round order.  The yielded view is overwritten by the next chunk.
    """
    t_total, n = y.shape
    b = int(m.max())
    rounds = max(1, _CHUNK_ELEMENTS // (b * n))
    ranks = np.arange(b)
    block = np.zeros((min(rounds, t_total) + 1, b, n))
    for t0 in range(0, t_total, rounds):
        t1 = min(t0 + rounds, t_total)
        block[0] = block[-1]
        chunk = block[: t1 - t0 + 1]
        chunk[1:] = 0.0
        np.copyto(chunk[1:], y[t0:t1, None, :], where=(m[t0:t1, None] > ranks)[:, :, None])
        np.cumsum(chunk, axis=0, out=chunk)
        yield chunk[1:]


def _assign(gains):
    """Best assignment of b ranks to distinct arms, for every round at once.

    ``gains`` is (R, b, N).  Returns each round's optimal value, summed in
    rank order, and its (R, b) arms by rank.  The columns are cut to the
    top b arms of every rank row (min(N, b*b) columns, repeats disabled),
    then a shortest-augmenting-path solver adds one rank per step, with the
    Dijkstra search of every round run in lockstep until each finds a free
    column.
    """
    rounds, b, n = gains.shape
    k = min(n, b * b)
    work = gains.copy()
    top = np.empty((rounds, b, b), dtype=np.intp)
    for r in range(b):
        best = work.argmax(axis=2)
        top[:, :, r] = best
        np.put_along_axis(work, best[:, :, None], -np.inf, axis=2)
    arms = np.sort(top.reshape(rounds, b * b), axis=1)
    arms[:, 1:][arms[:, 1:] == arms[:, :-1]] = n  # a repeated arm becomes n
    arms = np.sort(arms, axis=1)[:, :k]  # distinct arms first: none is cut
    gains = np.take_along_axis(gains, np.minimum(arms, n - 1)[:, None, :], axis=2)
    cost = np.where((arms == n)[:, None, :], np.inf, -gains)
    u = np.zeros((rounds, b))
    v = np.zeros((rounds, k))
    col4row = np.full((rounds, b), -1)
    row4col = np.full((rounds, k), -1)
    every = np.arange(rounds)
    for cur in range(b):
        dist = np.full((rounds, k), np.inf)
        path = np.full((rounds, k), -1)
        seen_row = np.zeros((rounds, b), dtype=bool)
        seen_col = np.zeros((rounds, k), dtype=bool)
        low = np.zeros(rounds)
        row = np.full(rounds, cur)
        sink = np.empty(rounds, dtype=int)
        live = every
        while live.size:
            i = row[live]
            seen_row[live, i] = True
            reduced = low[live, None] + cost[live, i] - u[live, i][:, None] - v[live]
            shut = seen_col[live]
            d = dist[live]
            closer = (reduced < d) & ~shut
            d = np.where(closer, reduced, d)
            dist[live] = d
            path[live] = np.where(closer, i[:, None], path[live])
            d[shut] = np.inf
            lowest = d.min(axis=1)
            tie = d == lowest[:, None]
            j = np.argmax(tie * (1 + (row4col[live] < 0)), axis=1)  # free columns first
            low[live] = lowest
            seen_col[live, j] = True
            nxt = row4col[live, j]
            free = nxt < 0
            sink[live[free]] = j[free]
            row[live[~free]] = nxt[~free]
            live = live[~free]
        # dual update, then augment along the path back to rank ``cur``
        u[:, cur] += low
        r, i = np.nonzero(seen_row & (np.arange(b) != cur))
        u[r, i] += low[r] - dist[r, col4row[r, i]]
        r, j = np.nonzero(seen_col)
        v[r, j] -= low[r] - dist[r, j]
        j = sink
        live = every
        while live.size:
            col = j[live]
            i = path[live, col]
            row4col[live, col] = i
            j[live] = col4row[live, i]
            col4row[live, i] = col
            live = live[i != cur]
    return _value(gains, col4row), np.take_along_axis(arms, col4row, axis=1)


def _value(gains, arms):
    """Each round's gains at its (R, b) arms by rank, summed in rank order."""
    return np.take_along_axis(gains, arms[:, :, None], axis=2)[:, :, 0].sum(axis=1)


def _solve(gains):
    """Each round's optimal value and (R, b) arms by rank, as ``_assign``.

    The greedy chain (module docstring) solves every round where each of its
    top sets S_l is a top set of D_l: the smallest D_l on S_l is no less
    than the largest off it.  Only the other rounds go to ``_assign``, and
    the whole chunk does, ungathered, once none is still certified.
    """
    rounds, b, n = gains.shape
    arms = np.empty((rounds, b), dtype=np.intp)
    ranked = np.zeros((rounds, n), dtype=bool)
    every = np.arange(rounds)
    sure = np.ones(rounds, dtype=bool)
    for rank in range(b):
        d = gains[:, rank] - (gains[:, rank + 1] if rank + 1 < b else 0.0)
        if rank:
            floor = np.min(d, axis=1, where=ranked, initial=np.inf)
            np.copyto(d, -np.inf, where=ranked)
        best = d.argmax(axis=1)
        arms[:, rank] = best
        ranked[every, best] = True
        if rank:
            d[every, best] = -np.inf
            sure &= floor >= d.max(axis=1)
            if not sure.any():
                return _assign(gains)
    value = _value(gains, arms)
    if not sure.all():
        value[~sure], arms[~sure] = _assign(gains[~sure])
    return value, arms


def g_max(reward_matrix, play_counts):
    """Best cumulative reward of any nested family of top-M_t arm sets.

    A nested family is an ordering of arms: the arm at rank j is scanned in
    every round with M_t >= j.  The optimal ordering is an assignment of
    ranks to arms on the rank-gain matrix, solved exactly; this is the last
    point of ``g_max_curve``.

    Returns ``(value, ranking)`` where ``ranking[j-1]`` is the arm at rank j.
    """
    y, m = _checked(reward_matrix, play_counts)
    *_, gains = _prefix_gains(y, m)
    value, ranking = _solve(gains[-1:])
    return float(value[0]), ranking[0]


def g_max_curve(reward_matrix, play_counts):
    """``g_max`` of the reward prefix ending at each round (length-T curve)."""
    y, m = _checked(reward_matrix, play_counts)
    return np.concatenate([_solve(gains)[0] for gains in _prefix_gains(y, m)])


# ---------------------------------------------------------------------------
# closed-form bounds


def theorem1_bound(gmax, n, a, b, eta):
    """Regret ceiling of the variable-play learner for a realized optimum.

    ``gmax`` may be an array of optima; the ceiling is then taken elementwise.
    An optimum is a finite sum of rewards in [0, 1], so a negative, infinite
    or NaN one is rejected.
    """
    check_nab(n, a, b)
    if not 0.0 < eta <= 1.0:
        raise InvalidConfigError(f"eta must be in (0, 1], got {eta}")
    if np.any(np.less(gmax, 0)):
        raise InvalidConfigError(f"gmax must be >= 0, got {np.nanmin(gmax)}")
    if not np.isfinite(gmax).all():
        raise InvalidConfigError(f"gmax must be finite, got {np.max(gmax)}")
    return (1.0 + E_MINUS_2 * b / a) * eta * gmax + (n / eta) * math.log(n / b)


def corollary11_eta(n, a, b, horizon):
    """Horizon-tuned exploration rate and the matching regret ceiling.

    Returns ``(eta, ceiling)`` with
    eta = min(1, sqrt(N a ln(N/b) / ((a + (e-2) b) b T))).
    """
    check_nab(n, a, b)
    if horizon < 1:
        raise InvalidConfigError(f"horizon must be >= 1, got {horizon}")
    if not math.isfinite(horizon):
        raise InvalidConfigError(f"horizon must be finite, got {horizon}")
    eta = min(
        1.0,
        math.sqrt(n * a * math.log(n / b) / ((a + E_MINUS_2 * b) * b * horizon)),
    )
    ceiling = 2.0 * math.sqrt(1.0 + E_MINUS_2 * b / a) * math.sqrt(
        b * horizon * n * math.log(n / b)
    )
    return eta, ceiling


def check_nab(n, a, b):
    """Reject play-count bounds outside 1 <= a <= b < N."""
    if not 1 <= a <= b < n:
        raise InvalidConfigError(f"need 1 <= a <= b < N, got a={a} b={b} N={n}")


# ---------------------------------------------------------------------------
# value of the game


def attacker_value(profile, law):
    """The attacker's equilibrium payoff V and its support size K*, as ``(V, K*)``.

    ``profile.mu`` holds the payoffs in any order, and ``law`` is
    ``(counts, probs, mean)`` of the defender's play count M
    (``ScalingSpec.law``; a cut size c is ``((c,), (1.0,), c)``).  With mu
    sorted non-increasing and H_K = sum_{j<=K} 1/mu_j, V = max_K
    E[(K - M)^+] / H_K over the integers K above min M, ties to the smallest
    K: the attacker plays its top K* locations in proportion to 1/mu, which
    equalizes mu_i d_i on the support as in ORIGAMI (Kiekintveld et al.,
    AAMAS 2009).  mu = 1 gives the paper's equilibrium (N - E[M]) / N, and
    the point laws at b and a its Theorem 2 interval; for any payoffs those
    two bound V of every law on [a, b].  The paper's heterogeneous-payoff
    bound divides by sum_j mu_j, not by sum_j 1/mu_j; both agree for equal
    payoffs, and the harmonic form is the one the optimization attains.

    Proof.  Let g_i = mu_i d_i for the attacker's mix d, and g_(j) its j-th
    largest value.  The defender sees M = m, and its best reply scans the m
    largest g, so the attacker earns f(d) = sum_j g_(j) P(M < j).  Playing d
    in proportion to 1/mu on the top K locations gives f = E[(K - M)^+] / H_K.
    Telescoping g_(j) = sum_{K>=j} lam_K, with lam_K = g_(K) - g_(K+1) >= 0,
    gives f(d) = sum_K lam_K E[(K - M)^+] <= V sum_K lam_K H_K, and
    sum_K lam_K H_K <= sum_i g_i / mu_i = 1, as H_K is the smallest
    reciprocal sum over any K locations; so f(d) <= V.  The defender's
    reward s = mu_I - r differs from -r by a function of the attacker's
    action alone, so the game is strategically zero-sum and V is the
    attacker's equilibrium payoff.

    E[(K - M)^+] is taken as (K - mean) + sum_k P(k) (k - K)^+, whose second
    term is added only for K < max M, where it can be nonzero, so the closed
    forms hold bit for bit.  The cost is O(N) time and memory.
    """
    mu = np.asarray(profile.mu, dtype=float)
    counts, probs, mean = np.asarray(law[0]), np.asarray(law[1]), law[2]
    n = mu.size
    if counts.min() <= 0 or counts.max() >= n:
        raise InvalidConfigError(f"play counts must lie in (0, {n}), got {counts.tolist()}")
    if np.any(np.diff(mu) > 0):
        mu = np.sort(mu)[::-1]
    harmonic = np.cumsum(1.0 / mu)  # harmonic[k-1] = sum_{j<=k} 1/mu_j
    k0 = math.floor(counts.min()) + 1
    ks = np.arange(k0, n + 1)
    vals = np.subtract(ks, mean, dtype=float)
    short = ks[: max(0, math.ceil(counts.max()) - k0)]  # the K below max M
    vals[: short.size] += (np.maximum(counts - short[:, None], 0) * probs).sum(axis=1)
    vals /= harmonic[k0 - 1 :]
    i = int(np.argmax(vals))  # argmax takes the first (smallest K) on ties
    return float(vals[i]), int(ks[i])


# ---------------------------------------------------------------------------
# pseudo-regret over replicated runs


@dataclass
class RegretReport:
    """Aggregated regret curves over independent replicas.

    ``regret_mean[t]`` averages G_max(t) - G^J(t) over replicas, each
    computed on that replica's own realized rewards, so every per-replica
    curve is nonnegative.  ``bound[t]`` averages the theorem ceiling
    evaluated at each replica's realized G_max(t).  ``play_counts`` and
    ``marginals`` are replica 0's M_t and, when recorded, its (T, N)
    selection marginals.
    """

    regret_mean: np.ndarray
    regret_stderr: np.ndarray
    bound: np.ndarray
    gmax_mean: np.ndarray
    reward_mean: np.ndarray
    play_counts: np.ndarray = None
    marginals: np.ndarray = None


def _replica_curves(spec, record_weights, index, child):
    from .game import run_single_player

    run = run_single_player(spec, child, record_weights=record_weights and index == 0)
    gm = g_max_curve(run.reward_matrix, run.play_counts)
    bound = theorem1_bound(gm, spec.n_arms, spec.scaling.a, spec.scaling.b, spec.eta)
    curves = (gm - run.cumulative_reward, bound, gm, run.cumulative_reward)
    return curves, (run.play_counts, run.marginals) if index == 0 else None


def pseudo_regret(spec, replicas, rng, workers=1, record_weights=False):
    """Run independent replicas of a single-player experiment.

    ``spec`` is a ``vpbandit.game.SinglePlayerSpec``; the import lives in
    that module to keep this one free of simulation code.  Replica seeds are
    spawned up front, so results do not depend on ``workers``.  With
    ``record_weights``, replica 0 also records its selection marginals.
    """
    from .game import map_replicas

    results = map_replicas(_replica_curves, rng, replicas, workers, spec, record_weights)
    regrets, bounds, gmaxes, rewards = map(np.asarray, zip(*(c for c, _ in results)))
    play_counts, marginals = results[0][1]
    return RegretReport(
        regret_mean=regrets.mean(axis=0),
        regret_stderr=regrets.std(axis=0, ddof=1) / math.sqrt(replicas)
        if replicas > 1
        else np.zeros(regrets.shape[1]),
        bound=bounds.mean(axis=0),
        gmax_mean=gmaxes.mean(axis=0),
        reward_mean=rewards.mean(axis=0),
        play_counts=play_counts,
        marginals=marginals,
    )
