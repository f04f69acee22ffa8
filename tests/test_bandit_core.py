"""Unit tests for the exponential-weight core: capping, the learner's
marginals, subset sampling, and the learners' rounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    cap_threshold_argsort,
    cap_threshold_scan,
    certainty_draw,
    dep_round_many,
    exp3_probabilities,
    learner_capped,
    systematic_draw,
)
from vpbandit import game
from vpbandit.bandit_core import cap_threshold, dep_round
from vpbandit.errors import InvalidConfigError, NumericPathologyError
from vpbandit.game import Exp3Attacker, Exp3MVPLearner


def _assign(player, weights, bound=None):
    """Assign a player's weights; with ``bound``, while ``SMALL_PLAN_ARMS``
    is ``bound``, which sets where the weights live: a list of Python floats
    at a bound of N or more, an array below it."""
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(game, "SMALL_PLAN_ARMS", bound)
        player.weights = np.array(weights, dtype=float)
    return player


def _learner(weights, eta, bound=None):
    return _assign(Exp3MVPLearner(len(weights), eta), weights, bound)


def _marginals(learner, m):
    """``(probs, capped)`` of one ``play(m)``; ``capped`` is the reference
    scan's capped arms (None when nothing is capped)."""
    _, probs = learner.play(m, 0.5)
    return np.asarray(probs), learner_capped(learner.weights, learner.eta, m)


class _FixedUniform:
    """Stands in for an attacker's generator whose uniforms are ``us`` in
    turn, the last one repeated."""

    def __init__(self, *us):
        self.us = list(us)

    def random(self):
        return self.us.pop(0) if len(self.us) > 1 else self.us[0]


def _cap_oracle(weights, c):
    """Exhaustive scan over every cap-set size, checked against the
    defining equation kappa / (m * kappa + sum_rest) = c."""
    w = np.asarray(weights, dtype=float)
    ws = np.sort(w)[::-1]
    solutions = []
    for m in range(1, w.size + 1):
        if m * c >= 1.0:
            continue
        kappa = c * ws[m:].sum() / (1.0 - m * c)
        capped = w >= kappa
        if capped.sum() != m:
            continue
        ratio = kappa / (m * kappa + w[~capped].sum())
        if abs(ratio - c) < 1e-9:
            solutions.append((kappa, np.flatnonzero(capped)))
    assert solutions, "oracle found no consistent cap size"
    return solutions[0]


def _kappa_or_raise(w, target, expected):
    """``cap_threshold`` on the weights as a float64 array and as a list of
    Python floats returns the ``expected`` kappa bits on both, or raises
    ``NumericPathologyError`` on both where ``expected`` is None."""
    w = np.asarray(w, dtype=float)
    for weights in (w, w.tolist()):
        if expected is None:
            with pytest.raises(NumericPathologyError, match="no consistent cap size"):
                cap_threshold(weights, target)
        else:
            assert cap_threshold(weights, target).hex() == float(expected).hex()


def _near_one_over(k):
    """The targets 1/k and one ulp either side, those inside (0, 1)."""
    t = 1.0 / k
    return [x for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)) if 0.0 < x < 1.0]


class TestCapThreshold:
    @pytest.mark.parametrize("form", [np.array, list])
    def test_single_dominant_weight(self, form):
        w = np.array([10.0, 1.0, 1.0, 1.0])
        kappa = cap_threshold(form(w.tolist()), 0.5)
        capped = np.flatnonzero(w >= kappa)
        assert kappa == pytest.approx(3.0)
        assert capped.tolist() == [0]
        # defining equation: kappa / (kappa + 3) = 0.5
        assert kappa / (kappa + 3.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("form", [np.array, list])
    def test_two_equal_dominant_weights(self, form):
        w = np.array([5.0, 5.0, 1.0, 1.0])
        kappa = cap_threshold(form(w.tolist()), 0.4)
        capped = np.flatnonzero(w >= kappa)
        assert kappa == pytest.approx(4.0)
        assert capped.tolist() == [0, 1]
        # defining equation with both large weights capped
        assert kappa / (2 * kappa + 2.0) == pytest.approx(0.4)

    def test_a_weight_exactly_at_the_cap_is_capped(self):
        # the top weights are their own cap: 3 / (3 + 3) = 1/2, 3 / (6 + 2) = 3/8
        _kappa_or_raise([3.0, 1.0, 1.0, 1.0], 0.5, 3.0)
        _kappa_or_raise([3.0, 3.0, 1.0, 1.0], 0.375, 3.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.01, 10.0, size=n)
            m_play = int(rng.integers(1, n))
            # real marginal targets always satisfy 1/N < c <= 1/m
            c = 1.0 / n + (1.0 / m_play - 1.0 / n) * rng.uniform(0.1, 1.0)
            if w.max() < c * w.sum():  # precondition: capping must be needed
                continue
            ok, ocapped = _cap_oracle(w, c)
            for weights in (w, w.tolist()):
                kappa = cap_threshold(weights, c)
                assert kappa == pytest.approx(ok, rel=1e-12)
                assert np.flatnonzero(w >= kappa).tolist() == ocapped.tolist()

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_bit_for_bit_with_the_full_scan(self, n):
        # the scan reads Python floats of the first sorted weights only; it
        # must give the kappa bits and capped set of the scan over them all
        rng = np.random.default_rng(n)
        for k in range(2000):
            w = np.exp(rng.uniform(-8.0, 8.0, size=n)) if k % 2 else rng.uniform(0.01, 10.0, n)
            if k % 5 == 0:
                w[rng.integers(n, size=3)] = w.max()  # ties at the top
            if k % 3 == 0:
                target = float(rng.uniform(0.001, 0.999))
            elif k % 3 == 1 and n > 1:
                target = float(rng.uniform(1.0 / n, 1.0))
            else:
                target = float(rng.choice(_near_one_over(int(rng.integers(2, n + 3)))))
            expected = cap_threshold_scan(w, target)
            _kappa_or_raise(w, target, None if expected is None else expected[0])
            if expected is not None:
                capped = np.flatnonzero(w >= cap_threshold(w, target))
                assert capped.tolist() == expected[1].tolist()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ties_at_the_top_and_targets_at_one_over_k(self, n):
        # every count of weights tied at the top, against every target at
        # 1/k or one ulp from it, where a cap size's test turns on one ulp
        for tied in range(1, n + 1):
            w = np.array([3.0] * tied + [0.5 + 0.25 * i for i in range(n - tied)])
            for k in range(2, n + 3):
                for target in _near_one_over(k):
                    expected = cap_threshold_scan(w, target)
                    _kappa_or_raise(w, target, None if expected is None else expected[0])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_sort_matches_the_argsort_scan(self, data):
        # ties, weights over 1e-300..1, and targets across (0, 1) and at 1/k
        n = data.draw(st.integers(1, 40))
        pool = data.draw(st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=n))
        w = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        target = data.draw(
            st.floats(1e-3, 1.0, exclude_max=True)
            | st.integers(2, n + 2).flatmap(lambda k: st.sampled_from(_near_one_over(k)))
        )
        try:
            expected = cap_threshold_argsort(w, target)
        except NumericPathologyError:
            expected = None
        _kappa_or_raise(w, target, expected)

    @pytest.mark.parametrize("form", [np.ones, lambda n: [1.0] * n])
    def test_rejects_bad_target(self, form):
        with pytest.raises(InvalidConfigError, match=r"target must be in \(0, 1\), got 0.0"):
            cap_threshold(form(3), 0.0)
        with pytest.raises(InvalidConfigError, match=r"target must be in \(0, 1\), got 1.0"):
            cap_threshold(form(3), 1.0)


class TestMarginals:
    # expected values follow probs = m (1 - eta) w' / sum(w') + m eta / N,
    # where w' replaces the capped weights by kappa

    def test_uniform_weights_give_m_over_n(self):
        probs, capped = _marginals(_learner(np.ones(4), 0.5), 2)
        np.testing.assert_allclose(probs, 0.5)
        assert capped is None

    def test_capped_dominant_arm(self):
        # eta = 0.2, m = 2: c = (1/2 - 0.05) / 0.8 = 0.5625 and 10 >= 13 c, so
        # arm 0 is capped at kappa = 3 c / (1 - c) = 27/7; w' sums to 48/7 and
        # probs = (7/30) w' + 0.1 = [1, 1/3, 1/3, 1/3]
        probs, capped = _marginals(_learner([10.0, 1.0, 1.0, 1.0], 0.2), 2)
        np.testing.assert_allclose(probs, [1.0, 1 / 3, 1 / 3, 1 / 3])
        assert capped.tolist() == [0]
        assert probs[0] == 1.0  # pinned exactly

    def test_uncapped_when_below_threshold(self):
        # for m = 1 the check 10 >= c * 13 fails (c = 0.95 / 0.8 > 1), so
        # probs = 0.8 w / 13 + 0.05 with no capping
        probs, capped = _marginals(_learner([10.0, 1.0, 1.0, 1.0], 0.2), 1)
        np.testing.assert_allclose(
            probs, [8 / 13 + 0.05, 0.8 / 13 + 0.05, 0.8 / 13 + 0.05, 0.8 / 13 + 0.05]
        )
        assert capped is None

    def test_rejects_bad_play_count(self):
        learner = _learner(np.ones(4), 0.1)
        with pytest.raises(InvalidConfigError, match="m must satisfy 1 <= m < 4, got 0"):
            learner.play(0, 0.5)
        with pytest.raises(InvalidConfigError, match="m must satisfy 1 <= m < 4, got 4"):
            learner.play(4, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=8),
        eta=st.floats(0.0, 0.9, exclude_min=True),
        data=st.data(),
    )
    def test_marginal_sum_and_range(self, weights, eta, data):
        m = data.draw(st.integers(1, len(weights) - 1))
        probs, capped = _marginals(_learner(weights, eta), m)
        assert abs(probs.sum() - m) <= 1e-9
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        if capped is not None:
            assert np.all(probs[capped] == 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6),
        scale=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_scale_invariance(self, weights, scale, data):
        m = data.draw(st.integers(1, len(weights) - 1))
        a_probs, a_capped = _marginals(_learner(weights, 0.2), m)
        b_probs, b_capped = _marginals(_learner(scale * np.array(weights), 0.2), m)
        np.testing.assert_allclose(a_probs, b_probs, rtol=1e-9, atol=1e-12)
        assert (a_capped is None) == (b_capped is None)
        if a_capped is not None:
            assert a_capped.tolist() == b_capped.tolist()


class TestDepRound:
    def test_integral_marginals_are_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert dep_round(2, np.array([1.0, 1.0, 0.0, 0.0]), rng.random()) == [0, 1]

    def test_certain_arm_and_fractional_pair(self):
        rng = np.random.default_rng(1)
        hits = np.zeros(3)
        draws = 100_000
        for _ in range(draws):
            chosen = dep_round(2, np.array([1.0, 0.3, 0.7]), rng.random())
            assert len(chosen) == 2
            assert 0 in chosen
            hits[chosen] += 1
        freq = hits / draws
        assert freq[0] == 1.0
        for i, p in ((1, 0.3), (2, 0.7)):
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(freq[i] - p) <= 3 * sigma

    def test_uniform_half_marginals(self):
        rng = np.random.default_rng(2)
        p = np.full(4, 0.5)
        draws = 100_000
        freq = dep_round_many(2, p, rng.random(draws)).mean(axis=0)
        sigma = math.sqrt(0.25 / draws)
        assert np.all(np.abs(freq - 0.5) <= 3 * sigma)

    def test_batch_matches_sequential_draws(self):
        # the learner-marginal cases of the acceptance test's recipe: each
        # dep_round draw equals the reference's row for the same double
        rng = np.random.default_rng(11)
        for case in range(50):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(1, n))
            learner = _learner(rng.uniform(0.05, 5.0, size=n), float(rng.uniform(0.0, 0.5)))
            p, _ = _marginals(learner, m)
            us = np.random.default_rng(case).random(500)
            batch = dep_round_many(m, p, us)
            for k, u in enumerate(us.tolist()):
                assert np.flatnonzero(batch[k] == 1.0).tolist() == dep_round(m, p, u)

    def test_rejects_inconsistent_marginals(self):
        with pytest.raises(InvalidConfigError, match=r"marginals sum to .*1\.5.*, expected 2"):
            dep_round(2, np.array([0.5, 0.5, 0.5]), 0.5)
        with pytest.raises(InvalidConfigError, match=r"marginals must lie in \[0, 1\]"):
            dep_round(1, np.array([1.2, -0.2]), 0.5)
        with pytest.raises(InvalidConfigError, match="m must satisfy 1 <= m < 3, got 3"):
            dep_round(3, np.array([1.0, 1.0, 1.0]), 0.5)

    @pytest.mark.parametrize("u", [math.nan, math.inf, 1.0, 1.7, -0.3])
    def test_rejects_a_uniform_outside_the_unit_interval(self, u):
        with pytest.raises(InvalidConfigError, match=r"u must be in \[0, 1\), got "):
            dep_round(1, [0.2, 0.3, 0.5], u)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_output_size_always_m(self, data):
        n = data.draw(st.integers(2, 8))
        m = data.draw(st.integers(1, n - 1))
        raw = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(
                lambda v: sum(v) > 0
            )
        )
        p = np.array(raw)
        p = p / p.sum() * m  # m / p.sum() overflows when the sum is subnormal
        if p.max() > 1.0:  # renormalize the overflow onto the rest
            excess = p - np.minimum(p, 1.0)
            p = np.minimum(p, 1.0)
            room = 1.0 - p
            if room.sum() <= 0:
                return
            p = p + room * (excess.sum() / room.sum())
            if abs(p.sum() - m) > 1e-9 or p.max() > 1.0:
                return
        seed = data.draw(st.integers(0, 2**32 - 1))
        chosen = dep_round(m, p, np.random.default_rng(seed).random())
        assert len(chosen) == m
        assert np.all(p[chosen] > 0.0)

    def test_exact_draw_from_the_rule(self):
        # cumulative marginals [0.5, 1, 1.5, 2], spacing 2 / 2 = 1: the points
        # 0.25 and 1.25 fall in [0, 0.5) and [1, 1.5), arms 0 and 2
        assert dep_round(2, np.full(4, 0.5), 0.25) == [0, 2]
        # the points are spread over the actual total, so the same marginals
        # at a quarter of the scale draw the same arms
        p = np.full(4, 0.125)
        assert dep_round(2, p, 0.25, cumulative=p.cumsum()) == [0, 2]

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("drift", [1e-10, -1e-10])
    @pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (3, 7), (9, 10), (50, 100), (999, 1000)])
    def test_extreme_uniforms_stay_in_range(self, m, n, drift, u):
        # at u = 1 - 2**-53, u + m - 1 rounds up to m, so the top point lands
        # on the total itself
        base = (m + drift) / n
        q = np.random.default_rng(m).uniform(-1.0, 1.0, size=n)
        p = base + 0.5 * min(base, 1.0 - base) * (q - q.mean())
        assert p.max() < 1.0 and abs(p.sum() - (m + drift)) < 1e-12
        chosen = dep_round(m, p, u)
        assert len(chosen) == m and len(set(chosen)) == m
        assert min(chosen) >= 0 and max(chosen) < n

    @pytest.mark.parametrize("weights", [[10.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 10.0]])
    def test_learner_marginals_with_capped_and_zero_arms(self, weights):
        probs, capped = _marginals(_learner(weights, 0.2), 2)
        assert probs[capped].tolist() == [1.0]
        # zero-mass arms first, in the middle and last
        p = np.insert(probs, [0, 2, 4], 0.0)
        sure = np.flatnonzero(p == 1.0)
        never = np.flatnonzero(p == 0.0)
        assert never.tolist() == [0, 3, 6]
        rng = np.random.default_rng(8)
        hits = np.zeros(p.size)
        for u in rng.random(20_000).tolist():
            hits[dep_round(2, p, u)] += 1
        assert hits[sure].tolist() == [20_000] and not hits[never].any()

    def test_unchecked_marginal_above_one_raises(self):
        # the interval [0, 1.5) of arm 0 holds both points 0 and 1: the
        # duplicate is reported, not repaired
        p = np.array([1.5, 0.5, 0.0])
        with pytest.raises(NumericPathologyError, match="did not draw 2 distinct arms"):
            dep_round(2, p, 0.0, cumulative=p.cumsum())

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_bisection_matches_the_sorted_search_reference(self, data):
        # fractional arms with runs of zero-mass arms first, in the middle and
        # last, arms at exactly 1.0, and a sum off by up to 1e-10: the same
        # draw as numpy's searchsorted, or the same error.  The marginals go
        # in unchecked, so a fractional arm may exceed 1 and repeat a point.
        k = data.draw(st.integers(1, 8))
        raw = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
        f = data.draw(st.integers(1, k))
        drift = data.draw(st.sampled_from([0.0, 1e-10, -1e-10]))
        frac = raw / raw.sum() * (f + drift)
        runs = [np.zeros(data.draw(st.integers(0, 3))) for _ in range(3)]
        ones = np.ones(data.draw(st.integers(0, 3)))
        head, tail = frac[: k // 2], frac[k // 2 :]
        p = np.concatenate([runs[0], head, ones, runs[1], tail, runs[2]])
        m = f + ones.size
        if m >= p.size:
            return
        extreme = st.sampled_from([0.0, 1.0 - 2.0**-53])
        u = data.draw(extreme | st.floats(0.0, 1.0, exclude_max=True))
        c = p.cumsum()
        if p.max() <= 1.0:  # the checked path takes the arms at 1.0 outright
            try:
                expected = certainty_draw(m, p, u)
            except NumericPathologyError:
                with pytest.raises(NumericPathologyError, match="distinct arms"):
                    dep_round(m, p, u)
            else:
                assert dep_round(m, p, u) == expected
        try:
            expected = systematic_draw(m, c, u)
        except NumericPathologyError:
            with pytest.raises(NumericPathologyError, match=f"did not draw {m} distinct arms"):
                dep_round(m, p, u, cumulative=memoryview(c))
            return
        assert dep_round(m, p, u, cumulative=memoryview(c)) == expected


class TestMultiPlayRound:
    def test_zero_rewards_leave_weights_unchanged(self):
        learner = _learner(np.ones(4), 0.5)
        chosen, probs = learner.play(2, 0.3)
        learner.update(chosen, [0.0] * len(chosen), probs)
        np.testing.assert_array_equal(learner.weights, np.ones(4))
        np.testing.assert_allclose(_marginals(learner, 2)[0], 0.5)

    def test_capped_arm_weight_is_frozen_and_always_chosen(self):
        # arm 0 is capped (see TestMarginals.test_capped_dominant_arm): it is
        # scanned with certainty, and a full reward moves only the uncapped
        # scanned arm, by exp(coef / p) with coef = m eta / N
        w0 = np.array([10.0, 1.0, 1.0, 1.0])
        coef = 2 * 0.2 / 4
        rng = np.random.default_rng(1)
        for _ in range(20):
            learner = _learner(w0, 0.2)
            chosen, probs = learner.play(2, rng.random())
            assert 0 in chosen
            assert np.flatnonzero(np.asarray(probs) == 1.0).tolist() == [0]
            learner.update(chosen, [1.0] * len(chosen), probs)
            expected = w0.copy()
            for j in chosen:
                if j != 0:
                    expected[j] *= math.exp(coef / probs[j])
            # the rescale divides by the maximum, the capped arm's unmoved 10
            np.testing.assert_allclose(learner.weights, expected / 10.0)
            assert learner.weights[0] == 1.0

    def test_estimates_are_unbiased(self):
        # empirical mean of the importance-weighted estimates matches the
        # fixed reward vector
        y = np.array([0.8, 0.2, 0.5, 0.0])
        learner = _learner([3.0, 1.0, 2.0, 0.5], 0.3)
        marg, _ = _marginals(learner, 2)
        rng = np.random.default_rng(5)
        draws = 40_000
        acc = np.zeros(4)
        for u in rng.random(draws).tolist():
            chosen, probs = learner.play(2, u)
            acc[chosen] += y[chosen] / np.asarray(probs)[chosen]
        mean = acc / draws
        for i in range(4):
            p = marg[i]
            var = (y[i] / p) ** 2 * p * (1 - p)
            assert abs(mean[i] - y[i]) <= 4 * math.sqrt(var / draws) + 1e-12


_WEIGHT = st.floats(1e-3, 1e3)


def _weight_vector(data, n):
    w = np.array(data.draw(st.lists(_WEIGHT, min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        w[data.draw(st.integers(0, n - 1))] = 1e6  # capping fires for m >= 2
    return w


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _draw_or_error(learner, m, u):
    """``learner.play(m, u)``'s scan set, or the message of the error it raises."""
    try:
        return learner.play(m, u)[0]
    except NumericPathologyError as exc:
        return str(exc)


def _read_only(seq):
    """Whether a plan's sequence refuses writes: a tuple, a read-only array
    or a read-only memoryview."""
    if isinstance(seq, np.ndarray):
        return not seq.flags.writeable
    return isinstance(seq, tuple) or seq.readonly


class TestCertaintyArms:
    """An arm at exactly 1.0 is drawn outright and the other m - k points are
    placed over the running sums of the rest, so that no valid learner state
    stops a run: over all arms, rounding can put a point on a capped arm's
    boundary and give it zero points or two."""

    EDGES = (0.0, 2.0**-53, 1.0 - 2.0**-53)

    def test_the_boundary_state_draws(self):
        learner = _learner([3.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0], 0.48046875)
        probs, _, capped = learner._plan(6)
        assert capped == (0,)
        # the running sums over every arm end at 6 - 2**-50, and the draw at
        # u = 0 hits arm 0 twice
        with pytest.raises(NumericPathologyError):
            systematic_draw(6, np.cumsum(probs), 0.0)
        assert learner.play(6, 0.0)[0] == dep_round(6, probs, 0.0) == [0, 1, 2, 3, 4, 5]

    @settings(max_examples=600, deadline=None)
    @given(
        n=st.integers(2, 40),
        eta=st.floats(0.01, 0.95),
        raw=st.lists(st.integers(1, 4).map(float) | _WEIGHT, min_size=40, max_size=40),
        data=st.data(),
    )
    def test_learner_draws_never_raise(self, n, eta, raw, data):
        # small integer weights tie the marginals and cap the top ones, as in
        # the state above; N spans both plan builders
        m = data.draw(st.integers(1, n - 1))
        u = data.draw(st.sampled_from(self.EDGES) | st.floats(0.0, 1.0, exclude_max=True))
        learner = _learner(raw[:n], eta)
        chosen, probs = learner.play(m, u)
        assert len(chosen) == m and chosen == sorted(set(chosen))
        assert set(np.flatnonzero(np.asarray(probs) == 1.0).tolist()) <= set(chosen)
        assert dep_round(m, probs, u) == chosen  # the checked path has the same rule

    def test_random_uniforms_draw_what_the_full_running_sums_draw(self):
        # on a random u the certainty rule draws the arms that systematic
        # sampling over every arm's running sums draws
        rng = np.random.default_rng(2027)
        capped_states = 0
        for case in range(2000):
            n = int(rng.integers(3, 40))
            w = rng.integers(1, 4, n).astype(float) if case % 2 else np.exp(rng.normal(0, 2, n))
            learner = _learner(w, float(rng.uniform(0.01, 0.95)))
            m = int(rng.integers(1, n))
            probs, _, capped = learner._plan(m)
            capped_states += bool(capped)
            for u in rng.random(4).tolist():
                assert learner.play(m, u)[0] == systematic_draw(m, np.cumsum(probs), u)
        assert capped_states > 100


class TestPlanCache:
    """The learner's cached per-play-count plans against a fresh learner."""

    def _check_plans(self, learner, eta):
        for m, (probs, cumulative, capped) in learner._plans.items():
            fresh_probs, fresh_capped = _marginals(_learner(learner.weights, eta), m)
            assert _bits(np.asarray(probs)) == _bits(fresh_probs)
            pinned = np.flatnonzero(np.asarray(probs) == 1.0)
            assert pinned.tolist() == ([] if fresh_capped is None else fresh_capped.tolist())
            assert capped == tuple(pinned.tolist())
            # the capped arms add 0 to the running sums
            free = np.where(fresh_probs == 1.0, 0.0, fresh_probs)
            assert _bits(np.asarray(cumulative)) == _bits(free.cumsum())
            assert _read_only(probs) and _read_only(cumulative) and type(capped) is tuple

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_plans_match_a_fresh_learner(self, data):
        # one learner with its weights in a list (bound n) and one in an
        # array (bound 0), stepped alike: same draws, same weight bits
        n = data.draw(st.integers(2, 12))
        eta = data.draw(st.floats(0.01, 0.9))
        w = _weight_vector(data, n)
        learners = {bound: _learner(w, eta, bound) for bound in (n, 0)}
        assert type(learners[n]._weights) is list
        assert type(learners[0]._weights) is np.ndarray
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        steps = st.sampled_from(["play", "update", "assign"])
        for step in data.draw(st.lists(steps, min_size=1, max_size=20)):
            m = data.draw(st.integers(1, n - 1))
            u = rng.random()
            if step == "assign":
                w = _weight_vector(data, n)
            elif step == "update":
                rewards = data.draw(
                    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m)
                )
            for bound, learner in learners.items():
                if step == "assign":
                    _assign(learner, w, bound)
                    assert not learner._plans
                elif step == "play":
                    fresh_probs, _ = _marginals(_learner(learner.weights, eta), m)
                    chosen, probs = learner.play(m, u)
                    assert chosen == dep_round(m, fresh_probs, u)
                    # the cached plan's array, which _check_plans compares
                    assert probs is learner._plans[m][0]
                    assert _read_only(probs)
                else:
                    chosen, probs = learner.play(m, u)
                    _, capped = _marginals(_learner(learner.weights, eta), m)
                    frozen = set() if capped is None else set(capped.tolist())
                    moving = any(y and j not in frozen for j, y in zip(chosen, rewards))
                    before = list(learner._plans.values())
                    learner.update(chosen, rewards, probs)
                    after = list(learner._plans.values())
                    if moving:
                        assert not after  # no plan survives a moving update
                    else:
                        assert len(after) == len(before)
                        assert all(a is b for a, b in zip(after, before))
                self._check_plans(learner, eta)
            assert learners[n].weights.tobytes() == learners[0].weights.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_capped_arms_are_the_arms_at_one(self, data):
        # the marginals are the capped set's only record: exactly 1.0 at
        # {w >= kappa} when capping fires and nowhere otherwise
        n = data.draw(st.integers(2, 12))
        eta = data.draw(st.floats(0.01, 0.9))
        m = data.draw(st.integers(1, n - 1))
        w = _weight_vector(data, n)
        learner = _learner(w.copy(), eta)
        _, probs = learner.play(m, 0.5)
        probs = np.asarray(probs)
        c = (1.0 / m - eta / n) / (1.0 - eta)
        capped = w >= cap_threshold(w, c) if w.max() >= c * w.sum() else np.zeros(n, bool)
        assert np.array_equal(probs == 1.0, capped)
        # a reward of 1 on every arm (coef = eta) moves exactly the uncapped
        # weights, each by exp(eta / p) >= e**0.01, before the rescale
        learner.update(list(range(n)), [1.0] * n, probs)
        moved = np.where(capped, w, w * np.exp(eta / probs))
        np.testing.assert_allclose(learner.weights, moved / moved.max(), rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_both_builders_agree_bit_for_bit(self, data):
        # the same state on the tuple builder (bound n) and the numpy builder
        # (bound n - 1): k arms tied at the maximum 1.0, the rest spanning
        # 1e-300..1, so 0..k arms are capped as m varies over [1, N)
        n = data.draw(st.integers(2, 40))
        k = data.draw(st.integers(1, n - 1))
        rest = data.draw(st.lists(st.floats(1e-300, 1.0), min_size=n - k, max_size=n - k))
        shrink = data.draw(st.sampled_from([1.0, 1e-2, 1e-6]))
        w = np.array([1.0] * k + [x * shrink for x in rest])
        w = w[np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(n)]
        eta = data.draw(st.floats(0.01, 0.9))
        us = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4))
        for m in range(1, n):
            plans = []
            for bound in (n, n - 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(game, "SMALL_PLAN_ARMS", bound)
                    learner = _learner(w, eta)
                    probs, cumulative, capped = learner._plan(m)
                    draws = [_draw_or_error(learner, m, u) for u in us]
                plans.append((probs, cumulative, capped, draws))
            (small_p, small_c, small_k, small_d), (big_p, big_c, big_k, big_d) = plans
            assert type(small_p) is tuple and type(small_c) is tuple
            assert isinstance(big_p, np.ndarray) and isinstance(big_c, memoryview)
            assert _bits(np.array(small_p)) == _bits(big_p)
            assert _bits(np.array(small_c)) == _bits(np.asarray(big_c))
            assert small_k == big_k
            assert small_d == big_d

    @pytest.mark.parametrize("bound, error", [(0, ValueError), (game.SMALL_PLAN_ARMS, TypeError)])
    def test_plan_arrays_reject_writes(self, monkeypatch, bound, error):
        # bound 0 builds the plan with numpy: a read-only array and the
        # cumulative marginals' read-only view; else two tuples
        monkeypatch.setattr(game, "SMALL_PLAN_ARMS", bound)
        learner = _learner([10.0, 1.0, 1.0, 1.0], 0.2)
        _, probs = learner.play(2, 0.5)
        with pytest.raises(error):
            probs[0] = 0.5
        with pytest.raises(TypeError):
            learner._plans[2][1][0] = 0.0


class TestHedge:
    # Exp3Attacker keeps weights exp(cumulative_estimate); its
    # weight-proportional part is the hedge distribution

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
    def test_rejects_eta_outside_0_1(self, eta):
        with pytest.raises(InvalidConfigError, match=rf"eta must be in \(0, 1\], got {eta}"):
            Exp3Attacker(5, eta=eta)

    def test_zero_cumulative_is_uniform(self):
        att = Exp3Attacker(5, eta=0.5)
        np.testing.assert_allclose(exp3_probabilities(att.weights, att.eta), 0.2)

    def test_simple_two_arm_case(self):
        # at eta = 1 the estimate equals the reward, so one unit reward on
        # arm 0 makes the cumulative estimates [1, 0]
        att = Exp3Attacker(2, eta=1.0)
        att.update(0, 1.0)
        e = math.e
        np.testing.assert_allclose(att.weights / att.weights.sum(), [e / (e + 1), 1 / (e + 1)])

    def test_large_gap_saturates_stably(self):
        # the weights in a list (bound 2) and in an array (bound 1) move alike
        atts = [_assign(Exp3Attacker(2, eta=1.0), np.ones(2), bound) for bound in (2, 1)]
        for _ in range(100):
            for att in atts:
                att.update(0, 1.0)  # cumulative gap 100
        for att in atts:
            beta = att.weights / att.weights.sum()
            assert np.argmax(beta) == 0
            assert beta[0] > 1 - 1e-6
        # a gap of 20000 (e**20000 overflows a float) stays finite through
        # the 1e100 rescale, which both forms pass at the same update
        rescales = 0
        for _ in range(19_900):
            for att in atts:
                att.update(0, 1.0)
            small, big = (att.weights for att in atts)
            assert small.tobytes() == big.tobytes()
            rescales += small[0] == 1.0
        assert rescales > 50
        for att in atts:
            assert np.all(np.isfinite(att.weights)) and att.weights.max() <= 1e100
            probs = exp3_probabilities(att.weights, att.eta)
            assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_both_weight_forms_agree_bit_for_bit(self, data):
        # one attacker with its weights in a list (bound n) and one in an
        # array (bound n - 1), on the same uniforms and rewards; a top weight
        # just under 1e100 puts the rescale within a few updates
        n = data.draw(st.integers(2, 40))
        eta = data.draw(st.floats(0.01, 1.0))
        w = np.exp(np.array(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))))
        w *= data.draw(st.sampled_from([1.0, 9.9e99])) / w.max()
        atts = [_assign(Exp3Attacker(n, eta), w, bound) for bound in (n, n - 1)]
        assert type(atts[0]._weights) is list and type(atts[1]._weights) is np.ndarray
        seed = data.draw(st.integers(0, 2**32 - 1))
        rngs = [np.random.default_rng(seed) for _ in atts]
        for y in data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1, max_size=60)):
            arms = [att.select(rng) for att, rng in zip(atts, rngs)]
            assert arms[0] == arms[1]
            for att in atts:
                att.update(arms[0], y)
            assert atts[0].weights.tobytes() == atts[1].weights.tobytes()

    def test_zero_reward_is_a_no_op(self):
        att = Exp3Attacker(3, eta=0.5)
        att.update(1, 1.0)
        weights = att.weights.copy()
        att.update(1, 0.0)
        att.update(2, 0.0)
        assert att.weights.tobytes() == weights.tobytes()


class TestSinglePlayRound:
    def test_eta_one_samples_uniformly(self):
        att = Exp3Attacker(3, eta=1.0)
        for _ in range(50):
            att.update(0, 1.0)  # cumulative estimates [50, 0, 0]
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        draws = 60_000
        for _ in range(draws):
            counts[att.select(rng)] += 1
        freq = counts / draws
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        assert np.all(np.abs(freq - 1 / 3) <= 4 * sigma)

    def test_estimate_formula(self):
        # uniform two-arm state, eta = 0.5: mixture prob of each arm is 0.5,
        # so a reward of 1 yields the scaled estimate (0.5/2) * 1 / 0.5 = 0.5
        att = Exp3Attacker(2, eta=0.5)
        rng = np.random.default_rng(3)
        arm = att.select(rng)
        assert exp3_probabilities(att.weights, att.eta)[arm] == pytest.approx(0.5)
        att.update(arm, 1.0)
        assert att.weights[arm] == math.exp(0.5)
        assert att.weights[1 - arm] == 1.0

    def test_tracks_a_fixed_best_arm(self):
        # adversary always rewards arm 0; with a horizon-tuned rate the
        # learner must pull it most of the time
        from vpbandit.analysis import corollary11_eta

        n, horizon = 5, 10_000
        eta, _ = corollary11_eta(n, 1, 1, horizon)
        att = Exp3Attacker(n, eta)
        rng = np.random.default_rng(11)
        pulls = 0
        for _ in range(horizon):
            arm = att.select(rng)
            att.update(arm, 1.0 if arm == 0 else 0.0)
            pulls += arm == 0
        best = horizon  # brute-force comparator: arm 0 every round
        assert pulls / best > 0.9

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("gap", [0.0, 40.0, 2000.0])
    def test_extreme_uniforms_pick_an_arm_in_range(self, u, gap):
        # the first uniform skips exploration; the second is u.  A gap of
        # 2000 on arm 0 leaves the other weights below an ulp of the total
        n = 7
        att = Exp3Attacker(n, eta=0.5)
        for _ in range(int(gap)):
            att.update(0, 1.0)
        arm = att.select(_FixedUniform(0.75, u))
        assert 0 <= arm < n
        assert arm == (0 if u == 0.0 or gap == 2000.0 else n - 1)
