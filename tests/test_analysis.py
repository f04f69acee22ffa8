"""Tests for hindsight optima, closed-form bounds, and regret accounting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import g_max_curve as scipy_g_max_curve
from reference import per_count_bound
from vpbandit import analysis
from vpbandit.analysis import (
    _CHUNK_ELEMENTS,
    attacker_value,
    corollary11_eta,
    g_max,
    g_max_curve,
    pseudo_regret,
    theorem1_bound,
)
from vpbandit.environments import BernoulliEnv, PayoffProfile, bernoulli_rewards
from vpbandit.errors import InvalidConfigError
from vpbandit.game import SinglePlayerSpec
from vpbandit.scaling import ScalingSpec, sample_arm_counts


def _gmax_brute_force(reward_matrix, play_counts):
    """Try every ordered assignment of arms to ranks 1..b."""
    y = np.asarray(reward_matrix, dtype=float)
    m = np.asarray(play_counts, dtype=int)
    b = int(m.max())
    best = -1.0
    for ranking in itertools.permutations(range(y.shape[1]), b):
        total = sum(y[t, list(ranking[: m[t]])].sum() for t in range(y.shape[0]))
        best = max(best, total)
    return best


class TestGMax:
    def test_constant_play_count_is_top_m_column_sums(self):
        rng = np.random.default_rng(0)
        y = rng.random((12, 5))
        m = np.full(12, 2)
        value, ranking = g_max(y, m)
        expected = np.sort(y.sum(axis=0))[-2:].sum()
        assert value == pytest.approx(expected)

    def test_small_known_instance(self):
        y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        m = np.array([1, 2])
        value, ranking = g_max(y, m)
        assert value == pytest.approx(2.0)

    def test_zero_rewards(self):
        value, _ = g_max(np.zeros((6, 4)), np.array([1, 2, 1, 2, 1, 2]))
        assert value == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            horizon = int(rng.integers(1, 9))
            b = int(rng.integers(1, min(3, n - 1) + 1))
            y = rng.random((horizon, n))
            m = rng.integers(1, b + 1, size=horizon)
            value, _ = g_max(y, m)
            assert value == pytest.approx(_gmax_brute_force(y, m), abs=1e-12)

    def test_curve_ends_at_full_optimum(self):
        rng = np.random.default_rng(2)
        y = rng.random((40, 6))
        m = rng.integers(1, 4, size=40)
        curve = g_max_curve(y, m)
        assert curve.shape == (40,)
        assert np.all(np.diff(curve) >= -1e-12)  # prefix optima grow
        assert curve[-1] == pytest.approx(g_max(y, m)[0])


class TestHindsightInputs:
    """``g_max`` and ``g_max_curve`` share one check and reject the same input."""

    ONES = np.ones((4, 3))

    @pytest.mark.parametrize("optimum", [g_max, g_max_curve])
    @pytest.mark.parametrize(
        "counts", [[4, 4, 4, 4], [1, -1, 2, 1], [0, 1, 1, 1], [1.0, 2.0, 1.0, 1.0], [1, 2.5, 1, 1]]
    )
    def test_play_counts_must_be_integers_in_one_to_n(self, optimum, counts):
        with pytest.raises(InvalidConfigError, match="play counts"):
            optimum(self.ONES, counts)

    @pytest.mark.parametrize("optimum", [g_max, g_max_curve])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rewards_must_be_finite(self, optimum, bad):
        y = self.ONES.copy()
        y[2, 1] = bad
        with pytest.raises(InvalidConfigError, match="finite"):
            optimum(y, [1, 2, 1, 1])

    @pytest.mark.parametrize("optimum", [g_max, g_max_curve])
    @pytest.mark.parametrize(
        "y, counts",
        [
            (np.ones((0, 3)), []),  # empty horizon
            (np.ones(3), [1]),  # not a matrix
            (np.ones((4, 3)), [1, 1, 1]),  # one count short
            (np.ones((4, 3)), [[1, 1, 1, 1]]),  # counts not a vector
        ],
    )
    def test_shapes(self, optimum, y, counts):
        with pytest.raises(InvalidConfigError, match=r"need a \(T, N\) reward matrix"):
            optimum(y, counts)


class TestAgainstScipy:
    """The numpy optimum against one ``linear_sum_assignment`` per round."""

    @staticmethod
    def _case(rng, n, b, horizon, rewards):
        m = rng.integers(1, b + 1, size=horizon)
        m[rng.integers(horizon)] = b  # b is the largest count
        if rewards == "binary":
            y = (rng.random((horizon, n)) < 0.5).astype(float)
        elif rewards == "sparse":  # mostly zero: many tied arms and tied optima
            y = (rng.random((horizon, n)) < 0.05).astype(float)
        elif rewards == "integer":
            y = rng.integers(-2, 4, size=(horizon, n)).astype(float)
        else:
            y = rng.normal(0.3, 1.0, size=(horizon, n))
        return y, m

    def _check(self, y, m, exact):
        curve = g_max_curve(y, m)
        expected = scipy_g_max_curve(y, m)
        if exact:
            np.testing.assert_array_equal(curve.view(np.int64), expected.view(np.int64))
        else:
            np.testing.assert_allclose(curve, expected, rtol=1e-12, atol=0)
        value, ranking = g_max(y, m)
        assert value == curve[-1]
        assert ranking.shape == (int(m.max()),)
        assert len(set(ranking.tolist())) == ranking.size  # distinct arms
        attained = sum(y[t, ranking[: m[t]]].sum() for t in range(y.shape[0]))
        assert attained == pytest.approx(value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rewards", ["binary", "sparse", "integer", "real"])
    @pytest.mark.parametrize("b", range(1, 8))
    def test_random_shapes_on_both_sides_of_the_cut(self, rewards, b):
        rng = np.random.default_rng(100 * b + len(rewards))
        for n in sorted({b, b + 1, b * b, b * b + 1, b * b + 9}):
            for horizon in (1, 7, 40):
                y, m = self._case(rng, n, b, horizon, rewards)
                self._check(y, m, exact=rewards != "real")

    @pytest.mark.parametrize("rewards", ["sparse", "integer", "real"])
    @pytest.mark.parametrize("n, b", [(100, 1), (300, 2), (1200, 7), (30, 6), (49, 7)])
    def test_across_chunk_boundaries(self, rewards, n, b):
        rng = np.random.default_rng(n + b)
        chunk = _CHUNK_ELEMENTS // (b * n)  # rounds per chunk
        y, m = self._case(rng, n, b, 3 * chunk + 5, rewards)
        self._check(y, m, exact=rewards != "real")


def _tolerance(y):
    """Float rounding of sums of ``y``: 0 on integers, else a few ulps of the total."""
    return 0.0 if np.array_equal(y, np.round(y)) else 1e-12 * (1.0 + np.abs(y).sum())


class TestCertificate:
    """The greedy chain certified by per-count top sums, and its fallback."""

    @pytest.fixture
    def assigned(self, monkeypatch):
        """Rounds that reach the assignment solver, one entry per call."""
        calls = []
        solver = analysis._assign

        def counting(gains):
            calls.append(gains.shape[0])
            return solver(gains)

        monkeypatch.setattr(analysis, "_assign", counting)
        return calls

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_scipy_on_ties_and_reals(self, data):
        n = data.draw(st.integers(1, 8))
        b = data.draw(st.integers(1, n))
        horizon = data.draw(st.integers(1, 12))
        integer = data.draw(st.booleans())
        reward = st.integers(-2, 3) if integer else st.floats(-3.0, 3.0)
        y = np.array(data.draw(st.lists(reward, min_size=horizon * n, max_size=horizon * n)))
        y = y.astype(float).reshape(horizon, n)
        m = np.array(data.draw(st.lists(st.integers(1, b), min_size=horizon, max_size=horizon)))
        curve = g_max_curve(y, m)
        expected = scipy_g_max_curve(y, m)
        if integer:
            np.testing.assert_array_equal(curve.view(np.int64), expected.view(np.int64))
        else:
            np.testing.assert_allclose(curve, expected, rtol=1e-12, atol=1e-12)
        value, ranking = g_max(y, m)
        assert value == curve[-1]
        assert len(set(ranking.tolist())) == ranking.size == m.max()
        attained = sum(y[t, ranking[: m[t]]].sum() for t in range(horizon))
        assert attained == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert np.all(curve <= per_count_bound(y, m) + _tolerance(y))

    @pytest.mark.parametrize(
        "rows, counts, calls",
        [
            # M = 1 rounds pay arm 0, M = 2 rounds pay arms 1 and 2: the best
            # 1-set is not in the best 2-set, so rounds 1 and 2 go to the solver
            ([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0]], [1, 2, 2], [2]),
            # round 0 fails too (rank 0 takes arm 0 of the tied zeros), so the
            # whole chunk goes to the solver in one call
            ([[0, 1, 1, 0], [1, 0, 0, 0], [0, 1, 1, 0]], [2, 1, 2], [3]),
            # nested best sets: no round reaches the solver
            ([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0]], [1, 2, 2], []),
        ],
    )
    def test_unnested_counts_reach_the_solver(self, assigned, rows, counts, calls):
        y, m = np.array(rows, dtype=float), np.array(counts)
        curve = g_max_curve(y, m)
        assert assigned == calls
        expected = [_gmax_brute_force(y[: t + 1], m[: t + 1]) for t in range(len(m))]
        np.testing.assert_array_equal(curve, expected)
        # where the counts' best sets do not nest, the optimum is below the bound
        assert curve[-1] < per_count_bound(y, m)[-1] or not calls

    def test_harmonic_instance_rarely_reaches_the_solver(self, assigned):
        # the regret-harmonic benchmark's shape: Bernoulli rewards of the
        # harmonic N = 10 arms, play counts from the truncated Gaussian on
        # [1, 3].  The rounds that fail the certificate are early ones, where
        # the counts' best sets are not nested yet: 0-0.6% of the 8000 rounds
        # at seeds 0-19, 0.15% at seed 0
        rng = np.random.default_rng(0)
        y = bernoulli_rewards(BernoulliEnv.harmonic(10), 8000, rng)
        law = ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8)
        m = sample_arm_counts(law, 8000, rng)
        curve = g_max_curve(y, m)
        assert sum(assigned) < 0.01 * len(m)
        bound = per_count_bound(y, m)
        assert np.all(curve <= bound)
        assert np.mean(curve == bound) >= 0.99

    @pytest.mark.parametrize("rewards", ["integer", "negative", "real"])
    def test_curve_is_below_the_per_count_bound(self, rewards):
        rng = np.random.default_rng(len(rewards))
        for n, b in [(2, 1), (5, 2), (8, 4), (12, 3), (6, 6)]:
            m = rng.integers(1, b + 1, size=60)
            if rewards == "integer":
                y = rng.integers(0, 4, size=(60, n)).astype(float)
            elif rewards == "negative":
                y = rng.integers(-3, 2, size=(60, n)).astype(float)
            else:
                y = rng.normal(0.0, 1.0, size=(60, n))
            curve = g_max_curve(y, m)
            assert np.all(curve <= per_count_bound(y, m) + _tolerance(y))


class TestClosedForms:
    def test_bound_with_zero_gmax(self):
        assert theorem1_bound(0.0, 10, 1, 3, 0.1) == pytest.approx(
            (10 / 0.1) * math.log(10 / 3)
        )

    def test_bound_frozen_value(self):
        # independently evaluated at 50 decimal digits
        assert theorem1_bound(1000.0, 10, 1, 3, 0.1) == pytest.approx(
            435.88182897030717, rel=1e-13
        )

    @pytest.mark.parametrize(
        "n, a, b, eta", [(10, 1, 3, 0.0712), (26, 1, 3, 0.2), (1000, 2, 7, 1.0)]
    )
    def test_bound_over_an_array_is_the_scalar_bound_bit_for_bit(self, n, a, b, eta):
        rng = np.random.default_rng(n)
        gm = np.concatenate([np.arange(10_000.0), rng.uniform(0.0, 1e5, 10_000)])
        looped = np.array([theorem1_bound(g, n, a, b, eta) for g in gm.tolist()])
        whole = theorem1_bound(gm, n, a, b, eta)
        np.testing.assert_array_equal(whole.view(np.int64), looped.view(np.int64))

    def test_tuned_eta_frozen_value(self):
        eta, ceiling = corollary11_eta(10, 1, 3, 100_000)
        assert eta == pytest.approx(0.0035666349775320217, rel=1e-13)
        assert ceiling == pytest.approx(6751.309354113048, rel=1e-13)

    def test_tuned_eta_decreases_with_horizon(self):
        etas = [corollary11_eta(10, 1, 3, t)[0] for t in (1, 1000, 10**6, 10**9)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))
        assert etas[0] == 1.0  # clamped at very short horizons

    def test_parameter_validation(self):
        with pytest.raises(InvalidConfigError, match="need 1 <= a <= b < N, got a=0 b=3 N=5"):
            theorem1_bound(10.0, 5, 0, 3, 0.1)
        with pytest.raises(InvalidConfigError, match="need 1 <= a <= b < N, got a=1 b=5 N=5"):
            theorem1_bound(10.0, 5, 1, 5, 0.1)
        for eta in (0.0, 1.5):
            with pytest.raises(InvalidConfigError, match=rf"eta must be in \(0, 1\], got {eta}"):
                theorem1_bound(10.0, 5, 1, 3, eta)
        # a negative optimum used to give a negative ceiling
        for gmax in (-1e6, -1e-9, np.array([3.0, -1.0, 2.0])):
            with pytest.raises(InvalidConfigError, match="gmax"):
                theorem1_bound(gmax, 10, 1, 3, 0.1)
        assert theorem1_bound(np.zeros(2), 10, 1, 3, 0.1).shape == (2,)
        with pytest.raises(InvalidConfigError, match="horizon must be >= 1, got 0"):
            corollary11_eta(5, 1, 2, 0)

    @pytest.mark.parametrize(
        "gmax, shown",
        [(math.nan, "nan"), (math.inf, "inf"), (np.array([3.0, math.nan, 2.0]), "nan")],
    )
    def test_bound_rejects_a_non_finite_optimum(self, gmax, shown):
        # these used to give a NaN or infinite ceiling
        with pytest.raises(InvalidConfigError, match=f"gmax must be finite, got {shown}"):
            theorem1_bound(gmax, 10, 1, 3, 0.1)

    @pytest.mark.parametrize(
        "gmax, shown", [(-math.inf, "-inf"), (np.array([math.nan, -1.0]), "-1.0")]
    )
    def test_bound_keeps_the_negative_message(self, gmax, shown):
        with pytest.raises(InvalidConfigError, match=f"gmax must be >= 0, got {shown}"):
            theorem1_bound(gmax, 10, 1, 3, 0.1)

    @pytest.mark.parametrize("horizon, shown", [(math.inf, "inf"), (math.nan, "nan")])
    def test_tuned_eta_rejects_a_non_finite_horizon(self, horizon, shown):
        # an infinite horizon used to give eta = 0.0, a NaN one eta = 1.0
        with pytest.raises(InvalidConfigError, match=f"horizon must be finite, got {shown}"):
            corollary11_eta(10, 1, 3, horizon)


def _point(c):
    return (c,), (1.0,), c


class TestAttackerValue:
    def test_equilibrium_of_equal_payoffs(self):
        # mu = 1: V = (N - nu)/N for every nu, on the last support size
        flat = PayoffProfile.homogeneous(10)
        assert attacker_value(flat, _point(2)) == (0.8, 10)
        for nu in range(1, 10):
            assert attacker_value(flat, _point(nu)) == ((10 - nu) / 10, 10)
        assert attacker_value(PayoffProfile.homogeneous(1000), _point(999))[0] == 1 / 1000
        # uniform{1, 2, 3}: sum_m P(m) (N - m)/N would give 0.7999999999999999
        law = ScalingSpec.uniform(1, 3).law()
        assert attacker_value(flat, law) == (0.8, 10)

    def test_greedy_attacker_interval(self):
        # Theorem 2: cut sizes b and a bound the value of every law on [a, b]
        flat = PayoffProfile.homogeneous(10)
        assert attacker_value(flat, _point(3))[0] == pytest.approx(0.7)
        assert attacker_value(flat, _point(1))[0] == pytest.approx(0.9)
        rng = np.random.default_rng(3)
        for _ in range(50):
            prof = PayoffProfile(mu=rng.uniform(0.05, 1.0, size=10))
            probs = rng.dirichlet(np.ones(3))
            value, _ = attacker_value(prof, ((1, 2, 3), probs, probs @ [1, 2, 3]))
            lower, _ = attacker_value(prof, _point(3))
            upper, _ = attacker_value(prof, _point(1))
            assert lower - 1e-12 <= value <= upper + 1e-12

    def test_homogeneous_reduces_to_flat_interval(self):
        for mu in (1.0, 0.6, 0.2):
            prof = PayoffProfile.homogeneous(10, mu)
            upper, k_up = attacker_value(prof, _point(1))
            lower, k_lo = attacker_value(prof, _point(3))
            assert k_lo == k_up == 10
            assert upper == pytest.approx(mu * 9 / 10)
            assert lower == pytest.approx(mu * 7 / 10)

    def test_non_monotone_support(self):
        # with payoffs (1.0, 0.5, 0.1) the third location is too weak to
        # help: the optimum stops at support size 2
        value, kstar = attacker_value(PayoffProfile(mu=np.array([1.0, 0.5, 0.1])), _point(1))
        assert kstar == 2
        assert value == pytest.approx(1 / 3)

    def test_ties_go_to_the_smallest_support(self):
        # payoffs (1, 1, 0.5) at cut size 1: K = 2 and K = 3 both give 1/2
        assert attacker_value(PayoffProfile(mu=np.array([1.0, 1.0, 0.5])), _point(1)) == (0.5, 2)

    def test_value_does_not_depend_on_the_payoff_order(self):
        # the value sorts its own copy of the payoffs: every permutation,
        # ties included, gives the same bits
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            tied = rng.random() < 0.3
            mu = rng.choice([0.25, 0.5, 1.0], n) if tied else rng.uniform(0.05, 1.0, n)
            c = int(rng.integers(1, n))
            laws = [_point(c), _point(c - 0.5), ((1, c), (0.25, 0.75), 0.25 + 0.75 * c)]
            for law in laws:
                expected = attacker_value(PayoffProfile(mu=np.sort(mu)[::-1]), law)
                for _ in range(3):
                    value, kstar = attacker_value(PayoffProfile(mu=rng.permutation(mu)), law)
                    assert (value.hex(), kstar) == (expected[0].hex(), expected[1])

    @pytest.mark.parametrize(
        "law", [_point(0), _point(5), _point(-1.0), _point(5.5), ((1, 5), (0.5, 0.5), 3.0)]
    )
    def test_rejects_counts_outside_zero_to_n(self, law):
        with pytest.raises(InvalidConfigError, match="play counts"):
            attacker_value(PayoffProfile.homogeneous(5), law)


class TestPseudoRegret:
    def test_zero_reward_environment_has_zero_regret(self):
        spec = SinglePlayerSpec(
            env=BernoulliEnv(means=np.zeros(4)),
            scaling=ScalingSpec.uniform(1, 2),
            eta=0.1,
            horizon=200,
        )
        report = pseudo_regret(spec, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(report.regret_mean, 0.0)
        assert np.all(report.bound > 0)

    def test_single_good_arm_stays_below_bound(self):
        spec = SinglePlayerSpec(
            env=BernoulliEnv(means=np.array([1.0, 0.0])),
            scaling=ScalingSpec.constant(1),
            horizon=3000,
        )
        report = pseudo_regret(spec, 4, np.random.default_rng(1))
        assert np.all(report.regret_mean <= report.bound + 1e-9)
        # sublinear: the tail grows much slower than t
        assert report.regret_mean[-1] < 0.2 * 3000

    def test_worker_count_does_not_change_results(self):
        spec = SinglePlayerSpec(
            env=BernoulliEnv.harmonic(5),
            scaling=ScalingSpec.uniform(1, 2),
            eta=0.1,
            horizon=150,
        )
        a = pseudo_regret(spec, 3, np.random.default_rng(2))
        b = pseudo_regret(spec, 3, np.random.default_rng(2), workers=2)
        np.testing.assert_array_equal(a.regret_mean, b.regret_mean)
        np.testing.assert_array_equal(a.bound, b.bound)
