"""Tests for play-count rules and the moving-average reward window."""

import math

import mpmath
import numpy as np
import pytest

from vpbandit.errors import InvalidConfigError
from vpbandit.scaling import (
    MIN_GAUSSIAN_MASS,
    MovingAverage,
    ScalingSpec,
    sample_arm_count,
    sample_arm_counts,
)


class TestMovingAverage:
    def test_short_history_mean(self):
        ma = MovingAverage(1, window=3)
        for v in (1.0, 0.0, 1.0):
            ma.push([v])
        assert ma.averages[0] == pytest.approx(2 / 3)

    def test_empty_history_is_zero(self):
        assert MovingAverage(4, window=5).averages.tolist() == [0.0] * 4

    def test_window_one_tracks_last_value(self):
        ma = MovingAverage(2, window=1)
        ma.push([0.4, 0.9])
        ma.push([0.1, 0.2])
        np.testing.assert_allclose(ma.averages, [0.1, 0.2])

    def test_window_eviction(self):
        ma = MovingAverage(1, window=2)
        for v in (1.0, 1.0, 0.0):
            ma.push([v])
        assert ma.averages[0] == pytest.approx(0.5)


class TestScalingSpec:
    def test_constant_shortcut(self):
        spec = ScalingSpec.constant(3)
        assert (spec.a, spec.b, spec.m) == (3, 3, 3)

    def test_constant_m_defaults_to_a_and_stays_in_range(self):
        assert ScalingSpec("constant", 2, 4).m == 2
        for m in (1, 5):
            with pytest.raises(InvalidConfigError, match=rf"constant m={m} outside \[2, 4\]"):
                ScalingSpec("constant", 2, 4, m=m)

    def test_rejects_bad_bounds(self):
        with pytest.raises(InvalidConfigError, match="need 1 <= a <= b, got a=3 b=2"):
            ScalingSpec(kind="uniform_discrete", a=3, b=2)
        with pytest.raises(InvalidConfigError, match="truncated_gaussian needs mean and std > 0"):
            ScalingSpec(kind="truncated_gaussian", a=1, b=3, mean=2.0, std=0.0)
        with pytest.raises(InvalidConfigError, match="unknown scaling kind 'nope'"):
            ScalingSpec(kind="nope", a=1, b=2)

    @pytest.mark.parametrize(
        "mean, std, mass",
        [(50.0, 0.1, 0.0), (10.0, 1.0, 4.016e-11)],  # mass of N(10, 1) on [0.5, 3.5]
    )
    def test_rejects_gaussian_without_mass_on_the_range(self, mean, std, mass):
        # rejection sampling would loop (for ever, at mass 0) on these specs
        with pytest.raises(InvalidConfigError, match="mass") as exc:
            ScalingSpec.truncated_gaussian(1, 3, mean=mean, std=std)
        reported = float(str(exc.value).split("mass ")[1].split()[0])
        assert reported == pytest.approx(mass, rel=1e-3, abs=1e-300)

    def test_gaussian_mass_threshold(self):
        # N(6.5, 1) puts 1.35e-3 on [0.5, 3.5], N(6.6, 1) 9.7e-4; the bound is
        # 1e-3, and the interval's centre 2 mirrors both means
        assert MIN_GAUSSIAN_MASS == 1e-3
        for mean in (6.5, -2.5):
            ScalingSpec.truncated_gaussian(1, 3, mean=mean, std=1.0)
        for mean in (6.6, -2.6):
            with pytest.raises(InvalidConfigError, match="below 0.001"):
                ScalingSpec.truncated_gaussian(1, 3, mean=mean, std=1.0)

    @pytest.mark.parametrize(
        "spec, nu",
        [
            (ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8), 2.0),
            (ScalingSpec.truncated_gaussian(2, 5, mean=3.5, std=2.0), 3.5),
            (ScalingSpec.uniform(1, 4), 2.5),
            (ScalingSpec(kind="constant", a=1, b=3, m=2), 2.0),
            # sum_k k P(k) with P(k) from the normal CDF, by mpmath at 50 digits
            (ScalingSpec.truncated_gaussian(1, 4, mean=2.7, std=1.1),
             pytest.approx(2.63581303914712228781, rel=1e-15)),
            (ScalingSpec.truncated_gaussian(1, 3, mean=1.5, std=0.8),
             pytest.approx(1.66794657181565334620, rel=1e-15)),
            (ScalingSpec.truncated_gaussian(1, 3, mean=6.5, std=1.0),  # far tail
             pytest.approx(2.97632714261649180877, rel=1e-15)),
            (ScalingSpec.truncated_gaussian(2, 9, mean=0.3, std=2.5),
             pytest.approx(3.15121147601743952133, rel=1e-15)),
            (ScalingSpec.truncated_gaussian(3, 7, mean=5.9, std=0.4),
             pytest.approx(5.90788472862490850817, rel=1e-15)),
            (ScalingSpec(kind="budget_threshold", a=1, b=3), None),
        ],
    )
    def test_law_mean(self, spec, nu):
        # nu = E[M_t] is known for every stateless rule; the symmetric ones
        # keep their exact centre
        law = spec.law()
        assert (None if law is None else law[2]) == nu

    @pytest.mark.parametrize(
        "spec",
        [
            ScalingSpec(kind="constant", a=1, b=3, m=2),
            ScalingSpec.uniform(1, 4),
            ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8),
            ScalingSpec.truncated_gaussian(1, 4, mean=2.7, std=1.1),
        ],
        ids=["constant", "uniform", "gaussian-symmetric", "gaussian-asymmetric"],
    )
    def test_law_matches_sampled_frequencies(self, spec):
        counts, probs, mean = spec.law()
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
        assert mean == pytest.approx(np.dot(counts, probs), rel=1e-14)
        draws = 200_000
        vals = sample_arm_counts(spec, draws, np.random.default_rng(5))
        assert set(np.unique(vals)) <= set(counts)
        for k, p in zip(counts, probs):
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(np.mean(vals == k) - p) <= 5 * sigma + 1e-12, k

    def test_validate_for_requires_b_below_n(self):
        spec = ScalingSpec.uniform(1, 3)
        spec.validate_for(10)
        with pytest.raises(InvalidConfigError, match="b=3 must be < number of arms 3"):
            spec.validate_for(3)


class TestSampling:
    def test_constant(self):
        spec = ScalingSpec(kind="constant", a=1, b=3, m=2)
        assert sample_arm_counts(spec, 10, np.random.default_rng(0)).tolist() == [2] * 10

    def test_uniform_frequencies(self):
        spec = ScalingSpec.uniform(1, 3)
        rng = np.random.default_rng(1)
        draws = 100_000
        vals = sample_arm_counts(spec, draws, rng)
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        for v in (1, 2, 3):
            assert abs(np.mean(vals == v) - 1 / 3) <= 3 * sigma

    def test_truncated_gaussian_support_and_mean(self):
        spec = ScalingSpec.truncated_gaussian(1, 3, mean=2.0, std=0.8)
        rng = np.random.default_rng(2)
        draws = 100_000
        vals = sample_arm_counts(spec, draws, rng)
        assert set(np.unique(vals)) <= {1, 2, 3}
        # symmetric truncation interval about the mean keeps the mean at 2
        assert abs(vals.mean() - 2.0) <= 0.02

    @pytest.mark.parametrize("a, b, mean, std", [(1, 3, 2.0, 0.8), (1, 4, 2.7, 1.1)])
    def test_truncated_gaussian_law(self, a, b, mean, std):
        # the rounded truncated Gaussian is categorical on {a..b}, with
        # P(k) proportional to the normal mass of [k - 1/2, k + 1/2]
        spec = ScalingSpec.truncated_gaussian(a, b, mean=mean, std=std)
        draws = 200_000
        vals = sample_arm_counts(spec, draws, np.random.default_rng(4))
        assert set(np.unique(vals)) <= set(range(a, b + 1))
        mass = [
            mpmath.ncdf(k + 0.5, mean, std) - mpmath.ncdf(k - 0.5, mean, std)
            for k in range(a, b + 1)
        ]
        for k, m in zip(range(a, b + 1), mass):
            p = float(m / mpmath.fsum(mass))
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(np.mean(vals == k) - p) <= 4 * sigma, k

    def test_truncated_gaussian_edges_round_into_the_bounds(self):
        # draws in [a - 1/2, b + 1/2) round half up into [a, b]; b + 1/2 itself
        # is rejected, so the third count comes from the second batch
        a, b = 1, 3

        class Stub:
            def normal(self, mean, std, size):
                return np.array([a - 0.5, b + 0.5, math.nextafter(b + 0.5, 0.0)])

        spec = ScalingSpec.truncated_gaussian(a, b, mean=2.0, std=0.8)
        assert sample_arm_counts(spec, 3, Stub()).tolist() == [a, b, a]

    def test_budget_threshold_rule(self):
        spec = ScalingSpec(kind="budget_threshold", a=1, b=3, threshold=0.1)
        ma = MovingAverage(5, window=4)
        # nothing hot yet: clamps to a
        assert sample_arm_count(spec, ma) == 1
        ma.push([0.5, 0.5, 0.0, 0.0, 0.0])
        assert sample_arm_count(spec, ma) == 2
        ma.push([0.5, 0.5, 0.5, 0.5, 0.5])
        # five hot arms, capped by b
        assert sample_arm_count(spec, ma) == 3
        spec = ScalingSpec(kind="budget_threshold", a=1, b=2, threshold=0.1)
        assert sample_arm_count(spec, ma) == 2

    def test_batch_rejects_stateful_kind(self):
        spec = ScalingSpec(kind="budget_threshold", a=1, b=3)
        with pytest.raises(InvalidConfigError, match="'budget_threshold' cannot be batch-sampled"):
            sample_arm_counts(spec, 10, np.random.default_rng(0))
