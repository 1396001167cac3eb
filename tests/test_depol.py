import numpy as np
import pytest
from hypothesis import given, settings

from depolab import (
    CapExceeded,
    Distribution,
    additive_certificate,
    check_fidelity,
    check_positive_int,
    depolarize,
    empirical_tv,
    multiplicative_certificate,
    output_distribution,
    sample,
)
from depolab.depol import SAMPLE_CAP
from oracles import brute_additive_l1, brute_mult_worst
from strategies import distributions, fidelities, low_fidelities, seeds

point2 = Distribution(2, np.array([1.0, 0.0, 0.0, 0.0]))
bell_dist = Distribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
uniform3 = Distribution(3, np.full(8, 0.125))


class TestPositiveInt:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, float("nan"), float("inf"), -float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="width must be a positive integer"):
            check_positive_int("width", bad)

    @pytest.mark.parametrize("good", [1, 3, 3.0, np.int64(7)])
    def test_accepts_as_int(self, good):
        value = check_positive_int("width", good)
        assert value == good and type(value) is int


class TestFidelity:
    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="fidelity"):
            check_fidelity(bad)

    def test_endpoints_ok(self):
        assert check_fidelity(0) == 0.0
        assert check_fidelity(1) == 1.0


class TestDepolarize:
    def test_point_mass(self):
        noisy = depolarize(Distribution(1, np.array([1.0, 0.0])), 0.5)
        assert np.allclose(noisy.probs, [0.75, 0.25], atol=1e-15)

    def test_full_fidelity_is_identity(self):
        assert np.array_equal(depolarize(bell_dist, 1.0).probs, bell_dist.probs)

    def test_zero_fidelity_is_uniform(self):
        assert np.array_equal(depolarize(bell_dist, 0.0).probs, np.full(4, 0.25))

    @given(distributions(), fidelities)
    def test_uniform_is_fixed_point(self, dist, f):
        width = dist.width
        uniform = Distribution(width, np.full(1 << width, 1.0 / (1 << width)))
        assert np.allclose(depolarize(uniform, f).probs, uniform.probs, atol=1e-15)

    @given(distributions(), fidelities)
    def test_affine_shrink_identity(self, dist, f):
        # p'_z - u = F (p_z - u), entrywise
        u = 1.0 / (1 << dist.width)
        lhs = depolarize(dist, f).probs - u
        rhs = f * (dist.probs - u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-15


class TestSample:
    def test_point_mass(self):
        assert sample(point2, 0, 100) == {0: 100}

    def test_same_seed_same_tally(self):
        noisy = depolarize(bell_dist, 0.5)
        assert sample(noisy, 7, 20) == sample(noisy, 7, 20)

    def test_pinned_tally(self):
        # Frozen output of the keyed Philox stream; any change here means
        # the sampling contract (platform-stable tallies) broke.
        noisy = depolarize(bell_dist, 0.5)
        tally = sample(noisy, 7, 20)
        assert tally == {0: 5, 1: 4, 2: 3, 3: 8}
        # Reports print the tally in key order: it must ascend.
        assert list(tally) == [0, 1, 2, 3]

    def test_uniform_three_sigma(self):
        uniform = Distribution(1, np.array([0.5, 0.5]))
        tally = sample(uniform, 123, 10**6)
        assert tally == {0: 499915, 1: 500085}
        assert abs(tally[0] - 500000) <= 3 * np.sqrt(10**6 * 0.25)

    def test_impossible_outcomes_never_drawn(self):
        tally = sample(bell_dist, 11, 5000)
        assert set(tally) <= {0, 3}
        assert sum(tally.values()) == 5000

    def test_sum_shortfall_never_lands_on_a_zero_outcome(self):
        # cdf[-1] = 0.9 within tol 0.2: the draws above it go to outcome 0,
        # the last one with probability, never to outcome 1 (probability 0).
        assert sample(Distribution(1, [0.9, 0.0], tol=0.2), 1, 1000) == {0: 1000}

    @given(distributions(max_width=3), seeds)
    @settings(max_examples=25)
    def test_deterministic(self, dist, seed):
        assert sample(dist, seed, 50) == sample(dist, seed, 50)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_range(self, bad):
        with pytest.raises(ValueError, match="seed"):
            sample(point2, bad, 1)

    def test_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            sample(point2, 0, 0)

    def test_count_capped(self):
        with pytest.raises(CapExceeded, match=f"{16 * (SAMPLE_CAP + 1)} bytes"):
            sample(point2, 0, SAMPLE_CAP + 1)


class TestAdditiveCertificate:
    def test_uniform_ideal(self):
        report = additive_certificate(uniform3, 0.9)
        assert report.achieved == pytest.approx(0.0, abs=1e-15)
        assert report.bound == pytest.approx(1.8)
        assert report.passed

    def test_point_mass_half(self):
        # p' = (5/8, 1/8, 1/8, 1/8); sum |p'-1/4| = 3/8 + 3/8 = 3/4
        report = additive_certificate(point2, 0.5)
        assert report.achieved == pytest.approx(0.75, abs=1e-15)
        assert report.bound == pytest.approx(1.0)
        assert report.witness == 0
        assert report.passed
        assert report.achieved == pytest.approx(brute_additive_l1(point2.probs, 0.5), abs=1e-15)

    def test_bell_half(self):
        report = additive_certificate(bell_dist, 0.5)
        assert report.achieved == pytest.approx(0.5, abs=1e-12)
        assert report.scaled_ideal_l1 == pytest.approx(0.5, abs=1e-12)
        assert report.passed

    @given(distributions(), fidelities)
    def test_always_passes(self, dist, f):
        assert additive_certificate(dist, f).passed

    @given(distributions(), fidelities)
    def test_identity_route_agrees(self, dist, f):
        report = additive_certificate(dist, f)
        assert abs(report.achieved - report.scaled_ideal_l1) <= 1e-12

    @given(distributions(max_width=4), fidelities)
    @settings(max_examples=40)
    def test_matches_brute_loop(self, dist, f):
        report = additive_certificate(dist, f)
        assert report.achieved == pytest.approx(brute_additive_l1(dist.probs, f), abs=1e-12)


class TestMultiplicativeCertificate:
    def test_point_mass_width_one(self):
        # p' = (3/4, 1/4); ratios (1/3, 1); bound = 1/2 * 2**3 = 4
        report = multiplicative_certificate(Distribution(1, np.array([1.0, 0.0])), 0.5)
        assert report.achieved == pytest.approx(1.0, abs=1e-12)
        assert report.bound == pytest.approx(4.0)
        assert report.witness == 1
        assert report.passed

    def test_uniform_width_three(self):
        report = multiplicative_certificate(uniform3, 0.5)
        assert report.achieved == pytest.approx(0.0, abs=1e-15)
        assert report.bound == pytest.approx(16.0)
        assert report.passed

    def test_rejects_high_fidelity(self):
        with pytest.raises(ValueError, match="<= 1/2"):
            multiplicative_certificate(bell_dist, 0.6)

    def test_zero_fidelity_trivial_pass(self):
        report = multiplicative_certificate(bell_dist, 0.0)
        assert report.passed
        assert report.achieved == 0.0
        assert report.bound == 0.0

    @given(distributions(), low_fidelities)
    def test_always_strictly_passes(self, dist, f):
        report = multiplicative_certificate(dist, f)
        assert report.passed
        assert report.achieved < report.bound

    @given(distributions(), low_fidelities)
    def test_per_outcome_strictness(self, dist, f):
        u = 1.0 / (1 << dist.width)
        noisy = depolarize(dist, f).probs
        eps = f * 2 ** (dist.width + 2)
        assert np.all(np.abs(noisy - u) < eps * noisy)

    @given(distributions(max_width=4), low_fidelities)
    @settings(max_examples=40)
    def test_matches_brute_loop(self, dist, f):
        report = multiplicative_certificate(dist, f)
        assert report.achieved == pytest.approx(brute_mult_worst(dist.probs, f), abs=1e-12)


class TestEmpiricalTv:
    def test_exact_match_is_zero(self):
        assert empirical_tv({0: 1, 3: 1}, bell_dist) == pytest.approx(0.0, abs=1e-15)

    def test_point_tally_vs_uniform(self):
        uniform = Distribution(1, np.array([0.5, 0.5]))
        assert empirical_tv({0: 100}, uniform) == pytest.approx(0.5)

    def test_out_of_range_outcome(self):
        with pytest.raises(ValueError, match="out of range"):
            empirical_tv({4: 1}, bell_dist)

    def test_empty_counts(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_tv({}, bell_dist)

    def test_negative_tally(self):
        with pytest.raises(ValueError, match="negative"):
            empirical_tv({0: -3, 3: 5}, bell_dist)

    def test_large_sample_width_eight(self, bell_circuit):
        # 1e6 draws from a depolarized width-8 distribution: the plug-in
        # TV estimate is dominated by ~sqrt(2**8 / (2 pi N)) ~ 0.006.
        rng = np.random.Generator(np.random.Philox(key=99))
        raw = rng.random(256)
        ideal = Distribution(8, raw / raw.sum())
        noisy = depolarize(ideal, 0.7)
        tally = sample(noisy, 2024, 10**6)
        assert empirical_tv(tally, noisy) < 0.02
