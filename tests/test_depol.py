import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from depolab import (
    CapExceeded,
    Distribution,
    additive_certificate,
    check_fidelity,
    check_positive_int,
    check_seed,
    depolarize,
    empirical_tv,
    hardness_gap,
    multiplicative_certificate,
    output_distribution,
    random_density_matrix,
    sbp_thresholds,
    sorted_draws,
    tally,
)
from depolab.depol import SAMPLE_CAP
from oracles import brute_additive_l1, brute_mult_worst, draw_order_sample, loop_empirical_tv
from strategies import circuits, distributions, fidelities, low_fidelities, seeds

point2 = Distribution(2, np.array([1.0, 0.0, 0.0, 0.0]))
bell_dist = Distribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
uniform3 = Distribution(3, np.full(8, 0.125))
# Log-uniform from 1e-20 to 1: below about 1e-14 forming p' rounds by as much as 2F.
tiny_to_one = st.floats(min_value=-20.0, max_value=0.0).map(lambda e: 10.0**e)


@st.composite
def tail_zeroed(draw, max_width: int = 4) -> Distribution:
    """A distribution whose last outcomes have probability exactly 0."""
    dist = draw(distributions(max_width=max_width))
    probs = dist.probs.copy()
    probs[draw(st.integers(1, probs.size - 1)) :] = 0.0
    assume(probs.sum() > 1e-6)
    return Distribution(dist.width, probs / probs.sum())


def drawn(dist: Distribution, seed: int, count: int) -> dict[int, int]:
    """tally of fresh sorted_draws as {outcome: count}, the oracles' form."""
    outcomes, tallies = tally(dist, sorted_draws(seed, count))
    return dict(zip(outcomes.tolist(), tallies.tolist()))


class TestPositiveInt:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, float("nan"), float("inf"), -float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="width must be a positive integer"):
            check_positive_int("width", bad)

    @pytest.mark.parametrize("good", [1, 3, 3.0, np.int64(7)])
    def test_accepts_as_int(self, good):
        value = check_positive_int("width", good)
        assert value == good and type(value) is int


@pytest.mark.parametrize("call", [
    lambda: check_positive_int("w", True),
    lambda: check_positive_int("w", np.True_),
    lambda: check_seed(True),
    lambda: check_seed(np.False_),
    lambda: random_density_matrix(True, 0),
    lambda: sbp_thresholds(True, 3, 4, 0.5, 0.1),
    lambda: hardness_gap(0.9, 0.1, 0.5, True),
    lambda: sorted_draws(True, 10),
    lambda: sorted_draws(0, True),
], ids=["positive_int", "positive_int_np", "seed", "seed_np", "random_density_matrix",
        "sbp_thresholds", "hardness_gap", "sorted_draws_seed", "sorted_draws_count"])
def test_bools_are_not_integers(call):
    # As Circuit refuses a bool width, so does every integer validator.
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", [
    check_seed,
    lambda seed: sorted_draws(seed, 10),
    lambda seed: random_density_matrix(2, seed),
], ids=["check_seed", "sorted_draws", "random_density_matrix"])
def test_non_finite_seeds_are_refused(call, bad):
    # inf and NaN have no int value: refused with the validator's own message.
    with pytest.raises(ValueError, match="seed must be an integer"):
        call(bad)


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
        outcomes, tallies = tally(point2, sorted_draws(0, 100))
        assert outcomes.tolist() == [0] and tallies.tolist() == [100]

    def test_same_seed_same_tally(self):
        noisy = depolarize(bell_dist, 0.5)
        first, again = tally(noisy, sorted_draws(7, 20)), tally(noisy, sorted_draws(7, 20))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_pinned_tally(self):
        # Frozen output of the keyed Philox stream; any change here means
        # the sampling contract (platform-stable tallies) broke.  Reports
        # print the tally in outcome order: it must ascend.
        outcomes, tallies = tally(depolarize(bell_dist, 0.5), sorted_draws(7, 20))
        assert outcomes.tolist() == [0, 1, 2, 3]
        assert tallies.tolist() == [5, 4, 3, 8]

    def test_uniform_three_sigma(self):
        uniform = Distribution(1, np.array([0.5, 0.5]))
        outcomes, tallies = tally(uniform, sorted_draws(123, 10**6))
        assert outcomes.tolist() == [0, 1] and tallies.tolist() == [499915, 500085]
        assert abs(tallies[0] - 500000) <= 3 * np.sqrt(10**6 * 0.25)

    def test_impossible_outcomes_never_drawn(self):
        outcomes, tallies = tally(bell_dist, sorted_draws(11, 5000))
        assert set(outcomes.tolist()) <= {0, 3}
        assert tallies.sum() == 5000

    def test_sum_shortfall_never_lands_on_a_zero_outcome(self):
        # cdf[-1] = 0.9 within tol 0.2: the draws above it go to outcome 0,
        # the last one with probability, never to outcome 1 (probability 0).
        assert drawn(Distribution(1, [0.9, 0.0], tol=0.2), 1, 1000) == {0: 1000}

    @given(
        st.one_of(distributions(max_width=4), tail_zeroed()),
        seeds,
        st.one_of(st.integers(1, 15), st.integers(1, 10**4)),
    )
    @example(Distribution(1, [0.9, 0.0], tol=0.2), 1, 1000)
    @example(Distribution(2, [0.5, 0.25, 0.0, 0.0], tol=0.3), 3, 10**4)
    # Fewer draws than outcomes, so the draws are searched into the CDF; seed
    # 8 puts two of the three draws in the sliver above cdf[-1] = 0.75.
    @example(Distribution(2, [0.5, 0.25, 0.0, 0.0], tol=0.3), 8, 3)
    @example(Distribution(4, np.full(16, 1 / 16)), 2, 15)
    @settings(max_examples=200)
    def test_sorted_lookup_matches_draw_order(self, dist, seed, count):
        # A tally does not depend on the order the draws are looked up in,
        # whichever side of the search runs over the other: counts below
        # and above 2**width take both.
        assert drawn(dist, seed, count) == draw_order_sample(dist, seed, count)

    def test_draw_on_a_cdf_step_goes_to_the_next_outcome(self):
        # Outcome z covers [cdf[z-1], cdf[z]): a draw equal to cdf[0] is outcome 1.
        first = float(np.random.Generator(np.random.Philox(key=5)).random())
        dist = Distribution(1, [first, 1.0 - first])
        assert drawn(dist, 5, 1) == draw_order_sample(dist, 5, 1) == {1: 1}

    @given(distributions(max_width=3), seeds)
    @settings(max_examples=25)
    def test_deterministic(self, dist, seed):
        assert drawn(dist, seed, 50) == drawn(dist, seed, 50)

    @given(st.lists(distributions(max_width=4), min_size=1, max_size=4), seeds,
           st.one_of(st.integers(1, 15), st.integers(1, 3000)))
    @settings(max_examples=100)
    def test_one_draw_set_serves_a_grid(self, grid, seed, count):
        # Common random numbers: one draw set tallied against every
        # distribution gives each the tally of its own fresh draws, and no
        # tally changes the draws.
        draws = sorted_draws(seed, count)
        kept = draws.copy()
        for dist in grid:
            outcomes, tallies = tally(dist, draws)
            assert dict(zip(outcomes.tolist(), tallies.tolist())) == drawn(dist, seed, count)
        assert np.array_equal(draws, kept)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_range(self, bad):
        with pytest.raises(ValueError, match="seed"):
            sorted_draws(bad, 1)

    def test_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            sorted_draws(0, 0)

    def test_count_capped(self):
        with pytest.raises(CapExceeded, match=f"{8 * (SAMPLE_CAP + 1)} bytes"):
            sorted_draws(0, SAMPLE_CAP + 1)

    @pytest.mark.parametrize("draws", [
        [0.6, 0.1, 0.2, 0.3, 0.05],  # unsorted: looked up as sorted, all five land on 0
        [0.1, 0.3, 0.2],
        [0.1, float("nan"), 0.2],
        [0.1, float("nan")],
        [float("nan")],
        [-0.1, 0.5],
        [0.5, 1.0],
        [0.5, float("inf")],
        [],
        [[0.1, 0.2], [0.3, 0.4]],
        0.5,
        [0, 0],  # integers are not uniforms
    ], ids=["unsorted", "unsorted_tail", "nan_inside", "nan_last", "nan_only", "negative",
            "one", "inf", "empty", "two_d", "scalar", "integers"])
    def test_refuses_bad_draws(self, draws):
        # Tallied anyway, the first would read {0: 5}, not {0: 3, 1: 1, 2: 1}.
        with pytest.raises(ValueError, match="draws must be"):
            tally(Distribution(2, np.full(4, 0.25)), draws)

    def test_accepts_a_sorted_list(self):
        outcomes, tallies = tally(Distribution(2, np.full(4, 0.25)), [0.0, 0.05, 0.1, 0.3, 0.6])
        assert outcomes.tolist() == [0, 1, 2] and tallies.tolist() == [3, 1, 1]


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

    @given(circuits(max_width=10, max_gates=30), tiny_to_one)
    @settings(max_examples=300)
    def test_circuit_outputs_pass_at_every_scale(self, circuit, f):
        # Both certificates hold exactly; forming p' must not break them.
        dist = output_distribution(circuit)
        assert additive_certificate(dist, f).passed
        if f <= 0.5:
            assert multiplicative_certificate(dist, f).passed

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


def columns(counts: dict[int, int]) -> tuple[list[int], list[int]]:
    """A {outcome: count} tally as empirical_tv's (outcomes, tallies)."""
    return list(counts), list(counts.values())


class TestEmpiricalTv:
    def test_exact_match_is_zero(self):
        assert empirical_tv([0, 3], [1, 1], bell_dist) == pytest.approx(0.0, abs=1e-15)

    def test_point_tally_vs_uniform(self):
        uniform = Distribution(1, np.array([0.5, 0.5]))
        assert empirical_tv(np.array([0]), np.array([100]), uniform) == pytest.approx(0.5)

    def test_out_of_range_outcome(self):
        with pytest.raises(ValueError, match="out of range"):
            empirical_tv([4], [1], bell_dist)

    def test_empty_counts(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_tv(np.array([], np.int64), np.array([], np.int64), bell_dist)

    def test_negative_tally(self):
        with pytest.raises(ValueError, match="negative"):
            empirical_tv([0, 3], [-3, 5], bell_dist)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_the_loop_bit_for_bit(self, data):
        dist = data.draw(distributions(max_width=6))
        counts = st.one_of(st.integers(0, 20), st.integers(0, 10**12))
        tally = data.draw(st.dictionaries(st.integers(0, dist.probs.size - 1), counts, min_size=1))
        assume(sum(tally.values()) >= 1)
        assert empirical_tv(*columns(tally), dist) == loop_empirical_tv(tally, dist)

    @pytest.mark.parametrize("tally", [
        {-1: 2}, {0: 0}, {0: 1, 9: -2, 3: 1}, {3: 2, 1: -1, 7: 4}, {5: -1, 0: 3},
    ])
    def test_refusals_match_the_loop(self, tally):
        # The first bad item in the tally's order is named, as the loop names it.
        with pytest.raises(ValueError) as loop:
            loop_empirical_tv(tally, bell_dist)
        with pytest.raises(ValueError) as got:
            empirical_tv(*columns(tally), bell_dist)
        assert str(got.value) == str(loop.value)

    @pytest.mark.parametrize("tally", [{0: 2**63}, {2**63: 1}, {0: -(2**63) - 1, 3: 2**64}])
    def test_past_int64_is_refused_not_wrapped(self, tally):
        with pytest.raises(ValueError, match="int64"):
            empirical_tv(*columns(tally), bell_dist)

    @pytest.mark.parametrize("outcomes, tallies, message", [
        ([0, 3], [1], "one length"),
        ([0], [1, 1], "one length"),
        ([[0, 3]], [[1, 1]], "1-D"),
        (0, 1, "1-D"),
        ([], [], "integer"),  # a float array
        ([0, 3], [1.0, 2.5], "integer"),  # not truncated to 1, 2
        ([0, 3], [True, True], "integer"),
        (np.array([0], np.uint64), np.array([2**63], np.uint64), "int64"),  # would wrap negative
        ([0, 3], [1, 2**63], "int64"),
        ([0, 0], [1, 1], "outcome 0 is tallied more than once"),
        ([3, 1, 3], [1, 1, 1], "outcome 3 is tallied more than once"),
    ], ids=["short_tallies", "short_outcomes", "two_d", "scalars", "empty_list", "floats",
            "bools", "uint64", "mixed_past_int64", "repeated_pair", "repeated_later"])
    def test_refuses_bad_arrays(self, outcomes, tallies, message):
        with pytest.raises(ValueError, match=message):
            empirical_tv(outcomes, tallies, bell_dist)

    def test_repeated_outcome_is_not_merged(self):
        # Counted once, [0, 0] tallied [1, 1] read 0.25 against a fair coin,
        # where two draws on outcome 0 are 0.5 away from it.
        coin = Distribution(1, [0.5, 0.5])
        assert empirical_tv([0], [2], coin) == 0.5
        with pytest.raises(ValueError, match="more than once"):
            empirical_tv([0, 0], [1, 1], coin)

    def test_total_past_int64_does_not_wrap(self):
        tally = {0: 2**62, 3: 2**62 + 2**61}
        assert empirical_tv(*columns(tally), bell_dist) == loop_empirical_tv(tally, bell_dist) > 0.09

    def test_large_sample_width_eight(self, bell_circuit):
        # 1e6 draws from a depolarized width-8 distribution: the plug-in
        # TV estimate is dominated by ~sqrt(2**8 / (2 pi N)) ~ 0.006.
        rng = np.random.Generator(np.random.Philox(key=99))
        raw = rng.random(256)
        ideal = Distribution(8, raw / raw.sum())
        noisy = depolarize(ideal, 0.7)
        outcomes, tallies = tally(noisy, sorted_draws(2024, 10**6))
        assert empirical_tv(outcomes, tallies, noisy) < 0.02
