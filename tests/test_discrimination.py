import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from depolab import (
    CapExceeded,
    DensityMatrix,
    StateVector,
    bound_chain,
    depolarize,
    output_distribution,
    random_circuit,
    random_density_matrix,
    run,
)
from depolab.tolerances import EIG_FLOOR, ORACLE_TOL
from oracles import (
    bloch_grid_best,
    brute_helstrom,
    brute_trace_norm,
    density,
    depolarize_density,
    maximally_mixed,
    pure_density,
    random_density,
    trace_norm_diff,
)
from strategies import seeds

S2 = 2.0**-0.5


def zero_density():
    return np.array([[1.0, 0.0], [0.0, 0.0]])


def one_density():
    return np.array([[0.0, 0.0], [0.0, 1.0]])


class TestDensityTypes:
    def test_from_pure_zero(self):
        rho = pure_density(StateVector(1, np.array([1.0, 0.0])))
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_from_pure_bell(self, bell_circuit):
        rho = pure_density(run(bell_circuit))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-12)

    def test_from_pure_allows_the_state_drift(self):
        # A simulated state may be off unit norm by its gates' round-off;
        # its density inherits that trace drift.
        amps = np.array([1.0 + 3e-12, 0.0])
        state = StateVector(1, amps, tol=1e-11)
        mat = pure_density(state)
        assert mat[0, 0] == (1.0 + 3e-12) ** 2
        assert density(mat, tol=1e-11).spectrum[1] == (1.0 + 3e-12) ** 2
        with pytest.raises(ValueError, match="trace"):
            density(np.outer(amps, amps))

    @pytest.mark.parametrize("width", [0, -1, 2.5])
    def test_random_width_validated(self, width):
        with pytest.raises(ValueError, match="width must be a positive integer"):
            random_density_matrix(width, 0)

    @pytest.mark.parametrize(
        "rank, match",
        [
            (1.5, "rank must be a positive integer, got 1.5"),
            (0, "rank must be a positive integer, got 0"),
            (5, r"rank must lie in \[1, 4\], got 5"),
        ],
    )
    def test_rank_validated(self, rank, match):
        with pytest.raises(ValueError, match=match):
            random_density_matrix(2, 0, rank=rank)

    def test_integral_float_width_accepted(self):
        assert random_density_matrix(2.0, 0).width == 2

    def test_width_capped_before_allocating(self):
        # 12 qubits: 2**24 complex entries (an entry width of 24 qubits), 2**28
        # bytes; the cap of 22 admits 11 qubits.
        with pytest.raises(CapExceeded, match=r"^12-qubit density matrix's entry width 24 exceeds "
                                              r"the cap of 22 qubits; it needs 2\*\*28 bytes$"):
            random_density_matrix(12, 0)

    def test_maximally_mixed(self):
        rho = maximally_mixed(2)
        assert np.allclose(rho, np.eye(4) / 4)
        assert np.array_equal(density(rho).spectrum, np.full(4, 0.25))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            density(np.eye(2))

    def test_tol_widens_the_trace_check(self):
        mat = np.diag([0.5 + 3e-12, 0.5])
        with pytest.raises(ValueError, match="within 1e-12"):
            density(mat)
        widened = density(mat, tol=1e-11)
        assert widened.spectrum[1] == 0.5 + 3e-12
        assert widened.tol == 1e-11
        assert "tol" not in repr(widened)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            density(np.array([[1.5, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize(
        "spectrum, match",
        [
            ([1.0], r"expected 2 eigenvalues for width 1, got shape \(1,\)"),
            ([0.25] * 4, r"expected 2 eigenvalues for width 1, got shape \(4,\)"),
            (np.eye(2) / 2, r"expected 2 eigenvalues for width 1, got shape \(2, 2\)"),
            ([-np.inf, np.inf], "eigenvalue -inf is not >= -1e-10"),
            ([1.5, -0.5], "eigenvalue -0.5 is not >= -1e-10"),
            ([1.0 + 2e-10, -2e-10], "eigenvalue -2e-10 is not >= -1e-10"),
            ([0.6, 0.6], "trace 1.2 is not 1 within 1e-12"),
        ],
        ids=["short", "long", "matrix", "both-infs", "negative", "past-floor", "sum-off"],
    )
    def test_bad_spectrum_rejected(self, spectrum, match):
        with pytest.raises(ValueError, match=match):
            DensityMatrix(1, spectrum)

    def test_any_order_and_the_floor_accepted(self):
        # bound_chain reads sums and products only, so order is free; an
        # eigensolver's slack down to EIG_FLOOR is legal.
        ascending = DensityMatrix(1, [0.25, 0.75])
        descending = DensityMatrix(1, [0.75, 0.25])
        assert bound_chain(ascending, 0.5, 3).p_correct == pytest.approx(
            bound_chain(descending, 0.5, 3).p_correct, abs=1e-15)
        assert DensityMatrix(1, [EIG_FLOOR, 1.0 - EIG_FLOOR]).spectrum[0] == EIG_FLOOR
        # A matrix goes in as its eigenvalues.
        assert np.array_equal(DensityMatrix(1, np.linalg.eigvalsh(np.eye(2) / 2)).spectrum, [0.5, 0.5])

    def test_spectrum_kept_read_only(self):
        rho = random_density_matrix(2, 7)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(random_density(2, 7)))
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.5

    def test_random_density_is_valid_and_seeded(self):
        a = random_density_matrix(2, 7)
        b = random_density_matrix(2, 7)
        assert np.array_equal(a.spectrum, b.spectrum)
        assert random_density_matrix(2, 8).spectrum[0] != a.spectrum[0]

    def test_random_pure_is_rank_one(self):
        rho = random_density_matrix(2, 11, rank=1)
        eigvals = np.sort(rho.spectrum)
        assert eigvals[-1] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("rank", [None, 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_spectrum_is_the_drawn_matrix_spectrum(self, width, rank, seed):
        # The drawn matrix is exactly Hermitian, so the spectrum is all a
        # DensityMatrix needs to keep, and it is the oracle's, byte for byte.
        mat = random_density(width, seed, rank)
        assert np.array_equal(mat, mat.conj().T)
        spectrum = random_density_matrix(width, seed, rank).spectrum
        assert spectrum.tobytes() == np.linalg.eigvalsh(mat).tobytes()

    def test_memory_is_about_three_matrices_and_keeps_the_spectrum(self):
        # At w = 9 the drawn matrix is 16 * 4**9 bytes (4 MiB).  Its draw,
        # product and eigensolve peak near 3 of them; the returned object
        # keeps only the 2**9 eigenvalues.
        w = 9
        tracemalloc.start()
        try:
            rho = random_density_matrix(w, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 4**w
        arrays = [v for v in vars(rho).values() if isinstance(v, np.ndarray)]
        assert arrays and max(a.size for a in arrays) <= 2**w


class TestDepolarizeDensity:
    def test_pure_zero_half(self):
        rho = depolarize_density(zero_density(), 0.5)
        assert np.allclose(rho, [[0.75, 0.0], [0.0, 0.25]])

    def test_zero_fidelity_is_mixed(self):
        rho = depolarize_density(zero_density(), 0.0)
        assert np.allclose(rho, np.eye(2) / 2)

    def test_diagonal_matches_distribution_map(self, ghz_circuit):
        # Depolarizing a state and depolarizing its outcome distribution
        # must agree on the diagonal.
        rho = pure_density(run(ghz_circuit))
        noisy_diag = np.diag(depolarize_density(rho, 0.3)).real
        dist_route = depolarize(output_distribution(ghz_circuit), 0.3).probs
        assert np.allclose(noisy_diag, dist_route, atol=1e-12)


class TestTraceNorm:
    def test_identical_states(self):
        assert trace_norm_diff(zero_density(), zero_density()) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed(self):
        # eigenvalues of diag(1,0) - I/2 are +1/2 and -1/2
        assert trace_norm_diff(zero_density(), maximally_mixed(1)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert trace_norm_diff(zero_density(), one_density()) == pytest.approx(2.0, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            trace_norm_diff(zero_density(), maximally_mixed(2))


class TestHelstrom:
    def test_identical_states_coin_flip(self):
        assert bound_chain(density(maximally_mixed(1)), 0.5, 1).p_correct == pytest.approx(0.5)

    def test_reference_point(self):
        # rho1 = diag(3/4, 1/4), rho0 = I/2: ||diff||_1 = 1/2, p = 0.625
        assert bound_chain(density(zero_density()), 0.5, 1).p_correct == pytest.approx(0.625, abs=1e-12)

    def test_orthogonal_states_certain(self):
        p_correct, measured = brute_helstrom(zero_density(), one_density(), 1)
        assert p_correct == pytest.approx(1.0, abs=1e-12)
        assert measured == pytest.approx(1.0, abs=1e-12)

    def test_more_copies_help(self):
        values = [bound_chain(density(zero_density()), 0.25, k).p_correct for k in (1, 2, 3)]
        assert values[0] < values[1] < values[2]

    def test_projector_route_agrees(self):
        rho = random_density_matrix(1, 3)
        p, measured = brute_helstrom(maximally_mixed(1), depolarize_density(random_density(1, 3), 0.5), 2)
        assert measured == pytest.approx(p, abs=1e-12)
        assert bound_chain(rho, 0.5, 2).p_correct == pytest.approx(p, abs=1e-12)

    def test_power_cap(self):
        # 25 qubits of float64 eigenvalues: 2**25 * 8 = 2**28 bytes.
        with pytest.raises(CapExceeded, match=r"^5-copy width 25 exceeds the cap of 22 qubits; "
                                              r"it needs 2\*\*28 bytes$"):
            bound_chain(density(maximally_mixed(5)), 0.5, 5)

    def test_k_validated(self):
        with pytest.raises(ValueError, match="positive integer"):
            bound_chain(density(maximally_mixed(1)), 0.5, 0)


@st.composite
def chain_cases(draw):
    """(rho, its dense matrix, F, k) with k * width <= 8, so the dense
    oracle stays cheap.  rho is a random density of rank 1 or full rank,
    or the pure StateVector of a random circuit."""
    width = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8 // width))
    seed = draw(seeds)
    kind = draw(st.sampled_from(["rank one", "full rank", "circuit"]))
    if kind == "circuit":
        rng = np.random.Generator(np.random.Philox(key=seed))
        rho = run(random_circuit(width, draw(st.integers(0, 16)), rng))
        mat = pure_density(rho)
    else:
        rank = 1 if kind == "rank one" else None
        rho = random_density_matrix(width, seed, rank=rank)
        mat = random_density(width, seed, rank)
    return rho, mat, draw(st.sampled_from([0.5, 0.0625, 0.00390625])), k


class TestSpectralRouteMatchesDenseOracle:
    @given(chain_cases())
    @settings(max_examples=60)
    def test_every_link_matches_oracle(self, case):
        rho, mat, f, k = case
        d = 1 << rho.width
        mixed = np.eye(d) / d
        noisy = f * mat + (1.0 - f) * mixed
        p_correct, measured = brute_helstrom(mixed, noisy, k)
        single, _ = brute_helstrom(mixed, noisy, 1)
        expected = {
            "helstrom_value": measured,
            "tensor_subadditivity": 4.0 * (p_correct - 0.5),
            "noise_scaling": 4.0 * (single - 0.5),
            "distance_cap": brute_trace_norm(mat, mixed),
            "correctness_cap": p_correct,
        }
        report = bound_chain(rho, f, k)
        assert report.all_passed
        assert abs(report.p_correct - p_correct) <= ORACLE_TOL
        assert [link.name for link in report.links] == list(expected)
        for link in report.links:
            assert abs(link.lhs - expected[link.name]) <= ORACLE_TOL, link


class TestBoundChain:
    def test_pure_qubit_reference(self):
        # pure rho, F = 1/2, k = 2: ||rho - I/2||_1 = 1 so the noise link
        # reads 1/2 = 1/2, and the final cap is 1/2 + 2*(1/2)/2 = 1.
        report = bound_chain(density(zero_density()), 0.5, 2)
        assert report.all_passed
        links = {link.name: link for link in report.links}
        assert links["noise_scaling"].lhs == pytest.approx(0.5, abs=1e-12)
        assert links["noise_scaling"].rhs == pytest.approx(0.5, abs=1e-12)
        assert links["distance_cap"].lhs == pytest.approx(1.0, abs=1e-12)
        assert links["correctness_cap"].rhs == pytest.approx(1.0, abs=1e-12)

    def test_zero_fidelity_coin_flip(self):
        report = bound_chain(random_density_matrix(2, 5), 0.0, 2)
        assert report.p_correct == pytest.approx(0.5, abs=1e-12)
        assert report.all_passed

    def test_link_names_and_order(self):
        report = bound_chain(density(zero_density()), 0.25, 1)
        assert [link.name for link in report.links] == [
            "helstrom_value",
            "tensor_subadditivity",
            "noise_scaling",
            "distance_cap",
            "correctness_cap",
        ]

    @given(st.integers(0, 2**32), st.sampled_from([0.5, 0.25, 0.0625]), st.integers(1, 3))
    @settings(max_examples=25)
    def test_chain_holds_on_random_states(self, seed, f, k):
        rho = random_density_matrix(2, seed)
        report = bound_chain(rho, f, k)
        assert report.all_passed
        links = {link.name: link for link in report.links}
        assert abs(links["noise_scaling"].lhs - links["noise_scaling"].rhs) <= 1e-10
        assert links["tensor_subadditivity"].lhs <= links["tensor_subadditivity"].rhs + 1e-10

    def test_helstrom_link_allows_the_input_drift(self):
        # The norm is 1 + 5e-10, legal within tol: the Helstrom sides then
        # differ by (1/4) * ((1 + 5e-10)**22 - 1) = 2.75e-9, past ORACLE_TOL.
        state = StateVector(1, [np.sqrt(1 + 5e-10), 0], tol=1e-9)
        report = bound_chain(state, 1.0, 22)
        helstrom = report.links[0]
        assert abs(helstrom.lhs - helstrom.rhs) == pytest.approx(0.25 * 22 * 5e-10, rel=1e-3)
        assert report.all_passed

    def test_k_one_advantage_scales_linearly_in_f(self):
        rho = random_density_matrix(1, 21)
        grid = [2.0**-e for e in range(1, 11)]
        ratios = [(bound_chain(rho, f, 1).p_correct - 0.5) / f for f in grid]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_k_two_advantage_shrinks_with_f(self):
        rho = random_density_matrix(1, 22)
        values = [bound_chain(rho, f, 2).p_correct - 0.5 for f in (0.5, 0.25, 0.125)]
        assert values[0] > values[1] > values[2]

    def test_eigh_route_matches_brute_norm(self):
        # noise_scaling's lhs is bound_chain's sum of |mu - 1/d| over the
        # noisy spectrum; the oracle diagonalizes the dense noisy - I/d.
        rho = random_density_matrix(2, 9)
        noisy = depolarize_density(random_density(2, 9), 0.5)
        single_norm = bound_chain(rho, 0.5, 1).links[2].lhs
        assert single_norm == pytest.approx(
            brute_trace_norm(noisy, maximally_mixed(2)), abs=1e-12
        )

    def test_power_cap(self):
        with pytest.raises(CapExceeded):
            bound_chain(random_density_matrix(5, 1), 0.5, 5)

    def test_power_cap_is_inclusive(self):
        # 11 copies of 2 qubits is exactly the 22-qubit cap: a 32 MiB vector.
        report = bound_chain(random_density_matrix(2, 1), 0.0625, 11)
        assert report.all_passed


class TestHelstromOptimality:
    @pytest.mark.parametrize("seed", [2, 13, 77])
    @pytest.mark.parametrize("f", [0.5, 0.25])
    def test_grid_never_beats_helstrom(self, seed, f):
        rho = random_density_matrix(1, seed)
        rho1 = depolarize_density(random_density(1, seed), f)
        rho0 = maximally_mixed(1)
        best = bloch_grid_best(rho0, rho1)
        assert best <= bound_chain(rho, f, 1).p_correct + 1e-9

    def test_grid_on_pure_state(self):
        rho1 = depolarize_density(zero_density(), 0.5)
        rho0 = maximally_mixed(1)
        best = bloch_grid_best(rho0, rho1)
        helstrom = bound_chain(density(zero_density()), 0.5, 1).p_correct
        assert best <= helstrom + 1e-9
        # the optimum here is the computational-basis measurement, which
        # the grid contains (theta = 0), so it is actually attained
        assert best == pytest.approx(helstrom, abs=1e-12)
