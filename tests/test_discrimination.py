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
from depolab.tolerances import ORACLE_TOL
from oracles import (
    bloch_grid_best,
    brute_helstrom,
    brute_trace_norm,
    depolarize_density,
    maximally_mixed,
    pure_density,
    trace_norm_diff,
)
from strategies import seeds

S2 = 2.0**-0.5


def zero_density():
    return DensityMatrix(1, np.array([[1.0, 0.0], [0.0, 0.0]]))


def one_density():
    return DensityMatrix(1, np.array([[0.0, 0.0], [0.0, 1.0]]))


class TestDensityTypes:
    def test_from_pure_zero(self):
        rho = pure_density(StateVector(1, np.array([1.0, 0.0])))
        assert np.allclose(rho.mat, [[1, 0], [0, 0]])

    def test_from_pure_bell(self, bell_circuit):
        rho = pure_density(run(bell_circuit))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho.mat, expected, atol=1e-12)

    def test_from_pure_allows_the_state_drift(self):
        # A simulated state may be off unit norm by its gates' round-off;
        # its density inherits that trace drift.
        amps = np.array([1.0 + 3e-12, 0.0])
        state = StateVector(1, amps, tol=1e-11)
        assert pure_density(state).mat[0, 0] == (1.0 + 3e-12) ** 2
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.outer(amps, amps))

    @pytest.mark.parametrize("width", [0, -1, 2.5])
    def test_random_width_validated(self, width):
        with pytest.raises(ValueError, match="width must be a positive integer"):
            random_density_matrix(width, 0)

    def test_integral_float_width_accepted(self):
        assert random_density_matrix(2.0, 0).width == 2

    def test_width_capped_before_allocating(self):
        # 12 qubits: 2**24 complex entries, 2**28 bytes; the cap is 11 qubits.
        with pytest.raises(CapExceeded, match=r"2\*\*28 bytes; the cap is 11 qubits"):
            random_density_matrix(12, 0)

    def test_maximally_mixed(self):
        rho = maximally_mixed(2)
        assert np.allclose(rho.mat, np.eye(4) / 4)

    def test_not_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_tol_widens_the_trace_check(self):
        mat = np.diag([0.5 + 3e-12, 0.5])
        with pytest.raises(ValueError, match="within 1e-12"):
            DensityMatrix(1, mat)
        widened = DensityMatrix(1, mat, tol=1e-11)
        assert widened.spectrum[1] == 0.5 + 3e-12
        assert widened.tol == 1e-11
        assert "tol" not in repr(widened)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_matrix_is_read_only(self):
        rho = maximally_mixed(1)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.9

    def test_spectrum_kept_read_only(self):
        rho = random_density_matrix(2, 7)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.mat))
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.5

    def test_random_density_is_valid_and_seeded(self):
        a = random_density_matrix(2, 7)
        b = random_density_matrix(2, 7)
        assert np.array_equal(a.mat, b.mat)
        assert random_density_matrix(2, 8).mat[0, 0] != a.mat[0, 0]

    def test_random_pure_is_rank_one(self):
        rho = random_density_matrix(2, 11, rank=1)
        eigvals = np.sort(np.linalg.eigvalsh(rho.mat))
        assert eigvals[-1] == pytest.approx(1.0, abs=1e-10)


class TestDepolarizeDensity:
    def test_pure_zero_half(self):
        rho = depolarize_density(zero_density(), 0.5)
        assert np.allclose(rho.mat, [[0.75, 0.0], [0.0, 0.25]])

    def test_zero_fidelity_is_mixed(self):
        rho = depolarize_density(zero_density(), 0.0)
        assert np.allclose(rho.mat, np.eye(2) / 2)

    def test_diagonal_matches_distribution_map(self, ghz_circuit):
        # Depolarizing a state and depolarizing its outcome distribution
        # must agree on the diagonal.
        rho = pure_density(run(ghz_circuit))
        noisy_diag = np.diag(depolarize_density(rho, 0.3).mat).real
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
        assert bound_chain(maximally_mixed(1), 0.5, 1).p_correct == pytest.approx(0.5)

    def test_reference_point(self):
        # rho1 = diag(3/4, 1/4), rho0 = I/2: ||diff||_1 = 1/2, p = 0.625
        assert bound_chain(zero_density(), 0.5, 1).p_correct == pytest.approx(0.625, abs=1e-12)

    def test_orthogonal_states_certain(self):
        p_correct, measured = brute_helstrom(zero_density().mat, one_density().mat, 1)
        assert p_correct == pytest.approx(1.0, abs=1e-12)
        assert measured == pytest.approx(1.0, abs=1e-12)

    def test_more_copies_help(self):
        values = [bound_chain(zero_density(), 0.25, k).p_correct for k in (1, 2, 3)]
        assert values[0] < values[1] < values[2]

    def test_projector_route_agrees(self):
        rho = random_density_matrix(1, 3)
        p, measured = brute_helstrom(maximally_mixed(1).mat, depolarize_density(rho, 0.5).mat, 2)
        assert measured == pytest.approx(p, abs=1e-12)
        assert bound_chain(rho, 0.5, 2).p_correct == pytest.approx(p, abs=1e-12)

    def test_power_cap(self):
        # 25 qubits of float64 eigenvalues: 2**25 * 8 = 2**28 bytes.
        with pytest.raises(CapExceeded, match=r"2\*\*28 bytes; the cap is 22 qubits"):
            bound_chain(maximally_mixed(5), 0.5, 5)

    def test_k_validated(self):
        with pytest.raises(ValueError, match="positive integer"):
            bound_chain(maximally_mixed(1), 0.5, 0)


@st.composite
def chain_cases(draw):
    """(rho, F, k) with k * width <= 8, so the dense oracle stays cheap.
    rho is a random density of rank 1 or full rank, or the pure StateVector
    of a random circuit."""
    width = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8 // width))
    seed = draw(seeds)
    kind = draw(st.sampled_from(["rank one", "full rank", "circuit"]))
    if kind == "circuit":
        rng = np.random.Generator(np.random.Philox(key=seed))
        rho = run(random_circuit(width, draw(st.integers(0, 16)), rng))
    else:
        rho = random_density_matrix(width, seed, rank=1 if kind == "rank one" else None)
    return rho, draw(st.sampled_from([0.5, 0.0625, 0.00390625])), k


class TestSpectralRouteMatchesDenseOracle:
    @given(chain_cases())
    @settings(max_examples=60)
    def test_every_link_matches_oracle(self, case):
        rho, f, k = case
        mat = pure_density(rho).mat if isinstance(rho, StateVector) else rho.mat
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
        report = bound_chain(zero_density(), 0.5, 2)
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
        report = bound_chain(zero_density(), 0.25, 1)
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
        noisy = depolarize_density(rho, 0.5)
        single_norm = bound_chain(rho, 0.5, 1).links[2].lhs
        assert single_norm == pytest.approx(
            brute_trace_norm(noisy.mat, maximally_mixed(2).mat), abs=1e-12
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
        rho1 = depolarize_density(rho, f)
        rho0 = maximally_mixed(1)
        best = bloch_grid_best(rho0.mat, rho1.mat)
        assert best <= bound_chain(rho, f, 1).p_correct + 1e-9

    def test_grid_on_pure_state(self):
        rho1 = depolarize_density(zero_density(), 0.5)
        rho0 = maximally_mixed(1)
        best = bloch_grid_best(rho0.mat, rho1.mat)
        helstrom = bound_chain(zero_density(), 0.5, 1).p_correct
        assert best <= helstrom + 1e-9
        # the optimum here is the computational-basis measurement, which
        # the grid contains (theta = 0), so it is actually attained
        assert best == pytest.approx(helstrom, abs=1e-12)
