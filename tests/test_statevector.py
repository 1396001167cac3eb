import numpy as np
import pytest
from hypothesis import given, settings

from depolab import (
    CapExceeded,
    Circuit,
    DensityMatrix,
    Distribution,
    Gate,
    StateVector,
    WIDTH_CAP,
    output_distribution,
    parse_circuit,
    run,
    zero_overlap,
)
from depolab.statevector import GATE_ROUNDOFF, _apply_gate_inplace
from depolab.tolerances import EXACT_TOL
from oracles import brute_amplitudes, brute_distribution, dense_unitary, pure_density
from strategies import circuits

S2 = 2.0**-0.5


def plus_state():
    return StateVector(1, np.array([S2, S2]))


class TestApplyGate:
    def test_hadamard(self):
        assert np.allclose(run(parse_circuit("qubits 1\nH 0\n")).amps, [S2, S2], atol=1e-12)

    def test_x_flips(self):
        assert np.allclose(run(parse_circuit("qubits 1\nX 0\n")).amps, [0, 1], atol=1e-12)

    def test_s_phase_on_plus(self):
        out = run(parse_circuit("qubits 1\nH 0\nS 0\n"))
        assert np.allclose(out.amps, [S2, 1j * S2], atol=1e-12)

    def test_t_eighth_power_is_identity(self):
        out = run(parse_circuit("qubits 1\nH 0\n" + "T 0\n" * 8))
        assert np.allclose(out.amps, plus_state().amps, atol=1e-12)

    def test_identity_gate_does_nothing(self):
        out = run(parse_circuit("qubits 1\nH 0\nI1 0\n"))
        assert np.allclose(out.amps, plus_state().amps)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            run(Circuit(1, (Gate("X", (3,)),)))

    def test_kernel_refuses_non_contiguous(self):
        # A strided array would be reshaped into a copy, losing the writes.
        amps = np.zeros((2, 4), dtype=np.complex128)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            _apply_gate_inplace(amps, Gate("H", (0,)), 1)

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=30)
    def test_batch_rows_advance_independently(self, circuit):
        # Row i starts at basis state i; each row must end as U|i>.
        d = 1 << circuit.width
        batch = np.eye(d, dtype=np.complex128)
        for g in circuit.gates:
            _apply_gate_inplace(batch, g, circuit.width)
        assert np.allclose(batch.T, dense_unitary(circuit), atol=1e-10)


class TestRun:
    def test_bell(self, bell_circuit):
        state = run(bell_circuit)
        assert np.allclose(state.amps, [S2, 0, 0, S2], atol=1e-12)

    def test_double_x_returns_home(self):
        c = parse_circuit("qubits 1\nX 0\nX 0\n")
        assert np.allclose(run(c).amps, [1, 0], atol=1e-12)

    def test_empty_circuit(self):
        state = run(Circuit(2, ()))
        assert np.allclose(state.amps, [1, 0, 0, 0])

    def test_cnot_direction(self):
        # control 1 is |0>, so nothing happens
        c = parse_circuit("qubits 2\nCNOT 1 0\n")
        assert np.allclose(run(c).amps, [1, 0, 0, 0], atol=1e-12)

    def test_invalid_circuit_rejected(self):
        with pytest.raises(ValueError, match="invalid circuit"):
            run(Circuit(1, (Gate("X", (2,)),)))

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_unitarity(self, circuit):
        state = run(circuit)
        assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, circuit):
        assert np.allclose(run(circuit).amps, brute_amplitudes(circuit), atol=1e-10)


class TestOutputDistribution:
    def test_plus(self, plus_circuit):
        assert np.allclose(output_distribution(plus_circuit).probs, [0.5, 0.5], atol=1e-12)

    def test_empty_width_two(self):
        assert np.allclose(output_distribution(Circuit(2, ())).probs, [1, 0, 0, 0])

    def test_bell(self, bell_circuit):
        assert np.allclose(output_distribution(bell_circuit).probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_ghz(self, ghz_circuit):
        probs = output_distribution(ghz_circuit).probs
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[7] == pytest.approx(0.5, abs=1e-12)
        assert probs[1:7] == pytest.approx(np.zeros(6), abs=1e-12)

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, circuit):
        dist = output_distribution(circuit)
        assert np.allclose(dist.probs, brute_distribution(circuit), atol=1e-10)

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_zero_entry_is_squared_overlap(self, circuit):
        dist = output_distribution(circuit)
        assert abs(dist.probs[0] - abs(zero_overlap(circuit)) ** 2) <= 1e-12


class TestZeroOverlap:
    def test_hadamard(self, plus_circuit):
        assert zero_overlap(plus_circuit) == pytest.approx(S2, abs=1e-12)

    def test_x(self):
        assert zero_overlap(parse_circuit("qubits 1\nX 0\n")) == pytest.approx(0, abs=1e-12)

    def test_t_leaves_zero_alone(self):
        assert zero_overlap(parse_circuit("qubits 1\nT 0\n")) == pytest.approx(1, abs=1e-12)


class TestWidthCap:
    def test_default(self):
        assert WIDTH_CAP == 24
        with pytest.raises(CapExceeded, match=r"width 25.* 2\*\*29 bytes"):
            run(Circuit(25, ()))


class TestTypes:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_direct_state_keeps_exact_tol(self):
        # Only run/output_distribution widen the check, by their gate count.
        with pytest.raises(ValueError, match="within 1e-12"):
            StateVector(1, np.array([1.0 - 2e-12, 0.0]))

    def test_state_shape_enforced(self):
        with pytest.raises(ValueError, match="expected 4"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_state_is_read_only(self):
        state = plus_state()
        with pytest.raises(ValueError):
            state.amps[0] = 9.0

    def test_distribution_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Distribution(1, np.array([1.5, -0.5]))

    def test_distribution_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(1, np.array([0.6, 0.6]))

    def test_distribution_is_read_only(self):
        dist = Distribution(1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7

    def test_input_array_is_copied(self):
        probs = np.array([0.5, 0.5])
        dist = Distribution(1, probs)
        probs[0] = 0.7
        assert dist.probs[0] == 0.5

    @pytest.mark.parametrize(
        "cls, values", [(StateVector, [1.0 + 3e-12, 0.0]), (Distribution, [0.5 + 3e-12, 0.5])]
    )
    def test_tol_widens_the_unit_check(self, cls, values):
        values = np.array(values)
        with pytest.raises(ValueError, match="within 1e-12"):
            cls(1, values)
        widened = cls(1, values, tol=1e-11)
        assert widened.tol == 1e-11
        assert cls(1, values, tol=1e-10).tol == 1e-10
        assert cls(1, [1.0, 0.0]).tol == EXACT_TOL
        assert "tol" not in repr(widened)  # repr=False
        with pytest.raises(TypeError):
            cls(1, values, 1e-11)  # tol is keyword-only

    def test_simulated_tol_carries_to_the_distribution(self, ghz_circuit):
        tol = EXACT_TOL + GATE_ROUNDOFF * ghz_circuit.m
        assert run(ghz_circuit).tol == tol
        assert output_distribution(ghz_circuit).tol == tol

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StateVector(1, [S2, S2]),
            lambda: Distribution(1, [0.5, 0.5]),
            lambda: DensityMatrix(1, np.eye(2) / 2),
        ],
        ids=["StateVector", "Distribution", "DensityMatrix"],
    )
    def test_identity_equality_and_hash(self, make):
        x = make()
        assert x == x
        # An equal copy compares false, instead of asking numpy for the
        # truth value of an array.
        assert not (x == make())
        assert x != make()
        assert hash(x) == hash(x)
        assert len({x, make(), x}) == 2


class TestPureSpectrum:
    def test_ascending_with_the_squared_norm_last(self, ghz_circuit):
        state = run(ghz_circuit)
        spectrum = state.spectrum
        assert np.array_equal(spectrum[:-1], np.zeros(7))
        assert spectrum[-1] == pytest.approx(np.sum(np.abs(state.amps) ** 2), rel=1e-15)
        # The dense rank-one density has the same ascending eigenvalues.
        dense = np.linalg.eigvalsh(pure_density(state).mat)
        assert np.allclose(dense, spectrum, rtol=0.0, atol=1e-12)
        # A state off unit norm keeps its drift in the spectrum.
        drifted = StateVector(1, np.array([1.0 + 3e-12, 0.0]), tol=1e-11)
        assert drifted.spectrum[0] == 0.0
        assert drifted.spectrum[1] == pytest.approx((1.0 + 3e-12) ** 2, rel=1e-15)
        assert drifted.spectrum[1] != 1.0
