import math

import numpy as np
import pytest
from hypothesis import given, settings

import depolab.statevector
from depolab import (
    CapExceeded,
    Circuit,
    Gate,
    RandomizedCircuit,
    depolarized_acceptance,
    hardness_gap,
    mixture_distribution,
    parse_circuit,
    random_circuit,
    sbp_thresholds,
    zero_overlap,
)
from oracles import branch_bits, brute_mixture, realized_circuit
from strategies import circuits, fidelities

H0 = Gate("H", (0,))
X0 = Gate("X", (0,))


def rc_from(text):
    return RandomizedCircuit(parse_circuit(text))


def acceptance(rc, f):
    """depolarized_acceptance with q from one simulation of V."""
    return depolarized_acceptance(rc, abs(zero_overlap(rc.circuit)) ** 2, f)


class TestBuild:
    def test_default_policy_single_gate(self):
        rc = rc_from("qubits 1\nH 0\n")
        assert rc.steps == ((H0, X0),)
        assert rc.main_width == 1
        assert rc.ancilla_width == 1
        assert rc.total_width == 2

    def test_default_policy_cnot_first_target(self, bell_circuit):
        rc = RandomizedCircuit(bell_circuit)
        assert rc.steps[0] == (H0, X0)
        assert rc.steps[1] == (Gate("CNOT", (0, 1)), X0)

    def test_invalid_input_circuit_rejected(self):
        with pytest.raises(ValueError, match="invalid circuit"):
            RandomizedCircuit(Circuit(1, (Gate("X", (4,)),)))

    def test_primary_circuit_round_trip(self, ghz_circuit):
        assert RandomizedCircuit(ghz_circuit).circuit == ghz_circuit


class TestMixture:
    def test_single_hadamard(self):
        # heads: H|0> spreads mass 1/4, 1/4; tails: X|0> = |1> with the
        # ancilla flag set, so (y=1, a=1) carries 1/2 and (y=0, a=1) none.
        mix = mixture_distribution(rc_from("qubits 1\nH 0\n"))
        assert np.allclose(mix.probs, [0.25, 0.25, 0.0, 0.5], atol=1e-15)

    def test_empty_circuit(self):
        mix = mixture_distribution(rc_from("qubits 2\n"))
        assert mix.width == 2
        assert np.allclose(mix.probs, [1, 0, 0, 0])

    def test_matches_brute_branches(self, bell_circuit):
        rc = RandomizedCircuit(bell_circuit)
        assert np.allclose(mixture_distribution(rc).probs, brute_mixture(rc), atol=1e-12)

    @given(circuits(max_width=3, max_gates=5))
    @settings(max_examples=40)
    def test_matches_brute_branches_generated(self, circuit):
        rc = RandomizedCircuit(circuit)
        assert np.allclose(mixture_distribution(rc).probs, brute_mixture(rc), atol=1e-12)

    @given(circuits(max_width=3, max_gates=6))
    @settings(max_examples=40)
    def test_branch_slices_are_uniform_over_alpha(self, circuit):
        rc = RandomizedCircuit(circuit)
        w, m = rc.main_width, rc.ancilla_width
        slices = mixture_distribution(rc).probs.reshape(1 << m, 1 << w)
        assert np.allclose(slices.sum(axis=1), np.full(1 << m, 2.0**-m), atol=1e-12)

    @given(circuits(max_width=3, max_gates=6))
    @settings(max_examples=40)
    def test_zero_entry_is_acceptance_mass(self, circuit):
        rc = RandomizedCircuit(circuit)
        q = abs(zero_overlap(circuit)) ** 2
        mix = mixture_distribution(rc)
        assert abs(mix.probs[0] - q / (1 << rc.ancilla_width)) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("shape", [(1, 9), (4, 8), (12, 3)])
    def test_block_size_leaves_every_bit(self, monkeypatch, rows, shape):
        # Blocks of 1, 3 or 7 branch rows, rounded down to the power of
        # two _rows can size, in the doubling halves and the last step
        # alike (statevector's _rows sizes both), give the bytes of the
        # default block size.
        rng = np.random.Generator(np.random.Philox(key=rows))
        rc = RandomizedCircuit(random_circuit(*shape, rng))
        whole = mixture_distribution(rc).probs
        monkeypatch.setattr(depolab.statevector, "_BLOCK_BITS", (rows << shape[0]).bit_length() - 1)
        assert mixture_distribution(rc).probs.tobytes() == whole.tobytes()

    def test_branch_cap(self):
        wide = Circuit(1, tuple(H0 for _ in range(21)))
        # 21 steps are 21 ancilla qubits: 2**22 amplitudes of 16 bytes.
        with pytest.raises(CapExceeded, match=r"^ancilla width 21 exceeds the cap of 20 qubits; "
                                              r"it needs 2\*\*26 bytes$"):
            mixture_distribution(RandomizedCircuit(wide))

    def test_total_width_cap(self):
        rc = rc_from("qubits 5\n" + "H 0\n" * 20)  # 5 + 20 = 25 qubits
        with pytest.raises(CapExceeded, match=r"total width 25 .*2\*\*29 bytes"):
            mixture_distribution(rc)


class TestSampleBranch:
    def test_pinned_bits(self):
        rc = rc_from("qubits 2\nH 0\nCNOT 0 1\nT 1\nX 0\nS 1\nH 1\n")
        bits = branch_bits(rc, 3)
        realized = realized_circuit(rc, bits)
        assert bits == (1, 1, 0, 0, 1, 0)
        assert realized.width == 8
        assert realized.m == 6 + sum(bits)

    def test_realized_structure(self):
        rc = rc_from("qubits 2\nH 0\nCNOT 0 1\nT 1\n")
        bits = branch_bits(rc, 5)
        expected = []
        for j, ((primary, alternate), bit) in enumerate(zip(rc.steps, bits)):
            if bit:
                expected.extend([alternate, Gate("X", (2 + j,))])
            else:
                expected.append(primary)
        assert realized_circuit(rc, bits).gates == tuple(expected)

    def test_empty_circuit(self):
        rc = rc_from("qubits 2\n")
        bits = branch_bits(rc, 0)
        assert bits == ()
        assert realized_circuit(rc, bits) == Circuit(2, ())

    def test_deterministic(self):
        rc = rc_from("qubits 1\nH 0\nH 0\nH 0\n")
        assert branch_bits(rc, 42) == branch_bits(rc, 42)

    def test_fair_coin_three_sigma(self):
        rc = rc_from("qubits 1\nH 0\n")
        draws = 10**5
        heads = sum(branch_bits(rc, seed)[0] for seed in range(draws))
        assert abs(heads - draws / 2) <= 3 * np.sqrt(draws / 4)

    def test_seed_validated(self):
        with pytest.raises(ValueError, match="seed"):
            branch_bits(rc_from("qubits 1\nH 0\n"), -2)


class TestDepolarizedAcceptance:
    def test_single_hadamard_fidelity_cancels(self):
        # q = 1/2, m = 1, n = 2: F/4 + (1-F)/4 = 1/4 for every F.
        rc = rc_from("qubits 1\nH 0\n")
        for f in (0.0, 0.3, 0.5, 1.0):
            assert acceptance(rc, f) == pytest.approx(0.25, abs=1e-15)

    def test_double_x(self):
        rc = rc_from("qubits 1\nX 0\nX 0\n")
        for f in (0.0, 0.25, 1.0):
            assert acceptance(rc, f) == pytest.approx(
                f / 4 + (1 - f) / 8, abs=1e-15
            )

    def test_zero_fidelity_is_uniform_mass(self, ghz_circuit):
        rc = RandomizedCircuit(ghz_circuit)
        assert acceptance(rc, 0.0) == pytest.approx(
            2.0**-rc.total_width, abs=1e-18
        )

    @given(circuits(max_width=3, max_gates=5), fidelities)
    @settings(max_examples=40)
    def test_matches_mixture_route(self, circuit, f):
        rc = RandomizedCircuit(circuit)
        via_mixture = f * mixture_distribution(rc).probs[0] + (1 - f) / (
            1 << rc.total_width
        )
        assert abs(acceptance(rc, f) - via_mixture) <= 1e-12


class TestSbpThresholds:
    def test_reference_point(self):
        report = sbp_thresholds(3, 10, 4, 0.5, 0.5)
        assert report.yes_lower == 49 / 4096
        assert report.no_upper == 51 / 65536
        assert report.ratio == pytest.approx(784 / 51, rel=1e-15)
        assert report.sbp_ok

    def test_collapsed_gap(self):
        report = sbp_thresholds(1, 1, 1, 0.5, 0.9)
        assert not report.sbp_ok
        assert report.ratio < 2

    def test_wide_open_gap(self):
        report = sbp_thresholds(10, 20, 4, 1.0, 0.0)
        assert report.sbp_ok
        assert report.ratio > 1000

    def test_full_fidelity_formula(self):
        report = sbp_thresholds(2, 3, 2, 1.0, 0.25)
        assert report.no_upper == pytest.approx(0.25 * 1.25 * 2.0**-4, rel=1e-15)

    def test_zero_fidelity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sbp_thresholds(3, 10, 4, 0.0, 0.5)

    @pytest.mark.parametrize("eps", [1.0, 1.5, -0.1])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            sbp_thresholds(3, 10, 4, 0.5, eps)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_positive_parameters(self, bad):
        with pytest.raises(ValueError):
            sbp_thresholds(bad, 10, 4, 0.5, 0.5)

    def test_ratio_monotone_in_r_and_w(self):
        ratios_r = [sbp_thresholds(r, 10, 4, 0.5, 0.5).ratio for r in range(1, 13)]
        assert all(a <= b for a, b in zip(ratios_r, ratios_r[1:]))
        ratios_w = [sbp_thresholds(3, w, 4, 0.5, 0.5).ratio for w in range(1, 17)]
        assert all(a <= b for a, b in zip(ratios_w, ratios_w[1:]))

    def test_ratio_free_of_m(self):
        base = sbp_thresholds(3, 10, 4, 0.5, 0.5)
        for m in (1, 100, 1100, 5000):
            report = sbp_thresholds(3, 10, m, 0.5, 0.5)
            assert (report.ratio, report.sbp_ok) == (base.ratio, base.sbp_ok)
            assert report.yes_lower == math.ldexp(base.yes_lower, 4 - m)
            assert report.no_upper == math.ldexp(base.no_upper, 4 - m)

    @pytest.mark.parametrize("w", [10, 20])
    def test_paper_regime_gap_dies_past_m_equals_w_minus_2(self, w):
        # F = 2**-m: the noise term (1 - F) / (F * 2**w) ~ 2**(m - w)
        # overtakes the promise 2**-2r, so the gap holds only while m <= w - 2.
        ok = [m for m in range(1, 3 * w) if sbp_thresholds(8, w, m, 2.0**-m, 0.1).sbp_ok]
        assert ok == list(range(1, w - 1))

    def test_huge_width(self):
        report = sbp_thresholds(3, 2000, 4, 0.5, 0.5)
        assert report.no_upper == 1.5 * 0.5 * 2.0**-4 * 2.0**-6
        assert report.ratio == pytest.approx(49 / 3, rel=1e-15)

    # no_upper underflows to 0, overflows, or the ratio overflows.
    @pytest.mark.parametrize("r, w, f", [(600, 2000, 0.5), (3, 10, 1e-320), (600, 1050, 0.5)])
    def test_out_of_float_range_rejected(self, r, w, f):
        with pytest.raises(ValueError, match="float range"):
            sbp_thresholds(r, w, 4, f, 0.5)

    def test_yes_lower_bounds_accepting_circuits(self):
        # A circuit with q = 1 accepts as well as any promise allows, so
        # its depolarized spike must clear yes_lower at every (r, F, eps).
        rc = rc_from("qubits 1\nX 0\nX 0\n")
        for r in (1, 2, 3):
            for f in (0.3, 0.5, 1.0):
                for eps in (0.1, 0.5):
                    report = sbp_thresholds(r, rc.main_width, rc.ancilla_width, f, eps)
                    assert report.yes_lower < acceptance(rc, f)


class TestHardnessGap:
    def test_tiny_fidelity(self):
        got = hardness_gap(1.0, 0.0, 2.0**-10, 4)
        assert got.gap == 2.0**-10
        assert got.yes_rate == pytest.approx(2.0**-10 + (1 - 2.0**-10) / 16, rel=1e-15)

    def test_full_fidelity(self):
        got = hardness_gap(0.75, 0.25, 1.0, 3)
        assert got == (0.75, 0.25, 0.5)

    def test_gap_is_exact_product(self):
        # gap must be F*(a-b) to the last bit, not alpha - beta re-rounded
        a, b, f = 0.7310585786300049, 0.2689414213699951, 0.3333333333333333
        assert hardness_gap(a, b, f, 5).gap == f * (a - b)

    @given(fidelities)
    def test_gap_independent_of_width(self, f):
        gaps = {hardness_gap(0.9, 0.1, f, n).gap for n in (1, 4, 9)}
        assert len(gaps) == 1

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="no_acceptance < yes_acceptance"):
            hardness_gap(0.3, 0.5, 0.5, 2)
        with pytest.raises(ValueError):
            hardness_gap(0.5, 0.5, 0.5, 2)
        with pytest.raises(ValueError):
            hardness_gap(1.2, 0.5, 0.5, 2)

    def test_width_validated(self):
        with pytest.raises(ValueError, match="width"):
            hardness_gap(0.9, 0.1, 0.5, 0)

    def test_huge_width(self):
        assert hardness_gap(0.75, 0.25, 0.5, 2000) == (0.375, 0.125, 0.25)
