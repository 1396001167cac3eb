import hashlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from depolab import (
    Circuit,
    CircuitParseError,
    Gate,
    outcome_string,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from depolab.errors import InvalidCircuit
from oracles import loop_outcome_string
from strategies import circuits


class TestParse:
    def test_single_gate(self):
        assert parse_circuit("qubits 1\nH 0\n") == Circuit(1, (Gate("H", (0,)),))

    def test_cnot_control_first(self):
        c = parse_circuit("qubits 2\nCNOT 0 1\n")
        assert c.gates == (Gate("CNOT", (0, 1)),)

    def test_comments_and_blank_lines(self):
        text = "# preamble\n\nqubits 2\n\nH 0   # make |+>\n# done\nCNOT 0 1\n"
        c = parse_circuit(text)
        assert c.width == 2
        assert c.gates == (Gate("H", (0,)), Gate("CNOT", (0, 1)))

    def test_no_trailing_newline(self):
        assert parse_circuit("qubits 1\nX 0").gates == (Gate("X", (0,)),)

    def test_header_only(self):
        c = parse_circuit("qubits 3\n")
        assert c.width == 3 and c.m == 0

    def test_unknown_gate_reports_line(self):
        with pytest.raises(CircuitParseError, match="line 2.*CZ"):
            parse_circuit("qubits 2\nCZ 0 1\n")

    def test_out_of_range_reports_line(self):
        with pytest.raises(CircuitParseError, match="line 3.*out of range"):
            parse_circuit("qubits 1\nH 0\nX 1\n")

    def test_duplicate_targets(self):
        with pytest.raises(CircuitParseError, match="duplicate"):
            parse_circuit("qubits 2\nCNOT 1 1\n")

    def test_malformed_header(self):
        with pytest.raises(CircuitParseError, match="line 1.*header"):
            parse_circuit("H 0\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("# nothing here\n")

    def test_bad_width(self):
        with pytest.raises(CircuitParseError, match=">= 1"):
            parse_circuit("qubits 0\n")
        with pytest.raises(CircuitParseError, match="integer"):
            parse_circuit("qubits two\n")
        with pytest.raises(CircuitParseError, match="line 2: width must be >= 1"):
            parse_circuit("# c\nqubits 0\n")

    def test_bad_arity(self):
        with pytest.raises(CircuitParseError, match="line 2.*H takes 1"):
            parse_circuit("qubits 2\nH 0 1\n")
        with pytest.raises(CircuitParseError, match="CNOT takes 2"):
            parse_circuit("qubits 2\nCNOT 0\n")

    def test_bad_index_token(self):
        with pytest.raises(CircuitParseError, match="qubit 'zero' is not an integer"):
            parse_circuit("qubits 1\nH zero\n")

    def test_first_problem_on_its_gates_line(self):
        # Comments and blank lines part line numbers from gate indices, and
        # the earliest bad line wins even over a later bad token.
        text = "# c\nqubits 2\n\nH 0\n# note\nX 5\nCZ 0 1\nH zero\n"
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert str(err.value) == "line 6: qubit 5 out of range for width 2"
        assert err.value.line == 6

    def test_second_header_is_unknown_gate(self):
        with pytest.raises(CircuitParseError, match="unknown gate 'qubits'"):
            parse_circuit("qubits 2\nH 0\nqubits 3\n")


# Circuit text from gate names (one unknown), the header keyword, small
# integers and a comment mark: as lines of words or of a gate name and
# indices after a valid header, or glued together with blanks and
# newlines in any order.
_GATES = ["H", "X", "S", "T", "I1", "CNOT", "CZ"]
_INDICES = ["0", "1", "2", "3", "-1"]
_WORDS = ["qubits", "#", *_GATES, *_INDICES]
_gate_line = st.builds(
    lambda kind, args: " ".join([kind, *args]),
    st.sampled_from(_GATES),
    st.lists(st.sampled_from(_INDICES), min_size=1, max_size=2),
)
_word_line = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)
_lines = st.lists(st.one_of(_gate_line, _word_line), max_size=8)
circuit_texts = st.one_of(
    st.builds("qubits {}\n{}".format, st.integers(1, 4), _lines.map("\n".join)),
    st.lists(st.sampled_from(_WORDS + [" ", "\n"]), max_size=30).map("".join),
)


class TestParseFuzz:
    @given(circuit_texts)
    @settings(max_examples=300)
    def test_valid_circuit_or_error_inside_the_text(self, text):
        try:
            circuit = parse_circuit(text)
        except CircuitParseError as err:
            assert 1 <= err.line <= max(1, len(text.splitlines()))
            assert str(err).startswith(f"line {err.line}: ")
            return
        assert parse_circuit(serialize_circuit(circuit)) == circuit


class TestValidate:
    def test_valid_circuit(self, bell_circuit):
        assert Circuit(2, list(bell_circuit.gates)) == bell_circuit

    def test_gates_stored_as_hashable_tuple(self):
        circuit = Circuit(1, [Gate("H", [0])])
        assert circuit.gates == (Gate("H", (0,)),)
        assert hash(circuit) == hash(Circuit(1, (Gate("H", (0,)),)))

    @pytest.mark.parametrize(
        "width, targets, problem",
        [
            (2.5, None, "width must be an integer, got 2.5"),
            (True, None, "width must be an integer, got True"),
            (1, (0.5,), "gate 0: qubit 0.5 is not an integer"),
            (2, (True,), "gate 0: qubit True is not an integer"),
            (2, ([0],), "gate 0: qubit [0] is not an integer"),
        ],
        ids=["float-width", "bool-width", "float-target", "bool-target", "list-target"],
    )
    def test_non_integer_width_or_target(self, width, targets, problem):
        gates = () if targets is None else (Gate("H", targets),)
        with pytest.raises(ValueError) as err:
            Circuit(width, gates)
        assert str(err.value) == f"invalid circuit: {problem}"

    def test_numpy_integers_accepted(self):
        circuit = Circuit(np.int64(2), (Gate("CNOT", (np.int64(0), 1)),))
        assert serialize_circuit(circuit) == "qubits 2\nCNOT 0 1\n"

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^invalid circuit: gate 0: qubit 1 out of range"):
            Circuit(1, (Gate("CNOT", (0, 1)),))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="invalid circuit: gate 0: duplicate"):
            Circuit(2, (Gate("CNOT", (1, 1)),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="invalid circuit: gate 0: unknown"):
            Circuit(1, (Gate("CZ", (0,)),))

    def test_bad_arity(self):
        with pytest.raises(ValueError, match="invalid circuit: gate 0: H takes 1"):
            Circuit(2, (Gate("H", (0, 1)),))

    def test_zero_width(self):
        with pytest.raises(ValueError, match="invalid circuit: width must be >= 1, got 0"):
            Circuit(0, ())

    def test_first_problem_carried_as_data(self):
        with pytest.raises(InvalidCircuit) as err:
            Circuit(2, (Gate("H", (0,)), Gate("X", (5,)), Gate("CZ", (0,))))
        assert err.value.gate_index == 1
        assert err.value.problem == "qubit 5 out of range for width 2"

    def test_all_violations_reported(self):
        with pytest.raises(ValueError) as err:
            Circuit(1, (Gate("CZ", (0,)), Gate("X", (5,)), Gate("CNOT", (0, 0))))
        assert str(err.value) == (
            "invalid circuit: gate 0: unknown gate 'CZ'; "
            "gate 1: qubit 5 out of range for width 1; "
            "gate 2: duplicate targets on CNOT"
        )


class TestGateCount:
    def test_identity_counts(self):
        c = parse_circuit("qubits 1\nH 0\nI1 0\nI1 0\n")
        assert c.m == 3

    def test_empty(self):
        assert Circuit(2, ()).m == 0


class TestSerialize:
    def test_known_form(self, bell_circuit):
        assert serialize_circuit(bell_circuit) == "qubits 2\nH 0\nCNOT 0 1\n"

    @given(circuits(max_width=6, max_gates=12))
    def test_round_trip(self, circuit):
        assert parse_circuit(serialize_circuit(circuit)) == circuit


class TestRandomCircuit:
    def test_seeded_circuits_are_pinned(self):
        # Experiment scripts and benchmark inputs depend on these bytes.
        rng = np.random.Generator(np.random.Philox(key=0))
        text = serialize_circuit(random_circuit(2, 8, rng))
        assert text == "qubits 2\nH 0\nT 0\nS 0\nX 1\nT 1\nCNOT 0 1\nI1 1\nS 1\n"
        digest = hashlib.sha256()
        for seed in range(8):
            for width, gate_count in [(1, 6), (2, 12), (5, 20)]:
                rng = np.random.Generator(np.random.Philox(key=seed))
                digest.update(serialize_circuit(random_circuit(width, gate_count, rng)).encode())
        assert digest.hexdigest() == (
            "28bdd209da3952980a83fdca27ff59dbe60cfc985852623562ae314417b70bde"
        )

    def test_one_qubit_draws_no_cnot(self):
        circuit = random_circuit(1, 200, np.random.Generator(np.random.Philox(key=1)))
        assert {g.kind for g in circuit.gates} == {"H", "X", "S", "T", "I1"}


class TestOutcomeString:
    def test_qubit_zero_leftmost(self):
        assert outcome_string(1, 3) == "100"
        assert outcome_string(4, 3) == "001"
        assert outcome_string(6, 3) == "011"
        assert outcome_string(0, 0) == ""

    def test_range_check(self):
        with pytest.raises(ValueError):
            outcome_string(8, 3)
        with pytest.raises(ValueError):
            outcome_string(-1, 3)
        with pytest.raises(ValueError):
            outcome_string(1, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_bit_loop(self, data):
        width = data.draw(st.integers(0, 60), label="width")
        index = data.draw(st.integers(0, (1 << width) - 1), label="index")
        assert outcome_string(index, width) == loop_outcome_string(index, width)
