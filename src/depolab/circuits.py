"""Circuit model and the text format for circuit files.

A circuit is a width (number of qubits) plus an ordered gate list over the
fixed gate set H, X, S, T, CNOT, I1.  I1 is an explicit single-qubit
identity; it counts toward the gate count like any other gate, which keeps
"m gates" an honest measure of circuit length.

Text format::

    # comment to end of line
    qubits 3
    H 0
    CNOT 0 1      # control first, then target
    T 2

The first non-comment, non-blank line must be the ``qubits <n>`` header.
Qubit 0 is the least significant bit of an outcome index; rendered outcome
strings print qubit 0 leftmost.

Validation has one source: gate_problems holds the gate rules (kind,
arity, target range, distinct targets).  A Circuit checks itself when it
is built and raises every violation as one InvalidCircuit (a ValueError),
so no consumer checks it again.  parse_circuit only splits the text, builds
its Circuit once and reports the first violation on its line, with the
line's 1-based number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CircuitParseError, InvalidCircuit

GATE_ARITY = {"H": 1, "X": 1, "S": 1, "T": 1, "I1": 1, "CNOT": 2}


@dataclass(frozen=True)
class Gate:
    """A named gate applied to specific qubits (CNOT: control first)."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))

    def __str__(self) -> str:
        return " ".join([self.kind, *map(str, self.targets)])


@dataclass(frozen=True)
class Circuit:
    """Width plus ordered gates, legal by construction: gates is stored as
    a tuple, width must be an integer >= 1 and every gate is checked
    against gate_problems.  Positions in messages are 0-based gate indices."""

    width: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not _is_index(self.width):  # gates cannot be range-checked against it
            raise InvalidCircuit([(None, f"width must be an integer, got {self.width!r}")])
        problems = [(None, f"width must be >= 1, got {self.width}")] if self.width < 1 else []
        for i, g in enumerate(self.gates):
            problems.extend((i, p) for p in gate_problems(g, self.width))
        if problems:
            raise InvalidCircuit(problems)

    @property
    def m(self) -> int:
        """Gate count, identities included."""
        return len(self.gates)


def _is_index(x) -> bool:
    """A width or qubit index: an int or numpy integer, never a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def gate_problems(g: Gate, width: int) -> list[str]:
    """Every rule g breaks on a width-qubit register, [] when it is legal:
    a known kind, its arity, integer targets in range and distinct."""
    arity = GATE_ARITY.get(g.kind)
    if arity is None:
        return [f"unknown gate {g.kind!r}"]
    if len(g.targets) != arity:
        return [f"{g.kind} takes {arity} qubit(s), got {len(g.targets)}"]
    if not all(map(_is_index, g.targets)):
        return [f"qubit {q!r} is not an integer" for q in g.targets if not _is_index(q)]
    problems = [
        f"qubit {q} out of range for width {width}" for q in g.targets if not 0 <= q < width
    ]
    if len(set(g.targets)) != len(g.targets):
        problems.append(f"duplicate targets on {g.kind}")
    return problems


def parse_circuit(text: str) -> Circuit:
    """Parse the text format into a Circuit.

    The parser only splits lines into tokens; a width or qubit token that
    is not an integer is passed on as its text.  The Circuit built from
    them reports the first problem in line order, which is raised as a
    CircuitParseError on that line (1-based; the header's line for a bad
    width).
    """
    header = None  # (line number, width token)
    gates = []
    lines = []  # the line number of each gate
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitParseError(
                    lineno, f"expected 'qubits <n>' header, got {line!r}"
                )
            header = lineno, _integer_or_text(tokens[1])
            continue
        gates.append(Gate(tokens[0], tuple(map(_integer_or_text, tokens[1:]))))
        lines.append(lineno)
    if header is None:
        raise CircuitParseError(1, "missing 'qubits <n>' header")
    try:
        return Circuit(header[1], gates)
    except InvalidCircuit as err:
        line = header[0] if err.gate_index is None else lines[err.gate_index]
        raise CircuitParseError(line, err.problem) from None


def _integer_or_text(token: str) -> int | str:
    try:
        return int(token)
    except ValueError:
        return token


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format.  parse_circuit inverts this."""
    return "\n".join([f"qubits {circuit.width}", *map(str, circuit.gates)]) + "\n"


def outcome_string(index: int, width: int) -> str:
    """Bitstring for an outcome index, qubit 0 printed leftmost."""
    if not 0 <= index < (1 << width):
        raise ValueError(f"outcome {index} out of range for width {width}")
    # The top bit pads to width digits; [:0:-1] reverses and drops it.
    return format(index | 1 << width, "b")[:0:-1]


def random_circuit(width: int, gate_count: int, rng: np.random.Generator) -> Circuit:
    """Draw a random circuit: uniform gate kinds, uniform valid targets.

    The kinds are GATE_ARITY's in order, CNOT only for width >= 2.  Used by
    the experiment scripts and the test corpus; not part of the simulation
    semantics.
    """
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= width]
    gates = []
    for _ in range(gate_count):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "CNOT":
            control = int(rng.integers(width))
            target = int(rng.integers(width - 1))
            if target >= control:
                target += 1
            gates.append(Gate(kind, (control, target)))
        else:
            gates.append(Gate(kind, (int(rng.integers(width)),)))
    return Circuit(width, gates)
