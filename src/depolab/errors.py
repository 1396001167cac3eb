"""Exception types shared across the package, and the one resource refusal:
the four caps and check_cap, which each demand's one check calls before
any work (check_width, sorted_draws, check_copies, random_density_matrix
and the mixture's block stream), for the library and the CLI alike."""

# Largest simulable width: 2**24 complex128 amplitudes are 2**28 bytes.
# It bounds the randomized construction's total width w + m as well.
WIDTH_CAP = 24

# Exact branch enumeration walks all 2**m ancilla strings; past this it is
# no longer a desk-scale computation.
BRANCH_CAP = 20

# k copies of an n-qubit state live on k*n qubits; the k-copy spectrum
# holds one float64 per basis state, so 22 qubits is 32 MiB.  An n-qubit
# density matrix holds 2**(2*n) complex128 entries, 64 MiB at n = 11.
POWER_CAP = 22

# Each draw holds one float64 uniform, sorted in place, so 10**8 draws
# already need 0.8 GB.
SAMPLE_CAP = 10**8


class CircuitParseError(ValueError):
    """Raised when a circuit file is malformed.

    Carries the 1-based line number of the offending line so callers can
    point at the exact spot in the file.
    """

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InvalidCircuit(ValueError):
    """Raised when a Circuit breaks a construction rule.

    The message lists every problem; gate_index and problem hold the first
    one as data (gate_index None when it concerns the width), so a parser
    can point at that gate's line without reading the message.
    """

    def __init__(self, problems: list[tuple[int | None, str]]):
        self.gate_index, self.problem = problems[0]
        super().__init__(
            "invalid circuit: "
            + "; ".join(p if i is None else f"gate {i}: {p}" for i, p in problems)
        )


class CapExceeded(RuntimeError):
    """Raised by check_cap alone: exact enumeration is the point of this
    package, so a request past a cap is refused rather than degraded.  The
    message names the demand, its size, the cap and the bytes it needs."""


def check_cap(demand: str, size: int, cap: int, unit: str, need: str) -> None:
    """The one refusal of a demand whose size (in unit) is past cap.  need is
    the byte count as text, "2**28" or an integer: a huge width stays cheap."""
    if size > cap:
        raise CapExceeded(f"{demand} {size} exceeds the cap of {cap} {unit}; it needs {need} bytes")
