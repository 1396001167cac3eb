"""Exception types shared across the package."""


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
    """Raised when a request would blow past a hard resource cap.

    Exact enumeration is the whole point of this package, so instead of
    silently thrashing we refuse anything beyond the configured limits
    (statevector width, branch enumeration, tensor-power dimension, sample
    count); the message states the bytes the request would have needed.
    """
