"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume

from depolab import Circuit, Distribution, Gate

ONE_QUBIT_KINDS = ("H", "X", "S", "T", "I1")

fidelities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
low_fidelities = st.floats(min_value=1e-9, max_value=0.5, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def gates(draw, width: int, kinds=ONE_QUBIT_KINDS + ("CNOT",)) -> Gate:
    """One gate of kinds (repeat a kind to weight it); CNOT only for width >= 2."""
    kind = draw(st.sampled_from([k for k in kinds if k != "CNOT" or width >= 2]))
    if kind == "CNOT":
        control = draw(st.integers(0, width - 1))
        target = draw(st.integers(0, width - 2))
        if target >= control:
            target += 1
        return Gate("CNOT", (control, target))
    return Gate(kind, (draw(st.integers(0, width - 1)),))


@st.composite
def circuits(draw, min_width: int = 1, max_width: int = 5, max_gates: int = 10,
             kinds=ONE_QUBIT_KINDS + ("CNOT",)) -> Circuit:
    width = draw(st.integers(min_width, max_width))
    gate_list = draw(st.lists(gates(width, kinds), max_size=max_gates))
    return Circuit(width, tuple(gate_list))


@st.composite
def distributions(draw, max_width: int = 5) -> Distribution:
    width = draw(st.integers(1, max_width))
    size = 1 << width
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    total = float(sum(raw))
    assume(total > 1e-6)
    probs = np.array(raw) / total
    probs /= probs.sum()
    return Distribution(width, probs)
