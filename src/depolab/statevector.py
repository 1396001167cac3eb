"""Dense statevector simulation.

Amplitudes live in a flat complex128 array of length 2**width; qubit q is
bit q of the array index (qubit 0 = least significant).  The kernel views
that array, without copying, with one length-2 axis per qubit (qubit q is
axis -1-q) and works on the two halves along the target axis in place,
doing only what the gate needs: I1 nothing, X and CNOT (where the control
is 1) a swap of the halves, S and T one product on the 1-half, and H the
full 2x2 update.  Any C-contiguous array whose last axis is the amplitude
index works, so a batch of states advances in one call.

No approximation anywhere: simulation is exact up to float round-off, and
widths are capped at WIDTH_CAP qubits rather than degraded.  StateVector
and Distribution keep the tol their norm or sum was checked within, and
compare and hash by identity (their arrays have no single truth value).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate
from .errors import CapExceeded
from .tolerances import EXACT_TOL

# Largest simulable width: 2**24 complex128 amplitudes are 2**28 bytes.
WIDTH_CAP = 24

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# Round-off bound per kernel step on the drift of sum |amplitude|^2, and so
# of the norm.  I1, X, CNOT and S are exact: a swap, or a product by i that
# only moves and negates parts.  T multiplies the 1-half by a rounded
# e^(i pi/4): one complex product within sqrt(5)*u (u = eps/2), plus u from
# the rounded entry, 3.3*u on the norm.  H makes each amplitude
# U[0,0]*a + U[0,1]*b: two complex products, each within sqrt(5)*u, and a
# complex sum within u.  A pair moves by at most (sqrt(10) + 1)*u of its
# norm, as |U| has norm <= sqrt(2), plus sqrt(2)*u from the rounded
# entries: 5.58*u on the norm, 11.2*u on its square.  So 12*u = 6*eps
# bounds every kind.
GATE_ROUNDOFF = 6.0 * np.finfo(np.float64).eps

GATE_MATRICES = {
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}


def _freeze(obj, name: str, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Copy obj.name in as a read-only array of dtype and shape; set it back."""
    values = np.array(getattr(obj, name), dtype=dtype)
    if values.shape != shape:
        raise ValueError(f"expected {what} for width {obj.width}, got shape {values.shape}")
    values.setflags(write=False)
    object.__setattr__(obj, name, values)
    return values


def _check_unit(what: str, value: complex, tol: float) -> None:
    """Raise unless a norm, sum or trace is 1 within tol, itself in [0, 1):
    a tol of 1 or more would admit a zero vector.  NaN is never within."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    if not abs(value - 1.0) <= tol:
        raise ValueError(f"{what} {value!r} is not 1 within {tol}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm amplitudes over 2**width basis states.  Immutable: the
    array is copied in and marked read-only.  The norm is checked within
    tol, EXACT_TOL unless the caller knows a round-off bound."""

    width: int
    amps: np.ndarray
    tol: float = field(default=EXACT_TOL, kw_only=True, repr=False)

    def __post_init__(self):
        d = 1 << self.width
        amps = _freeze(self, "amps", np.complex128, (d,), f"{d} amplitudes")
        _check_unit("state norm", float(np.linalg.norm(amps)), self.tol)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of |psi><psi|, ascending like DensityMatrix.spectrum:
        2**width - 1 zeros, then the squared norm (1 up to the state's drift)."""
        spectrum = np.zeros(1 << self.width)
        spectrum[-1] = np.vdot(self.amps, self.amps).real
        return spectrum


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over 2**width outcomes: nonnegative, summing to 1
    within tol (EXACT_TOL unless the caller knows a round-off bound)."""

    width: int
    probs: np.ndarray
    tol: float = field(default=EXACT_TOL, kw_only=True, repr=False)

    def __post_init__(self):
        d = 1 << self.width
        probs = _freeze(self, "probs", np.float64, (d,), f"{d} probabilities")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        _check_unit("probability sum", float(probs.sum()), self.tol)


def _pinned(bits: np.ndarray, width: int, *pins: tuple[int, int]) -> np.ndarray:
    """Writable view of bits with each (qubit, value) pin fixed; qubit q is
    axis -1-q.  The Ellipsis keeps even a single amplitude a 0-d view."""
    index = [slice(None)] * width
    for qubit, value in pins:
        index[-1 - qubit] = value
    return bits[(..., *index)]


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, width: int) -> None:
    """Apply one gate to amps (last axis = amplitude index), in place."""
    if not amps.flags.c_contiguous:
        # reshape would hand back a copy and the writes below would be lost.
        raise ValueError("the gate kernel needs a C-contiguous amplitude array")
    if gate.kind == "I1":
        return
    bits = amps.reshape(amps.shape[:-1] + (2,) * width)
    *controls, target = gate.targets  # CNOT acts where its control is 1
    pins = [(control, 1) for control in controls]
    a = _pinned(bits, width, *pins, (target, 0))
    b = _pinned(bits, width, *pins, (target, 1))
    if gate.kind in ("X", "CNOT"):
        a_old = a.copy()
        a[...] = b
        b[...] = a_old
        return
    u = GATE_MATRICES[gate.kind]
    if gate.kind == "H":
        # The same four products and two sums as U[0,0]*a + U[0,1]*b and
        # U[1,0]*a + U[1,1]*b, through two half-sized buffers: no kind
        # holds more scratch than H's two halves, whatever the circuit.
        p, q = np.empty_like(a), np.empty_like(b)  # arrays even when 0-d
        np.multiply(u[0, 0], a, out=p)
        np.multiply(u[0, 1], b, out=q)
        p += q
        np.multiply(u[1, 0], a, out=q)
        a[...] = p
        np.multiply(u[1, 1], b, out=p)
        np.add(q, p, out=b)
    else:  # S or T: diagonal, so the 0-half keeps its amplitudes.
        # Scalar first: b *= u[1, 1] on a strided view takes numpy's FMA
        # loop and rounds T's product differently.
        b[...] = u[1, 1] * b


def run(circuit: Circuit) -> StateVector:
    """Simulate the circuit from |0...0> and return the final state, its
    norm checked within EXACT_TOL plus GATE_ROUNDOFF per gate."""
    if circuit.width > WIDTH_CAP:
        raise CapExceeded(
            f"circuit width {circuit.width} exceeds the cap of {WIDTH_CAP} qubits; its "
            f"2**{circuit.width} amplitudes need 2**{circuit.width + 4} bytes"
        )
    amps = np.zeros(1 << circuit.width, dtype=np.complex128)
    amps[0] = 1.0
    for g in circuit.gates:
        _apply_gate_inplace(amps, g, circuit.width)
    return StateVector(circuit.width, amps, tol=EXACT_TOL + GATE_ROUNDOFF * circuit.m)


def _squared_abs(amps: np.ndarray) -> np.ndarray:
    """|amps|^2 as a fresh float64 array, squared in place: bit-identical
    to np.abs(amps) ** 2 without its second temporary."""
    probs = np.abs(amps)
    return np.square(probs, out=probs)


def distribution_of(state: StateVector) -> Distribution:
    """|amplitude|^2 per outcome, its sum checked within the state's own tol
    (for a simulated state, GATE_ROUNDOFF per gate bounds that sum's drift)."""
    return Distribution(state.width, _squared_abs(state.amps), tol=state.tol)


def output_distribution(circuit: Circuit) -> Distribution:
    """Exact sampling distribution of the circuit: |amplitude|^2 per outcome."""
    return distribution_of(run(circuit))


def zero_overlap(circuit: Circuit) -> complex:
    """The amplitude <0...0|C|0...0> of returning to the all-zeros string."""
    return complex(run(circuit).amps[0])
