"""Dense statevector simulation.

Amplitudes live in a flat complex128 array of length 2**width; qubit q is
bit q of the array index (qubit 0 = least significant).  The kernel views
that array, without copying, with one length-2 axis per qubit (qubit q is
axis -1-q) and works on the two halves along the target axis in place,
doing only what the gate needs: I1 nothing, X and CNOT (where the control
is 1) a swap of the halves, S and T one product on the 1-half, and H the
full 2x2 update.  Any C-contiguous array whose last axis is the amplitude
index works, so a batch of states advances in one call.  Its one workspace,
half the array, is allocated once per run: a gate allocates nothing.

`run` moves no amplitude for X.  It keeps an index frame, an integer flip
with amplitude i stored at i ^ flip, and each gate meets the frame of the
X gates after it: |0...0> starts at the XOR of every X target and the
frame ends at 0, so nothing is left to undo.  The kernel pins each half by
its stored bit.  Every gate goes through _advance, one row at a time, and
_rows alone sizes the rows: 2**max(top qubit + 1, _BLOCK_BITS) amplitudes,
or the whole array if that is smaller.  Consecutive gates whose rows are
the same size share them, each row taking all of them before the next, so
a run of gates below qubit _BLOCK_BITS stays in cache.  Every amplitude
sees the same ufunc calls in the same order as gate by gate on the whole
state, so the bytes are the same.

No approximation anywhere: simulation is exact up to float round-off, and
widths are capped at WIDTH_CAP qubits rather than degraded.  StateVector
and Distribution keep the tol their norm or sum was checked within, and
compare and hash by identity (their arrays have no single truth value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .circuits import Circuit, Gate
from .errors import WIDTH_CAP, check_cap
from .tolerances import EXACT_TOL

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# log2 of the fewest amplitudes in a row (2**16, 1 MiB of complex128: it
# stays in cache), read by _rows alone.
_BLOCK_BITS = 16

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


def _freeze(obj, name: str, dtype, what: str) -> np.ndarray:
    """Copy obj.name in as a read-only 1-D array of dtype with 2**obj.width
    entries; set it back."""
    values = np.array(getattr(obj, name), dtype=dtype)
    d = 1 << obj.width
    if values.shape != (d,):
        raise ValueError(f"expected {d} {what} for width {obj.width}, got shape {values.shape}")
    values.setflags(write=False)
    object.__setattr__(obj, name, values)
    return values


def _check_unit(what: str, values, tol: float, total=np.sum) -> None:
    """Raise unless total(values), a norm, sum or trace, is 1 within tol,
    itself in [0, 1): a tol of 1 or more would admit a zero vector.  A total
    that overflows reads as inf, without a warning, and NaN is never within."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    with np.errstate(over="ignore"):
        value = float(total(values))
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
        amps = _freeze(self, "amps", np.complex128, "amplitudes")
        _check_unit("state norm", amps, self.tol, np.linalg.norm)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of |psi><psi|, ascending as eigvalsh returns them:
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
        probs = _freeze(self, "probs", np.float64, "probabilities")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        _check_unit("probability sum", probs, self.tol)


def _pinned(bits: np.ndarray, width: int, *pins: tuple[int, int]) -> np.ndarray:
    """Writable view of bits with each (qubit, value) pin fixed; qubit q is
    axis -1-q.  The Ellipsis keeps even a single amplitude a 0-d view."""
    index = [slice(None)] * width
    for qubit, value in pins:
        index[-1 - qubit] = value
    return bits[(..., *index)]


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, scratch: np.ndarray, flip: int = 0) -> None:
    """Apply one gate to amps (last axis = amplitude index, 2**width long),
    in place, with scratch (flat complex128, at least amps.size // 2) as its
    one workspace.  flip is run's X frame: amplitude i is stored at index
    i ^ flip, so each pin takes the stored value of its logical bit."""
    if not amps.flags.c_contiguous:
        # reshape would hand back a copy and the writes below would be lost.
        raise ValueError("the gate kernel needs a C-contiguous amplitude array")
    if gate.kind == "I1":
        return
    width = amps.shape[-1].bit_length() - 1
    bits = amps.reshape(amps.shape[:-1] + (2,) * width)
    *controls, target = gate.targets  # CNOT acts where its control is 1
    pins = [(control, 1 ^ flip >> control & 1) for control in controls]
    a = _pinned(bits, width, *pins, (target, flip >> target & 1))
    b = _pinned(bits, width, *pins, (target, 1 ^ flip >> target & 1))
    t = scratch[: a.size].reshape(a.shape)  # an array even when 0-d
    if gate.kind in ("X", "CNOT"):
        # A ufunc tests overlap exactly; a[...] = b would copy b first.
        np.copyto(t, a)
        np.positive(b, out=a)
        np.copyto(b, t)
        return
    u = GATE_MATRICES[gate.kind]
    if gate.kind == "H":
        # U[0,0] = U[1,0], so t = U[1,0]*a serves both rows of the 2x2 update, with the
        # same products and sums in the same order; real entries round alike in any loop.
        np.multiply(u[1, 0], a, out=t)
        np.add(t, np.multiply(u[0, 1], b, out=a), out=a)
        np.add(t, np.multiply(u[1, 1], b, out=b), out=b)
    else:  # S or T: diagonal, so the 0-half keeps its amplitudes.
        # Into t, as u[1, 1] * b would: b *= u[1, 1] on a strided view
        # takes numpy's FMA loop and rounds T's product differently.
        np.copyto(b, np.multiply(u[1, 1], b, out=t))


def check_width(width: int) -> None:
    """Refuse a width past WIDTH_CAP before anything is allocated or drawn."""
    check_cap("circuit width", width, WIDTH_CAP, "qubits", f"2**{width + 4}")


def _rows(amps: np.ndarray, bits: int) -> np.ndarray:
    """amps, a flat C-contiguous array, viewed as rows of
    2**max(bits, _BLOCK_BITS) amplitudes, or as one row if it is shorter."""
    return amps.reshape(-1, min(amps.size, 1 << max(bits, _BLOCK_BITS)))


def _advance(amps: np.ndarray, steps, scratch: np.ndarray) -> None:
    """Apply each (gate, frame) step to amps, a flat C-contiguous array, in
    place, on the rows _rows gives its top qubit: consecutive steps with
    rows of one size go row by row, each row taking all of them before the
    next, so a row stays in cache for the whole run."""
    for shape, group in groupby(steps, key=lambda step: _rows(amps, max(step[0].targets) + 1).shape):
        group = list(group)
        for row in amps.reshape(shape):
            for gate, frame in group:
                _apply_gate_inplace(row, gate, scratch, frame)


def run(circuit: Circuit) -> StateVector:
    """Simulate the circuit from |0...0> and return the final state, its
    norm checked within EXACT_TOL plus GATE_ROUNDOFF per gate."""
    check_width(circuit.width)
    w = circuit.width
    flip, steps = 0, []  # the X frame, and each other gate with the X frame after it
    for g in reversed(circuit.gates):
        if g.kind == "X":
            flip ^= 1 << g.targets[0]
        elif g.kind != "I1":
            steps.append((g, flip))
    amps = np.zeros(1 << w, dtype=np.complex128)
    amps[flip] = 1.0  # |0...0> in the frame of every X, so the frame ends at 0
    scratch = np.empty(amps.size // 2, dtype=np.complex128)  # the one workspace
    _advance(amps, reversed(steps), scratch)
    del scratch  # freed before StateVector copies the amplitudes in
    return StateVector(w, amps, tol=EXACT_TOL + GATE_ROUNDOFF * circuit.m)


def _squared_abs(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|amps|^2 as float64, in out or a fresh array, squared in place:
    bit-identical to np.abs(amps) ** 2 without its second temporary."""
    probs = np.abs(amps, out=out)
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
