"""Independent brute-force routes used to check the package's fast paths.

Everything here is deliberately written the slow, obvious way, sharing no
code with the package internals: full 2**n x 2**n unitaries assembled by
explicit Kronecker products, per-branch enumeration, plain-Python loops
over outcomes, a grid search over single-qubit measurements, dense
k-copy tensor powers measured with an explicit projector, and a checksum
that formats every float on its own.

The last section holds helpers that only the tests need, built on the
package's public types: a sampled branch of a randomized circuit, the
maximally mixed state, the dense density of a pure state, and
density-level depolarization.
"""

from __future__ import annotations

import hashlib
from functools import reduce

import numpy as np

from depolab import Circuit, DensityMatrix, Gate, StateVector, check_fidelity, check_seed
from depolab.tolerances import EXACT_TOL

_S2 = 2.0**-0.5
GATES_1Q = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "S": np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex),
    "T": np.array([[1.0, 0.0], [0.0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "I1": np.eye(2, dtype=complex),
}
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def embed(width: int, placed: dict[int, np.ndarray]) -> np.ndarray:
    """Kron together per-qubit 2x2 factors, identity where unspecified.

    Qubit 0 is the least significant index bit, so it sits rightmost in
    the Kronecker chain.
    """
    factors = [placed.get(q, np.eye(2, dtype=complex)) for q in range(width)]
    return reduce(np.kron, reversed(factors))


def gate_unitary(width: int, gate) -> np.ndarray:
    if gate.kind == "CNOT":
        control, target = gate.targets
        return embed(width, {control: _P0}) + embed(
            width, {control: _P1, target: GATES_1Q["X"]}
        )
    (qubit,) = gate.targets
    return embed(width, {qubit: GATES_1Q[gate.kind]})


def dense_unitary(circuit) -> np.ndarray:
    """The full circuit unitary, later gates multiplied on the left."""
    u = np.eye(1 << circuit.width, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(circuit.width, g) @ u
    return u


def brute_amplitudes(circuit) -> np.ndarray:
    return dense_unitary(circuit)[:, 0]


def brute_distribution(circuit) -> np.ndarray:
    return np.abs(brute_amplitudes(circuit)) ** 2


def brute_depolarize(probs, fidelity: float) -> list[float]:
    n = len(probs)
    return [fidelity * p + (1.0 - fidelity) / n for p in probs]


def brute_additive_l1(probs, fidelity: float) -> float:
    """sum_z |p'_z - 1/N| by plain-Python loop."""
    noisy = brute_depolarize(probs, fidelity)
    u = 1.0 / len(probs)
    return sum(abs(p - u) for p in noisy)


def brute_mult_worst(probs, fidelity: float) -> float:
    """max_z |p'_z - 1/N| / p'_z by plain-Python loop."""
    noisy = brute_depolarize(probs, fidelity)
    u = 1.0 / len(probs)
    return max(abs(p - u) / p for p in noisy)


def brute_mixture(rc) -> np.ndarray:
    """Mixture probabilities by independent per-branch dense simulation."""
    w, m = rc.main_width, rc.ancilla_width
    probs = np.zeros(1 << (w + m))
    for alpha in range(1 << m):
        u = np.eye(1 << w, dtype=complex)
        for j, (primary, alternate) in enumerate(rc.steps):
            chosen = alternate if (alpha >> j) & 1 else primary
            u = gate_unitary(w, chosen) @ u
        probs[alpha << w : (alpha + 1) << w] = np.abs(u[:, 0]) ** 2
    return probs / (1 << m)


def bloch_grid_best(rho0, rho1, n_theta: int = 20, n_phi: int = 40) -> float:
    """Best success probability over a grid of single-qubit projective
    measurements (both guess assignments tried for each).

    The whole grid is evaluated at once: pi0 holds one projector |v><v|
    per (theta, phi) point, pi1 = I - pi0 its complement.
    """
    theta = np.linspace(0.0, np.pi, n_theta)[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)[None, :]
    v = np.stack(
        np.broadcast_arrays(np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)), axis=-1
    )
    pi0 = v[..., :, None] * v[..., None, :].conj()
    pi1 = np.eye(2, dtype=complex) - pi0

    def trace_of_product(pi, rho):
        return np.einsum("...ij,ji->...", pi, rho).real

    one_way = 0.5 * (trace_of_product(pi0, rho0) + trace_of_product(pi1, rho1))
    other = 0.5 * (trace_of_product(pi1, rho0) + trace_of_product(pi0, rho1))
    return float(max(one_way.max(), other.max(), 0.0))


def brute_trace_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def trace_norm_diff(rho, sigma) -> float:
    """|| rho - sigma ||_1 of two DensityMatrix objects of one width."""
    if rho.width != sigma.width:
        raise ValueError(f"width mismatch: {rho.width} vs {sigma.width}")
    return brute_trace_norm(rho.mat, sigma.mat)


def brute_helstrom(rho0, rho1, k: int) -> tuple[float, float]:
    """k-copy discrimination of two density matrices on the dense tensor
    powers: (1/2 + (1/4) * || rho1^(x)k - rho0^(x)k ||_1 from a full eigh,
    success of measuring with the projector onto its positive eigenspace).

    Costs a (d**k x d**k) eigh, so keep k * width <= 8.
    """
    big0 = reduce(np.kron, [rho0] * k)
    big1 = reduce(np.kron, [rho1] * k)
    eigvals, eigvecs = np.linalg.eigh(big1 - big0)
    p_correct = 0.5 + 0.25 * float(np.abs(eigvals).sum())
    positive = eigvecs[:, eigvals > 0]
    projector = positive @ positive.conj().T
    hit1 = float(np.trace(projector @ big1).real)
    hit0 = 1.0 - float(np.trace(projector @ big0).real)
    return p_correct, 0.5 * (hit1 + hit0)


def loop_outcome_string(index: int, width: int) -> str:
    """Outcome bitstring one bit at a time, qubit 0 leftmost."""
    return "".join(str((index >> q) & 1) for q in range(width))


def brute_checksum(probs) -> str:
    """sha256 of every probability's .17g text, joined by commas."""
    payload = ",".join(format(p, ".17g") for p in probs)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# Test-only helpers on the package's types.


def sample_branch(rc, seed: int) -> tuple[tuple[int, ...], Circuit]:
    """Draw one branch of a RandomizedCircuit: fair coin per step, keyed
    Philox stream.

    Returns (branch bits, realized circuit).  The realized circuit acts on
    the full register: each step contributes its chosen main-register gate,
    plus an X on ancilla j when the coin came up tails.
    """
    check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=rc.ancilla_width))
    gates = []
    for j, ((primary, alternate), bit) in enumerate(zip(rc.steps, bits)):
        if bit:
            gates.append(alternate)
            gates.append(Gate("X", (rc.main_width + j,)))
        else:
            gates.append(primary)
    return bits, Circuit(rc.total_width, tuple(gates))


def maximally_mixed(width: int) -> DensityMatrix:
    """I / 2**width."""
    d = 1 << width
    return DensityMatrix(width, np.eye(d) / d)


def pure_density(state: StateVector) -> DensityMatrix:
    """Rank-one density |psi><psi| of a statevector.  Its trace is the
    squared norm, so it is checked within EXACT_TOL plus the state's own
    measured drift of that norm (a simulated state may carry round-off)."""
    drift = abs(float(np.linalg.norm(state.amps)) ** 2 - 1.0)
    mat = np.outer(state.amps, state.amps.conj())
    return DensityMatrix(state.width, mat, tol=EXACT_TOL + drift)


def depolarize_density(rho: DensityMatrix, fidelity: float) -> DensityMatrix:
    """F * rho + (1 - F) * I/2**n, the density-level depolarization."""
    f = check_fidelity(fidelity)
    d = 1 << rho.width
    return DensityMatrix(rho.width, f * rho.mat + (1.0 - f) * np.eye(d) / d)
