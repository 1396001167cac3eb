"""Independent brute-force routes used to check the package's fast paths.

Everything here is deliberately written the slow, obvious way, sharing no
code with the package internals: full 2**n x 2**n unitaries assembled by
explicit Kronecker products, per-branch enumeration, plain-Python loops
over outcomes, a grid search over single-qubit measurements, dense
k-copy tensor powers measured with an explicit projector, the generic
2x2 gate kernel the package's kind-specialised one must match bit for
bit, that kernel as it was when it allocated its own buffers per gate,
run's loop with it gate by gate on the whole state, a checksum that packs every float on its own, inverse-CDF sampling
that looks up each draw in the order it was drawn, and a tally's total
variation summed one outcome at a time.

The last section holds helpers that only the tests need, built on the
package's public types: a sampled branch of a randomized circuit and the
circuit it runs, the DensityMatrix of a dense matrix (its Hermiticity
checked here), the dense seeded random density, the maximally mixed
state, the dense density of a pure state, density-level depolarization,
and the depolarize report's results drawn fidelity by fidelity.
"""

from __future__ import annotations

import hashlib
import struct
from functools import reduce

import numpy as np

from depolab import (
    Circuit,
    DensityMatrix,
    Gate,
    StateVector,
    check_fidelity,
    check_seed,
    depolarize,
    outcome_string,
    output_distribution,
    sorted_draws,
    tally,
)
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


def trace_norm_diff(rho: np.ndarray, sigma: np.ndarray) -> float:
    """|| rho - sigma ||_1 of two dense density matrices of one width."""
    if rho.shape != sigma.shape:
        raise ValueError(f"width mismatch: {rho.shape} vs {sigma.shape}")
    return brute_trace_norm(rho, sigma)


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


# The package's gate kernel before it specialised by kind: every one-qubit
# gate, I1 included, as the full 2x2 update over the two halves, with the
# kernel's own matrix entries (1/sqrt(2), not 2**-0.5, for H).
_KERNEL_SQRT_HALF = 1.0 / np.sqrt(2.0)
KERNEL_MATRICES = {
    "H": np.array(
        [[_KERNEL_SQRT_HALF, _KERNEL_SQRT_HALF], [_KERNEL_SQRT_HALF, -_KERNEL_SQRT_HALF]],
        dtype=complex,
    ),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "I1": np.eye(2, dtype=complex),
}


def _kernel_pinned(bits: np.ndarray, width: int, *pins: tuple[int, int]) -> np.ndarray:
    index = [slice(None)] * width
    for qubit, value in pins:
        index[-1 - qubit] = value
    return bits[(..., *index)]


def matrix_kernel(amps: np.ndarray, gate, width: int) -> None:
    """Apply one gate to amps (last axis = amplitude index), in place, by
    the generic 2x2 update (CNOT: swap the halves where the control is 1)."""
    if not amps.flags.c_contiguous:
        # reshape would hand back a copy and the writes below would be lost.
        raise ValueError("the gate kernel needs a C-contiguous amplitude array")
    bits = amps.reshape(amps.shape[:-1] + (2,) * width)
    if gate.kind == "CNOT":
        control, target = gate.targets
        a = _kernel_pinned(bits, width, (control, 1), (target, 0))
        b = _kernel_pinned(bits, width, (control, 1), (target, 1))
        a_old = a.copy()
        a[...] = b
        b[...] = a_old
        return
    u = KERNEL_MATRICES[gate.kind]
    (qubit,) = gate.targets
    a = _kernel_pinned(bits, width, (qubit, 0))
    b = _kernel_pinned(bits, width, (qubit, 1))
    a_new = u[0, 0] * a + u[0, 1] * b
    b[...] = u[1, 0] * a + u[1, 1] * b
    a[...] = a_new


def allocating_kernel(amps: np.ndarray, gate, width: int) -> None:
    """The kind-specialised kernel as it was before it took a workspace:
    fresh half-sized buffers per gate (a_old for X and CNOT, p and q for H,
    a temporary for S and T).  The workspace kernel must match its bytes,
    signed zeros included."""
    if gate.kind == "I1":
        return
    bits = amps.reshape(amps.shape[:-1] + (2,) * width)
    *controls, target = gate.targets
    pins = [(control, 1) for control in controls]
    a = _kernel_pinned(bits, width, *pins, (target, 0))
    b = _kernel_pinned(bits, width, *pins, (target, 1))
    if gate.kind in ("X", "CNOT"):
        a_old = a.copy()
        a[...] = b
        b[...] = a_old
        return
    u = KERNEL_MATRICES[gate.kind]
    if gate.kind == "H":
        p, q = np.empty_like(a), np.empty_like(b)
        np.multiply(u[0, 0], a, out=p)
        np.multiply(u[0, 1], b, out=q)
        p += q
        np.multiply(u[1, 0], a, out=q)
        a[...] = p
        np.multiply(u[1, 1], b, out=p)
        np.add(q, p, out=b)
    else:
        b[...] = u[1, 1] * b


def gate_by_gate_run(circuit) -> np.ndarray:
    """run's amplitudes as its loop made them before X frames and blocked
    runs: every gate on the whole state in circuit order, X a physical swap
    of the halves, each through allocating_kernel."""
    amps = np.zeros(1 << circuit.width, dtype=np.complex128)
    amps[0] = 1.0
    for g in circuit.gates:
        allocating_kernel(amps, g, circuit.width)
    return amps


def loop_outcome_string(index: int, width: int) -> str:
    """Outcome bitstring one bit at a time, qubit 0 leftmost."""
    return "".join(str((index >> q) & 1) for q in range(width))


def brute_checksum(probs) -> str:
    """sha256 of every probability packed by struct as a little-endian double."""
    return hashlib.sha256(struct.pack(f"<{len(probs)}d", *probs)).hexdigest()


def draw_order_sample(dist, seed: int, count: int) -> dict[int, int]:
    """Tally of `count` inverse-CDF draws from the keyed Philox stream, each
    looked up in the order it was drawn.  A draw at or above cdf[-1] (the
    sum can round below 1) goes to the last outcome that has probability."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cdf = np.cumsum(dist.probs)
    drawn = np.searchsorted(cdf, rng.random(count), side="right")
    drawn = np.minimum(drawn, np.flatnonzero(dist.probs)[-1])
    tallies = np.bincount(drawn, minlength=1 << dist.width)
    outcomes = np.flatnonzero(tallies)
    return dict(zip(outcomes.tolist(), tallies[outcomes].tolist()))


def loop_empirical_tv(counts: dict[int, int], dist) -> float:
    """Total variation between a tally's frequencies and dist, each
    frequency the Python quotient c / total, refusing the first bad item."""
    total = sum(counts.values())
    if total < 1:
        raise ValueError("counts must contain at least one draw")
    size = 1 << dist.width
    freq = np.zeros(size)
    for z, c in counts.items():
        if not 0 <= z < size:
            raise ValueError(f"outcome {z} out of range for width {dist.width}")
        if c < 0:
            raise ValueError(f"negative tally for outcome {z}")
        freq[z] = c / total
    return 0.5 * float(np.abs(freq - dist.probs).sum())


# Test-only helpers on the package's types.


def branch_bits(rc, seed: int) -> tuple[int, ...]:
    """Draw one branch of a RandomizedCircuit: a fair coin per step from a
    keyed Philox stream, 1 for tails."""
    check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return tuple(int(b) for b in rng.integers(0, 2, size=rc.ancilla_width))


def realized_circuit(rc, bits: tuple[int, ...]) -> Circuit:
    """The circuit branch `bits` runs on the full register: each step
    contributes its chosen main-register gate, plus an X on ancilla j when
    the coin came up tails."""
    gates = []
    for j, ((primary, alternate), bit) in enumerate(zip(rc.steps, bits)):
        if bit:
            gates.append(alternate)
            gates.append(Gate("X", (rc.main_width + j,)))
        else:
            gates.append(primary)
    return Circuit(rc.total_width, gates)


def density(mat, tol: float = EXACT_TOL) -> DensityMatrix:
    """The DensityMatrix of a dense 2**n x 2**n density matrix: Hermitian
    within EXACT_TOL, checked here, then its eigvalsh spectrum, whose sum
    (the trace) the package checks within tol."""
    mat = np.asarray(mat, dtype=np.complex128)
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=EXACT_TOL):
        raise ValueError("matrix is not Hermitian")
    return DensityMatrix(len(mat).bit_length() - 1, np.linalg.eigvalsh(mat), tol=tol)


def random_density(width: int, seed: int, rank: int | None = None) -> np.ndarray:
    """The dense G G^dag / tr whose spectrum random_density_matrix keeps,
    drawn the same way: a Philox-keyed complex Gaussian G, 2**width x rank
    (full rank by default), then symmetrized in place, which leaves the
    matrix exactly Hermitian."""
    check_seed(seed)
    d = 1 << width
    r = d if rank is None else rank
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    mat += mat.conj().T
    mat *= 0.5
    return mat


def maximally_mixed(width: int) -> np.ndarray:
    """I / 2**width, dense."""
    d = 1 << width
    return np.eye(d) / d


def pure_density(state: StateVector) -> np.ndarray:
    """Rank-one dense density |psi><psi| of a statevector; its trace is the
    squared norm, so it carries a simulated state's round-off drift."""
    return np.outer(state.amps, state.amps.conj())


def depolarize_density(rho: np.ndarray, fidelity: float) -> np.ndarray:
    """F * rho + (1 - F) * I/2**n, the density-level depolarization, dense."""
    f = check_fidelity(fidelity)
    d = rho.shape[0]
    return f * rho + (1.0 - f) * np.eye(d) / d


def per_fidelity_depolarize(config, circuit) -> dict:
    """The depolarize results with fresh sorted_draws of config.seed per
    fidelity, an outcome_string per tallied outcome and loop_empirical_tv."""
    ideal = output_distribution(circuit)
    entries = []
    for f in config.fidelity_grid:
        noisy = depolarize(ideal, f)
        outcomes, counts = tally(noisy, sorted_draws(config.seed, config.samples))
        counted = dict(zip(outcomes.tolist(), counts.tolist()))
        entries.append(
            {
                "fidelity": f,
                "probabilities": noisy.probs,
                "tally": {outcome_string(z, noisy.width): c for z, c in counted.items()},
                "empirical_tv": loop_empirical_tv(counted, noisy),
            }
        )
    return {"width": circuit.width, "per_fidelity": entries}
