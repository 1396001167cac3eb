import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from depolab import (
    CapExceeded,
    Circuit,
    DensityMatrix,
    Distribution,
    Gate,
    StateVector,
    WIDTH_CAP,
    output_distribution,
    parse_circuit,
    random_circuit,
    run,
    serialize_circuit,
    zero_overlap,
)
import depolab.statevector
from depolab.statevector import GATE_ROUNDOFF, _apply_gate_inplace
from depolab.tolerances import EXACT_TOL
from oracles import (
    allocating_kernel,
    brute_amplitudes,
    brute_distribution,
    dense_unitary,
    gate_by_gate_run,
    matrix_kernel,
    pure_density,
)
from strategies import ONE_QUBIT_KINDS, circuits, seeds

ROOT = Path(__file__).resolve().parents[1]
S2 = 2.0**-0.5
# numpy's strided ufunc loops buffer each operand in a fixed-size block
# (np.getbufsize() items), whatever the array's size.
LOOP_BUFFERS = 2 * np.getbufsize() * 16


def workspace(amps: np.ndarray) -> np.ndarray:
    return np.empty(amps.size // 2, dtype=np.complex128)


def plus_state():
    return StateVector(1, np.array([S2, S2]))


class TestApplyGate:
    def test_hadamard(self):
        assert np.allclose(run(parse_circuit("qubits 1\nH 0\n")).amps, [S2, S2], atol=1e-12)

    def test_x_flips(self):
        assert np.allclose(run(parse_circuit("qubits 1\nX 0\n")).amps, [0, 1], atol=1e-12)

    def test_s_phase_on_plus(self):
        out = run(parse_circuit("qubits 1\nH 0\nS 0\n"))
        assert np.allclose(out.amps, [S2, 1j * S2], atol=1e-12)

    def test_t_eighth_power_is_identity(self):
        out = run(parse_circuit("qubits 1\nH 0\n" + "T 0\n" * 8))
        assert np.allclose(out.amps, plus_state().amps, atol=1e-12)

    def test_identity_gate_does_nothing(self):
        out = run(parse_circuit("qubits 1\nH 0\nI1 0\n"))
        assert np.allclose(out.amps, plus_state().amps)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            run(Circuit(1, (Gate("X", (3,)),)))

    def test_kernel_refuses_non_contiguous(self):
        # A strided array would be reshaped into a copy, losing the writes.
        amps = np.zeros((2, 4), dtype=np.complex128)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            _apply_gate_inplace(amps, Gate("H", (0,)), workspace(amps))

    def test_identity_still_refuses_non_contiguous(self):
        # I1 does no work, but a strided array is refused before that.
        amps = np.zeros((2, 4), dtype=np.complex128)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            _apply_gate_inplace(amps, Gate("I1", (0,)), workspace(amps))

    @pytest.mark.parametrize(
        "gate",
        [Gate("H", (3,)), Gate("X", (3,)), Gate("CNOT", (0, 3)), Gate("T", (3,)),
         Gate("H", (0,)), Gate("CNOT", (11, 0)), Gate("S", (0,))],
    )
    def test_workspace_is_the_only_batch_sized_memory(self, gate):
        # Given its workspace, the kernel allocates nothing that grows with
        # the batch: a 4x larger batch peaks the same, within numpy's fixed
        # loop buffers (a[...] = b between the halves would copy b).
        peaks = []
        for rows in (64, 256):
            amps = np.zeros((rows, 1 << 12), dtype=np.complex128)
            scratch = workspace(amps)
            tracemalloc.start()
            try:
                _apply_gate_inplace(amps, gate, scratch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4096
        assert max(peaks) <= LOOP_BUFFERS + 16384

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=30)
    def test_batch_rows_advance_independently(self, circuit):
        # Row i starts at basis state i; each row must end as U|i>.
        d = 1 << circuit.width
        batch = np.eye(d, dtype=np.complex128)
        scratch = workspace(batch)
        for g in circuit.gates:
            _apply_gate_inplace(batch, g, scratch)
        assert np.allclose(batch.T, dense_unitary(circuit), atol=1e-10)


def assert_same_bits(fast: np.ndarray, slow: np.ndarray) -> None:
    # Equal amplitudes (an exact zero may carry either sign) and
    # byte-identical probabilities.
    assert np.array_equal(fast, slow)
    assert (np.abs(fast) ** 2).tobytes() == (np.abs(slow) ** 2).tobytes()


class TestKernelMatchesMatrixKernel:
    """The kind-specialised kernel against the generic 2x2 update it
    replaced: I1 skipped, X a swap, S and T a product on one half."""

    @given(circuits(max_width=8, max_gates=60), st.booleans(), seeds)
    @settings(max_examples=150)
    def test_single_vector(self, circuit, from_zero, seed):
        # From |0...0> (exact zeros, the simulate path) or a dense random
        # state (every amplitude nonzero, so every product is exercised).
        d = 1 << circuit.width
        if from_zero:
            start = np.zeros(d, dtype=np.complex128)
            start[0] = 1.0
        else:
            rng = np.random.Generator(np.random.Philox(key=seed))
            start = rng.normal(size=d) + 1j * rng.normal(size=d)
        fast, slow = start.copy(), start.copy()
        scratch = workspace(fast)
        for g in circuit.gates:
            _apply_gate_inplace(fast, g, scratch)
            matrix_kernel(slow, g, circuit.width)
        assert_same_bits(fast, slow)

    @given(circuits(max_width=5, max_gates=30))
    @settings(max_examples=60)
    def test_batch(self, circuit):
        # Rows of the identity, as mixture_distribution advances its branches.
        fast = np.eye(1 << circuit.width, dtype=np.complex128)
        slow = fast.copy()
        scratch = workspace(fast)
        for g in circuit.gates:
            _apply_gate_inplace(fast, g, scratch)
            matrix_kernel(slow, g, circuit.width)
        assert_same_bits(fast, slow)


class TestKernelMatchesAllocatingKernel:
    """The workspace kernel against the allocating kernel it replaced, byte
    for byte: simulate reports zero_amplitude with its sign, so amplitudes
    that compare equal but differ in a zero's sign are a regression.  Under
    run's X frame, with amplitude i stored at i ^ flip, the kernel's flip
    argument must give the same bytes on the stored array."""

    @given(
        circuits(max_width=10, max_gates=40),
        st.sampled_from(["zero", "dense", "signed-zero"]),
        st.sampled_from([(), (1,), (3,)]),
        st.one_of(st.just(0), st.integers(0, 2**10 - 1)),
        seeds,
    )
    @settings(max_examples=200)
    def test_same_bytes(self, circuit, start, batch, flip, seed):
        shape = batch + (1 << circuit.width,)
        rng = np.random.Generator(np.random.Philox(key=seed))
        if start == "zero":  # the simulate path: exact zeros everywhere but one
            amps = np.zeros(shape, dtype=np.complex128)
            amps[..., 0] = 1.0
        else:
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if start == "signed-zero":  # a third of the parts +0, a third -0
            parts = amps.view(np.float64)
            pick = rng.integers(3, size=parts.shape)
            parts[pick == 1], parts[pick == 2] = 0.0, -0.0
        flip %= 1 << circuit.width
        stored_at = np.arange(1 << circuit.width) ^ flip
        fast, slow = np.ascontiguousarray(amps[..., stored_at]), amps.copy()
        scratch = workspace(fast)
        for g in circuit.gates:
            _apply_gate_inplace(fast, g, scratch, flip)
            allocating_kernel(slow, g, circuit.width)
        assert fast[..., stored_at].tobytes() == slow.tobytes()


EDGE = 3  # log2 of the block size the edge tests run at
X_HEAVY = ("X", "X", "X", "H", "S", "T", "I1", "CNOT")


@st.composite
def edge_circuits(draw):
    """Circuits that cross a block edge at qubit EDGE: X-heavy, with a CNOT
    from above the edge to below it, an I1 above it, and X on one qubit
    below and one above so the frame ends odd on both sides."""
    circuit = draw(circuits(min_width=EDGE + 1, max_width=8, max_gates=30, kinds=X_HEAVY))
    w, gates = circuit.width, list(circuit.gates)
    low, high = draw(st.integers(0, EDGE - 1)), draw(st.integers(EDGE, w - 1))
    for gate in (Gate("CNOT", (high, low)), Gate("I1", (high,))):
        gates.insert(draw(st.integers(0, len(gates))), gate)
    for q in (low, high):
        if sum(g.kind == "X" and g.targets == (q,) for g in gates) % 2 == 0:
            gates.append(Gate("X", (q,)))
    return Circuit(w, tuple(gates))


def recorded_run(circuit, monkeypatch) -> tuple[np.ndarray, set]:
    """run(circuit)'s amplitudes, and each (gate, frame) it hands the kernel."""
    real = depolab.statevector._apply_gate_inplace
    calls = set()

    def recording(amps, gate, scratch, flip):
        calls.add((gate, flip))
        real(amps, gate, scratch, flip)

    monkeypatch.setattr(depolab.statevector, "_apply_gate_inplace", recording)
    return run(circuit).amps, calls


def frames_after(circuit) -> set:
    """Each gate but X and I1 with the XOR of the X targets after it: the
    frame that ends at 0, so nothing is undone and no X reaches the kernel."""
    steps, flip = set(), 0
    for g in reversed(circuit.gates):
        if g.kind == "X":
            flip ^= 1 << g.targets[0]
        elif g.kind != "I1":
            steps.add((g, flip))
    return steps


class TestRunMatchesGateByGate:
    """run, with its X frame and its blocked gate runs, against every gate
    on the whole state in circuit order, byte for byte."""

    @given(
        st.one_of(
            circuits(max_width=8, max_gates=40),
            circuits(max_width=8, max_gates=40, kinds=X_HEAVY),
            edge_circuits(),
        )
    )
    @settings(max_examples=300)
    def test_same_bytes_across_the_block_edge(self, circuit):
        # Blocks of 2**EDGE amplitudes, so widths past EDGE go block by block.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(depolab.statevector, "_BLOCK_BITS", EDGE)
            assert run(circuit).amps.tobytes() == gate_by_gate_run(circuit).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "qubits 5\nX 4\nX 1\nCNOT 4 0\nH 0\nT 0\nI1 4\nS 1\nX 0\nH 4\n",  # odd frame both sides
            "qubits 6\nH 5\nCNOT 5 1\nX 5\nH 1\nT 1\nCNOT 5 2\nX 2\nX 2\nH 2\n",  # control above
            "qubits 4\n" + "X 0\nX 1\nX 2\nX 3\n" * 3,  # X alone: only the frame moves
        ],
        ids=["odd-frame", "cnot-down", "x-only"],
    )
    def test_pinned_edge_cases(self, monkeypatch, text):
        circuit = parse_circuit(text)
        monkeypatch.setattr(depolab.statevector, "_BLOCK_BITS", EDGE)
        amps, calls = recorded_run(circuit, monkeypatch)
        assert amps.tobytes() == gate_by_gate_run(circuit).tobytes()
        assert calls == frames_after(circuit)

    def test_x_heavy_frames_at_w18(self, monkeypatch):
        # An X after every gate of a random circuit, at the real block size.
        rng = np.random.Generator(np.random.Philox(key=28))
        gates = []
        for g in random_circuit(18, 200, rng).gates:
            gates += [g, Gate("X", (int(rng.integers(18)),))]
        circuit = Circuit(18, tuple(gates))
        assert recorded_run(circuit, monkeypatch)[1] == frames_after(circuit)

    def test_real_block_size_at_w18(self):
        # Two qubits above the 2**16-amplitude blocks, every gate kind.
        circuit = random_circuit(18, 400, np.random.Generator(np.random.Philox(key=18)))
        assert {g.kind for g in circuit.gates} == set(ONE_QUBIT_KINDS) | {"CNOT"}
        assert max(max(g.targets) for g in circuit.gates) >= 16
        assert run(circuit).amps.tobytes() == gate_by_gate_run(circuit).tobytes()

    def test_real_block_size_frame_undo_at_w18(self):
        # The X gates flip qubits 2 and 9, inside a block, and 16 and 17,
        # above it, an odd number of times: |0...0> starts off index 0 on
        # both sides of the block edge, and the frame the early gates meet
        # has bits in a block and above it, at the real block size.
        gates = random_circuit(18, 200, np.random.Generator(np.random.Philox(key=27))).gates
        odd = {q for q in range(18) if sum(g == Gate("X", (q,)) for g in gates) % 2}
        toggle = odd ^ {2, 9, 16, 17}
        circuit = Circuit(18, gates + tuple(Gate("X", (q,)) for q in sorted(toggle)))
        assert run(circuit).amps.tobytes() == gate_by_gate_run(circuit).tobytes()


# One T-free circuit through run and distribution_of, in a child whose
# numpy may be held to a lower dispatch level; prints the features it ran
# with and a hash of both arrays.
DISPATCH_CHILD = """
import hashlib, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from depolab import parse_circuit, run
from depolab.statevector import distribution_of
state = run(parse_circuit(sys.stdin.read()))
digest = hashlib.sha256(state.amps.tobytes() + distribution_of(state).probs.tobytes())
print(json.dumps({"features": __cpu_features__, "sha256": digest.hexdigest()}))
"""


class TestRowRule:
    def test_rows_follow_the_top_qubit(self, monkeypatch):
        # Low gates share 2**16-amplitude rows, each row taking the whole
        # run before the next; a gate with top qubit q >= 16 goes in rows
        # of 2**(q+1), not on the whole state.
        low = [Gate("H", (3,)), Gate("T", (9,)), Gate("S", (3,))]
        high = [Gate("H", (17,)), Gate("CNOT", (18, 2))]
        circuit = Circuit(20, tuple(low + high + [Gate("H", (0,))]))
        real = depolab.statevector._apply_gate_inplace
        calls = []

        def recording(amps, gate, *rest):
            calls.append((gate, amps.size, amps.ctypes.data))
            real(amps, gate, *rest)

        monkeypatch.setattr(depolab.statevector, "_apply_gate_inplace", recording)
        amps = run(circuit).amps
        assert amps.tobytes() == gate_by_gate_run(circuit).tobytes()
        base = min(data for _, _, data in calls)
        expected = [(g, 1 << 16, r << 16) for r in range(16) for g in low]
        expected += [(high[0], 1 << 18, r << 18) for r in range(4)]
        expected += [(high[1], 1 << 19, r << 19) for r in range(2)]
        expected += [(Gate("H", (0,)), 1 << 16, r << 16) for r in range(16)]
        assert [(g, size, (data - base) // 16) for g, size, data in calls] == expected


def dispatch_run(text: str, disabled: str | None) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", DISPATCH_CHILD], input=text, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestDispatchLevel:
    @pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
    def test_t_free_bytes_do_not_depend_on_it(self, disabled):
        # X-heavy with CNOTs and no T: T's product rounds differently once
        # X86_V3 is off, which is ROADMAP item 1, so it stays out of here.
        rng = np.random.Generator(np.random.Philox(key=16))
        kinds = ("X", "X", "X", "H", "S", "I1", "CNOT")
        gates = []
        for kind in (kinds[i] for i in rng.integers(len(kinds), size=400)):
            qubits = rng.choice(16, 2 if kind == "CNOT" else 1, replace=False)
            gates.append(Gate(kind, tuple(int(q) for q in qubits)))
        text = serialize_circuit(Circuit(16, tuple(gates)))
        lowered = dispatch_run(text, disabled)
        features = lowered["features"]
        if any(features.get(name, True) for name in disabled.split()):
            pytest.skip(f"NPY_DISABLE_CPU_FEATURES={disabled!r} did not take effect")
        assert dispatch_run(text, None)["sha256"] == lowered["sha256"]


class TestRun:
    def test_bell(self, bell_circuit):
        state = run(bell_circuit)
        assert np.allclose(state.amps, [S2, 0, 0, S2], atol=1e-12)

    def test_double_x_returns_home(self):
        c = parse_circuit("qubits 1\nX 0\nX 0\n")
        assert np.allclose(run(c).amps, [1, 0], atol=1e-12)

    def test_empty_circuit(self):
        state = run(Circuit(2, ()))
        assert np.allclose(state.amps, [1, 0, 0, 0])

    def test_cnot_direction(self):
        # control 1 is |0>, so nothing happens
        c = parse_circuit("qubits 2\nCNOT 1 0\n")
        assert np.allclose(run(c).amps, [1, 0, 0, 0], atol=1e-12)

    def test_invalid_circuit_rejected(self):
        with pytest.raises(ValueError, match="invalid circuit"):
            run(Circuit(1, (Gate("X", (2,)),)))

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_unitarity(self, circuit):
        state = run(circuit)
        assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, circuit):
        assert np.allclose(run(circuit).amps, brute_amplitudes(circuit), atol=1e-10)


class TestOutputDistribution:
    def test_plus(self, plus_circuit):
        assert np.allclose(output_distribution(plus_circuit).probs, [0.5, 0.5], atol=1e-12)

    def test_empty_width_two(self):
        assert np.allclose(output_distribution(Circuit(2, ())).probs, [1, 0, 0, 0])

    def test_bell(self, bell_circuit):
        assert np.allclose(output_distribution(bell_circuit).probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_ghz(self, ghz_circuit):
        probs = output_distribution(ghz_circuit).probs
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[7] == pytest.approx(0.5, abs=1e-12)
        assert probs[1:7] == pytest.approx(np.zeros(6), abs=1e-12)

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_matches_dense_oracle(self, circuit):
        dist = output_distribution(circuit)
        assert np.allclose(dist.probs, brute_distribution(circuit), atol=1e-10)

    @given(circuits(max_width=5, max_gates=12))
    @settings(max_examples=60)
    def test_zero_entry_is_squared_overlap(self, circuit):
        dist = output_distribution(circuit)
        assert abs(dist.probs[0] - abs(zero_overlap(circuit)) ** 2) <= 1e-12


class TestZeroOverlap:
    def test_hadamard(self, plus_circuit):
        assert zero_overlap(plus_circuit) == pytest.approx(S2, abs=1e-12)

    def test_x(self):
        assert zero_overlap(parse_circuit("qubits 1\nX 0\n")) == pytest.approx(0, abs=1e-12)

    def test_t_leaves_zero_alone(self):
        assert zero_overlap(parse_circuit("qubits 1\nT 0\n")) == pytest.approx(1, abs=1e-12)


class TestWidthCap:
    def test_default(self):
        assert WIDTH_CAP == 24
        with pytest.raises(CapExceeded, match=r"^circuit width 25 exceeds the cap of 24 qubits; "
                                               r"it needs 2\*\*29 bytes$"):
            run(Circuit(25, ()))


def run_peaks(circuit, monkeypatch) -> tuple[int, int]:
    """tracemalloc peaks of run(circuit): when StateVector is built, so at
    the end of the gate loop, and overall."""
    real = depolab.statevector.StateVector
    loop_peaks = []

    def built(*args, **kwargs):
        loop_peaks.append(tracemalloc.get_traced_memory()[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(depolab.statevector, "StateVector", built)
    tracemalloc.start()
    try:
        run(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loop_peaks[0], peak


class TestRunMemory:
    def test_state_plus_half_a_state(self, monkeypatch):
        # The gate loop holds the state, its half-state workspace and
        # numpy's loop buffers; the workspace is freed before StateVector
        # copies the amplitudes in, so the whole run peaks at two states.
        # 64 KiB covers the Python objects on the way.
        w = 16
        state = 16 << w
        circuit = random_circuit(w, 100, np.random.Generator(np.random.Philox(key=w)))
        loop_peak, peak = run_peaks(circuit, monkeypatch)
        assert loop_peak <= 1.5 * state + LOOP_BUFFERS + 65536
        assert peak <= 2.0 * state + 65536

    def test_blocked_runs_and_the_frame_add_nothing(self, monkeypatch):
        # The same bounds with 2**12-amplitude blocks, and X gates left odd
        # on qubits 3 and 14 and even on 15, so the frame starts with a bit
        # inside a block and one above it, and |0...0> starts off index 0.
        w = 16
        state = 16 << w
        gates = random_circuit(w, 100, np.random.Generator(np.random.Philox(key=w))).gates
        odd = {q for q in range(w) if sum(g == Gate("X", (q,)) for g in gates) % 2}
        toggle = (odd ^ {3, 14}) & {3, 14, 15}
        circuit = Circuit(w, gates + tuple(Gate("X", (q,)) for q in sorted(toggle)))
        monkeypatch.setattr(depolab.statevector, "_BLOCK_BITS", 12)
        loop_peak, peak = run_peaks(circuit, monkeypatch)
        assert loop_peak <= 1.5 * state + LOOP_BUFFERS + 65536
        assert peak <= 2.0 * state + 65536


class TestTypes:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_direct_state_keeps_exact_tol(self):
        # Only run/output_distribution widen the check, by their gate count.
        with pytest.raises(ValueError, match="within 1e-12"):
            StateVector(1, np.array([1.0 - 2e-12, 0.0]))

    def test_state_shape_enforced(self):
        with pytest.raises(ValueError, match="expected 4"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_state_is_read_only(self):
        state = plus_state()
        with pytest.raises(ValueError):
            state.amps[0] = 9.0

    def test_distribution_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Distribution(1, np.array([1.5, -0.5]))

    def test_distribution_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(1, np.array([0.6, 0.6]))

    def test_distribution_is_read_only(self):
        dist = Distribution(1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7

    def test_input_array_is_copied(self):
        probs = np.array([0.5, 0.5])
        dist = Distribution(1, probs)
        probs[0] = 0.7
        assert dist.probs[0] == 0.5

    @pytest.mark.parametrize(
        "cls, values",
        [
            (StateVector, [1.0 + 3e-12, 0.0]),
            (Distribution, [0.5 + 3e-12, 0.5]),
            (DensityMatrix, [0.5 + 3e-12, 0.5]),
        ],
    )
    def test_tol_widens_the_unit_check(self, cls, values):
        values = np.array(values)
        with pytest.raises(ValueError, match="within 1e-12"):
            cls(1, values)
        widened = cls(1, values, tol=1e-11)
        assert widened.tol == 1e-11
        assert cls(1, values, tol=1e-10).tol == 1e-10
        assert cls(1, [1.0, 0.0]).tol == EXACT_TOL
        assert "tol" not in repr(widened)  # repr=False
        with pytest.raises(TypeError):
            cls(1, values, 1e-11)  # tol is keyword-only

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: StateVector(1, [np.nan, 0.0]), "not 1 within"),
            (lambda: Distribution(1, [np.nan, np.nan]), "not 1 within"),
            (lambda: StateVector(1, [0.0, 0.0], tol=1.0), "tol must lie in"),
            (lambda: Distribution(1, [0.0, 0.0], tol=1.0), "tol must lie in"),
            (lambda: DensityMatrix(1, [np.nan, 1.0]), "eigenvalue nan is not >="),
            (lambda: DensityMatrix(1, [np.inf, 0.0]), "not 1 within"),
            (lambda: DensityMatrix(1, [0.0, 0.0], tol=1.0), "tol must lie in"),
            (lambda: Distribution(1, [0.5, 0.5], tol=np.nan), "tol must lie in"),
            (lambda: Distribution(1, [0.5, 0.5], tol=-1e-12), "tol must lie in"),
            # A sum or norm that overflows reads as inf, refused without a RuntimeWarning.
            (lambda: Distribution(1, [1e308, 1e308]), "sum inf is not 1 within"),
            (lambda: DensityMatrix(1, [1e308, 1e308]), "trace inf is not 1 within"),
            (lambda: StateVector(1, [1e200, 0.0]), "norm inf is not 1 within"),
        ],
        ids=[
            "nan-state",
            "nan-distribution",
            "tol1-state",
            "tol1-distribution",
            "nan-density",
            "inf-density",
            "tol1-density",
            "nan-tol",
            "negative-tol",
            "overflow-distribution",
            "overflow-density",
            "overflow-state",
        ],
    )
    def test_nan_and_vacuous_tol_rejected(self, make, match):
        # abs(nan - 1) > tol is False, and a tol of 1 admits a zero vector.
        with pytest.raises(ValueError, match=match):
            make()

    def test_simulated_tol_carries_to_the_distribution(self, ghz_circuit):
        tol = EXACT_TOL + GATE_ROUNDOFF * ghz_circuit.m
        assert run(ghz_circuit).tol == tol
        assert output_distribution(ghz_circuit).tol == tol

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StateVector(1, [S2, S2]),
            lambda: Distribution(1, [0.5, 0.5]),
            lambda: DensityMatrix(1, [0.5, 0.5]),
        ],
        ids=["StateVector", "Distribution", "DensityMatrix"],
    )
    def test_identity_equality_and_hash(self, make):
        x = make()
        assert x == x
        # An equal copy compares false, instead of asking numpy for the
        # truth value of an array.
        assert not (x == make())
        assert x != make()
        assert hash(x) == hash(x)
        assert len({x, make(), x}) == 2


class TestPureSpectrum:
    def test_ascending_with_the_squared_norm_last(self, ghz_circuit):
        state = run(ghz_circuit)
        spectrum = state.spectrum
        assert np.array_equal(spectrum[:-1], np.zeros(7))
        assert spectrum[-1] == pytest.approx(np.sum(np.abs(state.amps) ** 2), rel=1e-15)
        # The dense rank-one density has the same ascending eigenvalues.
        dense = np.linalg.eigvalsh(pure_density(state))
        assert np.allclose(dense, spectrum, rtol=0.0, atol=1e-12)
        # A state off unit norm keeps its drift in the spectrum.
        drifted = StateVector(1, np.array([1.0 + 3e-12, 0.0]), tol=1e-11)
        assert drifted.spectrum[0] == 0.0
        assert drifted.spectrum[1] == pytest.approx((1.0 + 3e-12) ** 2, rel=1e-15)
        assert drifted.spectrum[1] != 1.0
