#!/usr/bin/env python3
"""Outside-in benchmark for the depolab CLI.

Run from the repository root::

    python3 perfbench/run.py --workload sim_deep --seed 1 --seconds 30 --trace 0

Every CLI invocation is a fresh interpreter, ``python -m depolab ...`` with
``PYTHONPATH=src``, timed from spawn to exit.  The load is a closed loop:
one client, one invocation at a time.  BLAS keeps its default thread count.

``--trace 0`` reports the end-to-end metrics: per invocation ``wall_s``
and ``cpu_s`` (means over the run, CPU from ``os.wait4``) and
``peak_rss_mb`` (median, from ``os.wait4``), and ``setup_s``, the median
spawn-to-exit time of ``python -m depolab --version`` (interpreter, numpy
and package import), one spawn before each invocation.

The times are given at a fixed reference speed of the host. Each round
also spawns ``reference.py`` twice, fixed work that does not import the
package and prints how long its work took after start-up. The run's mean
workload times are multiplied by ``REF_WORK_NOMINAL_S`` over the mean of
that work time; each set-up time is divided by the spawn-to-exit time of
the reference spawned right after it, and the median ratio is multiplied
by ``REF_NOMINAL_S``. So start-up is gauged by start-up, and the
workloads, nearly all compute, by compute. On a shared host the speed of
the same code swings by a third over minutes, in step for the package and
the reference, so the scaled times hold still where the raw ones do not.
The raw means and every raw sample are printed and recorded too.
``--trace 1`` alternates plain invocations with traced ones
(``traced_main.py``) and reports the per-layer metrics: medians of the
traced invocations, and ``trace.overhead_s``, the traced minus the plain
median wall time.

Inputs come from ``--seed`` alone: circuits from ``depolab.random_circuit``
on a Philox stream keyed by the seed, and the seed passed on as the CLI's
``--seed`` (sampler and density-matrix key).  Every invocation passes a
correctness gate (exit 0, ``"passed": true``, the report parses, the
workload's invariants recomputed here, report bytes identical across
repeats and between traced and plain runs); a miss counts in ``failed``.

Run files (inputs, reports, a JSON record of every sample with the
environment and report sha256) go to ``.perfbench/<workload>/`` in the
checkout.  Human-readable lines come first on stdout; the last line is the
result JSON.  Without ``src/depolab`` next to this directory the benchmark
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACED_MAIN = BENCH_DIR / "traced_main.py"
REFERENCE = BENCH_DIR / "reference.py"

MIN_ROUNDS = 3  # per run, even when --seconds is shorter
# Reference times the scaled metrics are expressed at, for reference.py's
# spawn-to-exit and its work after start-up: within the range seen on a
# 2-vCPU 2.1 GHz Xeon guest (0.37-0.72 s and 0.25-0.45 s), so scaled times
# read near raw ones there.  Constants, so parent and child commits share them.
REF_NOMINAL_S = 0.4
REF_WORK_NOMINAL_S = 0.3
INVOCATION_TIMEOUT_S = 60
IDENTITY_TOL = 1e-12
ORACLE_TOL = 1e-10

CIRCUIT = "circuit.qc"
REPORT = "report.json"
TRACE = "trace.json"


# --------------------------------------------------------------------------
# Workloads: inputs, CLI arguments and invariants, all from the seed.


def _random_circuit_text(width: int, gates: int, seed: int) -> str:
    from depolab import random_circuit, serialize_circuit

    rng = np.random.Generator(np.random.Philox(key=seed))
    return serialize_circuit(random_circuit(width, gates, rng))


def _tally_circuit_text(width: int) -> str:
    lines = [f"qubits {width}"]
    lines += [f"H {q}" for q in range(width)]
    lines += [f"CNOT {q} {q + 1}" for q in range(0, width - 1, 2)]
    return "\n".join(lines) + "\n"


def _fidelity_arg(grid) -> str:
    return ",".join(str(f) for f in grid)


def _check_config(report: dict, subcommand: str, grid, seed: int) -> list[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append("report does not say passed: true")
    config = report.get("config", {})
    if config.get("subcommand") != subcommand:
        problems.append(f"config echoes subcommand {config.get('subcommand')!r}")
    if config.get("fidelity_grid") != list(grid):
        problems.append(f"config echoes fidelity grid {config.get('fidelity_grid')!r}")
    if config.get("seed") != seed:
        problems.append(f"config echoes seed {config.get('seed')!r}")
    return problems


# sim_deep: certify on a random 18-qubit, 400-gate circuit.
SIM_WIDTH, SIM_GATES = 18, 400
SIM_GRID = (0.1, 0.25, 0.5, 0.9)


def _check_sim_deep(report: dict, seed: int, workdir: Path) -> list[str]:
    problems = _check_config(report, "certify", SIM_GRID, seed)
    entries = report["results"]["per_fidelity"]
    if report["results"]["width"] != SIM_WIDTH or len(entries) != len(SIM_GRID):
        return problems + ["wrong width or number of fidelities"]
    ideal_l1 = []
    for f, entry in zip(SIM_GRID, entries):
        add = entry["additive"]
        achieved, scaled = add["achieved"], add["scaled_ideal_l1"]
        if entry["fidelity"] != f or not add["passed"]:
            problems.append(f"F={f}: additive entry wrong or not passed")
        if abs(achieved - scaled) > IDENTITY_TOL:
            problems.append(f"F={f}: achieved {achieved!r} != scaled_ideal_l1 {scaled!r}")
        if max(achieved, scaled) > 2.0 * f:
            problems.append(f"F={f}: additive deviation above 2F")
        if f <= 0.5 and entry["multiplicative"].get("passed") is not True:
            problems.append(f"F={f}: multiplicative certificate not passed")
        ideal_l1.append(scaled / f)
    # scaled_ideal_l1 / F is the ideal L1 distance, the same at every F.
    if max(ideal_l1) - min(ideal_l1) > IDENTITY_TOL:
        problems.append(f"ideal L1 distance differs across fidelities: {ideal_l1}")
    return problems


# sample_tally: depolarize with 10**6 draws on a 16-qubit circuit whose
# ideal distribution is uniform, so all 65,536 outcomes get tallied.
TALLY_WIDTH, TALLY_SAMPLES = 16, 1_000_000
TALLY_GRID = (0.25, 0.5, 0.9)


def _check_sample_tally(report: dict, seed: int, workdir: Path) -> list[str]:
    problems = _check_config(report, "depolarize", TALLY_GRID, seed)
    if report["config"].get("samples") != TALLY_SAMPLES:
        problems.append("config echoes the wrong sample count")
    entries = report["results"]["per_fidelity"]
    size = 1 << TALLY_WIDTH
    if len(entries) != len(TALLY_GRID):
        return problems + ["wrong number of fidelities"]
    for f, entry in zip(TALLY_GRID, entries):
        probs = np.array(entry["probabilities"], dtype=np.float64)
        tally = entry["tally"]
        if probs.shape != (size,):
            problems.append(f"F={f}: {probs.size} probabilities")
            continue
        if abs(math.fsum(probs) - 1.0) > IDENTITY_TOL:
            problems.append(f"F={f}: probabilities sum to {math.fsum(probs)!r}")
        # The ideal distribution is uniform, so the depolarized one is too.
        if np.abs(probs - 1.0 / size).max() > IDENTITY_TOL / size:
            problems.append(f"F={f}: probabilities are not uniform")
        if sum(tally.values()) != TALLY_SAMPLES:
            problems.append(f"F={f}: tally sums to {sum(tally.values())}")
        freq = np.zeros(size)
        for bits, count in tally.items():
            # Outcome strings print qubit 0 leftmost.
            freq[int(bits[::-1], 2)] = count / TALLY_SAMPLES
        tv = 0.5 * float(np.abs(freq - probs).sum())
        if abs(tv - entry["empirical_tv"]) > IDENTITY_TOL:
            problems.append(f"F={f}: empirical_tv {entry['empirical_tv']!r}, recomputed {tv!r}")
    return problems


# thm1_mixture: thm1 on a random 6-qubit, 16-gate circuit: 2**16 branch
# states of 64 amplitudes, and a checksum over 2**22 probabilities.
THM1_WIDTH, THM1_GATES = 6, 16
THM1_GRID = (0.25, 0.5, 0.9)

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_MATRICES = {
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "I1": np.eye(2, dtype=complex),
}


def _zero_probability(circuit_text: str) -> float:
    """|<0|V|0>|**2 by a dense tensor simulation independent of the package."""
    lines = [ln.split("#", 1)[0].split() for ln in circuit_text.splitlines()]
    lines = [ln for ln in lines if ln]
    width = int(lines[0][1])
    psi = np.zeros((2,) * width, dtype=complex)
    psi[(0,) * width] = 1.0
    axis = lambda q: width - 1 - q  # qubit q is bit q of the flat index
    for kind, *targets in lines[1:]:
        qs = [int(t) for t in targets]
        if kind == "CNOT":
            idx = [slice(None)] * width
            idx[axis(qs[0])] = 1
            block = psi[tuple(idx)]
            t_axis = axis(qs[1]) - (1 if axis(qs[1]) > axis(qs[0]) else 0)
            psi[tuple(idx)] = np.flip(block, axis=t_axis)
        else:
            psi = np.moveaxis(np.tensordot(_MATRICES[kind], psi, axes=([1], [axis(qs[0])])), 0, axis(qs[0]))
    return float(abs(psi[(0,) * width]) ** 2)


def _check_thm1_mixture(report: dict, seed: int, workdir: Path) -> list[str]:
    problems = _check_config(report, "thm1", THM1_GRID, seed)
    res = report["results"]
    w, m, n, q = res["w"], res["m"], res["n"], res["q"]
    if (w, m, n) != (THM1_WIDTH, THM1_GATES, THM1_WIDTH + THM1_GATES):
        return problems + [f"widths (w, m, n) = {(w, m, n)}"]
    q_oracle = _zero_probability((workdir / CIRCUIT).read_text(encoding="ascii"))
    if abs(q - q_oracle) > ORACLE_TOL:
        problems.append(f"q = {q!r}, dense recomputation gives {q_oracle!r}")
    for f, entry in zip(THM1_GRID, res["per_fidelity"]):
        expected = f * q / (1 << m) + (1.0 - f) / (1 << n)
        if entry["fidelity"] != f or not math.isclose(
            entry["p_acc_prime"], expected, rel_tol=IDENTITY_TOL, abs_tol=0.0
        ):
            problems.append(f"F={f}: p_acc_prime {entry['p_acc_prime']!r} != {expected!r}")
    checksum = res["mixture_checksum"]
    if not (isinstance(checksum, str) and len(checksum) == 64):
        problems.append(f"mixture_checksum is {checksum!r}")
    return problems


# discriminate_dense: k = 2 copies of a seeded full-rank 5-qubit state:
# three 1024 x 1024 eigh calls plus projector matmuls.
DISC_WIDTH, DISC_K = 5, 2
DISC_GRID = (0.25, 0.5, 0.9)


def _seeded_spectrum(width: int, seed: int) -> np.ndarray:
    """Spectrum of the CLI's seeded state G G^dag / tr, drawn the same way."""
    d = 1 << width
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)


def _check_discriminate_dense(report: dict, seed: int, workdir: Path) -> list[str]:
    problems = _check_config(report, "discriminate", DISC_GRID, seed)
    res = report["results"]
    if (res["source"], res["width"], res["k"]) != ("random", DISC_WIDTH, DISC_K):
        return problems + ["wrong source, width or k"]
    d = 1 << DISC_WIDTH
    spectrum = _seeded_spectrum(DISC_WIDTH, seed)
    for f, chain in zip(DISC_GRID, res["chains"]):
        # rho1^(x)k - rho0^(x)k is diagonal in the product eigenbasis of rho.
        mu = f * spectrum + (1.0 - f) / d
        products = mu
        for _ in range(DISC_K - 1):
            products = np.multiply.outer(products, mu)
        expected = 0.5 + 0.25 * float(np.abs(products - float(d) ** -DISC_K).sum())
        if chain["fidelity"] != f or abs(chain["p_correct"] - expected) > ORACLE_TOL:
            problems.append(f"F={f}: p_correct {chain['p_correct']!r}, spectral {expected!r}")
        if not all(link["passed"] for link in chain["links"]):
            problems.append(f"F={f}: a chain link failed")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    circuit: Callable[[int], str] | None  # seed -> circuit file text
    args: tuple[str, ...]  # CLI arguments before --seed and --out
    check: Callable[[dict, int, Path], list[str]]  # report, seed, workdir -> problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_deep",
            lambda seed: _random_circuit_text(SIM_WIDTH, SIM_GATES, seed),
            ("certify", "--circuit", CIRCUIT, "--fidelity", _fidelity_arg(SIM_GRID)),
            _check_sim_deep,
        ),
        Workload(
            "sample_tally",
            lambda seed: _tally_circuit_text(TALLY_WIDTH),
            (
                "depolarize", "--circuit", CIRCUIT, "--fidelity", _fidelity_arg(TALLY_GRID),
                "--samples", str(TALLY_SAMPLES),
            ),
            _check_sample_tally,
        ),
        Workload(
            "thm1_mixture",
            lambda seed: _random_circuit_text(THM1_WIDTH, THM1_GATES, seed),
            ("thm1", "--circuit", CIRCUIT, "--fidelity", _fidelity_arg(THM1_GRID)),
            _check_thm1_mixture,
        ),
        Workload(
            "discriminate_dense",
            None,
            (
                "discriminate", "--w", str(DISC_WIDTH), "--k", str(DISC_K),
                "--fidelity", _fidelity_arg(DISC_GRID),
            ),
            _check_discriminate_dense,
        ),
    )
}


# --------------------------------------------------------------------------
# Spawning and timing.


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float  # user + sys
    sys_s: float  # mostly page faults
    peak_rss_mb: float
    exit_code: int


def _spawn(argv: list[str], cwd: Path, env: dict, stdout: Path | None = None) -> Sample:
    """Run argv to completion, timed from spawn to reap; rusage from wait4."""
    with open(stdout or os.devnull, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Gate:
    """Correctness gate for every invocation of one workload and seed.

    The first report is parsed and its invariants recomputed; every later
    report must have the same bytes (identical bytes carry identical
    invariants), so each invocation is checked without re-parsing.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.report_sha = None
        self.report_bytes = None
        self.problems = []  # (invocation label, message)

    def check(self, label: str, sample: Sample) -> bool:
        problems = self._problems(sample)
        self.problems += [(label, p) for p in problems]
        return not problems

    def _problems(self, sample: Sample) -> list[str]:
        report = self.workdir / REPORT
        if sample.exit_code != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-500:]
            return [f"exit code {sample.exit_code}: {tail.strip()}"]
        if not report.exists():
            return ["no report written"]
        sha = _sha256(report)
        if self.report_sha is None:
            try:
                parsed = json.loads(report.read_text(encoding="utf-8"))
            except ValueError as err:
                return [f"report does not parse: {err}"]
            try:
                problems = self.workload.check(parsed, self.seed, self.workdir)
            except (KeyError, TypeError, ValueError, IndexError) as err:
                problems = [f"report lacks an expected field: {err!r}"]
            if problems:
                return problems
            self.report_sha, self.report_bytes = sha, report.stat().st_size
        elif sha != self.report_sha:
            return [f"report bytes differ from the first invocation ({sha} vs {self.report_sha})"]
        return []


# --------------------------------------------------------------------------
# Environment record.


def _blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(version: str) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "depolab_version": version,
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# Runs.


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DEPOLAB_MAX_QUBITS", None)
    return env


def _setup_once(workdir: Path, env: dict, version: str, gate: Gate, label: str) -> float:
    """Spawn-to-exit time of ``python -m depolab --version``, checked."""
    sample = _spawn([sys.executable, "-m", "depolab", "--version"], workdir, env,
                    stdout=workdir / "version.txt")
    printed = (workdir / "version.txt").read_text(encoding="utf-8").strip()
    if sample.exit_code != 0 or printed != version:
        gate.problems.append((label, f"--version exit {sample.exit_code}, printed {printed!r}"))
    return sample.wall_s


def _reference_once(workdir: Path, env: dict, gate: Gate, label: str) -> tuple[float, float]:
    """Spawn-to-exit and printed work time of ``reference.py``, checked."""
    sample = _spawn([sys.executable, str(REFERENCE)], workdir, env, stdout=workdir / "reference.txt")
    printed = (workdir / "reference.txt").read_text(encoding="ascii").strip()
    try:
        work = float(printed)
    except ValueError:
        work = math.nan
    if sample.exit_code != 0 or not work > 0:
        gate.problems.append((label, f"reference.py exit {sample.exit_code}, printed {printed!r}"))
    return sample.wall_s, work


def _another(start: float, done: int, seconds: float) -> bool:
    """Whether one more round fits in the measuring window (at least MIN_ROUNDS)."""
    if done < MIN_ROUNDS:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _invoke(argv: list[str], workdir: Path, env: dict, gate: Gate, label: str) -> tuple[Sample, bool]:
    (workdir / REPORT).unlink(missing_ok=True)
    sample = _spawn(argv, workdir, env)
    return sample, gate.check(label, sample)


def _cli_args(workload: Workload, seed: int) -> list[str]:
    return [*workload.args, "--seed", str(seed), "--out", REPORT]


def run_plain(workload, seed, seconds, workdir, env, gate, version: str) -> tuple[dict, dict, int, int]:
    argv = [sys.executable, "-m", "depolab", *_cli_args(workload, seed)]
    # The first spawns warm the page cache and write bytecode.  Each round
    # then times set-up once and the reference on both sides of the
    # invocation, so they see the same machine state as the workload; the
    # reference is short and its time swings more, hence two per round.
    _setup_once(workdir, env, version, gate, "setup warm-up")
    _reference_once(workdir, env, gate, "reference warm-up")
    setup, reference, samples, failed = [], [], [], 0
    start = time.perf_counter()
    while _another(start, len(samples), seconds):
        setup.append(_setup_once(workdir, env, version, gate, f"setup {len(setup)}"))
        reference.append(_reference_once(workdir, env, gate, f"reference {len(reference)}"))
        sample, ok = _invoke(argv, workdir, env, gate, f"invocation {len(samples)}")
        samples.append(sample)
        failed += not ok
        reference.append(_reference_once(workdir, env, gate, f"reference {len(reference)}"))
    attempted = len(samples)
    # Workload times: means, not medians.  The host flips between a fast and
    # a slow state every few seconds, and a median jumps with whichever state
    # held the majority of the samples, while a mean follows the share of
    # time spent in each, for the workload and the reference alike.
    # Set-up: the median of its ratio to the reference spawned right after
    # it, in the same state of the host.
    scale = REF_WORK_NOMINAL_S / statistics.fmean(work for _, work in reference)
    setup_ratio = statistics.median(s / wall for s, (wall, _) in zip(setup, reference[::2]))
    metrics = {
        "wall_s": (statistics.fmean(s.wall_s for s in samples) * scale, "s"),
        "cpu_s": (statistics.fmean(s.cpu_s for s in samples) * scale, "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MiB"),
        "setup_s": (setup_ratio * REF_NOMINAL_S, "s"),
    }
    raw = {
        "scale": scale,
        "reference_s": [wall for wall, _ in reference],
        "reference_work_s": [work for _, work in reference],
        "setup_s": setup,
        "invocations": [s.__dict__ for s in samples],
    }
    return metrics, raw, attempted, failed


def run_traced(workload, seed, seconds, workdir, env, gate, units) -> tuple[dict, dict, int, int]:
    args = _cli_args(workload, seed)
    plain_argv = [sys.executable, "-m", "depolab", *args]
    traced_argv = [sys.executable, str(TRACED_MAIN), TRACE, "--", *args]
    plain, traced, layers, failed = [], [], [], 0
    start = time.perf_counter()
    while _another(start, len(traced), seconds):
        sample, ok = _invoke(plain_argv, workdir, env, gate, f"plain {len(plain)}")
        plain.append(sample)
        failed += not ok
        (workdir / TRACE).unlink(missing_ok=True)
        sample, ok = _invoke(traced_argv, workdir, env, gate, f"traced {len(traced)}")
        traced.append(sample)
        if ok and not (workdir / TRACE).is_file():
            gate.problems.append((f"traced {len(traced)}", "no trace written"))
            ok = False
        if ok:
            record = json.loads((workdir / TRACE).read_text(encoding="utf-8"))
            if Path(record["depolab_file"]).resolve().parent.parent != SRC:
                gate.problems.append((f"traced {len(traced)}", f"imported {record['depolab_file']}"))
                ok = False
            record["metrics"]["reports.bytes"] = (workdir / REPORT).stat().st_size
            layers.append(record)
        failed += not ok
    attempted = len(plain) + len(traced)
    metrics = {}
    if layers:
        for name in layers[0]["metrics"]:
            values = [rec["metrics"][name] for rec in layers]
            unit = units.get(name, "undeclared")
            if unit in ("count", "bytes"):
                if len(set(values)) != 1:
                    gate.problems.append(("counts", f"{name} does not repeat: {values}"))
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        overhead = statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
    raw = {
        "plain": [s.__dict__ for s in plain],
        "traced": [s.__dict__ for s in traced],
        "layers": layers,
    }
    return metrics, raw, attempted, failed


def _summary(workload, why, seed, trace, metrics, raw, attempted, failed, gate, env, record_path):
    print(f"# depolab benchmark: workload {workload.name}, seed {seed}, trace {trace}")
    print(f"# why: {why}")
    blas = env["blas"]
    print(f"# depolab {env['depolab_version']} ({env['src_lines']} src lines), "
          f"python {env['python']}, numpy {env['numpy']}, {blas['name']} {blas['version']} "
          f"with {blas['threads']} threads, nproc {env['nproc']}")
    print(f"# invocations attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.6g} ratio")
    if gate.report_sha is not None:
        print(f"# report sha256 {gate.report_sha} ({gate.report_bytes} bytes)")
    if trace == 0:
        ref, work = raw["reference_s"], raw["reference_work_s"]
        print(f"# reference.py of {len(ref)}: spawn-to-exit mean {statistics.fmean(ref):.4g} s, "
              f"work mean {statistics.fmean(work):.4g} s; workload times scaled by {raw['scale']:.4g}")
    for name, (value, unit) in metrics.items():
        line = f"#   {name:36s} {value!r} {unit}"
        if trace == 0:
            values = raw["setup_s"] if name == "setup_s" else [s[name] for s in raw["invocations"]]
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            line += (f"  (raw of {len(values)}: mean {statistics.fmean(values):.4g}, "
                     f"median {med:.4g}, quartiles {q1:.4g} / {q3:.4g})")
        print(line)
    if trace == 1 and "cli.main_s" in metrics:
        main_s = metrics["cli.main_s"][0]
        shares = {
            name: metrics[name][0] / main_s
            for name in ("statevector.self_s", "discrimination.chain_s", "construction.mixture_s",
                         "cli.self_s", "reports.render_s", "depol.sample_s")
        }
        print("# share of in-process main: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for label, problem in gate.problems[:20]:
        print(f"# FAILED {label}: {problem}")
    print(f"# record {record_path.relative_to(ROOT)}")


def _declared_mismatch(declared: dict, metrics: dict, trace: int) -> list[str]:
    """Differences between the metrics measured and those BENCHMARK.json declares."""
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    return [] if measured == units else [f"measured {measured}, declared {units}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if not (SRC / "depolab" / "__init__.py").is_file():
        print(f"perfbench: no depolab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import depolab

    if Path(depolab.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported depolab from {depolab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next((w["why"] for w in declared["workloads"] if w["name"] == workload.name), None)
    if why is None:
        print(f"perfbench: BENCHMARK.json does not declare {workload.name}", file=sys.stderr)
        return 2
    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {}
    if workload.circuit is not None:
        (workdir / CIRCUIT).write_text(workload.circuit(args.seed), encoding="ascii")
        inputs[CIRCUIT] = _sha256(workdir / CIRCUIT)

    env = _cli_env()
    gate = Gate(workload, args.seed, workdir)
    if args.trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics, raw, attempted, failed = run_traced(
            workload, args.seed, args.seconds, workdir, env, gate, units
        )
    else:
        metrics, raw, attempted, failed = run_plain(
            workload, args.seed, args.seconds, workdir, env, gate, depolab.__version__
        )
    gate.problems += [("metrics", p) for p in _declared_mismatch(declared, metrics, args.trace)]
    correct = not gate.problems and failed == 0 and bool(metrics)

    environment = _environment(depolab.__version__)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record_path = workdir / f"record-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "cli_args": _cli_args(workload, args.seed),
        "input_sha256": inputs,
        "report_sha256": gate.report_sha,
        "report_bytes": gate.report_bytes,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": gate.problems,
        "metrics": reported,
        "samples": raw,
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _summary(workload, why, args.seed, args.trace, metrics, raw, attempted, failed, gate,
             environment, record_path)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
