#!/usr/bin/env python3
"""Time each layer of depolab in-process and write the timings as JSON.

    python scripts/bench.py --out BENCH_2.json
    python scripts/bench.py --quick --out bench.json

Every row is the median wall time of 5 calls in this interpreter, after
one untimed call (3 calls and none untimed for the multi-second rows, one
call in --quick): the gate kernel by gate kind, width and target qubit
(the lowest, middle and top one), `run` on random circuits (one of them
perfbench's `sim_deep` shape, 18 qubits and 400 gates, one with X gates
appended until the frame is odd on every qubit, and one of H, S, T and
CNOT gates on the top six qubits only, 16-21 of 22, whose rows grow with
the top qubit), depolarize and both certificates,
`sample` (`tally` of fresh `sorted_draws`, as arrays) over a width x
count grid next to the draw-order lookup it must not fall behind
(tests/oracles.py), `mixture_distribution` by (w, m),
`bound_chain` on a pure state by (w, k), `random_density_matrix` (with
the tracemalloc peak of one more, untimed call: `peak_bytes`),
`parse_circuit`, the depolarize route on a 3-fidelity grid with 10**6
draws (`run_experiment`: one draw set and a `Tally` leaf per fidelity),
rendering its report (the check walk alone, to a string, and streamed
into os.devnull; the tallies print from their arrays), thm1's mixture checksum (streamed from the circuit, so the
mixture's work is in it), and (full runs only) the tier-1 suite.  The
kernel rows build each state and its workspace before the clock starts,
so they time the gates and not the allocator.  One more row, `run_cold`,
times the first `run` of a w = 18, 400-gate circuit in a fresh child
interpreter (5 children, or one in --quick at w = 10 with 40 gates) and
records its median minor page-fault count from getrusage, the cost a CLI
invocation pays on pages it has not touched yet.  Rows hold raw medians: the
host's speed drifts, so a row moves between two files as far as between
two runs of one tree, and only rows timed in one run (`sample` next to
`sample_draw_order`) compare closely.  The package is imported before
numpy, so the rows run on the one-thread BLAS pool the CLI runs on.  The
file also records the Python and numpy versions, the core count, the
`OPENBLAS_NUM_THREADS` numpy loaded with (`blas_threads`), the src line
count and the git commit.  --quick runs the same rows at small sizes in a
few seconds.

These are in-process layer times.  perfbench/run.py measures something
else: whole CLI runs, one fresh interpreter each, scaled by a reference
workload.  Compare each kind only with its own kind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# depolab before numpy, as the CLI loads them: the package pins OpenBLAS
# to one thread unless OPENBLAS_NUM_THREADS is already set.
import depolab  # noqa: E402

BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")  # as numpy loads it

import numpy as np  # noqa: E402
from depolab import (  # noqa: E402
    Circuit,
    Distribution,
    Gate,
    RandomizedCircuit,
    additive_certificate,
    bound_chain,
    depolarize,
    mixture_distribution,
    multiplicative_certificate,
    parse_circuit,
    random_circuit,
    random_density_matrix,
    run,
    serialize_circuit,
    sorted_draws,
    tally,
)
from depolab.cli import ExperimentConfig, run_experiment  # noqa: E402
from depolab.construction import mixture_checksum  # noqa: E402
from depolab.reports import _check, render_json  # noqa: E402
from depolab.statevector import _apply_gate_inplace  # noqa: E402
from oracles import draw_order_sample  # noqa: E402

SCHEMA = "depolab-bench/6"
KINDS = ("H", "S", "T", "X", "I1", "CNOT")
FULL = {
    "run": ((16, 200), (18, 400), (20, 200), (22, 200)),  # (w, gates); 18, 400 as sim_deep
    "odd_frame": (22, 200),
    "high_run": (22, 200, 16),  # (w, gates, lowest qubit)
    "kernel": (18, 22),
    "certificates": 20,
    "sample_widths": (12, 16, 20, 22),
    "sample_counts": (10**4, 10**6),
    "mixture": ((4, 16), (6, 16), (4, 20)),
    "chain": ((6, 2), (2, 11), (1, 22), (11, 2)),
    "density": 11,
    "parse": (10, 200_000),
    "tally": (16, 10**6),
    "checksum": (6, 16),
    "cold": (18, 400),
}
QUICK = {
    "run": ((10, 200),),
    "odd_frame": (10, 200),
    "high_run": (10, 200, 6),
    "kernel": (10,),
    "certificates": 10,
    "sample_widths": (8, 10),
    "sample_counts": (100, 10**4),
    "mixture": ((3, 6),),
    "chain": ((2, 2),),
    "density": 4,
    "parse": (4, 2_000),
    "tally": (8, 10**4),
    "checksum": (3, 6),
    "cold": (10, 40),
}
REPEATS, HEAVY_REPEATS = 5, 3


def rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def random_distribution(width: int) -> Distribution:
    probs = rng(width).exponential(size=1 << width)
    return Distribution(width, probs / probs.sum())


def kernel_gates(width: int, kind: str):
    """(target, callable) for one application of the gate on the lowest,
    middle and top qubit (a CNOT controlled by the next qubit up), on one
    dense state, with the workspace allocated outside the timing as `run`
    allocates it."""
    amps = np.full(1 << width, 2.0 ** (-width / 2), dtype=np.complex128)
    scratch = np.full(amps.size // 2, 0.0, dtype=np.complex128)  # touched here, not in the timing
    for t in sorted({0, width // 2, width - 1}):
        gate = Gate(kind, ((t + 1) % width, t) if kind == "CNOT" else (t,))
        yield t, lambda g=gate: _apply_gate_inplace(amps, g, scratch)


def cases(sizes: dict, workdir: Path):
    """Yield (layer, case, callable, heavy).  The layers
    that run the gate kernel come last: the large arrays it frees leave
    the allocator in a state that moved later rows by a factor of 2-3
    (depolarize at w = 20 read 6.6 ms after the kernel rows, 2.4 ms alone)."""
    dist = random_distribution(sizes["certificates"])
    case = f"w={dist.width}"
    yield "depolarize", case, lambda: depolarize(dist, 0.25), False
    yield "additive_certificate", case, lambda: additive_certificate(dist, 0.25), False
    yield "multiplicative_certificate", case, lambda: multiplicative_certificate(dist, 0.25), False
    for w in sizes["sample_widths"]:
        dist = random_distribution(w)
        for count in sizes["sample_counts"]:
            case = f"w={w} count={count}"
            yield "sample", case, lambda d=dist, n=count: tally(d, sorted_draws(1, n)), False
            yield "sample_draw_order", case, lambda d=dist, n=count: draw_order_sample(d, 1, n), False
    for w, k in sizes["chain"]:
        state = run(random_circuit(w, 20, rng(w)))
        yield "bound_chain", f"pure w={w} k={k}", lambda s=state, k=k: bound_chain(s, 0.25, k), False
    w = sizes["density"]
    yield "random_density_matrix", f"w={w}", lambda: random_density_matrix(w, 1), True
    w, m = sizes["parse"]
    text = serialize_circuit(random_circuit(w, m, rng(m)))
    yield "parse_circuit", f"{m} gates w={w}", lambda: parse_circuit(text), True
    w, count = sizes["tally"]
    path = workdir / "tally.qc"
    path.write_text(
        "\n".join([f"qubits {w}", *(f"H {q}" for q in range(w)),
                   *(f"CNOT {q} {q + 1}" for q in range(0, w - 1, 2))]) + "\n"
    )
    config = ExperimentConfig(
        subcommand="depolarize", circuit_path=str(path), fidelity_grid=(0.25, 0.5, 0.9),
        seed=1, samples=count,
    )
    yield "depolarize_grid", f"w={w} 3 fidelities samples={count}", lambda: run_experiment(config), False
    report = run_experiment(config)
    yield "reports._check", f"depolarize w={w} samples={count}", lambda: _check(report), False
    yield "render_json", f"depolarize w={w} samples={count}", lambda: render_json(report), False
    yield ("render_json", f"depolarize w={w} samples={count} to devnull",
           lambda: render_to_devnull(report), False)
    for w in sizes["kernel"]:
        for kind in KINDS:
            for t, apply in kernel_gates(w, kind):
                yield "kernel", f"{kind} w={w} q={t}", apply, False
    for w, m in sizes["run"]:
        circuit = random_circuit(w, m, rng(w))
        yield "run", f"{m} gates w={w}", lambda c=circuit: run(c), w >= 20
    # The same random gates as above, then X on each qubit they leave even.
    w, m = sizes["odd_frame"]
    gates = random_circuit(w, m, rng(w)).gates
    even = [q for q in range(w) if sum(g == Gate("X", (q,)) for g in gates) % 2 == 0]
    circuit = Circuit(w, gates + tuple(Gate("X", (q,)) for q in even))
    yield "run", f"{m} gates w={w} odd frame", lambda: run(circuit), w >= 20
    # H, S, T and CNOT on the qubits from `low` up only.
    w, m, low = sizes["high_run"]
    r = rng(w + low)
    high = []
    for kind in r.choice(["H", "S", "T", "CNOT"], size=m):
        qubits = r.choice(np.arange(low, w), size=2 if kind == "CNOT" else 1, replace=False)
        high.append(Gate(str(kind), tuple(map(int, qubits))))
    circuit_high = Circuit(w, tuple(high))
    yield "run", f"{m} gates w={w} q={low}-{w - 1}", lambda: run(circuit_high), w >= 20
    for w, m in sizes["mixture"]:
        rc = RandomizedCircuit(random_circuit(w, m, rng(w + m)))
        yield "mixture_distribution", f"w={w} m={m}", lambda r=rc: mixture_distribution(r), w + m >= 24
    w, m = sizes["checksum"]
    rc = RandomizedCircuit(random_circuit(w, m, rng(w + m)))
    yield "mixture_checksum", f"w={w} m={m}", lambda: mixture_checksum(rc), False


# The child of cold_run: the first `run` after import, its seconds and the
# minor page faults it took, as one JSON line.
COLD_CHILD = """
import json, resource, sys, time
from depolab import random_circuit, run
import numpy as np
width, gates = int(sys.argv[1]), int(sys.argv[2])
circuit = random_circuit(width, gates, np.random.Generator(np.random.Philox(key=width)))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
run(circuit)
seconds = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"seconds": seconds, "minor_faults": faults}))
"""


def cold_run(width: int, gates: int, children: int) -> tuple[float, int]:
    """Median seconds and minor page faults of the first `run` of a random
    circuit, each in a fresh child interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = [
        json.loads(subprocess.run(
            [sys.executable, "-c", COLD_CHILD, str(width), str(gates)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
        for _ in range(children)
    ]
    return (statistics.median(s["seconds"] for s in samples),
            int(statistics.median(s["minor_faults"] for s in samples)))


def render_to_devnull(report) -> None:
    """The CLI's --out route: the report streamed into a file as it renders."""
    with open(os.devnull, "w", encoding="utf-8") as handle:
        render_json(report, handle)


def peak_bytes(fn) -> int:
    """The tracemalloc peak of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def median_seconds(fn, repeats: int, warm_up: bool) -> float:
    if warm_up:  # first-touch pages and caches; too dear for the heavy rows
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def suite_seconds() -> float:
    """One run of the tier-1 suite in a child interpreter, less the check
    of the newest BENCH file: after a change to src it fails until this
    run has written the next one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--deselect", "tests/test_bench.py::test_newest_bench_file_matches_src"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment(quick: bool, repeats: int) -> dict:
    src = sorted((ROOT / "src" / "depolab").glob("*.py"))
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "depolab": depolab.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "quick": quick,
        "repeats": repeats,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="small sizes, no suite run")
    parser.add_argument("--out", help="write the JSON here")
    args = parser.parse_args()
    repeats = 1 if args.quick else REPEATS
    rows = []

    def record(layer: str, case: str, median: float, runs: int, **extra) -> None:
        rows.append({"layer": layer, "case": case, "median_s": median, "runs": runs, **extra})
        note = "".join(f"  {key}={value}" for key, value in extra.items())
        print(f"{layer:<27} {case:<26} {median * 1e3:>11.3f} ms{note}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for layer, case, fn, heavy in cases(QUICK if args.quick else FULL, Path(tmp)):
            runs = min(repeats, HEAVY_REPEATS) if heavy else repeats
            median = median_seconds(fn, runs, not heavy)
            extra = {"peak_bytes": peak_bytes(fn)} if layer == "random_density_matrix" else {}
            record(layer, case, median, runs, **extra)
    width, gates = (QUICK if args.quick else FULL)["cold"]
    seconds, faults = cold_run(width, gates, repeats)
    record("run_cold", f"{gates} gates w={width} fresh interpreter", seconds, repeats,
           minor_faults=faults)
    if not args.quick:
        record("tier1_suite", "pytest -q", suite_seconds(), 1)

    result = {"schema": SCHEMA, "environment": environment(args.quick, repeats), "rows": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
