"""Smoke test of scripts/bench.py: its quick run writes the documented
schema, and the newest committed BENCH file was written by it for today's src."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(*args):
    # pyproject's warning filter does not reach a child interpreter.
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPT), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_quick_run_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert bench["schema"] == "depolab-bench/6"
    env = bench["environment"]
    # The child inherits this environment; depolab pins one thread unless
    # it is already set.
    assert env["blas_threads"] == os.environ.get("OPENBLAS_NUM_THREADS", "1")
    assert env["quick"] is True and env["repeats"] == 1
    assert env["cores"] >= 1 and env["src_lines"] > 0
    for key in ("depolab", "python", "numpy", "machine", "git_sha", "git_dirty"):
        assert key in env
    for row in bench["rows"]:
        # One raw median per row, with no host-speed reference beside it;
        # the cold run also carries its page-fault count, and the random
        # density its tracemalloc peak.
        extra = {"run_cold": {"minor_faults"}, "random_density_matrix": {"peak_bytes"}}.get(
            row["layer"], set())
        assert set(row) == {"layer", "case", "median_s", "runs"} | extra
        assert math.isfinite(row["median_s"]) and row["median_s"] >= 0 and row["runs"] >= 1
    cases = {(row["layer"], row["case"]) for row in bench["rows"]}
    assert len(cases) == len(bench["rows"])
    kinds = {case.split()[0] for layer, case in cases if layer == "kernel"}
    assert kinds == {"H", "S", "T", "X", "I1", "CNOT"}
    # The sample grid spans both lookups (fewer and more draws than
    # outcomes), each next to the draw-order route.
    grid = [case for layer, case in cases if layer == "sample"]
    assert {case for layer, case in cases if layer == "sample_draw_order"} == set(grid)
    assert {"w=8 count=100", "w=8 count=10000"} <= set(grid)
    layers = {layer for layer, _ in cases}
    assert {"run", "mixture_distribution", "mixture_checksum", "bound_chain", "parse_circuit",
            "render_json"} <= layers
    # Rendering is timed to a string and streamed into a file, and the
    # check walk that precedes both is timed alone.
    assert {"depolarize w=8 samples=10000", "depolarize w=8 samples=10000 to devnull"} == {
        case for layer, case in cases if layer == "render_json"}
    assert ("reports._check", "depolarize w=8 samples=10000") in cases
    # The depolarize route itself, one draw set for a 3-fidelity grid.
    assert ("depolarize_grid", "w=8 3 fidelities samples=10000") in cases
    # One seeded density at w = 4: its peak covers the 16 * 4**4-byte
    # matrix it draws.
    (density,) = [row for row in bench["rows"] if row["layer"] == "random_density_matrix"]
    assert density["case"] == "w=4"
    assert isinstance(density["peak_bytes"], int)
    assert 16 * 4**4 <= density["peak_bytes"]
    # The first run in a fresh interpreter, with its minor page faults.
    (cold,) = [row for row in bench["rows"] if row["layer"] == "run_cold"]
    assert cold["case"] == "40 gates w=10 fresh interpreter" and cold["runs"] == 1
    assert isinstance(cold["minor_faults"], int) and cold["minor_faults"] >= 0
    # The kernel table is printed for logs.
    assert "kernel" in proc.stdout and "CNOT w=10" in proc.stdout


def test_compare_is_gone():
    proc = run_bench("--compare", "BENCH_1.json")
    assert proc.returncode == 2
    assert "unrecognized arguments: --compare" in proc.stderr


def test_newest_bench_file_matches_src():
    """A change to src writes the next BENCH file with a full run."""
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    bench = json.loads(newest.read_text(encoding="utf-8"))
    assert bench["schema"] == load_bench().SCHEMA, newest.name
    assert bench["environment"]["quick"] is False, newest.name
    src = sorted((ROOT / "src" / "depolab").glob("*.py"))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src)
    assert bench["environment"]["src_lines"] == lines, newest.name
