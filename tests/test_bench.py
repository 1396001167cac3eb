"""Smoke test of scripts/bench.py: its quick run writes the documented schema."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_run_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert bench["schema"] == "depolab-bench/2"
    env = bench["environment"]
    assert env["quick"] is True and env["repeats"] == 1
    assert env["cores"] >= 1 and env["src_lines"] > 0
    for key in ("depolab", "python", "numpy", "machine", "git_sha", "git_dirty"):
        assert key in env
    for row in bench["rows"]:
        assert set(row) == {"layer", "case", "median_s", "ref_s", "runs"}
        assert math.isfinite(row["median_s"]) and row["median_s"] >= 0 and row["runs"] >= 1
        # The reference's time, the divisor of a host-independent ratio.
        assert math.isfinite(row["ref_s"]) and row["ref_s"] > 0
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
    # The kernel table is printed for logs.
    assert "kernel" in proc.stdout and "CNOT w=10" in proc.stdout
