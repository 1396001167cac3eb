"""scripts/regime_sweep.py exits 0 and prints both crossovers of the paper's regime."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_prints_both_crossovers():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "regime_sweep.py")],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    header = next(words for words in lines if words[:2] == ["n", "m"])
    eps_below_1, sbp_ok = header.index("eps<1"), header.index("sbp_ok")
    rows = {(int(w[0]), int(w[1])): w for w in lines if w and w[0].isdigit()}
    assert set(rows) == {(n, m) for n in (4, 8) for m in range(1, 2 * n + 1)}
    for (n, m), row in rows.items():
        # Uniform sampling meets the per-outcome target (eps < 1) once
        # m >= n + 3; the SBP gap survives only while m <= n - 2.
        assert row[eps_below_1] == str(m >= n + 3), (n, m)
        assert row[sbp_ok] == str(m <= n - 2), (n, m)
