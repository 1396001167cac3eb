"""Fixed reference work that gauges how fast the host runs right now.

Usage::

    python reference.py

``run.py`` spawns this twice per round, before and after every timed CLI
invocation, and scales its timings by the reference's times (see
``run.py``). It prints how long the work after start-up took, in seconds.
It never imports ``depolab``, so no change to the package moves its time.
Its mix follows what the workloads spend their time on: interpreter and
numpy start-up, page faults on freshly mapped arrays, gathered numpy
arithmetic, float formatting and hashing in Python, a dict of outcome
strings rendered as JSON, and a small Hermitian eigenproblem on BLAS
threads. The exit code is 0 when the work's fixed checksum comes out and
the eigenvalues sum to the trace.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

EXPECTED = "2df9bff4"  # first hex digits of the checksum below


def work() -> str:
    rng = np.random.Generator(np.random.Philox(key=2020))
    digest = hashlib.sha256()

    # Page faults on arrays too large for malloc to recycle, then gathered
    # butterfly updates, like the gate kernel's temporaries and index arrays.
    for step in range(4):
        digest.update(np.full(1 << 22, step, dtype=np.complex128)[:: 1 << 20].tobytes())
    half = 1 << 18
    idx = rng.permutation(2 * half)
    for step in range(4):
        amps = np.full(2 * half, 1.0 / (step + 1), dtype=np.complex128)
        lo, hi = amps[idx[:half]], amps[idx[half:]]
        amps[idx[:half]], amps[idx[half:]] = lo + hi, lo - hi
        digest.update(amps[:: 1 << 12].tobytes())

    # Float formatting and hashing, like the mixture checksum.
    probs = rng.random(1 << 17)
    digest.update(",".join(format(p, ".17g") for p in probs).encode("ascii"))

    # Outcome strings rendered as JSON, like a tally in a report.
    tally = {format(z, "016b"): int(c) for z, c in enumerate(rng.integers(0, 99, 1 << 14))}
    digest.update(json.dumps(tally, indent=2).encode("ascii"))

    # A small Hermitian eigenproblem, like the discrimination chain.  Its
    # last digits depend on BLAS threading, so it is checked, not hashed.
    g = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    if abs(np.linalg.eigvalsh(rho).sum() - trace) > 1e-9 * trace:
        return "eigenvalues do not sum to the trace"
    return digest.hexdigest()


if __name__ == "__main__":
    start = time.perf_counter()
    ok = work().startswith(EXPECTED)
    print(repr(time.perf_counter() - start))
    raise SystemExit(0 if ok else 1)
