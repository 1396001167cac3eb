#!/usr/bin/env python3
"""The paper's regime: fidelity F = 2**-m for m = 1 .. 2n, at n = 4 and 8.

    python -W error::RuntimeWarning scripts/regime_sweep.py

For one random circuit of n qubits and 4n gates (a Philox stream keyed
by n) and each m, one row prints the additive certificate (its bound 2F
and the achieved distance), the multiplicative one (its eps = F*2**(n+2),
the achieved relative error and whether eps < 1), the SBP threshold
ratio and sbp_ok at r = 8 and epsilon = 0.1, the hardness gap of a
(3/4, 1/4) promise pair, and for k = 1 .. POWER_CAP // n copies the
optimal success p_correct next to its cap 1/2 + kF/2.

Uniform sampling meets both error targets once m > n + 2, while the
construction's threshold gap holds only for m <= n - 2.  The exit code is
1 unless every certificate and bound chain passes and both crossovers
fall exactly there.
"""

import sys

import numpy as np

from depolab import (
    additive_certificate,
    bound_chain,
    hardness_gap,
    multiplicative_certificate,
    output_distribution,
    random_circuit,
    run,
    sbp_thresholds,
)
from depolab.discrimination import POWER_CAP

WIDTHS, R, EPSILON = (4, 8), 8, 0.1


def main() -> int:
    failures = []
    for n in WIDTHS:
        circuit = random_circuit(n, 4 * n, np.random.Generator(np.random.Philox(key=n)))
        dist, state = output_distribution(circuit), run(circuit)
        copies = range(1, POWER_CAP // n + 1)
        print(f"\nn={n}: {circuit.m} gates, r={R}, epsilon={EPSILON}")
        print(f"{'n':>2} {'m':>2} {'F':>9} {'add_bound':>9} {'add_ach':>9} {'mult_eps':>9}"
              f" {'mult_ach':>9} {'eps<1':>5} {'sbp_ratio':>9} {'sbp_ok':>6} {'gap':>9}"
              + "".join(f" {f'p_correct(k={k})':>16} {'cap':>12}" for k in copies))
        for m in range(1, 2 * n + 1):
            f = 2.0**-m
            add, mult = additive_certificate(dist, f), multiplicative_certificate(dist, f)
            sbp = sbp_thresholds(R, n, m, f, EPSILON)
            chains = [bound_chain(state, f, k) for k in copies]
            row = (f"{n:>2} {m:>2} {f:>9.3e} {add.bound:>9.3e} {add.achieved:>9.3e}"
                   f" {mult.bound:>9.3e} {mult.achieved:>9.3e} {mult.bound < 1!s:>5}"
                   f" {sbp.ratio:>9.3f} {sbp.sbp_ok!s:>6} {hardness_gap(0.75, 0.25, f, n).gap:>9.3e}")
            print(row + "".join(f" {c.p_correct:>16.12f} {0.5 + c.k * f / 2:>12.10f}" for c in chains))
            checks = {
                "additive certificate": add.passed,
                "multiplicative certificate": mult.passed,
                "bound chains": all(c.all_passed for c in chains),
                "sbp_ok exactly for m <= n - 2": sbp.sbp_ok == (m <= n - 2),
                "eps < 1 exactly for m >= n + 3": (mult.bound < 1) == (m >= n + 3),
            }
            failures += [f"n={n} m={m}: {name} fails" for name, ok in checks.items() if not ok]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
