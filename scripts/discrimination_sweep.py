#!/usr/bin/env python3
"""Chart how distinguishability from the maximally mixed state decays.

For a random state on `--width` qubits and fidelities 2**-1 .. 2**-10,
prints the optimal k-copy success probability alongside the 1/2 + kF/2
ceiling, showing the advantage over a coin flip shrinking linearly in F.
"""

import argparse

from depolab import bound_chain, random_density_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--rank", type=int, default=None, help="1 for a pure state")
    args = parser.parse_args()

    rho = random_density_matrix(args.width, seed=args.seed, rank=args.rank)
    print(f"width={args.width}  seed={args.seed}  rank={args.rank or 'full'}")
    header = f"{'F':>12}"
    for k in range(1, args.k_max + 1):
        header += f" {'p_correct(k=%d)' % k:>16} {'cap':>10}"
    print(header)

    for exponent in range(1, 11):
        f = 2.0**-exponent
        row = f"{f:>12.6g}"
        for k in range(1, args.k_max + 1):
            report = bound_chain(rho, f, k)
            if not report.all_passed:
                raise SystemExit(f"bound chain failed at F={f}, k={k}")
            row += f" {report.p_correct:>16.12f} {0.5 + k * f / 2:>10.6f}"
        print(row)

    print("\nevery printed p_correct passed its full five-link bound chain")


if __name__ == "__main__":
    main()
