#!/usr/bin/env python3
"""Qubit ladder: closure dimensions of {i*Sx, i*Sy, i*Sz, i*Sz^2} for n qubits.

The generated algebra is the direct sum of su(dim V) over the non-isomorphic
spin blocks plus a single central direction, so its dimension is
sum((2j+1)^2 - 1) + 1 over j = n/2, n/2-1, ...
"""

import argparse
import time

from qsymlie import closure, reptheory


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    print(" n   closure  formula  controllable  seconds")
    for n in range(2, args.max_n + 1):
        t0 = time.time()
        result = closure.lie_closure(closure.preset(f"qubits:n={n}"))
        report = closure.subspace_controllability(result)
        formula = sum(
            reptheory.irrep_dimension(m) ** 2 - 1 for m in reptheory.cg_decompose(n, 2)
        ) + 1
        print(f"{n:>2} {result.dim:>9} {formula:>8}"
              f"  {str(report.subspace_controllable):>11}  {time.time() - t0:>7.2f}")


if __name__ == "__main__":
    main()
