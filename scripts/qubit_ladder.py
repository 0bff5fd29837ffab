#!/usr/bin/env python3
"""Qubit ladder: closure dimensions of {i*Sx, i*Sy, i*Sz, i*Sz^2} for n qubits.

The generated algebra is the direct sum of su(dim V) over the non-isomorphic
spin blocks plus a single central direction, so its dimension is
sum((2j+1)^2 - 1) + 1 over j = n/2, n/2-1, ...

"build s" is the time to build the preset, whose generators are words in
collective operators and form no 2^n x 2^n matrix, and "closure s" the time
of the closure and its verdicts, which read the words on each block.  The last two columns are the
closure's acceptance margins, in units of RANK_TOL, over every round of
every closure run: the smallest accepted and the largest rejected singular
value.
"""

import argparse
import time

from qsymlie import closure, reptheory
from qsymlie.tolerances import RANK_TOL


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    print(" n   closure  formula  controllable  build s  closure s  min accepted  max rejected")
    for n in range(2, args.max_n + 1):
        t0 = time.perf_counter()
        gens = closure.preset(f"qubits:n={n}")
        t1 = time.perf_counter()
        result = closure.lie_closure(gens)
        report = closure.subspace_controllability(result)
        t2 = time.perf_counter()
        formula = sum(
            reptheory.irrep_dimension(m) ** 2 - 1 for m in reptheory.cg_decompose(n, 2)
        ) + 1
        trace = [t for run in result.runs for t in run.trace]
        accepted = min(t.smallest_accepted for t in trace if t.smallest_accepted is not None)
        rejected = max((t.largest_rejected for t in trace if t.largest_rejected is not None),
                       default=0.0)
        print(f"{n:>2} {result.dim:>9} {formula:>8}"
              f"  {str(report.subspace_controllable):>11}  {t1 - t0:>7.2f}  {t2 - t1:>9.2f}"
              f"  {accepted / RANK_TOL:>12.2e}  {rejected / RANK_TOL:>12.2e}")


if __name__ == "__main__":
    main()
