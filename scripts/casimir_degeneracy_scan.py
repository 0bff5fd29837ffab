#!/usr/bin/env python3
"""Scan qutrit system sizes for quadratic-Casimir degeneracies.

For each n, lists the label pairs occurring in (C^3)^(x)n that share the
quadratic eigenvalue c2(p,q) and therefore need the cubic Casimir to be
separated.  The first collision appears at n = 6 with (3,0)/(0,3); the
12-qutrit case contains the (5,2)/(2,5) pair.
"""

import argparse
from collections import defaultdict

from qsymlie import reptheory


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=14)
    args = ap.parse_args()

    for n in range(1, args.max_n + 1):
        by_value = defaultdict(list)
        for label in reptheory.cg_decompose(n, 3):
            p, q = reptheory.quantum_numbers(label)
            by_value[reptheory.c2_eigenvalue(p, q)].append((p, q))
        collisions = {v: pqs for v, pqs in by_value.items() if len(pqs) > 1}
        if not collisions:
            print(f"n={n:>2}: C2 separates all {len(by_value)} labels")
        else:
            parts = "; ".join(
                f"c2={v}: {sorted(pqs)}" for v, pqs in sorted(collisions.items())
            )
            print(f"n={n:>2}: {len(collisions)} degenerate value(s) -> {parts}")


if __name__ == "__main__":
    main()
