#!/usr/bin/env python3
"""Scan system sizes for the Casimir degeneracies of (C^d)^(x)n, d = 3, 4, 5.

For each d, reports the first n at which two labels share the quadratic
eigenvalue (the same content sum), so that C2 alone no longer separates
the isotypic blocks, and the first n at which two labels also share the
cubic one, so that C2 and C3 together no longer do (``isotypic_blocks``
raises there).  Both Casimirs are read off the exact key
``casimir._block_order``: (sum of the box contents, sum of their squares).
For d = 3 the first C2 tie is (4,1,1)/(3,3,0) at n = 6.

    python scripts/casimir_degeneracy_scan.py --max-n 30
"""

import argparse

from qsymlie.casimir import _block_order
from qsymlie.reptheory import cg_decompose


def first_tie(d, max_n, key):
    """(n, label, label) at the first n <= max_n where two labels share ``key``, or None."""
    for n in range(1, max_n + 1):
        seen = {}
        for label in cg_decompose(n, d):
            k = key(label)
            if k in seen:
                return n, seen[k], label
            seen[k] = label
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=30)
    args = ap.parse_args()

    for d in (3, 4, 5):
        for name, key in (("C2", lambda m: _block_order(m)[0]), ("C2 and C3", _block_order)):
            tie = first_tie(d, args.max_n, key)
            if tie is None:
                print(f"d={d}: {name} separate all labels for n <= {args.max_n}")
            else:
                n, a, b = tie
                print(f"d={d}: {name} first tie at n={n}: {a} / {b}")


if __name__ == "__main__":
    main()
