#!/usr/bin/env python3
"""Headline experiment: subspace controllability of three symmetric qutrits.

Closes the Lie algebra generated by the 8 local collective Gell-Mann
operators plus the symmetric two-body E3-E3 coupling, one block at a time,
then reports each block's rounds and margins (with the trace part of a run
that stopped at its bound), the closure path and the per-block verdicts.
Expected: su(10) on the symmetric sector, su(8) diagonally on the doubled
adjoint block, a 1-dimensional center component, total dimension 163.
"""

import argparse
import json
import time

from qsymlie import closure
from qsymlie.tolerances import RANK_TOL


def _sigma(value):
    return "-" if value is None else f"{value:.2e}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="qutrits:n=3:H",
                    choices=["qutrits:n=3:H", "qutrits:n=3:Sz2"])
    ap.add_argument("--out", default=None, help="also write the JSON report here")
    args = ap.parse_args()

    gens = closure.preset(args.preset)
    print(f"generators: {', '.join(gens.names)}")

    t0 = time.time()
    result = closure.lie_closure(gens)
    t_close = time.time() - t0
    print(f"closure: dim {result.dim}, path {result.path}, at most {result.rounds} rounds, "
          f"{result.offered} candidates offered, "
          f"saturated={result.saturated}, {t_close:.2f}s")
    for link in result.links:
        print(f"link test {link.labels[0]} / {link.labels[1]}: relative sigma "
              f"{link.plain:.2e} plain, {link.conjugate:.2e} conjugate, linked={link.linked}")

    # One closure per block (and one joint closure on the "joint" path).
    # Each batch accepts singular values above RANK_TOL; its margin is
    # the distance of the smallest accepted and largest rejected ones to it.
    for run in result.runs:
        print(f"\n{'joint closure' if run.label is None else f'block {run.label}'}: "
              f"dim {run.dim}, {run.rounds} rounds, {run.offered} offered")
        print(f"batch  traceless_dim  offered  accepted  smallest_accepted  "
              f"largest_rejected  (tol {RANK_TOL:g})")
        for i, t in enumerate(run.trace):
            print(f"{'seeds' if i == 0 else i:>5}  {t.dim:>13}  {t.offered:>7}  {t.accepted:>8}"
                  f"  {_sigma(t.smallest_accepted):>17}  {_sigma(t.largest_rejected):>16}")
        # A run that stops at its bound skips its last round; the trace part
        # of its rows, gated at RANK_TOL, stands in for that round.
        print(f"trace part at the bound: {_sigma(run.trace_part)}")

    report = closure.subspace_controllability(result)

    print("\nlabel        irrep_dim  mult  restricted_dim  ok")
    for b in report.per_block:
        print(f"{str(b.label):>10}  {b.irrep_dim:>8} {b.multiplicity:>5}"
              f" {b.restricted_dim:>14}   {b.ok}")
    print(f"\ncenter component dim: {report.center_component_dim}")
    print(f"total dim:            {report.total_dim}")
    print(f"subspace controllable: {report.subspace_controllable}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
