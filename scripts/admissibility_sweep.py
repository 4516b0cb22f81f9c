"""Sweep the admissibility decision over a grid of (k, lambda) pairs and
write a summary CSV.  Each matched pair records its witnesses, as the Kimura
case and its integer shift; the summary prints how many pairs each case
admits and how sparse the admissible set is on the grid.

    python3 scripts/admissibility_sweep.py --out sweep.csv
"""

import argparse
import csv
import sys
from collections import Counter
from fractions import Fraction

from algpot.admissibility import check_pair_exact


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-min", type=int, default=-6)
    ap.add_argument("--k-max", type=int, default=6)
    ap.add_argument("--denominator", type=int, default=24)
    ap.add_argument("--a-bound", type=int, default=200)
    ap.add_argument("--out", type=str, default="admissibility_sweep.csv")
    args = ap.parse_args()

    rows = []
    cases = Counter()
    matched = 0
    total = 0
    for k in range(args.k_min, args.k_max + 1):
        if k == 0:
            continue
        for a in range(-args.a_bound, args.a_bound + 1):
            lam = Fraction(a, args.denominator)
            verdict = check_pair_exact(k, lam)
            total += 1
            if verdict.matched:
                matched += 1
                wit = ";".join(f"{w.case}@p={w.p}"
                               for w in verdict.witnesses)
                cases.update({w.case for w in verdict.witnesses})
                rows.append({"k": k, "lambda": str(lam), "witnesses": wit})

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["k", "lambda", "witnesses"])
        writer.writeheader()
        writer.writerows(rows)

    print(f"checked {total} pairs, {matched} admissible "
          f"({100.0 * matched / total:.2f}%)")
    for case, count in sorted(cases.items()):
        print(f"  {case}: {count} pairs")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
