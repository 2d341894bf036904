#!/usr/bin/env python3
"""Sweep the four bound claims over a (m, x) grid and emit one CSV table.

Exact counts and radii are compared against the claimed main terms; the
CSV has one row per (claim, m, x) cell with the signed discrepancy.

Usage:
    python scripts/bound_sweep.py --m 3 5 10 50 --x 100 1000 10000 --out bounds.csv
"""

import argparse
import csv
import sys

from ramify.claims import (
    claim_character_bounds,
    claim_circle,
    claim_double_sum,
    claim_lower_bound,
    claim_upper_bound,
    report_rows,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, nargs="+", default=[3, 5, 10, 50])
    ap.add_argument("--x", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = ap.parse_args()

    m_values = tuple(sorted(args.m))
    x_values = tuple(sorted(args.x))
    reports = [
        claim_upper_bound(m_values, x_values),
        claim_lower_bound(m_values, x_values),
        claim_double_sum(x_values),
        claim_circle(max(m_values), x_values),
        claim_character_bounds(m_values, x_values),
    ]

    rows = report_rows(reports)  # the rows of `ramify claims --format csv`

    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    csv.writer(fh, lineterminator="\n").writerows(rows)
    if fh is not sys.stdout:
        fh.close()
        print(f"wrote {len(rows) - 1} rows to {args.out}")
    for r in reports:
        if r.notes:
            print(f"# {r.claim_id}: {r.notes}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
