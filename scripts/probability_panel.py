#!/usr/bin/env python3
"""Run the probability-claim panel and print every measured rate as CSV.

One command that re-measures the package's statistical claims at a requested
trial budget: per-index ownership/cleanness rates and first-kept-slot
uniformity, the stochastic two-player sampling floors at a few overlap
parameters c, and the random-walk cycle-coverage rate.  Rows are CSV in the
same column order the ``ngc-lab`` tool emits, so the output can be
concatenated with its files.  Exit status 1 if any panel member fails its
tolerance.

Example:
    python3 scripts/probability_panel.py --trials 20000 --seed 7 --out panel.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

from ngc_lab.experiments import (
    CSV_COLUMNS,
    SuiteResult,
    partition_stats_suite,
    stochastic_stats_suite,
    walk_cover_suite,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20_000, help="per-member budget")
    ap.add_argument("--widths", default="2,64", help="comma-separated block widths")
    # the e^{-1.5c} / e^{-9c} floors are claims about the c >= 1 regime; below
    # c ~ 0.96 they rise above the true rates, so smaller values fail honestly
    ap.add_argument("--c-values", default="1.0,1.5,2.0", help="sampling overlap c list")
    ap.add_argument("--walk-k", type=int, default=4, help="depth for the walk member")
    ap.add_argument(
        "--walks", type=int, default=200_000, help="walks per instance (walk member)"
    )
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    results: list[SuiteResult] = []
    for i, tok in enumerate(args.widths.split(",")):
        w = int(tok)
        seed = None if args.seed is None else args.seed + i
        # the object loop gets the full budget; the vectorized first-slot
        # check is only emitted once the cap holds more than one index
        results.append(partition_stats_suite(w, args.trials, seed=seed))
    for i, tok in enumerate(args.c_values.split(",")):
        seed = None if args.seed is None else args.seed + 100 + i
        results.append(stochastic_stats_suite(float(tok), args.trials, seed=seed))
    walk_trials = max(10, min(100, args.trials // 200))
    results.append(
        walk_cover_suite(
            args.walk_k,
            args.walks,
            walk_trials,
            seed=None if args.seed is None else args.seed + 200,
        )
    )

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for result in results:
            for row in result.rows:
                writer.writerow(row.as_record())
    finally:
        if args.out:
            sink.close()

    failed = [f for result in results for f in result.failures]
    for failure in failed:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
