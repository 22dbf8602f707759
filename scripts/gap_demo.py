#!/usr/bin/env python3
"""Show the theta gap on one pair of instances: censuses and problem values.

Draws one theta=0 and one theta=1 instance at the same (n, k), prints their
exact cycle/path censuses side by side, then the maximum matching, maximum
independent set, and minimum spanning tree values, and finally what the
count-threshold streaming decision says for each.  A quick eyeball check
that the two distributions differ only in how the long cycles close up —
and that every downstream quantity separates cleanly.

Example:
    python3 scripts/gap_demo.py --n 56 --k 7 --W 5 --seed 3
"""

from __future__ import annotations

import argparse

from ngc_lab.distributions import mst_augment, sample_hybrid, validate_instance
from ngc_lab.streaming import (
    CensusThetaDecision,
    make_stream,
    matching_size_exact,
    mis_size_exact,
    mst_weight_exact,
)


def census_text(census) -> str:
    cyc = " ".join(f"{v}x{k}" for k, v in sorted(census.cycles.items())) or "-"
    pth = " ".join(f"{v}x{k}" for k, v in sorted(census.paths.items())) or "-"
    return f"cycles {cyc} | paths(edges) {pth} | components {census.components}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=56)
    ap.add_argument("--k", type=int, default=7)
    ap.add_argument("--W", type=int, default=5, help="heavy weight for the MST row")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    n, k = args.n, args.k
    if k % 3 != 1 or k < 4:
        ap.error("k must be of the form 3t+1 with t >= 1")
    if n <= 0 or n % (4 * k):
        ap.error("n must be a positive multiple of 4k")
    m = n // (4 * k)
    t = (k - 1) // 3

    print(f"(n, k) = ({n}, {k});  m = {m} gadget pairs, {t} blocks deep\n")
    for theta in (0, 1):
        inst = sample_hybrid(m, t, m if theta == 0 else 0, seed=args.seed + theta)
        census = validate_instance(inst)
        edges = inst.all_edges()
        weighted = mst_augment(inst, args.W)
        triples = [(u, v, w) for (u, v), w in zip(weighted.all_edges(), weighted.edge_weights.tolist())]
        mst = mst_weight_exact(triples, weighted.n)
        decision = CensusThetaDecision(n, k)
        stream = make_stream(inst, "uniform_random", seed=args.seed + 10 + theta)
        guess = decision.finalize(decision.run(decision.init(), stream.events))
        print(f"theta = {theta}")
        print(f"  census    : {census_text(census)}")
        print(f"  matching  : {matching_size_exact(inst.n, edges)}")
        print(f"  indep set : {mis_size_exact(inst.n, edges)}")
        print(
            f"  mst       : weight {mst.weight} "
            f"({'spanning' if mst.spanning else f'{mst.components} components'}, W={args.W})"
        )
        print(f"  stream say: theta {guess}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
