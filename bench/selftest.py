"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

First runs each workload once through ``run.py`` at a one-second budget (and
tiny-draws once traced) and requires every check to pass.  Then feeds each
check a known-wrong output, either directly or by swapping one ngc_lab
function for a broken stand-in during a small trial, and requires the check
to fail.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
results: list[tuple[str, bool]] = []


def case(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok))
    print(f"{'ok  ' if ok else 'BAD '} {name}{': ' + detail if detail and not ok else ''}")


def expect_fail(name: str, failures: list[str], needle: str) -> None:
    case(f"rejects {name}", any(needle in f for f in failures), f"failures were {failures}")


@contextmanager
def swapped(owner, attr: str, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_workloads() -> None:
    for name, trace in [(w, 0) for w in workloads.WORKLOADS] + [("tiny-draws", 1)]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
            timeout=300,
        )
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            case(f"{name} trace={trace} runs", False, proc.stderr[-500:])
            continue
        good = proc.returncode == 0 and out["correct"] and out["attempted"] > 0 and out["failed"] == 0
        case(f"{name} trace={trace} passes its checks", good, proc.stderr[-500:])


def large_instance_cases() -> None:
    from ngc_lab import distributions as D
    from ngc_lab import instance_io as IO
    from ngc_lab import partitions as P
    from ngc_lab import protocols as PR
    from ngc_lab import streaming as S

    n, k, seeds = 280, 7, [11, 12, 13, 14]

    def trial_failures() -> list[str]:
        wl = workloads.LargeInstances(1)
        wl.trial(n, k, seeds, workloads.Meter())
        return wl.failures

    case("large-instances trial at n=280 k=7 passes", trial_failures() == [], str(trial_failures()))

    def census_minus_one_cycle(orig):
        def census(nv, edges):
            c = orig(nv, edges)
            length = next(iter(c.cycles))
            cycles = {**c.cycles, length: c.cycles[length] - 1}
            return dataclasses.replace(c, cycles=cycles, components=c.components - 1)

        return census

    with swapped(D, "census_of_edges", census_minus_one_cycle):
        expect_fail("a census with one cycle removed", trial_failures(), "census cycles")
    with swapped(S.CensusThetaDecision, "finalize", lambda f: lambda self, st: 1 - f(self, st)):
        expect_fail("a flipped streamed decision", trial_failures(), "streamed decision")
    with swapped(PR.FullForwardCensusProtocol, "bob", lambda f: lambda self, *a: 1 - f(self, *a)):
        expect_fail("a flipped protocol output", trial_failures(), "protocol output")
    with swapped(PR.FullForwardCensusProtocol, "alice", lambda f: lambda self, *a: f(self, *a) + b"\0"):
        expect_fail("a message longer than full forwarding", trial_failures(), "full forwarding")

    def all_to_alice(orig):
        def assign(edges, players, seed=None):
            a = orig(edges, players, seed)
            return dataclasses.replace(a, owner={e: P.ALICE for e in a.owner})

        return assign

    with swapped(P, "assign_uniform", all_to_alice):
        expect_fail("a split that gives Alice every edge", trial_failures(), "sigma from half")

    def drop_last_edge(orig):
        def parse(text):
            p = orig(text)
            return dataclasses.replace(p, edges=p.edges[:-1])

        return parse

    with swapped(IO, "parse_instance", drop_last_edge):
        expect_fail("a parsed file missing an edge", trial_failures(), "parsed file")

    def repeat_first_event(orig):
        def stream(*a, **kw):
            s = orig(*a, **kw)
            return dataclasses.replace(s, events=s.events[:-1] + s.events[:1])

        return stream

    with swapped(S, "stream_from_edges", repeat_first_event):
        expect_fail("a stream that repeats one edge and loses another", trial_failures(), "stream")

    edges = checks.edge_array([(0, 1), (1, 2), (2, 0), (0, 3)])
    expect_fail("a vertex of degree 3", checks.degree_failures(edges, 4), "degree 3")
    expect_fail("an endpoint outside 0..n-1", checks.degree_failures(edges, 3), "outside")


def tiny_draw_cases() -> None:
    from ngc_lab import distributions as D
    from ngc_lab import protocols as PR

    _, narrow = D.sample_dhx(5, 3, 21)
    _, record = PR.embed_dhx(narrow, 2, 4, 22, build_graph=False)
    wide = record.witness
    case("a real m=4 t=3 embedding passes", checks.embedding_failures(narrow, wide, 4, 2) == [])

    def flip(witness, gadget: int, slot: int):
        xs = [list(x) for x in witness.X]
        xs[gadget][slot] ^= 1
        return dataclasses.replace(witness, X=tuple(tuple(x) for x in xs))

    planted_slot = wide.Sigma[0][2 - 1] - 1
    expect_fail("an embedded witness whose planted bit is flipped", checks.embedding_failures(narrow, flip(wide, 0, planted_slot), 4, 2), "group 2 parity")
    free_slot = wide.Sigma[0][3 - 1] - 1
    expect_fail("a free group carrying the wrong hybrid parity", checks.embedding_failures(narrow, flip(wide, 0, free_slot), 4, 2), "group 3 parity")
    bad_sigma = dataclasses.replace(wide, Sigma=((1,) * 8,) + wide.Sigma[1:])
    expect_fail("a sigma that is not a permutation", checks.embedding_failures(narrow, bad_sigma, 4, 2), "not a permutation")
    bad_x = dataclasses.replace(wide, X=((2,) * 8,) + wide.X[1:])
    expect_fail("an x that is not a 0/1 vector", checks.embedding_failures(narrow, bad_x, 4, 2), "0/1 vector")

    _, seg = D.sample_dhx_segment(3, 2, 2, 23)
    _, seg_record = PR.embed_dhx_batched(seg, 1, 2, 2, 2, 24, build_graph=False)
    case("a real segment embedding passes", checks.embedding_failures(seg, seg_record.witness, 2, 1) == [])
    seg_wide = seg_record.witness
    xs = [[list(x) for x in row] for row in seg_wide.X]
    xs[1][1][seg_wide.Sigma[1][1][0] - 1] ^= 1
    seg_bad = dataclasses.replace(seg_wide, X=tuple(tuple(tuple(x) for x in row) for row in xs))
    expect_fail("a segment embedding whose planted bit is flipped", checks.embedding_failures(seg, seg_bad, 2, 1), "group 1 parity")

    case("the width-2 support at t=2 has 64 cells", len(checks.width2_support(2)) == 64)
    wl = workloads.TinyDraws(1)
    wl.SHAPES = (("block", 1, 1, 2, 128),)

    fixed = D.sample_dhx(2, 2, 0)[1]

    def one_cell(orig):
        return lambda *a, **kw: orig(fixed, 1, 1, 0, build_graph=False)

    with swapped(PR, "embed_dhx", one_cell):
        for index in range(8):
            wl.run_round(index, workloads.Meter())
    expect_fail("m=1 embeddings that fill one cell of the 64", wl.finish(), "rounds at p")

    uniform = [20] * 64
    skewed = [40] * 32 + [0] * 32
    case("a uniform 64-cell tally passes", checks.chi_square_p(uniform) > checks.P_FLOOR)
    expect_fail("a tally with half the cells empty, every round", checks.pvalue_failures("tally", [checks.chi_square_p(skewed)] * 60), "rounds at p")
    case("one low round in sixty passes", checks.pvalue_failures("tally", [0.5] * 59 + [1e-4]) == [])
    expect_fail("a round with no p-value", checks.pvalue_failures("tally", [0.5, math.nan]), "no p-value")


def claim_suite_cases() -> None:
    from ngc_lab import experiments as E

    law = checks.coverage_law(4)
    case("coverage law at k=4 enumerates to 6/256", law == Fraction(6, 256), str(law))
    case("capped activity at w=2 is (1 - (63/64)^2)/2", checks.capped_activity(2) == Fraction(127, 8192))
    trials = 100_000
    exact = round(float(law) * trials)
    case("a coverage count at the exact law passes", checks.rate_failures("coverage", exact, trials, float(law)) == [])
    off = round(4.0**-4 * trials)
    expect_fail("a coverage count many sigmas off the exact law", checks.rate_failures("coverage", off, trials, float(law)), "sigma from")
    expect_fail("a rate with no trials", checks.rate_failures("coverage", 0, 0, float(law)), "no trials")

    case("triangle-union estimate n/3 passes", checks.estimate_failures(_Estimate(2.0, 4), 6, 4) == [])
    expect_fail("an estimate off n/3", checks.estimate_failures(_Estimate(2.5, 4), 6, 4), "!= n/3")
    expect_fail("a dirty seed on a triangle union", checks.estimate_failures(_Estimate(2.0, 3), 6, 4), "dirty")

    replace = dataclasses.replace
    wl = workloads.ClaimSuites(1)

    def classify_half(orig):
        def suite(*a, **kw):
            res = orig(*a, **kw)
            rows = tuple(replace(r, value=0.5) if r.metric == "classify_correct" else r for r in res.rows)
            return replace(res, rows=rows)

        return suite

    with swapped(E, "walk_cover_suite", classify_half):
        wl.run_round(1, workloads.Meter())
    expect_fail("walk classification below 2/3", wl.failures, "classify_correct")

    wl = workloads.ClaimSuites(1)

    def drop_sigma1(orig):
        def suite(*a, **kw):
            res = orig(*a, **kw)
            return replace(res, rows=tuple(r for r in res.rows if r.metric != "sigma1_uniform_pvalue"))

        return suite

    with swapped(E, "partition_stats_suite", drop_sigma1):
        wl.run_round(1, workloads.Meter())
    expect_fail("a suite result missing its sigma(1) row", wl.failures, "missing")

    wl = workloads.ClaimSuites(1)
    wl.run_round(1, workloads.Meter())
    case("a claim-suites round passes", wl.failures == [] and wl.finish() == [], str(wl.failures + wl.finish()))
    count, n = wl.pooled["stochastic clean_prob"]
    wl.pooled["stochastic clean_prob"] = [count + 50, n]
    expect_fail("a stochastic clean count 50 over the pooled value", wl.finish(), "stochastic clean_prob")


@dataclasses.dataclass
class _Estimate:
    estimate: float
    clean_seeds: int


def main() -> int:
    workloads.import_package()
    run_workloads()
    large_instance_cases()
    tiny_draw_cases()
    claim_suite_cases()
    bad = [name for name, ok in results if not ok]
    print(f"{len(results) - len(bad)} of {len(results)} cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
