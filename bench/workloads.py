"""One workload in one process: set up, run rounds for --seconds, check, report.

Started by ``run.py``, never by hand.  The process imports ngc_lab from the
checkout's ``src`` (and refuses any other copy), builds the workload's fixed
inputs from ``--seed``, and prints ``READY``; ``run.py`` times set-up up to
that line.  With ``--setup-only`` it stops there.  Otherwise it runs whole
rounds until ``--seconds`` have passed after the first round, which warms
caches and is left out of the timing and the trace.  Only the calls into
ngc_lab are timed; the checks run between them.  The last line on stdout is
one JSON object with the outcome.

Calls into ngc_lab are timed on a ``speed.Meter``, which scales each call's
time to a reference machine speed; the unscaled rate is kept in the run
record.

Each trial's library seeds come from ``random.Random`` seeded with the
workload name, ``--seed`` and the round number, so a seed fixes every input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
from speed import Meter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_MESSAGES = 20


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import ngc_lab
    except ImportError as exc:
        print(f"bench: cannot import ngc_lab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(ngc_lab.__file__).resolve().parent != SRC / "ngc_lab":
        print(f"bench: imported ngc_lab from {ngc_lab.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return ngc_lab


class Workload:
    """Shared bookkeeping: failed operations, check failures, pooled statistics."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failed = 0
        self.failures: list[str] = []
        self.pooled: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.pvalues: dict[str, list[float]] = defaultdict(list)

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{round_index}")

    def fail(self, messages: list[str]) -> None:
        self.failures.extend(messages)

    def crashed(self, where: str, exc: Exception) -> None:
        self.failed += 1
        self.failures.append(f"{where}: {type(exc).__name__}: {exc}")

    def pool(self, label: str, count: int, trials: int) -> None:
        self.pooled[label][0] += count
        self.pooled[label][1] += trials

    def run_round(self, index: int, meter: Meter) -> int:
        """Run one round, timing calls into ngc_lab on `meter`; return trials attempted."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks over everything pooled."""
        return []


# --- large-instances --------------------------------------------------------------


class LargeInstances(Workload):
    """One round is one instance near n = 2^16 at k = 4, then one at k = 7."""

    name = "large-instances"
    SIZES = ((65536, 4), (65520, 7))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from ngc_lab import distributions, instance_io, partitions, protocols, streaming

        self.D, self.IO, self.P, self.PR, self.S = distributions, instance_io, partitions, protocols, streaming

    def run_round(self, index: int, meter: Meter) -> int:
        rng = self.rng(index)
        for n, k in self.SIZES:
            seeds = [rng.getrandbits(63) for _ in range(4)]
            try:
                self.trial(n, k, seeds, meter)
            except Exception as exc:  # a library fault: count it, keep running
                self.crashed(f"n={n} k={k}", exc)
        return len(self.SIZES)

    def trial(self, n: int, k: int, seeds: list[int], meter: Meter) -> None:
        D, IO, P, PR, S = self.D, self.IO, self.P, self.PR, self.S
        inst = meter.call(D.sample_ngc, n, k, seeds[0])
        edges = meter.call(inst.all_edges)
        census = meter.call(D.census_of_edges, n, edges)
        stream = meter.call(S.stream_from_edges, n, edges, "uniform_random", seed=seeds[1])
        decision = S.CensusThetaDecision(n, k)
        state = meter.call(decision.run, decision.init(), stream.events)
        decided = meter.call(decision.finalize, state)
        assignment = meter.call(P.assign_uniform, edges, 2, seed=seeds[2])
        protocol = PR.FullForwardCensusProtocol(n, k)
        result = meter.call(PR.run_protocol, protocol, inst, assignment, seed=seeds[3])
        text = meter.call(IO.serialize_instance, inst)
        parsed = meter.call(IO.parse_instance, text)

        theta = inst.theta
        if theta not in (0, 1):
            self.fail([f"n={n} k={k}: sampled theta {theta!r} is not a bit"])
            return
        emitted = checks.edge_array(edges)
        fails = checks.census_failures(census, n, k, theta)
        fails += checks.degree_failures(emitted, n)
        fails += checks.multiset_failures(checks.edge_array([e for e, _ in stream.events]), emitted, "stream")
        if decided != theta:
            fails.append(f"streamed decision {decided!r} != theta {theta}")
        if result.output != theta:
            fails.append(f"protocol output {result.output!r} != theta {theta}")
        owners = list(assignment.owner.values())
        if len(owners) != len(emitted):
            fails.append(f"split covers {len(owners)} of {len(emitted)} edges")
        alice = owners.count(P.ALICE)
        fails += checks.share_failures(alice, len(owners))
        want_bits = checks.message_bits_law(alice)
        if result.message_bits != want_bits:
            fails.append(f"message {result.message_bits} bits, full forwarding of {alice} edges is {want_bits}")
        fails += checks.multiset_failures(checks.edge_array(parsed.edges), emitted, "parsed file")
        self.fail([f"n={n} k={k}: {msg}" for msg in fails])


# --- tiny-draws -------------------------------------------------------------------


class TinyDraws(Workload):
    """c03/c04-shaped draws: a narrow witness and its embedding, many times.

    One round: 1280 block draws at m=1, t=2 (twenty per cell of the 64-cell
    support), 128 at m=4, t=3 and 64 segment draws on a 2 x 2 grid at m=2.
    """

    name = "tiny-draws"
    SHAPES = (("block", 1, 1, 2, 1280), ("block", 4, 1, 3, 128), ("segment", 2, 2, 2, 64))
    METER_EVERY = 64  # draws per timed stretch between speed probes

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from ngc_lab import distributions, protocols

        self.D, self.PR = distributions, protocols
        self.support = checks.width2_support(2)

    def run_round(self, index: int, meter: Meter) -> int:
        rng = self.rng(index)
        tally = [0] * len(self.support)
        trials = 0
        for form, m, s, t, count in self.SHAPES:
            busy = 0.0
            for i in range(1, count + 1):
                trials += 1
                h_star = rng.randrange(1, m + 1)
                s1, s2 = rng.getrandbits(63), rng.getrandbits(63)
                try:
                    busy += self.trial(form, m, s, t, h_star, s1, s2, tally)
                except Exception as exc:
                    self.crashed(f"{form} m={m} s={s} t={t}", exc)
                if i % self.METER_EVERY == 0 or i == count:
                    meter.add(busy)
                    busy = 0.0
        self.pvalues["m=1 t=2 embedded witness uniform over 64 cells"].append(checks.chi_square_p(tally))
        return trials

    def trial(self, form, m, s, t, h_star, s1, s2, tally) -> float:
        """One draw and its embedding, checked; returns the seconds spent in ngc_lab."""
        D, PR = self.D, self.PR
        t0 = time.perf_counter()
        if form == "block":
            _, narrow = D.sample_dhx(m + 1, t, s1)
            _, record = PR.embed_dhx(narrow, h_star, m, s2, build_graph=False)
        else:
            _, narrow = D.sample_dhx_segment(m + 1, s, t, s1)
            _, record = PR.embed_dhx_batched(narrow, h_star, m, s, t, s2, build_graph=False)
        busy = time.perf_counter() - t0

        wide = record.witness
        if wide.form != form:
            self.fail([f"{form} m={m}: embedded witness has form {wide.form!r}"])
            return busy
        fails = checks.embedding_failures(narrow, wide, m, h_star)
        if form == "block" and m == 1:
            cell = self.support.get((wide.X, wide.Sigma))
            if cell is None:
                fails.append(f"embedded witness {wide.X} {wide.Sigma} is outside the width-2 support")
            else:
                tally[cell] += 1
        self.fail([f"{form} m={m} s={s} t={t}: {msg}" for msg in fails])
        return busy

    def finish(self) -> list[str]:
        return [msg for label, ps in self.pvalues.items() for msg in checks.pvalue_failures(label, ps)]


# --- claim-suites -----------------------------------------------------------------


class ClaimSuites(Workload):
    """One round runs each stage once at its fixed budget, with fresh seeds."""

    name = "claim-suites"
    SMALL_W, SMALL_TRIALS = 2, 640
    WIDE_W, WIDE_TRIALS, SIGMA1_TRIALS = 512, 32, 20_000
    STOCH_C, STOCH_W, STOCH_TRIALS = 1.0, 16, 1000
    WALK_K, WALKS, WALK_TRIALS = 4, 4096, 8
    CC_VERTICES, CC_EPSILON, CC_SEEDS = 3 * 2**10, 0.25, 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from ngc_lab import experiments, streaming

        self.E, self.S = experiments, streaming
        self.law = {}
        for w in (self.SMALL_W, self.WIDE_W):
            self.law[f"w={w} clean_prob"] = 1 / 64
            self.law[f"w={w} active_prob"] = float(checks.capped_activity(w))
            self.law[f"w={w} active_prob_uncapped"] = 1 / 64
        for metric, p in checks.stochastic_laws(self.STOCH_W, 4, self.STOCH_C).items():
            self.law[f"stochastic {metric}"] = p
        self.law["walk coverage_rate"] = float(checks.coverage_law(self.WALK_K))
        self.triangles = checks.triangle_union(self.CC_VERTICES)

    def run_round(self, index: int, meter: Meter) -> int:
        rng = self.rng(index)
        seeds = [rng.getrandbits(63) for _ in range(6)]
        E, S = self.E, self.S
        try:
            small = meter.call(E.partition_stats_suite, self.SMALL_W, self.SMALL_TRIALS, seed=seeds[0])
            wide = meter.call(
                E.partition_stats_suite,
                self.WIDE_W,
                self.WIDE_TRIALS,
                seed=seeds[1],
                sigma1_trials=self.SIGMA1_TRIALS,
            )
            stoch = meter.call(
                E.stochastic_stats_suite, self.STOCH_C, self.STOCH_TRIALS, seed=seeds[2], w=self.STOCH_W
            )
            walk = meter.call(E.walk_cover_suite, self.WALK_K, self.WALKS, self.WALK_TRIALS, seed=seeds[3])
            stream = meter.call(
                S.stream_from_edges, self.CC_VERTICES, self.triangles, "uniform_random", seed=seeds[4]
            )
            estimate = meter.call(S.cc_estimate, stream, self.CC_EPSILON, self.CC_SEEDS, seed=seeds[5])
        except Exception as exc:
            self.crashed("round", exc)
            return 1
        self.check(small, wide, stoch, walk, estimate)
        return 1

    def rows(self, label: str, result, metrics: list[str]) -> dict:
        got = {row.metric: row for row in result.rows}
        missing = [m for m in metrics if m not in got]
        if missing:
            self.fail([f"{label}: rows {missing} missing"])
        return got

    def pool_row(self, label: str, row) -> None:
        count = round(row.value * row.trials)
        if abs(count - row.value * row.trials) > 1e-6:
            self.fail([f"{label}: {row.value!r} is not a count over {row.trials} trials"])
        self.pool(label, count, row.trials)

    def check(self, small, wide, stoch, walk, estimate) -> None:
        rates = ["clean_prob", "active_prob", "active_prob_uncapped"]
        for w, result, extra in (
            (self.SMALL_W, small, []),
            (self.WIDE_W, wide, ["sigma1_uniform_pvalue"]),
        ):
            got = self.rows(f"w={w}", result, ["ownership_pvalue", *rates, *extra])
            for metric in ["ownership_pvalue", *extra]:
                if metric in got:
                    self.pvalues[f"w={w} {metric}"].append(float(got[metric].value))
            for metric in rates:
                if metric in got:
                    self.pool_row(f"w={w} {metric}", got[metric])
        got = self.rows("stochastic", stoch, ["absent_prob", "alice_only_prob", "clean_prob"])
        for metric, row in got.items():
            self.pool_row(f"stochastic {metric}", row)
        got = self.rows("walk", walk, ["classify_correct"])
        if "classify_correct" in got and not got["classify_correct"].value >= 2 / 3:
            self.fail([f"walk classify_correct {got['classify_correct'].value!r} < 2/3"])
        if "coverage_rate" in got:
            self.pool_row("walk coverage_rate", got["coverage_rate"])
        self.fail(checks.estimate_failures(estimate, self.CC_VERTICES, self.CC_SEEDS))

    def finish(self) -> list[str]:
        out = [msg for label, ps in self.pvalues.items() for msg in checks.pvalue_failures(label, ps)]
        for label, p in self.law.items():
            count, trials = self.pooled[label]
            out += checks.rate_failures(label, count, trials, p)
        return out


WORKLOADS = {w.name: w for w in (LargeInstances, TinyDraws, ClaimSuites)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_package()
    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    attempted = workload.run_round(0, Meter())  # warm-up: checked, not timed
    if tracer is not None:
        tracer.reset()
    rates, raw_rates = [], []
    measured = 0
    index = 1
    start = time.perf_counter()
    while index == 1 or time.perf_counter() - start < args.seconds:
        meter = Meter()
        trials = workload.run_round(index, meter)
        attempted += trials
        measured += trials
        if meter.raw > 0:
            rates.append(trials / meter.scaled)
            raw_rates.append(trials / meter.raw)
        index += 1
    wall = time.perf_counter() - start

    failures = workload.failures + workload.finish()
    import numpy
    import scipy

    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": workload.failed,
        "trials_per_s": statistics.median(rates) if rates else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": index - 1,
        "measured_trials": measured,
        "measured_wall_s": wall,
        "raw_trials_per_s": statistics.median(raw_rates) if raw_rates else math.nan,
        "round_rates": rates,
        "failures": failures[:MAX_MESSAGES],
        "failure_count": len(failures),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        report["per_layer"] = tracer.metrics(measured)
        report["trace_file"] = str(
            (HERE / "out" / f"{args.workload}-seed{args.seed}.trace.npz").relative_to(HERE.parent)
        )
        tracer.save(HERE.parent / report["trace_file"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
