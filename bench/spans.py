"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public functions of each ngc_lab layer wherever
an ngc_lab module holds a reference to them, so calls between modules are
traced too.  Each call records a span (name, start, end, parent) in flat
arrays kept in memory; ``Tracer.save`` writes them out at the end.  A span's
self time is its duration minus the time its child spans cover.

Per-layer metrics are sums over the spans of named functions, divided by the
trials of the measured phase.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _assigned(args, kwargs, result) -> int:
    if result.owner is not None:
        return len(result.owner)
    return sum(len(sample) for sample in result.samples)


# span name -> what the span counts, from (args, kwargs, result)
COUNTERS = {
    "gadgets.to_edges": lambda a, kw, r: len(r),
    "distributions.census_of_edges": lambda a, kw, r: len(a[1] if len(a) > 1 else kw["edges"]),
    "partitions.assign_uniform": _assigned,
    "partitions.assign_by_functions": _assigned,
    "partitions.stochastic_assign": _assigned,
    "partitions.assign_batches": _assigned,
    "streaming.stream_from_edges": lambda a, kw, r: len(r.events),
    "protocols.run_protocol": lambda a, kw, r: r.message_bits,
    "instance_io.serialize_instance": lambda a, kw, r: len(r.encode()),
}


def span_names() -> list[str]:
    """Every traced function: those PER_LAYER names, plus each experiments suite."""
    from ngc_lab import experiments

    named = {span for _, _, spans in PER_LAYER.values() if spans for span in spans}
    suites = {f"experiments.{n}" for n in vars(experiments) if n.endswith("_suite")}
    return sorted(named | suites)


def resolve(span: str):
    """(owner, attribute) of a span name such as ``streaming.CensusThetaDecision.run``."""
    module, *path = span.split(".")
    owner = importlib.import_module(f"ngc_lab.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


SAMPLERS = [
    "distributions.sample_ngc",
    "distributions.sample_hybrid",
    "distributions.sample_dhx",
    "distributions.sample_dhx_segment",
    "distributions.sample_ngc_batched",
    "distributions.sample_hybrid_batched",
]
ASSIGNERS = [
    "partitions.assign_uniform",
    "partitions.assign_by_functions",
    "partitions.stochastic_assign",
    "partitions.assign_batches",
]
CLEANERS = ["partitions.clean_indices", "partitions.clean_indices_stochastic"]
RNG = ["seeds.Seed.rng", "seeds.Seed.generator"]
BUILD = ["gadgets.make_multi_block", "gadgets.make_multi_segment"]
EMBED = ["protocols.embed_dhx", "protocols.embed_dhx_batched"]
CHECKS = [
    "stats.binomial_check",
    "stats.chi_square_uniform",
    "stats.chi_square_expected",
    "stats.clopper_pearson",
]

# metric name -> (unit, what, span names); what is "ms" (self time), "calls"
# or "items" (the span's item counter)
PER_LAYER = {
    "seeds.rng_calls": ("count", "calls", RNG),
    "seeds.rng_ms": ("ms", "ms", RNG),
    "gadgets.build_calls": ("count", "calls", BUILD),
    "gadgets.build_ms": ("ms", "ms", BUILD),
    "gadgets.to_edges_calls": ("count", "calls", ["gadgets.to_edges"]),
    "gadgets.to_edges_ms": ("ms", "ms", ["gadgets.to_edges"]),
    "gadgets.edges_emitted": ("count", "items", ["gadgets.to_edges"]),
    "distributions.sample_ms": ("ms", "ms", SAMPLERS),
    "distributions.census_ms": ("ms", "ms", ["distributions.census_of_edges", "distributions.validate_instance"]),
    "distributions.census_edges": ("count", "items", ["distributions.census_of_edges"]),
    "partitions.assign_ms": ("ms", "ms", ASSIGNERS + ["partitions.random_partition_functions"]),
    "partitions.edges_assigned": ("count", "items", ASSIGNERS),
    "partitions.clean_ms": (
        "ms",
        "ms",
        CLEANERS + ["partitions.active_blocks", "partitions.index_ownership_pattern", "partitions.index_edges"],
    ),
    "partitions.clean_calls": ("count", "calls", CLEANERS),
    "streaming.stream_ms": ("ms", "ms", ["streaming.stream_from_edges", "streaming.make_stream"]),
    "streaming.events": ("count", "items", ["streaming.stream_from_edges"]),
    "streaming.decide_ms": (
        "ms",
        "ms",
        ["streaming.CensusThetaDecision.run", "streaming.CensusThetaDecision.finalize"],
    ),
    "streaming.cc_estimate_ms": ("ms", "ms", ["streaming.cc_estimate"]),
    "protocols.embed_ms": ("ms", "ms", EMBED),
    "protocols.embed_calls": ("count", "calls", EMBED),
    "protocols.run_protocol_ms": ("ms", "ms", ["protocols.run_protocol"]),
    "protocols.message_bits": ("bits", "items", ["protocols.run_protocol"]),
    "instance_io.serialize_ms": ("ms", "ms", ["instance_io.serialize_instance"]),
    "instance_io.parse_ms": ("ms", "ms", ["instance_io.parse_instance"]),
    "instance_io.bytes": ("bytes", "items", ["instance_io.serialize_instance"]),
    "experiments.suite_self_ms": ("ms", "ms", None),  # None: every experiments.*_suite span
    "stats.check_ms": ("ms", "ms", CHECKS),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop every span recorded so far (call between rounds)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items = array("q")
        self.stack = [-1]

    def _wrap(self, span: str, fn, counter):
        nid = len(self.names)
        self.names.append(span)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.items.append(0)
            tracer.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                tracer.items[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each target in its owner and in every ngc_lab module that imported it."""
        modules = [mod for name, mod in list(sys.modules.items()) if name == "ngc_lab" or name.startswith("ngc_lab.")]
        for span in span_names():
            owner, attr = resolve(span)
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original, COUNTERS.get(span))
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "items": np.frombuffer(self.items, dtype=np.int64).copy(),
        }

    def per_span(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time in ns, and summed item counts."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_ns = np.bincount(a["name"], weights=own, minlength=k)
        items = np.bincount(a["name"], weights=a["items"].astype(np.float64), minlength=k)
        return {
            span: {"calls": float(calls[i]), "self_ns": float(self_ns[i]), "items": float(items[i])}
            for i, span in enumerate(self.names)
        }

    def metrics(self, trials: int) -> dict[str, dict[str, float | str]]:
        spans = self.per_span()
        out = {}
        for metric, (unit, what, names) in PER_LAYER.items():
            if names is None:
                names = [s for s in spans if s.startswith("experiments.")]
            if what == "ms":
                total = sum(spans[s]["self_ns"] for s in names) / 1e6
            else:
                total = sum(spans[s][what] for s in names)
            out[metric] = {"value": total / trials, "unit": unit}
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
