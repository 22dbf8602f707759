"""Command-line front end: instance generation, validation, and experiment runs.

Every experiment subcommand resolves an ``ExperimentConfig`` (flags override a
key=value config file, which overrides defaults), runs the matching suite from
``experiments``, and writes CSV rows with the fixed column order (suite,
params, metric, value, ci_low, ci_high, trials, seed).  The rows are written
only once the suite has returned, so an interrupted run leaves no rows.  The
same config always produces byte-identical output.

Exit codes: 0 all checks passed, 1 a statistical check failed, 2 usage error,
3 an internal invariant was violated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

from . import experiments as ex
from .distributions import (
    census_law,
    census_of_edges,
    ngc_shape,
    pad_to_k,
    sample_hybrid,
    sample_ngc,
)
from .instance_io import parse_instance, serialize_instance
from .seeds import master_seed

GEN_DEFAULT_TRIALS = {
    "partition-stats": 10_000,
    "reduce-check": 1_000,
    "stream-run": 100,
    "bias-scan": 10_000,
    "stochastic-stats": 10_000,
    "walk-cover": 100,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on; equal configs give equal bytes."""

    suite: str
    n: int | None = None
    k: int | None = None
    m: int | None = None
    t: int | None = None
    s: int | None = None
    l: int | None = None
    w: int | None = None
    c: float | None = None
    epsilon: float | None = None
    W: int | None = None
    r: int | None = None
    log_a: int | None = None
    bias_k: int | None = None
    walks: int | None = None
    trials: int | None = None
    tvd_samples: int = 0
    sigma1_trials: int | None = None
    tail_blocks: int | None = None
    order_trials: int = 10_000
    budgets: tuple[int, ...] | None = None
    check: str = "census"
    method: str = "fast"
    seed: int | None = None
    out: str | None = None


def _load_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Each key's (line number, raw value); a later line overrides an earlier one."""
    values: dict[str, tuple[int, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = (lineno, value.strip())
    return values


_INT_KEYS = {
    "n", "k", "m", "t", "s", "l", "w", "W", "r", "log_a", "bias_k", "walks",
    "trials", "tvd_samples", "sigma1_trials", "tail_blocks", "order_trials", "seed",
}
_FLOAT_KEYS = {"c", "epsilon"}


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key == "budgets":
        return tuple(int(x) for x in value.split(",") if x)
    return value


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults < config file < explicit flags into one config.

    A file key must name a config field that the subcommand has a flag for:
    a key the subcommand does not read is an error, not silently dropped.
    """
    known = {f.name for f in fields(ExperimentConfig)}
    merged: dict = {"suite": args.suite}
    path = getattr(args, "config", None)
    if path:
        for key, (lineno, raw) in _load_config_file(path).items():
            if key not in known or key == "suite":
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                merged[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}={raw!r}: {exc}") from None
            if not hasattr(args, key):
                raise ValueError(f"{path}:{lineno}: {key}: {args.suite} does not read this key")
    for key in known:
        flag = getattr(args, key, None)
        if flag is not None and key != "suite":
            merged[key] = flag
    return ExperimentConfig(**merged)


# --- CSV ---------------------------------------------------------------------------


def _emit_rows(rows, out_path: str | None) -> None:
    """Write header + rows of a finished suite, flushing after each line."""
    sink = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
    try:
        sink.write(",".join(ex.CSV_COLUMNS) + "\n")
        sink.flush()
        for row in rows:
            sink.write(",".join(row.as_record()) + "\n")
            sink.flush()
    finally:
        if out_path:
            sink.close()


def _report(result: ex.SuiteResult, out_path: str | None) -> int:
    _emit_rows(result.rows, out_path)
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 0 if result.passed else 1


def _require(cfg: ExperimentConfig, parser: argparse.ArgumentParser, *names: str) -> None:
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        parser.error(f"{cfg.suite} needs --{' --'.join(m.replace('_', '-') for m in missing)}")


def _trials(cfg: ExperimentConfig) -> int:
    return cfg.trials if cfg.trials is not None else GEN_DEFAULT_TRIALS[cfg.suite]


# --- gen / validate ----------------------------------------------------------------


def _census_line(census) -> str:
    cyc = " ".join(f"{census.cycles[ln]}x{ln}" for ln in sorted(census.cycles))
    pat = " ".join(f"{census.paths[ln]}x{ln}" for ln in sorted(census.paths))
    return f"cycles {cyc or '-'} paths {pat or '-'}"


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    n, k = args.n, args.k
    try:
        m = ngc_shape(n, k)
    except ValueError as exc:
        parser.error(str(exc))
    core_k = k - (k - 1) % 3
    if core_k != k and not args.pad:
        parser.error(
            f"k={k} is not of the form 3t+1; pass --pad to fill the gap with identity layers"
        )
    seed = master_seed(args.seed)
    if args.theta is None:
        inst = sample_ngc(4 * core_k * m, core_k, seed)
    else:
        # hybrid endpoints are exactly the theta-conditioned draws
        inst = sample_hybrid(m, (core_k - 1) // 3, m if args.theta == 0 else 0, seed)
    inst = pad_to_k(inst, k)
    text = serialize_instance(inst, reveal=args.reveal)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    emitted = len(inst.edge_array)
    reparsed = len(parse_instance(text).edge_array)
    if emitted != reparsed:
        print(f"edge count mismatch: emitted {emitted}, re-parsed {reparsed}", file=sys.stderr)
        return 3
    census = census_of_edges(inst.n, inst.edge_array)
    print(f"edges {emitted}", file=sys.stderr)
    print(_census_line(census), file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    with open(args.path, encoding="utf-8") as fh:
        parsed = parse_instance(fh.read())
    census = census_of_edges(parsed.n, parsed.edge_array)
    if parsed.theta is None or parsed.edge_weights is not None:
        # nothing declared to check against: report the census and accept
        print(_census_line(census))
        return 0
    law = census_law(parsed.k, parsed.m, parsed.theta)
    if census.degree_violations:
        print("FAIL: vertex degree exceeds two")
        return 1
    if census.cycles != law.cycles:
        print("FAIL: cycle census mismatch")
        return 1
    if census.paths != law.paths:
        print("FAIL: path census mismatch")
        return 1
    (count,) = law.cycles.values()
    label = "k-cycles" if parsed.theta == 0 else "2k-cycles"
    print(f"OK: {count} {label}")
    return 0


# --- experiment dispatch -----------------------------------------------------------


def _run_partition_stats(cfg, parser) -> ex.SuiteResult:
    _require(cfg, parser, "w")
    return ex.partition_stats_suite(
        cfg.w,
        _trials(cfg),
        seed=cfg.seed,
        tail_blocks=cfg.tail_blocks,
        sigma1_trials=cfg.sigma1_trials,
    )


def _run_reduce_check(cfg, parser) -> ex.SuiteResult:
    _require(cfg, parser, "m", "t")
    return ex.reduce_check_suite(
        cfg.m, cfg.t, _trials(cfg), seed=cfg.seed, tvd_samples=cfg.tvd_samples, s=cfg.s
    )


def _run_stream_run(cfg, parser) -> ex.SuiteResult:
    if cfg.check == "census":
        _require(cfg, parser, "n", "k")
        return ex.stream_run_suite(cfg.n, cfg.k, _trials(cfg), seed=cfg.seed)
    if cfg.check == "adapter":
        _require(cfg, parser, "n", "k")
        return ex.adapter_suite(
            cfg.n, cfg.k, _trials(cfg), cfg.order_trials, seed=cfg.seed
        )
    if cfg.check == "relay":
        _require(cfg, parser, "n", "k", "s", "t", "l")
        return ex.l_player_suite(
            cfg.n, cfg.k, cfg.s, cfg.t, cfg.l, _trials(cfg), seed=cfg.seed
        )
    if cfg.check == "combinatorial":
        _require(cfg, parser, "n", "k")
        return ex.combinatorial_suite(cfg.n, cfg.k, _trials(cfg), seed=cfg.seed)
    if cfg.check == "mst":
        _require(cfg, parser, "n", "k", "W")
        return ex.mst_suite(cfg.n, cfg.k, cfg.W, _trials(cfg), seed=cfg.seed)
    if cfg.check == "estimator":
        _require(cfg, parser, "n", "epsilon", "r")
        return ex.estimator_suite(cfg.n, cfg.epsilon, cfg.r, _trials(cfg), seed=cfg.seed)
    if cfg.check == "curve":
        _require(cfg, parser, "n", "k", "epsilon", "budgets")
        return ex.estimator_budget_curve(
            cfg.n, cfg.k, cfg.epsilon, cfg.budgets, _trials(cfg), seed=cfg.seed
        )
    if cfg.check == "bob-only":
        _require(cfg, parser, "n", "k")
        return ex.bob_only_suite(cfg.n, cfg.k, _trials(cfg), seed=cfg.seed)
    parser.error(f"unknown --check {cfg.check!r}")
    raise AssertionError  # parser.error raises SystemExit


def _run_bias_scan(cfg, parser) -> ex.SuiteResult:
    _require(cfg, parser, "m", "log_a", "bias_k")
    return ex.bias_scan_suite(cfg.m, cfg.log_a, cfg.bias_k, _trials(cfg), seed=cfg.seed)


def _run_stochastic_stats(cfg, parser) -> ex.SuiteResult:
    _require(cfg, parser, "c")
    w = cfg.w if cfg.w is not None else 16
    return ex.stochastic_stats_suite(cfg.c, _trials(cfg), seed=cfg.seed, w=w)


def _run_walk_cover(cfg, parser) -> ex.SuiteResult:
    _require(cfg, parser, "k", "walks")
    m = cfg.m if cfg.m is not None else 8
    return ex.walk_cover_suite(
        cfg.k, cfg.walks, _trials(cfg), seed=cfg.seed, m=m, method=cfg.method
    )


_SUITE_RUNNERS = {
    "partition-stats": _run_partition_stats,
    "reduce-check": _run_reduce_check,
    "stream-run": _run_stream_run,
    "bias-scan": _run_bias_scan,
    "stochastic-stats": _run_stochastic_stats,
    "walk-cover": _run_walk_cover,
}


# --- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngc-lab",
        description="Desk-scale laboratory for noisy gap cycle counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample an instance and print/serialize it")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--theta", type=int, choices=(0, 1), default=None,
                     help="condition the draw on the crossing parity")
    gen.add_argument("--reveal", action="store_true",
                     help="include the witness and theta in the output")
    gen.add_argument("--pad", action="store_true",
                     help="allow depths that need identity padding")
    gen.add_argument("--out", default=None, help="write the instance here instead of stdout")

    val = sub.add_parser("validate", help="re-parse an instance file and check its census")
    val.add_argument("path")

    def add_experiment(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="CSV destination (default stdout)")
        p.add_argument("--trials", type=int, default=None)
        return p

    p = add_experiment("partition-stats", "ownership-pattern and activity statistics")
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--tail-blocks", dest="tail_blocks", type=int, default=None)
    p.add_argument("--sigma1-trials", dest="sigma1_trials", type=int, default=None)

    p = add_experiment("reduce-check", "embedding forwarding claim and output law")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--s", type=int, default=None, help="segment-form grid rows")
    p.add_argument("--tvd-samples", dest="tvd_samples", type=int, default=None)

    p = add_experiment("stream-run", "streaming censuses, adapters, and detectors")
    p.add_argument("--check", default=None, choices=(
        "census", "adapter", "relay", "combinatorial", "mst", "estimator", "curve", "bob-only",
    ))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--W", type=int, default=None, help="bridge weight for the MST check")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--r", type=int, default=None, help="estimator seed-set budget")
    p.add_argument("--budgets", type=lambda v: tuple(int(x) for x in v.split(",")),
                   default=None, help="comma-separated r values for the curve")
    p.add_argument("--order-trials", dest="order_trials", type=int, default=None)

    p = add_experiment("bias-scan", "support bias against the spectral bound")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--logA", dest="log_a", type=int, default=None)
    p.add_argument("--k", dest="bias_k", type=int, default=None)

    p = add_experiment("stochastic-stats", "sampling-model absence/cleanness floors")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--w", type=int, default=None)

    p = add_experiment("walk-cover", "walk-based cycle-length classification")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--walks", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--method", default=None, choices=("fast", "objects"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args, parser)
        if args.command == "validate":
            return cmd_validate(args, parser)
        args.suite = args.command
        cfg = resolve_config(args)
        result = _SUITE_RUNNERS[cfg.suite](cfg, parser)
        return _report(result, cfg.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
