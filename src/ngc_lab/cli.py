"""Command-line front end: instance generation, validation, and experiment runs.

One table, ``EXPERIMENTS``, drives every experiment subcommand.  It lists each
command, and each ``stream-run --check``, with the suite from ``experiments``
it calls, its default ``--trials`` and its parameters.  The subparsers, the
config-file keys and their types, the required-key check and the call are all
read off it.  Values come from a key=value config file, overridden by flags;
a key the selected command or check does not read is a usage error, and a
missing default is the suite's own.  The CSV rows keep the fixed column order
(suite, params, metric, value, ci_low, ci_high, trials, seed) and are written
only once the suite has returned, so an interrupted run leaves no rows.  The
same values always produce byte-identical output.

Exit codes: 0 all checks passed, 1 a statistical check failed, 2 usage error,
3 an internal invariant was violated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable

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


def int_list(value: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty list or an empty item is an error."""
    return tuple(int(item) for item in value.split(","))


@dataclass(frozen=True)
class Param:
    """One config key: its flag spelling, the type that reads its value, and whether it is needed.

    The flag defaults to ``--key`` with ``-`` for ``_``.
    """

    key: str
    type: Callable[[str], Any] = int
    required: bool = True
    flag: str = ""
    help: str | None = None

    @property
    def option(self) -> str:
        return self.flag or "--" + self.key.replace("_", "-")


@dataclass(frozen=True)
class Experiment:
    """A suite, its default ``--trials``, and its parameters in the order it takes them.

    The required parameters go to the suite by position, then the trials; the
    others by keyword and only when set, so the suite's own default holds.
    """

    suite: Callable[..., ex.SuiteResult]
    trials: int
    params: tuple[Param, ...]


def _optional(key: str, help: str | None = None) -> Param:
    return Param(key, required=False, help=help)


# keys every experiment reads; the config path itself is a flag only
COMMON = (
    Param("seed", required=False),
    Param("out", str, required=False, help="CSV destination (default stdout)"),
    Param("trials", required=False),
)
_N, _K, _EPSILON = Param("n"), Param("k"), Param("epsilon", float)

# command -> (help, checks); stream-run selects one check with --check (the
# first by default), every other command has the one check None
EXPERIMENTS: dict[str, tuple[str, dict[str | None, Experiment]]] = {
    "partition-stats": ("ownership-pattern and activity statistics", {None: Experiment(
        ex.partition_stats_suite, 10_000,
        (Param("w"), _optional("tail_blocks"), _optional("sigma1_trials")),
    )}),
    "reduce-check": ("embedding forwarding claim and output law", {None: Experiment(
        ex.reduce_check_suite, 1_000, (
            Param("m"), Param("t"), _optional("tvd_samples"),
            _optional("s", "segment-form grid rows"),
        ),
    )}),
    "stream-run": ("streaming censuses, adapters, and detectors", {
        "census": Experiment(ex.stream_run_suite, 100, (_N, _K)),
        "adapter": Experiment(ex.adapter_suite, 100, (_N, _K, _optional("order_trials"))),
        "relay": Experiment(
            ex.l_player_suite, 100, (_N, _K, Param("s"), Param("t"), Param("l"))
        ),
        "combinatorial": Experiment(ex.combinatorial_suite, 100, (_N, _K)),
        "mst": Experiment(
            ex.mst_suite, 100, (_N, _K, Param("W", help="bridge weight for the MST check"))
        ),
        "estimator": Experiment(
            ex.estimator_suite, 100, (_N, _EPSILON, Param("r", help="estimator seed-set budget"))
        ),
        "curve": Experiment(ex.estimator_budget_curve, 100, (
            _N, _K, _EPSILON,
            Param("budgets", int_list, help="comma-separated r values for the curve"),
        )),
        "bob-only": Experiment(ex.bob_only_suite, 100, (_N, _K)),
    }),
    "bias-scan": ("support bias against the spectral bound", {None: Experiment(
        ex.bias_scan_suite, 10_000,
        (Param("m"), Param("log_a", flag="--logA"), Param("bias_k", flag="--k")),
    )}),
    "stochastic-stats": ("sampling-model absence/cleanness floors", {None: Experiment(
        ex.stochastic_stats_suite, 10_000, (Param("c", float), _optional("w")),
    )}),
    "walk-cover": ("walk-based cycle-length classification", {None: Experiment(
        ex.walk_cover_suite, 100, (Param("k"), Param("walks"), _optional("m")),
    )}),
}


def _command_params(command: str) -> dict[str, Param]:
    """Every key a command's flags or config file can set, by key, in flag order."""
    checks = EXPERIMENTS[command][1]
    params = {p.key: p for p in COMMON}
    if len(checks) > 1:
        params["check"] = Param("check", str, required=False)
    for entry in checks.values():
        params.update((p.key, p) for p in entry.params if p.key not in params)
    return params


# a key has one type wherever it is read
_KEYS = {key: p for command in EXPERIMENTS for key, p in _command_params(command).items()}


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


def resolve_config(args: argparse.Namespace) -> tuple[str, Experiment, dict[str, Any]]:
    """The selected check's name and entry, and its values: flags over the config file.

    A key the selected command or check does not pass to its suite, from a
    flag or from the file, is an error, not silently dropped.
    """
    checks = EXPERIMENTS[args.command][1]
    given: dict[str, tuple[str, Any]] = {}  # key -> (where it was set, value)
    if args.config:
        for key, (lineno, raw) in _load_config_file(args.config).items():
            if key not in _KEYS:
                raise ValueError(f"{args.config}:{lineno}: unknown config key {key!r}")
            where = f"{args.config}:{lineno}: {key}"
            try:
                given[key] = (where, _KEYS[key].type(raw))
            except ValueError as exc:
                raise ValueError(f"{where}={raw!r}: {exc}") from None
    for key, param in _command_params(args.command).items():
        if getattr(args, key) is not None:
            given[key] = (param.option, getattr(args, key))
    check = None
    if len(checks) > 1:
        where, check = given.pop("check", ("", next(iter(checks))))
        if check not in checks:
            raise ValueError(f"{where}: unknown check {check!r}")
    name = args.command if check is None else f"{args.command} --check {check}"
    entry = checks[check]
    reads = {p.key for p in COMMON + entry.params}
    for key, (where, _) in given.items():
        if key not in reads:
            raise ValueError(f"{where}: {name} does not read this key")
    return name, entry, {key: value for key, (_, value) in given.items()}


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

    for command, (help_text, checks) in EXPERIMENTS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        for param in _command_params(command).values():
            if param.key == "check":
                p.add_argument("--check", choices=tuple(checks))
            else:
                p.add_argument(param.option, dest=param.key, type=param.type, help=param.help)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args, parser)
        if args.command == "validate":
            return cmd_validate(args, parser)
        name, entry, values = resolve_config(args)
        missing = [p.option for p in entry.params if p.required and p.key not in values]
        if missing:
            parser.error(f"{name} needs {' '.join(missing)}")
        result = entry.suite(
            *(values[p.key] for p in entry.params if p.required),
            values.get("trials", entry.trials),
            seed=values.get("seed"),
            **{p.key: values[p.key] for p in entry.params if not p.required and p.key in values},
        )
        return _report(result, values.get("out"))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
