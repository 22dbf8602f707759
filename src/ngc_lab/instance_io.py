"""Line-oriented instance files.

Grammar (UTF-8, one record per line, `#` starts a comment):

    ngc-lab v1
    param n=<int> k=<int> w=<int> d=<int> theta=<0|1|?> m=<int> form=<block|segment> t=<int> [s=<int>]
    e <u> <v> [w=<int>] [b=<int>]
    x <i> <bitstring>                 (block witness, one line per cross vector)
    p <i> <g1> <g2> ...               (block witness, one line per permutation)
    x <i> <i'> <bitstring>            (segment witness)
    p <i> <i'> <g1> <g2> ...

`w=` carries an edge weight, `b=` a batch id, each at most once per edge.
Weights are all or nothing: once one edge record carries `w=`, every one
must.  `b=` may be left off (augmentation edges belong to no batch).  The
`t=` and, for segments, `s=` tokens keep witnessless files reconstructible
(a padded instance's k no longer determines the gadget count).  Output is
byte-stable: identical data serializes to identical text.

Edge records travel as arrays both ways: the parser converts each run of
records of one form with one numpy call, and the writer formats every
record from the instance's edge array.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .distributions import NgcInstance, Witness
from .gadgets import EdgeView, _check_bits, invert_perm

MAGIC = "ngc-lab v1"


def _batch_order(batch_ids: np.ndarray) -> np.ndarray:
    """The records that carry a batch id, by id, and in file order within an id."""
    held = np.flatnonzero(batch_ids >= 0)
    return held[np.argsort(batch_ids[held], kind="stable")]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass
class ParsedInstance:
    """Everything a file can carry; witness/theta only present if revealed.

    The edge records are held as arrays in file order: ``edge_array`` (E, 2)
    int64, each record's ``w=`` in ``edge_weights`` and its ``b=`` in
    ``edge_batches`` ((E,) int64, -1 where a record has no ``b=``), either
    one None when no record carries that annotation.  The parser sets
    ``edges`` to an ``EdgeView`` of ``edge_array``, a view with no copy.
    """

    n: int
    k: int
    w: int
    d: int
    theta: int | None
    m: int
    form: str
    t: int
    s: int | None
    witness: Witness | None
    edge_array: np.ndarray
    edge_weights: np.ndarray | None
    edge_batches: np.ndarray | None
    edges: EdgeView

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParsedInstance):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _format_records(notes: tuple[str, ...], table: np.ndarray) -> str:
    """One line per row of an (R, c) int64 table: note i, then value i in decimal, per column.

    The text ``%d`` formatting writes, for values in [0, 2**63).  Every row
    starts as one template line, each column's note and a band of digit
    slots as wide as the column's longest value; the digits are written
    right-aligned in their band, and a mask drops the slots a value leaves
    unused.
    """
    columns = []
    for note, values in zip(notes, table.T):
        width = len(str(values.max(initial=0)))
        # up to nine digits fit int32, whose digit arithmetic is the cheaper
        columns.append((note, values.astype(np.int32 if width < 10 else np.int64), width))
    template = "".join(note + "0" * width for note, _, width in columns) + "\n"
    chars = np.tile(np.frombuffer(template.encode(), np.uint8), (len(table), 1))
    keep = np.ones(chars.shape, bool)
    at = 0
    for note, value, width in columns:
        at += len(note) + width - 1
        for col in range(at, at - width, -1):  # the units digit first
            if col < at:
                keep[:, col] = value > 0
            quotient = value // 10
            chars[:, col] = value - 10 * quotient + ord("0")
            value = quotient
        at += 1
    return chars[keep].tobytes().decode("ascii")


def serialize_instance(instance: NgcInstance, reveal: bool = False) -> str:
    theta_tok = "?" if (not reveal or instance.theta is None) else str(instance.theta)
    param = (
        f"param n={instance.n} k={instance.k} w={instance.width}"
        f" d={instance.k} theta={theta_tok} m={instance.m}"
        f" form={instance.form} t={instance.t}"
    )
    if instance.s is not None:
        param += f" s={instance.s}"

    # every edge record from the edge array, with its weight if augmented
    ends = instance.edge_array
    notes, table = ("e ", " "), ends
    if instance.W is not None:
        notes += (" w=",)
        table = np.column_stack([ends, instance.edge_weights])
    batched_edges = instance.batched_edges
    if batched_edges is None:
        records = _format_records(notes, table)
    else:
        # batch i is rows 2i and 2i + 1; the augmentation edges after them
        # belong to no batch: no b= on theirs
        batched = len(batched_edges)
        records = _format_records(
            notes + (" b=",), np.column_stack([table[:batched], np.arange(batched) // 2])
        ) + _format_records(notes, table[batched:])
    text = f"{MAGIC}\n{param}\n{records}"

    if reveal:
        wit = instance.witness
        gadgets = wit.gadgets
        t = len(wit.Sigma[0]) if wit.form == "segment" else None
        keys = [str(g + 1) if t is None else f"{g // t + 1} {g % t + 1}" for g in range(len(gadgets))]
        text += "".join(
            [f"x {key} {''.join(map(str, x))}\n" for key, (x, _) in zip(keys, gadgets)]
            + [f"p {key} {' '.join(map(str, perm))}\n" for key, (_, perm) in zip(keys, gadgets)]
        )
    return text


def _parse_param_line(line: str) -> dict[str, str]:
    tokens = line.split()
    if tokens[0] != "param":
        raise ValueError(f"expected param line, got {line!r}")
    out = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed param token {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


# A run of edge records of one form, `e <u> <v>` then ` w=<int>` and/or
# ` b=<int>` in that order, from a line start, every number ASCII digits
# short enough for int64.  Runs are capped so that one run's text and array
# stay small next to the edge array.  The repeats are possessive: a digit run
# ends at a space or line end, and nothing follows a run of lines.
_NUMBER = "[0-9]{1,18}+"
_EDGE_RUN = re.compile(
    "^(?:"
    + "|".join(
        f"(?:e {_NUMBER} {_NUMBER}{notes}\n){{1,4096}}+"
        for notes in ("", f" w={_NUMBER}", f" b={_NUMBER}", f" w={_NUMBER} b={_NUMBER}")
    )
    + ")",
    re.MULTILINE,
)


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, record) in file order, numbered as ``str.splitlines`` numbers lines.

    A run of edge records of one form comes as one record, its text with
    every newline kept; every other line comes alone, without its line break.
    """
    lineno = pos = 0
    for run in _EDGE_RUN.finditer(text):
        lines = text[pos : run.start()].splitlines()
        yield from enumerate(lines, start=lineno + 1)
        lineno += len(lines)
        yield lineno + 1, run.group()
        lineno += run.group().count("\n")
        pos = run.end()
    yield from enumerate(text[pos:].splitlines(), start=lineno + 1)


def parse_instance(text: str) -> ParsedInstance:
    """Parse a file's text; malformed input raises ValueError naming its line."""
    return _parse_records(_records(text))


def _edge_row(tokens: list[str], n: int) -> tuple[list[int], bool, bool]:
    """(row (u, v[, w][, b]), has w=, has b=) of one edge record's tokens."""
    u, v = int(tokens[1]), int(tokens[2])
    if u < 0 or v < 0 or u >= n or v >= n:
        raise ValueError(f"edge ({u}, {v}) leaves the vertex range [0, {n})")
    notes: dict[str, int] = {}
    for tok in tokens[3:]:
        key = tok[:2]
        if key not in ("w=", "b="):
            raise ValueError(f"unknown edge annotation {tok!r}")
        if key in notes:
            raise ValueError(f"edge annotation {key} given twice")
        low, sign = (0, "non-negative ") if key == "b=" else (-(2**63), "")
        notes[key] = int(tok[2:])
        if not low <= notes[key] < 2**63:
            raise ValueError(f"edge annotation {tok!r} is not a {sign}64-bit integer")
    row = [u, v] + [notes[key] for key in ("w=", "b=") if key in notes]
    return row, "w=" in notes, "b=" in notes


def _parse_records(records: Iterable[tuple[int, str]]) -> ParsedInstance:
    """The record loop over (line number, record) pairs in file order.

    A record ending in a newline is a run of edge records of one form,
    converted in one numpy call; any other record is one line.  Each edge
    record adds a row (u, v[, w][, b]) to the edge table, alone or with its run.
    """
    lines = iter(records)
    header = []  # the magic and param lines, the first two records
    for lineno, ln in lines:
        ln = ln.partition("\n")[0].strip()  # a run's first line: any run here is an error
        if ln and not ln.startswith("#"):
            header.append((lineno, ln))
            if len(header) == 2:
                break
    if not header or header[0][1] != MAGIC:
        where = f"line {header[0][0]}: " if header else ""
        raise ValueError(f"{where}bad or missing magic line (expected {MAGIC!r})")
    if len(header) < 2:
        raise ValueError(f"line {header[0][0]}: param line missing after the magic line")

    ends: list[np.ndarray] = []  # the (u, v) rows of each edge record or run
    weight_parts: list[np.ndarray | None] = []
    batch_parts: list[np.ndarray | None] = []
    part_record: list[int] = []  # each part's first record and its line
    part_line: list[int] = []
    count = 0
    unweighted = None  # (line, text) of the first edge record without w=
    x_lines: dict[tuple[int, ...], tuple[int, ...]] = {}
    p_lines: dict[tuple[int, ...], tuple[int, ...]] = {}
    witness_line: dict[tuple[int, ...], int] = {}  # each gadget's first witness record

    lineno, ln = header[1]
    param_lineno = lineno
    try:
        params = _parse_param_line(ln)
        for key in ("n", "k", "w", "d", "m", "form", "theta", "t"):
            if key not in params:
                raise ValueError(f"param line missing {key}=")
        form = params["form"]
        if form not in ("block", "segment"):
            raise ValueError(f"unknown form {form!r}")
        theta = None if params["theta"] == "?" else int(params["theta"])
        if theta not in (None, 0, 1):
            raise ValueError(f"theta must be 0, 1 or ?, got {params['theta']!r}")
        sizes = {key: int(params[key]) for key in ("n", "k", "w", "d", "m", "t")}
        n = sizes["n"]
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        w, d = sizes["w"], sizes["d"]  # every written file holds these three laws
        if n != 2 * w * d or d != sizes["k"] or w != 2 * sizes["m"]:
            raise ValueError("header breaks n = 2wd, d = k or w = 2m")
        s = int(params["s"]) if "s" in params else None
        key_len = 1 if form == "block" else 2

        for lineno, ln in lines:  # the records after the header
            if ln.endswith("\n"):  # the hot path: a run of edge records of one form
                head = ln[: ln.index("\n")]
                weighted, batched = " w=" in head, " b=" in head
                digits = ln.replace("e", "")
                if weighted or batched:
                    digits = digits.replace("w=", "").replace("b=", "")
                flat = np.fromstring(digits, dtype=np.int64, sep=" ")
                rows = flat.reshape(-1, 2 + weighted + batched)
                if rows[:, :2].max() >= n:  # ASCII digits are never negative
                    at = int((rows[:, :2] >= n).any(axis=1).argmax())
                    lineno, ln = lineno + at, ln.split("\n")[at]
                    u, v = rows[at, :2].tolist()
                    raise ValueError(f"edge ({u}, {v}) leaves the vertex range [0, {n})")
            else:
                tokens = ln.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                tag = tokens[0]
                if tag in ("x", "p"):
                    key = tuple(int(tokens[i]) for i in range(1, 1 + key_len))
                    if tag == "x":
                        row = x_lines[key] = _check_bits([int(c) for c in tokens[1 + key_len]])
                    else:
                        row = p_lines[key] = tuple(int(c) for c in tokens[1 + key_len :])
                        invert_perm(row)  # raises unless the row is a permutation
                    witness_line.setdefault(key, lineno)
                    if len(row) != sizes["w"]:
                        raise ValueError(f"witness line has width {len(row)}, expected w={sizes['w']}")
                    continue
                if tag != "e":
                    raise ValueError(f"unknown record tag {tag!r}")
                head = ln
                row, weighted, batched = _edge_row(tokens, n)
                rows = np.array([row], dtype=np.int64)
            part_record.append(count)
            part_line.append(lineno)
            count += len(rows)
            ends.append(rows[:, :2])
            weight_parts.append(rows[:, 2] if weighted else None)
            batch_parts.append(rows[:, -1] if batched else None)
            if not weighted and unweighted is None:
                unweighted = lineno, head
    except IndexError:
        raise ValueError(f"line {lineno}: truncated record {ln.strip()!r}") from None
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc} in {ln.strip()!r}") from None

    if 2 * count < n:  # instance vertices are never isolated
        raise ValueError(
            f"line {param_lineno}: n={n} needs at least n/2 edge records, the file has {count}"
        )
    edge_weights = None
    if unweighted is None:
        edge_weights = np.concatenate(weight_parts)
    elif any(part is not None for part in weight_parts):
        lineno, ln = unweighted
        raise ValueError(f"line {lineno}: edge record {ln.strip()!r} has no w=, other records do")

    edge_batches = None
    if any(part is not None for part in batch_parts):
        edge_batches = np.concatenate(
            [np.full(len(e), -1, np.int64) if b is None else b for e, b in zip(ends, batch_parts)]
        )
        order = _batch_order(edge_batches)
        ids, first, counts = np.unique(edge_batches[order], return_index=True, return_counts=True)
        bad = np.flatnonzero(counts != 2)
        if bad.size:
            b = bad[0]
            record = int(order[first[b]])
            part = bisect_right(part_record, record) - 1
            raise ValueError(
                f"line {part_line[part] + record - part_record[part]}:"
                f" batch {ids[b]} has {counts[b]} edges, expected 2"
            )

    witness = None
    if x_lines or p_lines:
        unmatched = set(x_lines) ^ set(p_lines)
        if unmatched:
            where = min(map(witness_line.__getitem__, unmatched))
            raise ValueError(f"line {where}: witness x/p lines do not cover the same gadgets")
        shape = [max(key[i] for key in x_lines) for i in range(key_len)]
        keys = sorted(x_lines)  # row-major
        # the grid's first keys, no more than there are lines: a hostile index costs one line
        size, last = math.prod(max(dim, 0) for dim in shape), shape[-1]
        grid = [(i // last + 1, i % last + 1)[-key_len:] for i in range(min(len(keys), size))]
        if keys != grid or len(keys) != size:
            # the first gadget out of place, or the last one when only the tail is missing
            off = next((i for i, (a, b) in enumerate(zip(keys, grid)) if a != b), len(grid))
            where = witness_line[keys[min(off, len(keys) - 1)]]
            grid_name = "1..t" if form == "block" else "an s x t grid"
            raise ValueError(f"line {where}: {form} witness lines are not {grid_name}")
        if form == "segment" and s is None:  # no s= in the header to hold the grid to
            s = shape[0]
        want = [sizes["t"]] if form == "block" else [s, sizes["t"]]
        if shape != want:
            got, said = (" x ".join(map(str, dims)) for dims in (shape, want))
            raise ValueError(
                f"line {param_lineno}: witness lines form a {got} grid, the header says {said}"
            )
        witness = Witness.from_gadgets(
            form, [x_lines[key] for key in keys], [p_lines[key] for key in keys], shape[-1]
        )

    edge_array = np.concatenate(ends)
    edge_array.flags.writeable = False
    return ParsedInstance(
        theta=theta,
        form=form,
        s=s,
        **sizes,
        witness=witness,
        edge_array=edge_array,
        edge_weights=edge_weights,
        edge_batches=edge_batches,
        edges=EdgeView(edge_array),
    )
