"""Line-oriented instance files.

Grammar (UTF-8, one record per line, `#` starts a comment):

    ngc-lab v1
    param n=<int> k=<int> w=<int> d=<int> theta=<0|1|?> m=<int> form=<block|segment> t=<int> [s=<int>]
    e <u> <v> [w=<int>] [b=<int>]
    x <i> <bitstring>                 (block witness, one line per cross vector)
    p <i> <g1> <g2> ...               (block witness, one line per permutation)
    x <i> <i'> <bitstring>            (segment witness)
    p <i> <i'> <g1> <g2> ...

`w=` carries an edge weight, `b=` a batch id; both optional per edge.  The
`t=` and, for segments, `s=` tokens keep witnessless files reconstructible
(a padded instance's k no longer determines the gadget count).  Output is
byte-stable: identical data serializes to identical text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator

import numpy as np

from .distributions import NgcInstance, Witness, canon
from .gadgets import Edge, _check_bits, _check_perm

MAGIC = "ngc-lab v1"


@dataclass
class ParsedInstance:
    """Everything a file can carry; witness/theta only present if revealed."""

    n: int
    k: int
    w: int
    d: int
    theta: int | None
    m: int
    form: str
    t: int
    s: int | None
    edges: list[Edge]
    weights: dict[Edge, int] | None
    batches: tuple[tuple[Edge, Edge], ...] | None
    witness: Witness | None


def serialize_instance(instance: NgcInstance, reveal: bool = False) -> str:
    theta_tok = "?" if (not reveal or instance.theta is None) else str(instance.theta)
    param = (
        f"param n={instance.n} k={instance.k} w={instance.width}"
        f" d={instance.k} theta={theta_tok} m={instance.m}"
        f" form={instance.form} t={instance.t}"
    )
    if instance.s is not None:
        param += f" s={instance.s}"

    # every edge record in one %-format pass over the flattened fields
    edges = instance.all_edges()
    record, rows = "e %d %d", edges
    if instance.weights is not None:
        record += " w=%d"
        weights = map(instance.weights.__getitem__, map(canon, edges))
        rows = [edge + (weight,) for edge, weight in zip(edges, weights)]
    records = (record + "\n") * len(rows)
    if instance.batches is not None:
        # augmentation edges come last and belong to no batch: no b= on theirs
        batch_id = {canon(e): b for b, batch in enumerate(instance.batches) for e in batch}
        batched = len(rows) - len(instance.extra_edges)
        rows = [row + (batch_id[canon(row[:2])],) for row in rows[:batched]] + rows[batched:]
        records = (record + " b=%d\n") * batched + (record + "\n") * (len(rows) - batched)
    text = f"{MAGIC}\n{param}\n" + records % tuple(chain.from_iterable(rows))

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


# A run of plain edge records, `e <u> <v>` with ASCII-digit ids short enough
# for int64, from a line start.  Runs are capped so that one run's text and
# array stay small next to the edge list.
_PLAIN_EDGE_RUN = re.compile(r"^(?:e [0-9]{1,18} [0-9]{1,18}\n){1,4096}", re.MULTILINE)


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, record) in file order, numbered as ``str.splitlines`` numbers lines.

    A run of plain edge records comes as one record, its text with every
    newline kept; every other line comes alone, without its line break.
    """
    lineno = pos = 0
    for run in _PLAIN_EDGE_RUN.finditer(text):
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


def _parse_records(records: Iterable[tuple[int, str]]) -> ParsedInstance:
    """The record loop over (line number, record) pairs in file order.

    A record ending in a newline is a run of plain edge records, converted in
    one numpy call; any other record is one line.
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

    edges: list[Edge] = []
    weights: dict[Edge, int] = {}
    batch_of: dict[int, list[Edge]] = {}
    batch_line: dict[int, int] = {}  # each batch's first edge record
    saw_weight = saw_batch = False
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
            if ln.endswith("\n"):  # the hot path: a run of plain edge records
                flat = np.fromstring(ln.replace("e", ""), dtype=np.int64, sep=" ")
                outside = flat >= n  # ASCII digits are never negative
                if outside.any():
                    at = int(outside.argmax()) // 2
                    lineno, ln = lineno + at, ln.split("\n")[at]
                    u, v = flat[2 * at : 2 * at + 2].tolist()
                    raise ValueError(f"edge ({u}, {v}) leaves the vertex range [0, {n})")
                flat = flat.tolist()
                edges += zip(flat[0::2], flat[1::2])
                continue
            tokens = ln.split()
            if not tokens:
                continue
            tag = tokens[0]
            if tag == "e":
                u, v = int(tokens[1]), int(tokens[2])
                if u < 0 or v < 0 or u >= n or v >= n:
                    raise ValueError(f"edge ({u}, {v}) leaves the vertex range [0, {n})")
                edges.append((u, v))
                for tok in tokens[3:]:
                    if tok.startswith("w="):
                        weights[canon((u, v))] = int(tok[2:])
                        saw_weight = True
                    elif tok.startswith("b="):
                        saw_batch = True
                        b = int(tok[2:])
                        batch_of.setdefault(b, []).append((u, v))
                        batch_line.setdefault(b, lineno)
                    else:
                        raise ValueError(f"unknown edge annotation {tok!r}")
            elif tag in ("x", "p"):
                key = tuple(int(tokens[i]) for i in range(1, 1 + key_len))
                if tag == "x":
                    row = x_lines[key] = _check_bits([int(c) for c in tokens[1 + key_len]])
                else:
                    row = p_lines[key] = _check_perm([int(c) for c in tokens[1 + key_len :]])
                witness_line.setdefault(key, lineno)
                if len(row) != sizes["w"]:
                    raise ValueError(f"witness line has width {len(row)}, expected w={sizes['w']}")
            elif not tag.startswith("#"):
                raise ValueError(f"unknown record tag {tag!r}")
    except IndexError:
        raise ValueError(f"line {lineno}: truncated record {ln.strip()!r}") from None
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc} in {ln.strip()!r}") from None

    if 2 * len(edges) < n:  # instance vertices are never isolated
        raise ValueError(
            f"line {param_lineno}: n={n} needs at least n/2 edge records, the file has {len(edges)}"
        )

    batches = None
    if saw_batch:
        pairs = []
        for b in sorted(batch_of):
            group = batch_of[b]
            if len(group) != 2:
                raise ValueError(
                    f"line {batch_line[b]}: batch {b} has {len(group)} edges, expected 2"
                )
            pairs.append((group[0], group[1]))
        batches = tuple(pairs)

    witness = None
    if x_lines or p_lines:
        unmatched = set(x_lines) ^ set(p_lines)
        if unmatched:
            where = min(map(witness_line.__getitem__, unmatched))
            raise ValueError(f"line {where}: witness x/p lines do not cover the same gadgets")
        shape = [max(key[i] for key in x_lines) for i in range(key_len)]
        keys = sorted(x_lines)  # row-major
        grid = list(product(*(range(1, size + 1) for size in shape)))
        if keys != grid:
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

    return ParsedInstance(
        theta=theta,
        form=form,
        s=s,
        **sizes,
        edges=edges,
        weights=weights if saw_weight else None,
        batches=batches,
        witness=witness,
    )


def write_instance(path: str, instance: NgcInstance, reveal: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance, reveal=reveal))


def read_instance(path: str) -> ParsedInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())
