"""Instance file round-trips, byte stability, and parse failures."""

from __future__ import annotations

import dataclasses
import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngc_lab.cli import main
from ngc_lab.distributions import (
    mst_augment,
    pad_to_k,
    sample_hybrid,
    sample_hybrid_batched,
    sample_ngc,
    sample_ngc_batched,
)
from ngc_lab.instance_io import _EDGE_RUN, MAGIC, parse_instance, serialize_instance

from oracles import REFERENCE_EDGE_RUN, parse_instance_by_lines, reference_edge_records


def batch_pairs(parsed):
    """The (B, 2, 2) edges of each batch id, by id, in file order within an id."""
    held = np.flatnonzero(parsed.edge_batches >= 0)
    order = held[np.argsort(parsed.edge_batches[held], kind="stable")]
    return parsed.edge_array[order].reshape(-1, 2, 2)


def same_annotations(parsed, inst):
    """The file's weights are the instance's row weights, and its batches pairs of its rows."""
    if inst.W is None:
        assert parsed.edge_weights is None
    else:
        assert np.array_equal(parsed.edge_weights, inst.edge_weights)
    if inst.batched_edges is None:
        assert parsed.edge_batches is None
    else:
        assert np.array_equal(batch_pairs(parsed), inst.batched_edges.reshape(-1, 2, 2))


def test_header_shape():
    inst = sample_ngc(28, 7, seed=1)
    text = serialize_instance(inst)
    lines = text.splitlines()
    assert lines[0] == MAGIC
    assert lines[1] == (
        f"param n=28 k=7 w=2 d=7 theta=? m=1 form=block t=2"
    )
    assert text.endswith("\n")


def test_round_trip_plain_hidden():
    inst = sample_ngc(56, 7, seed=2)
    parsed = parse_instance(serialize_instance(inst, reveal=False))
    assert (parsed.n, parsed.k, parsed.w, parsed.d) == (56, 7, 4, 7)
    assert (parsed.m, parsed.form, parsed.t, parsed.s) == (2, "block", 2, None)
    assert parsed.theta is None and parsed.witness is None
    assert parsed.edge_weights is None and parsed.edge_batches is None
    assert parsed.edges == inst.all_edges()


def test_round_trip_revealed():
    inst = sample_ngc(56, 7, seed=3)
    parsed = parse_instance(serialize_instance(inst, reveal=True))
    assert parsed.theta == inst.theta
    assert parsed.witness == inst.witness
    assert parsed.edges == inst.all_edges()


def test_reveal_of_mid_hybrid_keeps_theta_hidden():
    inst = sample_hybrid(3, 1, h=2, seed=4)
    text = serialize_instance(inst, reveal=True)
    parsed = parse_instance(text)
    assert "theta=?" in text.splitlines()[1]
    assert parsed.theta is None
    assert parsed.witness == inst.witness


def test_round_trip_weighted():
    inst = mst_augment(sample_ngc(56, 7, seed=5), W=5)
    text = serialize_instance(inst, reveal=True)
    parsed = parse_instance(text)
    weights = parsed.edge_weights.tolist()
    bridges = len(weights) - 4 * inst.m  # the m bridges lead the augmentation rows
    assert weights == [1] * bridges + [5] * inst.m + [1] * (3 * inst.m)
    same_annotations(parsed, inst)
    assert parsed.edges == inst.all_edges()


def test_round_trip_batched_segment():
    inst = sample_ngc_batched(n=120, k=15, s=2, t=3, seed=6)
    text = serialize_instance(inst, reveal=True)
    parsed = parse_instance(text)
    assert parsed.form == "segment"
    assert parsed.s == 2 and parsed.t == 3
    same_annotations(parsed, inst)
    assert parsed.witness == inst.witness
    assert parsed.edges == inst.all_edges()


def test_round_trip_augmented_batched():
    # the augmentation edges belong to no batch: their records carry no b=
    inst = mst_augment(sample_ngc_batched(56, 7, 2, 1, 3), 5)
    text = serialize_instance(inst, reveal=True)
    records = [ln for ln in text.splitlines() if ln.startswith("e ")]
    extra = len(inst.extra_edges)
    assert all(" b=" in rec for rec in records[:-extra])
    assert not any(" b=" in rec for rec in records[-extra:])
    parsed = parse_instance(text)
    same_annotations(parsed, inst)
    assert parsed.witness == inst.witness
    assert parsed.edges == inst.all_edges()


def test_round_trip_padded():
    for k in (8, 9):
        inst = pad_to_k(sample_ngc(56, 7, seed=7), k)
        parsed = parse_instance(serialize_instance(inst, reveal=True))
        assert parsed.k == k
        assert parsed.t == 2  # gadget count survives padding
        assert parsed.d == k
        assert parsed.witness == inst.witness
        assert parsed.edges == inst.all_edges()


def test_revealed_files_match_pinned_digest():
    # recorded before instances read their graph, closers and batches off the
    # witness at depth k (the hybrids then asked for their closers)
    instances = [
        pad_to_k(sample_hybrid(3, 2, 1, 21), 9),
        sample_ngc_batched(4 * 11 * 2, 11, 2, 2, 22),
        pad_to_k(sample_ngc_batched(4 * 7 * 3, 7, 2, 1, 23), 8),
        pad_to_k(sample_hybrid_batched(2, 1, 2, 1, 24), 8),
        mst_augment(pad_to_k(sample_ngc(4 * 7 * 3, 7, 25), 8), 5),
    ]
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(serialize_instance(inst, reveal=True).encode())
    assert digest.hexdigest() == "91edf63c9b612c67cc353e1de8866e38dd82d1396f68029949477cc209b219f7"


def test_byte_stability():
    inst = sample_ngc_batched(n=64, k=4, s=1, t=1, seed=8)
    assert serialize_instance(inst, reveal=True) == serialize_instance(
        inst, reveal=True
    )
    assert serialize_instance(inst) == serialize_instance(inst)


def test_file_round_trip(tmp_path):
    inst = mst_augment(sample_ngc(56, 7, seed=9), W=3)
    path = tmp_path / "instance.ngc"
    path.write_text(serialize_instance(inst, reveal=True), encoding="utf-8")
    parsed = parse_instance(path.read_text(encoding="utf-8"))
    assert parsed.edges == inst.all_edges()
    assert parsed.witness == inst.witness
    # re-serializing a second time writes identical bytes
    first = path.read_text()
    path.write_text(serialize_instance(inst, reveal=True), encoding="utf-8")
    assert path.read_text() == first


def test_comments_and_blank_lines_ignored():
    inst = sample_ngc(28, 7, seed=10)
    lines = serialize_instance(inst, reveal=True).splitlines()
    noisy = ["# generated for a test", "", lines[0], "   ", *lines[1:3],
             "# mid-file comment", *lines[3:]]
    parsed = parse_instance("\n".join(noisy))
    assert parsed.edges == inst.all_edges()
    assert parsed.witness == inst.witness


def test_parse_rejects_bad_magic():
    with pytest.raises(ValueError):
        parse_instance("ngc-lab v2\nparam n=1 k=4 w=1 d=4 theta=? m=1 form=block t=1\n")
    with pytest.raises(ValueError):
        parse_instance("")


def make_minimal_text(**overrides):
    params = {
        "n": 16, "k": 4, "w": 2, "d": 4, "theta": "?",
        "m": 1, "form": "block", "t": 1,
    }
    params.update(overrides)
    tokens = " ".join(f"{key}={params[key]}" for key in params)
    return f"{MAGIC}\nparam {tokens}\ne 0 1\n"


def test_parse_rejects_malformed_params():
    with pytest.raises(ValueError):
        parse_instance(make_minimal_text(theta=3))
    with pytest.raises(ValueError):
        parse_instance(make_minimal_text(form="tree"))
    missing_t = make_minimal_text().replace(" t=1", "")
    with pytest.raises(ValueError):
        parse_instance(missing_t)
    with pytest.raises(ValueError):
        parse_instance(f"{MAGIC}\nparam n=16 oops\ne 0 1\n")
    with pytest.raises(ValueError):
        parse_instance(f"{MAGIC}\ne 0 1\n")


def test_parse_rejects_bad_records():
    base = make_minimal_text()
    with pytest.raises(ValueError):
        parse_instance(base + "q 1 2\n")
    with pytest.raises(ValueError):
        parse_instance(base + "e 2 3 color=red\n")


def test_parse_rejects_incomplete_batches_and_witnesses():
    base = make_minimal_text()
    with pytest.raises(ValueError):
        parse_instance(base.replace("e 0 1", "e 0 1 b=0"))  # lone batch member
    with pytest.raises(ValueError):
        parse_instance(base + "x 1 01\n")  # x without matching p
    with pytest.raises(ValueError):
        parse_instance(base + "x 2 01\np 2 1 2\n")  # gadget 1 missing


# --- bulk edge records against the one-line-at-a-time references ---------------------


FILES = {
    "block": serialize_instance(sample_ngc(56, 7, seed=21)),
    "block-revealed": serialize_instance(sample_ngc(28, 7, seed=22), reveal=True),
    "segment-batched-revealed": serialize_instance(
        sample_ngc_batched(n=56, k=7, s=2, t=1, seed=23), reveal=True
    ),
    "weighted-revealed": serialize_instance(
        mst_augment(sample_ngc(28, 7, seed=24), W=4), reveal=True
    ),
    "augmented-batched-revealed": serialize_instance(
        mst_augment(sample_ngc_batched(56, 7, 2, 1, 20), 5), reveal=True
    ),
}


@pytest.mark.parametrize(
    "inst",
    [
        sample_ngc(56, 7, seed=25),
        mst_augment(sample_ngc(56, 7, seed=26), W=5),
        sample_ngc_batched(n=120, k=15, s=2, t=3, seed=27),
        mst_augment(sample_ngc_batched(56, 7, 2, 1, 3), 5),
        mst_augment(pad_to_k(sample_ngc_batched(56, 7, 2, 1, 29), 9), 5),
        sample_ngc_batched(9100, 7, 2, 1, 30),  # 8,450 edges: three runs of b= records
        mst_augment(sample_ngc(56, 7, seed=31), W=2**63 - 1),  # 19 digits: the int64 route
    ],
    ids=[
        "plain",
        "weighted",
        "batched",
        "augmented-batched",
        "padded-augmented",
        "batched-8k",
        "widest-weight",
    ],
)
def test_edge_records_match_the_per_edge_format(inst):
    lines = serialize_instance(inst, reveal=True).splitlines()
    records = reference_edge_records(inst)
    assert lines[2 : 2 + len(records)] == records
    assert not lines[2 + len(records)].startswith("e ")


def test_long_edge_runs_keep_line_numbers():
    inst = sample_ngc(8192, 4, seed=28)  # 7,168 edges: one capped run and part of the next
    lines = serialize_instance(inst).splitlines()
    assert parse_instance("\n".join(lines) + "\n").edges == inst.all_edges()
    for at in (2, 2 + 4095, 2 + 4096, len(lines) - 1):
        bad = lines[:at] + ["e 5 8192"] + lines[at:]
        with pytest.raises(ValueError, match=rf"^line {at + 1}: edge \(5, 8192\) leaves"):
            parse_instance("\n".join(bad) + "\n")


NON_ASCII_DIGITS = "\u0663\uff17\u09e8"  # Arabic-Indic 3, fullwidth 7, Bengali 2


@st.composite
def mutated_files(draw):
    lines = FILES[draw(st.sampled_from(sorted(FILES)))].split("\n")
    n = int(lines[1].split()[1][2:])
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        op = draw(
            st.sampled_from(
                ["delete", "duplicate", "move", "digit", "space", "cr", "id", "id", "non-ascii"]
                + ["drop-note", "repeat-note", "bad-note"]
            )
        )
        line = lines[i]
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, line)
        elif op == "move":
            lines.insert(j, lines.pop(i))
        elif op == "space":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(st.sampled_from([" ", "\t", "  ", "\x0b"])) + line[at:]
        elif op == "cr":
            lines[i] = line + "\r"
        elif op == "id":  # an over-long, zero-padded or out-of-range id
            tokens = line.split(" ")
            ids = [k for k, tok in enumerate(tokens) if tok.isdigit()]
            if ids:
                k = draw(st.sampled_from(ids))
                choices = ["0" * 20 + tokens[k], "9" * 19, str(n), str(n + 3)]
                tokens[k] = draw(st.sampled_from(choices))
                lines[i] = " ".join(tokens)
        elif op.endswith("-note"):  # an edge annotation left off, given twice or not an integer
            tokens = line.split(" ")
            notes = [k for k, tok in enumerate(tokens) if tok.startswith(("w=", "b="))]
            if notes:
                k = draw(st.sampled_from(notes))
                if op == "drop-note":
                    del tokens[k]
                elif op == "repeat-note":
                    tokens.insert(k + 1, tokens[k][:2] + draw(st.sampled_from(["0", "1", "7"])))
                else:
                    tokens[k] = tokens[k][:2] + draw(st.sampled_from(["", "x", "1.5", "0x1", "-"]))
                lines[i] = " ".join(tokens)
        else:
            digits = [k for k, c in enumerate(line) if c.isdigit()]
            if digits:
                at = draw(st.sampled_from(digits))
                new = draw(st.sampled_from("0123456789" if op == "digit" else NON_ASCII_DIGITS))
                lines[i] = line[:at] + new + line[at + 1 :]
    text = "\n".join(lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutated_files())
def test_mutated_files_parse_as_the_line_loop_and_validate_cleanly(tmp_path, capsys, text):
    got = parse_outcome(parse_instance, text)
    assert got == parse_outcome(parse_instance_by_lines, text)
    path = tmp_path / "mutated.txt"
    path.write_text(text, encoding="utf-8")
    code = main(["validate", str(path)])
    assert code in (0, 1, 2)
    assert (code == 2) == isinstance(got, str)
    capsys.readouterr()


@settings(max_examples=300, deadline=None)
@given(mutated_files())
def test_possessive_edge_runs_match_the_backtracking_pattern(text):
    def spans(pattern):
        return [run.span() for run in pattern.finditer(text)]

    assert spans(_EDGE_RUN) == spans(REFERENCE_EDGE_RUN)


@pytest.mark.parametrize(
    "edits, message",
    [
        ([(5, " w=1", "")], "line 6: edge record 'e 3 15 b=1' has no w=, other records do"),
        (
            [(9, " w=1", ""), (4, " w=1", "")],
            "line 5: edge record 'e 2 14 b=1' has no w=, other records do",
        ),
        (
            [(3, " w=1", " w=1 w=9")],
            "line 4: edge annotation w= given twice in 'e 1 11 w=1 w=9 b=0'",
        ),
        (
            [(3, " b=0", " b=0 b=0")],
            "line 4: edge annotation b= given twice in 'e 1 11 w=1 b=0 b=0'",
        ),
        ([(6, " b=2", " b=99")], "line 8: batch 2 has 1 edges, expected 2"),
        (
            [(4, " w=1", f" w={2**63}")],
            f"line 5: edge annotation 'w={2**63}' is not a 64-bit integer"
            f" in 'e 2 14 w={2**63} b=1'",
        ),
        (
            [(4, " b=1", " b=-1")],
            "line 5: edge annotation 'b=-1' is not a non-negative 64-bit integer"
            " in 'e 2 14 w=1 b=-1'",
        ),
    ],
)
def test_annotation_errors_name_their_record(edits, message):
    lines = serialize_instance(mst_augment(sample_ngc_batched(56, 7, 2, 1, 3), 5)).splitlines()
    for at, old, new in edits:
        lines[at] = lines[at].replace(old, new)
    text = "\n".join(lines) + "\n"
    for parse in (parse_instance, parse_instance_by_lines):
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == message


def test_derived_fields_read_the_arrays_unless_given():
    inst = mst_augment(sample_ngc_batched(56, 7, 2, 1, 3), 5)
    parsed = parse_instance(serialize_instance(inst))
    assert parsed.edge_array.dtype == np.int64
    assert np.array_equal(parsed.edge_array, inst.edge_array)
    assert parsed.edge_batches[-len(inst.extra_edges) :].tolist() == [-1] * len(inst.extra_edges)
    assert parsed.edges == inst.all_edges()
    same_annotations(parsed, inst)
    trimmed = dataclasses.replace(parsed, edges=parsed.edges[:-1])
    assert trimmed.edges == inst.all_edges()[:-1]
    assert trimmed != parsed


# --- the bulk parse against the line loop, on whole files of every kind -------------------


DIFF_KINDS = {
    "plain": lambda long: sample_ngc(8192, 4, 31) if long else sample_ngc(56, 7, 31),
    "weighted": lambda long: mst_augment(DIFF_KINDS["plain"](long), 5),
    "batched": lambda long: sample_ngc_batched(4480 if long else 56, 7, 2, 1, 33),
    "augmented-batched": lambda long: mst_augment(DIFF_KINDS["batched"](long), 5),
    "padded": lambda long: mst_augment(pad_to_k(DIFF_KINDS["batched"](long), 8), 5),
}


@lru_cache(maxsize=None)
def diff_file(kind, long):
    """(instance, file lines); the long files hold more than one 4,096-record run."""
    inst = DIFF_KINDS[kind](long)
    return inst, serialize_instance(inst, reveal=long).splitlines()


def mutate(lines, at, op, n):
    """One edit at line ``at`` that the bulk grammar does not cover, or that is an error."""
    line = lines[at]
    if op == "comment":  # splits a run, as a blank line or a CR does
        return lines[:at] + ["# mid-run"] + lines[at:]
    if op == "cr":
        return lines[:at] + [line + "\r"] + lines[at + 1 :]
    if op == "delete":
        return lines[:at] + lines[at + 1 :]
    tokens = line.split(" ")
    notes = [tok for tok in tokens[3:] if tok.startswith(("w=", "b="))]
    if op == "swap-notes" and notes:  # valid, but outside the bulk grammar
        tokens = tokens[:3] + notes[::-1]
    elif op == "drop-note" and notes:
        tokens.remove(notes[-1])
    elif op == "repeat-note" and notes:
        tokens.append(notes[0])
    elif op == "id" and tokens[0] == "e":
        tokens[2] = str(n)
    return lines[:at] + [" ".join(tokens)] + lines[at + 1 :]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(DIFF_KINDS)),
    st.booleans(),
    st.lists(
        st.tuples(
            st.floats(0, 1, exclude_max=True),
            st.sampled_from(
                ["comment", "cr", "delete", "swap-notes", "drop-note", "repeat-note", "id"]
            ),
        ),
        max_size=2,
    ),
)
def test_bulk_parse_matches_the_line_loop(kind, long, edits):
    inst, lines = diff_file(kind, long)
    for where, op in edits:
        lines = mutate(lines, 2 + int(where * (len(lines) - 2)), op, inst.n)
    text = "\n".join(lines) + "\n"
    got = parse_outcome(parse_instance, text)
    want = parse_outcome(parse_instance_by_lines, text)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.edge_array, want.edge_array)
    assert got == want
    if not edits:
        assert np.array_equal(got.edge_array, inst.edge_array)
        assert got.edges == inst.all_edges()
        same_annotations(got, inst)
