"""Gadget algebra: frozen values plus structural properties against the oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngc_lab.distributions import Witness, pad_to_k, sample_hybrid, sample_hybrid_batched
from ngc_lab.gadgets import (
    EdgeView,
    GroupLayeredGraph,
    MatchingSpec,
    concat,
    graph_of,
    group_map,
    identity_perm,
    invert_perm,
    make_block,
    make_multi_block,
    make_multi_segment,
    make_perm_matching,
    make_perm_xor,
    make_segment,
    make_xor_matching,
    parity,
    to_edges,
    vertex_id,
)
from oracles import (
    check_layered_degrees,
    instance_graph,
    per_edge_expansion,
    reference_multi_block,
    reference_multi_segment,
    traced_group_and_parity,
    vertex_from_id,
)


def bits(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


# --- vertex id layout -------------------------------------------------------


def test_vertex_id_roundtrip():
    w = 5
    seen = set()
    for layer in range(1, 4):
        for group in range(1, w + 1):
            for side in (0, 1):
                vid = vertex_id(layer, group, side, w)
                seen.add(vid)
                ref = vertex_from_id(vid, w)
                assert (ref.layer, ref.group, ref.side) == (layer, group, side)
    assert seen == set(range(2 * w * 3))


def test_vertex_id_examples():
    # layer 1 packs groups consecutively: a_1=0, b_1=1, a_2=2, ...
    assert vertex_id(1, 1, 0, 4) == 0
    assert vertex_id(1, 1, 1, 4) == 1
    assert vertex_id(1, 4, 1, 4) == 7
    assert vertex_id(2, 1, 0, 4) == 8


# --- matchings and validation ------------------------------------------------


def test_matching_rejects_bad_perm():
    with pytest.raises(ValueError):
        MatchingSpec((1, 1), (0, 0))
    with pytest.raises(ValueError):
        MatchingSpec((1, 2), (0, 2))
    with pytest.raises(ValueError):
        MatchingSpec((1, 2, 3), (0, 0))


def test_xor_matching_shape():
    m = make_xor_matching(bits("1001"))
    assert m.pi == (1, 2, 3, 4)
    assert m.cross == (1, 0, 0, 1)


def test_perm_matching_shape():
    m = make_perm_matching((3, 1, 2))
    assert m.pi == (3, 1, 2)
    assert m.cross == (0, 0, 0)


def test_invert_perm():
    assert invert_perm((3, 1, 2, 4)) == (2, 3, 1, 4)
    assert invert_perm(identity_perm(6)) == identity_perm(6)


# --- block: frozen values ----------------------------------------------------


def test_block_depth_and_edges():
    g = make_block(bits("1001"), (3, 1, 2, 4))
    assert g.depth == 4
    assert g.n_vertices == 32
    assert len(to_edges(g)) == 2 * 4 * 3
    check_layered_degrees(g)


def test_block_group_map_is_identity():
    g = make_block(bits("1001"), (3, 1, 2, 4))
    assert [group_map(g, j) for j in range(1, 5)] == [1, 2, 3, 4]


def test_block_parity_frozen():
    # crossing bit of start group j is x_{sigma(j)}
    g = make_block(bits("1001"), (3, 1, 2, 4))
    assert tuple(parity(g, j) for j in range(1, 5)) == (0, 1, 0, 1)


def test_block_parity_matches_edge_trace():
    g = make_block(bits("1001"), (3, 1, 2, 4))
    edges = to_edges(g)
    for j in range(1, 5):
        end_group, flip = traced_group_and_parity(4, g.depth, edges, j)
        assert end_group == group_map(g, j)
        assert flip == parity(g, j)


# --- multi-block: frozen values ----------------------------------------------


def test_multi_block_frozen():
    g = make_multi_block(
        [bits("1001"), bits("0110")],
        [(3, 1, 2, 4), (2, 1, 4, 3)],
    )
    assert g.depth == 3 * 2 + 1
    assert [group_map(g, j) for j in range(1, 5)] == [1, 2, 3, 4]
    assert tuple(parity(g, j) for j in range(1, 5)) == (1, 1, 0, 0)


# --- perm-xor and segment: frozen values --------------------------------------


def test_perm_xor_frozen():
    g = make_perm_xor((3, 1, 2), bits("101"))
    assert g.depth == 3
    # group j lands on sigma(j) carrying x_{sigma(j)}
    assert [group_map(g, j) for j in range(1, 4)] == [3, 1, 2]
    assert tuple(parity(g, j) for j in range(1, 4)) == (1, 1, 0)


def test_segment_frozen_width6():
    X = [bits("100101"), bits("011001")]
    Sigma = [(3, 1, 4, 2, 6, 5), (2, 1, 4, 5, 3, 6)]
    g = make_segment(X, Sigma)
    assert g.depth == 2 * 2 + 2
    assert [group_map(g, j) for j in range(1, 7)] == list(range(1, 7))
    assert tuple(parity(g, j) for j in range(1, 7)) == (1, 1, 1, 0, 0, 1)
    check_layered_degrees(g)


def test_multi_segment_depth():
    X = [[bits("10"), bits("01")], [bits("11"), bits("00")]]
    Sigma = [[(2, 1), (1, 2)], [(1, 2), (2, 1)]]
    g = make_multi_segment(X, Sigma)
    s, t = 2, 2
    assert g.depth == (2 * t + 1) * s + 1
    assert [group_map(g, j) for j in range(1, 3)] == [1, 2]


def test_concat_shares_boundary_layer():
    g1 = make_block(bits("10"), (2, 1))
    g2 = make_block(bits("01"), (1, 2))
    g = concat(g1, g2)
    assert g.depth == g1.depth + g2.depth - 1
    with pytest.raises(ValueError):
        concat(g1, make_block(bits("100"), (1, 2, 3)))


def test_to_edges_order_deterministic():
    g = make_perm_xor((2, 1), bits("10"))
    assert to_edges(g) == [
        (0, 6),  # layer1 g1 a -> layer2 g2 a
        (1, 7),
        (2, 4),
        (3, 5),
        (4, 9),  # xor layer: group1 crosses (x_1=1), a -> b
        (5, 8),
        (6, 10),  # group2 stays parallel
        (7, 11),
    ]


# --- property tests vs. the edge-trace oracle ---------------------------------

perm_strategy = st.integers(2, 6).flatmap(
    lambda w: st.permutations(list(range(1, w + 1)))
)


@st.composite
def random_graph(draw):
    w = draw(st.integers(2, 5))
    n_matchings = draw(st.integers(1, 6))
    ms = []
    for _ in range(n_matchings):
        pi = tuple(draw(st.permutations(list(range(1, w + 1)))))
        cross = tuple(draw(st.lists(st.integers(0, 1), min_size=w, max_size=w)))
        ms.append(MatchingSpec(pi, cross))
    return graph_of(*ms)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_algebra_matches_trace(g: GroupLayeredGraph):
    edges = to_edges(g)
    assert len(edges) == 2 * g.width * (g.depth - 1)
    check_layered_degrees(g)
    for j in range(1, g.width + 1):
        end_group, flip = traced_group_and_parity(g.width, g.depth, edges, j)
        assert end_group == group_map(g, j)
        assert flip == parity(g, j)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_segment_group_map_identity(data):
    w = data.draw(st.integers(2, 5))
    t = data.draw(st.integers(1, 4))
    X = [
        tuple(data.draw(st.lists(st.integers(0, 1), min_size=w, max_size=w)))
        for _ in range(t)
    ]
    Sigma = [tuple(data.draw(st.permutations(list(range(1, w + 1))))) for _ in range(t)]
    g = make_segment(X, Sigma)
    assert g.depth == 2 * t + 2
    for j in range(1, w + 1):
        assert group_map(g, j) == j
        want = 0
        for x, sigma in zip(X, Sigma):
            want ^= x[sigma[j - 1] - 1]
        assert parity(g, j) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multi_block_parity_formula(data):
    w = data.draw(st.integers(2, 5))
    t = data.draw(st.integers(1, 3))
    X = [
        tuple(data.draw(st.lists(st.integers(0, 1), min_size=w, max_size=w)))
        for _ in range(t)
    ]
    Sigma = [tuple(data.draw(st.permutations(list(range(1, w + 1))))) for _ in range(t)]
    g = make_multi_block(X, Sigma)
    assert g.depth == 3 * t + 1
    for j in range(1, w + 1):
        assert group_map(g, j) == j
        want = 0
        for x, sigma in zip(X, Sigma):
            want ^= x[sigma[j - 1] - 1]
        assert parity(g, j) == want


# --- the vectorized edge expansion against the per-edge one --------------------


def assert_expansion_matches(g: GroupLayeredGraph) -> None:
    want = per_edge_expansion(g)
    got = to_edges(g)
    assert got == want
    assert all(type(u) is int and type(v) is int for u, v in got)
    with pytest.raises(TypeError):
        got[0] = (-1, -1)
    assert not got.array.flags.writeable
    with pytest.raises(ValueError):
        got.array[0] = (-1, -1)
    assert to_edges(g) == got == want  # nothing can write through a view


def test_edge_view_reads_like_its_list():
    pairs = [(0, 5), (1, 4), (2, 7)]
    view = EdgeView(np.array(pairs))
    assert len(view) == 3 and list(view) == pairs and list(reversed(view)) == pairs[::-1]
    assert view == pairs and pairs == view and view == tuple(pairs)
    assert view != pairs[:2] and view != pairs[::-1] and view != [(0, 5), (1, 4), (2, 8)]
    assert view != "edges" and view != EdgeView(np.array(pairs[::-1]))
    assert view[1] == (1, 4) and view[-1] == (2, 7) and type(view[0][0]) is int
    with pytest.raises(IndexError):
        view[3]
    tail = view[1:]
    assert isinstance(tail, EdgeView) and tail == pairs[1:]
    assert np.shares_memory(tail.array, view.array)
    assert view.index((2, 7)) == 2 and (1, 4) in view and (4, 1) not in view
    with pytest.raises(TypeError):
        view[0] = (9, 9)
    assert not view.array.flags.writeable
    assert np.asarray(view) is view.array and np.asarray(view, dtype=np.int64) is view.array
    assert np.asarray(view, dtype=np.int32).tolist() == [list(e) for e in pairs]
    copied = np.array(view)
    assert copied.flags.writeable and not np.shares_memory(copied, view.array)
    with pytest.raises(ValueError):
        np.asarray(view, dtype=np.int32, copy=False)


def test_check_layered_degrees_names_the_first_wrong_vertex():
    g = make_block(bits("1001"), (3, 1, 2, 4))
    check_layered_degrees(g)
    targets = g._targets.copy()
    lost, doubled = targets[0], targets[1]
    targets[0] = doubled
    g.__dict__["_targets"] = targets
    vid = min(lost, doubled)
    degree = 1 if vid == lost else 3
    message = rf"^vertex {vid} \(layer 2\) has degree {degree}, wanted 2$"
    with pytest.raises(AssertionError, match=message):
        check_layered_degrees(g)


@st.composite
def witness_graph(draw):
    """Random multi-block, multi-segment or padded hybrid graph."""
    kind = draw(st.sampled_from(["block", "segment", "padded"]))
    w = draw(st.integers(1, 5))
    perm = st.permutations(list(range(1, w + 1))).map(tuple)
    bits = st.lists(st.integers(0, 1), min_size=w, max_size=w).map(tuple)
    if kind == "block":
        t = draw(st.integers(1, 3))
        return make_multi_block(draw(st.lists(bits, min_size=t, max_size=t)),
                                draw(st.lists(perm, min_size=t, max_size=t)))
    if kind == "segment":
        s, t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        X = [draw(st.lists(bits, min_size=t, max_size=t)) for _ in range(s)]
        Sigma = [draw(st.lists(perm, min_size=t, max_size=t)) for _ in range(s)]
        return make_multi_segment(X, Sigma)
    m, t = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    inst = sample_hybrid(m, t, draw(st.integers(0, m)), draw(st.integers(0, 2**32)))
    return instance_graph(pad_to_k(inst, inst.k + draw(st.integers(0, 2))))


@settings(max_examples=80, deadline=None)
@given(witness_graph())
def test_to_edges_matches_per_edge_expansion(g: GroupLayeredGraph):
    assert_expansion_matches(g)


@settings(max_examples=40, deadline=None)
@given(random_graph())
def test_to_edges_matches_per_edge_expansion_on_any_matchings(g: GroupLayeredGraph):
    assert_expansion_matches(g)


# --- the one-pass builders against the validated concat chain --------------------


def reference_build(witness: Witness) -> GroupLayeredGraph:
    if witness.form == "block":
        return reference_multi_block(witness.X, witness.Sigma)
    return reference_multi_segment(witness.X, witness.Sigma)


@st.composite
def built_and_reference(draw):
    """(one-pass graph, concat-chain graph) of a random witness, sometimes padded."""
    form = draw(st.sampled_from(["block", "segment"]))
    t = draw(st.integers(1, 4))
    s = draw(st.integers(1, 3)) if form == "segment" else None
    if draw(st.booleans()):  # a hybrid instance, stretched by 0-2 identity layers
        m = draw(st.integers(1, 4))
        seed = draw(st.integers(0, 2**32))
        if s is None:
            inst = sample_hybrid(m, t, draw(st.integers(0, m)), seed)
        else:
            inst = sample_hybrid_batched(m, s, t, draw(st.integers(0, m)), seed)
        pad = draw(st.integers(0, 2))
        w = inst.width
        ident = MatchingSpec(identity_perm(w), (0,) * w)
        want = reference_build(inst.witness)
        want = GroupLayeredGraph(w, (ident,) * pad + want.matchings)
        return instance_graph(pad_to_k(inst, inst.k + pad)), want
    w = draw(st.integers(1, 9))
    perm = st.permutations(list(range(1, w + 1)))
    bits = st.lists(st.integers(0, 1), min_size=w, max_size=w)
    count = t if s is None else s * t
    xs = draw(st.lists(bits, min_size=count, max_size=count))
    sigmas = draw(st.lists(perm, min_size=count, max_size=count))
    if s is None:  # lists, not tuples: the builders normalize what they are given
        return make_multi_block(xs, sigmas), reference_multi_block(xs, sigmas)
    X = [xs[i : i + t] for i in range(0, count, t)]
    Sigma = [sigmas[i : i + t] for i in range(0, count, t)]
    return make_multi_segment(X, Sigma), reference_multi_segment(X, Sigma)


@settings(max_examples=200, deadline=None)
@given(built_and_reference())
def test_one_pass_builders_match_concat_chain(pair):
    got, want = pair
    assert got == want
    assert all(type(spec.pi) is tuple and type(spec.cross) is tuple for spec in got.matchings)
    assert to_edges(got) == to_edges(want)


def test_block_and_segment_builders_match_concat_chain_frozen():
    X, Sigma = [bits("1001"), bits("0110")], [(3, 1, 2, 4), (2, 1, 4, 3)]
    assert make_multi_block(X, Sigma) == reference_multi_block(X, Sigma)
    assert make_block(X[0], Sigma[0]) == reference_multi_block(X[:1], Sigma[:1])
    X6 = [bits("100101"), bits("011001")]
    Sigma6 = [(3, 1, 4, 2, 6, 5), (2, 1, 4, 5, 3, 6)]
    assert make_segment(X6, Sigma6) == reference_multi_segment([X6], [Sigma6])


@pytest.mark.parametrize(
    "form, X, Sigma",
    [
        ("block", ((0, 1),), ((1, 1),)),  # not a permutation
        ("block", ((0, 1), (0, 1)), ((1, 2), (2, 3))),  # second gadget out of range
        ("block", ((0, 2),), ((2, 1),)),  # a cross bit outside 0/1
        ("block", ((0, 1, 1),), ((2, 1),)),  # x and sigma lengths differ
        ("block", ((0, 1), (0, 1, 1)), ((2, 1), (2, 1, 3))),  # width changes mid-stack
        ("block", ((0, 1),), ()),  # more cross vectors than permutations
        ("block", (), ()),  # t = 0
        ("segment", (((0, 1), (1, 0)), ((0, 1),)), (((2, 1), (1, 2)), ((1, 2),))),  # ragged
        ("segment", (((0, 1),),), (((2, 2),),)),  # not a permutation
        ("segment", (((0, -1),),), (((2, 1),),)),  # a cross bit outside 0/1
        ("segment", (((0, 1, 0),),), (((2, 1),),)),  # x and sigma lengths differ
        ("segment", (((0, 1),), ((0, 1, 1),)), (((2, 1),), ((2, 1, 3),))),  # width changes
        ("segment", ((), ()), ((), ())),  # t = 0
        ("segment", (), ()),  # s = 0
    ],
)
def test_witness_build_rejects_malformed_gadgets(form, X, Sigma):
    witness = Witness(form, X, Sigma)
    with pytest.raises(ValueError):
        witness.build()
    with pytest.raises(ValueError):
        reference_build(witness)  # the same input is malformed for the concat chain too


def test_public_matching_constructors_still_validate():
    with pytest.raises(ValueError):
        make_perm_matching((1, 1))
    with pytest.raises(ValueError):
        make_xor_matching((0, 2))
    with pytest.raises(ValueError):
        make_block(bits("01"), (1, 3))
    with pytest.raises(ValueError):
        make_segment([bits("01")], [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        graph_of()
    with pytest.raises(ValueError):
        concat(make_block(bits("01"), (2, 1)), make_block(bits("010"), (1, 2, 3)))
