"""Hard-distribution sampling: census laws, conditioning, padding, weighting."""

from __future__ import annotations

import random
import sys
import warnings
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngc_lab import gadgets, seeds
from ngc_lab.distributions import (
    Census,
    Witness,
    as_edge_array,
    auxiliary_edges_for,
    census_of_edges,
    component_count,
    mst_augment,
    pad_to_k,
    sample_dhx,
    sample_dhx_segment,
    sample_hybrid,
    sample_hybrid_batched,
    sample_ngc,
    sample_ngc_batched,
    sample_ngc_sigma1,
    uniform_witness,
    validate_instance,
)
from ngc_lab.gadgets import parity, to_edges, vertex_id
from ngc_lab.instance_io import parse_instance, serialize_instance
from ngc_lab.partitions import (
    active_segments,
    assign_batches,
    assign_by_functions,
    assign_uniform,
    clean_indices,
    random_partition_functions,
)
from ngc_lab.protocols import FullForwardCensusProtocol, run_protocol
from ngc_lab.seeds import Seed, key_streams, master_seed, randrange_rows
from ngc_lab.stats import binomial_check, chi_square_uniform
from oracles import (
    canon,
    component_census,
    generators_made,
    instance_graph,
    per_edge_expansion,
    reference_blocks_conditioned,
    reference_dhx,
    reference_auxiliary_edges,
    reference_dhx_segment,
    reference_index_table,
    reference_instance_parts,
    reference_mst_augment,
    reference_segments_conditioned,
    union_find_census,
    vertex_from_id,
    witness_parity,
)

SEED = master_seed(2024)


def bits(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


# --- frozen witness ----------------------------------------------------------


def test_frozen_width6_witness_has_all_ones_parity():
    w = Witness(
        "block",
        (bits("100101"), bits("011001")),
        ((3, 1, 4, 2, 6, 5), (2, 1, 4, 5, 3, 6)),
    )
    g = w.build()
    assert [parity(g, j) for j in (1, 2, 3)] == [1, 1, 1]
    assert [witness_parity(w, j) for j in (1, 2, 3)] == [1, 1, 1]


# --- census laws -------------------------------------------------------------


def assert_census_law(instance):
    census = validate_instance(instance)
    n, k = instance.n, instance.k
    assert census.degree_violations == ()
    assert census.count_paths(k - 1) == n // (2 * k)
    if instance.theta == 0:
        assert census.count_cycles(k) == n // (2 * k)
        assert census.count_cycles(2 * k) == 0
    else:
        assert census.count_cycles(2 * k) == n // (4 * k)
        assert census.count_cycles(k) == 0
    # cross-check against the BFS oracle
    paths, cycles = component_census(n, instance.all_edges())
    assert sorted(census.cycles.items()) == sorted(
        (length, cycles.count(length)) for length in set(cycles)
    )
    assert sorted((p + 1 for p in census.paths for _ in range(census.paths[p]))) == paths


def test_census_laws_small():
    for i in range(20):
        for n, k in ((28, 7), (56, 7), (104, 13)):
            assert_census_law(sample_ngc(n, k, SEED.child("law", n, k, i)))


def test_frozen_theta1_56_7():
    i = 0
    while True:
        inst = sample_ngc(56, 7, SEED.child("frozen17", i))
        if inst.theta == 1:
            break
        i += 1
    census = validate_instance(inst)
    assert census.cycles == {14: 2}
    assert census.paths == {6: 4}
    assert census.components == 6


@st.composite
def multigraph(draw):
    """Cycles of a random permutation with some edges dropped and some added.

    Covers k-cycles, paths, isolated vertices, self-loops (fixed points),
    duplicate edges (2-cycles, repeated extras) and vertices of degree > 2.
    """
    n = draw(st.integers(1, 16))
    perm = draw(st.permutations(range(n)))
    edges = [(v, perm[v]) for v in range(n)]
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = [e for e, kept in zip(edges, keep) if kept]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(multigraph())
def test_census_matches_union_find_reference(graph):
    n, edges = graph
    census = census_of_edges(n, edges)
    assert census == Census(*union_find_census(n, edges))
    assert list(census.cycles) == sorted(census.cycles)
    assert list(census.paths) == sorted(census.paths)
    values = [*census.cycles.items(), *census.paths.items(), census.degree_violations]
    assert all(type(x) is int for pair in values for x in pair)
    assert type(census.components) is int


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        )
    )
)
def test_census_matches_bfs_oracle_on_simple_graphs(graph):
    n, pairs = graph
    edges = sorted({canon(e) for e in pairs if e[0] != e[1]})
    census = census_of_edges(n, edges)
    paths, cycles = component_census(n, edges)
    assert census.cycles == {c: cycles.count(c) for c in sorted(set(cycles))}
    assert census.components == len(paths) + len(cycles)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert census.degree_violations == tuple(v for v in range(n) if degree[v] > 2)
    if max(degree) <= 2:  # every non-cycle is a path with one edge per vertex but one
        assert census.paths == {p - 1: paths.count(p) for p in sorted(set(paths))}


def test_census_rejects_ids_outside_the_vertex_range():
    for edges in ([(0, 4)], [(-1, 2)], [(1, 2), (3, -4)]):
        with pytest.raises(ValueError, match="vertex range"):
            census_of_edges(4, edges)
    assert census_of_edges(0, []) == Census()


@settings(max_examples=300, deadline=None)
@given(multigraph())
def test_component_count_is_the_census_component_count(graph):
    n, edges = graph
    count = component_count(n, edges)
    assert type(count) is int
    assert count == census_of_edges(n, edges).components == union_find_census(n, edges)[2]
    assert component_count(n, as_edge_array(edges)) == count


def test_component_count_rejects_what_the_census_rejects():
    for edges in ([(0, 4)], [(-1, 2)], [(1, 2), (3, -4)]):
        with pytest.raises(ValueError) as census_error:
            census_of_edges(4, edges)
        with pytest.raises(ValueError) as count_error:
            component_count(4, edges)
        assert str(count_error.value) == str(census_error.value)
    assert component_count(0, []) == 0
    assert component_count(3, []) == 3


def test_all_edges_is_a_read_only_view():
    inst = sample_ngc(56, 7, SEED.child("fresh"))
    first = inst.all_edges()
    expected = list(first)
    with pytest.raises(TypeError):
        first[0] = (-1, -1)
    with pytest.raises(TypeError):
        del first[1:5]
    assert not first.array.flags.writeable
    with pytest.raises(ValueError):
        first.array[0] = (-1, -1)
    assert inst.all_edges() == first == expected
    for array in (inst.core_targets, inst.index_table):
        with pytest.raises(ValueError):
            array[:] = 0
    assert inst.all_edges() == expected


def test_sample_ngc_rejects_bad_shapes():
    with pytest.raises(ValueError):
        sample_ngc(28, 6, SEED)
    with pytest.raises(ValueError):
        sample_ngc(30, 7, SEED)
    with pytest.raises(ValueError):
        sample_ngc(0, 7, SEED)


def test_determinism():
    a = sample_ngc(56, 7, SEED.child("det"))
    b = sample_ngc(56, 7, SEED.child("det"))
    assert a.witness == b.witness and a.theta == b.theta
    assert a.all_edges() == b.all_edges()
    c = sample_ngc(56, 7, SEED.child("det2"))
    assert c.witness != a.witness


# --- hybrids -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(1, 12), st.sampled_from([32, 100, 256])),
    st.integers(1, 3),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
)
def test_sample_ngc_sigma1_reads_the_first_image(m, t, masters):
    k, w = 3 * t + 1, 2 * m
    roots = [master_seed(master).child("sigma1") for master in masters]
    want = [sample_ngc(4 * k * m, k, root).witness.Sigma[0][0] for root in roots]
    for replay_min in (1, seeds._REPLAY_MIN):  # replayed, and read from stdlib generators
        with mock.patch.object(seeds, "_REPLAY_MIN", replay_min):
            (streams,) = key_streams(([root.key() for root in roots], 3))
        assert sample_ngc_sigma1(streams, w).tolist() == want
        # theta's draw, then the first pick, and no more: the next read goes on from there
        after = randrange_rows(streams, 2**32 - 1, 1)[:, 0]
        for root, value in zip(roots, after.tolist()):
            loop = root.rng()
            loop.randrange(2)
            loop.randrange(w)
            assert value == loop.randrange(2**32 - 1)


def test_hybrid_endpoints_match_theta_branches():
    for i in range(10):
        h0 = sample_hybrid(2, 2, 0, SEED.child("h0", i))
        assert h0.theta == 1
        assert_census_law(h0)
        hm = sample_hybrid(2, 2, 2, SEED.child("hm", i))
        assert hm.theta == 0
        assert_census_law(hm)


def test_hybrid_forces_parities_exactly():
    m, t = 3, 2
    for h in range(m + 1):
        for i in range(30):
            inst = sample_hybrid(m, t, h, SEED.child("hyb", h, i))
            for j in range(1, m + 1):
                assert witness_parity(inst.witness, j) == (0 if j <= h else 1)


def test_hybrid_free_groups_are_unbiased():
    m, t, trials = 2, 2, 10_000
    ones = 0
    for i in range(trials):
        inst = sample_hybrid(m, t, 1, SEED.child("free", i))
        ones += witness_parity(inst.witness, m + 1)
    assert binomial_check(ones, trials, 0.5).within(3.0)


def test_hybrid_census_steps_one_component_per_group():
    # group j <= h has parity 0 and closes into two k-cycles, group j > h has
    # parity 1 and one 2k-cycle, and every group's closers leave two paths
    for m, t in product(range(1, 5), (1, 2)):
        for h in range(m + 1):
            draws = [sample_hybrid(m, t, h, SEED.child("census", m, t, h))]
            draws += [
                sample_hybrid_batched(m, s, t, h, SEED.child("census", m, s, t, h)) for s in (1, 2)
            ]
            for inst in draws:
                k = inst.k
                census = census_of_edges(inst.n, inst.edge_array)
                assert census.cycles == {c: n for c, n in ((k, 2 * h), (2 * k, m - h)) if n}
                assert census.paths == {k - 1: 2 * m}
                assert census.components == 3 * m + h


def test_hybrid_rejects_bad_h():
    with pytest.raises(ValueError):
        sample_hybrid(2, 2, 3, SEED)
    with pytest.raises(ValueError):
        sample_hybrid(2, 2, -1, SEED)


def test_hybrid_rejects_no_groups():
    with pytest.raises(ValueError, match="m=0"):
        sample_hybrid(0, 2, 0, SEED)  # used to return an empty n=0 instance
    with pytest.raises(ValueError, match="m=0"):
        sample_hybrid_batched(0, 1, 2, 0, SEED)


def test_hybrid_rejects_no_gadgets():
    with pytest.raises(ValueError, match="t=0"):
        sample_hybrid(1, 0, 0, SEED)  # used to die in an IndexError
    with pytest.raises(ValueError, match="t=0"):
        sample_hybrid_batched(1, 2, 0, 0, SEED)


def test_hybrid_rejects_no_segments():
    with pytest.raises(ValueError, match="s=0"):
        sample_hybrid_batched(1, 0, 2, 0, SEED)
    with pytest.raises(ValueError, match="s=-1"):
        sample_hybrid_batched(1, -1, 2, 0, SEED)


# --- unconditioned target distribution ----------------------------------------


def test_dhx_unbiased_and_roundtrips():
    ones = 0
    trials = 10_000
    for i in range(trials):
        _, w = sample_dhx(3, 2, SEED.child("dhx", i))
        ones += witness_parity(w, 1)
    assert binomial_check(ones, trials, 0.5).within(3.0)

    g, w = sample_dhx(4, 3, SEED.child("dhx-rt"))
    assert to_edges(w.build()) == to_edges(g)


def test_dhx_t1_w1():
    ones = 0
    trials = 10_000
    for i in range(trials):
        _, w = sample_dhx(1, 1, SEED.child("dhx11", i))
        ones += witness_parity(w, 1)
    assert binomial_check(ones, trials, 0.5).within(3.0)


def test_dhx_segment_roundtrip():
    g, w = sample_dhx_segment(3, 2, 2, SEED.child("dhxseg"))
    assert w.form == "segment"
    assert to_edges(w.build()) == to_edges(g)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["block", "segment"]),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**64 - 1),
)
def test_uniform_witness_matches_stdlib_draws(form, w, s, t, v):
    # one randrange(2) per cross bit, then one sample per permutation, on the
    # generator Seed(v).rng() seeds; the witness, its repr and hash, and where
    # the generator ends all agree
    s = 1 if form == "block" else s
    rng = random.Random(Seed(v).key())
    xs = [tuple(rng.randrange(2) for _ in range(w)) for _ in range(s * t)]
    sigmas = [tuple(rng.sample(range(1, w + 1), w)) for _ in range(s * t)]
    if form == "block":
        want = Witness(form, tuple(xs), tuple(sigmas))
    else:
        rows = range(0, s * t, t)
        X, Sigma = (tuple(tuple(v[i : i + t]) for i in rows) for v in (xs, sigmas))
        want = Witness(form, X, Sigma)
    with generators_made() as made:
        got = uniform_witness(form, w, s, t, v)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert [g.getstate() for g in made] == [rng.getstate()]


@pytest.mark.parametrize("group", [0, -1, 4, 10])
@pytest.mark.parametrize("form, s", [("block", 1), ("segment", 2)])
def test_witness_parity_rejects_groups_that_do_not_exist(form, s, group):
    witness = uniform_witness(form, 3, s, 2, 5)
    message = rf"group index {group} out of range 1\.\.3"
    with pytest.raises(ValueError, match=message):
        witness.parity(group)
    with pytest.raises(ValueError, match=message):
        parity(witness.build(), group)  # the graph query's own check and message
    assert [witness.parity(j) for j in (1, 2, 3)] == [witness_parity(witness, j) for j in (1, 2, 3)]
    with pytest.raises(ValueError, match=r"out of range 1\.\.0"):
        Witness(form, (), ()).parity(1)


# --- conditional sampling is exactly uniform on its support --------------------


def brute_support(m: int, t: int, theta: int) -> set:
    """Enumerate all (X, Sigma) with parity(j) = theta for j in [m] (w = 2m)."""
    w = 2 * m
    support = set()
    perms = list(permutations(range(1, w + 1)))
    for Sigma in product(perms, repeat=t):
        for X in product(product((0, 1), repeat=w), repeat=t):
            if all(
                theta
                == (
                    X[0][Sigma[0][j - 1] - 1]
                    ^ (X[1][Sigma[1][j - 1] - 1] if t > 1 else 0)
                )
                for j in range(1, m + 1)
            ):
                support.add((X, Sigma))
    return support


def test_conditional_sampler_uniform_on_support():
    m, t = 1, 2
    support = sorted(brute_support(m, t, 0))
    assert len(support) == 32  # half of 2^4 * (2!)^2
    index = {key: i for i, key in enumerate(support)}
    counts = [0] * len(support)
    kept = 0
    for i in range(100_000):
        inst = sample_ngc(4 * (3 * t + 1) * m, 3 * t + 1, SEED.child("cond", i))
        if inst.theta != 0:
            continue
        kept += 1
        counts[index[(inst.witness.X, inst.witness.Sigma)]] += 1
    assert kept > 40_000
    assert chi_square_uniform(counts) > 0.001


# --- padding ------------------------------------------------------------------


def test_pad_identity():
    inst = sample_ngc(28, 7, SEED.child("pad0"))
    assert pad_to_k(inst, 7) is inst


def test_pad_to_8_and_9():
    for target, i in ((8, 0), (9, 1)):
        core = sample_ngc(56, 7, SEED.child("pad", target, i))
        padded = pad_to_k(core, target)
        assert padded.k == target
        assert padded.n == 2 * padded.width * target
        assert len(padded.core_targets) == 2 * padded.width * (target - 1)
        assert padded.theta == core.theta
        census = validate_instance(padded)
        if padded.theta == 0:
            expected_cycle = target
            assert census.count_cycles(target) == padded.n // (2 * target)
        else:
            expected_cycle = 2 * target
            assert census.count_cycles(2 * target) == padded.n // (4 * target)
        assert census.count_paths(target - 1) == padded.n // (2 * target)
        paths, cycles = component_census(padded.n, padded.all_edges())
        assert set(cycles) == {expected_cycle}


def test_pad_rejects_bad_targets():
    inst = sample_ngc(28, 7, SEED.child("padbad"))
    with pytest.raises(ValueError):
        pad_to_k(inst, 3)
    with pytest.raises(ValueError):
        pad_to_k(inst, 10)  # would need core k=10, not 7
    with pytest.raises(ValueError):
        pad_to_k(inst, 6)  # core would be k=4


@pytest.mark.parametrize("k", [4, 5, 6, 7, 9, 10, 13])
@pytest.mark.parametrize("m", [1, 2, 3, 17, 256])
def test_auxiliary_edges_match_per_closer_loop(k, m):
    for width in (2 * m, 2 * m + 6):
        assert auxiliary_edges_for(k, m, width) == reference_auxiliary_edges(k, m, width)


@pytest.mark.parametrize("pad", [1, 2])
def test_padded_closers_match_per_closer_loop(pad):
    core = sample_ngc(4 * 7 * 3, 7, SEED.child("padloop", pad))
    padded = pad_to_k(core, 7 + pad)
    assert padded.auxiliary_edges == reference_auxiliary_edges(7 + pad, core.m, core.width)


def test_pad_rewires_auxiliary_edges():
    core = sample_ngc(28, 7, SEED.child("padaux"))
    padded = pad_to_k(core, 9)
    w = padded.width
    assert padded.auxiliary_edges == auxiliary_edges_for(9, padded.m, w)
    for u, v in padded.auxiliary_edges:
        assert vertex_from_id(u, w).layer == 9
        assert vertex_from_id(v, w).layer == 1


@st.composite
def derived_instances(draw):
    """A block or segment hybrid, padded by 0-2 layers, with or without the MST augmentation."""
    m, t, seed = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2**32))
    h = draw(st.integers(0, m))
    if draw(st.booleans()):
        inst = sample_hybrid(m, t, h, seed)
    else:
        inst = sample_hybrid_batched(m, draw(st.integers(1, 2)), t, h, seed)
    inst = pad_to_k(inst, inst.k + draw(st.integers(0, 2)))
    if draw(st.booleans()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # m = 1 is degenerate, not wrong
            inst = mst_augment(inst, draw(st.integers(2, 9)))
    return inst


@settings(max_examples=60, deadline=None)
@given(derived_instances())
def test_derived_parts_match_the_eager_build(inst):
    want = reference_instance_parts(inst)
    all_edges, batches, weights = want.pop("all_edges"), want.pop("batches"), want.pop("weights")
    graph = want.pop("graph")
    assert instance_graph(inst) == graph
    assert inst.all_edges() == all_edges
    assert {name: getattr(inst, name) for name in want} == want
    # the batches are rows 2i and 2i + 1 of batched_edges, every row but the augmentation's
    if batches is None:
        assert inst.batched_edges is None
    else:
        pairs = [tuple(map(tuple, pair)) for pair in inst.batched_edges.reshape(-1, 2, 2).tolist()]
        assert pairs == list(batches)
    if weights is None:
        assert inst.edge_weights is None
    else:
        assert inst.edge_weights.tolist() == [weights[canon(e)] for e in all_edges]
    assert graph.depth == inst.k


@settings(max_examples=80, deadline=None)
@given(derived_instances())
def test_core_arrays_match_the_object_graph(inst):
    core = to_edges(instance_graph(inst))
    assert inst.core_targets.dtype == np.int64 and not inst.core_targets.flags.writeable
    assert inst.core_targets.tolist() == [v for _, v in core]
    assert inst.edge_array[: len(core)].tolist() == [list(e) for e in core]
    if inst.form == "segment":
        with pytest.raises(ValueError, match="block-form"):
            inst.index_table
    else:
        assert not inst.index_table.flags.writeable
        assert np.array_equal(inst.index_table, reference_index_table(inst))


def test_instance_path_builds_no_graph(monkeypatch):
    builders = (gadgets.make_multi_block, gadgets.make_multi_segment)

    def refuse(*args, **kwargs):
        raise AssertionError("a gadget graph was built")

    for module in [m for name, m in sys.modules.items() if name.startswith("ngc_lab")]:
        for name, value in list(vars(module).items()):
            if any(value is builder for builder in builders):
                monkeypatch.setattr(module, name, refuse)
    inst = sample_ngc(112, 7, SEED.child("guard"))
    with pytest.raises(AssertionError, match="graph was built"):
        inst.witness.build()  # the guard is live
    batched = sample_ngc_batched(88, 11, 2, 2, SEED.child("guard", "batched"))
    padded = mst_augment(pad_to_k(sample_ngc(112, 7, SEED.child("guard", "pad")), 9), 5)
    for instance in (inst, batched, padded):
        assert len(instance.edge_array) == len(instance.core_targets) + 2 * instance.m + (
            0 if instance.W is None else 4 * instance.m
        )
        parse_instance(serialize_instance(instance, reveal=True))
    assignment = assign_uniform(inst.all_edges(), 2, SEED.child("guard", "A"))
    F = random_partition_functions(inst.width, inst.t, SEED.child("guard", "F"))
    assign_by_functions(padded, F, SEED.child("guard", "B"))
    clean_indices(inst, F)
    active_segments(batched, assign_batches(batched, 4, SEED.child("guard", "D")))
    result = run_protocol(FullForwardCensusProtocol(inst.n, inst.k), inst, assignment, seed=1)
    assert result.output == inst.theta


@settings(max_examples=60, deadline=None)
@given(derived_instances())
def test_edge_views_match_the_list_routes(inst):
    want = reference_instance_parts(inst)
    views = {
        "all_edges": inst.all_edges(),
        "auxiliary_edges": inst.auxiliary_edges,
        "core": inst.all_edges()[: len(inst.core_targets)],
        "extra_edges": inst.extra_edges,
        "parsed": parse_instance(serialize_instance(inst)).edges,
    }
    assert {name: list(view) for name, view in views.items()} == {
        "all_edges": want["all_edges"],
        "extra_edges": want["extra_edges"],
        "auxiliary_edges": list(reference_auxiliary_edges(inst.k, inst.m, inst.width)),
        "core": per_edge_expansion(want["graph"]),
        "parsed": want["all_edges"],
    }
    items = [e for view in views.values() for e in view]
    assert all(type(e) is tuple and [type(u) for u in e] == [int, int] for e in items)
    for view in views.values():
        assert as_edge_array(view) is view.array and not view.array.flags.writeable
    assert np.shares_memory(np.asarray(inst.all_edges()), inst.edge_array)
    assert np.shares_memory(np.asarray(inst.auxiliary_edges), inst.edge_array)
    if inst.W is not None:
        assert np.shares_memory(np.asarray(inst.extra_edges), inst.edge_array)
        assert not inst.edge_weights.flags.writeable


# --- MST augmentation ---------------------------------------------------------


def test_mst_augment_structure():
    inst = sample_ngc(56, 7, SEED.child("mst"))
    W = 5
    weighted = mst_augment(inst, W)
    m, w, k = inst.m, inst.width, inst.k
    assert (weighted.k, weighted.theta, weighted.witness, weighted.W) == (k, inst.theta, inst.witness, W)
    assert len(weighted.extra_edges) == 4 * m
    assert weighted.edge_array[: -4 * m].tolist() == inst.edge_array.tolist()
    bridges = {
        canon((vertex_id(k, j, 0, w), vertex_id(k, j, 1, w))) for j in range(1, m + 1)
    }
    assert weighted.edge_weights.shape == (len(weighted.edge_array),)
    for e, weight in zip(weighted.all_edges(), weighted.edge_weights.tolist()):
        assert weight == (W if canon(e) in bridges else 1)
    assert inst.edge_weights is None and len(inst.extra_edges) == 0
    census = validate_instance(weighted)
    assert census.degree_violations != ()  # scaffolding adds degree-3 vertices


def test_mst_augment_rejects_weight_below_two():
    with pytest.raises(ValueError):
        mst_augment(sample_ngc(28, 7, SEED), 1)


@pytest.mark.parametrize("W", [2**63, 2**64 + 5, -3, 0, 5.0])
def test_mst_augment_rejects_w_outside_the_int64_range(W):
    # the instance file writes W as an int64 w= annotation
    with pytest.raises(ValueError, match=rf"^weight W must be an integer in \[2, 2\*\*63\), got W={W}$"):
        mst_augment(sample_ngc(56, 7, SEED), W)


@st.composite
def augmented_instances(draw):
    """A block, segment or padded hybrid at m from 1 to 4, augmented with W up to 2**63 - 1."""
    m, t, seed = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(0, 2**32))
    form = draw(st.sampled_from(["block", "segment", "padded"]))
    if form == "block":
        inst = sample_hybrid(m, t, 0, seed)
    else:
        inst = sample_hybrid_batched(m, draw(st.integers(1, 2)), t, m, seed)
    if form == "padded":
        inst = pad_to_k(inst, inst.k + draw(st.integers(1, 2)))
    W = draw(st.integers(2, 2**63 - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 1 is degenerate, not wrong
        return inst, mst_augment(inst, W), W


@settings(max_examples=80, deadline=None)
@given(augmented_instances())
def test_augmentation_rows_match_the_per_edge_reference(case):
    inst, augmented, W = case
    extra, weights = reference_mst_augment(inst.all_edges(), inst.k, inst.width, W)
    assert augmented.extra_edges == extra
    assert augmented.all_edges() == [*inst.all_edges(), *extra]
    rows = augmented.edge_weights.tolist()
    assert rows == [weights[canon(e)] for e in augmented.all_edges()]
    assert all(type(w) is int for w in rows) and rows.count(W) == inst.m


def test_mst_augment_flags_degenerate_m1():
    inst = sample_ngc(28, 7, SEED.child("mstm1"))
    with pytest.warns(UserWarning):
        mst_augment(inst, 5)


# --- batched ------------------------------------------------------------------


def layer_group_side(vid, w):
    ref = vertex_from_id(vid, w)
    return ref.layer, ref.group, ref.side


def test_batched_shapes_and_pairing():
    inst = sample_ngc_batched(56, 7, 2, 1, SEED.child("bat"))
    assert inst.k == 7 and inst.s == 2 and inst.t == 1
    edges = inst.all_edges()
    batches = inst.batched_edges.reshape(-1, 2, 2).tolist()
    assert len(batches) == len(edges) // 2
    assert sorted(tuple(e) for b in batches for e in b) == sorted(edges)
    w = inst.width
    for e1, e2 in batches:
        (l1, g1, s1) = layer_group_side(e1[0], w)
        (l2, g2, s2) = layer_group_side(e2[0], w)
        assert (l1, g1) == (l2, g2)  # same source layer and group
        assert {s1, s2} == {0, 1}  # one a-side, one b-side edge
    assert_census_law(inst)


def test_batched_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_ngc_batched(56, 7, 2, 2, SEED)


def test_batched_hybrid_endpoints():
    h0 = sample_hybrid_batched(2, 2, 1, 0, SEED.child("bh0"))
    assert h0.theta == 1
    assert_census_law(h0)
    hm = sample_hybrid_batched(2, 2, 1, 2, SEED.child("bhm"))
    assert hm.theta == 0
    assert_census_law(hm)


# --- property: hybrid parities and batched conditioning -----------------------


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_hybrid_parities(data):
    m = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 3))
    h = data.draw(st.integers(0, m))
    i = data.draw(st.integers(0, 10_000))
    inst = sample_hybrid(m, t, h, SEED.child("prop", m, t, h, i))
    g = instance_graph(inst)
    for j in range(1, m + 1):
        assert parity(g, j) == (0 if j <= h else 1)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_batched_theta(data):
    m = data.draw(st.integers(1, 2))
    s = data.draw(st.integers(1, 2))
    t = data.draw(st.integers(1, 2))
    i = data.draw(st.integers(0, 10_000))
    k = (2 * t + 1) * s + 1
    inst = sample_ngc_batched(4 * k * m, k, s, t, SEED.child("pbat", m, s, t, i))
    for j in range(1, m + 1):
        assert parity(instance_graph(inst), j) == inst.theta


# --- differential: the shared draws replay the per-gadget reference samplers ---


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_samplers_match_per_gadget_references(data):
    m = data.draw(st.integers(1, 20))  # w = 2m up to 40: randrange_many's bulk path
    s = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 3))
    h = data.draw(st.integers(0, m))
    seed = SEED.child("ref", data.draw(st.integers(0, 2**32)))
    w = 2 * m

    k = 3 * t + 1
    rng = seed.rng()
    theta = rng.randrange(2)
    want = reference_blocks_conditioned(w, t, dict.fromkeys(range(1, m + 1), theta), rng)
    inst = sample_ngc(4 * k * m, k, seed)
    assert (inst.theta, inst.witness) == (theta, want)

    k = (2 * t + 1) * s + 1
    rng = seed.rng()
    theta = rng.randrange(2)
    want = reference_segments_conditioned(w, s, t, dict.fromkeys(range(1, m + 1), theta), rng)
    inst = sample_ngc_batched(4 * k * m, k, s, t, seed)
    assert (inst.theta, inst.witness) == (theta, want)

    targets = {j: int(j > h) for j in range(1, m + 1)}
    want = reference_blocks_conditioned(w, t, targets, seed.rng())
    assert sample_hybrid(m, t, h, seed).witness == want
    want = reference_segments_conditioned(w, s, t, targets, seed.rng())
    assert sample_hybrid_batched(m, s, t, h, seed).witness == want

    assert sample_dhx(w, t, seed)[1] == reference_dhx(w, t, seed)
    assert sample_dhx_segment(w, s, t, seed)[1] == reference_dhx_segment(w, s, t, seed)
