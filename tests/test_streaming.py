"""Stream construction, streaming census/decision, estimators, and walks."""

from __future__ import annotations

import math
import random
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngc_lab.distributions import (
    census_of_edges,
    mst_augment,
    sample_ngc,
)
from ngc_lab import streaming
from ngc_lab.seeds import Seed
from ngc_lab.stats import binomial_check, chi_square_expected, chi_square_uniform
from ngc_lab.streaming import (
    CensusThetaDecision,
    EventView,
    Stream,
    UnionFindCensusAlgorithm,
    batch_order,
    cc_estimate,
    exact_census,
    make_stream,
    matching_size_exact,
    mis_size_exact,
    mst_weight_exact,
    pack_edges,
    stream_from_edges,
    theta_from_components,
)

from oracles import (
    WalkSample,
    brute_max_independent_set,
    brute_max_matching,
    canon,
    component_census,
    detect_cycle_length_from_walks,
    random_walk,
    randrange_loop,
    reference_cc_estimate,
    reference_stream_events,
    scipy_mst_weight,
    walk_distribution_exact,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def instance_with_theta(n: int, k: int, theta: int, base_seed: int):
    for s in range(base_seed, base_seed + 64):
        inst = sample_ngc(n, k, seed=s)
        if inst.theta == theta:
            return inst
    raise AssertionError(f"no theta={theta} draw in 64 tries")


# --- stream construction ------------------------------------------------------


def test_given_order_preserves_edges():
    inst = mst_augment(instance_with_theta(56, 7, 0, 300), W=5)
    stream = make_stream(inst, "given", seed=1)
    assert [e for e, _ in stream.events] == inst.all_edges()
    assert all(w is None for _, w in stream.events)


def test_uniform_order_hits_all_six_orders_uniformly():
    trials = 12_000
    counts: Counter[tuple] = Counter()
    for s in range(trials):
        stream = stream_from_edges(3, TRIANGLE, "uniform_random", seed=s)
        counts[tuple(e for e, _ in stream.events)] += 1
    assert len(counts) == 6
    pvalue = chi_square_uniform(list(counts.values()))
    assert pvalue > 0.001, f"order chi-square p={pvalue}"


def test_uniform_order_is_permutation_and_deterministic():
    inst = sample_ngc(28, 7, seed=5)
    a = make_stream(inst, "uniform_random", seed=9)
    b = make_stream(inst, "uniform_random", seed=9)
    assert a == b
    assert sorted(e for e, _ in a.events) == sorted(inst.all_edges())


def test_event_view_reads_as_the_tuple_it_replaces():
    edges = np.array([[0, 1], [3, 2], [4, 5], [7, 6], [8, 9]])
    view = EventView(edges)
    want = tuple(((u, v), None) for u, v in edges.tolist())
    assert len(view) == len(want)
    assert list(view) == list(want)
    assert all(type(u) is int and type(v) is int for (u, v), _ in view)
    assert [view[i] for i in range(-5, 5)] == [want[i] for i in range(-5, 5)]
    for cut in (slice(None, -1), slice(1, 3), slice(None, None, 2), slice(3, 1), slice(None)):
        assert isinstance(view[cut], EventView)
        assert view[cut] == want[cut] and want[cut] == view[cut]
    assert view[:-1] + view[:1] == want[:-1] + want[:1]
    assert isinstance(view[:-1] + view[:1], EventView)
    assert view + want == want + view == want + want
    assert view == want and not view != want
    assert view != want[:-1] and view != want[::-1]
    assert hash(view) == hash(want)
    assert EventView(edges[:0]) == EventView(np.empty((0, 2), dtype=np.int64)) == ()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
    st.sampled_from(["given", "uniform_random"]),
    st.integers(0, 2**32),
)
def test_streams_match_the_event_tuple_reference(edges, mode, seed):
    got = stream_from_edges(31, edges, mode, seed=seed)
    want = reference_stream_events(edges, mode, seed)
    assert got.events == want
    assert tuple(got.events) == want
    assert stream_from_edges(31, np.array(edges).reshape(-1, 2), mode, seed=seed) == got


@pytest.mark.parametrize("count", [0, 1, 2, 5, 64, 8191, 8192, 9000])
def test_batch_order_matches_the_per_batch_shuffles(count):
    batches = [[2 * b, 2 * b + 1] for b in range(count)]
    loop, bulk = random.Random(count), random.Random(count)
    loop.shuffle(batches)
    for batch in batches:
        loop.shuffle(batch)
    assert batch_order(bulk, count).tolist() == [e for batch in batches for e in batch]
    assert bulk.getstate() == loop.getstate()


def test_unknown_mode_rejected():
    for mode in ("sorted", "batched_random", "stochastic"):
        with pytest.raises(ValueError, match=f"^unknown stream mode '{mode}'$"):
            stream_from_edges(3, TRIANGLE, mode, seed=0)


# --- census over streams ------------------------------------------------------


def test_exact_census_matches_law_and_oracle():
    inst = instance_with_theta(28, 7, 0, 20)
    census = exact_census(inst.n, make_stream(inst, "uniform_random", seed=7))
    assert census.components == 4  # 2 short cycles + 2 noisy paths
    assert census.count_cycles(7) == 2
    assert census.count_paths(6) == 2
    paths, cycles = component_census(inst.n, inst.all_edges())
    assert sorted(cycles) == [7, 7]
    assert sorted(p - 1 for p in paths) == [6, 6]


def test_exact_census_duplicates_idempotent():
    inst = sample_ngc(28, 7, seed=8)
    once = exact_census(inst.n, inst.all_edges())
    doubled = exact_census(inst.n, [*inst.all_edges()] * 3)
    assert once == doubled
    flipped = exact_census(inst.n, [(v, u) for u, v in inst.all_edges()])
    assert once == flipped


def test_exact_census_empty_edge_set():
    census = exact_census(5, [])
    assert census.components == 5
    assert census.cycles == {} and census.paths == {0: 5}


# --- streaming algorithm contract ---------------------------------------------


def test_union_find_algorithm_roundtrip_and_resume():
    inst = sample_ngc(56, 7, seed=12)
    stream = make_stream(inst, "uniform_random", seed=13)
    alg = UnionFindCensusAlgorithm(inst.n)

    full = alg.run(alg.init(), stream.events)
    assert np.array_equal(alg.deserialize(alg.serialize(full)), full)
    assert alg.finalize(full) == census_of_edges(inst.n, inst.all_edges())

    # split mid-stream, ship the state as bytes, resume on the rest
    cut = len(stream.events) // 2
    head = alg.run(alg.init(), stream.events[:cut])
    blob = alg.serialize(head)
    resumed = alg.run(alg.deserialize(blob), stream.events[cut:])
    assert alg.finalize(resumed) == alg.finalize(full)
    seen = {canon(e) for e, _ in stream.events[:cut]}
    assert len(blob) == 4 + 8 * len(seen)
    assert blob == struct.pack(">I", len(seen)) + b"".join(
        struct.pack(">II", u, v) for u, v in sorted(seen)
    )


vertex = st.integers(0, 9)
census_events = st.lists(
    st.tuples(st.tuples(vertex, vertex), st.none() | st.integers(1, 5)), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(census_events, census_events)
def test_census_run_equals_the_process_fold(head, events):
    """Duplicates, reversed edges, self-loops, weights, and a resumed state."""
    for alg in (UnionFindCensusAlgorithm(10), CensusThetaDecision(10, 4)):
        start = alg.deserialize(pack_edges(sorted({canon(e) for e, _ in head})))
        folded = start
        for ev in events:
            folded = alg.process(folded, ev)
        bulk = alg.run(start, events)
        assert np.array_equal(bulk, folded)
        assert alg.serialize(bulk) == alg.serialize(folded)
        assert alg.finalize(bulk) == alg.finalize(folded)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), st.none()), max_size=40))
def test_census_state_serializes_as_the_sorted_edge_set(events):
    alg = UnionFindCensusAlgorithm(2**32)
    state = alg.run(alg.init(), events)
    assert alg.serialize(state) == pack_edges(sorted({canon(e) for e, _ in events}))
    assert np.array_equal(alg.deserialize(alg.serialize(state)), state)


def test_census_theta_decision_separates():
    for n, k in ((56, 7), (104, 13)):
        for theta in (0, 1):
            inst = instance_with_theta(n, k, theta, 40)
            alg = CensusThetaDecision(inst.n, k)
            state = alg.run(alg.init(), make_stream(inst, "uniform_random", seed=1).events)
            assert alg.finalize(state) == theta


def test_theta_threshold_sits_at_seven_eighths():
    n, k = 56, 7  # theta=0: n/k = 8 components, theta=1: 3n/4k = 6
    assert theta_from_components(n, k, 8) == 0
    assert theta_from_components(n, k, 7) == 0  # 8k * 7 == 7n: ties go to k-cycles
    assert theta_from_components(n, k, 6.99) == 1
    assert theta_from_components(n, k, 6) == 1


# --- connected-components estimator -------------------------------------------


def test_cc_estimate_isolated_vertices_exact():
    stream = stream_from_edges(40, [], "given", seed=0)
    result = cc_estimate(stream, epsilon=0.25, r=10, seed=1)
    assert result.estimate == 40.0
    assert result.clean_seeds == 10 and result.dirty_seeds == 0


def test_cc_estimate_triangles_exact():
    n = 24
    edges = [e for t in range(0, n, 3) for e in [(t, t + 1), (t + 1, t + 2), (t, t + 2)]]
    for s in range(5):
        stream = stream_from_edges(n, edges, "uniform_random", seed=s)
        result = cc_estimate(stream, epsilon=0.25, r=64, seed=s + 100)
        assert result.cap == 8
        assert result.clean_seeds == 64
        assert result.estimate == pytest.approx(n / 3)


def test_cc_estimate_draws_its_seed_vertices_as_the_randrange_loop(monkeypatch):
    # cliques of 1 to 4 vertices: every seed's set is its clique, so the
    # estimate depends on which vertices the seeds are
    sizes = [1, 2, 3, 4] * 3
    starts = np.cumsum([0] + sizes)
    n = int(starts[-1])
    edges = [(int(a) + i, int(a) + j) for a, size in zip(starts, sizes)
             for i in range(size) for j in range(i + 1, size)]
    component = np.repeat(sizes, sizes)
    seed = Seed(17, ("cc", "seeds"))
    calls = []
    bulk = streaming.randrange_array

    def spy(rng, bound, count):
        loop = random.Random()
        loop.setstate(rng.getstate())
        values = bulk(rng, bound, count)
        calls.append(
            values.tolist() == randrange_loop(loop, bound, count) and rng.getstate() == loop.getstate()
        )
        return values

    monkeypatch.setattr(streaming, "randrange_array", spy)
    stream = stream_from_edges(n, edges, "given", seed=0)
    result = cc_estimate(stream, epsilon=0.25, r=40, seed=seed)
    assert calls == [True]
    rng = seed.rng()
    loop_seeds = [rng.randrange(n) for _ in range(40)]
    assert result.clean_seeds == 40
    assert result.estimate == pytest.approx(n / 40 * sum(1 / component[v] for v in loop_seeds))


def test_cc_estimate_caps_large_components():
    n = 30
    path = [(i, i + 1) for i in range(n - 1)]
    stream = stream_from_edges(n, path, "uniform_random", seed=2)
    result = cc_estimate(stream, epsilon=0.25, r=50, seed=3)
    assert result.dirty_seeds == 50
    assert result.estimate == 0.0


def test_cc_estimate_flags_growth_missed_by_arrival_order():
    # Path edges arrive far-end first: a seed at vertex <= 3 only ever absorbs
    # backwards, so its final set has a boundary edge and must read dirty.
    n = 6
    reversed_path = [(4, 5), (3, 4), (2, 3), (1, 2), (0, 1)]
    stream = stream_from_edges(n, reversed_path, "given", seed=0)
    result = cc_estimate(stream, epsilon=0.1, r=300, seed=7)
    assert result.dirty_seeds > 0 and result.clean_seeds > 0
    # every clean seed discovered the whole 6-vertex path
    assert result.estimate == pytest.approx(result.clean_seeds / 300)


def test_cc_estimate_bounds_and_validation():
    inst = sample_ngc(56, 7, seed=21)
    stream = make_stream(inst, "uniform_random", seed=22)
    for eps in (0.1, 0.5, 0.9):
        result = cc_estimate(stream, epsilon=eps, r=20, seed=23)
        assert 0.0 <= result.estimate <= inst.n
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            cc_estimate(stream, epsilon=bad, r=4, seed=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"need r >= 1, got r={bad}"):
            cc_estimate(stream, epsilon=0.5, r=bad, seed=0)


@st.composite
def cc_inputs(draw):
    """A stream over connected pieces, with self-loops, parallel edges and isolated vertices.

    With even odds it holds components of exactly cap and cap + 1 vertices,
    where the cap is ceil(2 / epsilon).  Epsilon is drawn broadly or as
    2 / (cap - f) with f in [0.01, 0.99], which sets the cap to each of 3 to 8.
    """
    cap = draw(st.integers(3, 8))
    epsilon = draw(st.floats(0.02, 0.9) | st.floats(0.01, 0.99).map(lambda f: 2 / (cap - f)))
    limit = math.ceil(2 / epsilon)
    sizes = draw(st.lists(st.integers(1, 6), max_size=6))
    if draw(st.booleans()):
        sizes += [limit, limit + 1]
    n = max(1, sum(sizes) + draw(st.integers(0, 3)))
    rnd = draw(st.randoms(use_true_random=False))
    label = list(range(n))
    rnd.shuffle(label)
    edges, start = [], 0
    for size in sizes:
        # a random spanning tree, then chords, self-loops and parallel edges
        pieces = [(start + i, start + rnd.randrange(i)) for i in range(1, size)]
        pieces += [(start + rnd.randrange(size), start + rnd.randrange(size))
                   for _ in range(rnd.randrange(size + 1))]
        pieces += rnd.sample(pieces, rnd.randrange(len(pieces) + 1))
        edges += [(label[a], label[b]) if rnd.random() < 0.5 else (label[b], label[a])
                  for a, b in pieces]
        start += size
    rnd.shuffle(edges)
    mode = draw(st.sampled_from(["given", "uniform_random"]))
    stream = stream_from_edges(n, edges, mode, seed=draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        stream = Stream(n=n, events=tuple(stream.events), order_mode=mode)
    return stream, epsilon, draw(st.integers(1, 400)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(cc_inputs())
def test_cc_estimate_matches_the_two_pass_loop(case):
    stream, epsilon, r, seed = case
    got = cc_estimate(stream, epsilon, r, seed=seed)
    want = reference_cc_estimate(stream, epsilon, r, seed=seed)
    assert got == want  # every field, the estimate by float ==


def test_cc_estimate_adds_its_terms_left_to_right():
    # cliques of 1 to 7 vertices: every seed is clean at cap 8, with term
    # 1/|C|; at this seed the rounding of the sum depends on its order
    sizes = [1, 2, 3, 5, 6, 7]
    starts = np.cumsum([0] + sizes)
    n = int(starts[-1])
    edges = [(int(a) + i, int(a) + j) for a, size in zip(starts, sizes)
             for i in range(size) for j in range(i + 1, size)]
    component = np.repeat(sizes, sizes)
    r, seed = 60, Seed(1, ("cc", "seeds"))
    terms = [1.0 / int(component[v]) for v in randrange_loop(seed.rng(), n, r)]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert left_to_right != math.fsum(terms)
    assert left_to_right != float(np.sum(terms))
    stream = stream_from_edges(n, edges, "uniform_random", seed=2)
    result = cc_estimate(stream, epsilon=0.25, r=r, seed=seed)
    assert result.clean_seeds == r
    assert result.estimate == reference_cc_estimate(stream, 0.25, r, seed=seed).estimate
    assert result.estimate == (n / r) * left_to_right
    assert result.estimate != (n / r) * math.fsum(terms)


def test_cc_estimate_rejects_ids_outside_the_vertex_range():
    for edges, bad in (([(0, 6)], 6), ([(1, 2), (-1, 3)], -1)):
        stream = stream_from_edges(6, edges, "given", seed=0)
        with pytest.raises(ValueError, match=rf"edge endpoint {bad} outside the vertex range \[0, 6\)"):
            cc_estimate(stream, epsilon=0.5, r=4, seed=0)


def test_cc_estimate_state_accounting():
    stream = stream_from_edges(16, [(0, 1)], "given", seed=0)
    result = cc_estimate(stream, epsilon=0.5, r=8, seed=1)
    assert result.cap == 4
    assert result.state_bits == 8 * 4 * 4  # r * cap * bits-per-vertex-id


# --- matching / MIS closed forms ------------------------------------------------


def test_matching_and_mis_frozen_values():
    theta1 = instance_with_theta(56, 7, 1, 60)
    theta0 = instance_with_theta(56, 7, 0, 60)
    assert matching_size_exact(56, theta1.all_edges()) == 26
    assert matching_size_exact(56, theta0.all_edges()) == 24
    assert mis_size_exact(56, theta1.all_edges()) == 30
    assert mis_size_exact(56, theta0.all_edges()) == 28


def test_matching_mis_small_cases_and_rejection():
    assert matching_size_exact(2, [(0, 1)]) == 1
    assert mis_size_exact(1, []) == 1
    assert mis_size_exact(4, []) == 4
    star = [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(ValueError):
        matching_size_exact(4, star)
    with pytest.raises(ValueError):
        mis_size_exact(4, star)


def random_deg2_graph(rng):
    n = rng.randrange(1, 15)
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []
    i = 0
    while i < n:
        size = min(rng.randrange(1, 7), n - i)
        comp, i = verts[i : i + size], i + size
        edges.extend(zip(comp, comp[1:]))
        if size >= 3 and rng.random() < 0.5:
            edges.append((comp[-1], comp[0]))
    return n, edges


def test_matching_mis_agree_with_brute_force():
    import random

    rng = random.Random(424242)
    for _ in range(60):
        n, edges = random_deg2_graph(rng)
        assert matching_size_exact(n, edges) == brute_max_matching(n, edges)
        assert mis_size_exact(n, edges) == brute_max_independent_set(n, edges)


# --- MST ------------------------------------------------------------------------


def weighted_edge_list(inst):
    return [(u, v, w) for (u, v), w in zip(inst.all_edges(), inst.edge_weights.tolist())]


def test_mst_augmented_instances():
    theta1 = mst_augment(instance_with_theta(56, 7, 1, 80), W=5)
    result1 = mst_weight_exact(weighted_edge_list(theta1), theta1.n)
    assert result1.spanning and result1.weight == 55  # n - 1

    theta0 = mst_augment(instance_with_theta(56, 7, 0, 80), W=5)
    result0 = mst_weight_exact(weighted_edge_list(theta0), theta0.n)
    assert result0.spanning and result0.weight == 59  # n - m + W(m-1)
    assert result0.weight >= 59

    for inst in (theta1, theta0):
        assert (
            mst_weight_exact(weighted_edge_list(inst), inst.n).weight
            == scipy_mst_weight(inst.n, weighted_edge_list(inst))
        )


def test_mst_triangle_and_disconnected():
    assert mst_weight_exact([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3).weight == 2
    result = mst_weight_exact([(0, 1, 3), (2, 3, 4)], 5)
    assert not result.spanning
    assert result.weight == 7 and result.components == 3
    assert result.weight == scipy_mst_weight(5, [(0, 1, 3), (2, 3, 4)])


def test_mst_random_cross_check():
    import random

    rng = random.Random(77)
    for _ in range(25):
        n = rng.randrange(2, 12)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(possible, min(len(possible), rng.randrange(1, 20)))
        weighted = [(u, v, rng.randrange(1, 10)) for u, v in chosen]
        assert mst_weight_exact(weighted, n).weight == scipy_mst_weight(n, weighted)


# --- random walks: the walk toolkit in oracles ----------------------------------


def test_random_walk_respects_adjacency():
    inst = sample_ngc(28, 7, seed=30)
    edge_set = {frozenset(e) for e in inst.all_edges()}
    walk = random_walk(inst.all_edges(), start=0, steps=25, seed=31, n=inst.n)
    assert walk.start == 0 and walk.length == 25
    for u, v in zip(walk.vertices, walk.vertices[1:]):
        assert frozenset((u, v)) in edge_set


def test_random_walk_one_step_marginal():
    trials = 4000
    hits = sum(
        random_walk(TRIANGLE, 0, 1, seed=s).vertices[1] == 1 for s in range(trials)
    )
    check = binomial_check(hits, trials, 0.5)
    assert check.within(3), f"one-step marginal off: {check}"


def test_random_walk_isolated_start_rejected():
    with pytest.raises(ValueError):
        random_walk([(1, 2)], start=0, steps=1, seed=0, n=3)


def cycle_edges(length, offset=0):
    return [(offset + i, offset + (i + 1) % length) for i in range(length)]


def test_walk_cover_probability_short_and_long():
    eight = cycle_edges(8)
    trials = 4000
    covered = sum(
        len(set(random_walk(eight, 0, 8, seed=s).vertices)) == 8
        for s in range(trials)
    )
    # 8 unit steps cover an 8-cycle with probability exactly 6/256
    check = binomial_check(covered, trials, 6 / 256)
    assert check.within(4), f"short-walk coverage off: {check}"
    assert binomial_check(covered, trials, 2**-8).at_least()

    long_covered = sum(
        len(set(random_walk(eight, 0, 4 * 64, seed=s).vertices)) == 8
        for s in range(300)
    )
    assert binomial_check(long_covered, 300, 1.0).observed_p >= 0.5


def test_walk_distribution_exact_examples():
    assert walk_distribution_exact([(0, 1)], 0, 1) == {(0, 1): Fraction(1)}
    table = walk_distribution_exact(TRIANGLE, 0, 2)
    assert len(table) == 4
    assert set(table.values()) == {Fraction(1, 4)}
    assert sum(table.values()) == 1


def test_walk_distribution_matches_empirical():
    table = walk_distribution_exact(TRIANGLE + [(1, 3), (2, 3)], 0, 3)
    assert sum(table.values()) == 1
    walks = [tuple(random_walk(TRIANGLE + [(1, 3), (2, 3)], 0, 3, seed=s).vertices) for s in range(6000)]
    counts = Counter(walks)
    assert set(counts) <= set(table)
    keys = sorted(table)
    pvalue = chi_square_expected(
        [counts.get(k, 0) for k in keys], [float(table[k]) * 6000 for k in keys]
    )
    assert pvalue > 0.001, f"walk law chi-square p={pvalue}"


def test_walk_distribution_guard():
    n = 9
    k9 = [(u, v) for u in range(n) for v in range(u + 1, n)]
    with pytest.raises(ValueError):
        walk_distribution_exact(k9, 0, 7)


def test_walk_distribution_isolated_start():
    with pytest.raises(ValueError):
        walk_distribution_exact([(1, 2)], 0, 1, n=3)


# --- cycle detection from walks ---------------------------------------------------


def test_detect_full_loop_certifies():
    seven = cycle_edges(7)
    loop = WalkSample(tuple(list(range(7)) + [0]))
    report = detect_cycle_length_from_walks([loop], seven, 7, k=7)
    assert report.k_certificates == 1
    assert report.classification == "k_cycles"


def test_detect_path_walks_never_certify():
    path = [(i, i + 1) for i in range(6)]
    walks = [random_walk(path, 3, 12, seed=s, n=7) for s in range(50)]
    report = detect_cycle_length_from_walks(walks, path, 7, k=7)
    assert report.classification == "unknown"
    assert report.k_certificates == report.two_k_certificates == 0


def test_detect_classifies_instances_by_theta():
    for theta, expected in ((0, "k_cycles"), (1, "2k_cycles")):
        inst = instance_with_theta(28, 7, theta, 90)
        edges = inst.all_edges()
        walks = [
            random_walk(edges, start, 4 * 49, seed=s, n=inst.n)
            for s, start in enumerate(range(0, inst.n, 2))
        ]
        report = detect_cycle_length_from_walks(walks, edges, inst.n, k=7)
        assert report.classification == expected, (theta, report)


def test_detect_other_lengths_counted_separately():
    five = cycle_edges(5)
    loop = WalkSample(tuple(list(range(5)) + [0, 1]))
    report = detect_cycle_length_from_walks([loop], five, 5, k=7)
    assert report.other_certificates == 1
    assert report.classification == "unknown"
