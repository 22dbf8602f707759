"""Embedding reduction, protocol harness, adapters, and the TVD reference tables."""

from __future__ import annotations

import dataclasses
import random
import struct
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngc_lab import distributions, protocols, seeds, streaming
from ngc_lab.distributions import (
    Witness,
    mst_augment,
    pad_to_k,
    sample_dhx,
    sample_dhx_segment,
    sample_ngc,
    sample_ngc_batched,
    uniform_witness,
)
from ngc_lab.gadgets import parity
from ngc_lab.partitions import ALICE, BOB, assign_batches, assign_uniform
from ngc_lab.protocols import (
    BobOnlyCycleDetector,
    BudgetExceededError,
    FullForwardCensusProtocol,
    LPlayerStreamingProtocol,
    OneWayProtocol,
    StreamingProtocol,
    embed_dhx,
    embed_dhx_batched,
    pack_edges,
    run_protocol,
    unpack_edges,
)
from ngc_lab.seeds import master_seed
from ngc_lab.stats import binomial_check, chi_square_uniform
from ngc_lab.streaming import CensusThetaDecision, stream_from_edges
from oracles import (
    OrderProbe,
    canon,
    empirical_table,
    generators_made,
    reference_batch_shuffle,
    reference_embed,
    reference_instance_parts,
    reference_relay,
    slotwise_embed,
    tvd,
    witness_parity,
)


# --- embedding ---------------------------------------------------------------


def test_embed_m1_is_identity_on_witnesses():
    for s in range(20):
        _, narrow = sample_dhx(2, 3, seed=s)
        graph, record = embed_dhx(narrow, h_star=1, m=1, seed=s + 1000)
        assert record.witness == narrow
        assert record.maps == ((1, 2),) * 3
        assert graph == narrow.build()


def test_embed_hand_trace_smallest_case():
    narrow = Witness("block", ((0, 0),), ((1, 2),))
    graph, record = embed_dhx(narrow, h_star=1, m=1, seed=7)
    assert record.witness == Witness("block", ((0, 0),), ((1, 2),))
    assert graph == narrow.build()
    assert parity(graph, 1) == 0


def test_embed_parity_claim_exact_every_run():
    rng = random.Random(11)
    for trial in range(300):
        m = rng.randrange(1, 6)
        t = rng.randrange(1, 4)
        h_star = rng.randrange(1, m + 1)
        _, narrow = sample_dhx(m + 1, t, seed=master_seed(trial).child("dhx"))
        answer = witness_parity(narrow, 1)
        graph, record = embed_dhx(narrow, h_star, m, seed=master_seed(trial).child("emb"))
        assert witness_parity(record.witness, h_star) == answer
        assert parity(graph, h_star) == answer


def test_embed_pins_all_other_groups_to_hybrid_targets():
    for trial in range(60):
        m, t, h_star = 5, 2, 3
        _, narrow = sample_dhx(m + 1, t, seed=trial)
        _, record = embed_dhx(narrow, h_star, m, seed=trial + 1, build_graph=False)
        for j in range(1, m + 1):
            if j == h_star:
                continue
            assert witness_parity(record.witness, j) == (0 if j < h_star else 1)


def test_embed_record_structure():
    m, t = 4, 3
    _, narrow = sample_dhx(m + 1, t, seed=5)
    _, record = embed_dhx(narrow, h_star=2, m=m, seed=6, build_graph=False)
    assert record.source == narrow
    assert len(record.maps) == t
    for g, f in enumerate(record.maps):
        assert len(f) == m + 1
        assert list(f) == sorted(f)  # lexicographic bijection
        pre_sampled = set(range(1, 2 * m + 1)) - set(f)
        assert len(pre_sampled) == m - 1
        sigma = record.witness.Sigma[g]
        assert sorted(sigma) == list(range(1, 2 * m + 1))
        # pre-sampled image is exactly the columns of the untouched groups
        free = [j for j in range(1, m + 1) if j != 2]
        assert {sigma[j - 1] for j in free} == pre_sampled


def test_embed_deterministic_given_seed():
    _, narrow = sample_dhx(4, 2, seed=1)
    a = embed_dhx(narrow, 2, 3, seed=42)
    b = embed_dhx(narrow, 2, 3, seed=42)
    assert a == b


def test_embed_shape_errors():
    _, narrow = sample_dhx(4, 2, seed=2)
    with pytest.raises(ValueError):
        embed_dhx(narrow, h_star=1, m=5)  # width 4 != m+1
    with pytest.raises(ValueError):
        embed_dhx(narrow, h_star=0, m=3)
    with pytest.raises(ValueError):
        embed_dhx(narrow, h_star=4, m=3)
    _, seg = sample_dhx_segment(4, 2, 2, seed=3)
    with pytest.raises(ValueError):
        embed_dhx(seg, h_star=1, m=3)
    with pytest.raises(ValueError):
        embed_dhx_batched(narrow, h_star=1, m=3, s=2, t=2)
    with pytest.raises(ValueError):
        embed_dhx_batched(seg, h_star=1, m=3, s=3, t=2)  # grid is 2x2


def test_embed_marginal_matches_even_hybrid_mixture():
    # m=1, t=2: the embedded witness law must be the even mixture of the two
    # adjacent hybrids, which at m=1 is the uniform law on all 64 witnesses.
    draws = 100_000
    root = master_seed(20260815)
    support = [
        (x, sigma)
        for x in product(product((0, 1), repeat=2), repeat=2)
        for sigma in product(((1, 2), (2, 1)), repeat=2)
    ]
    assert len(support) == 64
    exact = {cell: Fraction(1, 64) for cell in support}
    samples = []
    for i in range(draws):
        _, narrow = sample_dhx(2, 2, seed=root.child("dhx", i))
        _, record = embed_dhx(narrow, 1, 1, seed=root.child("emb", i), build_graph=False)
        samples.append((record.witness.X, record.witness.Sigma))
    distance = tvd(empirical_table(samples, support=support), exact)
    assert distance < 0.02, f"embedded marginal TVD {distance}"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([None, 1, 2]),
    st.integers(0, 2**63 - 1),
    st.booleans(),
)
def test_embed_matches_reference_embed(m, t, s, key, build_graph):
    # whole records (maps, wide witness, source), graphs and the state of every
    # generator derived, at every target group, against both references
    form = "block" if s is None else "segment"
    narrow = uniform_witness(form, m + 1, s or 1, t, key)

    def embed(h_star, seed):
        if s is None:
            return embed_dhx(narrow, h_star, m, seed, build_graph)
        return embed_dhx_batched(narrow, h_star, m, s, t, seed, build_graph)

    for h_star in range(1, m + 1):
        seed = master_seed(key).child("emb", h_star)
        runs = []
        for route in (embed, reference_embed, slotwise_embed):
            args = (h_star, seed) if route is embed else (narrow, h_star, m, t, seed, build_graph)
            with generators_made() as made:
                out = route(*args)
            runs.append((out, [g.getstate() for g in made]))
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0][1]) == (m > 1)  # at m=1 nothing is drawn


def rebuilt(obj):
    """obj with every dataclass in it made again by its constructor."""
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: rebuilt(getattr(obj, f.name)) for f in dataclasses.fields(obj)})
    if isinstance(obj, tuple):
        return tuple(rebuilt(v) for v in obj)
    return obj


@pytest.mark.parametrize("m, s, t", [(1, None, 2), (3, None, 3), (2, 2, 2), (1, 1, 1)])
def test_objects_built_without_init_equal_their_constructed_twins(m, s, t):
    # witnesses (from_gadgets), graphs and specs (the one-pass builders) and
    # embedding records are made without __init__; each equals, hashes and
    # prints as the object its constructor makes from the same fields
    form = "block" if s is None else "segment"
    graph, narrow = sample_dhx(m + 1, t, 3) if s is None else sample_dhx_segment(m + 1, s, t, 3)
    if s is None:
        wide, record = embed_dhx(narrow, m, m, 4)
    else:
        wide, record = embed_dhx_batched(narrow, m, m, s, t, 4)
    objects = [narrow, graph, *graph.matchings, record, record.witness, wide, *wide.matchings]
    for obj in objects:
        twin = rebuilt(obj)
        assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
        assert vars(twin) == vars(obj)
    assert record.witness.form == form


@pytest.mark.parametrize(
    "X, Sigma",
    [
        (((0, 1, 0), (0, 1)), ((1, 2, 3), (2, 1))),  # gadget 1 has width 2
        (((0, 1, 0), (0, 1, 1)), ((1, 2, 3), (2, 1))),  # gadget 1's sigma alone
        (((0, 1, 0), (0, 1)), ((1, 2, 3), (2, 1, 3))),  # gadget 1's x alone
        (((0, 1), (1, 1)), ((2, 1), (1, 2))),  # every gadget
    ],
)
def test_embed_rejects_gadgets_not_of_width_m_plus_1(X, Sigma):
    # m = 2 needs width 3 in every gadget, not only in gadget 0
    with pytest.raises(ValueError, match="gadget [01] of the witness is not of width m"):
        embed_dhx(Witness("block", X, Sigma), 1, 2, 7, build_graph=False)
    with pytest.raises(ValueError, match="gadget [01] of the witness is not of width m"):
        embed_dhx_batched(Witness("segment", (X,), (Sigma,)), 1, 2, 1, 2, 7, build_graph=False)


def test_embed_rejects_a_witness_without_gadgets():
    with pytest.raises(ValueError, match="no gadgets"):
        embed_dhx(Witness("block", (), ()), 1, 2)
    with pytest.raises(ValueError, match="no gadgets"):
        embed_dhx_batched(Witness("segment", (), ()), 1, 2, 0, 2)
    with pytest.raises(ValueError, match="no gadgets"):
        embed_dhx_batched(Witness("segment", ((),), ((),)), 1, 2, 1, 0)


def test_embed_batched_claim_and_structure():
    rng = random.Random(23)
    for trial in range(150):
        m = rng.randrange(1, 5)
        s = rng.randrange(1, 4)
        t = rng.randrange(1, 4)
        h_star = rng.randrange(1, m + 1)
        _, narrow = sample_dhx_segment(m + 1, s, t, seed=trial)
        answer = witness_parity(narrow, 1)
        graph, record = embed_dhx_batched(narrow, h_star, m, s, t, seed=trial + 9)
        assert record.witness.form == "segment"
        assert len(record.maps) == s * t
        assert witness_parity(record.witness, h_star) == answer
        assert parity(graph, h_star) == answer
        for j in range(1, m + 1):
            if j != h_star:
                assert witness_parity(record.witness, j) == (0 if j < h_star else 1)


def test_embed_batched_s1_matches_segment_dhx_shape():
    _, narrow = sample_dhx_segment(3, 1, 2, seed=4)
    graph, record = embed_dhx_batched(narrow, h_star=1, m=2, s=1, t=2, seed=5)
    assert record.witness.form == "segment"
    assert len(record.witness.Sigma) == 1 and len(record.witness.Sigma[0]) == 2
    assert graph.depth == (2 * 2 + 1) * 1 + 1


# --- protocol harness -----------------------------------------------------------


def test_pack_unpack_roundtrip():
    edges = [(0, 5), (12, 3), (7, 7)]
    assert unpack_edges(pack_edges(edges)).tolist() == [list(e) for e in edges]
    assert pack_edges(np.array(edges)) == pack_edges(edges)
    assert pack_edges([]) == b"\x00\x00\x00\x00"
    assert unpack_edges(pack_edges([])).shape == (0, 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), max_size=40))
def test_pack_edges_matches_struct_layout(edges):
    blob = pack_edges(iter(edges))
    assert blob == struct.pack(">I", len(edges)) + b"".join(
        struct.pack(">II", u, v) for u, v in edges
    )
    back = unpack_edges(blob)
    assert back.dtype == np.int64 and back.shape == (len(edges), 2)
    assert back.tolist() == [list(e) for e in edges]


def test_pack_edges_rejects_ids_outside_u32():
    for edges in ([(-1, 2)], [(0, 2**32)]):
        with pytest.raises(OverflowError):
            pack_edges(edges)


def test_full_forward_census_always_correct():
    for n, k in ((56, 7), (104, 13)):
        protocol = FullForwardCensusProtocol(n, k)
        for i in range(40):
            inst = sample_ngc(n, k, seed=i)
            assignment = assign_uniform(inst.all_edges(), 2, seed=i + 1)
            result = run_protocol(protocol, inst, assignment, seed=i + 2)
            assert result.output == inst.theta
            edges_a = [e for e in inst.all_edges() if assignment.owner_of(e) == ALICE]
            assert result.message_bits == 8 * (4 + 8 * len(edges_a))


def test_budget_exceeded_is_hard_error():
    inst = sample_ngc(28, 7, seed=9)
    assignment = assign_uniform(inst.all_edges(), 2, seed=10)
    protocol = FullForwardCensusProtocol(28, 7)
    protocol.message_budget = 8
    with pytest.raises(BudgetExceededError):
        run_protocol(protocol, inst, assignment, seed=11)


def test_non_bit_output_rejected():
    class Broken(OneWayProtocol):
        def alice(self, edges, shared):
            return b""

        def bob(self, message, edges, shared):
            return 2

    inst = sample_ngc(28, 7, seed=12)
    assignment = assign_uniform(inst.all_edges(), 2, seed=13)
    with pytest.raises(ValueError):
        run_protocol(Broken(), inst, assignment, seed=14)


def test_two_player_assignment_required():
    class Silent(OneWayProtocol):
        def alice(self, edges, shared):
            return b""

        def bob(self, message, edges, shared):
            return 1

    inst = sample_ngc(28, 7, seed=15)
    three_way = assign_uniform(inst.all_edges(), 3, seed=16)
    with pytest.raises(ValueError):
        run_protocol(Silent(), inst, three_way, seed=17)


def test_run_protocol_deterministic():
    inst = sample_ngc(56, 7, seed=18)
    assignment = assign_uniform(inst.all_edges(), 2, seed=19)
    protocol = FullForwardCensusProtocol(56, 7)
    first = run_protocol(protocol, inst, assignment, seed=20)
    second = run_protocol(protocol, inst, assignment, seed=20)
    assert first == second


def test_bob_only_detector_one_sided():
    # theta=0 has no 2k-cycles at all: the detector never false-alarms.
    n, k = 1024, 4
    protocol = BobOnlyCycleDetector(n, k)
    zero_seen = one_hits = one_trials = 0
    i = 0
    while zero_seen < 40 or one_trials < 400:
        i += 1
        inst = sample_ngc(n, k, seed=master_seed(i).child("bo"))
        assignment = assign_uniform(inst.all_edges(), 2, seed=master_seed(i).child("as"))
        result = run_protocol(protocol, inst, assignment, seed=master_seed(i).child("rn"))
        assert result.message_bits == 0
        if inst.theta == 0:
            assert result.output == 0
            zero_seen += 1
        elif one_trials < 400:
            one_trials += 1
            one_hits += int(result.output == 1)
    # m = n/4k = 64 cycles of length 2k; each survives into Bob's half w.p. 2^-8
    survive_all = (1 - 2**-8) ** 64
    check = binomial_check(one_hits, one_trials, 1 - survive_all)
    assert check.within(4), f"detector hit rate off: {check}"


# --- streaming adapters -----------------------------------------------------------


def test_adapter_matches_whole_graph_census_decision():
    for i in range(30):
        inst = sample_ngc(56, 7, seed=master_seed(i).child("i"))
        assignment = assign_uniform(inst.all_edges(), 2, seed=master_seed(i).child("a"))
        algorithm = CensusThetaDecision(inst.n, inst.k)
        protocol = StreamingProtocol(algorithm)
        result = run_protocol(protocol, inst, assignment, seed=master_seed(i).child("s"))
        assert result.output == inst.theta
        # message length equals the algorithm's own state accounting
        edges_a = {e for e in inst.all_edges() if assignment.owner_of(e) == ALICE}
        assert result.message_bits == 8 * (4 + 8 * len(edges_a))


def test_adapter_induced_order_uniform_at_four_edges():
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    adapter = StreamingProtocol(OrderProbe())
    counts: Counter[tuple] = Counter()
    trials = 24_000
    for i in range(trials):
        shared = master_seed(i).child("shared")
        assignment = assign_uniform(edges, 2, seed=master_seed(i).child("assign"))
        edges_a = [e for e in edges if assignment.owner_of(e) == ALICE]
        edges_b = [e for e in edges if assignment.owner_of(e) == BOB]
        message = adapter.alice(edges_a, shared)
        order = adapter.bob(message, edges_b, shared)
        counts[tuple(order)] += 1
    assert set(counts) == set(permutations(edges))
    pvalue = chi_square_uniform([counts[p] for p in sorted(counts)])
    assert pvalue > 0.001, f"induced order chi-square p={pvalue}"


def test_l_player_relay_matches_census():
    for l in (2, 4):
        for i in range(15):
            inst = sample_ngc_batched(n=64, k=4, s=1, t=1, seed=i)
            assignment = assign_batches(inst, l, seed=i + 50)
            relay = LPlayerStreamingProtocol(CensusThetaDecision(inst.n, inst.k), l)
            result = relay.run(inst, assignment, seed=i + 99)
            assert result.output == inst.theta
            assert len(result.hop_bits) == l - 1
            assert result.max_bits <= 8 * (4 + 8 * len(inst.all_edges()))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 4]))
def test_l_player_relay_matches_the_set_state_reference(seed, l):
    inst = sample_ngc_batched(n=120, k=15, s=2, t=3, seed=seed)
    assignment = assign_batches(inst, l, seed=seed + 1)
    relay = LPlayerStreamingProtocol(CensusThetaDecision(inst.n, inst.k), l)
    result = relay.run(inst, assignment, seed=seed + 2)
    assert (result.output, result.hop_bits) == reference_relay(inst, assignment, l, seed + 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_ngc_batched(56, 7, 2, 1, 40),
        lambda: sample_ngc_batched(120, 15, 2, 3, 41),
        lambda: pad_to_k(sample_ngc_batched(56, 7, 2, 1, 42), 9),
        lambda: mst_augment(sample_ngc_batched(56, 7, 2, 1, 43), 5),
        lambda: mst_augment(pad_to_k(sample_ngc_batched(112, 7, 2, 1, 44), 8), 7),
    ],
    ids=["segment", "segment-t3", "padded", "augmented", "padded-augmented"],
)
def test_one_player_relay_streams_the_pair_shuffle_order(make):
    # one player owns every batch, so the relay streams all of them in its batched order
    inst = make()
    batches = reference_instance_parts(inst)["batches"]
    relay = LPlayerStreamingProtocol(OrderProbe(), 1)
    for seed in range(4):
        assignment = assign_batches(inst, 1, seed=seed + 10)
        with generators_made() as made:
            order = relay.run(inst, assignment, seed).output
            want = reference_batch_shuffle(batches, master_seed(seed).child("player", 1).rng())
        assert list(order) == want
        assert len(made) == 2 and made[0].getstate() == made[1].getstate()


def test_streaming_adapter_orders_are_the_list_shuffles(monkeypatch):
    # Alice's 350 edges take the bulk shuffle replay, Bob's 250 the list shuffle
    monkeypatch.setattr(seeds, "_SHUFFLE_BULK_MIN", 300)
    edges = [(2 * i, 2 * i + 1) for i in range(600)]
    shared = master_seed(5).child("adapter")
    adapter = StreamingProtocol(OrderProbe())
    order = adapter.bob(adapter.alice(edges[:350], shared), np.array(edges[350:]), shared)
    want_a, want_b = edges[:350], edges[350:]
    shared.child("alice-shuffle").rng().shuffle(want_a)
    shared.child("bob-shuffle").rng().shuffle(want_b)
    assert list(order) == want_a + want_b


def test_large_instance_chain_hands_census_sized_edge_arrays(monkeypatch):
    # the large-instance chain: stream and decide, then split and run the protocol;
    # each decision reads a census or a bare component count
    calls = []

    def recording(original):
        def record(n, edges):
            calls.append(edges)
            return original(n, edges)

        return record

    for name in ("census_of_edges", "component_count"):
        wrapped = recording(getattr(distributions, name))
        for module in (distributions, streaming, protocols):
            monkeypatch.setattr(module, name, wrapped)
    n, k = 280, 7
    inst = sample_ngc(n, k, 11)
    edges = inst.all_edges()
    stream = stream_from_edges(n, edges, "uniform_random", seed=12)
    decision = CensusThetaDecision(n, k)
    state = decision.run(decision.init(), stream.events)
    assert np.array_equal(decision.run(decision.init(), tuple(stream.events)), state)
    decided = decision.finalize(state)
    assignment = assign_uniform(edges, 2, seed=13)
    result = run_protocol(FullForwardCensusProtocol(n, k), inst, assignment, seed=14)
    assert decided == result.output == inst.theta
    assert all(isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[1] == 2 for a in calls)
    assert [len(a) for a in calls] == [len({canon(e) for e in edges}), len(edges)]


def test_l_player_relay_validation():
    inst = sample_ngc_batched(n=64, k=4, s=1, t=1, seed=0)
    relay = LPlayerStreamingProtocol(CensusThetaDecision(inst.n, inst.k), 4)
    with pytest.raises(ValueError):
        relay.run(inst, assign_uniform(inst.all_edges(), 2, seed=1), seed=2)
    with pytest.raises(ValueError):
        relay.run(inst, assign_batches(inst, 2, seed=3), seed=4)  # player mismatch
    with pytest.raises(ValueError):
        LPlayerStreamingProtocol(CensusThetaDecision(64, 4), 0)


# --- total variation distance: the exact tables in oracles ------------------------


def test_tvd_examples():
    assert tvd({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0
    assert tvd({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}) == 1.0
    assert tvd({"a": 0.75, "b": 0.25}, {"a": 0.25, "b": 0.75}) == 0.5
    assert tvd({0: Fraction(1, 3), 1: Fraction(2, 3)}, {0: Fraction(1, 3), 1: Fraction(2, 3)}) == 0.0


def test_tvd_validation():
    with pytest.raises(ValueError):
        tvd({"a": 1.0}, {"b": 1.0})
    with pytest.raises(ValueError):
        tvd({"a": 0.6, "b": 0.6}, {"a": 0.5, "b": 0.5})
    with pytest.raises(ValueError):
        tvd({"a": 1.0}, {"a": 0.9})


def test_empirical_table():
    table = empirical_table(["x", "x", "y", "x"])
    assert table == {"x": Fraction(3, 4), "y": Fraction(1, 4)}
    filled = empirical_table(["x"], support={"x", "y"})
    assert filled == {"x": Fraction(1), "y": Fraction(0)}
    with pytest.raises(ValueError):
        empirical_table(["z"], support={"x"})
    with pytest.raises(ValueError):
        empirical_table([])
