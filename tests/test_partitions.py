"""Partition models: ownership semantics, clean/active events, batched/stochastic."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngc_lab import partitions
from ngc_lab.distributions import (
    EdgeTable,
    mst_augment,
    pad_to_k,
    sample_ngc,
    sample_ngc_batched,
)
from ngc_lab.gadgets import invert_perm, to_edges
from ngc_lab.partitions import (
    ALICE,
    BOB,
    CLEAN_PATTERN,
    EdgeAssignment,
    PartitionFunctions,
    active_blocks,
    active_segments,
    assign_batches,
    assign_by_functions,
    assign_uniform,
    clean_indices,
    clean_indices_stochastic,
    clean_masks,
    core_columns,
    function_index_table,
    index_edges,
    index_ownership_pattern,
    random_partition_functions,
    sample_counts,
    seen_counts,
    stochastic_assign,
    stochastic_owners,
)
from ngc_lab.seeds import master_seed
from ngc_lab.stats import binomial_check, chi_square_uniform

from oracles import (
    canon,
    instance_graph,
    reference_active_blocks,
    reference_assign_batches,
    reference_assign_by_functions,
    reference_assign_uniform,
    reference_clean_indices,
    reference_clean_indices_stochastic,
    reference_index_edges,
    reference_random_partition_functions,
    reference_stochastic_assign,
)

SEED = master_seed(77)


# --- uniform assignment --------------------------------------------------------


def test_assign_uniform_balance_and_determinism():
    edges = [(i, i + 1) for i in range(0, 20_000, 2)]
    a1 = assign_uniform(edges, 2, SEED.child("u"))
    a2 = assign_uniform(edges, 2, SEED.child("u"))
    assert a1.owner == a2.owner
    alice = sum(1 for v in a1.owner.values() if v == ALICE)
    assert binomial_check(alice, len(edges), 0.5).within(3.0)


def test_assign_uniform_single_edge_varies():
    seen = {assign_uniform([(0, 1)], 2, SEED.child("single", i)).owner[(0, 1)] for i in range(64)}
    assert seen == {ALICE, BOB}


def test_assign_uniform_rejects_one_player():
    with pytest.raises(ValueError):
        assign_uniform([(0, 1)], 1, SEED)


# --- partition functions -------------------------------------------------------


def test_all_alpha_functions_give_alice_every_block_edge():
    inst = sample_ngc(28, 7, SEED.child("aa"))
    maps = ((ALICE,) * (2 * inst.width),) * inst.t
    F = PartitionFunctions(maps, maps, maps)
    assignment = assign_by_functions(inst, F, SEED.child("aa-leftover"))
    core = set(map(canon, to_edges(instance_graph(inst))))
    for e in core:
        assert assignment.owner_of(e) == ALICE


def test_single_index_pattern_controls_its_six_edges():
    # set index j*'s in-pair to Alice and mid/out pairs to Bob, rest random
    inst = sample_ngc(32, 4, SEED.child("fig"))
    w, j_star = inst.width, 3
    F = random_partition_functions(w, inst.t, SEED.child("figF"))
    fL = [list(f) for f in F.fL]
    fM = [list(f) for f in F.fM]
    fR = [list(f) for f in F.fR]
    for side in (0, 1):
        fL[0][2 * (j_star - 1) + side] = ALICE
        fM[0][2 * (j_star - 1) + side] = BOB
        fR[0][2 * (j_star - 1) + side] = BOB
    F = PartitionFunctions(
        tuple(map(tuple, fL)), tuple(map(tuple, fM)), tuple(map(tuple, fR))
    )
    assignment = assign_by_functions(inst, F, SEED.child("figA"))
    pattern = index_ownership_pattern(inst, assignment, 1, j_star)
    assert pattern == (ALICE, ALICE, BOB, BOB, BOB, BOB)


def test_function_route_matches_direct_reads():
    # ownership of index edges equals the function values that key them
    inst = sample_ngc(32, 4, SEED.child("keys"))
    F = random_partition_functions(inst.width, inst.t, SEED.child("keysF"))
    assignment = assign_by_functions(inst, F, SEED.child("keysA"))
    for j in range(1, inst.width + 1):
        expect = (
            F.fL[0][2 * (j - 1)],
            F.fL[0][2 * (j - 1) + 1],
            F.fM[0][2 * (j - 1)],
            F.fM[0][2 * (j - 1) + 1],
            F.fR[0][2 * (j - 1)],
            F.fR[0][2 * (j - 1) + 1],
        )
        assert index_ownership_pattern(inst, assignment, 1, j) == expect


def test_random_functions_look_iid_uniform():
    # Obs-4.1-style: per-edge marginal plus the 64-cell joint of one index
    inst = sample_ngc(28, 7, SEED.child("obs"))
    probe = canon(to_edges(instance_graph(inst))[5])
    trials = 20_000
    alice = 0
    cells = Counter()
    for i in range(trials):
        F = random_partition_functions(inst.width, inst.t, SEED.child("obsF", i))
        assignment = assign_by_functions(inst, F, SEED.child("obsA", i))
        alice += assignment.owner_of(probe) == ALICE
        cells[index_ownership_pattern(inst, assignment, 1, 1)] += 1
    assert binomial_check(alice, trials, 0.5).within(3.0)
    assert len(cells) == 64
    assert chi_square_uniform([cells[c] for c in sorted(cells)]) > 0.001


# --- clean indices -------------------------------------------------------------


def test_all_clean_functions_cap_to_wc():
    # w = 4: floor(4/100) -> substituted 1; w = 100 and 200 keep 1 and 2 unfloored
    for n, w_c, floored in ((32, 1, True), (800, 1, False), (1600, 2, False)):
        inst = sample_ngc(n, 4, SEED.child("clean", n))
        w = inst.width
        beta = tuple(tuple(BOB for _ in range(2 * w)) for _ in range(inst.t))
        alpha = tuple(tuple(ALICE for _ in range(2 * w)) for _ in range(inst.t))
        F = PartitionFunctions(beta, alpha, beta)
        entry = clean_indices(inst, F).entries[0]
        assert entry.clean_uncapped == tuple(range(1, w + 1))
        assert (entry.w_c, entry.cap_floored) == (w_c, floored)
        assert entry.clean == tuple(range(1, w_c + 1))
        active = active_blocks(inst, F).entries[0]
        assert active.active == (active.sigma1 <= w_c) and active.active_uncapped


def test_clean_probability_one_in_64():
    inst = sample_ngc(28, 7, SEED.child("p64"))
    trials = 20_000
    hits = 0
    for i in range(trials):
        F = random_partition_functions(inst.width, inst.t, SEED.child("p64F", i))
        # evaluate the definition directly on index 1 of block 1
        j = 1
        ok = (
            F.fL[0][2 * (j - 1)] == BOB
            and F.fL[0][2 * (j - 1) + 1] == BOB
            and F.fM[0][2 * (j - 1)] == ALICE
            and F.fM[0][2 * (j - 1) + 1] == ALICE
            and F.fR[0][2 * (j - 1)] == BOB
            and F.fR[0][2 * (j - 1) + 1] == BOB
        )
        hits += ok
    assert binomial_check(hits, trials, 1 / 64).within(3.0)


def test_clean_function_route_equals_assignment_route():
    inst = sample_ngc(32, 4, SEED.child("routes"))
    for i in range(50):
        F = random_partition_functions(inst.width, inst.t, SEED.child("rF", i))
        via_f = clean_indices(inst, F)
        via_a = clean_indices(inst, assign_by_functions(inst, F, SEED.child("rA", i)))
        assert via_f == via_a


def test_malformed_partition_functions_are_rejected():
    inst = sample_ngc(56, 7, SEED.child("badF"))
    w, t = inst.width, inst.t
    wrong_t = random_partition_functions(w, t + 1, SEED.child("badF", "t"))
    wrong_w = random_partition_functions(w + 2, t, SEED.child("badF", "w"))
    cases = (wrong_t, f"F covers {t + 1} blocks, instance has {t}"), (wrong_w, "F domain size differs")
    for F, message in cases:
        for route in (clean_indices, active_blocks, assign_by_functions):
            with pytest.raises(ValueError, match=message):
                route(inst, F)


def test_function_route_owns_no_edges(monkeypatch):
    inst = mst_augment(pad_to_k(sample_ngc(56, 7, SEED.child("noedges")), 9), 5)
    F = random_partition_functions(inst.width, inst.t, SEED.child("noedgesF"))

    def refuse(*args, **kwargs):
        raise AssertionError("the function route built an edge table")

    monkeypatch.setattr(partitions, "assign_by_functions", refuse)
    monkeypatch.setattr(EdgeTable, "from_edges", refuse)
    clean, active = clean_indices(inst, F), active_blocks(inst, F)
    monkeypatch.undo()
    assert clean == reference_clean_indices(inst, F)
    assert active == reference_active_blocks(inst, F)


# --- active blocks --------------------------------------------------------------


def test_active_blocks_definition():
    inst = sample_ngc(32, 4, SEED.child("act"))
    for i in range(100):
        F = random_partition_functions(inst.width, inst.t, SEED.child("actF", i))
        report = active_blocks(inst, F)
        for entry in report.entries:
            sigma1 = inst.witness.Sigma[entry.block - 1][0]
            assert entry.sigma1 == sigma1
            assert entry.active == (sigma1 in entry.clean)
            assert entry.active_uncapped == (sigma1 in entry.clean_uncapped)
        assert report.t_a == len(report.active_list)


def test_uncapped_activity_frequency():
    trials = 20_000
    hits = 0
    for i in range(trials):
        inst = sample_ngc(16, 4, SEED.child("freq", i))
        F = random_partition_functions(inst.width, inst.t, SEED.child("freqF", i))
        report = active_blocks(inst, F)
        hits += report.entries[0].active_uncapped
    assert binomial_check(hits, trials, 1 / 64).within(3.0)


def test_x_coordinates_uniform_given_activity():
    # conditioning on the active pattern must not disturb X's marginals
    ones = Counter()
    actives = 0
    for i in range(20_000):
        inst = sample_ngc(28, 7, SEED.child("obs47", i))
        F = random_partition_functions(inst.width, inst.t, SEED.child("o47F", i))
        report = active_blocks(inst, F)
        if not report.entries[0].active:
            continue
        actives += 1
        for coord in range(inst.width):
            ones[coord] += inst.witness.X[0][coord]
    assert actives > 100
    for coord, count in ones.items():
        assert binomial_check(count, actives, 0.5).within(4.0)


# --- batched assignment ---------------------------------------------------------


def test_assign_batches_constant_within_batch():
    inst = sample_ngc_batched(56, 7, 2, 1, SEED.child("bat"))
    assignment = assign_batches(inst, 4, SEED.child("batA"))
    assert assignment.players == 4
    for b, (e1, e2) in enumerate(inst.batched_edges.reshape(-1, 2, 2).tolist()):
        assert assignment.owner_of(e1) == assignment.owner_of(e2)
        assert assignment.owner_of(e1) == assignment.batch_owners[b]
        assert 1 <= assignment.batch_owners[b] <= 4


def test_assign_batches_single_player_and_share():
    inst = sample_ngc_batched(56, 7, 2, 1, SEED.child("bat1"))
    all_one = assign_batches(inst, 1, SEED.child("bat1A"))
    assert set(all_one.batch_owners) == {1}
    counts = Counter()
    trials = 3000
    for i in range(trials):
        a = assign_batches(inst, 4, SEED.child("batS", i))
        counts[a.batch_owners[0]] += 1
    for player in range(1, 5):
        assert binomial_check(counts[player], trials, 1 / 4).within(3.0)


def test_assign_batches_requires_batches():
    inst = sample_ngc(28, 7, SEED.child("nob"))
    with pytest.raises(ValueError):
        assign_batches(inst, 4, SEED)


# --- active segments -------------------------------------------------------------


def brute_segment_reports(inst, assignment, l):
    """Independent re-derivation of segment activity from first principles."""
    w, s, t = inst.width, inst.s, inst.t
    window = l // s
    owners = assignment.batch_owners
    graph = instance_graph(inst)
    out = []
    for i in range(1, s + 1):
        lo, hi = window * (i - 1) + 1, window * i
        found = None
        for a in range(1, t + 1):
            q_in = (2 * t + 1) * (i - 1) + 2 * a - 1
            q_out = q_in + 1
            pi_inv = invert_perm(graph.matchings[q_in - 1].pi)
            for j in range(1, w + 1):
                b_out = owners[(q_out - 1) * w + (j - 1)]
                b_in = owners[(q_in - 1) * w + (pi_inv[j - 1] - 1)]
                if lo <= b_out < b_in <= hi:
                    found = (a, j, b_out, b_in, q_in, q_out, pi_inv)
                    break
            if found:
                break
        if not found:
            out.append((i, False, None, None, None, None, ()))
            continue
        a, j0, beta, alpha, q_in, q_out, pi_inv = found
        good = tuple(
            j
            for j in range(1, w + 1)
            if j != j0
            and owners[(q_out - 1) * w + (j - 1)] == beta
            and owners[(q_in - 1) * w + (pi_inv[j - 1] - 1)] == alpha
        )
        out.append((i, True, a, j0, alpha, beta, good))
    return out


def test_active_segments_matches_brute():
    shapes = [
        (120, 15, 2, 3, 4, SEED.child("segs")),
        (56, 7, 2, 1, 2, SEED.child("segs", 7)),
        (8 * 22, 22, 3, 3, 6, SEED.child("segs", 22)),
        (4 * 8 * 3, 8, 1, 3, 3, SEED.child("segs", 8)),
    ]
    for n, k, s, t, l, seed in shapes:
        inst = sample_ngc_batched(n, k, s, t, seed)
        for i in range(200):
            assignment = assign_batches(inst, l, SEED.child("segsA", i))
            reports = active_segments(inst, assignment)
            brute = brute_segment_reports(inst, assignment, l)
            got = [
                (r.segment, r.active, r.a_star, r.group_star, r.alpha, r.beta, r.good_groups)
                for r in reports
            ]
            assert got == brute


def test_active_segments_requires_divisible_l():
    inst = sample_ngc_batched(56, 7, 2, 1, SEED.child("div"))
    with pytest.raises(ValueError):
        active_segments(inst, assign_batches(inst, 3, SEED.child("divA")))


def test_group_activation_probability():
    # fixed group, fixed even layer: Pr = (l/s)(l/s - 1) / (2 l^2), here 1/16
    inst = sample_ngc_batched(56, 7, 2, 1, SEED.child("gap"))
    l, s, t, w = 4, inst.s, inst.t, inst.width
    window = l // s
    trials = 20_000
    hits = 0
    pi_inv = invert_perm(instance_graph(inst).matchings[0].pi)
    for i in range(trials):
        assignment = assign_batches(inst, l, SEED.child("gapA", i))
        owners = assignment.batch_owners
        b_out = owners[(2 - 1) * w + 0]
        b_in = owners[(1 - 1) * w + (pi_inv[0] - 1)]
        hits += 1 <= b_out < b_in <= window
    p = window * (window - 1) / (2 * l * l)
    assert p >= 1 / (4 * s * s)
    assert binomial_check(hits, trials, p).within(3.0)


def test_good_group_probability_given_active():
    # Only groups scanned after the first activator have owners independent of
    # the activation event (earlier groups were conditioned on NOT matching),
    # so the 1/l^2 law is measured on those.
    inst = sample_ngc_batched(112, 7, 2, 1, SEED.child("good"))
    l = 4
    good_hits = 0
    observations = 0
    for i in range(20_000):
        assignment = assign_batches(inst, l, SEED.child("goodA", i))
        report = active_segments(inst, assignment)[0]
        if not report.active:
            continue
        later = [j for j in range(report.group_star + 1, inst.width + 1)]
        observations += len(later)
        good_hits += sum(1 for j in later if j in report.good_groups)
    assert observations > 1000
    assert binomial_check(good_hits, observations, 1 / (l * l)).within(3.0)


# --- stochastic -------------------------------------------------------------------


def test_stochastic_counts_and_determinism():
    edges = [(i, i + 1) for i in range(0, 2000, 2)]
    a = stochastic_assign(edges, 1.0, SEED.child("sto"))
    assert a.mode == "stochastic"
    assert len(a.samples[0]) == len(a.samples[1]) == math.ceil(len(edges) / 2)
    b = stochastic_assign(edges, 1.0, SEED.child("sto"))
    assert a.samples == b.samples


def test_stochastic_zero_c_gives_empty_samples():
    edges = [(0, 1), (2, 3)]
    a = stochastic_assign(edges, 0.0, SEED.child("sto0"))
    assert a.samples == ((), ())
    for c in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="need a finite c >= 0"):
            stochastic_assign(edges, c, SEED)


def test_stochastic_sample_size_has_a_ceiling(monkeypatch):
    monkeypatch.setattr(partitions, "MAX_SAMPLE_SIZE", 4)
    edges = [(i, i + 1) for i in range(0, 16, 2)]  # 8 edges
    assert len(stochastic_assign(edges, 1.0, SEED).samples[0]) == 4
    with pytest.raises(ValueError, match="more than 4 samples"):
        stochastic_assign(edges, 1.01, SEED)


def test_stochastic_absence_bounds():
    edges = [(i, i + 1) for i in range(0, 2000, 2)]
    c = 1.0
    not_in_b = 0
    in_a_not_b = 0
    trials = 0
    for i in range(30):
        a = stochastic_assign(edges, c, SEED.child("stoB", i))
        seen_a = set(a.samples[0])
        seen_b = set(a.samples[1])
        for e in edges:
            trials += 1
            not_in_b += e not in seen_b
            in_a_not_b += e in seen_a and e not in seen_b
    assert binomial_check(not_in_b, trials, math.exp(-c)).at_least()
    assert binomial_check(in_a_not_b, trials, math.exp(-1.5 * c)).at_least()


def test_stochastic_clean_definition_and_cap():
    inst = sample_ngc(4 * 4 * 8, 4, SEED.child("stoc"))  # w = 16
    assignment = stochastic_assign(inst.all_edges(), 1.0, SEED.child("stocA"))
    report = clean_indices_stochastic(inst, assignment)
    seen_a = {canon(e) for e in assignment.samples[0]}
    seen_b = {canon(e) for e in assignment.samples[1]}
    entry = report.entries[0]
    assert entry.w_c == 1 and entry.cap_floored  # floor(16 / 2e^9) = 0 -> 1
    for j in range(1, inst.width + 1):
        into, mid, out = index_edges(inst, 1, j)
        expect = all(
            canon(e) not in seen_a and canon(e) in seen_b for e in into + out
        ) and all(canon(e) not in seen_b and canon(e) in seen_a for e in mid)
        assert (j in entry.clean_uncapped) == expect


def test_stochastic_clean_requires_stochastic_mode():
    inst = sample_ngc(28, 7, SEED.child("stoX"))
    with pytest.raises(ValueError):
        clean_indices_stochastic(inst, assign_uniform(inst.all_edges(), 2, SEED))


def test_clean_pattern_constant_is_bob_alice_bob():
    assert CLEAN_PATTERN == (BOB, BOB, ALICE, ALICE, BOB, BOB)


# --- array routes against the per-element references -------------------------------


@st.composite
def block_instances(draw):
    """Block instances at t = 1..3 and w = 2..8, padded by 0-2 layers, some augmented."""
    t = draw(st.integers(1, 3))
    k = 3 * t + 1
    m = draw(st.integers(1, 4))
    inst = sample_ngc(4 * k * m, k, draw(st.integers(0, 2**32)))
    inst = pad_to_k(inst, k + draw(st.integers(0, 2)))
    if m > 1 and draw(st.booleans()):
        inst = mst_augment(inst, 5)
    return inst


def test_partition_references_cover_width_two_and_two_blocks():
    # the strategy's corners: w = 2 at t = 2, padded
    inst = pad_to_k(sample_ngc(4 * 7, 7, SEED.child("corner")), 9)
    assert (inst.width, inst.t, inst.k - inst.core_k) == (2, 2, 2)
    F = random_partition_functions(2, 2, SEED.child("cornerF"))
    assert clean_indices(inst, F) == reference_clean_indices(inst, F, 1)


@settings(max_examples=120, deadline=None)
@given(block_instances(), st.integers(0, 2**32))
def test_function_routes_match_references(inst, seed):
    F = random_partition_functions(inst.width, inst.t, seed)
    assert F == reference_random_partition_functions(inst.width, inst.t, seed)
    got = assign_by_functions(inst, F, seed + 1)
    want = reference_assign_by_functions(inst, F, seed + 1)
    assert dict(got.owner.items()) == want.owner
    assert list(got.owner) == sorted(want.owner)
    assert clean_indices(inst, F) == reference_clean_indices(inst, F, seed + 1)
    assert active_blocks(inst, got) == reference_active_blocks(inst, want)
    via_f = active_blocks(inst, F)
    assert via_f == reference_active_blocks(inst, F, seed)
    assert via_f == active_blocks(inst, assign_by_functions(inst, F, seed))
    for block in range(1, inst.t + 1):
        for j in range(1, inst.width + 1):
            assert index_edges(inst, block, j) == reference_index_edges(inst, block, j)


def _report_sets(report):
    return [(e.clean, e.clean_uncapped) for e in report.entries]


def _mask_sets(clean, capped):
    """Per block, (capped, uncapped) 1-based clean indices of one trial's masks."""
    return [
        (tuple((c.nonzero()[0] + 1).tolist()), tuple((u.nonzero()[0] + 1).tolist()))
        for u, c in zip(clean, capped)
    ]


@settings(max_examples=60, deadline=None)
@given(block_instances(), st.integers(0, 2**32), st.integers(1, 4))
def test_function_slots_give_the_ownership_pattern_and_clean_sets(inst, seed, trials):
    w, t = inst.width, inst.t
    table = function_index_table(w, t)
    Fs = [random_partition_functions(w, t, seed + i) for i in range(trials)]
    slots = np.array([list(chain(*F.fL, *F.fM, *F.fR)) for F in Fs])
    for F, row in zip(Fs, slots):
        assignment = assign_by_functions(inst, F, seed)
        for block in range(1, t + 1):
            for j in range(1, w + 1):
                want = index_ownership_pattern(inst, assignment, block, j)
                assert tuple(row[table[block - 1, j - 1]].tolist()) == want
    clean, capped = clean_masks(slots, table, max(1, w // 100))
    for i, F in enumerate(Fs):
        assert _mask_sets(clean[i], capped[i]) == _report_sets(reference_clean_indices(inst, F, seed))


@settings(max_examples=30, deadline=None)
@given(block_instances(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_batched_stochastic_clean_matches_each_assignment(inst, trials, rnd):
    # samples built to make clean indices common: each index's six edges get
    # the clean sightings half the time, other edges a random sighting, and
    # draws come reversed and repeated
    edges = inst.all_edges()
    plans = []
    for _ in range(trials):
        sight = {canon(e): rnd.choice(["a", "b", "ab", ""]) for e in edges}
        for block in range(1, inst.t + 1):
            for j in range(1, inst.width + 1):
                if rnd.random() < 0.5:
                    into, mid, out = index_edges(inst, block, j)
                    sight.update({e: "b" for e in into + out})
                    sight.update({e: "a" for e in mid})
        samples = []
        for player in "ab":
            drawn = [e[::-1] if rnd.random() < 0.3 else e for e in edges if player in sight[canon(e)]]
            drawn += rnd.choices(drawn, k=len(drawn) // 3) if drawn else []
            rnd.shuffle(drawn)
            samples.append(tuple(drawn))
        plans.append(EdgeAssignment(mode="stochastic", players=2, samples=tuple(samples), c=0.0))
    longest = max(len(s) for a in plans for s in a.samples)
    columns = np.full((trials, 2, longest), -1)
    for i, a in enumerate(plans):
        for player, sample in enumerate(a.samples):
            if sample:
                columns[i, player, : len(sample)] = core_columns(inst, np.array(sample))
    counts = seen_counts(columns, len(inst.core_targets))
    w_c = max(1, inst.width // 2)  # the stochastic cap at c = 0
    clean, capped = clean_masks(stochastic_owners(counts), inst.index_table, w_c)
    for i, a in enumerate(plans):
        assert (counts[i] == sample_counts(inst, a)).all()
        want = reference_clean_indices_stochastic(inst, a)
        assert _mask_sets(clean[i], capped[i]) == _report_sets(want)


@settings(max_examples=120, deadline=None)
@given(block_instances(), st.integers(0, 2**32), st.sampled_from([2, 3, 7]))
def test_uniform_split_matches_reference(inst, seed, players):
    edges = inst.all_edges()
    got = assign_uniform(edges, players, seed)
    want = reference_assign_uniform(edges, players, seed).owner
    assert dict(got.owner.items()) == want
    assert list(got.owner) == sorted(want)
    if players == 2:
        assert clean_indices(inst, got) == reference_clean_indices(inst, got)
        assert active_blocks(inst, got) == reference_active_blocks(inst, got)
        alice, bob = got.split(edges)
        assert alice.tolist() == [list(e) for e in edges if want[canon(e)] == ALICE]
        assert bob.tolist() == [list(e) for e in edges if want[canon(e)] == BOB]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80),
    st.integers(0, 2**32),
    st.sampled_from([2, 3, 7]),
)
def test_owner_table_matches_the_owner_dict(edges, seed, players):
    # reversed and repeated edges: the dict keeps each canonical edge's last draw
    got = assign_uniform(edges, players, seed)
    want = reference_assign_uniform(edges, players, seed).owner
    assert isinstance(got.owner, EdgeTable) and EdgeTable.of(got.owner) is got.owner
    assert len(got.owner) == len(want)
    assert dict(got.owner.items()) == want and got.owner == want
    assert list(got.owner) == sorted(want)
    assert sorted(got.owner.values()) == sorted(want.values())
    assert [got.owner[e] for e in edges] == [got.owner_of(e) for e in edges] == [want[canon(e)] for e in edges]
    with pytest.raises(KeyError):
        got.owner[(41, 42)]
    if players == 2:
        alice, bob = got.split(edges)
        assert alice.tolist() == [list(e) for e in edges if want[canon(e)] == ALICE]
        assert bob.tolist() == [list(e) for e in edges if want[canon(e)] == BOB]
        plain = replace(got, owner=dict(want))  # any canonical-keyed mapping splits alike
        assert all(np.array_equal(a, b) for a, b in zip(plain.split(edges), (alice, bob)))
        with pytest.raises(KeyError):
            got.split(edges + [(41, 42)])


def test_edge_table_reads_ids_up_to_u32_either_way_round():
    table = EdgeTable.from_edges([(2**32 - 1, 2**31), (0, 2**31), (7, 3)], [1, 0, 1])
    assert list(table) == [(0, 2**31), (3, 7), (2**31, 2**32 - 1)]
    assert table[(2**31, 2**32 - 1)] == table[(2**32 - 1, 2**31)] == 1
    assert table.lookup([(2**31, 0), (3, 7), (2**32 - 1, 2**31)]).tolist() == [0, 1, 1]
    for missing in [(0, 1), (-1, 3), (3, 2**32)]:
        assert missing not in table
    with pytest.raises(KeyError):
        table.lookup([(3, 7), (0, 1)])
    with pytest.raises(ValueError):
        table.lookup([(3, 2**32)])


@settings(max_examples=120, deadline=None)
@given(block_instances(), st.integers(0, 2**32), st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0]))
def test_stochastic_routes_match_references(inst, seed, c):
    edges = inst.all_edges()
    got = stochastic_assign(edges, c, seed)
    assert got == reference_stochastic_assign(edges, c, seed)
    assert clean_indices_stochastic(inst, got) == reference_clean_indices_stochastic(inst, got)


def test_stochastic_clean_reads_reversed_and_repeated_samples():
    # a sample may hold a core edge reversed, twice, or not at all; index 1
    # would be clean but for an outer edge that both players hold
    inst = sample_ngc(4 * 4 * 2, 4, SEED.child("rev"))
    into, mid, out = index_edges(inst, 1, 2)
    into1, mid1, out1 = index_edges(inst, 1, 1)
    alice = tuple((v, u) for u, v in mid) + mid[:1] + mid1 + out1[:1]
    bob = into + tuple((v, u) for u, v in out) + tuple(inst.auxiliary_edges) + into1 + out1
    assignment = EdgeAssignment(mode="stochastic", players=2, samples=(alice, bob), c=0.0)
    report = clean_indices_stochastic(inst, assignment)
    assert report == reference_clean_indices_stochastic(inst, assignment)
    assert report.entries[0].clean_uncapped == (2,)


def test_batch_split_matches_reference():
    inst = sample_ngc_batched(4 * 7 * 2, 7, 2, 1, SEED.child("batref"))
    for i, l in enumerate((1, 2, 4)):
        got = assign_batches(inst, l, SEED.child("batrefA", i))
        want = reference_assign_batches(inst, l, SEED.child("batrefA", i))
        assert got.batch_owners == want.batch_owners
        assert dict(got.owner.items()) == want.owner
        assert list(got.owner) == sorted(want.owner)


def test_index_edges_rejects_out_of_range_indices():
    inst = sample_ngc(28, 7, SEED.child("range"))
    for block, j in ((0, 1), (3, 1), (1, 0), (1, inst.width + 1)):
        with pytest.raises(ValueError):
            index_edges(inst, block, j)
