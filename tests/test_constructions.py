import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations
from math import comb

from h3cover import (
    AdmissiblePairSet,
    Hypergraph3,
    blow_up,
    dumps_h3,
    embed_covering,
    f1,
    f1_variant,
    f2,
    f3,
    f4,
    f32_tripartite,
    fano_bipartite,
    admissible_sample,
    loads_h3,
    pattern,
    steiner,
    uncovered_vertices,
    verify_construction,
)
from h3cover import constructions, core
from h3cover.constructions import VARIANT_CASES

import oracles


# -- codegree formulas (small ranges; the long sweeps live in acceptance) -----


def test_f1_codegree_formula_small():
    for n in range(4, 16):
        g, claims = f1(n)
        measured = oracles.min_codegree(g)
        assert measured == (2 * n - 5) // 3 == claims.min_codegree == g.min_codegree()


def test_f1_part_size_chain():
    for n in range(4, 20):
        sizes = f1(n)[1].partition.sizes()
        assert sizes[0] <= sizes[1] <= sizes[2] <= sizes[0] + 1
        assert sum(sizes) == n - 1


def test_f1_rejects_tiny():
    with pytest.raises(ValueError):
        f1(3)


def test_f2_residue_table_small():
    expected = {12: 3, 13: 4, 14: 4, 15: 4, 16: 4, 17: 5, 18: 5}
    for n, want in expected.items():
        g, claims = f2(n)
        assert g.min_codegree() == want == claims.min_codegree
        assert oracles.min_codegree(g) == want


def test_f2_part_size_chain():
    for n in range(7, 26):
        sizes = f2(n)[1].partition.sizes()
        assert all(sizes[i] >= sizes[i + 1] for i in range(5))
        assert sizes[0] - 1 <= sizes[5]
        assert sum(sizes) == n - 1


def test_f2_forbidden_types():
    g, claims = f2(14)
    parts = claims.partition.parts
    # consecutive-run triples stay out; a skip triple is in
    assert not g.contains(parts[0][0], parts[0][1], parts[1][0])  # (i,i,i+1)
    assert not g.contains(parts[0][0], parts[1][0], parts[1][1])  # (i,i+1,i+1)
    assert not g.contains(parts[0][0], parts[1][0], parts[2][0])  # (i,i+1,i+2)
    assert not g.contains(parts[4][0], parts[5][0], parts[0][0])  # wraps mod 6
    assert g.contains(parts[0][0], parts[0][1], parts[2][0])
    assert g.contains(parts[0][0], parts[2][0], parts[4][0])


def test_f3_f4_codegree_formulas_small():
    for n in range(5, 20):
        g3, c3 = f3(n)
        g4, c4 = f4(n)
        want = (n - 3) // 2
        assert g3.min_codegree() == want == c3.min_codegree
        assert g4.min_codegree() == want == c4.min_codegree


def test_f4_parity_invariant():
    g, claims = f4(11)
    first = set(claims.partition.parts[0])
    for t in combinations(range(g.n), 3):
        inside = len(first & set(t))
        assert g.contains(*t) == (inside % 2 == 0)


def test_f3_vs_f4_edge_gap_grows_cubically():
    observed = {}
    for n in (10, 14, 18):
        a, _ = f3(n)
        b, _ = f4(n)
        observed[n] = (a.bits ^ b.bits).bit_count()
    assert observed == {10: 42, 14: 137, 18: 324}
    assert all(observed[n] >= n**3 // 50 for n in observed)


def test_fano_bipartite_codegree():
    for n in (7, 10, 13):
        g, claims = fano_bipartite(n)
        assert g.min_codegree() == n // 2 == claims.min_codegree


def test_fano_bipartite_is_fano_free():
    fano = pattern("Fano")
    for n in (7, 8, 9):
        g, _ = fano_bipartite(n)
        assert uncovered_vertices(g, fano) == tuple(range(n))


def test_f32_tripartite_codegree():
    for n in (9, 12):
        g, claims = f32_tripartite(n)
        assert g.min_codegree() == n // 3 - 1 == claims.min_codegree


def test_f32_tripartite_is_pattern_free():
    f32 = pattern("F32")
    for n in (7, 8, 9):
        g, _ = f32_tripartite(n)
        assert uncovered_vertices(g, f32) == tuple(range(n))


# -- f1 variants ---------------------------------------------------------------


def test_variant_empty_set_reproduces_f1():
    g0, _ = f1_variant("1", AdmissiblePairSet("1", frozenset()), 10)
    g1, _ = f1(10)
    assert g0.bits == g1.bits


def test_variant_case0_single_pair():
    part = f1_variant("0", AdmissiblePairSet("0", frozenset()), 12)[1].partition
    pair = (part.parts[0][0], part.parts[1][0])
    g, claims = f1_variant("0", AdmissiblePairSet("0", frozenset([pair])), 12)
    assert g.min_codegree() == 6 == claims.min_codegree
    assert embed_covering(g, claims.partition.apex, pattern("K4")) is None
    # the deleted apex triple and the added tripartite ones
    assert not g.contains(pair[0], pair[1], claims.partition.apex)
    for w in claims.partition.parts[2]:
        assert g.contains(pair[0], pair[1], w)


def test_variant_prime_case_empty():
    g, claims = f1_variant("2p", AdmissiblePairSet("2p", frozenset()), 11)
    assert claims.partition.sizes() == (2, 4, 4)
    assert g.min_codegree() == 5
    assert embed_covering(g, claims.partition.apex, pattern("K4")) is None


def test_variant_rejects_wrong_residue():
    with pytest.raises(ValueError):
        f1_variant("0", AdmissiblePairSet("0", frozenset()), 13)


def test_variant_rejects_case_mismatch():
    with pytest.raises(ValueError):
        f1_variant("0", AdmissiblePairSet("1", frozenset()), 12)


def test_validator_rejects_same_part_pair():
    part = f1_variant("1", AdmissiblePairSet("1", frozenset()), 13)[1].partition
    u, v = part.parts[0][0], part.parts[0][1]
    with pytest.raises(ValueError):
        f1_variant("1", AdmissiblePairSet("1", frozenset([(u, v)])), 13)


def test_validator_rejects_cap_violations():
    # case 1 caps every vertex at one pair
    part = f1_variant("1", AdmissiblePairSet("1", frozenset()), 13)[1].partition
    u = part.parts[0][0]
    bad = frozenset([(u, part.parts[1][0]), (u, part.parts[2][0])])
    with pytest.raises(ValueError):
        f1_variant("1", AdmissiblePairSet("1", bad), 13)
    # case 0 allows two pairs on the small part but one elsewhere
    part0 = f1_variant("0", AdmissiblePairSet("0", frozenset()), 12)[1].partition
    v2 = part0.parts[1][0]
    bad0 = frozenset([(part0.parts[0][0], v2), (v2, part0.parts[2][0])])
    with pytest.raises(ValueError):
        f1_variant("0", AdmissiblePairSet("0", bad0), 12)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(VARIANT_CASES)),
    st.integers(min_value=0, max_value=10_000),
)
def test_admissible_sample_is_valid_and_deterministic(case, seed):
    n = {"0": 12, "1": 13, "2": 14, "2p": 14}[case]
    s1 = admissible_sample(case, n, seed)
    s2 = admissible_sample(case, n, seed)
    assert s1 == s2
    part = f1_variant(case, AdmissiblePairSet(case, frozenset()), n)[1].partition
    s1.validate(part)  # must not raise
    if case == "1":
        used = [v for p in s1.pairs for v in p]
        assert len(used) == len(set(used))


# -- steiner ---------------------------------------------------------------------


def test_steiner_7_is_the_7_point_plane():
    # a copy of the plane on all 7 vertices, with as many edges as the host, is the whole host
    s, fano = steiner(7), pattern("Fano")
    assert s.num_edges == fano.graph.num_edges == 7
    assert embed_covering(s, 0, fano) is not None


def test_steiner_edge_counts_and_codegrees():
    for t in (3, 7, 9, 13, 15):
        s = steiner(t)
        assert s.num_edges == t * (t - 1) // 6
        assert all(
            oracles.codegree(s, u, v) == 1 for u, v in combinations(range(t), 2)
        )


def test_steiner_rejects_infeasible():
    for t in (5, 8, 11, 14):
        with pytest.raises(ValueError):
            steiner(t)


# -- blow_up ---------------------------------------------------------------------


def test_blow_up_k4_minus():
    h = pattern("K4-").graph
    g, claims = blow_up(h, 2)
    assert g.n == 9
    assert g.min_codegree() == 5 == claims.min_codegree
    assert claims.pattern_hint == "K5"
    assert embed_covering(g, claims.partition.apex, pattern("K5")) is None


def test_blow_up_single_triple_unit():
    h = Hypergraph3.from_triples(3, [(0, 1, 2)])
    g, claims = blow_up(h, 1)
    assert g.n == 4
    assert g.min_codegree() == 2 == claims.min_codegree
    # unit parts: the apex link is the complete pair set over the base
    apex = claims.partition.apex
    base = [v for v in range(g.n) if v != apex]
    assert sum(g.contains(u, v, apex) for u, v in combinations(base, 2)) == comb(3, 2)


def test_blow_up_fano_complement():
    sbar = steiner(7).complement()
    g, claims = blow_up(sbar, 2)
    assert g.n == 15
    assert oracles.min_codegree(g) == 11 == claims.min_codegree
    assert claims.pattern_hint == "K6"


@pytest.mark.parametrize("m", range(3, 8))
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_blow_up_of_a_complete_base_verifies(m, factor):
    # a cross pair has (m - 2 + 2) * factor - 1 and an apex pair (m - 1) * factor, the lesser for factor >= 2
    g, claims = blow_up(Hypergraph3.from_triples(m, combinations(range(m), 3)), factor)
    assert claims.min_codegree == oracles.min_codegree(g) == min(m * factor - 1, (m - 1) * factor)
    assert claims.pattern_hint == f"K{m + 2}"
    assert verify_construction(g, claims, pattern(claims.pattern_hint)).ok


def test_clique_number_matches_brute_force():
    rng = random.Random(4)
    for n in range(3, 10):
        for density in (0.0, 0.3, 0.6, 0.8, 0.95):
            h = Hypergraph3(n, sum(1 << r for r in range(comb(n, 3)) if rng.random() < density))
            assert constructions._clique_number(h) == oracles.clique_number(h), (n, h.bits)


def _hosts_with_twins():
    yield from (f1(n)[0] for n in range(4, 13))
    yield from (family(n)[0] for family in (f3, f4) for n in range(6, 11))
    yield from (blow_up(pattern(name).graph, factor)[0] for name in ("K4-", "C5") for factor in (2, 3))


def test_clique_number_matches_brute_force_on_hosts_with_twins():
    # a later twin of a searched vertex leaves the candidates; random hosts rarely have twins
    for h in _hosts_with_twins():
        assert h.twin_classes()
        assert constructions._clique_number(h) == oracles.clique_number(h), (h.n, h.bits)


def test_blow_up_hint_of_f1_62_is_quick():
    # f1's parts are twin classes: two-part cliques of 42 vertices, plus the apex
    t0 = time.perf_counter()
    _, claims = blow_up(f1(62)[0], 1)
    assert claims.pattern_hint == "K43"
    assert time.perf_counter() - t0 < 1.0


def test_blow_up_hint_of_a_large_base_is_quick():
    # the largest clique of f4(30) is its second half: 15 vertices, so K17
    t0 = time.perf_counter()
    _, claims = blow_up(f4(30)[0], 1)
    assert claims.pattern_hint == "K17"
    assert time.perf_counter() - t0 < 1.0


def test_blow_up_rejects_bad_input():
    with pytest.raises(ValueError):
        blow_up(Hypergraph3.from_triples(3, [(0, 1, 2)]), 0)
    with pytest.raises(ValueError):
        blow_up(Hypergraph3.from_triples(5, []), 2)


# -- claims plumbing --------------------------------------------------------------


def test_claims_json_roundtrip():
    from h3cover import ConstructionClaims

    for maker in (lambda: f1(9), lambda: f4(8), lambda: f2(13)):
        _, claims = maker()
        again = ConstructionClaims.from_json(claims.as_json())
        assert again == claims


# JSON values over the sidecar's keys: nested objects and lists of ints, bools, floats, strings and null
_CLAIM_KEYS = ("schema", "construction", "n", "min_codegree", "uncovered", "partition", "parts", "apex",
               "pattern_hint", "params")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_CLAIM_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)
_INTS = st.lists(st.integers(), max_size=4)
_CLAIMS = st.fixed_dictionaries(
    {"construction": st.text(max_size=4), "n": st.integers(), "min_codegree": st.integers(), "uncovered": _INTS,
     "partition": st.fixed_dictionaries({"parts": st.lists(_INTS, max_size=3), "apex": st.none() | st.integers()})},
    optional={"schema": _JSON, "pattern_hint": st.none() | st.text(max_size=4),
              "params": st.dictionaries(st.text(max_size=4), st.integers(), max_size=3)},
)


@st.composite
def _claims_like(draw):
    """Well-typed claims with one field, maybe inside the partition, kept, dropped or set to any JSON value."""
    data = draw(_CLAIMS)
    obj = draw(st.sampled_from([data, data["partition"]]))
    key = draw(st.sampled_from(sorted(obj)))
    how = draw(st.sampled_from(("keep", "drop", "replace")))
    if how == "drop":
        del obj[key]
    elif how == "replace":
        obj[key] = draw(_JSON)
    return data


@settings(max_examples=300, deadline=None)
@given(_claims_like() | _JSON)
def test_claims_from_json_returns_claims_or_raises_value_error(data):
    from h3cover import ConstructionClaims

    try:
        claims = ConstructionClaims.from_json(data)
    except ValueError:
        return
    assert ConstructionClaims.from_json(claims.as_json()) == claims


# -- every family against its defining rule, checked triple by triple ------------

APEX = 99  # label of the apex; sorts after every part index


def _labels(claims):
    label = [APEX] * claims.n
    for i, part in enumerate(claims.partition.parts):
        for v in part:
            label[v] = i
    return label


def _f2_rule(p):
    if p[2] == APEX:
        return (p[1] - p[0]) % 6 in (1, 5)
    runs = [(i, (i + 1) % 6, (i + 2) % 6) for i in range(6)]
    forbidden = {tuple(sorted(t)) for i, j, k in runs for t in ((i, i, j), (i, j, j), (i, j, k))}
    return p not in forbidden


FAMILY_RULES = (
    (f1, range(4, 30), lambda p: len(set(p)) == 3 if p[2] == APEX else len(set(p)) <= 2),
    (f2, range(7, 30), _f2_rule),
    (f3, range(5, 30), lambda p: p[0] == p[1] if p[2] == APEX else len(set(p)) == 2),
    (f4, range(5, 30), lambda p: p.count(0) % 2 == 0),
    (fano_bipartite, range(7, 30), lambda p: len(set(p)) == 2),
    (f32_tripartite, range(5, 30), lambda p: p in {(0, 0, 1), (1, 1, 2), (0, 2, 2)}),
)


def test_families_match_their_defining_rules():
    for maker, ns, rule in FAMILY_RULES:
        for n in ns:
            g, claims = maker(n)
            want = oracles.labelled_triples(_labels(claims), rule)
            assert set(oracles.triples_of(g)) == want, (maker, n)


def test_variants_swap_one_apex_triple_per_pair():
    for n in range(6, 30):
        for case in ("0", "1", "2", "2p"):
            if n % 3 != {"0": 0, "1": 1, "2": 2, "2p": 2}[case]:
                continue
            pairs = admissible_sample(case, n, seed=n)
            g, claims = f1_variant(case, pairs, n)
            label = _labels(claims)
            want = oracles.labelled_triples(label, FAMILY_RULES[0][2])
            for u, v in pairs.pairs:
                want.discard((u, v, n - 1))
                third = claims.partition.parts[3 - label[u] - label[v]]
                want |= {tuple(sorted((u, v, w))) for w in third}
            assert set(oracles.triples_of(g)) == want, (case, n)


def test_blow_up_matches_its_defining_rule():
    for base in (pattern("K4-").graph, pattern("C5").graph, steiner(7).complement()):
        g, claims = blow_up(base, 2)
        base_edges = set(oracles.triples_of(base))

        def rule(p):
            return p[0] != p[1] if p[2] == APEX else len(set(p)) < 3 or p in base_edges

        assert set(oracles.triples_of(g)) == oracles.labelled_triples(_labels(claims), rule)


# -- the builder hands over its edge array: checked against the bitmap's own decode --------


def _maximal_pair_set(case, n):
    """The greedy admissible pair set over the cross pairs in lexicographic order: no pair extends it."""
    parts = f1_variant(case, AdmissiblePairSet(case, ()), n)[1].partition.parts
    label = {v: i for i, part in enumerate(parts) for v in part}
    caps, used, pairs = VARIANT_CASES[case], dict.fromkeys(label, 0), []
    for u, v in combinations(sorted(label), 2):
        if label[u] != label[v] and used[u] < caps[label[u]] and used[v] < caps[label[v]]:
            pairs.append((u, v))
            used[u] += 1
            used[v] += 1
    return AdmissiblePairSet(case, pairs)


def _variant_pair_sets():
    """(case, n, pair set) for every case at n = 6..40: empty, seeded samples and a maximal set."""
    for case, residue in (("0", 0), ("1", 1), ("2", 2), ("2p", 2)):
        for n in range(6 + (residue - 6) % 3, 41, 3):
            yield case, n, AdmissiblePairSet(case, ())
            yield case, n, admissible_sample(case, n, seed=n)
            yield case, n, admissible_sample(case, n, seed=n + 1000)
            yield case, n, _maximal_pair_set(case, n)


def _built_graphs():
    for maker, lo in ((f1, 4), (f2, 7), (f3, 5), (f4, 5), (f32_tripartite, 5), (fano_bipartite, 7)):
        for n in range(lo, 41):
            yield maker(n)[0]
    for base in (pattern("K4-").graph, pattern("C5").graph):
        for factor in (1, 2, 3):
            yield blow_up(base, factor)[0]
    for case, n, pairs in _variant_pair_sets():
        yield f1_variant(case, pairs, n)[0]


def test_built_edge_array_matches_the_bitmap_decode():
    for g in _built_graphs():
        decoded = Hypergraph3(g.n, g.bits)
        t = g.edge_array()
        assert t.dtype == np.int16 and not t.flags.writeable, g
        assert np.array_equal(t, decoded.edge_array()), g
        assert dumps_h3(g) == dumps_h3(decoded)


def test_maximal_pair_set_admits_no_further_pair():
    for case, n in (("0", 12), ("1", 13), ("2", 14), ("2p", 14)):
        pairs = _maximal_pair_set(case, n)
        part = f1_variant(case, pairs, n)[1].partition
        for u, v in combinations(range(n - 1), 2):
            if (u, v) not in pairs.pairs and part.part_of(u) != part.part_of(v):
                with pytest.raises(ValueError):
                    AdmissiblePairSet(case, pairs.pairs | {(u, v)}).validate(part)


def test_built_graphs_decode_their_bitmap_only_when_read(monkeypatch):
    # a construction is its bitmap: the hex form is written with no edge array, which is decoded
    # from the bitmap on first read (the base of a blow-up is read before the patch)
    base = pattern("K4-").graph
    base.pair_masks()

    def no_decode(*args):
        raise AssertionError("a constructed graph decoded its bitmap")

    monkeypatch.setattr(core, "_set_bits", no_decode)
    built = [maker(14)[0] for maker in (f1, f2, f3, f4, f32_tripartite, fano_bipartite)]
    built += [blow_up(base, 3)[0], f1_variant("2", admissible_sample("2", 14, 3), 14)[0],
              f1_variant("2p", admissible_sample("2p", 14, 4), 14)[0]]
    for g in built:
        assert loads_h3(dumps_h3(g, "hex")) == g
    monkeypatch.undo()
    for g in built:
        assert dumps_h3(g).count("\n") == g.num_edges + 1
        assert g.pair_masks() and g.min_codegree() >= 0


def test_variant_build_peak_memory_is_bounded_by_its_edge_array():
    # edge flags, the edge ranks and the rows: 3.7 times the array on f1e(99); a table of
    # every rank's triple and a decode of the bitmap put it at 6.6 times
    pairs = admissible_sample("0", 99, 1)
    f1_variant("0", pairs, 99)  # first-use imports and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t = f1_variant("0", pairs, 99)[0].edge_array()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(t) == 121_016 and peak < 5 * t.nbytes
