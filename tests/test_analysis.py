import random
import time

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from itertools import combinations
from math import ceil, comb

from h3cover import (
    Hypergraph3,
    c2_bounds,
    c2_exact,
    classify_sy,
    embed_covering,
    f1,
    f1_variant,
    f2,
    admissible_sample,
    greedy_cover_bound,
    pattern,
    pattern_from_graph,
    recover_partition,
    triple_rank,
    verify_construction,
)
from h3cover import analysis
from h3cover.analysis import SY_SETS, SyClass, _measure_partition

import oracles


# -- c2_bounds -----------------------------------------------------------------


def test_bounds_k4():
    br = c2_bounds(pattern("K4"), 99)
    assert (br.lower, br.upper, br.exact) == (64, 64, 64)
    assert br.provenance == "theorem"
    assert c2_bounds(pattern("K4"), 4).exact == 1
    assert c2_bounds(pattern("K4"), 5).exact is None
    assert c2_bounds(pattern("K4"), 5).lower == 1
    assert c2_bounds(pattern("K4"), 5).upper == 2
    assert c2_bounds(pattern("K4"), 6).exact == 2
    assert c2_bounds(pattern("K4"), 8).exact is None  # 8 = 3*2+2, below 99


def test_bounds_k4_minus_residues():
    # n = 6m + r: lower 2m-1 / 2m / 2m+1 by r; exact at r in {1,2,5}
    assert c2_bounds(pattern("K4-"), 17).exact == 5
    assert c2_bounds(pattern("K4-"), 13).exact == 4
    assert c2_bounds(pattern("K4-"), 14).exact == 4
    br12 = c2_bounds(pattern("K4-"), 12)
    assert (br12.lower, br12.upper, br12.exact) == (3, 4, None)
    br15 = c2_bounds(pattern("K4-"), 15)
    assert (br15.lower, br15.upper, br15.exact) == (4, 5, None)


def test_bounds_c5_and_k5_minus():
    br = c2_bounds(pattern("C5"), 10)
    assert (br.lower, br.upper, br.exact) == (3, 5, None)
    br = c2_bounds(pattern("K5-"), 10)
    assert (br.lower, br.upper) == (5, 6)


def test_bounds_fano_f32():
    br = c2_bounds(pattern("Fano"), 21)
    assert (br.lower, br.upper) == (10, 14)
    br = c2_bounds(pattern("F32"), 12)
    assert (br.lower, br.upper) == (3, 6)


@pytest.mark.parametrize("name", ["K6-", "C6", "C7", "STS:9"])
def test_bounds_without_a_closed_form_use_the_greedy_upper_bound(name):
    # K_t- for t >= 6 keeps the K4 lower bound; C6, C7 and STS:9 have none
    pat = pattern(name)
    for n in range(pat.f, 31):
        br = c2_bounds(pat, n)
        assert br.lower <= br.upper == greedy_cover_bound(pat, n)
        assert br.lower == ((2 * n - 5) // 3 if name == "K6-" else 0)


def test_bounds_big_cliques_use_blowups():
    # at n = 9 the doubled 4-part family beats the tripartite one for K5
    br = c2_bounds(pattern("K5"), 9)
    assert br.lower == 5
    assert br.upper == (5 * 9 + 5 - 13) // 6 == 6
    # 15 = 2*(2*6-5)+1 vertices: the 7-point doubling kicks in for K6
    br = c2_bounds(pattern("K6"), 15)
    assert br.lower == 11


def test_bounds_reject_small_n():
    with pytest.raises(ValueError):
        c2_bounds(pattern("K5"), 4)


# -- classify_sy ------------------------------------------------------------------


def _sy_host(subset):
    a, b, c, x, y = 0, 1, 2, 3, 4
    slot_pairs = {
        "ab": (a, b), "ac": (a, c), "bc": (b, c),
        "ax": (a, x), "bx": (b, x), "cx": (c, x),
    }
    triples = [(a, b, x), (b, c, x), (a, c, x)]
    triples += [slot_pairs[s] + (y,) for s in subset]
    return Hypergraph3.from_triples(5, triples)


def test_classify_sy_named_sets():
    for label, slots in SY_SETS.items():
        cls = classify_sy(_sy_host(slots), (0, 1, 2, 3), 4)
        assert cls.label == label
        assert cls.pairs == slots


def test_classify_sy_empty_is_subset_only():
    cls = classify_sy(_sy_host(frozenset()), (0, 1, 2, 3), 4)
    assert cls.label == "SUBSET_ONLY"
    assert cls.pairs == frozenset()


def test_classify_sy_violation_triangle():
    cls = classify_sy(_sy_host({"ab", "ax", "bx"}), (0, 1, 2, 3), 4)
    assert cls.label == "VIOLATION"
    # and the host indeed has a K4 through x
    assert embed_covering(_sy_host({"ab", "ax", "bx"}), 3, pattern("K4")) is not None


def test_classify_sy_preconditions():
    host = _sy_host(frozenset())
    with pytest.raises(ValueError):
        classify_sy(host, (0, 1, 2, 3), 3)  # y inside S
    with pytest.raises(ValueError):
        classify_sy(Hypergraph3.from_triples(5, [(0, 1, 3)]), (0, 1, 2, 3), 4)  # base edges missing
    bad = Hypergraph3.from_triples(5, [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 2)])
    with pytest.raises(ValueError):
        classify_sy(bad, (0, 1, 2, 3), 4)  # abc present


# -- c2_exact ----------------------------------------------------------------------


def test_c2_exact_k4_4_matches_brute_force():
    rep = c2_exact(pattern("K4"), 4)
    val, bits = oracles.c2_brute(pattern("K4"), 4, Hypergraph3)
    assert rep.value == val == 1
    assert rep.witness.bits == bits
    assert rep.exhaustive
    assert rep.graphs_scanned == oracles.search_nodes(pattern("K4"), 4, val, bits) == 9


def test_c2_exact_k4_5_matches_brute_force():
    rep = c2_exact(pattern("K4"), 5)
    val, bits = oracles.c2_brute(pattern("K4"), 5, Hypergraph3)
    assert rep.value == val == 2
    assert rep.witness.bits == bits
    assert rep.graphs_scanned == oracles.search_nodes(pattern("K4"), 5, val, bits) == 18


# STS:3 is a single edge (f = 3): its copies through n - 1 miss every triple off n - 1
@pytest.mark.parametrize("name", ["C5", "K4-", "K5", "K5-", "F32", "STS:3"])
def test_c2_exact_n5_matches_brute_force(name):
    pat = pattern(name)
    rep = c2_exact(pat, 5)
    val, bits = oracles.c2_brute(pat, 5, Hypergraph3)
    assert rep.value == val
    assert rep.witness.bits == bits
    assert rep.graphs_scanned == oracles.search_nodes(pat, 5, val, bits)


# (pattern, n, value, witness bitmap, least uncovered vertex).  The witness is
# the least bitmap among optimal hosts that leave n - 1 uncovered and whose
# link of n - 1 has degrees that do not increase from vertex 0 to n - 2.  Two
# cuts of the DFS agree on 22 rows, witness included: the one that cuts a
# subtree once its present copies cover every vertex, and the one that cuts it
# once a copy through n - 1 is complete.  On K4 at 8 and K4-, C5, C6 and F32
# at 7 they agree on the value only: the first's witness, the least optimal
# bitmap, leaves n - 1 covered there.  K4- at 8 comes from the second alone.
# The link-degree order keeps every one of those 28 rows, witness included;
# the rows at n = 9 and F32 at 8 come from it alone.  At n <= 6 a full scan of
# every edge bitmap agrees as well, and every witness is re-checked by brute
# force.
EXACT_TABLE = [
    ("K4", 4, 1, 7, 0),
    ("K4", 5, 2, 495, 4),
    ("K4", 6, 2, 227823, 4),
    ("K4", 7, 3, 8045192191, 5),
    ("K4", 8, 4, 17722993536722559, 7),
    ("K4", 9, 4, 2303329657782917672206335, 6),
    ("K4-", 4, 0, 0, 0),
    ("K4-", 5, 1, 184, 0),
    ("K4-", 6, 2, 242467, 0),
    ("K4-", 7, 2, 3469495075, 6),
    ("K4-", 8, 2, 3491375444937507, 7),
    ("K4-", 9, 3, 1084806934576404875138231, 8),
    ("K5", 5, 2, 495, 0),
    ("K5", 6, 3, 520157, 0),
    ("K5", 7, 4, 17145247551, 0),
    ("K5", 8, 5, 36011067117123567, 0),
    ("K5", 9, 6, 9670223587109769633066879, 0),
    ("K5-", 5, 2, 495, 0),
    ("K5-", 6, 3, 520157, 0),
    ("K5-", 7, 4, 17145247551, 0),
    ("K5-", 8, 4, 17449644616304495, 0),
    ("K5-", 9, 5, 4760087660548509342119935, 8),
    ("C5", 5, 1, 183, 0),
    ("C5", 6, 2, 241500, 0),
    ("C5", 7, 2, 3454830099, 0),
    ("C6", 6, 2, 228023, 0),
    ("C6", 7, 3, 17145234975, 6),
    ("C7", 7, 3, 8052781859, 0),
    ("Fano", 7, 3, 8045199358, 0),
    ("F32", 5, 1, 183, 0),
    ("F32", 6, 2, 242467, 0),
    ("F32", 7, 2, 3468938019, 6),
    ("F32", 8, 2, 3491365210278691, 7),
]


@pytest.mark.parametrize("name,n,value,bits,vertex", EXACT_TABLE)
def test_c2_exact_table(name, n, value, bits, vertex):
    rep = c2_exact(pattern(name), n)
    assert rep.exhaustive
    assert (rep.value, rep.witness.bits, rep.uncovered_vertex) == (value, bits, vertex)
    bracket = c2_bounds(pattern(name), n)
    assert bracket.lower <= value <= bracket.upper
    host = Hypergraph3(n, bits)
    assert oracles.min_codegree(host) == value
    assert not oracles.embeds_through(host, vertex, pattern(name))
    assert not oracles.embeds_through(host, n - 1, pattern(name))


def test_small_graphs_are_built_without_the_numpy_decoder(monkeypatch):
    # every catalog pattern and every graph of the n = 6 searches is within the size bound, so
    # its rows and pair table come from its bitmap in Python; a larger graph still uses _rows
    from h3cover import core, patterns

    def numpy_decode(*args):
        raise AssertionError("the numpy decoder ran")

    monkeypatch.setattr(core, "_rows", numpy_decode)
    monkeypatch.setattr(core, "_set_bits", numpy_decode)
    patterns._catalog_pattern.cache_clear()
    patterns._plan.cache_clear()
    for name in patterns.CATALOG:
        pattern(name)
    for name, bits, scanned in (("K4", 227823, 127), ("K4-", 242467, 64), ("C5", 241500, 231)):
        rep = c2_exact(pattern(name), 6)
        assert (rep.witness.bits, rep.graphs_scanned) == (bits, scanned)
    with pytest.raises(AssertionError, match="numpy decoder"):
        Hypergraph3(core._SMALL_N + 1, 1).edge_array()


def test_c2_exact_within_theorem_bracket():
    for n in (4, 5, 6):
        rep = c2_exact(pattern("K4"), n)
        br = c2_bounds(pattern("K4"), n)
        assert br.lower <= rep.value <= br.upper


def test_c2_exact_budget_yields_partial():
    # C5 at n = 8 takes about 40 s, so 0.05 s truncates it
    rep = c2_exact(pattern("C5"), 8, budget_seconds=0.05)
    assert not rep.exhaustive
    assert rep.note is not None
    assert rep.value is None


# name: (n, budget), each whole search at least 20 times its budget (in process
# on 2 shared cores): K4 at 9 takes 1.4 s, K4- at 9 28 ms, K5- at 9 0.14 s, F32
# at 8 1.2 s, Fano at 8 10 s, C5-C7 at 8 40 s or more, and C8 at 8 does not end
# within 5 s.  K5 is left out: its whole search ends within 5 ms at n = 8 and 9
OVERRUN_ROWS = {
    "K4": (9, 0.01), "K4-": (9, 0.001), "K5-": (9, 0.001), "F32": (8, 0.01), "Fano": (8, 0.01),
    "C5": (8, 0.01), "C6": (8, 0.01), "C7": (8, 0.01), "C8": (8, 0.01),
}


@pytest.mark.parametrize("name", OVERRUN_ROWS)
def test_c2_exact_budget_overrun_is_bounded(name):
    # building the pattern's copies counts against the budget
    n, budget = OVERRUN_ROWS[name]
    t0 = time.perf_counter()
    rep = c2_exact(pattern(name), n, budget_seconds=budget)
    elapsed = time.perf_counter() - t0
    assert not rep.exhaustive
    assert elapsed - budget < 0.05


def test_c2_exact_rejects_small_n():
    with pytest.raises(ValueError):
        c2_exact(pattern("K4"), 3)
    with pytest.raises(ValueError):
        c2_exact(pattern("K4"), 10)


def test_c2_exact_runs_at_the_cap():
    assert analysis.EXACT_MODE_CAP == 9
    rep = c2_exact(pattern("K4"), 9)
    assert (rep.value, rep.exhaustive) == (4, True)


@pytest.mark.parametrize("budget", [-1, float("nan")])
def test_c2_exact_rejects_negative_budget(budget):
    with pytest.raises(ValueError):
        c2_exact(pattern("K4"), 5, budget_seconds=budget)


# the last pattern has an isolated vertex: a copy covers a vertex its edges
# miss, and copies with equal edges on different vertex sets are distinct
COPY_PATTERNS = pytest.mark.parametrize(
    "pat",
    [pattern(name) for name in ("K4", "K4-", "C5", "C6", "C7", "F32", "Fano")]
    + [pattern_from_graph("K4+1", Hypergraph3.from_triples(5, combinations(range(4), 3)))],
    ids=lambda pat: pat.name,
)


@COPY_PATTERNS
def test_copies_match_oracle(pat):
    # the search needs only the copies whose vertices hold n - 1
    for n in range(pat.f, 9):
        want = sorted(edges for edges, verts in oracles.copies(pat, n) if verts >> (n - 1) & 1)
        assert sorted(analysis._copies(pat, n)) == want, n


@COPY_PATTERNS
def test_leaf_uncovered_mask_matches_oracle(pat):
    # the rule behind the search's cut: a host leaves n - 1 uncovered exactly
    # when none of the copies through n - 1 has all its edges in the host
    rng = random.Random(pat.name)
    for n in range(max(5, pat.f), 8):
        copies = analysis._copies(pat, n)
        # densities at which some draws leave n - 1 uncovered
        for density in (0.4, 0.4, 0.6, 0.6, 0.75, 0.75, 0.85, 0.85):
            host = Hypergraph3(n, sum(1 << r for r in range(comb(n, 3)) if rng.random() < density))
            uncovered = not any(edges & host.bits == edges for edges in copies)
            assert uncovered == (not oracles.embeds_through(host, n - 1, pat)), (n, host.bits)


def test_exact_search_leaves_skip_the_covering_engine(monkeypatch):
    # the leaves test copy bitmaps; the covering engine only re-checks the witness
    checked = []
    recheck = analysis.uncovered_vertices

    def recording(host, pat):
        checked.append(host.bits)
        return recheck(host, pat)

    monkeypatch.setattr(analysis, "uncovered_vertices", recording)
    rep = c2_exact(pattern("K4"), 6)
    assert rep.graphs_scanned > 100
    assert checked == [rep.witness.bits]


def test_witness_reverified_on_emission():
    rep = c2_exact(pattern("K4"), 5)
    assert rep.witness.min_codegree() == rep.value
    assert embed_covering(rep.witness, rep.uncovered_vertex, pattern("K4")) is None


# -- recover_partition ---------------------------------------------------------------


def test_recover_f1_exact():
    g, claims = f1(30)
    rec = recover_partition(g, claims.partition.apex)
    assert rec is not None
    assert {frozenset(p) for p in rec.partition.parts} == {
        frozenset(p) for p in claims.partition.parts
    }
    d = rec.diagnostics
    assert d.within_part_link == 0
    assert d.missing_cross_link == 0
    assert d.tripartite_edges == 0
    assert d.missing_two_part == 0
    assert d.max_size_deviation <= 1


def test_recover_variant_counts_pair_deletions():
    pairs = admissible_sample("0", 30, seed=7)
    g, claims = f1_variant("0", pairs, 30)
    rec = recover_partition(g, claims.partition.apex)
    assert rec is not None
    assert {frozenset(p) for p in rec.partition.parts} == {
        frozenset(p) for p in claims.partition.parts
    }
    assert rec.diagnostics.missing_cross_link == len(pairs.pairs)
    assert rec.diagnostics.within_part_link == 0


def test_recover_complete_host_is_absent():
    k6 = Hypergraph3.from_triples(6, combinations(range(6), 3))
    assert recover_partition(k6, 0) is None


def test_recover_no_triangle_is_absent():
    assert recover_partition(Hypergraph3.from_triples(5, [(0, 1, 2)]), 3) is None


def test_recover_apex_range_checked():
    with pytest.raises(ValueError):
        recover_partition(Hypergraph3.from_triples(5, [(0, 1, 2)]), 9)


def test_recover_guarantee_flag(monkeypatch):
    g, claims = f1(30)
    rec = recover_partition(g, claims.partition.apex)
    # delta_2 = 18 sits just under (2/3 - 1/429) * 30, so no formal guarantee
    assert not rec.guarantee_applies
    # the guarantee needs delta_2 >= (2/3 - 1/429) * 30, whose ceiling is 20
    bound = ceil((Fraction(2, 3) - Fraction(1, 429)) * 30)
    for dmin, applies in ((bound, True), (bound - 1, False)):
        monkeypatch.setattr(Hypergraph3, "min_codegree", lambda self: dmin)
        assert recover_partition(g, claims.partition.apex).guarantee_applies is applies


# -- verify_construction ----------------------------------------------------------------


def test_verify_passes_on_f1():
    g, claims = f1(12)
    report = verify_construction(g, claims, pattern("K4"))
    assert report.ok
    names = [c.name for c in report.checks]
    assert "min_codegree" in names and "uncovered:11" in names


def test_verify_fails_on_tamper():
    g, claims = f1(12)
    parts = claims.partition.parts
    extra = (parts[0][0], parts[1][0], parts[2][0])
    tampered = Hypergraph3.from_triples(g.n, list(g.edges()) + [extra])
    report = verify_construction(tampered, claims, pattern("K4"))
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert f"uncovered:{claims.partition.apex}" in failed


def test_verify_passes_on_f2_with_k4_minus():
    g, claims = f2(13)
    assert verify_construction(g, claims, pattern("K4-")).ok


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=4, max_value=11).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(min_value=0, max_value=(1 << comb(n, 3)) - 1),
    st.randoms(use_true_random=False),
)))
def test_partition_counts_match_oracle(case):
    n, bits, rnd = case
    g = Hypergraph3(n, bits)
    x = rnd.randrange(n)
    rest = [v for v in range(n) if v != x]
    rnd.shuffle(rest)
    lo, hi = sorted(rnd.sample(range(len(rest) + 1), 2))
    parts = tuple(tuple(sorted(p)) for p in (rest[:lo], rest[lo:hi], rest[hi:]))
    d = _measure_partition(g, x, parts)
    got = (d.within_part_link, d.missing_cross_link, d.tripartite_edges, d.missing_two_part)
    assert got == oracles.partition_violations(g, x, parts)


@pytest.mark.parametrize("n", [99, 150])
def test_partition_counts_match_oracle_on_f1e(n):
    # the planted parts of f1e(n), where the pair set alone is counted, and a seeded shuffle of the
    # same vertices into parts of the same sizes, where every count is large
    pairs = admissible_sample(str(n % 3), n, 1)
    g, claims = f1_variant(str(n % 3), pairs, n)
    planted, x = claims.partition.parts, claims.partition.apex
    rest = [v for part in planted for v in part]
    random.Random(n).shuffle(rest)
    cuts = [0, len(planted[0]), len(planted[0]) + len(planted[1]), len(rest)]
    shuffled = tuple(tuple(sorted(rest[lo:hi])) for lo, hi in zip(cuts, cuts[1:]))
    for parts in (planted, shuffled):
        d = _measure_partition(g, x, parts)
        got = (d.within_part_link, d.missing_cross_link, d.tripartite_edges, d.missing_two_part)
        assert got == oracles.partition_violations(g, x, parts)
        if parts is planted:
            assert (got[0], got[1], got[3]) == (0, len(pairs.pairs), 0)
        else:
            assert min(got) > 0


@pytest.mark.parametrize("seed", range(10))
def test_bucket_sizes_count_the_s1_configurations(seed):
    # hosts whose link of x is complete tripartite, so that the partition is always found, under a
    # random relabelling, with every other triple present at random and abc dropped: bucket i holds
    # the seed's vertex i and each outside vertex that classify_sy labels S1a, S1b or S1c
    rnd = random.Random(seed)
    n = rnd.randrange(10, 19)
    x, *rest = rnd.sample(range(n), n)
    cuts = sorted(rnd.sample(range(1, n - 1), 2))
    label = {v: i for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, n - 1])) for v in rest[lo:hi]}
    density = rnd.uniform(0.25, 0.75)
    g = Hypergraph3.from_triples(n, [
        t for t in combinations(range(n), 3)
        if (len({label[v] for v in t if v != x}) == 2 if x in t else rnd.random() < density)
    ])
    a, b, c = g.link_graph(x).first_triangle()
    g = Hypergraph3(n, g.bits & ~(1 << triple_rank(a, b, c)))
    rec = recover_partition(g, x)
    labels = [classify_sy(g, (a, b, c, x), y).label for y in range(n) if y not in (a, b, c, x)]
    assert rec.seed_triangle == (a, b, c)
    assert rec.bucket_sizes == tuple(1 + labels.count(s) for s in ("S1a", "S1b", "S1c"))


def _f1_slots(n):
    """f1(n) and the six pairs of the apex 4-set {a, b, c, x} that recovery anchors on."""
    g, claims = f1(n)
    a, b, c = (part[0] for part in claims.partition.parts)
    return g, (a, b, c, n - 1), ((a, b), (a, c), (b, c), (a, n - 1), (b, n - 1), (c, n - 1))


def _assert_recovery_matches_oracle(g):
    for x in range(g.n):
        rec = recover_partition(g, x)
        got = None if rec is None else (rec.partition.parts, rec.seed_triangle, rec.bucket_sizes)
        assert got == oracles.recover_partition(g, x)
        others = [v for v in range(g.n) if v != x]
        for a, b, c in combinations(others, 3):
            if not all(g.contains(u, v, x) for u, v in ((a, b), (b, c), (a, c))) or g.contains(a, b, c):
                continue
            for y in others:
                if y in (a, b, c):
                    continue
                sy = oracles.link_configuration(g, a, b, c, x, y)
                named = [k for k, s in SY_SETS.items() if s == sy] + ["SUBSET_ONLY"]
                label = named[0] if any(sy <= s for s in SY_SETS.values()) else "VIOLATION"
                assert classify_sy(g, (a, b, c, x), y) == SyClass(label, sy)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(min_value=0, max_value=(1 << comb(n, 3)) - 1),
    st.booleans(),
    st.lists(st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=n - 1)),
             max_size=3),
)))
def test_recovery_and_link_configurations_match_oracle(case):
    # a uniform random host, or f1(n) with up to three slot triples (pair s
    # of the anchored 4-set, with y) toggled, so that both found and absent
    # partitions occur
    n, bits, from_f1, flips = case
    if from_f1:
        g, quad, slots = _f1_slots(n)
        bits = g.bits
        for s, y in flips:
            if y not in quad:
                bits ^= 1 << triple_rank(*slots[s], y)
    _assert_recovery_matches_oracle(Hypergraph3(n, bits))


@pytest.mark.parametrize("n", range(5, 11))
def test_recovery_matches_oracle_one_slot_from_f1(n):
    # every host one slot triple away from f1(n): each configuration one slot
    # away from S1a, S1b or S1c, mostly in hosts whose partition is still found
    g, quad, slots = _f1_slots(n)
    for pair in slots:
        for y in range(n):
            if y not in quad:
                _assert_recovery_matches_oracle(Hypergraph3(n, g.bits ^ (1 << triple_rank(*pair, y))))
