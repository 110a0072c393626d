import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from itertools import combinations, combinations_with_replacement
from math import comb

from h3cover import (
    Hypergraph3,
    degeneracy,
    embed_covering,
    f1,
    f2,
    f3,
    f4,
    f32_tripartite,
    fano_bipartite,
    greedy_cover_bound,
    greedy_embed,
    pattern,
    pattern_from_graph,
    steiner,
    uncovered_vertices,
)
from h3cover import patterns
from h3cover.patterns import CATALOG

import oracles


def complete(n):
    return Hypergraph3.from_triples(n, combinations(range(n), 3))


# -- catalog ------------------------------------------------------------------


def test_catalog_parameters():
    assert (pattern("K4").f, pattern("K4").r) == (4, 3)
    assert (pattern("Fano").f, pattern("Fano").r) == (7, 3)
    assert (pattern("K4-").f, pattern("K4-").r) == (4, 2)
    assert pattern("K5").r == 6
    assert pattern("C5").r == 3
    assert pattern("F32").f == 5
    assert pattern("K4-") is pattern("K4-")


def test_catalog_rejects_bad_sizes():
    with pytest.raises(ValueError, match="complete patterns need t >= 4"):
        pattern("K3")
    with pytest.raises(ValueError, match="tight cycles need t >= 5"):
        pattern("C4")
    with pytest.raises(ValueError, match="no Steiner triple system on 8 vertices"):
        pattern("STS:8")
    # a family needs its size in ASCII digits without a leading zero, STS after a colon
    for name in ("Q7", "K", "K-", "C", "STS9", "K\u0664", "C\u0665", "STS:\u0669", "K04", "K04-", "C05", "STS:09"):
        with pytest.raises(ValueError, match=f"unknown pattern '{name}'"):
            pattern(name)


def test_sts_pattern():
    p = pattern("STS:9")
    assert p.name == "STS:9"
    assert p.f == 9
    assert p.graph == steiner(9)


def test_every_pattern_has_an_edge():
    for name in CATALOG:
        assert pattern(name).graph.num_edges >= 1


def _catalog_edges(name):
    """The defining edge list of a catalog name, spelled out triple by triple."""
    if name == "Fano":
        return 7, patterns._FANO_LINES
    if name == "F32":
        return 5, patterns._F32_EDGES
    size = int(name.strip("KC-"))
    if name.startswith("C"):
        return size, [(i, (i + 1) % size, (i + 2) % size) for i in range(size)]
    edges = set(combinations(range(size), 3))
    if name.endswith("-"):
        edges.remove((size - 3, size - 2, size - 1))
    return size, edges


@pytest.mark.parametrize(
    "name",
    sorted({*CATALOG, *(f"K{t}" for t in range(4, 8)), *(f"K{t}-" for t in range(4, 8)),
            *(f"C{t}" for t in range(5, 9))}),
)
def test_catalog_bitmaps_match_build(name):
    # the catalog computes its bitmaps from scalar ranks; from_triples ranks the edge list in numpy
    size, edges = _catalog_edges(name)
    assert pattern(name).graph.bits == Hypergraph3.from_triples(size, edges).bits
    assert pattern(name).graph.n == size


# -- degeneracy ----------------------------------------------------------------


def test_degeneracy_single_edge():
    r, order = degeneracy(Hypergraph3.from_triples(3, [(0, 1, 2)]))
    assert r == 1
    assert sorted(order) == [0, 1, 2]


def test_degeneracy_c5():
    assert degeneracy(pattern("C5").graph)[0] == 3


def test_degeneracy_k5():
    assert degeneracy(pattern("K5").graph)[0] == 6


def test_degeneracy_rejects_empty():
    with pytest.raises(ValueError):
        degeneracy(Hypergraph3.from_triples(4, []))


def test_degeneracy_matches_subgraph_oracle():
    for name in CATALOG:
        p = pattern(name)
        assert p.r == oracles.degeneracy_r(p.graph), name


def _seeded_graphs():
    rng = random.Random(11)
    for n in range(3, 16):
        for density in (0.05, 0.3, 0.7, 1.0):
            bits = sum(1 << r for r in range(comb(n, 3)) if rng.random() < density) or 1
            yield Hypergraph3(n, bits)


@pytest.mark.parametrize("g", [
    *(pattern(name).graph for name in CATALOG),
    Hypergraph3(43, (1 << comb(43, 3)) - 1),
    *_seeded_graphs(),
], ids=repr)
def test_degeneracy_matches_edge_scan(g):
    # the pair-table popcounts give the ordering of the elimination that rescans every edge
    assert degeneracy(g) == oracles.degeneracy(g)


def test_ordering_prefix_property():
    # x_i has at most r pattern edges falling inside {x_1..x_i}
    for name in CATALOG:
        p = pattern(name)
        pos = {v: i for i, v in enumerate(p.ordering)}
        for i, v in enumerate(p.ordering):
            inside = sum(
                1
                for e in p.graph.edges()
                if v in e and all(pos[u] <= i for u in e)
            )
            assert inside <= p.r, name


# -- plans ----------------------------------------------------------------------


def _plan_graphs():
    """Every catalog pattern; K_t, K_t- and C_t for t <= 10; STS on 9, 13 and 15 points;
    seeded graphs on 4..10 vertices of several densities; each graph once."""
    names = [*CATALOG, *(f"K{t}{minus}" for t in range(4, 11) for minus in ("", "-"))]
    names += [f"C{t}" for t in range(5, 11)] + [f"STS:{t}" for t in (9, 13, 15)]
    graphs = [patterns._catalog_graph(name) for name in names]
    rng = random.Random(31)
    for n in range(4, 11):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            graphs.append(Hypergraph3(n, sum(1 << r for r in range(comb(n, 3)) if rng.random() < density) or 1))
    return list(dict.fromkeys(graphs))


@pytest.mark.parametrize("g", _plan_graphs(), ids=repr)
def test_plan_matches_edge_scan(g):
    # the plan read from the pair table orders, constrains and twin-bounds the positions as
    # the rescan of every edge for every candidate does, from each anchor and the degeneracy ordering
    for anchors in [(a,) for a in range(g.n)] + [degeneracy(g)[1]]:
        assert patterns._plan(g, anchors) == oracles.plan(g, anchors), anchors


def test_complete_pattern_builds_quickly():
    # a fresh graph, so no cached plan is reused; the build takes about 0.1 s on 2 shared cores
    t0 = time.perf_counter()
    pat = pattern_from_graph("K50", patterns._catalog_graph("K50"))
    assert time.perf_counter() - t0 < 1.0
    assert pat.orbit_reps == (0,) and pat.r == comb(49, 2)


# -- greedy bound ---------------------------------------------------------------


def test_greedy_cover_bound_values():
    assert greedy_cover_bound(pattern("K4"), 99) == 65
    assert greedy_cover_bound(pattern("Fano"), 21) == 14
    assert greedy_cover_bound(pattern("K5"), 12) == 8


def test_greedy_cover_bound_rejects_small_host():
    with pytest.raises(ValueError):
        greedy_cover_bound(pattern("K5"), 4)


# -- symmetry data ----------------------------------------------------------------


def assert_twin_classes(g):
    classes = [c for c in oracles.twin_classes(g) if len(c) > 1]
    assert g.twin_classes() == {v: sum(1 << u for u in c) for c in classes for v in c}


def assert_symmetry_data(pat):
    assert pat.orbit_reps == tuple(orbit[0] for orbit in oracles.automorphism_orbits(pat.graph))
    assert_twin_classes(pat.graph)


@pytest.mark.parametrize("name", [name for name in CATALOG if pattern(name).f <= 7])
def test_catalog_symmetry_data_matches_brute_force(name):
    assert_symmetry_data(pattern(name))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(list(combinations(range(n), 3))), min_size=1))
    )
)
# no automorphism but the identity
@example((6, {(0, 1, 2), (0, 2, 4), (0, 2, 5), (0, 3, 5), (0, 4, 5), (1, 4, 5)}))
# isolated vertices 3, 4 and 5 form one orbit and one twin class
@example((6, {(0, 1, 2)}))
def test_drawn_pattern_symmetry_matches_brute_force(spec):
    n, edges = spec
    assert_symmetry_data(pattern_from_graph("drawn", Hypergraph3.from_triples(n, edges)))


def test_embeddings_match_recorded_golden():
    data = json.loads((Path(__file__).parent / "golden_embeddings.json").read_text())
    families = {"f1": f1, "f2": f2, "f4": f4, "f32tri": f32_tripartite}
    for case in data["cases"]:
        name = case["host"]
        if name.startswith("random"):
            host = Hypergraph3(case["n"], data["random_bits"][int(name[len("random"):])])
        else:
            host = families[name](case["n"])[0]
        pat = pattern(case["pattern"])
        for key, search in (("embed", embed_covering), ("greedy", greedy_embed)):
            for x, images in enumerate(case[key]):
                want = None if images is None else dict(enumerate(images))
                assert search(host, x, pat) == want, (name, pat.name, key, x)
        unc = tuple(x for x, images in enumerate(case["embed"]) if images is None)
        assert uncovered_vertices(host, pat) == unc, (name, pat.name)


@pytest.mark.parametrize(
    "family, name, unreduced_calls",
    # entries into _backtrack, recursion included, before orbit anchors, twin
    # order and image crediting: f4(36)/C5 1,050,174; f32tri(36)/F32 814,320
    [(f4, "C5", 1_050_174), (f32_tripartite, "F32", 814_320)],
)
def test_symmetry_reduction_work_guard(monkeypatch, family, name, unreduced_calls):
    host, claims = family(36)
    pat = pattern(name)
    calls = 0
    backtrack = patterns._backtrack

    def counting(*args):
        nonlocal calls
        calls += 1
        return backtrack(*args)

    monkeypatch.setattr(patterns, "_backtrack", counting)
    assert uncovered_vertices(host, pat) == claims.uncovered
    assert calls <= unreduced_calls // 3


# -- host twins ---------------------------------------------------------------------


def _drawn_hosts():
    """Seeded hosts on 5..8 vertices: random ones of several densities, and
    part-label hosts (each sorted label triple in or out), in which any two
    vertices of one part are twins."""
    rng = random.Random(9)
    hosts = []
    for n in range(5, 9):
        for density in (0.3, 0.6, 0.85):
            hosts.append(Hypergraph3(n, sum(1 << r for r in range(comb(n, 3)) if rng.random() < density)))
        for parts in (2, 3, 3):
            label = sorted(rng.randrange(parts) for _ in range(n))
            allowed = {t for t in combinations_with_replacement(range(parts), 3) if rng.random() < 0.6}
            hosts.append(Hypergraph3.from_triples(n, oracles.labelled_triples(label, allowed.__contains__)))
    return hosts


DRAWN_HOSTS = _drawn_hosts()


# on a Steiner triple system every vertex has one sorted codegree profile (all 1s),
# so each pair of vertices is compared row by row
@pytest.mark.parametrize("host", DRAWN_HOSTS + [steiner(7), steiner(9)], ids=repr)
def test_host_twin_classes_match_brute_force(host):
    assert_twin_classes(host)


@pytest.mark.parametrize("host", DRAWN_HOSTS, ids=repr)
def test_host_twins_change_no_answer(host):
    # the searches cut by the host's twin classes answer as the brute-force oracles
    for name in ("K4", "K4-", "C5", "F32"):
        pat = pattern(name)
        assert uncovered_vertices(host, pat) == oracles.uncovered(host, pat)
        for x in range(host.n):
            found = embed_covering(host, x, pat) is not None
            assert found == oracles.embeds_through(host, x, pat), (name, x)


@pytest.mark.parametrize(
    "family, name, unreduced_calls",
    # entries into _backtrack, recursion included, with the pattern's symmetry
    # alone: f4(36)/C5 265,354; f32tri(36)/F32 171,288
    [(f4, "C5", 265_354), (f32_tripartite, "F32", 171_288)],
)
def test_host_twin_work_guard(monkeypatch, family, name, unreduced_calls):
    host, claims = family(36)
    pat = pattern(name)
    calls = 0
    backtrack = patterns._backtrack

    def counting(*args):
        nonlocal calls
        calls += 1
        return backtrack(*args)

    monkeypatch.setattr(patterns, "_backtrack", counting)
    assert uncovered_vertices(host, pat) == claims.uncovered
    assert calls <= unreduced_calls // 10


@pytest.mark.parametrize(
    "family, n, name, head_calls",
    # entries into _backtrack, recursion included, when the first miss was proved
    # before the host's twin classes were built: f3(99)/C5 235,799;
    # fano_bipartite(36)/Fano 12,506,328
    [(f3, 99, "C5", 235_799), (fano_bipartite, 36, "Fano", 12_506_328)],
)
def test_first_miss_work_guard(monkeypatch, family, n, name, head_calls):
    host, claims = family(n)
    calls = 0
    backtrack = patterns._backtrack

    def counting(*args):
        nonlocal calls
        calls += 1
        return backtrack(*args)

    monkeypatch.setattr(patterns, "_backtrack", counting)
    assert uncovered_vertices(host, pattern(name)) == claims.uncovered
    assert calls <= head_calls // 10


# -- embed_covering --------------------------------------------------------------


def test_embed_in_complete_host():
    emb = embed_covering(complete(4), 0, pattern("K4"))
    assert emb is not None
    assert 0 in emb.values()


def test_embedding_is_valid_map():
    g, _ = f1(9)
    emb = embed_covering(g, 0, pattern("K4"))
    assert emb is not None
    assert len(set(emb.values())) == 4
    for e in pattern("K4").graph.edges():
        assert g.contains(*(emb[v] for v in e))


def test_f1_apex_never_in_k4():
    for n in (7, 10, 12):
        g, claims = f1(n)
        assert embed_covering(g, claims.partition.apex, pattern("K4")) is None


def test_f3_apex_never_in_c5():
    g, claims = f3(9)
    assert embed_covering(g, claims.partition.apex, pattern("C5")) is None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << comb(n, 3)) - 1)
        )
    ),
    st.sampled_from(["K4", "K4-", "C5", "F32"]),
)
# complete hosts smaller than the pattern
@example((4, 15), "C5")
@example((4, 15), "F32")
def test_embed_covering_matches_brute_force(host_spec, name):
    n, bits = host_spec
    pat = pattern(name)
    host = Hypergraph3(n, bits)
    for x in range(n):
        assert (embed_covering(host, x, pat) is not None) == oracles.embeds_through(
            host, x, pat
        )
    assert uncovered_vertices(host, pat) == oracles.uncovered(host, pat)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << comb(6, 3)) - 1),
    st.integers(min_value=0, max_value=(1 << comb(6, 3)) - 1),
)
def test_cover_monotone_under_edge_addition(bits_a, bits_b):
    pat = pattern("K4")
    g = Hypergraph3(6, bits_a)
    sup = Hypergraph3(6, bits_a | bits_b)
    covered_g = {x for x in range(6) if embed_covering(g, x, pat) is not None}
    covered_sup = {x for x in range(6) if embed_covering(sup, x, pat) is not None}
    assert covered_g <= covered_sup


# -- greedy_embed -----------------------------------------------------------------


def test_greedy_on_complete_hosts():
    for name in ("K4", "C5", "Fano"):
        pat = pattern(name)
        host = complete(pat.f + 1)
        for x in range(host.n):
            assert greedy_embed(host, x, pat) is not None


def test_greedy_fails_at_f1_apex():
    g, claims = f1(12)
    apex = claims.partition.apex
    assert greedy_embed(g, apex, pattern("K4")) is None
    assert embed_covering(g, apex, pattern("K4")) is None


def test_greedy_succeeds_above_codegree_bound():
    # seeded densification of the apex construction until the bound is cleared
    import random

    rng = random.Random(0)
    pat = pattern("K4")
    n = 12
    g, _ = f1(n)
    edges = {tuple(e) for e in g.edges()}
    missing = [t for t in combinations(range(n), 3) if t not in edges]
    rng.shuffle(missing)
    bound = greedy_cover_bound(pat, n)
    while g.min_codegree() <= bound:
        edges.add(missing.pop())
        g = Hypergraph3.from_triples(n, edges)
    for x in range(n):
        emb = greedy_embed(g, x, pat)
        assert emb is not None
        for e in pat.graph.edges():
            assert g.contains(*(emb[v] for v in e))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << comb(6, 3)) - 1),
    st.sampled_from(["K4", "C5"]),
    st.integers(min_value=0, max_value=5),
)
def test_greedy_success_implies_embedding(bits, name, x):
    host = Hypergraph3(6, bits)
    pat = pattern(name)
    emb = greedy_embed(host, x, pat)
    if emb is not None:
        assert emb[pat.ordering[0]] == x
        assert len(set(emb.values())) == pat.f
        for e in pat.graph.edges():
            assert host.contains(*(emb[v] for v in e))
        assert embed_covering(host, x, pat) is not None


# -- uncovered / extendable ---------------------------------------------------------


def test_uncovered_complete_host():
    assert uncovered_vertices(complete(5), pattern("K4")) == ()


def test_uncovered_searches_only_through_uncredited_vertices(monkeypatch):
    # complete(8) less six triples, each with at most one of 0, 1, 2, so that no two
    # vertices are twins and only crediting skips searches.  The copy found through 0
    # covers 0..3; each later copy covers its own vertex and 0, 1, 2
    removed = {(0, 3, 4), (1, 3, 4), (1, 3, 5), (1, 6, 7), (3, 4, 5), (3, 4, 6)}
    host = Hypergraph3.from_triples(8, [t for t in combinations(range(8), 3) if t not in removed])
    assert host.twin_classes() == {}
    searched = []
    search = patterns.embed_covering

    def recording(host, x, pat):
        searched.append(x)
        return search(host, x, pat)

    monkeypatch.setattr(patterns, "embed_covering", recording)
    assert uncovered_vertices(host, pattern("K4")) == ()
    assert searched == [0, 4, 5, 6, 7]


def test_uncovered_f4_is_first_half():
    g, claims = f4(10)
    assert uncovered_vertices(g, pattern("C5")) == claims.partition.parts[0]


def test_uncovered_f1_is_apex():
    g, claims = f1(12)
    assert uncovered_vertices(g, pattern("K4")) == (claims.partition.apex,)
