import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations, permutations
from math import comb

from h3cover import (
    Hypergraph3,
    admissible_sample,
    build,
    canonical_key,
    dumps_h3,
    edit_distance,
    f1,
    f1_variant,
    f3,
    loads_h3,
    pair_rank,
    triple_rank,
    triple_unrank,
)

import oracles


def k4():
    return build(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


# -- ranks -------------------------------------------------------------------


def test_colex_rank_basics():
    assert triple_rank(0, 1, 2) == 0
    assert triple_rank(0, 1, 3) == 1
    assert triple_rank(0, 2, 3) == 2
    assert triple_rank(1, 2, 3) == 3
    assert triple_rank(0, 1, 4) == 4
    assert triple_rank(2, 1, 0) == 0  # order-insensitive


@given(st.integers(min_value=0, max_value=comb(12, 3) - 1))
def test_rank_unrank_roundtrip(r):
    a, b, c = triple_unrank(r)
    assert a < b < c
    assert triple_rank(a, b, c) == r


@given(st.integers(min_value=3, max_value=5000).flatmap(
    lambda c: st.tuples(st.integers(0, c - 2), st.just(c)).flatmap(
        lambda bc: st.tuples(st.integers(0, bc[0]), st.just(bc[0] + 1), st.just(bc[1])))))
def test_unrank_large_triples(t):
    a, b, c = t
    assert triple_unrank(triple_rank(a, b, c)) == (a, b, c)


def test_unrank_block_boundaries():
    # the first and last rank with each largest vertex c
    for c in range(2, 3000):
        assert triple_unrank(comb(c, 3)) == (0, 1, c)
        assert triple_unrank(comb(c + 1, 3) - 1) == (c - 2, c - 1, c)


def test_ranks_enumerate_all_triples():
    n = 7
    ranks = sorted(triple_rank(*t) for t in combinations(range(n), 3))
    assert ranks == list(range(comb(n, 3)))
    pranks = sorted(pair_rank(u, v) for u, v in combinations(range(n), 2))
    assert pranks == list(range(comb(n, 2)))


# -- build -------------------------------------------------------------------


def test_build_complete_graph():
    g = k4()
    assert g.num_edges == 4
    assert all(g.contains(*t) for t in combinations(range(4), 3))


def test_build_empty():
    g = build(4, [])
    assert g.num_edges == 0
    assert g.min_codegree() == 0


def test_build_rejects_malformed():
    with pytest.raises(ValueError):
        build(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        build(3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        build(3, [(0, 1)])


def test_build_deduplicates():
    g = build(4, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    assert g.num_edges == 1


# -- codegree ----------------------------------------------------------------


def test_codegree_k4():
    g = k4()
    assert g.codegree(0, 1) == 2
    assert g.neighborhood(0, 1) == (2, 3)


def test_codegree_f1_11():
    g, claims = f1(11)
    # minimizing pair joins the two smallest parts
    v1 = claims.partition.parts[0][0]
    v2 = claims.partition.parts[1][0]
    assert g.codegree(v1, v2) == 5
    assert g.min_codegree() == 5
    assert oracles.min_codegree(g) == 5


def test_codegree_empty_graph():
    g = build(5, [])
    assert g.codegree(0, 4) == 0


@pytest.mark.parametrize("g", [
    f1(13)[0],
    f1_variant("0", admissible_sample("0", 30, 1), 30)[0],
], ids=["f1_13", "f1e_30"])
def test_pair_masks_match_membership(g):
    # packed rows of 2 and 4 bytes: bits past the first byte of a row must land in it
    edges = set(oracles.triples_of(g))
    for u, v in combinations(range(g.n), 2):
        assert g.pair_mask(u, v) == sum(1 << w for w in range(g.n) if tuple(sorted((u, v, w))) in edges)


def test_codegree_errors():
    g = k4()
    with pytest.raises(ValueError):
        g.codegree(1, 1)
    with pytest.raises(ValueError):
        g.codegree(0, 7)


# -- link graphs -------------------------------------------------------------


def test_link_k4_is_triangle():
    lk = k4().link_graph(3)
    assert sorted(lk.pairs()) == [(0, 1), (0, 2), (1, 2)]


def test_link_f1_apex_is_complete_tripartite():
    g, claims = f1(10)
    apex = claims.partition.apex
    lk = g.link_graph(apex)
    part_of = {}
    for i, p in enumerate(claims.partition.parts):
        for v in p:
            part_of[v] = i
    for u, v in combinations(range(g.n - 1), 2):
        assert lk.contains(u, v) == (part_of[u] != part_of[v])


def test_link_f3_apex_is_two_cliques():
    g, claims = f3(9)
    lk = g.link_graph(claims.partition.apex)
    p0, p1 = claims.partition.parts
    for u, v in combinations(range(8), 2):
        same = (u in p0 and v in p0) or (u in p1 and v in p1)
        assert lk.contains(u, v) == same


def test_link_degree_equals_codegree():
    g, _ = f1(9)
    lk = g.link_graph(2)
    for u in range(g.n):
        if u != 2:
            assert lk.degree(u) == g.codegree(2, u)


def test_link_rejects_out_of_range_vertex():
    lk = f1(9)[0].link_graph(8)
    for u in (-1, -2, 9):
        with pytest.raises(ValueError):
            lk.degree(u)
        with pytest.raises(ValueError):
            lk.adjacency_mask(u)
        with pytest.raises(ValueError):
            lk.contains(0, u)
        with pytest.raises(ValueError):
            lk.contains(u, 0)


# -- edit distance and canonical keys ----------------------------------------


def test_edit_distance_identity():
    g, _ = f1(7)
    assert edit_distance(g, g) == 0


def test_edit_distance_relabeled_single_edge():
    g = build(4, [(0, 1, 2)])
    h = build(4, [(0, 1, 3)])
    assert edit_distance(g, h) == 0
    assert canonical_key(g) == canonical_key(h)


def test_edit_distance_k4_vs_k4_minus():
    g = k4()
    h = build(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert edit_distance(g, h) == 1
    assert oracles.edit_distance(g, h) == 1
    assert canonical_key(g) != canonical_key(h)


def test_canonical_classes_on_four_vertices():
    # orbit count by explicit group action, then compare
    orbits = set()
    for bits in range(16):
        g = Hypergraph3(4, bits)
        orbit = frozenset(
            canonical_key(Hypergraph3(4, b)) for b in _orbit_bitmaps(bits)
        )
        assert len(orbit) == 1
        orbits.add(next(iter(orbit)))
    assert len(orbits) == 5


def _orbit_bitmaps(bits):
    out = set()
    for p in permutations(range(4)):
        nb = 0
        for r in range(4):
            if bits >> r & 1:
                a, b, c = triple_unrank(r)
                nb |= 1 << triple_rank(p[a], p[b], p[c])
        out.add(nb)
    return out


def test_canonical_key_cap():
    g = Hypergraph3(9, 0)
    with pytest.raises(ValueError):
        canonical_key(g)
    with pytest.raises(ValueError):
        edit_distance(g, g)


def test_edit_distance_requires_equal_n():
    with pytest.raises(ValueError):
        edit_distance(Hypergraph3(4, 0), Hypergraph3(5, 0))


# -- independence -------------------------------------------------------------


def test_is_independent_small_sets():
    g = k4()
    assert g.is_independent([0])
    assert g.is_independent([0, 1])
    assert not g.is_independent([0, 1, 2])


def test_is_independent_f1_sets():
    g, claims = f1(9)
    apex = claims.partition.apex
    p = claims.partition.parts
    # two parts plus the apex always catch a two-part triple
    assert not g.is_independent(set(p[0]) | set(p[1]) | {apex})
    # one vertex per part spans only the tripartite non-edge
    assert g.is_independent({p[0][0], p[1][0], p[2][0]})
    # adding the apex to a transversal picks up its cross-pair link triples
    assert not g.is_independent({apex, p[0][0], p[1][0], p[2][0]})


# -- serialization -------------------------------------------------------------


def test_text_roundtrip_with_comments():
    g, _ = f1(8)
    text = "# header comment\n" + dumps_h3(g, "text") + "\n# trailing\n"
    assert loads_h3(text) == g


def test_hex_roundtrip():
    g, _ = f3(9)
    assert loads_h3(dumps_h3(g, "hex")) == g


def test_forms_agree():
    g, _ = f1(11)
    assert loads_h3(dumps_h3(g, "text")) == loads_h3(dumps_h3(g, "hex"))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # the warnings filter a CLI run has
def test_loads_rejects_bad_input():
    with pytest.raises(ValueError):
        loads_h3("")
    with pytest.raises(ValueError):
        loads_h3("4 2\n0 1 2\n")  # promised 2 edges, gave 1
    with pytest.raises(ValueError):
        loads_h3("3 1\n0 1 1\n")
    with pytest.raises(ValueError):
        loads_h3("4 1\n0 1 2 3\n")  # four vertices on an edge line
    with pytest.raises(ValueError):
        loads_h3("4 2\n0 1\n1 2 3 0\n")  # token count right, lines wrong
    with pytest.raises(ValueError):
        loads_h3("4 1\n0 1 x\n")
    for line in ("+0 1 2", "-0 1 2", "0 1.0 2", "0 1.9 2", "0 1e0 2", "0 .2e1 1", "0\xa01 2"):
        with pytest.raises(ValueError):
            loads_h3(f"4 1\n{line}\n")


def test_loads_rejects_duplicate_edge_lines():
    with pytest.raises(ValueError, match="0 1 2 is listed twice"):
        loads_h3("12 2\n0 1 2\n0 1 2\n")
    with pytest.raises(ValueError, match="listed twice"):
        loads_h3("5 3\n0 1 2\n1 3 4\n2 0 1\n")  # the same triple in another order
    # build() and from_triples keep deduplicating
    assert build(12, [(0, 1, 2), (0, 1, 2)]).num_edges == 1


def test_loads_blank_and_commented_lines():
    g = loads_h3("\n# leading\n 5 2 # header\n\n 3 4 2 \n\t\n0 1 2#x\n  \n")
    assert list(g.edges()) == [(0, 1, 2), (2, 3, 4)]
    assert loads_h3("6 0\n  \n") == Hypergraph3(6, 0)
    assert list(loads_h3("4 1\n0\x1c1\v2\f\n\x1f\n").edges()) == [(0, 1, 2)]  # ASCII whitespace separates


# -- property tests ------------------------------------------------------------


def graphs(max_n=6):
    return st.integers(min_value=3, max_value=max_n).flatmap(
        lambda n: st.builds(
            Hypergraph3,
            st.just(n),
            st.integers(min_value=0, max_value=(1 << comb(n, 3)) - 1),
        )
    )


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_codegree_sum_is_three_times_edges(g):
    total = sum(g.codegree(u, v) for u, v in combinations(range(g.n), 2))
    assert total == 3 * g.num_edges


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_degree_identity(g):
    for x in range(g.n):
        assert g.degree(x) == sum(g.codegree(x, u) for u in range(g.n) if u != x) // 2
        assert g.degree(x) == oracles.degree(g, x)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_complement_involution(g):
    assert g.complement().complement() == g
    for u, v in combinations(range(g.n), 2):
        assert g.complement().codegree(u, v) == (g.n - 2) - g.codegree(u, v)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5), st.randoms(use_true_random=False))
def test_canonical_key_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabeled = Hypergraph3.from_triples(
        g.n, [(perm[a], perm[b], perm[c]) for a, b, c in g.edges()]
    )
    assert canonical_key(relabeled) == canonical_key(g)
    assert edit_distance(g, relabeled) == 0


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6))
def test_canonical_key_is_least_relabeled_bitmap(g):
    width = (comb(g.n, 3) + 7) // 8
    assert canonical_key(g) == bytes([g.n]) + oracles.canonical_bitmap(g).to_bytes(width, "big")


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_edit_zero_iff_keys_equal(g, h):
    if g.n != h.n:
        return
    assert (edit_distance(g, h) == 0) == (canonical_key(g) == canonical_key(h))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_serialization_roundtrip_property(g):
    assert loads_h3(dumps_h3(g, "text")) == g
    assert loads_h3(dumps_h3(g, "hex")) == g


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_min_codegree_matches_oracle(g):
    assert g.min_codegree() == oracles.min_codegree(g)


# -- fast paths against the oracles ----------------------------------------------


def bitmaps(max_n=10):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            Hypergraph3,
            st.just(n),
            st.integers(min_value=0, max_value=max(0, (1 << comb(n, 3)) - 1)),
        )
    )


@settings(max_examples=150, deadline=None)
@given(bitmaps())
def test_decoded_views_match_oracles(g):
    triples = oracles.triples_of(g)
    assert list(g.edges()) == triples
    assert g.edge_array().tolist() == [list(t) for t in triples]
    edge_set = set(triples)
    for t in combinations(range(g.n), 3):
        assert g.contains(*t) == (t in edge_set)
        assert g.contains(t[2], t[0], t[1]) == (t in edge_set)
        assert triple_unrank(triple_rank(*t)) == t
    for u, v in combinations(range(g.n), 2):
        common = [w for w in range(g.n) if w not in (u, v) and tuple(sorted((u, v, w))) in edge_set]
        mask = g.pair_mask(u, v)
        assert type(mask) is int
        assert mask == sum(1 << w for w in common)
        assert g.codegree(u, v) == oracles.codegree(g, u, v)
    assert g.min_codegree() == oracles.min_codegree(g)
    table = g.pair_masks()
    assert len(table) == g.n and all(len(row) == g.n for row in table)
    for u in range(g.n):
        assert table[u][u] == 0
        for v in range(u + 1, g.n):
            assert table[u][v] is table[v][u]
            assert table[u][v] == g.pair_mask(u, v) == g.pair_mask(v, u)
    for x in range(g.n):
        assert g.degree(x) == oracles.degree(g, x)
        link = [tuple(w for w in t if w != x) for t in triples if x in t]
        link.sort(key=lambda p: pair_rank(*p))
        lk = g.link_graph(x)
        assert list(lk.pairs()) == link
        assert lk.num_pairs == len(link)
        for u, v in combinations(range(g.n), 2):
            assert lk.contains(u, v) == lk.contains(v, u) == ((u, v) in link)
        for u in range(g.n):
            assert lk.degree(u) == sum(u in p for p in link)
        triangles = (t for t in combinations(range(g.n), 3) if all(p in link for p in combinations(t, 2)))
        assert lk.first_triangle() == next(triangles, None)
    assert g.min_degree() == min((oracles.degree(g, x) for x in range(g.n)), default=0)
    assert Hypergraph3.from_triples(g.n, g.edges()) == g
    text = dumps_h3(g, "text")
    assert text == f"{g.n} {len(triples)}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in triples)
    assert loads_h3(text) == g
    assert loads_h3(dumps_h3(g, "hex")) == g


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789 \t\n#-x", max_size=60))
def test_loads_returns_a_graph_or_raises_value_error(text):
    try:
        g = loads_h3(text)
    except ValueError:
        return
    assert loads_h3(dumps_h3(g)) == g


_TOKENS = ["0", "1", "2", "3", "4", "5", "01", "+1", "-1", "1.0", "1e0", ".2e1", "x", "9999999999"]


@st.composite
def h3_texts(draw):
    """Edge-list .h3 texts: vertex triples (some with leading zeros) and stray
    tokens, space and tab separators, LF and CRLF line ends, comments and blank
    lines, and a header that mostly counts the edge lines right."""
    n = draw(st.integers(min_value=0, max_value=7))
    seps = st.text(alphabet=" \t", min_size=1, max_size=2)

    def join(tokens):
        return draw(st.sampled_from(["", " ", "\t"])) + "".join(
            tok + (draw(seps) if i < len(tokens) - 1 else "") for i, tok in enumerate(tokens))

    kinds = draw(st.lists(st.sampled_from(["triple", "triple", "tokens", "blank", "comment"]), max_size=6))
    body = []
    for kind in kinds:
        if kind == "triple":
            vs = draw(st.lists(st.integers(0, max(n - 1, 2)), min_size=3, max_size=3, unique=True))
            line = join([draw(st.sampled_from([str(v), str(v), "0" + str(v)])) for v in vs])
        elif kind == "tokens":
            line = join(draw(st.lists(st.sampled_from(_TOKENS), min_size=2, max_size=4)))
        else:
            line = draw(st.sampled_from(["", " ", "\t "])) + ("# 1 2 3" if kind == "comment" else "")
        body.append(line + draw(st.sampled_from(["", "", " # x"])))
    m = sum(kind in ("triple", "tokens") for kind in kinds)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        m = draw(st.integers(min_value=0, max_value=5))
    head = join([str(n), str(m)]) + draw(st.sampled_from(["", "# n m"]))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in range(len(body) + 1)]
    text = "".join(line + end for line, end in zip([head, *body], ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(h3_texts())
def test_loads_matches_line_by_line_reader(text):
    try:
        want = oracles.loads_h3(text)
    except ValueError:
        with pytest.raises(ValueError):
            loads_h3(text)
    else:
        assert loads_h3(text) == want
