import os
import random
import time
import tracemalloc
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from itertools import combinations
from math import comb

from h3cover import (
    Hypergraph3,
    admissible_sample,
    blow_up,
    dumps_h3,
    f1,
    f1_variant,
    f3,
    load_h3,
    loads_h3,
    steiner,
    triple_rank,
    write_h3,
)
from h3cover import core

import oracles


def k4():
    return Hypergraph3.from_triples(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


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
    a, b, c = Hypergraph3(12, (1 << comb(12, 3)) - 1).edge_array()[r].tolist()
    assert a < b < c
    assert triple_rank(a, b, c) == r


@given(st.integers(min_value=3, max_value=5000).flatmap(
    lambda c: st.tuples(st.integers(0, c - 2), st.just(c)).flatmap(
        lambda bc: st.tuples(st.integers(0, bc[0]), st.just(bc[0] + 1), st.just(bc[1])))))
def test_unrank_large_triples(t):
    a, b, c = t
    assert core._rows(c + 1, np.array([triple_rank(a, b, c)])).tolist() == [[a, b, c]]


def test_unrank_block_boundaries():
    # the first and last rank with each largest vertex c
    c = np.arange(2, 3000)
    first = core._rows(3000, c * (c - 1) * (c - 2) // 6)
    last = core._rows(3000, (c + 1) * c * (c - 1) // 6 - 1)
    assert first.tolist() == [[0, 1, v] for v in c.tolist()]
    assert last.tolist() == [[v - 2, v - 1, v] for v in c.tolist()]


def test_rows_agree_with_triple_rank():
    # random ascending rank sets, the empty one included; a sparse set leaves top vertices with no rank
    rng = random.Random(28)
    for n in range(41):
        triples = list(combinations(range(n), 3))
        for size in {0, min(1, len(triples)), len(triples) // 7, len(triples)}:
            want = sorted(rng.sample(triples, size), key=lambda t: triple_rank(*t))
            ranks = np.array([triple_rank(*t) for t in want], dtype=np.int64)
            rows = core._rows(n, ranks)
            assert rows.dtype == np.int16 and rows.shape == (size, 3)
            assert list(map(tuple, rows.tolist())) == want, (n, size)


@pytest.mark.parametrize("n", [30_000, 40_000])
def test_sparse_host_on_many_vertices_decodes_in_little_memory(n):
    # the pair table is sized by the largest top vertex present; one sized by n takes gigabytes
    g = Hypergraph3(n, 1 | 1 << 4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t = g.edge_array()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert t.tolist() == [[0, 1, 2], [0, 1, 4]] and peak < 4_000_000


def test_ranks_enumerate_all_triples():
    n = 7
    ranks = sorted(triple_rank(*t) for t in combinations(range(n), 3))
    assert ranks == list(range(comb(n, 3)))


_RANKED_51 = Hypergraph3(51, (1 << comb(51, 3)) - 1).edge_array()


@given(st.lists(st.integers(0, comb(51, 3) - 1), max_size=200), st.booleans())
def test_bitmap_sets_exactly_the_given_ranks(ranks, small_blocks):
    # repeats and any order, in one block of rows or in blocks of 3: the packed flags give the same
    # int as the sum of distinct bits, and the ranks ascend when each exceeds the one before it
    rows = _RANKED_51[ranks][:, ::-1].copy()  # each row descending: the bitmap sorts it in place
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", 3 if small_blocks else core._BLOCK)
        bits, ascending = core._bitmap(51, rows)
    assert bits == sum(1 << r for r in set(ranks))
    assert ascending == all(a < b for a, b in zip(ranks, ranks[1:]))
    assert rows.tolist() == _RANKED_51[ranks].tolist()


@given(st.lists(st.booleans(), max_size=300), st.integers(0, 20), st.integers(0, 320), st.integers(0, 320))
def test_set_bits_unpacks_what_pack_packs(flags, pad, r0, r1):
    # trailing False flags leave no bit, the empty array packs to 0, and any range of ranks,
    # within the bytes or past them, unpacks to the set flags in it
    flags = np.array(flags + [False] * pad, dtype=bool)
    bits = core._pack(flags)
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    for lo, hi in ((0, len(flags)), (min(r0, r1), max(r0, r1))):
        ranks = core._set_bits(raw, lo, hi)
        assert ranks.dtype == np.int64 and np.array_equal(ranks, np.flatnonzero(flags[lo:hi]) + lo)


@pytest.mark.parametrize("n", range(40, 121, 16))
def test_edge_array_matches_rows_ranked_by_triple_rank(n):
    # dense and sparse random bitmaps, the top rank alone and the empty bitmap, each built a
    # character per rank, against their triples in triple_rank order
    rng = random.Random(n)
    ranked = sorted(combinations(range(n), 3), key=lambda t: triple_rank(*t))
    for keep in ([rng.random() < 0.5 for _ in ranked], [rng.random() < 0.002 for _ in ranked],
                 [r == len(ranked) - 1 for r in range(len(ranked))], [False] * len(ranked)):
        bits = int("".join("1" if k else "0" for k in reversed(keep)), 2)
        want = [t for t, k in zip(ranked, keep) if k]
        assert list(map(tuple, Hypergraph3(n, bits).edge_array().tolist())) == want, n


def test_contains_above_the_highest_edge():
    # the bitmap ends far below rank C(n,3) - 1: every triple above its highest edge reads False
    rng = random.Random(29)
    g = Hypergraph3(30, sum(1 << r for r in range(300) if rng.random() < 0.3))
    edges = set(oracles.triples_of(g))
    assert all(g.contains(*t) == (t in edges) for t in combinations(range(30), 3))
    assert not g.contains(27, 28, 29)
    for t in ((0, 1, 30), (-1, 1, 2), (0, 0, 1)):
        with pytest.raises(ValueError):
            g.contains(*t)


# -- from_triples --------------------------------------------------------------


def test_build_complete_graph():
    g = k4()
    assert g.num_edges == 4
    assert all(g.contains(*t) for t in combinations(range(4), 3))


def test_build_empty():
    g = Hypergraph3.from_triples(4, [])
    assert g.num_edges == 0
    assert g.min_codegree() == 0


def test_build_rejects_malformed():
    with pytest.raises(ValueError):
        Hypergraph3.from_triples(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Hypergraph3.from_triples(3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        Hypergraph3.from_triples(3, [(0, 1)])


def test_build_deduplicates():
    g = Hypergraph3.from_triples(4, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    assert g.num_edges == 1


# -- codegree ----------------------------------------------------------------


def test_codegree_k4():
    g = k4()
    assert g.codegree(0, 1) == 2


def test_codegree_f1_11():
    g, claims = f1(11)
    # minimizing pair joins the two smallest parts
    v1 = claims.partition.parts[0][0]
    v2 = claims.partition.parts[1][0]
    assert g.codegree(v1, v2) == 5
    assert g.min_codegree() == 5
    assert oracles.min_codegree(g) == 5


def test_codegree_empty_graph():
    g = Hypergraph3.from_triples(5, [])
    assert g.codegree(0, 4) == 0


@pytest.mark.parametrize("g", [
    f1(13)[0],
    f1_variant("0", admissible_sample("0", 30, 1), 30)[0],
    steiner(31),
    f1(17)[0],
    Hypergraph3(0),
    Hypergraph3(1),
    Hypergraph3(2),
], ids=["f1_13", "f1e_30", "sts_31", "f1_17", "empty_0", "empty_1", "empty_2"])
def test_pair_masks_match_membership(g):
    # rows pack into 2, 3 and 4 bytes (f1_17's last byte holds one bit; sts_31 is sparse), and
    # hosts with at most one pair: bits past the first byte of a row must land in it
    table = g.pair_masks()
    assert len(table) == g.n and all(len(row) == g.n and row[u] == 0 for u, row in enumerate(table))
    assert all(table[u][v] is table[v][u] for u, v in combinations(range(g.n), 2))
    edges = set(oracles.triples_of(g))
    for u, v in combinations(range(g.n), 2):
        assert g.pair_mask(u, v) == sum(1 << w for w in range(g.n) if tuple(sorted((u, v, w))) in edges)


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 128, 129])
def test_pair_table_words_match_oracle(n):
    # rows of k = 1, 1, 2, 2, 3 words at n = 63, 64, 65, 128, 129, so every word column and the
    # unused high bits of the last one are read back; n <= 2 has no triple, and n < 2 no pair
    rng = random.Random(n)
    g = Hypergraph3(n, int("".join("1" if rng.random() < 0.15 else "0" for _ in range(comb(n, 3))) or "0", 2))
    table = g.pair_masks()
    assert [list(row) for row in table] == oracles.pair_table(g)
    for u in range(n):
        assert table[u][u] == 0
        assert all(type(table[u][v]) is int and table[u][v] is table[v][u] for v in range(n))
    assert g.min_codegree() == oracles.min_codegree(g)
    assert (g.min_codegree() > 0) == (n > 2)  # the seeded hosts leave no pair without a third


def test_codegree_errors():
    g = k4()
    with pytest.raises(ValueError):
        g.codegree(1, 1)
    with pytest.raises(ValueError):
        g.codegree(0, 7)


# -- link graphs -------------------------------------------------------------


def link_pairs(g, x):
    """The pairs u < v with uvx an edge, asked of the owner graph one triple at a time."""
    return {(u, v) for u, v in combinations(range(g.n), 2) if x not in (u, v) and g.contains(u, v, x)}


def test_link_k4_is_triangle():
    g = k4()
    assert link_pairs(g, 3) == {(0, 1), (0, 2), (1, 2)}
    assert [g.pair_mask(3, u) for u in range(3)] == [0b110, 0b101, 0b011]
    assert g.link_graph(3).first_triangle() == (0, 1, 2)


def test_link_f1_apex_is_complete_tripartite():
    g, claims = f1(10)
    apex = claims.partition.apex
    part_of = {}
    for i, p in enumerate(claims.partition.parts):
        for v in p:
            part_of[v] = i
    want = {(u, v) for u, v in combinations(range(g.n - 1), 2) if part_of[u] != part_of[v]}
    assert link_pairs(g, apex) == want


def test_link_f3_apex_is_two_cliques():
    g, claims = f3(9)
    p0, p1 = claims.partition.parts
    want = {(u, v) for u, v in combinations(range(8), 2) if (u in p0 and v in p0) or (u in p1 and v in p1)}
    assert link_pairs(g, claims.partition.apex) == want


def test_link_degree_equals_codegree():
    g, _ = f1(9)
    link = link_pairs(g, 2)
    for u in range(g.n):
        if u != 2:
            assert sum(u in p for p in link) == g.codegree(2, u)


def test_link_rejects_out_of_range_vertex():
    # pair questions about the link of 8 go to the owner graph, which checks every vertex
    g = f1(9)[0]
    for u in (-1, -2, 9):
        with pytest.raises(ValueError):
            g.link_graph(u)
        with pytest.raises(ValueError):
            g.codegree(8, u)
        with pytest.raises(ValueError):
            g.pair_mask(8, u)
        with pytest.raises(ValueError):
            g.contains(0, u, 8)
        with pytest.raises(ValueError):
            g.contains(u, 0, 8)
    with pytest.raises(ValueError):
        g.codegree(8, 8)


def test_is_independent_f1_sets():
    g, claims = f1(9)
    apex = claims.partition.apex
    p = claims.partition.parts

    def independent(s):
        return not any(g.contains(*t) for t in combinations(sorted(s), 3))

    # two parts plus the apex always catch a two-part triple
    assert not independent(set(p[0]) | set(p[1]) | {apex})
    # one vertex per part spans only the tripartite non-edge
    assert independent({p[0][0], p[1][0], p[2][0]})
    # adding the apex to a transversal picks up its cross-pair link triples
    assert not independent({apex, p[0][0], p[1][0], p[2][0]})


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


def _random_hosts(seed):
    """Seeded hosts at vertex counts across the 1->2 and 2->3 digit widths: empty, sparse and half full."""
    rng = random.Random(seed)
    for n in (0, 1, 2, 3, 9, 10, 11, 99, 100, 101):
        width = comb(n, 3)
        sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width) if width else 0
        yield from (Hypergraph3(n, 0), Hypergraph3(n, sparse), Hypergraph3(n, rng.getrandbits(width)))


def test_dumps_text_matches_edge_by_edge_writer():
    for g in _random_hosts(11):
        assert dumps_h3(g, "text") == oracles.dumps_h3(g), g


def _shuffled(text, rng):
    """The edge lines of a text in random order, each with its vertices in random order."""
    head, *lines = text.splitlines()
    rows = [rng.sample(line.split(), 3) for line in lines]
    rng.shuffle(rows)
    return "\n".join([head, *map(" ".join, rows)]) + "\n"


def test_loads_hands_over_rows_as_edge_array():
    rng = random.Random(12)
    for g in _random_hosts(12):
        for text in (dumps_h3(g), _shuffled(dumps_h3(g), rng)):
            t = loads_h3(text).edge_array()
            assert t.dtype == np.int16 and not t.flags.writeable
            assert np.array_equal(t, g.edge_array()), g
    g, _ = f1(11)
    lines = dumps_h3(g).splitlines()[1:]
    text = _shuffled("\n".join([f"{g.n} {g.num_edges + 1}", *lines, lines[40]]), rng)
    with pytest.raises(ValueError, match=f"{lines[40]} is listed twice"):
        loads_h3(text)


def test_loaded_graph_is_never_decoded(monkeypatch):
    # edge lines in rank order, as dumps_h3 writes them, are the edge array; lines in another
    # order give the bitmap, whose edge array is decoded when read
    g, _ = f1(12)
    edges, masks = g.edge_array(), g.pair_masks()
    shuffled = loads_h3(_shuffled(dumps_h3(g), random.Random(13)))

    def no_decode(*args):
        raise AssertionError("a graph read from .h3 text decoded its bitmap")

    monkeypatch.setattr(core, "_set_bits", no_decode)
    for text in (dumps_h3(g), "# f1(12)\n" + dumps_h3(g).replace("\n", " \n")):
        loaded = loads_h3(text)
        assert np.array_equal(loaded.edge_array(), edges) and loaded.pair_masks() == masks
    with pytest.raises(AssertionError, match="decoded its bitmap"):
        shuffled.edge_array()


# numbers int() reads but that are not ASCII digits: signs, '_', a 0x prefix, non-ASCII digits;
# and headers split at a non-ASCII space
_BAD_NUMERALS = ["+4 0", "1_0 0", "\u0664 0", "4 -0", "n: 0_4",
                 "n: 4\n0x1", "n: 4\n0X3", "n: 4\n+f", "n: 4\n-0", "n: 4\n\u0663",
                 "4\xa01\n0 1 2\n", "n:\u20034\n1\n"]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # the warnings filter a CLI run has
def test_loads_rejects_bad_input(tmp_path):
    for text in _BAD_NUMERALS:
        with pytest.raises(ValueError):
            loads_h3(text)
        (tmp_path / "g.h3").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            load_h3(tmp_path / "g.h3")
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


@pytest.mark.parametrize("text", ["n:\n", "n: \n0\n", "n: 4 5\n0\n"])
def test_hex_header_without_one_count_is_named(text):
    # int() would report these in its own words
    with pytest.raises(ValueError) as exc:
        loads_h3(text)
    assert "invalid literal" not in str(exc.value)
    head = text.split("\n")[0]
    assert str(exc.value).startswith(f"bad header line {head!r}")
    assert loads_h3("n:4\n3\n") == loads_h3("n: 4\n3\n") == Hypergraph3(4, 3)


@pytest.mark.parametrize("space", [" ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"])
def test_hex_line_with_inner_whitespace_is_named(space, tmp_path):
    # a bitmap line ends at a line end only; int() would report the rest in its own words
    text = f"n: 8\nf{space}f\n"
    (tmp_path / "g.h3").write_text(text, encoding="ascii")
    for read in (lambda: loads_h3(text), lambda: load_h3(tmp_path / "g.h3")):
        with pytest.raises(ValueError) as exc:
            read()
        assert "invalid literal" not in str(exc.value)
        assert str(exc.value).startswith("a bitmap line holds only hex digits")


def test_loads_rejects_duplicate_edge_lines():
    with pytest.raises(ValueError, match="0 1 2 is listed twice"):
        loads_h3("12 2\n0 1 2\n0 1 2\n")
    with pytest.raises(ValueError, match="0 1 2 is listed twice"):
        loads_h3("5 3\n0 1 2\n1 3 4\n2 0 1\n")  # the same triple in another order
    # from_triples keeps deduplicating
    assert Hypergraph3.from_triples(12, [(0, 1, 2), (0, 1, 2)]).num_edges == 1


def test_loads_blank_and_commented_lines():
    g = loads_h3("\n# leading\n 5 2 # header\n\n 3 4 2 \n\t\n0 1 2#x\n  \n")
    assert list(g.edges()) == [(0, 1, 2), (2, 3, 4)]
    assert loads_h3("6 0\n  \n") == Hypergraph3(6, 0)
    assert list(loads_h3("4 1\n0\x1c1\v2\f\n\x1f\n").edges()) == [(0, 1, 2)]  # ASCII whitespace separates


@pytest.mark.parametrize("space", core._SPACE)
def test_blank_body_of_one_space_reads_as_no_edges(space):
    # a body of whitespace alone never reaches loadtxt, which warns on it
    for text in (f"5 0\n{space}", f"5 0\n{space * 3}"):
        assert loads_h3(text) == core._read_h3(text) == Hypergraph3(5, 0)


@pytest.mark.parametrize("text", [
    "# K4 less 023\n4 3\n0 1 2\n0 1 3\n1 2 3\n",
    "4 3 # n m\n0 1 2\n# the last two\n0 1 3\n1 2 3",
    "n: 4\n# K4 less 023\nb\n",
    "n: 4\n 0\t\n\x1cb\x1f\n",
], ids=["edges", "edges_inner_comment", "hex", "hex_wrapped"])
def test_loads_reads_every_line_end_alike(text):
    # a line ends at \n, \r\n or a bare \r, as in a text-mode read; a comment runs to the line end only
    want = Hypergraph3.from_triples(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])
    assert loads_h3(text) == loads_h3(text.replace("\n", "\r\n")) == loads_h3(text.replace("\n", "\r")) == want


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
def test_complement_involution(g):
    assert g.complement().complement() == g
    for u, v in combinations(range(g.n), 2):
        assert g.complement().codegree(u, v) == (g.n - 2) - g.codegree(u, v)


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


def labelled_hosts(max_n=8):
    """Hosts on up to max_n vertices whose edges are the triples of some sorted label triples,
    so that two vertices of one label are twins, and random hosts, which seldom have twins."""
    def build(labels, keep):
        return Hypergraph3.from_triples(len(labels), oracles.labelled_triples(labels, keep.__contains__))

    triples = st.lists(st.tuples(*[st.integers(0, 2)] * 3).map(lambda t: tuple(sorted(t))))
    labelled = st.builds(build, st.lists(st.integers(0, 2), max_size=max_n), triples.map(set))
    return st.one_of(labelled, bitmaps(max_n))


@settings(max_examples=80, deadline=None)
@given(labelled_hosts())
def test_twin_classes_match_swap_oracle(g):
    classes = [c for c in oracles.twin_classes(g) if len(c) > 1]
    assert g.twin_classes() == {v: sum(1 << u for u in c) for c in classes for v in c}


@pytest.mark.parametrize("g", [f1(65)[0], blow_up(f1(13)[0], 5)[0]], ids=["f1_65", "blowup_f1_13_x5"])
def test_twin_classes_of_large_hosts_match_swap_oracle(g):
    # two words per row; f1(65)'s parts and the blow-up's copies of each base vertex are classes
    classes = [c for c in oracles.twin_classes(g) if len(c) > 1]
    assert classes and g.twin_classes() == {v: sum(1 << u for u in c) for c in classes for v in c}


def test_twin_classes_of_a_steiner_system_are_quick():
    # every vertex has one codegree profile, so each pair of rows is compared; a comparison
    # stops at the first entry that no swap explains, and there are no twins
    g = steiner(399)
    t0 = time.perf_counter()
    assert g.twin_classes() == {}
    assert time.perf_counter() - t0 < 3.0


@pytest.mark.parametrize("build", ["python", "numpy"])
@pytest.mark.parametrize("n", range(core._SMALL_N + 3))
def test_both_builds_match_oracles_across_the_size_bound(n, build, monkeypatch):
    # each graph is built by the path the test picks: the scan of its ranks in Python, or _rows
    # of the set bits and the numpy pair table; empty, sparse, dense and complete bitmaps
    monkeypatch.setattr(core, "_SMALL_N", n if build == "python" else n - 1)
    rng = random.Random(n)
    for density in (0, 0.15, 0.85, 1):
        g = Hypergraph3(n, sum(1 << r for r in range(comb(n, 3)) if rng.random() < density))
        t = g.edge_array()
        assert t.dtype == np.int16 and t.shape == (g.num_edges, 3) and not t.flags.writeable
        assert t.tolist() == [list(e) for e in oracles.triples_of(g)]
        table = g.pair_masks()
        assert [list(row) for row in table] == oracles.pair_table(g)
        assert all(type(table[u][v]) is int and table[u][v] is table[v][u] for u in range(n) for v in range(n))
        assert np.diagonal(g._codegrees).tolist() == [n] * n
        assert g.min_codegree() == oracles.min_codegree(g)
        assert all(g.codegree(u, v) == oracles.codegree(g, u, v) for u, v in combinations(range(n), 2))
        classes = [c for c in oracles.twin_classes(g) if len(c) > 1]
        assert g.twin_classes() == {v: sum(1 << u for u in c) for c in classes for v in c}


def _walked(g, path):
    """What each block walk makes of a fresh copy of g: rows, pair table, codegrees, partition
    counts, text written both ways, and the rows and bitmaps read back from both forms."""
    from h3cover.analysis import _measure_partition

    h = Hypergraph3(g.n, g.bits)
    table, x = h.pair_masks(), g.n - 1
    shared = all(table[u][v] is table[v][u] for u in range(g.n) for v in range(g.n))
    parts = tuple(tuple(range(i, x, 3)) for i in range(3))
    d = _measure_partition(h, x, parts) if g.n else None
    counts = d and (d.within_part_link, d.missing_cross_link, d.tripartite_edges, d.missing_two_part)
    write_h3(h, path)
    text, loaded = dumps_h3(h), load_h3(path)
    return (h.edge_array().tolist(), [list(row) for row in table], shared, np.diagonal(h._codegrees).tolist(),
            h.min_codegree(), counts, text, path.read_text(), loaded.edge_array().tolist(), loaded.bits,
            loads_h3(dumps_h3(h, "hex")).bits)


@pytest.mark.parametrize("block", [1, 5, 200])
def test_block_walk_matches_one_block_and_oracles(block, tmp_path, monkeypatch):
    # a block of 1 or 5 ranks splits every graph at each top vertex (and reads its text a line, or
    # a hex digit, at a time); empty, sparse, dense and complete bitmaps on 0..40 vertices, with the
    # size bound forced down so that graphs on 3..9 vertices walk blocks too
    monkeypatch.setattr(core, "_SMALL_N", 2)
    rng, path = random.Random(block), tmp_path / "g.h3"
    for n in range(41):
        for density in (0, 0.05, 0.85, 1):
            g = Hypergraph3(n, sum(1 << r for r in range(comb(n, 3)) if rng.random() < density))
            monkeypatch.setattr(core, "_BLOCK", 1 << 40)
            one = _walked(g, path)
            monkeypatch.setattr(core, "_BLOCK", block)
            got = _walked(g, path)
            assert got == one, (n, density)
            rows, table, shared, diagonal, dmin, counts, text, written, loaded, bits, hex_bits = got
            assert rows == loaded == [list(t) for t in oracles.triples_of(g)] and bits == hex_bits == g.bits
            assert table == oracles.pair_table(g) and shared and diagonal == [n] * n
            assert dmin == oracles.min_codegree(g) and text == written == oracles.dumps_h3(g)
            if n:
                parts = tuple(tuple(range(i, n - 1, 3)) for i in range(3))
                assert counts == oracles.partition_violations(g, n - 1, parts)


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
def test_hex_lines_cut_into_blocks_keep_their_comments(block, monkeypatch):
    # a block ends inside a run of hex digits only if no comment has begun: the digits of a comment
    # that runs past a block's end are never read as bitmap digits
    monkeypatch.setattr(core, "_BLOCK", block)
    g = f1(12)[0]
    bitmap = dumps_h3(g, "hex").split("\n")[1]
    text = f"n: 12 # 0abc\n {bitmap[:30]}\t# ffff 0123\n{bitmap[30:40]}#{bitmap}\n\v{bitmap[40:]} \n# 12\n"
    assert loads_h3(text) == g and loads_h3(text.replace("\n", "\r\n")) == g


def test_errors_in_the_last_text_block_keep_their_messages(tmp_path, monkeypatch):
    # a bad character, then an edge listed twice, on the last line of f1(40): the messages name the
    # character and the edge as a read in one block did
    monkeypatch.setattr(core, "_BLOCK", 64)
    g = f1(40)[0]
    head, *lines = dumps_h3(g).splitlines()
    for text, message in (("\n".join([head, *lines[:-1], lines[-1] + " x"]) + "\n",
                           "edge lines hold only unsigned decimal vertices, found 'x'"),
                          ("\n".join([f"{g.n} {g.num_edges + 1}", *lines, lines[7]]) + "\n",
                           f"edge {lines[7]} is listed twice")):
        (tmp_path / "g.h3").write_text(text, encoding="ascii")
        for read in (lambda: loads_h3(text), lambda: load_h3(tmp_path / "g.h3")):
            with pytest.raises(ValueError) as exc:
                read()
            assert str(exc.value) == message


@settings(max_examples=150, deadline=None)
@given(bitmaps())
def test_decoded_views_match_oracles(g):
    triples = oracles.triples_of(g)
    assert list(g.edges()) == triples
    assert g.edge_array().tolist() == [list(t) for t in triples]
    edge_set, ranked = set(triples), Hypergraph3(g.n, (1 << comb(g.n, 3)) - 1).edge_array()
    for t in combinations(range(g.n), 3):
        assert g.contains(*t) == (t in edge_set)
        assert g.contains(t[2], t[0], t[1]) == (t in edge_set)
        assert tuple(ranked[triple_rank(*t)].tolist()) == t
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
        link = [tuple(w for w in t if w != x) for t in triples if x in t]
        lk = g.link_graph(x)
        assert lk.x == x and repr(lk) == f"LinkGraph(x={x}, pairs={len(link)})"
        others = [u for u in range(g.n) if u != x]
        for u, v in combinations(others, 2):
            assert g.contains(u, v, x) == g.contains(v, u, x) == ((u, v) in link)
        for u in others:
            assert g.codegree(x, u) == sum(u in p for p in link)
        triangles = (t for t in combinations(range(g.n), 3) if all(p in link for p in combinations(t, 2)))
        assert lk.first_triangle() == next(triangles, None)
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
        got = loads_h3(text)
        assert got == want and got.edge_array().tolist() == [list(t) for t in oracles.triples_of(want)]


# -- reading files -------------------------------------------------------------


def _saved(tmp_path, text, name="g.h3"):
    """A file holding the text byte for byte, line ends as given."""
    path = tmp_path / name
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return path


def _assert_reads_alike(path):
    """load_h3(path) agrees with loads_h3 on the text a universal-newline open returns:
    an equal graph with an identical edge array, or ValueError from both, with one message."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    try:
        want = loads_h3(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_h3(path)
        assert str(got.value) == str(exc)
        return None
    got = load_h3(path)
    assert got == want and got.edge_array().dtype == want.edge_array().dtype
    assert np.array_equal(got.edge_array(), want.edge_array())
    return got


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(h3_texts())
def test_load_from_a_file_matches_loads(tmp_path, text):
    _assert_reads_alike(_saved(tmp_path, text))


_FILE_CASES = [
    "\n# comment\n  \n\t# another\n4 2\n0 1 2\n1 2 3\n",  # comment-only and blank lines before the header
    "4 2 # n m\n0 1 2\n1 2 3\n",  # a header with a trailing comment
    "# c\n\n 4 2 # n m\n\n# x\n0 1 2 # e\n\n1 2 3\n# end",
    "6 0\n  \n\t\n", "6 0\n# none\n", "6 0\n", "6 0",  # blank bodies
    "4 2\n0 1 2\n1 2 3",  # no final newline
    "4 2\r\n0 1 2\r\n1 2 3\r\n",  # CRLF
    "4 2\r0 1 2\r1 2 3\r",  # bare CR
    "\r\n# c\r\r4 2 # h\r\n\r2 1 0\r\n3 1 2",  # mixed line ends around comments
    "\f\v\n\x1c\n4 1\x1f\n0\x1c1\v2\f\n\x1f\n",  # other ASCII whitespace, before the header too
    "# \x00\n4 1 # \x00\n0 1 2 # \x00\n",  # NUL inside comments
    "4 2\n0 1 2\n1 2\n", "4 2\n0 1 2\n0 1 2\n", "4 1\n0 1 x\n", "4 1\n0 1 4\n", "4 3\n0 1 2\n",
    "4 1\n0 1 2 # \x00\n\x00\n", "4 1\n0 1 99999\n", "# 1 2\n\n",
    "n: 4\n3\n", "n: 4\n", "", "  \n",
    "n:\n", "n: \n0\n", "n: 4 5\n0\n", "n:4\n3\n",  # a hex header holds one count
    *(text for text in _BAD_NUMERALS if text.isascii()),
]


@pytest.mark.parametrize("text", _FILE_CASES)
def test_load_from_a_file_matches_loads_on_edge_cases(tmp_path, text):
    path = _saved(tmp_path, text)
    assert _assert_reads_alike(path) == _assert_reads_alike(str(path))


def test_load_hands_numpy_the_file_name(tmp_path, monkeypatch):
    # the chunked reader runs only on a name; a shuffled file also checks the rows numpy returns
    g = f1(11)[0]
    path = _saved(tmp_path, "# f1(11)\n" + _shuffled(dumps_h3(g), random.Random(14)))
    sources, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda source, **kw: sources.append(source) or loadtxt(source, **kw))
    monkeypatch.chdir(tmp_path)
    for name in (path, str(path), "g.h3", "./g.h3"):
        loaded = load_h3(name)
        assert loaded == g and np.array_equal(loaded.edge_array(), g.edge_array())
        assert isinstance(sources[-1], str) and os.path.isabs(sources[-1]) and os.path.samefile(sources[-1], path)
    assert loads_h3(path.read_text()) == g and not isinstance(sources[-1], str)  # the text's lines


def test_load_names_the_file_the_os_opens(tmp_path, monkeypatch):
    # the name numpy gets keeps "..", which a symlinked directory redirects, and
    # a relative name that parses as a URL is made absolute instead of fetched
    g = f1(10)[0]
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "a" / "b")
    write_h3(g, tmp_path / "a" / "g.h3")
    (tmp_path / "http:" / "host").mkdir(parents=True)
    write_h3(g, tmp_path / "http:" / "host" / "g.h3")

    def no_fetch(*args, **kwargs):
        raise AssertionError("load_h3 asked numpy to fetch a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    monkeypatch.chdir(tmp_path)
    assert load_h3("link/../g.h3") == g
    assert load_h3("http://host/g.h3") == g


@pytest.mark.parametrize("name", ["g.h3.gz", "g.bz2", "g.xz", "g.lzma"])
def test_load_plain_text_under_a_compressed_suffix(tmp_path, name):
    # numpy would decompress these names; the text read from the file is parsed instead
    g = f1(11)[0]
    plain = load_h3(_saved(tmp_path, dumps_h3(g)))
    loaded = load_h3(_saved(tmp_path, dumps_h3(g), name))
    assert loaded == plain == g and np.array_equal(loaded.edge_array(), plain.edge_array())


def test_load_reads_a_pipe_and_an_fd(tmp_path):
    # numpy cannot read either again by name, so both parse the text read from them
    g = f1(9)[0]
    r, w = os.pipe()
    os.write(w, dumps_h3(g).encode())
    os.close(w)
    try:
        assert load_h3(f"/dev/fd/{r}") == g
    finally:
        os.close(r)
    assert load_h3(os.open(_saved(tmp_path, dumps_h3(g)), os.O_RDONLY)) == g


def test_load_peak_memory_is_bounded_by_the_file_size(tmp_path):
    # the text is checked in blocks and dropped before numpy parses the file: the peak, 2.0 times
    # the file on f1e(99), is read() holding the file's bytes and their decoded text at once; it
    # was 4.0 times with the comment-free text, the body and its encoded bytes all alive
    path = tmp_path / "f1e.h3"
    write_h3(f1_variant("0", admissible_sample("0", 99, 1), 99)[0], path)
    load_h3(path)  # first-use imports and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = load_h3(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.num_edges == 121_016 and peak < 2.5 * path.stat().st_size
