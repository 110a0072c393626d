"""Catalog of small target 3-graphs and exact embedding search.

A :class:`Pattern` bundles a small graph F with its degeneracy data: the
largest minimum vertex degree over all subgraphs of F (``r``) and an
elimination ordering witnessing it.  ``r`` governs how many pair constraints
the one-pass greedy embedder ever has to satisfy at once.

Embeddings are subgraph embeddings: an injective vertex map under which every
pattern edge lands on a host edge.  ``greedy_embed`` follows the degeneracy
ordering in a single forward pass with no backtracking, so a failed greedy run
is not evidence that no embedding exists.  Every search fetches the host's
pair table (``Hypergraph3.pair_masks``) once per call; a position's candidates
are the unused host vertices in the table entry of each already-mapped pattern
pair that forms an edge with it.  The order of the positions, their constraint
pairs and their twin bounds form a plan, built once per pattern graph and
anchor tuple by one cached builder.

The exhaustive searches share one driver, ``_search``: it puts one host
vertex on each of a sequence of anchor vertices of the pattern in turn,
backtracks over the other positions, and returns the first embedding found,
or None.  ``embed_covering`` anchors x only at the least vertex of each orbit
of Aut(F), because an anchor fails iff its whole orbit does;
``_orbit_representatives`` finds the orbits with the same driver, searching
the pattern in itself.  The driver skips the work that two symmetries make
redundant and returns what a search without them would, the least image
sequence in plan order:

* pattern twins (u, v with the swap (u v) an automorphism) placed after the
  anchor take increasing images, as they do in the least sequence;
* with the anchor placed, swapping two free twins of the host moves no
  placed image, so each position tries only the least free vertex of each
  of the host's twin classes (``Hypergraph3.twin_classes``), which the least
  sequence takes anyway.

``uncovered_vertices`` credits every vertex of a found copy, and its twin
class, as covered, and the class of a missed vertex as uncovered, so each
class costs at most one search.  ``greedy_embed`` anchors every position, so
no twin bound applies to it and its lowest-index pick is unchanged.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Optional

from .core import Hypergraph3, _iter_bits, triple_rank

__all__ = [
    "Pattern",
    "CATALOG",
    "pattern",
    "pattern_from_graph",
    "degeneracy",
    "greedy_cover_bound",
    "embed_covering",
    "greedy_embed",
    "uncovered_vertices",
]

# Fixed catalog names accepted on the CLI; STS:t is parameterized on top.
CATALOG = ("K4", "K4-", "K5", "K5-", "C5", "C6", "C7", "Fano", "F32")

_FANO_LINES = tuple(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
_F32_EDGES = ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4))


class Pattern(NamedTuple):
    """A named small 3-graph with degeneracy r and elimination ordering."""

    name: str
    graph: Hypergraph3
    f: int
    r: int
    ordering: tuple[int, ...]
    orbit_reps: tuple[int, ...]

    def __repr__(self) -> str:
        return f"Pattern({self.name}, f={self.f}, r={self.r})"


def degeneracy(g: Hypergraph3) -> tuple[int, tuple[int, ...]]:
    """Degeneracy r and elimination ordering x_1..x_f of a nonempty 3-graph.

    The ordering is built back to front: x_f has minimum degree in the whole
    graph, x_{f-1} has minimum degree once x_f is deleted, and so on.  Ties
    go to the lowest vertex index.  r is the largest minimum degree seen
    along the way, which equals max over all subgraphs F' of the minimum
    vertex degree of F'.
    """
    if g.num_edges == 0:
        raise ValueError("degeneracy needs at least one edge")
    # deg[v] counts the live edges through v: each pair vu's popcount counts an edge vuw twice, and
    # deleting x takes from each live v the live vertices of its pair table entry with x
    rows, alive = g.pair_masks(), (1 << g.n) - 1
    deg = [sum(m.bit_count() for m in row) // 2 for row in rows]
    order_rev: list[int] = []
    r = 0
    while alive:
        pick = min(_iter_bits(alive), key=deg.__getitem__)  # the first least, the lowest index
        r = max(r, deg[pick])
        order_rev.append(pick)
        alive &= ~(1 << pick)
        for v in _iter_bits(alive):
            deg[v] -= (rows[v][pick] & alive).bit_count()
    return r, tuple(reversed(order_rev))


def _catalog_graph(name: str) -> Hypergraph3:
    # a size is ASCII digits without a leading zero, so each graph has one name;
    # a handful of scalar ranks costs less than the numpy passes of from_triples
    if m := re.fullmatch(r"K([1-9][0-9]*)(-?)", name):
        size, minus = int(m.group(1)), m.group(2) == "-"
        if size < 4:
            raise ValueError("complete patterns need t >= 4")
        # K_t has every rank below C(t, 3); K_t- drops the last, that of (t - 3, t - 2, t - 1)
        return Hypergraph3(size, (1 << comb(size, 3) - minus) - 1)
    if m := re.fullmatch(r"C([1-9][0-9]*)", name):
        size = int(m.group(1))
        if size < 5:
            raise ValueError("tight cycles need t >= 5")
        edges = ((i, (i + 1) % size, (i + 2) % size) for i in range(size))
        return Hypergraph3(size, sum(1 << triple_rank(*e) for e in edges))
    if name == "Fano":
        return Hypergraph3(7, sum(1 << triple_rank(*e) for e in _FANO_LINES))
    if name == "F32":
        return Hypergraph3(5, sum(1 << triple_rank(*e) for e in _F32_EDGES))
    if m := re.fullmatch(r"STS:([1-9][0-9]*)", name):
        from .constructions import steiner

        return steiner(int(m.group(1)))
    raise ValueError(f"unknown pattern {name!r}")


def pattern(name: str) -> Pattern:
    """Catalog lookup by the name ``Pattern.name`` reports: K<t>, K<t>-, C<t>, Fano, F32, STS:<t>."""
    return _catalog_pattern(name, _catalog_graph(name))


def pattern_from_graph(name: str, graph: Hypergraph3) -> Pattern:
    """Wrap an arbitrary small graph (e.g. one loaded from a .h3 file)."""
    r, ordering = degeneracy(graph)
    return Pattern(name, graph, graph.n, r, ordering, _orbit_representatives(graph))


# one Pattern per canonical catalog name, whose graph the name fixes
_catalog_pattern = cache(pattern_from_graph)


def _orbit_representatives(graph: Hypergraph3) -> tuple[int, ...]:
    """The least vertex of each orbit of Aut(F), ascending.

    a starts a new orbit iff no self-embedding maps an earlier representative
    onto a; an injective edge-preserving self-map of a finite graph is an
    automorphism.  Only the representatives' plans are built, and
    ``embed_covering`` needs exactly those.
    """
    reps: list[int] = []
    for a in range(graph.n):
        if _search(graph, graph, a, reps) is None:
            reps.append(a)
    return tuple(reps)


def greedy_cover_bound(pat: Pattern, n: int) -> int:
    """floor((1 - 1/r) n + (f - 2r - 1)/r), evaluated in exact integers.

    Any n-vertex host whose minimum codegree exceeds this value has every
    vertex (indeed every edge) covered by a copy of the pattern.
    """
    if n < pat.f:
        raise ValueError(f"host must have at least f={pat.f} vertices")
    r = pat.r
    return ((r - 1) * n + pat.f - 2 * r - 1) // r


# -- backtracking embedding -------------------------------------------------


def _candidates(rows, step, images: list[int], free: int) -> int:
    """The vertices of free that complete an edge with the images of every
    constraint pair of one plan position, read from the host's pair table,
    and that exceed the image of the position's earlier twin, if any."""
    _, cons, twin = step
    if twin >= 0:
        free &= -(2 << images[twin])
    for i, j in cons:
        free &= rows[images[i]][images[j]]
        if not free:
            break
    return free


def _search(
    host: Hypergraph3, graph: Hypergraph3, x: int, anchors: Iterable[int]
) -> Optional[dict[int, int]]:
    """Put host vertex x on each anchor vertex of the pattern graph in turn and return
    the least embedding, in plan order, of the first that extends, or None.
    The one setup and entry point of every exhaustive search."""
    if host.n < graph.n:
        return None
    rows, twins = host.pair_masks(), host.twin_classes()
    free = ((1 << host.n) - 1) & ~(1 << x)
    c = twins.get(x, 0) & free  # later: each twin class but its least vertex, x's but x and its least free one
    later = sum(k & (k - 1) for k in set(twins.values()) if not k >> x & 1) | c & (c - 1)
    for a in anchors:
        plan = _plan(graph, (a,))
        images = [x] + [-1] * (graph.n - 1)
        if _backtrack(rows, plan, images, free, 1, twins, later):
            return {plan[i][0]: images[i] for i in range(graph.n)}
    return None


def _backtrack(rows, plan, images: list[int], free: int, pos: int, twins, later: int) -> bool:
    # the anchor is placed, so swapping two free host twins moves no placed image: of each
    # class only the least free twin is tried; v is one, and the next free twin takes its place
    if pos == len(plan):
        return True
    for v in _iter_bits(_candidates(rows, plan[pos], images, free) & ~later):
        images[pos] = v
        rest = free & ~(1 << v)
        c = twins.get(v, 0) & rest
        if _backtrack(rows, plan, images, rest, pos + 1, twins, later & ~(c & -c)):
            return True
    return False


def embed_covering(host: Hypergraph3, x: int, pat: Pattern) -> Optional[dict[int, int]]:
    """Some embedding of the pattern whose image contains x, or None.

    Exhaustive: tries x at the least vertex of each automorphism orbit of
    the pattern and backtracks over the rest, pruning candidates through
    joint pair neighbourhoods, the pattern's twin order and the host's
    twin classes.
    """
    if not 0 <= x < host.n:
        raise ValueError(f"vertex {x} out of range")
    return _search(host, pat.graph, x, pat.orbit_reps)


def greedy_embed(host: Hypergraph3, x: int, pat: Pattern) -> Optional[dict[int, int]]:
    """One forward pass along the degeneracy ordering, no backtracking.

    x_1 goes to x; each later vertex takes the lowest-index host vertex lying
    in every joint neighbourhood its (at most r) already-mapped pattern pairs
    demand.  Success implies a genuine embedding; failure implies nothing.
    """
    if not 0 <= x < host.n:
        raise ValueError(f"vertex {x} out of range")
    if host.n < pat.f:
        return None
    plan = _plan(pat.graph, pat.ordering)
    rows, free = host.pair_masks(), ((1 << host.n) - 1) & ~(1 << x)
    images: list[int] = [x]
    for step in plan[1:]:
        cand = _candidates(rows, step, images, free)
        if not cand:
            return None
        pick = (cand & -cand).bit_length() - 1
        images.append(pick)
        free &= ~(1 << pick)
    return {step[0]: images[i] for i, step in enumerate(plan)}


def uncovered_vertices(host: Hypergraph3, pat: Pattern) -> tuple[int, ...]:
    """Vertices through which no pattern copy passes, ascending.

    Every vertex of a copy found through one vertex is covered too.  A twin
    of a covered vertex is covered and a twin of an uncovered one uncovered,
    so each of the host's twin classes needs at most one search.
    """
    twins, covered, missed = host.twin_classes(), 0, 0
    for x in range(host.n):
        if (covered | missed) >> x & 1:
            continue
        emb = embed_covering(host, x, pat)
        if emb is None:
            missed |= twins.get(x, 1 << x)
        else:
            for v in emb.values():
                covered |= twins.get(v, 1 << v)
    return tuple(_iter_bits(missed))


# unbounded, like the pattern catalog: one small entry per pattern graph and anchor tuple searched
@cache
def _plan(graph: Hypergraph3, anchors: tuple[int, ...]):
    """Static vertex order of the pattern graph from the anchors, most-constrained first.

    After the anchors, the next vertex v maximises (sum |table[v][u] & placed|,
    sum |table[v][u]|, -v) over placed u.  An edge closed on the placed vertices
    counts twice in each sum and one touching them once in the second: the most
    closed edges win, then the most touching edges, then the lowest index.

    Returns per-position (pattern_vertex, constraints, twin) where constraints
    are the pattern edges of that vertex whose other two endpoints appear
    earlier, as pairs of earlier positions, and twin is the latest earlier
    non-anchor position holding a twin of the vertex (-1 if none, and for
    every anchor), whose image the vertex's image must exceed.
    """
    table, twins = graph.pair_masks(), graph.twin_classes()
    placed, done, latest, steps = [], 0, {}, []  # done: the bitmap of placed
    for i in range(graph.n):
        if i < len(anchors):
            v, twin = anchors[i], -1
        else:
            v = max(_iter_bits(((1 << graph.n) - 1) & ~done), key=lambda w: (
                sum((table[w][u] & done).bit_count() for u in placed),
                sum(table[w][u].bit_count() for u in placed), -w))
            cls = twins.get(v, 1 << v)
            twin, latest[cls] = latest.get(cls, -1), i
        cons = tuple((j, k) for j, k in combinations(range(i), 2) if table[placed[j]][placed[k]] >> v & 1)
        steps.append((v, cons, twin))
        placed.append(v)
        done |= 1 << v
    return tuple(steps)
