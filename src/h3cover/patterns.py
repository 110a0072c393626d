"""Catalog of small target 3-graphs and exact embedding search.

A :class:`Pattern` bundles a small graph F with its degeneracy data: the
largest minimum vertex degree over all subgraphs of F (``r``) and an
elimination ordering witnessing it.  ``r`` governs how many pair constraints
the one-pass greedy embedder ever has to satisfy at once.

Embeddings are subgraph embeddings: an injective vertex map under which every
pattern edge lands on a host edge.  ``embed_covering`` is exhaustive
(backtracking with pair-neighbourhood pruning); ``greedy_embed`` follows the
degeneracy ordering in a single forward pass with no backtracking, so a
failed greedy run is not evidence that no embedding exists.  Every search
fetches the host's pair table (``Hypergraph3.pair_masks``) once per call; a
position's candidates are the unused host vertices in the table entry of
each already-mapped pattern pair that forms an edge with it.  The order of
the positions, their constraint pairs and their twin bounds form a plan,
built once per pattern graph and anchor tuple by one cached builder.

The exhaustive searches skip the work that the pattern's own symmetry makes
redundant and return what a search without it would.  ``embed_covering`` puts
x, and ``edge_extendable`` the edge's least vertex, only at the least vertex
of each orbit of Aut(F), because an anchor fails iff its whole orbit does.
Twins (u, v with the swap (u v) an automorphism) placed after the anchors
must take increasing images; the search returns the least image sequence in
plan order, whose twin images already increase.  ``uncovered_vertices``
credits every vertex of a found copy as covered.  ``greedy_embed`` anchors
every position, so no twin bound applies to it and its lowest-index pick is
unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Sequence

from .core import Hypergraph3, _iter_bits

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
    "edge_extendable",
]

# Fixed catalog names accepted on the CLI; STS:t is parameterized on top.
CATALOG = ("K4", "K4-", "K5", "K5-", "C5", "C6", "C7", "Fano", "F32")

_FANO_LINES = tuple(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
_F32_EDGES = ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4))


@dataclass(frozen=True, eq=False)
class Pattern:
    """A named small 3-graph with degeneracy r and elimination ordering."""

    name: str
    graph: Hypergraph3
    f: int
    r: int
    ordering: tuple[int, ...]
    _twin_class: tuple[int, ...]
    _orbit_reps: tuple[int, ...]

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
    alive = set(range(g.n))
    edges = list(g.edges())
    order_rev: list[int] = []
    r = 0
    while alive:
        deg = {v: sum(v in e for e in edges if alive.issuperset(e)) for v in alive}
        min_deg = min(deg.values())
        r = max(r, min_deg)
        pick = min(v for v, d in deg.items() if d == min_deg)
        order_rev.append(pick)
        alive.remove(pick)
    return r, tuple(reversed(order_rev))


def _catalog_graph(name: str, t: Optional[int]) -> tuple[str, Hypergraph3]:
    m = re.fullmatch(r"K(\d*)(-?)", name)
    if m and (m.group(1) or t is not None):
        size = int(m.group(1)) if m.group(1) else t
        minus = m.group(2) == "-"
        if size is None or size < 4:
            raise ValueError("complete patterns need t >= 4")
        edges = set(combinations(range(size), 3))
        if minus:
            edges.discard((size - 3, size - 2, size - 1))
        return (f"K{size}-" if minus else f"K{size}"), Hypergraph3.from_triples(size, edges)
    m = re.fullmatch(r"C(\d*)", name)
    if m and (m.group(1) or t is not None):
        size = int(m.group(1)) if m.group(1) else t
        if size is None or size < 5:
            raise ValueError("tight cycles need t >= 5")
        edges = [tuple(sorted((i % size, (i + 1) % size, (i + 2) % size))) for i in range(size)]
        return f"C{size}", Hypergraph3.from_triples(size, edges)
    if name == "Fano":
        return "Fano", Hypergraph3.from_triples(7, _FANO_LINES)
    if name == "F32":
        return "F32", Hypergraph3.from_triples(5, _F32_EDGES)
    m = re.fullmatch(r"STS:?(\d*)", name)
    if m and (m.group(1) or t is not None):
        size = int(m.group(1)) if m.group(1) else t
        from .constructions import steiner

        return f"STS:{size}", steiner(size)
    raise ValueError(f"unknown pattern {name!r}")


_PATTERN_CACHE: dict[str, Pattern] = {}


def pattern(name: str, t: Optional[int] = None) -> Pattern:
    """Catalog lookup: K<t>, K<t>-, C<t> (tight), Fano, F32, STS:<t>.

    Accepts either a fully spelled name (``pattern("K4-")``) or a family name
    plus size (``pattern("K-", 4)``).
    """
    canonical, graph = _catalog_graph(name, t)
    cached = _PATTERN_CACHE.get(canonical)
    if cached is None:
        cached = pattern_from_graph(canonical, graph)
        _PATTERN_CACHE[canonical] = cached
    return cached


def pattern_from_graph(name: str, graph: Hypergraph3) -> Pattern:
    """Wrap an arbitrary small graph (e.g. one loaded from a .h3 file)."""
    r, ordering = degeneracy(graph)
    twin = _twin_classes(graph)
    return Pattern(name, graph, graph.n, r, ordering, twin, _orbit_representatives(graph, twin))


def _twin_classes(graph: Hypergraph3) -> tuple[int, ...]:
    """The least twin of each vertex (itself if it has none below it).

    Swapping u and v is an automorphism iff, for every other vertex w, the
    table entries [u][w] and [v][w] agree outside u and v.  Conjugating one
    such transposition by another gives a third, so twins form classes.
    """
    rows, n = graph.pair_masks(), graph.n
    label = list(range(n))
    for u, v in combinations(range(n), 2):
        keep = ~((1 << u) | (1 << v))
        if label[v] == v and all(
            rows[u][w] & keep == rows[v][w] & keep for w in range(n) if w != u and w != v
        ):
            label[v] = label[u]
    return tuple(label)


def _orbit_representatives(graph: Hypergraph3, twin: tuple[int, ...]) -> tuple[int, ...]:
    """The least vertex of each orbit of Aut(F), ascending.

    a starts a new orbit iff no self-embedding maps an earlier representative
    onto a; an injective edge-preserving self-map of a finite graph is an
    automorphism.  Only the representatives' plans are built, and
    ``embed_covering`` needs exactly those.
    """
    f = graph.n
    rows, full = graph.pair_masks(), (1 << f) - 1
    reps: list[int] = []
    for a in range(f):
        if not any(
            _backtrack(rows, _plan(graph, twin, (r,)), [a] + [-1] * (f - 1), full & ~(1 << a), 1)
            for r in reps
        ):
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


def _backtrack(rows, plan, images: list[int], free: int, pos: int) -> bool:
    if pos == len(plan):
        return True
    for v in _iter_bits(_candidates(rows, plan[pos], images, free)):
        images[pos] = v
        if _backtrack(rows, plan, images, free & ~(1 << v), pos + 1):
            return True
    return False


def embed_covering(host: Hypergraph3, x: int, pat: Pattern) -> Optional[dict[int, int]]:
    """Some embedding of the pattern whose image contains x, or None.

    Exhaustive: tries x at the least vertex of each automorphism orbit of
    the pattern and backtracks over the rest, pruning candidates through
    joint pair neighbourhoods and the twin order.
    """
    if not 0 <= x < host.n:
        raise ValueError(f"vertex {x} out of range")
    if host.n < pat.f:
        return None
    rows, free = host.pair_masks(), ((1 << host.n) - 1) & ~(1 << x)
    for anchor in pat._orbit_reps:
        plan = _plan(pat.graph, pat._twin_class, (anchor,))
        images = [x] + [-1] * (pat.f - 1)
        if _backtrack(rows, plan, images, free, 1):
            return {plan[i][0]: images[i] for i in range(pat.f)}
    return None


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
    plan = _plan(pat.graph, pat._twin_class, pat.ordering)
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

    Every vertex of a copy found through one vertex is covered too, so the
    search runs only through vertices that no earlier copy covered.
    """
    covered, uncovered = 0, []
    for x in range(host.n):
        if covered >> x & 1:
            continue
        emb = embed_covering(host, x, pat)
        if emb is None:
            uncovered.append(x)
        else:
            for v in emb.values():
                covered |= 1 << v
    return tuple(uncovered)


def edge_extendable(host: Hypergraph3, e: Sequence[int], pat: Pattern) -> bool:
    """True iff some pattern embedding's image contains all three vertices of e."""
    a, b, c = sorted(e)
    if not host.contains(a, b, c):
        raise ValueError(f"{(a, b, c)} is not an edge of the host")
    if host.n < pat.f:
        return False
    rows, free = host.pair_masks(), ((1 << host.n) - 1) & ~((1 << a) | (1 << b) | (1 << c))
    # abc is a host edge, so a pattern edge among the three anchors always lands on one
    for anchors in (t for t in permutations(range(pat.f), 3) if t[0] in pat._orbit_reps):
        images = [a, b, c] + [-1] * (pat.f - 3)
        if _backtrack(rows, _plan(pat.graph, pat._twin_class, anchors), images, free, 3):
            return True
    return False


# unbounded, like the pattern catalog: one small entry per pattern graph and anchor tuple searched
@lru_cache(maxsize=None)
def _plan(graph: Hypergraph3, twin_class: tuple[int, ...], anchors: tuple[int, ...]):
    """Static vertex order of the pattern graph from the anchors, most-constrained first.

    Returns per-position (pattern_vertex, constraints, twin) where constraints
    are the pattern edges of that vertex whose other two endpoints appear
    earlier, as pairs of earlier positions, and twin is the latest earlier
    non-anchor position holding a twin of the vertex (-1 if none, and for
    every anchor), whose image the vertex's image must exceed.
    """
    edges = tuple(graph.edges())
    placed = list(anchors)
    remaining = set(range(graph.n)) - set(anchors)
    while remaining:
        def score(v: int) -> tuple[int, int, int]:
            full = sum(1 for e in edges if v in e and all(u in placed or u == v for u in e))
            touch = sum(1 for e in edges if v in e and any(u in placed for u in e))
            return (full, touch, -v)

        nxt = max(remaining, key=score)
        placed.append(nxt)
        remaining.remove(nxt)
    table = graph.pair_masks()
    latest: dict[int, int] = {}
    steps = []
    for i, v in enumerate(placed):
        cons = tuple((j, k) for j, k in combinations(range(i), 2) if table[placed[j]][placed[k]] >> v & 1)
        twin = -1
        if i >= len(anchors):
            twin = latest.get(twin_class[v], -1)
            latest[twin_class[v]] = i
        steps.append((v, cons, twin))
    return tuple(steps)
