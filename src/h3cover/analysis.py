"""Bound tables, exact tiny-n threshold search, link-configuration
classification, and partition recovery.

``c2_exact`` computes, by exhaustion, the largest minimum codegree among
n-vertex hosts in which some vertex lies in no copy of the pattern.  One
engine serves every n <= 9: a depth-first search over edge bitmap prefixes
with one slack counter per pair, run for descending targets and bounded by
an optional time budget.  Relabelling keeps codegrees and coverage, so the
uncovered vertex is taken to be n - 1, and the others are put in the order
of their degrees in its link, which is decided first: a prefix is cut once
a final link degree is below the next one, or once a copy of the pattern
through n - 1 is complete, since coverage only grows with edges.  The
witness is the least edge bitmap among optimal hosts that leave n - 1
uncovered and whose link of n - 1 has degrees that do not increase with
the vertex, re-checked with the covering search of ``patterns``.

The link configuration of an outside vertex y against an anchored 4-set
{a, b, c, x} is which of the six pairs of the 4-set form an edge with y.
``classify_sy`` reads those six edge bits; ``recover_partition``, which
needs them for every y at once, builds each of its three buckets as one AND
of the six pair-table entries or their complements.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .core import Hypergraph3, _iter_bits, _row_blocks
from .constructions import ConstructionClaims, Tripartition
from .patterns import Pattern, greedy_cover_bound, uncovered_vertices

__all__ = [
    "BoundBracket",
    "SyClass",
    "SearchReport",
    "RecoveredPartition",
    "PartitionDiagnostics",
    "CheckResult",
    "VerificationReport",
    "PAIR_SLOTS",
    "SY_SETS",
    "c2_bounds",
    "c2_exact",
    "classify_sy",
    "recover_partition",
    "verify_construction",
    "DEFAULT_SLACK",
    "EXACT_MODE_CAP",
]


# -- closed-form bound tables ------------------------------------------------


class _BoundBracket(NamedTuple):
    lower: int
    upper: int
    exact: Optional[int] = None
    provenance: Optional[str] = None  # "theorem" or "exhaustive"


class BoundBracket(_BoundBracket):
    """Lower/upper bounds on the covering codegree threshold at one n."""

    __slots__ = ()

    def __new__(cls, lower: int, upper: int, exact: Optional[int] = None, provenance: Optional[str] = None):
        if lower > upper:
            raise ValueError(f"bracket inverted: [{lower}, {upper}]")
        if exact is not None and not lower <= exact <= upper:
            raise ValueError(f"exact value {exact} outside [{lower}, {upper}]")
        return super().__new__(cls, lower, upper, exact, provenance)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__


def c2_bounds(pat: Pattern, n: int) -> BoundBracket:
    """Best known bracket for the covering codegree threshold of the pattern.

    The exact field is populated only where a closed form pins the value:
    for K4 at n > 98, n === 0 (mod 3) with n >= 6, or n === 1 (mod 3) (the
    bracket collapses); for K4- when n mod 6 is 1, 2 or 5.
    """
    if n < pat.f:
        raise ValueError(f"need n >= {pat.f}")
    name = pat.name
    if name == "K4":
        lower, upper = (2 * n - 5) // 3, (2 * n - 3) // 3
        exact = lower if (n > 98 or n % 3 == 1 or (n % 3 == 0 and n >= 6)) else None
        if exact is not None:
            return BoundBracket(exact, exact, exact, "theorem")
        return BoundBracket(lower, upper)
    if name == "K4-":
        if n >= 7:
            m, r = divmod(n, 6)
            lower = 2 * m - 1 if r == 0 else (2 * m + 1 if r == 5 else 2 * m)
            exact = lower if r in (1, 2, 5) else None
            if exact is not None:
                return BoundBracket(exact, exact, exact, "theorem")
            return BoundBracket(lower, n // 3)
        return BoundBracket(0, n // 3)
    if name == "C5":
        return BoundBracket((n - 3) // 2, n // 2)
    if name == "K5-":
        return BoundBracket((2 * n - 5) // 3, (2 * n - 2) // 3)
    if name == "Fano":
        return BoundBracket(n // 2, (2 * n) // 3)
    if name == "F32":
        return BoundBracket(n // 3 - 1, greedy_cover_bound(pat, n))
    if name.startswith("K") and not name.endswith("-"):
        t = pat.f
        cands = [(2 * n - 5) // 3]
        if (n - 1) % (t - 1) == 0:
            cands.append((t - 2) * ((n - 1) // (t - 1)) - 1)
        s = 2 * t - 5
        if s % 6 in (1, 3) and (n - 1) % s == 0:
            cands.append((2 * t - 6) * ((n - 1) // s) - 1)
        return BoundBracket(max(cands), greedy_cover_bound(pat, n))
    if name.startswith("K") and name.endswith("-"):
        return BoundBracket((2 * n - 5) // 3, greedy_cover_bound(pat, n))
    return BoundBracket(0, greedy_cover_bound(pat, n))


# -- link configurations around a covered triangle ---------------------------

PAIR_SLOTS = ("ab", "ac", "bc", "ax", "bx", "cx")

SY_SETS = {
    "S1a": frozenset({"bx", "cx", "ab", "ac"}),
    "S1b": frozenset({"ax", "cx", "ab", "bc"}),
    "S1c": frozenset({"ax", "bx", "ac", "bc"}),
    "S2a": frozenset({"ab", "ac", "bc", "ax"}),
    "S2b": frozenset({"ab", "ac", "bc", "bx"}),
    "S2c": frozenset({"ab", "ac", "bc", "cx"}),
    "S3": frozenset({"ax", "bx", "cx"}),
}


class SyClass(NamedTuple):
    """Classification of one outside vertex against an anchored 4-set."""

    label: str
    pairs: frozenset


def classify_sy(g: Hypergraph3, quad: tuple[int, int, int, int], y: int) -> SyClass:
    """Classify which pairs of the anchored 4-set S={a,b,c,x} make edges with y.

    Preconditions: abx, bcx, acx are edges, abc is not, and y is a fifth
    vertex.  The label is VIOLATION exactly when the observed pair set is not
    contained in any of the seven admissible sets (equivalently, when it
    contains a K4-forcing triangle through x); a full match of one of the
    seven sets earns that set's name, anything smaller is SUBSET_ONLY.
    """
    a, b, c, x = quad
    if len({a, b, c, x, y}) != 5:
        raise ValueError("a, b, c, x, y must be five distinct vertices")
    # contains rejects a vertex out of range
    if not (g.contains(a, b, x) and g.contains(b, c, x) and g.contains(a, c, x)):
        raise ValueError("the three pairs of {a,b,c} must all make edges with x")
    if g.contains(a, b, c):
        raise ValueError("abc must not be an edge")
    at = {"a": a, "b": b, "c": c, "x": x}
    sy = frozenset(s for s in PAIR_SLOTS if g.contains(at[s[0]], at[s[1]], y))
    if not any(sy <= s for s in SY_SETS.values()):
        return SyClass("VIOLATION", sy)
    for label, s in SY_SETS.items():
        if sy == s:
            return SyClass(label, sy)
    return SyClass("SUBSET_ONLY", sy)


# -- exact exhaustive search --------------------------------------------------

# Largest vertex count for which the exact threshold search (c2_exact) runs
EXACT_MODE_CAP = 9


class SearchReport(NamedTuple):
    """Result of an exhaustive (or budget-truncated) threshold search."""

    pattern: str
    n: int
    value: Optional[int]
    witness: Optional[Hypergraph3]
    uncovered_vertex: Optional[int]
    graphs_scanned: int
    exhaustive: bool
    wall_ms: Optional[float] = None
    note: Optional[str] = None


def _copies(pat: Pattern, n: int, deadline: Optional[float] = None) -> list[int]:
    """Edge bitmap of every copy of the pattern in K_n through n - 1: each
    distinct labelling of the pattern on its own f vertices, placed in order
    onto each f-subset of [n] that holds n - 1 (with an isolated vertex, equal
    edges on different vertex sets).  TimeoutError once the clock, read once
    per labelling, passes the deadline."""
    # a labelling is its sorted tuple of sorted edges; adjacent transpositions
    # generate every permutation, so closing the pattern under them finds all.
    # Swapping i and i + 1 keeps an edge sorted unless it holds both, and then
    # leaves it as it is
    seed = tuple(sorted(pat.graph.edges()))
    swaps = [[*range(i), i + 1, i, *range(i + 2, pat.f)] for i in range(pat.f - 1)]
    labellings, todo = {seed}, [seed]
    while todo:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError
        lab = todo.pop()
        for i, p in enumerate(swaps):
            image = tuple(sorted(e if i in e and i + 1 in e else (p[e[0]], p[e[1]], p[e[2]]) for e in lab))
            if image not in labellings:
                labellings.add(image)
                todo.append(image)
    # on an ascending subset s the edge a < b < c keeps its order, so its rank is read off s
    c2, c3 = [comb(v, 2) for v in range(n)], [comb(v, 3) for v in range(n)]
    return [
        sum(1 << (s[a] + c2[s[b]] + c3[s[c]]) for a, b, c in lab)
        for s in (t + (n - 1,) for t in combinations(range(n - 1), pat.f - 1)) for lab in labellings
    ]


def c2_exact(pat: Pattern, n: int, budget_seconds: Optional[float] = None) -> SearchReport:
    """Exact covering codegree threshold at one n, by exhaustion (f <= n <= 9).

    For t = n - 2, n - 3, ... a pruned depth-first search visits the hosts of
    minimum codegree >= t in increasing bitmap order; the first t with a host
    that leaves vertex n - 1 uncovered and has link degrees of n - 1 that do
    not increase from 0 to n - 2 (a relabelling of any uncovered host) is the
    value, and that host the witness.  ``graphs_scanned`` counts the search
    nodes (partial hosts deciding every triple above some rank) over all
    targets tried.  A budget overrun yields a report flagged non-exhaustive
    with no value, never presented as exact.
    """
    if n < pat.f:
        raise ValueError(f"need n >= {pat.f}")
    if n > EXACT_MODE_CAP:
        raise ValueError(f"exact search handles n <= {EXACT_MODE_CAP}")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")

    t0 = time.monotonic()
    deadline = t0 + budget_seconds if budget_seconds is not None else None
    nodes = 0

    def feasible(rank: int, bits: int) -> Optional[int]:
        # visits, in increasing numeric order, exactly the prefixes whose every pair can
        # still reach the target codegree, that hold no whole copy through n - 1 and whose
        # final link degrees of n - 1 do not increase; so every leaf is a witness
        nonlocal nodes
        chain = order[rank + 1]
        if chain is not None and not slack[chain[0]] >= slack[chain[1]] >= slack[chain[2]]:
            return None
        nodes += 1
        # the clock is read at the first node, then every 1024
        if deadline is not None and nodes % 1024 == 1 and time.monotonic() > deadline:
            raise TimeoutError
        if rank < 0:
            return bits
        # test a branch before moving its counters: absent needs every slack > 0, present every room > 0
        ps, us = pair_ids[rank], users[rank]
        if all(map(slack.__getitem__, ps)):
            for p in ps:
                slack[p] -= 1
            found = feasible(rank - 1, bits)
            for p in ps:
                slack[p] += 1
            if found is not None:
                return found
        if not all(map(room.__getitem__, us)):
            return None
        for i in us:
            room[i] -= 1
        found = feasible(rank - 1, bits | (1 << rank))
        for i in us:
            room[i] += 1
        return found

    value = bits = note = None
    target = n - 2  # building the copies counts against the first target's budget
    try:
        copy_edges = _copies(pat, n, deadline)
        # room[i]: how many more edges of copy i may be present; users[r]: the copies through triple r
        room = [pat.graph.num_edges - 1] * len(copy_edges)
        c2 = [comb(v, 2) for v in range(n)]
        pair_ids = [(a + c2[b], a + c2[c], b + c2[c]) for c in range(n) for b in range(c) for a in range(b)]
        users: list[list[int]] = [[] for _ in pair_ids]
        for i, e in enumerate(copy_edges):
            for r in _iter_bits(e):
                users[r].append(i)
        # the link of n - 1 comes first, pair (a, b) at rank C(n - 1, 3) + C(b, 2) + a.  Once a = 0
        # is decided deg(b) is final (at b = 1 so is deg(0)): it is target + the slack of pair
        # (b, n - 1), so deg(b) >= deg(b + 1) (and deg(0) >= deg(1)) is a chain of slacks
        order: list[Optional[tuple[int, int, int]]] = [None] * (len(pair_ids) + 1)
        link = c2[n - 1]  # pair (v, n - 1) has id v + link
        for b in range(1, n - 1):
            order[comb(n - 1, 3) + c2[b]] = (link + (0 if b == 1 else b), link + b, link + min(b + 1, n - 2))
        for target in range(n - 2, -1, -1):
            # slack[p]: how many more triples of pair p may be absent with the target still reachable
            slack = [n - 2 - target] * comb(n, 2)
            bits = feasible(len(pair_ids) - 1, 0)
            if bits is not None:
                value = target
                break
        else:
            raise RuntimeError("descent fell through; the empty host is always feasible")
    except TimeoutError:
        note = f"budget exhausted while testing target {target}; value <= {target}"
    wall_ms = (time.monotonic() - t0) * 1000.0

    witness = uncovered_vertex = None
    if bits is not None:
        witness = Hypergraph3(n, bits)
        unc = uncovered_vertices(witness, pat)
        if n - 1 not in unc or witness.min_codegree() != value:
            raise RuntimeError("internal error: witness failed re-verification")
        uncovered_vertex = unc[0]
    return SearchReport(
        pattern=pat.name,
        n=n,
        value=value,
        witness=witness,
        uncovered_vertex=uncovered_vertex,
        graphs_scanned=nodes,
        exhaustive=note is None,
        wall_ms=wall_ms,
        note=note,
    )


# -- partition recovery -------------------------------------------------------

# the stability slack delta of the paper's n > 998 configurations: a recovered partition's
# guarantee applies when the minimum codegree is at least (2/3 - delta) n
DEFAULT_SLACK = Fraction(1, 429)


class PartitionDiagnostics(NamedTuple):
    """Measured violation counts against the stability conditions."""

    within_part_link: int        # (i)  apex triples inside one part
    missing_cross_link: int      # (ii) absent apex triples across parts
    tripartite_edges: int        # (iii) present all-three-parts triples
    missing_two_part: int        # (iv) absent two-parts triples
    sizes: tuple[int, ...]
    max_size_deviation: Fraction  # (v) max | |V_i| - (n-1)/3 |


class RecoveredPartition(NamedTuple):
    partition: Tripartition
    seed_triangle: tuple[int, int, int]
    bucket_sizes: tuple[int, int, int]
    diagnostics: PartitionDiagnostics
    guarantee_applies: bool


def recover_partition(g: Hypergraph3, x: int) -> Optional[RecoveredPartition]:
    """Recover a planted apex tripartition from the link structure at x.

    Takes the lexicographically first triangle {ab, bc, ac} in the link of x,
    buckets outside vertices by exact matches of the three size-4 link
    configurations, then reads off the parts as the vertices whose joint
    neighbourhood with x avoids one bucket.  Returns None when no triangle
    exists or the three candidate sets fail to partition the non-apex
    vertices.  Diagnostics are measured, not assumed.
    """
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    tri = g.link_graph(x).first_triangle()
    if tri is None:
        return None
    a, b, c = tri
    rows = g.pair_masks()
    # the six slots' pair-table entries, in PAIR_SLOTS order: bit y says the pair makes an edge with y
    ab, ac, bc, ax, bx, cx = rows[a][b], rows[a][c], rows[b][c], rows[a][x], rows[b][x], rows[c][x]
    # the bucket of a holds a and every y whose configuration is exactly S1a
    # (likewise b, c); no slot mask contains a, b, c or x
    buckets = (
        1 << a | ab & ac & bx & cx & ~bc & ~ax,
        1 << b | ab & bc & ax & cx & ~ac & ~bx,
        1 << c | ac & bc & ax & bx & ~ab & ~cx,
    )
    parts: list[list[int]] = [[], [], []]
    for y in range(g.n):
        if y == x:
            continue
        hits = [i for i, bucket in enumerate(buckets) if rows[x][y] & bucket == 0]
        if len(hits) != 1:
            return None
        parts[hits[0]].append(y)
    part_tuple = tuple(tuple(p) for p in parts)
    diagnostics = _measure_partition(g, x, part_tuple)
    return RecoveredPartition(
        partition=Tripartition(apex=x, parts=part_tuple),
        seed_triangle=(a, b, c),
        bucket_sizes=tuple(bucket.bit_count() for bucket in buckets),
        diagnostics=diagnostics,
        guarantee_applies=g.min_codegree() >= (Fraction(2, 3) - DEFAULT_SLACK) * g.n,
    )


def _measure_partition(g: Hypergraph3, x: int, parts) -> PartitionDiagnostics:
    # label the apex 4 and part i as i + 1, then histogram the edges by their
    # sorted label triples: each count below is a sum of histogram cells; the
    # largest cell, 124, fits int8, so the product never widens the edge rows
    label = np.zeros(g.n, dtype=np.int8)
    for i, part in enumerate(parts):
        label[list(part)] = i + 1
    label[x] = 4
    hist = np.zeros(125, dtype=np.int64)
    for t in _row_blocks(g.edge_array()):
        hist += np.bincount(np.sort(label[t], axis=1) @ np.array([25, 5, 1], dtype=np.int8), minlength=125)
    hist = hist.tolist()

    def edges_of(*labels: int) -> int:
        p, q, r = sorted(labels)
        return hist[25 * p + 5 * q + r]

    sizes = tuple(len(p) for p in parts)
    within = sum(edges_of(i + 1, i + 1, 4) for i in range(3))
    missing_cross = sum(sizes[i] * sizes[j] - edges_of(i + 1, j + 1, 4) for i, j in combinations(range(3), 2))
    tripartite = edges_of(1, 2, 3)
    missing_two = sum(
        comb(sizes[i], 2) * sizes[j] - edges_of(i + 1, i + 1, j + 1)
        for i in range(3) for j in range(3) if i != j
    )
    third = Fraction(g.n - 1, 3)
    dev = max(abs(Fraction(s) - third) for s in sizes) if sizes else Fraction(0)
    return PartitionDiagnostics(
        within_part_link=within,
        missing_cross_link=missing_cross,
        tripartite_edges=tripartite,
        missing_two_part=missing_two,
        sizes=sizes,
        max_size_deviation=dev,
    )


# -- claims verification ------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    expected: object
    measured: object
    passed: bool


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]
    ok: bool

    def as_json(self) -> dict:
        checks = [{"name": c.name, "expected": c.expected, "measured": c.measured, "pass": c.passed}
                  for c in self.checks]
        return {"ok": self.ok, "checks": checks}


def verify_construction(g: Hypergraph3, claims: ConstructionClaims, pat: Pattern) -> VerificationReport:
    """Re-measure every claim the generator made: codegree, coverage, layout."""
    checks = []
    measured = g.min_codegree()
    checks.append(CheckResult("min_codegree", claims.min_codegree, measured, measured == claims.min_codegree))
    seen = set()
    valid_layout = claims.n == g.n
    apex = () if claims.partition.apex is None else (claims.partition.apex,)
    for part in (*claims.partition.parts, apex):
        for v in part:
            valid_layout &= 0 <= v < g.n and v not in seen
            seen.add(v)
    valid_layout &= len(seen) == g.n
    checks.append(CheckResult("partition", "valid", "valid" if valid_layout else "invalid", valid_layout))
    # one search of the whole host, as ``cover`` runs it, answers every claimed vertex
    uncovered = uncovered_vertices(g, pat) if claims.uncovered else ()
    for v in claims.uncovered:
        measured = "out of range" if not 0 <= v < g.n else "uncovered" if v in uncovered else "covered"
        checks.append(CheckResult(f"uncovered:{v}", "uncovered", measured, measured == "uncovered"))
    return VerificationReport(tuple(checks), all(c.passed for c in checks))
