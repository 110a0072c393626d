"""Generators for the lower-bound families.

Every generator returns a graph together with a :class:`ConstructionClaims`
record stating the intended minimum codegree, the vertices the construction
leaves uncovered for its target pattern, and the planted partition.  Claims
are never trusted downstream: the analysis module re-measures all of them.

Each family but the Steiner systems is a rule on part labels, built by one
private builder from the part sizes, the apex flag and the allowed label
triples, with the triples of ``f1_variant``'s pair set flipped; core packs
the edge flags into the bitmap and decodes the flags, never the bitmap.
``sts`` pairs ``steiner`` with claims naming one part of all t vertices.

Layout convention: parts are contiguous index ranges starting at 0 and the
apex (when one exists) is vertex n-1, so planted partitions are recoverable
in tests and serializations are stable.
"""

from __future__ import annotations

import random
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Hypergraph3, _binomials, _pack, _rows, _with_rows, triple_rank

__all__ = [
    "Tripartition",
    "AdmissiblePairSet",
    "ConstructionClaims",
    "VARIANT_CASES",
    "f1",
    "f1_variant",
    "admissible_sample",
    "f2",
    "f3",
    "f4",
    "steiner",
    "sts",
    "blow_up",
    "fano_bipartite",
    "f32_tripartite",
]


class Tripartition(NamedTuple):
    """A labeled split of the vertex set: optional apex plus disjoint parts."""

    apex: Optional[int]
    parts: tuple[tuple[int, ...], ...]

    def part_of(self, v: int) -> int:
        for i, p in enumerate(self.parts):
            if v in p:
                return i
        raise ValueError(f"vertex {v} is in no part")

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def as_json(self) -> dict:
        return {"apex": self.apex, "parts": [list(p) for p in self.parts]}


# per-vertex pair-multiplicity caps, by case tag and part index
VARIANT_CASES = {
    "0": (2, 1, 1),
    "1": (1, 1, 1),
    "2": (2, 2, 1),
    "2p": (3, 1, 1),
}

_CASE_RESIDUE = {"0": 0, "1": 1, "2": 2, "2p": 2}


class _AdmissiblePairSet(NamedTuple):
    case: str
    pairs: frozenset[tuple[int, int]]


class AdmissiblePairSet(_AdmissiblePairSet):
    """Cross-part pairs with per-vertex multiplicity caps given by the case."""

    __slots__ = ()

    def __new__(cls, case: str, pairs: Iterable[tuple[int, int]]):
        if case not in VARIANT_CASES:
            raise ValueError(f"unknown case {case!r}; expected one of {sorted(VARIANT_CASES)}")
        return super().__new__(cls, case, frozenset(tuple(sorted(p)) for p in pairs))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__

    def validate(self, partition: Tripartition) -> None:
        """Raise ValueError unless every pair is cross-part and under the caps."""
        caps = VARIANT_CASES[self.case]
        counts: dict[int, int] = {}
        for u, v in self.pairs:
            pu, pv = partition.part_of(u), partition.part_of(v)
            if pu == pv:
                raise ValueError(f"pair {(u, v)} joins two vertices of the same part")
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        for v, c in counts.items():
            cap = caps[partition.part_of(v)]
            if c > cap:
                raise ValueError(
                    f"vertex {v} occurs in {c} pairs, cap for its part is {cap}"
                )


class ConstructionClaims(NamedTuple):
    """What a generator promises; verified by the analysis module, never assumed."""

    name: str
    n: int
    min_codegree: int
    uncovered: tuple[int, ...]
    partition: Tripartition
    pattern_hint: Optional[str] = None
    params: tuple[tuple[str, int], ...] = ()

    def as_json(self) -> dict:
        return {
            "schema": 1,
            "construction": self.name,
            "n": self.n,
            "min_codegree": self.min_codegree,
            "uncovered": list(self.uncovered),
            "partition": self.partition.as_json(),
            "pattern_hint": self.pattern_hint,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, data) -> "ConstructionClaims":
        """Parse a claims sidecar; ValueError names the first missing or ill-typed field."""
        if not isinstance(data, dict):
            raise ValueError("claims: expected a JSON object")
        part = _field(data, "partition", "an object", lambda v: isinstance(v, dict))
        parts = _field(part, "partition.parts", "a list of integer lists",
                       lambda v: isinstance(v, list) and all(map(_is_ints, v)))
        params = _field(data, "params", "an object of integers",
                        lambda v: isinstance(v, dict) and all(map(_is_int, v.values())), optional=True)
        return cls(
            name=_field(data, "construction", "a string", lambda v: isinstance(v, str)),
            n=_field(data, "n", "an integer", _is_int),
            min_codegree=_field(data, "min_codegree", "an integer", _is_int),
            uncovered=tuple(_field(data, "uncovered", "a list of integers", _is_ints)),
            partition=Tripartition(
                apex=_field(part, "partition.apex", "an integer or null", lambda v: v is None or _is_int(v)),
                parts=tuple(map(tuple, parts)),
            ),
            pattern_hint=_field(data, "pattern_hint", "a string", lambda v: isinstance(v, str),
                                optional=True),
            params=tuple(sorted((params or {}).items())),
        )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _field(obj: dict, path: str, what: str, ok, optional: bool = False):
    key = path.rpartition(".")[2]
    if key not in obj:
        if optional:
            return None
        raise ValueError(f"claims: missing field {path!r}")
    if not (optional and obj[key] is None) and not ok(obj[key]):
        raise ValueError(f"claims: field {path!r} must be {what}")
    return obj[key]


def _contiguous_parts(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(end - s, end)) for s, end in zip(sizes, accumulate(sizes)))


def _ascending_sizes(total: int, k: int) -> list[int]:
    base, extra = divmod(total, k)
    return [base] * (k - extra) + [base + 1] * extra


def _part_index(parts: tuple[tuple[int, ...], ...], n: int) -> list[int]:
    idx = [-1] * n
    for i, p in enumerate(parts):
        for v in p:
            idx[v] = i
    return idx


def _build(
    name: str, n: int, sizes: Sequence[int], apex: bool, allowed, min_codegree: int,
    uncovered: Iterable[int], pattern_hint: str, params: tuple[tuple[str, int], ...] = (), swaps=(),
) -> tuple[Hypergraph3, ConstructionClaims]:
    """A family given by a rule on part labels, with its claims.

    The parts are contiguous, of the given sizes, labelled 0, 1, ... in order;
    the apex, if any, is vertex n-1 with the label after the last part.  The
    edges are the triples whose vertex labels, in some order, form a triple
    of ``allowed``, with the membership of each of the distinct ranks ``swaps`` flipped.
    """
    # the edge flags first: numpy refuses an oversize n at once, before any O(n) Python work
    flags = np.empty(comb(n, 3), dtype=bool)
    parts = _contiguous_parts(sizes)
    lab = np.array(_part_index(parts, n))
    if apex:
        lab[n - 1] = len(parts)
    k = lab.max() + 1
    # labels ascend with the vertex, so a sorted triple a < b < c has sorted labels;
    # slice ok[lab[c]], indexed by lab[a] * k + lab[b], flags the pairs below c
    ok = np.zeros((k, k, k), dtype=bool)
    ok[tuple(np.sort(allowed, axis=1).T[[2, 0, 1]])] = True
    code = (lab * k + lab[:, None])[np.tril_indices(n, -1)]  # the pairs a < b in colex order
    c2, c3 = _binomials(n)
    for c in range(2, n):  # the ranks with top vertex c are C(c,3) plus the C(c,2) pair ranks below c
        np.take(ok[lab[c]].ravel(), code[:c2[c]], out=flags[c3[c]:c3[c] + c2[c]], mode="clip")
    flags[np.fromiter(swaps, np.intp)] ^= True
    claims = ConstructionClaims(name, n, min_codegree, tuple(uncovered),
                                Tripartition(n - 1 if apex else None, parts), pattern_hint, params)
    return _with_rows(n, _pack(flags), _rows(n, np.flatnonzero(flags))), claims


def _triples_over(k: int, distinct) -> list[tuple[int, int, int]]:
    """Sorted label triples over 0..k-1 whose number of distinct labels passes the test."""
    return [t for t in combinations_with_replacement(range(k), 3) if distinct(len(set(t)))]


# f1 and its variants, apex label 3: the triples touching at most two parts, apex and cross pairs
_F1_LABELS = _triples_over(3, lambda d: d <= 2) + [(i, j, 3) for i, j in combinations(range(3), 2)]


def f1(n: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """Apex over three near-equal parts; nothing completes the apex to a K4.

    The apex link is every cross-part pair; away from the apex every triple
    touching at most two parts is an edge.  Minimum codegree floor((2n-5)/3),
    attained by cross pairs into the two smallest parts.  This is the f1
    variant of case n mod 3 with the empty pair set.
    """
    if n < 4:
        raise ValueError("f1 needs n >= 4")
    case = str(n % 3)
    g, claims = f1_variant(case, AdmissiblePairSet(case, frozenset()), n)
    return g, claims._replace(name="f1", params=())


def _variant_partition(case: str, n: int) -> Tripartition:
    if case not in VARIANT_CASES:
        raise ValueError(f"unknown case {case!r}")
    if n % 3 != _CASE_RESIDUE[case]:
        raise ValueError(f"case {case!r} needs n === {_CASE_RESIDUE[case]} (mod 3), got n={n}")
    # size the edge flags that _build fills: numpy refuses an oversize n at once
    np.empty(comb(n, 3), dtype=bool)
    m = n // 3
    sizes = {
        "0": (m - 1, m, m),
        "1": (m, m, m),
        "2": (m, m, m + 1),
        "2p": (m - 1, m + 1, m + 1),
    }[case]
    if sizes[0] < 1:
        raise ValueError(f"n={n} too small for case {case!r}")
    return Tripartition(apex=n - 1, parts=_contiguous_parts(sizes))


def f1_variant(
    case: str, pair_set: AdmissiblePairSet, n: int
) -> tuple[Hypergraph3, ConstructionClaims]:
    """The f1 family perturbed by an admissible cross-part pair set.

    For every pair uv in the set, the apex triple through uv is deleted and
    every tripartite triple uvw is added instead.  Admissibility keeps the
    minimum codegree at the f1 value while the apex stays K4-uncovered.
    """
    if pair_set.case != case:
        raise ValueError(f"pair set was built for case {pair_set.case!r}, not {case!r}")
    part = _variant_partition(case, n)
    pair_set.validate(part)
    # pairs uv and uw add the same triple uvw: as a set, the swaps flip their union once
    swaps = {triple_rank(u, v, w) for u, v in pair_set.pairs
             for w in (n - 1, *part.parts[3 - part.part_of(u) - part.part_of(v)])}
    return _build("f1e" if case != "2p" else "f1p", n, part.sizes(), True, _F1_LABELS,
                  (2 * n - 5) // 3, (n - 1,), "K4", (("pairs", len(pair_set.pairs)),), swaps)


def admissible_sample(case: str, n: int, seed: int = 0) -> AdmissiblePairSet:
    """A seeded random admissible pair set (maximal or a truncation of one)."""
    part = _variant_partition(case, n)
    caps = VARIANT_CASES[case]
    idx = _part_index(part.parts, n - 1)
    rng = random.Random(seed)
    candidates = [
        (u, v)
        for u, v in combinations(range(n - 1), 2)
        if idx[u] != idx[v]
    ]
    rng.shuffle(candidates)
    counts = [0] * (n - 1)
    chosen = []
    for u, v in candidates:
        if counts[u] < caps[idx[u]] and counts[v] < caps[idx[v]]:
            chosen.append((u, v))
            counts[u] += 1
            counts[v] += 1
    keep = rng.randint(0, len(chosen))
    return AdmissiblePairSet(case=case, pairs=frozenset(chosen[:keep]))


def f2(n: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """Apex whose link is the blow-up of a 6-cycle; no K4-minus-an-edge at the apex.

    Away from the apex, a triple is an edge unless its parts form one of the
    consecutive runs (i,i,i+1), (i,i+1,i+1) or (i,i+1,i+2) around the cycle.
    The residue-table codegree claims hold once n >= 12.
    """
    if n < 7:
        raise ValueError("f2 needs n >= 7")
    runs = [(i, (i + 1) % 6, (i + 2) % 6) for i in range(6)]
    forbidden = {tuple(sorted(t)) for i, j, k in runs for t in ((i, i, j), (i, j, j), (i, j, k))}
    allowed = [t for t in _triples_over(6, bool) if t not in forbidden]
    allowed += [(i, (i + 1) % 6, 6) for i in range(6)]
    m, r = divmod(n, 6)
    claimed = (2 * m - 1) if r == 0 else (2 * m + 1) if r == 5 else 2 * m
    g, claims = _build("f2", n, _ascending_sizes(n - 1, 6)[::-1], True, allowed, claimed, (n - 1,), "K4-")
    # below n = 12 the residue table does not hold: claim the measured value
    return g, claims if n >= 12 else claims._replace(min_codegree=g.min_codegree())


def f3(n: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """Apex whose link is two disjoint cliques; no tight 5-cycle at the apex.

    Away from the apex every triple meeting both halves is an edge.  Minimum
    codegree floor((n-3)/2), attained by the apex with a smallest-part vertex.
    """
    if n < 5:
        raise ValueError("f3 needs n >= 5")
    allowed = _triples_over(2, lambda d: d == 2) + [(0, 0, 2), (1, 1, 2)]
    return _build("f3", n, _ascending_sizes(n - 1, 2), True, allowed, (n - 3) // 2, (n - 1,), "C5")


def f4(n: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """Parity family: edges are the triples meeting the first half evenly.

    No apex: every vertex of the first half is left uncovered by tight
    5-cycles (a copy would need an even trace on the first half at each of
    its edges, which forces it entirely into the second half).
    """
    if n < 5:
        raise ValueError("f4 needs n >= 5")
    half = n // 2
    # an even number of vertices in the first half: none or two
    return _build("f4", n, (half, n - half), False, [(1, 1, 1), (0, 0, 1)], (n - 3) // 2,
                  range(half), "C5")


def steiner(t: int) -> Hypergraph3:
    """A Steiner triple system on t vertices (every pair codegree exactly 1).

    Feasible iff t === 1 or 3 (mod 6).  Uses the classical quasigroup
    constructions: three levels over an odd cyclic group when t === 3 (mod 6),
    and the half-idempotent variant with a point at infinity when
    t === 1 (mod 6).  Deterministic, O(t^2) triples.
    """
    if t < 3 or t % 6 not in (1, 3):
        raise ValueError(f"no Steiner triple system on {t} vertices (need t === 1,3 mod 6)")
    # size the edge bitmap first: numpy refuses an oversize t at once, before the O(t^2) triple list
    np.empty(comb(t, 3) // 8 + 1, dtype=np.uint8)
    vid = lambda i, lvl: 3 * i + lvl
    if t % 6 == 3:
        k = (t - 3) // 6
        q = 2 * k + 1
        op = lambda i, j: (i + j) * (k + 1) % q  # k + 1 is the inverse of 2 mod q
        triples = [(vid(i, 0), vid(i, 1), vid(i, 2)) for i in range(q)]
    else:
        k = (t - 1) // 6
        q = 2 * k
        # s = (i + j) mod q goes to s / 2 when even, to k + (s - 1) / 2 when odd
        op = lambda i, j: (i + j) % q // 2 + k * ((i + j) % 2)
        triples = [(vid(i, 0), vid(i, 1), vid(i, 2)) for i in range(k)]
        triples += [(t - 1, vid(i + k, lvl), vid(i, (lvl + 1) % 3)) for i in range(k) for lvl in range(3)]
    triples += [(vid(i, lvl), vid(j, lvl), vid(op(i, j), (lvl + 1) % 3))
                for i, j in combinations(range(q), 2) for lvl in range(3)]
    return Hypergraph3.from_triples(t, triples)


def sts(t: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """The Steiner triple system ``steiner(t)`` with its claims: codegree 1, one part."""
    g = steiner(t)  # first: it refuses an oversize t before the claims list t vertices
    return g, ConstructionClaims("sts", t, min_codegree=1, uncovered=(),
                                 partition=Tripartition(apex=None, parts=(tuple(range(t)),)),
                                 params=(("t", t),))


def _clique_number(h: Hypergraph3) -> int:
    """The most vertices whose triples are all edges (any two vertices count), by
    a depth-first search that extends a clique only by later vertices in the AND
    of its pair-table entries, while it and its candidates could beat the best.
    Once the cliques through v are searched, v's later twins leave the
    candidates: the swap with one fixes the clique (all below v) and maps a
    clique through it, not v, onto one through v."""
    rows, twins, best = h.pair_masks(), h.twin_classes(), 0

    def grow(clique: list[int], cand: int) -> None:
        nonlocal best
        best = max(best, len(clique))
        while len(clique) + cand.bit_count() > best:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            later = cand
            for u in clique:
                later &= rows[u][v]
            grow(clique + [v], later)
            cand &= ~twins.get(v, 0)

    grow([], (1 << h.n) - 1)
    return best


def blow_up(h: Hypergraph3, factor: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """Replace each vertex of h by a part of the given size and add an apex.

    The apex link is every cross-part pair; cross-part triples follow the
    edges of h; every triple hitting some part twice is an edge.  Minimum
    codegree min((d + 2) * factor - 1, (h.n - 1) * factor) with d the measured
    min_codegree(h): the least cross pair's and an apex pair's, the second less
    only when h is complete and factor >= 2.  The apex misses every complete
    pattern two larger than the biggest clique of h.
    """
    if factor < 1:
        raise ValueError("part size must be >= 1")
    if h.n < 3 or h.num_edges == 0:
        raise ValueError("base graph must be nonempty on >= 3 vertices")
    m, n = h.n, factor * h.n + 1
    allowed = _triples_over(m, lambda d: d < 3)
    allowed += h.edge_array().tolist()
    allowed += [(i, j, m) for i, j in combinations(range(m), 2)]
    dmin = min((h.min_codegree() + 2) * factor - 1, (m - 1) * factor)
    return _build("blowup", n, [factor] * m, True, allowed, dmin, (n - 1,), f"K{_clique_number(h) + 2}",
                  (("factor", factor), ("base_n", m)))


def fano_bipartite(n: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """All triples meeting both halves of a balanced bipartition.

    Two-colourable, hence free of any 7-point triple system; nothing is
    covered.  Minimum codegree floor(n/2), attained inside the larger half.
    """
    if n < 7:
        raise ValueError("fano_bipartite needs n >= 7")
    half = n // 2
    return _build("fano2", n, (half, n - half), False, [(0, 0, 1), (0, 1, 1)], n // 2,
                  range(n), "Fano")


def f32_tripartite(n: int) -> tuple[Hypergraph3, ConstructionClaims]:
    """Cyclic tripartite family: edges are the (i,i,i+1) part patterns.

    Free of the 5-vertex pattern with a dominated pair, so nothing is
    covered.  Minimum codegree floor(n/3) - 1.
    """
    if n < 5:
        raise ValueError("f32_tripartite needs n >= 5")
    allowed = [(i, i, (i + 1) % 3) for i in range(3)]
    return _build("f32tri", n, _ascending_sizes(n, 3), False, allowed, n // 3 - 1, range(n), "F32")
