"""3-uniform hypergraphs on vertices 0..n-1 with bitmap edge storage.

The edge set of a graph is a single Python integer: bit ``rank({a<b<c})`` is
set exactly when the triple is an edge, where

    rank({a<b<c}) = a + C(b,2) + C(c,3)

is the colexicographic rank, so {0,1,2} is bit 0 and {n-3,n-2,n-1} is bit
C(n,3)-1.  That integer is the canonical, hashable value; graphs are immutable
and safe to share across threads.  Every view reads one int16 array of triples
in colex order, built once, lazily (``edge_array``): a graph on at most
``_SMALL_N`` vertices scans its ranks in Python, and a larger one, a
construction too, unpacks and decodes its bitmap a block at a time.

Every whole-graph layer walks the edges in blocks of consecutive top vertices,
sized by ``_BLOCK``, so that no array but the edge array has an entry per rank
or per edge: the decode, the pair table's scatter, the partition histogram of
``analysis``, the text writer (``write_h3`` writes each block as it is made)
and the ranking of parsed rows.  A read checks the text in blocks of lines and
keeps no other copy of it; numpy parses a named file in chunks.  Rows parsed in
rank order are the edge array; others give the bitmap, decoded when read.

Every pair query reads one table, built lazily (``pair_masks``): entry [u][v] is
the vertex bitmap of the joint neighbourhood of u and v.  Above ``_SMALL_N``
vertices each block of edges flags a bool matrix of pairs by 64k vertex slots,
packed into 64-bit words by ``np.packbits``; a smaller graph ORs its edges' bits
in Python.  ``min_codegree`` is counted while the table is built, a
``LinkGraph`` is one row, and the twin classes (``twin_classes``) are read
from it.

Two interchangeable text encodings are supported by ``dumps_h3``/``loads_h3``:

* edge-list form: a header line ``n m`` followed by m lines ``a b c`` with
  0-based unsigned vertices ascending within each line.  ``#`` starts a
  comment and blank lines are ignored; a line ends at ``\n``, ``\r\n`` or a
  bare ``\r``, as in a text-mode read.  Edges are written in colex order; an
  edge listed twice is an error.
* hex form: a header line ``n: <vertices>`` followed by the raw edge bitmap
  as a hex string (most significant digits first; may wrap at line ends only).

Both forms round-trip bit-exactly.  Their numbers are ASCII digits (hex digits in
the bitmap) between ASCII whitespace, with no sign, ``_`` or ``0x`` prefix.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Hypergraph3",
    "LinkGraph",
    "triple_rank",
    "dumps_h3",
    "loads_h3",
    "write_h3",
    "load_h3",
]


def triple_rank(a: int, b: int, c: int) -> int:
    """Colex rank of the triple {a,b,c}; the arguments may come in any order."""
    if a == b or a == c or b == c:
        raise ValueError(f"triple has a repeated vertex: {(a, b, c)}")
    a, b, c = sorted((a, b, c))
    if a < 0:
        raise ValueError(f"negative vertex in triple: {(a, b, c)}")
    return a + comb(b, 2) + comb(c, 3)


# -- colex ranks of whole vertex arrays, and bitmaps of whole rank arrays -------

def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The colex rank offsets: C(v,2) as int32 and C(v,3) as int64, for v in 0..n-1."""
    v = np.arange(n, dtype=np.int64)
    return (v * (v - 1) // 2).astype(np.int32), v * (v - 1) * (v - 2) // 6


def _rows(n: int, ranks: np.ndarray) -> np.ndarray:
    """(m, 3) int16 array of the sorted triples with the given ascending int64 colex ranks, which
    become the triples' least vertices in place: each pair b < c of the top vertices present starts
    a run of ranks at C(c,3) + C(b,2), and one search finds the runs."""
    if not len(ranks):
        return np.empty((0, 3), dtype=np.int16)
    c2, c3 = _binomials(n + 1)
    c0, c1 = np.searchsorted(c3, ranks[[0, -1]], side="right") - [1, 0]
    c = np.repeat(np.arange(c0, c1, dtype=np.int16), np.arange(c0, c1))
    b = (np.arange(len(c)) - (c2[c] - c2[c0])).astype(np.int16)
    start = c3[c] + c2[b]
    runs = np.diff(np.searchsorted(ranks, start), append=len(ranks))
    ranks -= np.repeat(start, runs)
    out = np.empty((len(ranks), 3), dtype=np.int16)
    out[:, 0], out[:, 1], out[:, 2] = ranks, np.repeat(b, runs), np.repeat(c, runs)
    return out


def _rank_rows(n: int, t: np.ndarray) -> np.ndarray:
    """int64 colex ranks of the rows of an (m, 3) vertex array, sorted in place."""
    # dumps_h3 writes every row ascending; the check costs under a twentieth of the sort
    if not ((t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2])).all():
        t.sort(axis=1)
    bad = (t[:, 0] < 0) | (t[:, 2] >= n) | (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
    if bad.any():
        raise ValueError(f"not a valid triple on {n} vertices: {tuple(t[bad.argmax()].tolist())}")
    c2, c3 = _binomials(n)
    ranks = c3[t[:, 2]] + c2[t[:, 1]]
    ranks += t[:, 0]
    return ranks


def _pack(flags: np.ndarray) -> int:
    """The bitmap whose bit r is flags[r]: the one conversion from rank flags to an edge bitmap."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _bitmap(n: int, t: np.ndarray) -> tuple[int, bool]:
    """The bitmap of the rows of an (m, 3) vertex array on n vertices, each row sorted in place and
    ranked in a block of _BLOCK rows, and whether the ranks strictly ascend."""
    flags, ascending, last = np.zeros(comb(min(n, int(t.max(initial=-1)) + 1), 3), dtype=bool), True, -1
    for lo in range(0, len(t), _BLOCK):
        ranks = _rank_rows(n, t[lo:lo + _BLOCK])
        ascending = ascending and last < ranks[0] and bool((ranks[1:] > ranks[:-1]).all())
        flags[ranks], last = True, ranks[-1]
    return _pack(flags), ascending


# Every whole-graph layer walks the edges in blocks of consecutive top vertices c0 <= c < c1, the
# ranks from C(c0,3) up to C(c1,3): a block starts at the first c whose C(c,3) is in a new window of
# this many ranks, and the text is read in blocks of about as many characters. f1e(99) is 5 blocks,
# f1e(999) 827; timed on the f1e(99) commands, 2^15 ran as fast as 2^16 with a lower peak
_BLOCK = 1 << 15


def _block_starts(n: int) -> list[int]:
    """The first top vertex of each block of 0..n-1."""
    return [c for c in range(n) if c == 0 or comb(c, 3) // _BLOCK > comb(c - 1, 3) // _BLOCK]


def _row_blocks(t: np.ndarray) -> list[np.ndarray]:
    """The rows of an edge array in colex order, split into views at the starts of the blocks."""
    cuts = [bisect_left(t[:, 2], c) for c in _block_starts(int(t[-1, 2]) + 1 if len(t) else 0)[1:]]
    return [t[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(t)])]


def _set_bits(raw: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Ascending positions r0 <= r < r1 of the set bits of a bitmap's little-endian bytes."""
    flags = np.unpackbits(raw[r0 // 8:-(-r1 // 8)], bitorder="little")[r0 % 8:r0 % 8 + r1 - r0]
    return np.flatnonzero(flags.view(bool)) + r0  # on the bytes themselves, nonzero is five times slower


# Up to this many vertices a graph builds its edge rows and pair table in Python from the bitmap.
# Both builds timed for n = 5..20 at densities 0.1 to 1: the Python one is the faster up to n = 13
# in freshly imported code, where each numpy call is slow the first time, and up to n = 9 warmed up
_SMALL_N = 9


def _colex_edges(n: int, bits: int) -> list[tuple[int, int, int]]:
    """The edges of a small graph as sorted triples: one scan of the C(n,3) ranks in colex order."""
    colex = ((a, b, c) for c in range(n) for b in range(c) for a in range(b))
    return [t for r, t in enumerate(colex) if bits >> r & 1]


class Hypergraph3:
    """An immutable 3-graph: a vertex count and an edge bitmap."""

    __slots__ = ("n", "bits", "_triples", "_pair_masks", "_codegrees", "_twins", "_later_twins")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if bits < 0 or bits >> comb(n, 3):
            raise ValueError(f"edge bitmap does not fit in {comb(n, 3)} bits")
        self.n = n
        self.bits = bits
        self._triples: Optional[np.ndarray] = None
        self._pair_masks: Optional[tuple[tuple[int, ...], ...]] = None
        self._codegrees: Optional[np.ndarray] = None  # n x n (n on the diagonal), with the pair table
        self._twins: Optional[dict[int, int]] = None
        self._later_twins = 0  # each twin class but its least vertex, set with the classes

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[Sequence[int]]) -> "Hypergraph3":
        try:
            t = np.array(list(triples), dtype=np.int16)
        except OverflowError:
            raise ValueError(f"vertex out of range 0..{n - 1}") from None
        if t.size and t.shape[1:] != (3,):
            raise ValueError(f"not a sequence of vertex triples (array shape {t.shape})")
        return cls(n, _bitmap(n, t.reshape(-1, 3))[0])

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 3) int16 array of sorted triples, in colex order."""
        if self._triples is None:
            if self.n <= _SMALL_N:
                self._triples = np.array(_colex_edges(self.n, self.bits), dtype=np.int16).reshape(-1, 3)
            else:  # the bitmap's set bits are the edge ranks: unpacked and decoded a block at a time
                raw = np.frombuffer(self.bits.to_bytes(-(-self.bits.bit_length() // 8), "little"), dtype=np.uint8)
                k = next(c for c in range(self.n + 1) if comb(c, 3) >= self.bits.bit_length())  # tops below k
                self._triples, at, starts = np.empty((self.num_edges, 3), dtype=np.int16), 0, _block_starts(k)
                for c0, c1 in zip(starts, starts[1:] + [k]):
                    ranks = _set_bits(raw, comb(c0, 3), comb(c1, 3))
                    self._triples[at:at + len(ranks)] = _rows(self.n, ranks)
                    at += len(ranks)
            self._triples.flags.writeable = False
        return self._triples

    # -- basic queries ----------------------------------------------------

    def contains(self, a: int, b: int, c: int) -> bool:
        """Edge membership; invariant under permutation of the arguments."""
        if len({a, b, c}) != 3 or not all(0 <= v < self.n for v in (a, b, c)):
            raise ValueError(f"not a valid triple on {self.n} vertices: {(a, b, c)}")
        return self.bits >> triple_rank(a, b, c) & 1 == 1

    @property
    def num_edges(self) -> int:
        return self.bits.bit_count()

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Edges as sorted triples, in colex (ascending rank) order, a block at a time."""
        for t in _row_blocks(self.edge_array()):
            yield from map(tuple, t.tolist())

    def pair_masks(self) -> tuple[tuple[int, ...], ...]:
        """The pair table: entry [u][v] is the vertex bitmap of the w such that
        uvw is an edge, the same int object as [v][u]; entry [u][u] is 0."""
        if self._pair_masks is None and self.n <= _SMALL_N:
            n, table = self.n, [[0] * self.n for _ in range(self.n)]
            for a, b, c in _colex_edges(n, self.bits):
                table[a][b] |= 1 << c
                table[a][c] |= 1 << b
                table[b][c] |= 1 << a
            for u in range(1, n):  # below the diagonal, the same ints as above it
                table[u][:u] = [row[u] for row in table[:u]]
            counts = [[m.bit_count() if u != v else n for v, m in enumerate(row)] for u, row in enumerate(table)]
            self._codegrees = np.array(counts, dtype=np.int64).reshape(n, n)
            self._pair_masks = tuple(map(tuple, table))
        elif self._pair_masks is None:
            # row r flags the neighbours of the pair of rank r in k 64-bit words; row C(n,2) stays 0
            n, rows, k = self.n, comb(self.n, 2) + 1, max(1, -(-self.n // 64))
            c2, flags = _binomials(n)[0], np.zeros(rows * 64 * k, dtype=bool)
            for t in _row_blocks(self.edge_array()):  # each block's cells: pair rank * 64k + third vertex
                at = np.empty(len(t), dtype=np.intp)
                for i, j, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                    np.add(c2.take(t[:, j]), t[:, i], out=at)
                    at *= 64 * k
                    at += t[:, r]
                    flags[at] = True
            words = np.packbits(flags.reshape(rows, 64 * k), axis=1, bitorder="little").view("<u8")
            del flags
            masks = words[:, 0].tolist()
            for j in range(1, k):
                masks = [m | w << 64 * j for m, w in zip(masks, words[:, j].tolist())]
            v = np.arange(n)
            rank = c2[np.maximum.outer(v, v)] + np.minimum.outer(v, v)
            np.fill_diagonal(rank, rows - 1)
            counts = np.bitwise_count(words).sum(axis=1)
            counts[-1] = n  # the diagonal's row: n exceeds every codegree, so the least entry is a pair's
            self._codegrees = counts[rank]
            self._pair_masks = tuple(tuple(map(masks.__getitem__, row)) for row in rank.tolist())
        return self._pair_masks

    def twin_classes(self) -> dict[int, int]:
        """Each vertex that has a twin, mapped to the bitmap of its twin class (shared: read only).

        u and v are twins when the swap (u v) is an automorphism: row v with
        entries u and v swapped then has row u's popcounts, and its entries
        differ from row u's in both bits u and v (uvw an edge) or in neither.
        Twins form classes (a swap conjugated by another is a third), so only
        a class's least vertex is compared with later vertices, and only with
        those whose sorted codegrees, kept by the swap, hash alike.
        """
        if self._twins is None:
            rows, n = self.pair_masks(), self.n
            codeg = self._codegrees.tolist()
            profile = [hash(tuple(sorted(c))) for c in codeg]
            alike: dict[int, int] = {}
            for v, key in enumerate(profile):
                alike[key] = alike.get(key, 0) | 1 << v
            twins, unseen = {}, (1 << n) - 1
            while unseen:
                u = (unseen & -unseen).bit_length() - 1
                c = 1 << u
                for v in _iter_bits(alike[profile[u]] & unseen & ~c):
                    cv, rv = codeg[v][:], list(rows[v])
                    cv[u], cv[v], rv[u], rv[v] = cv[v], cv[u], rv[v], rv[u]
                    if codeg[u] == cv and all(map({0, (1 << u) | (1 << v)}.__contains__,
                                                  map(int.__xor__, rows[u], rv))):
                        c |= 1 << v
                unseen &= ~c
                if c & (c - 1):
                    twins.update(dict.fromkeys(_iter_bits(c), c))
            self._twins, self._later_twins = twins, sum(c & (c - 1) for c in set(twins.values()))
        return self._twins

    def pair_mask(self, u: int, v: int) -> int:
        """Vertex bitmap of the joint neighbourhood of the pair {u,v}."""
        if u == v:
            raise ValueError(f"pair has a repeated vertex: {(u, v)}")
        self._check_vertex(u)
        self._check_vertex(v)
        return self.pair_masks()[u][v]

    def codegree(self, u: int, v: int) -> int:
        """Number of edges containing both u and v."""
        return self.pair_mask(u, v).bit_count()

    def min_codegree(self) -> int:
        """Minimum codegree over all pairs; 0 when there are no pairs."""
        self.pair_masks()
        return int(self._codegrees.min()) if self.n > 1 else 0

    def link_graph(self, x: int) -> "LinkGraph":
        self._check_vertex(x)
        return LinkGraph(x, self.pair_masks()[x])

    def complement(self) -> "Hypergraph3":
        full = (1 << comb(self.n, 3)) - 1
        return Hypergraph3(self.n, full & ~self.bits)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypergraph3) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, edges={self.num_edges})"

    def _check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range 0..{self.n - 1}")


class LinkGraph:
    """The link of x: the pairs uv with uvx an edge of the owning graph.

    A view of row x of the owner's pair table, whose entry u is the bitmap of
    u's neighbours in the link.  Pair questions go to the owner g:
    ``g.contains(u, v, x)``, ``g.pair_mask(x, u)`` and ``g.codegree(x, u)``.
    """

    __slots__ = ("n", "x", "_row")

    def __init__(self, x: int, row: tuple[int, ...]):
        self.n = len(row)
        self.x = x
        self._row = row

    def first_triangle(self) -> Optional[tuple[int, int, int]]:
        """Lexicographically first (a,b,c) with all three pairs present."""
        adj = self._row
        for a in range(self.n):
            for b in _iter_bits(adj[a] & -(1 << (a + 1))):
                common = adj[a] & adj[b] & -(1 << (b + 1))
                if common:
                    return a, b, (common & -common).bit_length() - 1
        return None

    def __repr__(self) -> str:
        return f"LinkGraph(x={self.x}, pairs={sum(adj.bit_count() for adj in self._row) // 2})"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


# -- serialization ----------------------------------------------------------


def _h3_text(g: Hypergraph3, fmt: str) -> Iterator[str]:
    """The .h3 text of g, a block at a time."""
    if fmt == "text":
        # cell [j][v] is v and column j's separator, NUL-padded: each block of rows is one gather,
        # which drops its padding
        cells = np.array([[f"{v}{s}" for v in range(g.n)] for s in "  \n"], dtype=f"S{len(str(g.n)) + 1}")
        yield f"{g.n} {g.num_edges}\n"
        for t in _row_blocks(g.edge_array()):
            yield cells[np.arange(3), t].tobytes().translate(None, b"\0").decode()
    elif fmt == "hex":
        yield from (f"n: {g.n}\n", f"{g.bits:0{max(1, (comb(g.n, 3) + 3) // 4)}x}", "\n")
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'hex')")


def dumps_h3(g: Hypergraph3, fmt: str = "text") -> str:
    return "".join(_h3_text(g, fmt))


def loads_h3(text: str) -> Hypergraph3:
    if "\r" in text:  # line ends as a text-mode open reads them: \r\n and a bare \r become \n
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _read_h3(text)


_DIGITS, _SPACE = "0123456789", " \t\n\r\v\f\x1c\x1d\x1e\x1f"
_HEX = _DIGITS + "abcdefABCDEF"


def _only(text: str, chars: str, what: str) -> str:
    """text, if it holds no character outside the ASCII chars: int() also takes signs, '_',
    a 0x prefix and non-ASCII digits, loadtxt signs, and some numpy versions cast 1.9 to int"""
    if bad := text.encode().translate(None, chars.encode()):
        raise ValueError(f"{what}, found {bad.decode()[0]!r}")
    return text


def _count(text: str) -> int:
    """A count given from outside the program: ASCII decimal digits, leading zeros read by value."""
    return int(_only(text, _DIGITS, "a count holds only ASCII decimal digits"))


def _seconds(text: str) -> float:
    """A time given from outside the program: ASCII decimal digits, at least one, and at most one '.'."""
    if not re.fullmatch(r"(?=.*[0-9])[0-9]*\.?[0-9]*", text):
        raise ValueError(f"seconds are ASCII decimal digits with at most one '.', found {text!r}")
    return float(text)


_count.__name__, _seconds.__name__ = "count", "seconds"  # argparse reports "invalid count value"


def _text_blocks(text: str, lo: int, hexform: bool) -> Iterator[str]:
    """text from index lo in blocks of whole lines, each of at least _BLOCK characters but the last; in
    the hex form a block with no '#' in it ends between two hex digits instead, in a line's run of them"""
    while lo < len(text):
        hi = lo + _BLOCK
        if not (hexform and text.find("#", lo, hi) < 0 and not text[hi - 1:hi + 1].strip(_HEX)):
            hi = text.find("\n", hi) + 1 or len(text)
        yield text[lo:hi]
        lo = hi


# the lines before the header: whitespace alone, or a comment after it
_BLANK = re.compile(r"(?:[^\S\n]*(?:#[^\n]*)?\n)*")


def _read_h3(text: str, path: Optional[str] = None) -> Hypergraph3:
    # the text is read in blocks: no copy of it is made but one block at a time
    start = _BLANK.match(text).end()
    end = len(text) if (end := text.find("\n", start)) < 0 else end
    head = text[start:end].partition("#")[0].lstrip()
    if not head:
        raise ValueError("empty .h3 input")
    hexform = head.startswith("n:")  # a header of one count, n; the edge-list header holds n and m
    counts = _only(head.removeprefix("n:"), _DIGITS + _SPACE,
                   "the header holds only unsigned decimal counts").split()
    if len(counts) != (1 if hexform else 2):
        raise ValueError(f"bad header line {head!r}: expected 'n m' or 'n: <count>'")
    n, m = _count(counts[0]), _count(counts[-1])
    skip, parts, edges = text.count("\n", 0, start) + 1, [], False
    for block in _text_blocks(text, end + 1, hexform):
        block = re.sub(r"#[^\n]*", "", block) if "#" in block else block
        if hexform:  # a line ends at \n alone (loads_h3 turns \r\n and \r into it); strip() takes non-ASCII spaces
            digits = _only("".join(line.strip(_SPACE) for line in block.split("\n")), _HEX,
                           "a bitmap line holds only hex digits, with whitespace only around them")
            parts += [(int(digits, 16), len(digits))] if digits else []
        else:
            what = "edge lines hold only unsigned decimal vertices"
            edges |= bool(block) and not _only(block, _DIGITS + _SPACE, what).isspace()
    if hexform:  # the bitmap is its blocks' digits in order: (value, digits) pairs joined level by level
        while len(parts) > 1:
            pairs = zip(parts[::2], parts[1::2])
            parts = [(a << 4 * lb | b, la + lb) for (a, la), (b, lb) in pairs] + parts[len(parts) & ~1:]
        return Hypergraph3(n, parts[0][0] if parts else 0)
    # loadtxt raises ValueError on a bad token or ragged lines, but warns on a blank body; it reads
    # a named file in chunks, skipping the lines up to the header, and any other source line by line
    t = np.zeros((0, 3), np.int16)
    if edges:  # int16, as the edge array: a larger vertex raises
        source = path or (line for block in _text_blocks(text, end + 1, False) for line in block.split("\n"))
        del text  # a named file is parsed with no copy of its text alive
        t = np.loadtxt(source, dtype=np.int16, ndmin=2, skiprows=skip if path else 0, encoding="ascii")
    if t.shape != (m, 3):
        raise ValueError(f"header promises {m} edges, found {t.shape[0]} lines of {t.shape[1]} vertices")
    bits, ascending = _bitmap(n, t)
    g = Hypergraph3(n, bits)
    if ascending:  # dumps_h3 writes rank order: the parsed rows are the edge array, and no reader decodes
        g._triples, t.flags.writeable = t, False
        return g
    if bits.bit_count() < m:  # an edge listed twice: sorted, the least such rank is adjacent to itself
        ranks = np.sort(_rank_rows(n, t))
        twice = _rows(n, ranks[1:][ranks[1:] == ranks[:-1]][:1])[0]
        raise ValueError(f"edge {' '.join(map(str, twice.tolist()))} is listed twice")
    return g


def write_h3(g: Hypergraph3, path, fmt: str = "text") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_h3_text(g, fmt))


def load_h3(path) -> Hypergraph3:
    with open(path, "r", encoding="ascii") as fh:
        # numpy re-opens the file by its name, made absolute (a str it can parse as a URL it would
        # download); it cannot re-read a pipe or an fd, and it would decompress these suffixes
        plain = isinstance(fh.name, str) and fh.seekable() and not fh.name.endswith((".gz", ".bz2", ".xz", ".lzma"))
        return _read_h3(fh.read(), os.path.join(os.getcwd(), fh.name) if plain else None)
