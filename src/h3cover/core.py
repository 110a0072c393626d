"""3-uniform hypergraphs on vertices 0..n-1 with bitmap edge storage.

The edge set of a graph is a single Python integer: bit ``rank({a<b<c})`` is
set exactly when the triple is an edge, where

    rank({a<b<c}) = a + C(b,2) + C(c,3)

is the colexicographic rank, so {0,1,2} is bit 0 and {n-3,n-2,n-1} is bit
C(n,3)-1.  That integer is the canonical, hashable value; graphs are immutable
and safe to share across threads.  One codec converts it to and from one bool
flag per rank: ``_pack`` packs flags into the int, and ``_set_bits`` unpacks
its bytes at once and returns the set flags, the edge ranks.  Every view reads
one int16 array of triples in colex order, built once, lazily (``edge_array``).
Its build is chosen by size: a graph on at most ``_SMALL_N`` vertices scans its
C(n,3) ranks in colex order in Python and hands numpy the edges in one call;
a larger one decodes its edge ranks in blocks of one top vertex c from rank
C(c,3), with a colex pair table for the rest, and a construction decodes the
flags it packs the same way.  A text read skips both: the array of a graph read
is the rows of one ``np.loadtxt`` call, put in rank order (numpy parses the file
``load_h3`` names in chunks, the text given to ``loads_h3`` line by line).
``dumps_h3`` is a numpy pass over it: it gathers each block of rows' text cells
from a per-vertex table of NUL-padded byte strings in one index and drops the
block's padding.  ``contains`` reads one bit of the int; ``from_triples`` ranks
whole vertex arrays at once.

Every pair query reads one table, built lazily (``pair_masks``).  Above
``_SMALL_N`` vertices the edge array flags a bool matrix of pairs by vertices in
one flat scatter per pair column, ``np.packbits`` packs each row into 64-bit
words, and each word column becomes Python ints at once; a smaller graph ORs
the bits of its scanned edges into the entries in Python.  Entry [u][v] is the
vertex bitmap of the joint neighbourhood of u and v.  ``pair_mask`` and
``codegree`` read one entry, and ``min_codegree`` the least of the codegrees
counted while the table is built; a ``LinkGraph`` is one row, and the
embedding searches of ``patterns`` index the table directly.  The same table
splits the vertices into twin classes (``twin_classes``), cached beside it.

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

import io
import os
import re
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

# edges() turns this many rows of the edge array into tuples at a time, dumps_h3 into text
_CHUNK = 4096


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
    """(m, 3) int16 array of the sorted triples with the given ascending int64 colex
    ranks, which become pair ranks in place: the ranks with top vertex c are a block
    from C(c,3), and a colex table of the pairs up to the largest top vertex reads the rest."""
    c2, c3 = _binomials(n + 1)
    k = int(np.searchsorted(c3, ranks[-1], side="right")) if len(ranks) else 0  # the top vertices are below k
    top = np.repeat(np.arange(k, dtype=np.int16), np.diff(np.searchsorted(ranks, c3[:k + 1])))
    ranks -= c3[top]
    b_of = np.repeat(np.arange(k, dtype=np.int16), np.arange(k))  # b repeated over its b pair ranks from C(b,2)
    a_of = (np.arange(len(b_of)) - c2[b_of]).astype(np.int16)
    out = np.empty((len(ranks), 3), dtype=np.int16)
    out[:, 0], out[:, 1], out[:, 2] = a_of[ranks], b_of[ranks], top
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


def _bitmap(ranks: np.ndarray) -> int:
    """The int with exactly the bits at the given positions set."""
    flags = np.zeros(int(ranks.max()) + 1 if len(ranks) else 0, dtype=bool)
    flags[ranks] = True
    return _pack(flags)


# Up to this many vertices a graph builds its edge rows and pair table in Python from the bitmap.
# Both builds timed for n = 5..20 at densities 0.1 to 1: the Python one is the faster up to n = 13
# in freshly imported code, where each numpy call is slow the first time, and up to n = 9 warmed up
_SMALL_N = 9


def _colex_edges(n: int, bits: int) -> list[tuple[int, int, int]]:
    """The edges of a small graph as sorted triples: one scan of the C(n,3) ranks in colex order."""
    colex = ((a, b, c) for c in range(n) for b in range(c) for a in range(b))
    return [t for r, t in enumerate(colex) if bits >> r & 1]


def _set_bits(bits: int) -> np.ndarray:
    """Ascending positions of the set bits of a bitmap: one flag per bit up to the highest, unpacked at once."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _with_rows(n: int, bits: int, t: np.ndarray) -> "Hypergraph3":
    """The graph of the bitmap bits, handed its edge array t: the rows of its set bits, in rank order."""
    g = Hypergraph3(n, bits)
    g._triples = t
    t.flags.writeable = False
    return g


class Hypergraph3:
    """An immutable 3-graph: a vertex count and an edge bitmap."""

    __slots__ = ("n", "bits", "_triples", "_pair_masks", "_codegrees", "_twins")

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

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[Sequence[int]]) -> "Hypergraph3":
        try:
            t = np.array(list(triples), dtype=np.int16)
        except OverflowError:
            raise ValueError(f"vertex out of range 0..{n - 1}") from None
        if t.size and t.shape[1:] != (3,):
            raise ValueError(f"not a sequence of vertex triples (array shape {t.shape})")
        return cls(n, _bitmap(_rank_rows(n, t.reshape(-1, 3))))

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 3) int16 array of sorted triples, in colex order."""
        if self._triples is None:
            if self.n <= _SMALL_N:
                self._triples = np.array(_colex_edges(self.n, self.bits), dtype=np.int16).reshape(-1, 3)
            else:  # the bitmap's set bits are the edge ranks
                self._triples = _rows(self.n, _set_bits(self.bits))
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
        """Edges as sorted triples, in colex (ascending rank) order."""
        t = self.edge_array()
        for lo in range(0, len(t), _CHUNK):
            yield from map(tuple, t[lo:lo + _CHUNK].tolist())

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
            # row r flags the neighbours of the pair of rank r; row C(n,2) stays 0 for the diagonal
            n, t, rows = self.n, self.edge_array(), comb(self.n, 2) + 1
            c2, at = _binomials(n)[0], np.empty(len(t), dtype=np.intp)
            flags = np.zeros(rows * n, dtype=bool)
            for i, j, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                np.add(c2.take(t[:, j]), t[:, i], out=at)
                at *= n
                at += t[:, r]
                flags[at] = True
            k = max(1, -(-n // 64))  # each row as k little-endian 64-bit words
            words = np.zeros((rows, k), dtype="<u8")
            words.view(np.uint8)[:, :(n + 7) // 8] = np.packbits(flags.reshape(rows, n), axis=1, bitorder="little")
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
            self._twins = twins
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
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self.bits == other.bits
        )

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


def dumps_h3(g: Hypergraph3, fmt: str = "text") -> str:
    if fmt == "text":
        # cell [j][v] is v and column j's separator, NUL-padded; a block of rows is one gather,
        # and each block drops its padding, so at most two copies of the text are alive at once
        cells = np.array([[f"{v}{s}" for v in range(g.n)] for s in "  \n"], dtype=f"S{len(str(g.n)) + 1}")
        t, cols = g.edge_array(), np.arange(3)
        blocks = (cells[cols, t[lo:lo + _CHUNK]].tobytes() for lo in range(0, len(t), _CHUNK))
        return "".join([f"{g.n} {g.num_edges}\n", *(b.translate(None, b"\0").decode() for b in blocks)])
    if fmt == "hex":
        width = max(1, (comb(g.n, 3) + 3) // 4)
        return f"n: {g.n}\n{g.bits:0{width}x}\n"
    raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'hex')")


def loads_h3(text: str) -> Hypergraph3:
    if "\r" in text:  # line ends as a text-mode open reads them: \r\n and a bare \r become \n
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _read_h3(text)


_DIGITS, _SPACE = "0123456789", " \t\n\r\v\f\x1c\x1d\x1e\x1f"


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


def _read_h3(text: str, path: Optional[str] = None) -> Hypergraph3:
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    head, _, body = text.lstrip().partition("\n")
    if not head:
        raise ValueError("empty .h3 input")
    hexform = head.startswith("n:")  # a header of one count, n; the edge-list header holds n and m
    counts = _only(head.removeprefix("n:"), _DIGITS + _SPACE,
                   "the header holds only unsigned decimal counts").split()
    if len(counts) != (1 if hexform else 2):
        raise ValueError(f"bad header line {head!r}: expected 'n m' or 'n: <count>'")
    n, m = _count(counts[0]), _count(counts[-1])
    if hexform:
        # a line ends at \n alone (loads_h3 turns \r\n and \r into it); str.strip() would take a non-ASCII space
        hexstr = _only("".join(line.strip(_SPACE) for line in body.split("\n")), _DIGITS + "abcdefABCDEF",
                       "a bitmap line holds only hex digits, with whitespace only around them")
        return Hypergraph3(n, int(hexstr, 16) if hexstr else 0)
    _only(body, _DIGITS + _SPACE, "edge lines hold only unsigned decimal vertices")
    # loadtxt raises ValueError on a bad token or ragged lines, but warns on a blank body; it reads
    # a named file in chunks, skipping the lines up to the header, and any other source line by line
    t = np.zeros((0, 3), np.int16)
    if body and not body.isspace():  # int16, as the edge array: a larger vertex raises
        source, skip = (path, text.count("\n", 0, text.index(head)) + 1) if path else (io.StringIO(body), 0)
        del text, body  # the text is dead before the parse
        t = np.loadtxt(source, dtype=np.int16, ndmin=2, skiprows=skip, encoding="ascii")
    if t.shape != (m, 3):
        raise ValueError(f"header promises {m} edges, found {t.shape[0]} lines of {t.shape[1]} vertices")
    ranks = _rank_rows(n, t)
    if not (ranks[1:] > ranks[:-1]).all():  # dumps_h3 writes rank order; sorted, a repeat is adjacent
        order = ranks.argsort()
        ranks, t = ranks[order], t[order]
        if (twice := np.flatnonzero(ranks[1:] == ranks[:-1])).size:
            raise ValueError(f"edge {' '.join(map(str, t[twice[0]].tolist()))} is listed twice")
    return _with_rows(n, _bitmap(ranks), t)  # the parsed rows: no reader of the file decodes the bitmap


def write_h3(g: Hypergraph3, path, fmt: str = "text") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_h3(g, fmt))


def load_h3(path) -> Hypergraph3:
    with open(path, "r", encoding="ascii") as fh:
        # numpy re-opens the file by its name, made absolute (a str it can parse as a URL it would
        # download); it cannot re-read a pipe or an fd, and it would decompress these suffixes
        plain = isinstance(fh.name, str) and fh.seekable() and not fh.name.endswith((".gz", ".bz2", ".xz", ".lzma"))
        return _read_h3(fh.read(), os.path.join(os.getcwd(), fh.name) if plain else None)
