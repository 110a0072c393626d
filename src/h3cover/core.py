"""3-uniform hypergraphs on vertices 0..n-1 with bitmap edge storage.

The edge set of a graph is a single Python integer: bit ``rank({a<b<c})`` is
set exactly when the triple is an edge, where

    rank({a<b<c}) = a + C(b,2) + C(c,3)

is the colexicographic rank, so {0,1,2} is bit 0 and {n-3,n-2,n-1} is bit
C(n,3)-1.  That integer is the canonical, hashable value; graphs are
immutable and safe to share across threads.  One decode path serves every
view: a graph turns its set bits (the edge ranks) into an int16 array of
triples once, lazily, by binary search in the binomial columns C(v,2), C(v,3)
(``edge_array``).  Reading skips it: the rows of one ``np.loadtxt`` call,
ranked and put in rank order, are the array; numpy parses the file that
``load_h3`` names in chunks, and the text given to ``loads_h3`` line by line.
Degrees and ``dumps_h3`` are numpy passes over it; the writer gathers each
block of rows' text cells from a per-vertex table of NUL-padded byte strings
in one index and drops the block's padding.  ``contains`` reads one bit;
``from_triples`` ranks whole vertex arrays at once.

Every pair query reads one table, built lazily from the same array
(``pair_masks``): the edges flag a bool matrix of pairs by vertices, and
``np.packbits`` packs each row.  Entry [u][v] is the vertex bitmap of the
joint neighbourhood of u and v.  ``pair_mask``, ``codegree`` and
``neighborhood`` read one entry, ``min_codegree`` the least popcount, a
``LinkGraph`` is one row, and the embedding searches of ``patterns`` index
the table directly.  The same table splits the vertices into twin classes
(``twin_classes``), cached beside it.

Two interchangeable text encodings are supported by ``dumps_h3``/``loads_h3``:

* edge-list form: a header line ``n m`` followed by m lines ``a b c`` with
  0-based unsigned vertices ascending within each line.  ``#`` starts a
  comment and blank lines are ignored; a line ends at ``\n``, ``\r\n`` or a
  bare ``\r``, after which more text on the same line is an error.  Edges are
  written in colex order; an edge listed twice is an error.
* hex form: a header line ``n: <vertices>`` followed by the raw edge bitmap
  as a hex string (most significant digits first; may wrap over lines).

Both forms round-trip bit-exactly.  Their numbers are ASCII digits (hex digits in
the bitmap) between ASCII whitespace, with no sign, ``_`` or ``0x`` prefix.
"""

from __future__ import annotations

import io
import os
import re
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Hypergraph3",
    "LinkGraph",
    "triple_rank",
    "triple_table",
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


def _unrank(n: int, ranks: np.ndarray) -> np.ndarray:
    """(len(ranks), 3) int16 array of the sorted triples with the given colex
    ranks: the largest vertex is found in the binomial column by binary
    search, the rest of the rank ranks the smaller two the same way."""
    c2, c3 = _binomials(n)
    out = np.empty((len(ranks), 3), dtype=np.int16)
    rest = ranks.astype(np.int64)
    for col, binom in ((2, c3), (1, c2)):
        out[:, col] = np.searchsorted(binom, rest, side="right") - 1
        rest -= binom[out[:, col]]
    out[:, 0] = rest
    return out


def triple_table(n: int) -> np.ndarray:
    """Fresh (C(n,3), 3) int16 array whose row r is the sorted triple of colex rank r."""
    return _unrank(n, np.arange(comb(n, 3)))


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


def _bitmap(ranks: np.ndarray) -> int:
    """The int with exactly the bits at the given positions set."""
    flags = np.zeros(int(ranks.max()) + 1 if len(ranks) else 0, dtype=bool)
    flags[ranks] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _set_bits(raw: bytes) -> np.ndarray:
    """Ascending positions of the set bits of a little-endian bitmap."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    nonzero = np.flatnonzero(buf)
    byte, bit = np.nonzero(np.unpackbits(buf[nonzero, None], axis=1, bitorder="little"))
    return nonzero[byte] * 8 + bit


class Hypergraph3:
    """An immutable 3-graph: a vertex count and an edge bitmap."""

    __slots__ = ("n", "bits", "_raw", "_triples", "_pair_masks", "_twins")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if bits < 0 or bits >> comb(n, 3):
            raise ValueError(f"edge bitmap does not fit in {comb(n, 3)} bits")
        self.n = n
        self.bits = bits
        self._raw: Optional[bytes] = None
        self._triples: Optional[np.ndarray] = None
        self._pair_masks: Optional[tuple[tuple[int, ...], ...]] = None
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

    def _bitmap_bytes(self) -> bytes:
        # little-endian, up to the byte holding the highest edge
        if self._raw is None:
            self._raw = self.bits.to_bytes((self.bits.bit_length() + 7) // 8, "little")
        return self._raw

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 3) int16 array of sorted triples, in colex order."""
        if self._triples is None:
            # the one decode: the bitmap's set bits are the edge ranks
            self._triples = _unrank(self.n, _set_bits(self._bitmap_bytes()))
            self._triples.flags.writeable = False
        return self._triples

    # -- basic queries ----------------------------------------------------

    def contains(self, a: int, b: int, c: int) -> bool:
        """Edge membership; invariant under permutation of the arguments."""
        if len({a, b, c}) != 3 or not all(0 <= v < self.n for v in (a, b, c)):
            raise ValueError(f"not a valid triple on {self.n} vertices: {(a, b, c)}")
        r, raw = triple_rank(a, b, c), self._bitmap_bytes()
        return r >> 3 < len(raw) and raw[r >> 3] >> (r & 7) & 1 == 1

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
        if self._pair_masks is None:
            # row r flags the neighbours of the pair of rank r; row C(n,2) stays 0 for the diagonal
            n, t = self.n, self.edge_array()
            c2 = _binomials(n)[0]
            keys = np.concatenate([c2[t[:, j]] + t[:, i] for i, j in ((0, 1), (0, 2), (1, 2))])
            flags = np.zeros((comb(n, 2) + 1, n), dtype=bool)
            flags[keys, np.concatenate([t[:, 2], t[:, 1], t[:, 0]])] = True
            packed = np.packbits(flags, axis=1, bitorder="little")
            masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
            v = np.arange(n)
            rank = c2[np.maximum.outer(v, v)] + np.minimum.outer(v, v)
            np.fill_diagonal(rank, comb(n, 2))
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
            codeg = [list(map(int.bit_count, row)) for row in rows]
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
                    if codeg[u] == cv and set(map(int.__xor__, rows[u], rv)) <= {0, (1 << u) | (1 << v)}:
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

    def neighborhood(self, u: int, v: int) -> tuple[int, ...]:
        """Sorted vertices w such that uvw is an edge."""
        return tuple(_iter_bits(self.pair_mask(u, v)))

    def _degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array().ravel(), minlength=self.n)

    def degree(self, x: int) -> int:
        """Number of edges containing x."""
        self._check_vertex(x)
        return int(self._degrees()[x])

    def min_codegree(self) -> int:
        """Minimum codegree over all pairs; 0 when there are no pairs."""
        table = self.pair_masks()
        return min((mask.bit_count() for u, row in enumerate(table) for mask in row[u + 1:]), default=0)

    def min_degree(self) -> int:
        return int(self._degrees().min()) if self.n else 0

    def link_graph(self, x: int) -> "LinkGraph":
        self._check_vertex(x)
        return LinkGraph(x, self.pair_masks()[x])

    def is_independent(self, vertices: Iterable[int]) -> bool:
        """True iff no triple inside the given vertex set is an edge."""
        vs = sorted(set(vertices))
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            raise ValueError("vertex out of range")
        return not any(self.contains(a, b, c) for a, b, c in combinations(vs, 3))

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
    ``g.contains(u, v, x)``, ``g.pair_mask(x, u)``, ``g.codegree(x, u)`` and
    ``g.degree(x)``, the link's pair count.
    """

    __slots__ = ("n", "x", "_row")

    def __init__(self, x: int, row: tuple[int, ...]):
        self.n = len(row)
        self.x = x
        self._row = row

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs u < v, in colex order (by v, then u)."""
        for v, adj in enumerate(self._row):
            for u in _iter_bits(adj & ((1 << v) - 1)):
                yield u, v

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
    return _read_h3(text)


_DIGITS, _SPACE = b"0123456789", b" \t\n\r\v\f\x1c\x1d\x1e\x1f"


def _only(text: str, chars: bytes, what: str) -> str:
    """text, if it holds no character outside the ASCII chars: int() also takes signs, '_',
    a 0x prefix and non-ASCII digits, loadtxt signs, and some numpy versions cast 1.9 to int"""
    if bad := text.encode().translate(None, chars):
        raise ValueError(f"{what}, found {bad.decode()[0]!r}")
    return text


def _count(text: str) -> int:
    """A count given from outside the program: ASCII decimal digits, leading zeros read by value."""
    return int(_only(text, _DIGITS, "a count holds only ASCII decimal digits"))


_count.__name__ = "count"  # argparse names the type of an option value it refuses by __name__


def _read_h3(text: str, path: Optional[str] = None) -> Hypergraph3:
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    head, _, body = text.lstrip().partition("\n")
    if not head:
        raise ValueError("empty .h3 input")
    if head.startswith("n:"):
        n = int(_only(head[2:], _DIGITS + _SPACE, "the header holds only unsigned decimal counts"))
        body = _only(body, _DIGITS + b"abcdefABCDEF" + _SPACE, "the bitmap holds only hex digits")
        hexstr = "".join(line.strip() for line in body.splitlines())
        return Hypergraph3(n, int(hexstr, 16) if hexstr else 0)
    parts = _only(head, _DIGITS + _SPACE, "the header holds only unsigned decimal counts").split()
    if len(parts) != 2:
        raise ValueError(f"bad header line {head!r}: expected 'n m' or 'n: <count>'")
    n, m = map(int, parts)
    _only(body, _DIGITS + _SPACE, "edge lines hold only unsigned decimal vertices")
    # loadtxt raises ValueError on a bad token or ragged lines, but warns on a blank body; it reads
    # a named file in chunks, skipping the lines up to the header, and any other source line by line
    t = np.zeros((0, 3), np.int16)
    if body.strip():  # int16, as the edge array: a larger vertex raises
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
    g = Hypergraph3(n, _bitmap(ranks))
    g._triples = t  # the parsed rows: no reader of the file decodes the bitmap
    t.flags.writeable = False
    return g


def write_h3(g: Hypergraph3, path, fmt: str = "text") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_h3(g, fmt))


def load_h3(path) -> Hypergraph3:
    with open(path, "r", encoding="ascii") as fh:
        # numpy re-opens the file by its name, made absolute (a str it can parse as a URL it would
        # download); it cannot re-read a pipe or an fd, and it would decompress these suffixes
        plain = isinstance(fh.name, str) and fh.seekable() and not fh.name.endswith((".gz", ".bz2", ".xz", ".lzma"))
        return _read_h3(fh.read(), os.path.join(os.getcwd(), fh.name) if plain else None)
