"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from first principles (explicit loops over edge
lists, permutations, and subsets) and deliberately avoids the cached fast
paths inside the package, so a test that compares the two exercises a real
dual route.
"""

from collections import Counter
from itertools import combinations, permutations

from h3cover import Hypergraph3, triple_rank


def triples_of(g):
    """Edges read straight off the bitmap: each triple whose rank bit is set, in colex order."""
    ranked = sorted(combinations(range(g.n), 3), key=lambda t: triple_rank(*t))
    bits = bin(g.bits)[:1:-1]  # bit r is character r; a shift per rank would copy the bitmap each time
    return [t for r, t in enumerate(ranked) if r < len(bits) and bits[r] == "1"]


def loads_h3(text):
    """The edge-list .h3 reader, one line at a time: ``#`` starts a comment, blank
    lines are skipped, the first line left is the header ``n m``, and every other
    line is three distinct unsigned decimal vertices below n, no triple twice."""
    lines = [line.split("#", 1)[0].strip() for line in text.split("\n")]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty .h3 input")
    head, body = lines[0], lines[1:]
    n, m = map(int, head.split())  # a header of other than two numbers raises too
    ranks = set()
    for line in body:
        tokens = line.split()
        if len(tokens) != 3 or not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"bad edge line {line!r}")
        a, b, c = map(int, tokens)
        if len({a, b, c}) != 3 or max(a, b, c) >= n:
            raise ValueError(f"not a triple on {n} vertices: {line!r}")
        if triple_rank(a, b, c) in ranks:
            raise ValueError(f"edge {line!r} listed twice")
        ranks.add(triple_rank(a, b, c))
    if len(ranks) != m:
        raise ValueError(f"header promises {m} edges, found {len(ranks)}")
    return Hypergraph3(n, sum(1 << r for r in ranks))


def dumps_h3(g):
    """The edge-list .h3 writer, one edge at a time: the header ``n m``, then a line
    ``a b c`` for each set bit, walking the triples a < b < c in colex (rank) order."""
    bits, lines, rank = bin(g.bits)[:1:-1], [], 0
    for c in range(g.n):
        for b in range(c):
            for a in range(b):
                if rank < len(bits) and bits[rank] == "1":
                    lines.append("%d %d %d\n" % (a, b, c))
                rank += 1
    return f"{g.n} {len(lines)}\n" + "".join(lines)


def codegree(g, u, v):
    return sum(1 for e in triples_of(g) if u in e and v in e)


def pair_table(g):
    """The pair table edge by edge: entry [u][v] gains the bit w for each edge uvw; [u][u] stays 0."""
    table = [[0] * g.n for _ in range(g.n)]
    for a, b, c in triples_of(g):
        for u, v, w in permutations((a, b, c)):
            table[u][v] |= 1 << w
    return table


def min_codegree(g):
    """The least number of edges through a pair, counted edge by edge; 0 when there are no pairs."""
    count = Counter(pair for e in triples_of(g) for pair in combinations(e, 2))
    return min((count[pair] for pair in combinations(range(g.n), 2)), default=0)


def embeds_through(host, x, pat):
    """Brute force over all injective maps: is some pattern image through x?"""
    pedges = triples_of(pat.graph)
    hedges = set(triples_of(host))
    for img in permutations(range(host.n), pat.f):
        if x not in img:
            continue
        if all(tuple(sorted((img[a], img[b], img[c]))) in hedges for a, b, c in pedges):
            return True
    return False


def uncovered(host, pat):
    return tuple(x for x in range(host.n) if not embeds_through(host, x, pat))


def degeneracy(g):
    """(r, ordering) by elimination, every edge rescanned at each step: delete the live vertex of
    least live degree, the lowest on a tie; r is the largest degree deleted, the ordering the
    deletions reversed."""
    edges, alive, order_rev, r = triples_of(g), set(range(g.n)), [], 0
    while alive:
        deg = dict.fromkeys(alive, 0)
        for e in edges:
            if alive.issuperset(e):
                for v in e:
                    deg[v] += 1
        pick = min(alive, key=lambda v: (deg[v], v))
        r = max(r, deg[pick])
        order_rev.append(pick)
        alive.remove(pick)
    return r, tuple(reversed(order_rev))


def degeneracy_r(g):
    """Max over all edge subsets of the min degree on the subset's support."""
    edges = triples_of(g)
    best = 0
    for k in range(1, len(edges) + 1):
        for sub in combinations(edges, k):
            support = {v for e in sub for v in e}
            deg = {v: 0 for v in support}
            for e in sub:
                for v in e:
                    deg[v] += 1
            best = max(best, min(deg.values()))
    return best


def link_degrees_ordered(g):
    """Do the degrees of 0, 1, ..., n - 2 in the link of n - 1 never increase?"""
    degrees = [codegree(g, v, g.n - 1) for v in range(g.n - 1)]
    return all(d >= e for d, e in zip(degrees, degrees[1:]))


def c2_brute(pat, n, hypergraph_cls):
    """Exhaustive threshold by scanning every bitmap with permutation embedding.

    Returns (value, witness): the value is the largest minimum codegree of a
    host that leaves some vertex uncovered, and the witness the least bitmap
    at that value whose host leaves vertex n - 1 uncovered and has link
    degrees of n - 1 that do not increase with the vertex.
    """
    from math import comb

    hosts = []  # (min codegree, bitmap, is a witness candidate) of every host leaving a vertex uncovered
    for bits in range(1 << comb(n, 3)):
        g = hypergraph_cls(n, bits)
        last_uncovered = not embeds_through(g, n - 1, pat)
        if last_uncovered or not all(embeds_through(g, x, pat) for x in range(n - 1)):
            hosts.append((min_codegree(g), bits, last_uncovered and link_degrees_ordered(g)))
    value = max(val for val, _, _ in hosts)
    return value, min(bits for val, bits, candidate in hosts if val == value and candidate)


def copies(pat, n):
    """(edge bitmap, vertex bitmap) of every copy of the pattern in K_n, one
    injective map of its vertices into range(n) at a time, without repeats."""
    pedges = triples_of(pat.graph)
    return sorted({
        (sum(1 << triple_rank(img[a], img[b], img[c]) for a, b, c in pedges), sum(1 << v for v in img))
        for img in permutations(range(n), pat.f)
    })


def search_nodes(pat, n, value, witness_bits):
    """Nodes a descending-target exact search visits before it stops.

    A node decides every triple of rank >= r, for some r (the root decides
    none).  For a target t it is visited when no pair lies in more than
    n - 2 - t of its absent triples, no copy of the pattern whose vertices
    hold n - 1 has all its edges present in it, and no two vertices v, v + 1
    below n - 1 whose pairs with n - 1 have all their triples decided have
    deg(v) < deg(v + 1) in the link of n - 1.  Every such node counts
    for each target above the value; for the value, only those at or before
    the witness in depth-first order, absent before present, which are the
    ones whose present triples read as a number at most the witness's present
    triples of rank >= r.
    """
    from math import comb

    m = comb(n, 3)
    triples = sorted(combinations(range(n), 3), key=lambda t: triple_rank(*t))
    pairs = list(combinations(range(n), 2))
    last_copies = [edges for edges, verts in copies(pat, n) if verts >> (n - 1) & 1]
    count = 0
    for target in range(n - 2, value - 1, -1):
        for r in range(m + 1):
            for high in range(1 << (m - r)):
                decided = high << r
                if target == value and decided > witness_bits >> r << r:
                    continue
                absent = [triples[k] for k in range(r, m) if not decided >> k & 1]
                if any(sum(1 for t in absent if u in t and v in t) > n - 2 - target for u, v in pairs):
                    continue
                if any(edges & decided == edges for edges in last_copies):
                    continue
                present = [triples[k] for k in range(r, m) if decided >> k & 1]
                final = [
                    sum(1 for t in present if v in t and n - 1 in t)
                    if all(triple_rank(v, w, n - 1) >= r for w in range(n - 1) if w != v) else None
                    for v in range(n - 1)
                ]
                if not any(d is not None and e is not None and d < e for d, e in zip(final, final[1:])):
                    count += 1
    return count


def clique_number(h):
    """The most vertices whose triples are all edges, trying every vertex set from
    the largest down; any two vertices count."""
    edges = set(triples_of(h))
    for size in range(h.n, 2, -1):
        for s in combinations(range(h.n), size):
            if all(t in edges for t in combinations(s, 3)):
                return size
    return min(h.n, 2)


def labelled_triples(label, keep):
    """Triples of 0..len(label)-1 whose sorted tuple of vertex labels passes keep."""
    return {
        t for t in combinations(range(len(label)), 3)
        if keep(tuple(sorted(label[v] for v in t)))
    }


def partition_violations(g, x, parts):
    """The four violation counts of an apex tripartition, one membership test each."""
    edges = set(triples_of(g))

    def has(*t):
        return tuple(sorted(t)) in edges

    within = sum(has(x, u, v) for part in parts for u, v in combinations(part, 2))
    missing_cross = sum(
        not has(x, u, v)
        for i, j in combinations(range(3), 2) for u in parts[i] for v in parts[j]
    )
    tripartite = sum(has(u, v, w) for u in parts[0] for v in parts[1] for w in parts[2])
    missing_two = sum(
        not has(u, v, w)
        for i in range(3) for j in range(3) if i != j
        for u, v in combinations(parts[i], 2) for w in parts[j]
    )
    return within, missing_cross, tripartite, missing_two


def automorphisms(g):
    """Every vertex permutation p (as a tuple, p[v] the image of v) that maps the edge set onto itself."""
    edges = set(triples_of(g))
    return [
        p for p in permutations(range(g.n))
        if all(tuple(sorted((p[a], p[b], p[c]))) in edges for a, b, c in edges)
    ]


def automorphism_orbits(g):
    """The vertex orbits of Aut(g), each ascending, ordered by least vertex."""
    auts = automorphisms(g)
    return sorted({tuple(sorted({p[v] for p in auts})) for v in range(g.n)})


def twin_classes(g):
    """For each vertex, the vertices whose transposition with it is an automorphism (itself
    included), each ascending; the distinct ones, ordered by least vertex.  The swap of u and
    v fixes every edge through neither, so only the edges through u or v are mapped."""
    edges = set(triples_of(g))
    through = [[e for e in edges if x in e] for x in range(g.n)]

    def swap_is_automorphism(u, v):
        p = list(range(g.n))
        p[u], p[v] = v, u
        return all(tuple(sorted((p[a], p[b], p[c]))) in edges for a, b, c in through[u] + through[v])

    twins = {(u, v) for u, v in combinations(range(g.n), 2) if swap_is_automorphism(u, v)}
    return sorted({tuple(u for u in range(g.n) if u == v or (min(u, v), max(u, v)) in twins) for v in range(g.n)})


def plan(g, anchors):
    """The embedding plan from the anchors, every edge rescanned for each candidate: next comes
    the vertex with the most edges closed on the placed ones, then the most edges touching them,
    then the lowest index.  Each position lists the pairs of earlier positions that close an edge
    with it, and the latest earlier non-anchor position holding a twin of it (-1 if none, and for
    every anchor)."""
    edges = triples_of(g)
    placed = list(anchors)
    remaining = set(range(g.n)) - set(anchors)
    while remaining:
        def score(v):
            full = sum(1 for e in edges if v in e and all(u in placed or u == v for u in e))
            touch = sum(1 for e in edges if v in e and any(u in placed for u in e))
            return (full, touch, -v)

        nxt = max(remaining, key=score)
        placed.append(nxt)
        remaining.remove(nxt)
    edge_set, twins = set(edges), {v: c for c in twin_classes(g) for v in c}
    steps = []
    for i, v in enumerate(placed):
        cons = tuple((j, k) for j, k in combinations(range(i), 2)
                     if tuple(sorted((placed[j], placed[k], v))) in edge_set)
        later = [j for j in range(len(anchors), i) if placed[j] in twins[v]]
        steps.append((v, cons, later[-1] if later else -1))
    return tuple(steps)


def _has(g, *t):
    return g.bits >> triple_rank(*t) & 1 == 1


def link_configuration(g, a, b, c, x, y):
    """The slots of the anchored 4-set {a,b,c,x} whose pair forms an edge with y,
    one membership test per slot."""
    slots = {"ab": (a, b), "ac": (a, c), "bc": (b, c), "ax": (a, x), "bx": (b, x), "cx": (c, x)}
    return frozenset(s for s, (p, q) in slots.items() if _has(g, p, q, y))


def recover_partition(g, x):
    """(parts, seed_triangle, bucket_sizes) of the apex recovery at x, or None.

    The seed is the lexicographically first triangle of the link of x; y joins
    the bucket of a (b, c) when its configuration is exactly the pairs ab, ac,
    bx, cx (with a, b, c permuted alike); a vertex y other than x joins part i
    when xyw is an edge for no w in bucket i, and must join exactly one part.
    """
    others = [v for v in range(g.n) if v != x]
    seed = next((t for t in combinations(others, 3)
                 if all(_has(g, u, v, x) for u, v in combinations(t, 2))), None)
    if seed is None:
        return None
    a, b, c = seed
    configurations = [{"ab", "ac", "bx", "cx"}, {"ab", "bc", "ax", "cx"}, {"ac", "bc", "ax", "bx"}]
    buckets = [[a], [b], [c]]
    for y in others:
        if y not in seed:
            sy = link_configuration(g, a, b, c, x, y)
            for bucket, conf in zip(buckets, configurations):
                if sy == conf:
                    bucket.append(y)
    parts = ([], [], [])
    for y in others:
        hits = [i for i, bucket in enumerate(buckets)
                if not any(_has(g, x, y, w) for w in bucket if w != y)]
        if len(hits) != 1:
            return None
        parts[hits[0]].append(y)
    return tuple(map(tuple, parts)), seed, tuple(map(len, buckets))
