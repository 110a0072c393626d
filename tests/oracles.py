"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from first principles (explicit loops over edge
lists, permutations, and subsets) and deliberately avoids the cached fast
paths inside the package, so a test that compares the two exercises a real
dual route.
"""

from itertools import combinations, permutations

from h3cover import Hypergraph3, triple_rank


def triples_of(g):
    """Edges read straight off the bitmap: each triple whose rank bit is set, in colex order."""
    ranked = sorted(combinations(range(g.n), 3), key=lambda t: triple_rank(*t))
    return [t for t in ranked if g.bits >> triple_rank(*t) & 1]


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


def codegree(g, u, v):
    return sum(1 for e in triples_of(g) if u in e and v in e)


def min_codegree(g):
    if g.n < 2:
        return 0
    return min(codegree(g, u, v) for u, v in combinations(range(g.n), 2))


def degree(g, x):
    return sum(1 for e in triples_of(g) if x in e)


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


def extends_edge(host, e, pat):
    """Brute force over all injective maps: does some pattern image contain the edge e?"""
    pedges = triples_of(pat.graph)
    hedges = set(triples_of(host))
    for img in permutations(range(host.n), pat.f):
        if set(e) <= set(img) and all(tuple(sorted((img[a], img[b], img[c]))) in hedges for a, b, c in pedges):
            return True
    return False


def uncovered(host, pat):
    return tuple(x for x in range(host.n) if not embeds_through(host, x, pat))


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


def edit_distance(g, h):
    """Min over bijections of the symmetric difference of edge sets."""
    ge = set(triples_of(g))
    best = None
    for p in permutations(range(h.n)):
        he = {tuple(sorted((p[a], p[b], p[c]))) for a, b, c in triples_of(h)}
        d = len(ge ^ he)
        if best is None or d < best:
            best = d
    return best


def c2_brute(pat, n, hypergraph_cls):
    """Exhaustive threshold by scanning every bitmap with permutation embedding.

    Returns (value, least witness bitmap).
    """
    from math import comb

    best_val, best_bits = None, None
    for bits in range(1 << comb(n, 3)):
        g = hypergraph_cls(n, bits)
        if all(embeds_through(g, x, pat) for x in range(n)):
            continue
        val = min_codegree(g)
        if best_val is None or val > best_val:
            best_val, best_bits = val, bits
    return best_val, best_bits


def search_leaves(n, value, witness_bits, hypergraph_cls):
    """Hosts a descending-target exact search checks before it stops.

    For each target above the value, every host of min codegree >= target;
    then the hosts of min codegree >= value up to and including the witness.
    """
    from math import comb

    mins = [min_codegree(hypergraph_cls(n, bits)) for bits in range(1 << comb(n, 3))]
    above = sum(sum(1 for d in mins if d >= t) for t in range(value + 1, n - 1))
    return above + sum(1 for d in mins[: witness_bits + 1] if d >= value)


def canonical_bitmap(g):
    """Least edge bitmap over all vertex relabelings, by explicit permutation."""
    edges = triples_of(g)
    return min(
        sum(1 << triple_rank(p[a], p[b], p[c]) for a, b, c in edges)
        for p in permutations(range(g.n))
    )


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
    included), each ascending; the distinct ones, ordered by least vertex."""
    auts = set(automorphisms(g))

    def swap(u, v):
        p = list(range(g.n))
        p[u], p[v] = v, u
        return tuple(p)

    return sorted({tuple(u for u in range(g.n) if swap(u, v) in auts) for v in range(g.n)})


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
