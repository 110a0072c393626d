"""Isolated per-layer probes: one timed public call each, untraced.

Every probe that reads a graph gets a fresh ``Hypergraph3`` built from the
same bitmap, so the lazy per-graph caches (pair masks) start cold.  The
``embed_covering`` probes are the exception: they time the search itself,
so the host's masks are filled first.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from workloads import KNOWN_N6, Mismatch, same, f1e_partition, k4_threshold

EMBED_REPEATS = 5


def _timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def run(modules: dict, n: int, n_fam: int, seed: int) -> tuple[dict[str, float], int, list[str]]:
    """Probe seconds by metric name, the number of probes, and their mismatches."""
    core, cons, pats, ana = (modules[k] for k in ("core", "constructions", "patterns", "analysis"))
    out: dict[str, float] = {}
    failures: list[str] = []
    checked = []

    def check(name: str, fn) -> None:
        checked.append(name)
        try:
            fn()
        except (Mismatch, KeyError, TypeError, AttributeError) as exc:
            failures.append(f"probe {name}: {exc}")

    case = str(n % 3)
    out["constructions.build_s"], (g, _) = _timed(
        lambda: cons.f1_variant(case, cons.admissible_sample(case, n, seed), n))

    def fresh():
        return core.Hypergraph3(n, g.bits)

    out["core.decode_s"], edges = _timed(lambda h: list(h.edges()), fresh())
    check("decode", lambda: same("decoded edges", len(edges), g.num_edges))
    out["core.min_codegree_s"], d = _timed(fresh().min_codegree)
    check("min_codegree", lambda: same("min codegree", d, k4_threshold(n)))
    out["core.link_graph_s"], link = _timed(fresh().link_graph, n - 1)
    check("link_graph", lambda: same("link graph apex", link.x, n - 1))
    out["analysis.recover_partition_s"], rec = _timed(ana.recover_partition, fresh(), n - 1)
    check("recover_partition",
          lambda: same("recovered parts", [list(p) for p in rec.partition.parts], f1e_partition(n)))
    out["core.from_triples_s"], rebuilt = _timed(core.Hypergraph3.from_triples, n, edges)
    check("from_triples", lambda: same("rebuilt graph", rebuilt == g, True))
    out["core.dumps_s"], text = _timed(core.dumps_h3, fresh())
    out["core.loads_s"], loaded = _timed(core.loads_h3, text)
    check("dumps/loads", lambda: same("round trip", loaded == g, True))

    host, _ = cons.f4(n_fam)
    host.min_codegree()
    c5 = pats.pattern("C5")
    for key, x, covered in (("patterns.embed_hit_s", n_fam - 1, True), ("patterns.embed_miss_s", 0, False)):
        times = []
        for _ in range(EMBED_REPEATS):
            dt, emb = _timed(pats.embed_covering, host, x, c5)
            times.append(dt)
        out[key] = median(times)
        check(key, lambda: same(f"vertex {x} covered", emb is not None, covered))

    out["analysis.c2_exact_s"], rep = _timed(ana.c2_exact, pats.pattern("K4"), 6)
    check("c2_exact", lambda: same("c2(K4, 6)", rep.value, KNOWN_N6["K4"]))
    return out, len(checked), failures
