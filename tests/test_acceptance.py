"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are either frozen from independent oracles (see
oracles.py) or closed forms evaluated in exact integer arithmetic; tolerances
are exact integers unless a criterion states otherwise.
"""

import time
from fractions import Fraction
from itertools import combinations

from h3cover import (
    Hypergraph3,
    blow_up,
    c2_bounds,
    c2_exact,
    classify_sy,
    degeneracy,
    embed_covering,
    f1,
    f1_variant,
    f2,
    f3,
    f4,
    f32_tripartite,
    fano_bipartite,
    admissible_sample,
    greedy_embed,
    pattern,
    recover_partition,
    steiner,
    uncovered_vertices,
)
from h3cover.analysis import PAIR_SLOTS, SY_SETS
from h3cover.constructions import AdmissiblePairSet
from h3cover.patterns import CATALOG

import oracles


def _report(num: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {description}")
    for f in failures:
        print(f"    {f}")
    assert not failures, failures


def test_criterion_1_exhaustive_exactness_k4():
    failures = []
    k4 = pattern("K4")
    # n = 8 is in the residue 2 (mod 3) that the bracket leaves open below the
    # paper's regime: the value is the top of [3, 4], above floor((2n-5)/3)
    expected = {4: 1, 5: 2, 6: 2, 8: 4}
    budgets = {4: 1.0, 5: 1.0, 6: 300.0, 8: 60.0}
    for n, want in expected.items():
        t0 = time.perf_counter()
        rep = c2_exact(k4, n)
        elapsed = time.perf_counter() - t0
        if rep.value != want:
            failures.append(f"c2(K4,{n}) = {rep.value}, expected {want}")
        if not rep.exhaustive:
            failures.append(f"n={n} not exhaustive")
        if elapsed >= budgets[n]:
            failures.append(f"n={n} took {elapsed:.2f}s, budget {budgets[n]}s")
        lo, hi = (2 * n - 5) // 3, (2 * n - 3) // 3
        if not lo <= rep.value <= hi:
            failures.append(f"n={n}: value {rep.value} outside all-n bracket [{lo},{hi}]")
    if c2_exact(k4, 6).value != (2 * 6 - 5) // 3:
        failures.append("n=6 must equal floor((2n-5)/3)")
    _report(1, "exhaustive exactness for K4 at n=4,5,6,8", failures)


def test_criterion_2_construction_codegree_formulas():
    failures = []
    t0 = time.perf_counter()
    for n in range(7, 61):
        if f1(n)[0].min_codegree() != (2 * n - 5) // 3:
            failures.append(f"f1({n}) codegree off")
    for n in range(12, 49):
        m, r = divmod(n, 6)
        want = 2 * m - 1 if r == 0 else (2 * m + 1 if r == 5 else 2 * m)
        if f2(n)[0].min_codegree() != want:
            failures.append(f"f2({n}) codegree off (want {want})")
    for n in range(5, 41):
        want = (n - 3) // 2
        if f3(n)[0].min_codegree() != want:
            failures.append(f"f3({n}) codegree off")
        if f4(n)[0].min_codegree() != want:
            failures.append(f"f4({n}) codegree off")
    for n in range(7, 41):
        if fano_bipartite(n)[0].min_codegree() != n // 2:
            failures.append(f"fano_bipartite({n}) codegree off")
    for n in range(5, 41):
        if f32_tripartite(n)[0].min_codegree() != n // 3 - 1:
            failures.append(f"f32_tripartite({n}) codegree off")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(2, f"codegree formulas across families ({elapsed:.1f}s)", failures)


def test_criterion_3_uncovered_vertex_certificates():
    failures = []
    t0 = time.perf_counter()
    k4, k4m, c5 = pattern("K4"), pattern("K4-"), pattern("C5")
    for n in range(7, 31):
        g, claims = f1(n)
        if uncovered_vertices(g, k4) != (claims.partition.apex,):
            failures.append(f"f1({n}): uncovered set is not exactly the apex")
    for n in range(12, 25):
        g, claims = f2(n)
        if embed_covering(g, claims.partition.apex, k4m) is not None:
            failures.append(f"f2({n}): apex is K4--covered")
    for n in range(5, 21):
        g, claims = f3(n)
        if embed_covering(g, claims.partition.apex, c5) is not None:
            failures.append(f"f3({n}): apex is C5-covered")
    for n in range(9, 21):
        g, claims = f4(n)
        if uncovered_vertices(g, c5) != claims.partition.parts[0]:
            failures.append(f"f4({n}): uncovered set is not exactly the first part")
    # the paper's regime: blow-ups whose parts are host twin classes
    for family, name in ((f3, "C5"), (f4, "C5"), (f32_tripartite, "F32"), (fano_bipartite, "Fano")):
        g, claims = family(150)
        if uncovered_vertices(g, pattern(name)) != claims.uncovered:
            failures.append(f"{claims.name}(150): uncovered set is not the claimed {name}-uncovered set")
    g, claims = blow_up(pattern("K4-").graph, 2)
    if embed_covering(g, claims.partition.apex, pattern("K5")) is not None:
        failures.append("doubled 4-part family: apex is K5-covered")
    g, claims = blow_up(steiner(7).complement(), 2)
    if embed_covering(g, claims.partition.apex, pattern("K6")) is not None:
        failures.append("doubled 7-point complement: apex is K6-covered")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10 min")
    _report(3, f"uncovered-vertex certificates ({elapsed:.1f}s)", failures)


def test_criterion_4_sy_lemma_fully_certified():
    failures = []
    k4 = pattern("K4")
    a, b, c, x, y = 0, 1, 2, 3, 4
    slot_pairs = {
        "ab": (a, b), "ac": (a, c), "bc": (b, c),
        "ax": (a, x), "bx": (b, x), "cx": (c, x),
    }
    for bits in range(64):
        subset = frozenset(s for i, s in enumerate(PAIR_SLOTS) if bits >> i & 1)
        triples = [(a, b, x), (b, c, x), (a, c, x)]
        triples += [slot_pairs[s] + (y,) for s in subset]
        host = Hypergraph3.from_triples(5, triples)
        cls = classify_sy(host, (a, b, c, x), y)
        covered = embed_covering(host, x, k4) is not None
        if (cls.label == "VIOLATION") != covered:
            failures.append(f"{sorted(subset)}: label {cls.label} vs covered={covered}")
        if cls.label != "VIOLATION":
            if len(cls.pairs) > 4:
                failures.append(f"{sorted(subset)}: |S_y| = {len(cls.pairs)} > 4")
            if not any(cls.pairs <= s for s in SY_SETS.values()):
                failures.append(f"{sorted(subset)}: not a subset of any admissible set")
    _report(4, "all 64 link configurations certified against the embedding oracle", failures)


def test_criterion_5_degeneracy_oracle():
    failures = []
    expected = {"K4": 3, "Fano": 3, "K5": 6, "K4-": 2, "C5": 3}
    for name in CATALOG:
        pat = pattern(name)
        if pat.f > 7:
            continue
        want = oracles.degeneracy_r(pat.graph)
        r, _ = degeneracy(pat.graph)
        if r != want or pat.r != want:
            failures.append(f"{name}: elimination r={r}, stored r={pat.r}, oracle {want}")
        if name in expected and r != expected[name]:
            failures.append(f"{name}: r={r}, cited value {expected[name]}")
    _report(5, "degeneracy equals the brute-force subgraph oracle", failures)


def test_criterion_6_greedy_embedding_guarantee():
    failures = []
    for name in CATALOG:
        pat = pattern(name)
        for n in range(pat.f, 13):
            host = Hypergraph3.from_triples(n, combinations(range(n), 3))
            for x in range(n):
                if greedy_embed(host, x, pat) is None:
                    failures.append(f"greedy failed on K_{n} for {name} at x={x}")
                    break
    g, claims = f1(12)
    apex = claims.partition.apex
    if greedy_embed(g, apex, pattern("K4")) is not None:
        failures.append("greedy found an embedding at the f1(12) apex")
    if embed_covering(g, apex, pattern("K4")) is not None:
        failures.append("exhaustive search found an embedding at the f1(12) apex")
    _report(6, "greedy embedding succeeds on complete hosts, fails only honestly", failures)


def test_criterion_7_steiner_properties():
    failures = []
    # a copy of the plane in a 7-vertex host with as many edges is the whole host
    s7, fano = steiner(7), pattern("Fano")
    if s7.num_edges != fano.graph.num_edges or embed_covering(s7, 0, fano) is None:
        failures.append("7-point system is not isomorphic to the catalog plane")
    for t in (9, 13, 15):
        s = steiner(t)
        bad = [
            (u, v)
            for u, v in combinations(range(t), 2)
            if oracles.codegree(s, u, v) != 1
        ]
        if bad:
            failures.append(f"steiner({t}): pairs with codegree != 1: {bad[:3]}")
    sbar = steiner(7).complement()
    for s5 in combinations(range(7), 5):
        if all(sbar.contains(*t) for t in combinations(s5, 3)):
            failures.append(f"complement of the 7-point plane has a complete 5-set {s5}")
    _report(7, "Steiner systems: uniqueness at 7, codegree-1 at 9/13/15, K5-free complement", failures)


def test_criterion_8_extremal_family_membership():
    failures = []
    k4 = pattern("K4")
    cases_by_n = {12: ("0",), 13: ("1",), 14: ("2", "2p")}
    for n, cases in cases_by_n.items():
        want = (2 * n - 5) // 3
        for case in cases:
            for seed in range(20):
                pairs = admissible_sample(case, n, seed)
                g, claims = f1_variant(case, pairs, n)
                if g.min_codegree() != want:
                    failures.append(f"case {case} n={n} seed={seed}: codegree off")
                if embed_covering(g, claims.partition.apex, k4) is not None:
                    failures.append(f"case {case} n={n} seed={seed}: apex covered")
    # the validator must reject cap violations in every case
    rejected = 0
    for case, n in (("0", 12), ("1", 13), ("2", 14), ("2p", 14)):
        part = f1_variant(case, AdmissiblePairSet(case, frozenset()), n)[1].partition
        v3 = part.parts[2][0]
        bad = frozenset([(part.parts[0][0], v3), (part.parts[1][0], v3)])
        try:
            f1_variant(case, AdmissiblePairSet(case, bad), n)
        except ValueError:
            rejected += 1
    if rejected != 4:
        failures.append(f"validator rejected {rejected}/4 cap-violating sets")
    _report(8, "perturbed families keep the threshold and the uncovered apex", failures)


def test_criterion_9_partition_recovery():
    failures = []
    for n in (15, 30, 45, 60):
        g, claims = f1(n)
        rec = recover_partition(g, claims.partition.apex)
        if rec is None:
            failures.append(f"f1({n}): no partition recovered")
            continue
        planted = {frozenset(p) for p in claims.partition.parts}
        got = {frozenset(p) for p in rec.partition.parts}
        if planted != got:
            failures.append(f"f1({n}): recovered parts differ from planted")
        if rec.diagnostics.within_part_link != 0:
            failures.append(f"f1({n}): {rec.diagnostics.within_part_link} same-part apex triples")
        if rec.diagnostics.max_size_deviation > 1:
            failures.append(f"f1({n}): size deviation {rec.diagnostics.max_size_deviation} > 1")
    _report(9, "planted tripartitions recovered exactly with zero same-part violations", failures)


def test_criterion_10_density_consistency():
    failures = []
    ladder = range(12, 61, 6)
    families = (
        ("f1", f1, Fraction(2, 3)),
        ("f2", f2, Fraction(1, 3)),
        ("f3", f3, Fraction(1, 2)),
    )
    for name, maker, density in families:
        gaps = []
        for n in ladder:
            ratio = Fraction(maker(n)[0].min_codegree(), n - 2)
            gaps.append(abs(ratio - density))
        if any(gaps[i + 1] > gaps[i] for i in range(len(gaps) - 1)):
            failures.append(f"{name}: |ratio - density| not monotone along the ladder {gaps}")
        if gaps[-1] > Fraction(1, 20):
            failures.append(f"{name}: final gap {gaps[-1]} exceeds 0.05")
    # bracket soundness wherever exhaustive values exist
    k4 = pattern("K4")
    for n in (4, 5, 6):
        rep = c2_exact(k4, n)
        br = c2_bounds(k4, n)
        if not br.lower <= rep.value <= br.upper:
            failures.append(f"n={n}: exhaustive value {rep.value} outside bracket")
    _report(10, "densities approached monotonically; exhaustive values inside brackets", failures)


def test_criterion_11_paper_regime_k4():
    """n > 98, where the paper proves the K4 threshold floor((2n-5)/3)."""
    failures = []
    k4 = pattern("K4")
    t0 = time.perf_counter()
    for n in (99, 150):
        want = (2 * n - 5) // 3
        got = f1(n)[0].min_codegree()
        if not got == want == c2_bounds(k4, n).exact:
            failures.append(f"f1({n}): min codegree {got}, formula {want}, {c2_bounds(k4, n)}")
    n = 150
    pairs = admissible_sample(str(n % 3), n, 11)
    g, claims = f1_variant(str(n % 3), pairs, n)
    if g.min_codegree() != (2 * n - 5) // 3:
        failures.append(f"f1e({n}): min codegree {g.min_codegree()}")
    if uncovered_vertices(g, k4) != (n - 1,):
        failures.append(f"f1e({n}): uncovered set is not exactly the apex")
    rec = recover_partition(g, n - 1)
    if rec is None or rec.partition.parts != claims.partition.parts:
        failures.append(f"f1e({n}): planted parts not recovered")
    else:
        d = rec.diagnostics
        counts = (d.within_part_link, d.missing_two_part, d.missing_cross_link)
        if counts != (0, 0, len(pairs.pairs)):
            failures.append(f"f1e({n}): violations {d}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 20:
        failures.append(f"runtime {elapsed:.1f}s exceeds 20s")
    _report(11, f"n = 99 and 150: codegree, apex uncovered, recovery ({elapsed:.1f}s)", failures)
