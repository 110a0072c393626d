"""Command-line front end tying construction, verification, covering checks,
bound tables, exhaustive search, and partition recovery into reproducible runs.

Exit codes are a stable contract: 0 ok, 1 I/O failure, 2 usage error (also
an input too large for memory), 3 claim failure, 4 budget exhaustion.  JSON output is byte-identical for
identical invocations (seeds default to 0, never to entropy; wall-clock
timings appear only in table mode).

Only the invoked command's parser is built; help and usage errors come from the full tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import DEFAULT_SLACK, c2_bounds, c2_exact, recover_partition, verify_construction
from .constructions import (
    ConstructionClaims,
    admissible_sample,
    blow_up,
    f1,
    f1_variant,
    f2,
    f3,
    f4,
    f32_tripartite,
    fano_bipartite,
    sts,
)
from .core import _count, _seconds, load_h3, write_h3
from .patterns import pattern, uncovered_vertices

SCHEMA = 1


def _emit(args, payload: dict, lines: list[str]) -> None:
    """The payload under the schema and command keys in JSON mode; the lines in table mode."""
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _claims_path(h3_path: str) -> Path:
    p = Path(h3_path)
    if p.suffix == ".h3":
        return p.with_suffix(".claims.json")
    return Path(str(p) + ".claims.json")


def _f1_variant(args, case: str):
    return f1_variant(case, admissible_sample(case, args.n, args.seed), args.n)


# name -> (the option that sizes it, function of the parsed arguments returning (graph, claims))
CONSTRUCTIONS = {
    "f1": ("n", lambda args: f1(args.n)),
    "f1e": ("n", lambda args: _f1_variant(args, str(args.n % 3))),
    "f1p": ("n", lambda args: _f1_variant(args, "2p")),
    "f2": ("n", lambda args: f2(args.n)),
    "f3": ("n", lambda args: f3(args.n)),
    "f4": ("n", lambda args: f4(args.n)),
    "sts": ("n", lambda args: sts(args.n)),
    "blowup": ("base", lambda args: blow_up(load_h3(args.base), args.factor)),
    "fano2": ("n", lambda args: fano_bipartite(args.n)),
    "f32tri": ("n", lambda args: f32_tripartite(args.n)),
}


def cmd_construct(args) -> int:
    size, make = CONSTRUCTIONS[args.name]
    if getattr(args, size) is None:
        raise ValueError(f"{args.name} needs --{size}")
    g, claims = make(args)
    out = args.output or f"{args.name}_{claims.n}.h3"
    write_h3(g, out, args.fmt)
    cpath = _claims_path(out)
    with open(cpath, "w", encoding="ascii") as fh:
        json.dump(claims.as_json(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    payload = {"output": str(out), "claims_path": str(cpath), "claims": claims.as_json()}
    _emit(args, payload, [f"wrote {out} and {cpath}", f"claimed min codegree: {claims.min_codegree}"])
    return 0


def cmd_verify(args) -> int:
    g = load_h3(args.input)
    cpath = args.claims or _claims_path(args.input)
    with open(cpath, "r", encoding="ascii") as fh:
        claims = ConstructionClaims.from_json(json.load(fh))
    pat = pattern(args.pattern)
    report = verify_construction(g, claims, pat)
    payload = {
        "input": str(args.input),
        "pattern": pat.name,
        **report.as_json(),
    }
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.name}: expected {c.expected}, measured {c.measured}"
        for c in report.checks
    ]
    _emit(args, payload, lines)
    return 0 if report.ok else 3


def cmd_cover(args) -> int:
    g = load_h3(args.input)
    pat = pattern(args.pattern)
    unc = uncovered_vertices(g, pat)
    payload = {
        "input": str(args.input),
        "pattern": pat.name,
        "n": g.n,
        "uncovered": list(unc),
        "covered_count": g.n - len(unc),
    }
    _emit(args, payload, [f"uncovered vertices: {list(unc)}"])
    return 0


def cmd_search(args) -> int:
    pat = pattern(args.pattern)
    rep = c2_exact(pat, args.n, budget_seconds=args.budget_seconds)
    # how far a truncated search got depends on the host's speed, so its JSON
    # leaves out the node count and the target (table mode shows both)
    payload = {
        "pattern": rep.pattern,
        "n": rep.n,
        "value": rep.value,
        "exhaustive": rep.exhaustive,
        "graphs_scanned": rep.graphs_scanned if rep.exhaustive else None,
        "witness": {"n": rep.witness.n, "edges": [list(e) for e in rep.witness.edges()]}
        if rep.witness
        else None,
        "uncovered_vertex": rep.uncovered_vertex,
        "note": rep.note if rep.exhaustive else "budget exhausted before the search finished",
    }
    lines = [
        f"c2({rep.pattern}, n={rep.n}) = {rep.value}"
        + ("" if rep.exhaustive else f"  [PARTIAL: {rep.note}]"),
        f"graphs scanned: {rep.graphs_scanned}  wall: {rep.wall_ms:.1f} ms",
    ]
    _emit(args, payload, lines)
    return 0 if rep.exhaustive else 4


def cmd_bounds(args) -> int:
    pat = pattern(args.pattern)
    lo_s, sep, hi_s = args.n.partition("..")
    lo, hi = (_count(end) if end else None for end in (lo_s, hi_s if sep else lo_s))
    if lo is None or hi is None or lo > hi:
        raise ValueError(f"bad range {args.n!r}: give n or lo..hi with both ends and lo <= hi")
    rows = [{"n": n, **c2_bounds(pat, n)._asdict()} for n in range(lo, hi + 1)]
    lines = [f"{'n':>4} {'lower':>6} {'upper':>6} {'exact':>6}"]
    for r in rows:
        lines.append(f"{r['n']:>4} {r['lower']:>6} {r['upper']:>6} {str(r['exact']):>6}")
    _emit(args, {"pattern": pat.name, "rows": rows}, lines)
    return 0


def cmd_recover(args) -> int:
    g = load_h3(args.input)
    rec = recover_partition(g, args.apex)
    payload = {"input": str(args.input), "apex": args.apex, "found": rec is not None}
    if rec is None:
        _emit(args, payload, ["no partition recovered"])
        return 0
    d = rec.diagnostics
    payload |= {
        "parts": [list(p) for p in rec.partition.parts],
        "seed_triangle": list(rec.seed_triangle),
        "bucket_sizes": list(rec.bucket_sizes),
        "violations": {
            "within_part_link": d.within_part_link,
            "missing_cross_link": d.missing_cross_link,
            "tripartite_edges": d.tripartite_edges,
            "missing_two_part": d.missing_two_part,
        },
        "sizes": list(d.sizes),
        "max_size_deviation": str(d.max_size_deviation),
        "delta": str(DEFAULT_SLACK),
        "guarantee_applies": rec.guarantee_applies,
    }
    lines = [
        f"parts: {[list(p) for p in rec.partition.parts]}",
        f"violations: {payload['violations']}",
    ]
    _emit(args, payload, lines)
    return 0


# name -> (help, handler, the (flags, keywords) of each option after --format)
_COMMANDS = {
    "construct": ("generate a construction plus its claims sidecar", cmd_construct, (
        (("name",), dict(choices=CONSTRUCTIONS)),
        (("--n",), dict(type=_count, default=None)),
        (("--seed",), dict(type=_count, default=0)),
        (("--base",), dict(default=None, help=".h3 file with the base graph for blowup")),
        (("--factor",), dict(type=_count, default=2, help="part size for blowup")),
        (("-o", "--output"), dict(default=None)),
        (("--fmt",), dict(choices=("text", "hex"), default="text")))),
    "verify": ("re-measure a claims sidecar against its graph", cmd_verify, (
        (("--in",), dict(dest="input", required=True)),
        (("--claims",), dict(default=None)),
        (("--pattern",), dict(required=True)))),
    "cover": ("list the vertices no pattern copy passes through", cmd_cover, (
        (("--in",), dict(dest="input", required=True)),
        (("--pattern",), dict(required=True)))),
    "search": ("exact threshold by exhaustion at tiny n", cmd_search, (
        (("--pattern",), dict(required=True)),
        (("--n",), dict(type=_count, required=True)),
        (("--budget-seconds",), dict(type=_seconds, default=None)))),
    "bounds": ("closed-form bracket table over a range of n", cmd_bounds, (
        (("--pattern",), dict(required=True)),
        (("--n",), dict(required=True, help="single value or range like 7..18")))),
    "recover": ("recover an apex tripartition and measure violations", cmd_recover, (
        (("--in",), dict(dest="input", required=True)),
        (("--apex",), dict(type=_count, required=True)))),
}


def _command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """p with --format, command name's options, and its command and func defaults."""
    _, func, options = _COMMANDS[name]
    p.add_argument("--format", choices=("json", "table"), default="json")
    for flags, kw in options:
        p.add_argument(*flags, **kw)
    p.set_defaults(command=name, func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph is about this parser, not for --help
    top = argparse.ArgumentParser(prog="h3cover", description=__doc__.rpartition("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, _, _) in _COMMANDS.items():
        _command(sub.add_parser(name, help=help_), name)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in _COMMANDS:
        args, extra = _command(argparse.ArgumentParser(prog=f"h3cover {name}"), name).parse_known_args(argv[1:])
    if name not in _COMMANDS or extra:
        # no command, -h, an unknown command or unrecognized arguments: the full tree's help and errors
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
