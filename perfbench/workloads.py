"""The benchmark's workloads: the CLI commands of one round, and the
independent expectation each command's output is checked against.

Expectations come from the closed forms of the paper and from what each
construction plants, never from the code under test, except the
``c2_bounds`` bracket an exact search value must fall inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Mismatch(Exception):
    """A command's exit code or output disagrees with its expectation."""


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    # check(payload, cli) raises Mismatch; cli is the program's cli module
    check: Callable[[dict, object], None]


def same(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _contiguous(sizes) -> list[list[int]]:
    parts, start = [], 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    return parts


def f1e_partition(n: int) -> list[list[int]]:
    """The planted parts of f1e(n): the case is n mod 3, the apex is n - 1."""
    m = n // 3
    return _contiguous({0: (m - 1, m, m), 1: (m, m, m), 2: (m, m, m + 1)}[n % 3])


def k4_threshold(n: int) -> int:
    """floor((2n-5)/3), the exact K4 covering codegree threshold for n > 98."""
    return (2 * n - 5) // 3


def _check_claims(payload: dict, sidecar: Path, min_codegree: int, uncovered: list[int]) -> None:
    claims = payload["claims"]
    same("claims sidecar", _read_json(sidecar), claims)
    same("claimed min codegree", claims["min_codegree"], min_codegree)
    same("claimed uncovered", claims["uncovered"], uncovered)


def _check_verify(payload: dict, min_codegree: int, uncovered: list[int]) -> None:
    same("verify ok", payload["ok"], True)
    checks = {c["name"]: c for c in payload["checks"]}
    same("measured min codegree", checks["min_codegree"]["measured"], min_codegree)
    for v in uncovered:
        same(f"uncovered:{v} measured", checks[f"uncovered:{v}"]["measured"], "uncovered")


def apex_large(workdir: Path, seed: int, n: int) -> list[Command]:
    """f1e(n) with a seeded admissible pair set: construct, verify, cover, recover."""
    h3 = workdir / f"f1e_{n}.h3"
    sidecar = workdir / f"f1e_{n}.claims.json"
    apex, d, parts = n - 1, k4_threshold(n), f1e_partition(n)

    def construct(payload, cli):
        _check_claims(payload, sidecar, d, [apex])
        same("planted partition", payload["claims"]["partition"], {"apex": apex, "parts": parts})

    def recover(payload, cli):
        same("found", payload["found"], True)
        same("recovered parts", payload["parts"], parts)
        v = payload["violations"]
        same("within-part link triples", v["within_part_link"], 0)
        same("missing two-part triples", v["missing_two_part"], 0)
        # each admissible pair removes exactly one apex triple
        same("missing cross link triples", v["missing_cross_link"], _read_json(sidecar)["params"]["pairs"])

    return [
        Command("construct", ("construct", "f1e", "--n", str(n), "--seed", str(seed), "-o", str(h3)), construct),
        Command("verify", ("verify", "--in", str(h3), "--pattern", "K4"),
                lambda p, cli: _check_verify(p, d, [apex])),
        Command("cover", ("cover", "--in", str(h3), "--pattern", "K4"),
                lambda p, cli: same("uncovered", p["uncovered"], [apex])),
        Command("recover", ("recover", "--in", str(h3), "--apex", str(apex)), recover),
    ]


def _f2_codegree(n: int) -> int:
    m, r = divmod(n, 6)
    return 2 * m - 1 if r == 0 else 2 * m + 1 if r == 5 else 2 * m


# name, pattern, min codegree, uncovered vertices, whether recover runs on it
FAMILIES = (
    ("f2", "K4-", _f2_codegree, lambda n: [n - 1], True),
    ("f3", "C5", lambda n: (n - 3) // 2, lambda n: [n - 1], True),
    ("f4", "C5", lambda n: (n - 3) // 2, lambda n: list(range(n // 2)), False),
    ("f32tri", "F32", lambda n: n // 3 - 1, lambda n: list(range(n)), False),
)


def families_mid(workdir: Path, seed: int, n: int) -> list[Command]:
    """Every non-apex-K4 family at one n: construct, verify, cover, and recover on f2, f3."""
    del seed  # these families are deterministic
    commands = []
    for name, pat, codegree_of, uncovered_of, _ in FAMILIES:
        codegree, uncovered = codegree_of(n), uncovered_of(n)
        h3 = workdir / f"{name}_{n}.h3"
        sidecar = workdir / f"{name}_{n}.claims.json"
        commands += [
            Command("construct", ("construct", name, "--n", str(n), "-o", str(h3)),
                    lambda p, cli, s=sidecar, d=codegree, u=uncovered: _check_claims(p, s, d, u)),
            Command("verify", ("verify", "--in", str(h3), "--pattern", pat),
                    lambda p, cli, d=codegree, u=uncovered: _check_verify(p, d, u)),
            Command("cover", ("cover", "--in", str(h3), "--pattern", pat),
                    lambda p, cli, u=uncovered: same("uncovered", p["uncovered"], u)),
        ]
    for name, *_, recovers in FAMILIES:
        if recovers:
            # no link triangle at the apex of f2 or f3, so nothing is recovered
            commands.append(Command("recover", ("recover", "--in", str(workdir / f"{name}_{n}.h3"),
                                                "--apex", str(n - 1)),
                                    lambda p, cli: same("found", p["found"], False)))
    return commands


# exact thresholds at n = 6, by exhaustion
KNOWN_N6 = {"K4": 2, "K4-": 2, "C5": 2}


def exact_search(workdir: Path, seed: int, n: int) -> list[Command]:
    """search with default engine and settings for K4, K4- and C5."""
    del workdir, seed

    def check(name: str) -> Callable[[dict, object], None]:
        def run(payload, cli):
            same("exhaustive", payload["exhaustive"], True)
            same("value", payload["value"], KNOWN_N6[name])
            br = cli.c2_bounds(cli.pattern(name), n)
            if not br.lower <= payload["value"] <= br.upper:
                raise Mismatch(f"value {payload['value']} outside [{br.lower}, {br.upper}]")
        return run

    return [Command("search", ("search", "--pattern", name, "--n", str(n)), check(name)) for name in KNOWN_N6]


# n per workload, at full size and for a smoke run of the benchmark itself
SIZES = {"apex": 99, "family": 36, "search": 6}
SMOKE_SIZES = {"apex": 21, "family": 12, "search": 6}

# name: (commands, size key, host-speed reference that does the same kind of
# work as the workload: interpreter loops, or the numpy scan of search)
WORKLOADS: dict[str, tuple[Callable[..., list[Command]], str, str]] = {
    "apex_large": (apex_large, "apex", "interpreter"),
    "families_mid": (families_mid, "family", "interpreter"),
    "exact_search": (exact_search, "search", "numpy"),
}


def build(name: str, workdir: Path, seed: int, sizes: dict[str, int]) -> list[Command]:
    make_commands, size_key, _ = WORKLOADS[name]
    return make_commands(workdir, seed, sizes[size_key])
