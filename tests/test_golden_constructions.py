"""Byte-level lock on every construction the CLI writes.

``golden_constructions.json`` holds, for each ``construct`` invocation in
CASES, a hash of the ``.h3`` text form, of the hex form and of the claims
sidecar.  Re-record with ``PYTHONPATH=src python tests/test_golden_constructions.py``
only when an output is meant to change.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from h3cover import pattern, steiner, write_h3
from h3cover.cli import main

GOLDEN = Path(__file__).parent / "golden_constructions.json"

BASES = {"K4-": lambda: pattern("K4-").graph, "C5": lambda: pattern("C5").graph,
         "STS7c": lambda: steiner(7).complement()}

CASES = (
    [[name, "--n", str(n)] for name in ("f1", "f2", "f3", "f4", "fano2", "f32tri") for n in (7, 11, 16, 30)]
    + [["f1e", "--n", str(n), "--seed", str(s)] for n in (10, 11, 12, 30) for s in (0, 1, 7)]
    + [["f1p", "--n", str(n), "--seed", str(s)] for n in (11, 14, 29) for s in (0, 1, 7)]
    + [["blowup", "--base", base, "--factor", str(k)] for base in BASES for k in (1, 2, 3)]
    + [["sts", "--n", str(n)] for n in (7, 9, 13, 15)]
)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def construct_hashes(workdir: Path, argv: list[str]) -> dict:
    """Hashes of the text and hex graph files and of the claims the CLI writes for argv."""
    argv = list(argv)
    if argv[0] == "blowup":
        base = workdir / "base.h3"
        write_h3(BASES[argv[2]](), base)
        argv[2] = str(base)
    out = {}
    for fmt in ("text", "hex"):
        path = workdir / f"{fmt}.h3"
        code = main(["construct", *argv, "-o", str(path), "--fmt", fmt])
        assert code == 0, argv
        out["h3" if fmt == "text" else "hex"] = _digest(path)
    out["claims"] = _digest(workdir / "text.claims.json")
    return out


def test_constructions_match_recorded_golden(tmp_path, capsys):
    golden = {" ".join(c["argv"]): c for c in json.loads(GOLDEN.read_text())["cases"]}
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)
    mismatched = [
        " ".join(argv) for argv in CASES
        if {"argv": argv, **construct_hashes(tmp_path, argv)} != golden[" ".join(argv)]
    ]
    capsys.readouterr()
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        rows = [json.dumps({"argv": argv, **construct_hashes(Path(tmp), argv)}) for argv in CASES]
    with open(GOLDEN, "w", encoding="ascii") as fh:
        about = ("sha256 (first 16 hex digits) of the .h3 text file, the .h3 hex file and the "
                 "claims sidecar written by `h3cover construct <argv>`")
        fh.write('{\n  "about": %s,\n  "cases": [\n    %s\n  ]\n}\n'
                 % (json.dumps(about), ",\n    ".join(rows)))
