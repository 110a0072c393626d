"""Byte-level lock on the stdout and exit code of the reading commands.

``golden_cli.json`` holds, for each invocation in CASES, a hash of what the
CLI prints and its exit code, in JSON and in table mode.  The inputs are
built by ``construct`` in a scratch directory, so the printed paths are
relative.  The ``wall:`` line of a table-mode ``search`` is dropped before
hashing.  Re-record with ``PYTHONPATH=src python tests/test_golden_cli.py``
only when an output is meant to change.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from h3cover.cli import main

GOLDEN = Path(__file__).parent / "golden_cli.json"

# (construction argv, pattern it is checked against, n)
HOSTS = (
    (["f1", "--n", "16"], "K4", 16),
    (["f1e", "--n", "30", "--seed", "1"], "K4", 30),
    (["f2", "--n", "13"], "K4-", 13),
    (["f3", "--n", "12"], "C5", 12),
    (["f4", "--n", "12"], "C5", 12),
    (["f32tri", "--n", "12"], "F32", 12),
    (["fano2", "--n", "8"], "Fano", 8),
)

CASES = (
    [[cmd, "--in", f"{h[0]}.h3", "--pattern", pat] for h, pat, _ in HOSTS for cmd in ("verify", "cover")]
    + [["recover", "--in", f"{h[0]}.h3", "--apex", str(x)] for h, _, n in HOSTS for x in (n - 1, 0)]
    + [["search", "--pattern", pat, "--n", str(n)] for pat in ("K4", "K4-", "C5") for n in (4, 5, 6)]
    + [["search", "--pattern", "C5", "--n", "7", "--budget-seconds", "0"]]
    + [["bounds", "--pattern", pat, "--n", "7..20"] for pat in ("K4", "K4-", "C5", "K5-", "F32", "Fano", "K6")]
)


def _run(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    lines = [line for line in out.getvalue().splitlines(keepends=True) if "wall:" not in line]
    return hashlib.sha256("".join(lines).encode()).hexdigest()[:16], code


def cli_hashes(workdir: Path) -> list[dict]:
    """Hash and exit code of every case in both formats, run inside workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, _, _ in HOSTS:
            _run(["construct", *argv, "-o", f"{argv[0]}.h3"])
        rows = []
        for argv in CASES:
            row = {"argv": argv}
            for fmt in ("json", "table"):
                row[fmt], row[f"{fmt}_exit"] = _run([*argv, "--format", fmt])
            rows.append(row)
        return rows
    finally:
        os.chdir(cwd)


def test_cli_output_matches_recorded_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())["cases"]
    assert [c["argv"] for c in golden] == CASES
    mismatched = [" ".join(row["argv"]) for row, want in zip(cli_hashes(tmp_path), golden) if row != want]
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = [json.dumps(row) for row in cli_hashes(Path(tmp))]
    with open(GOLDEN, "w", encoding="ascii") as fh:
        about = ("sha256 (first 16 hex digits) of the stdout of `h3cover <argv> --format json|table` "
                 "without any line holding 'wall:', and its exit code")
        fh.write('{\n  "about": %s,\n  "cases": [\n    %s\n  ]\n}\n'
                 % (json.dumps(about), ",\n    ".join(rows)))
