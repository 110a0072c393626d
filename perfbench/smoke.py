"""Fast check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at reduced n (``--smoke``) with tracing off and on, and
requires each run to exit 0, to print every metric BENCHMARK.json names for
its mode with its unit, and to report no failed command.  It then copies
BENCHMARK.json and perfbench/ alone into a scratch directory under
perfbench/out/ and requires the benchmark to fail there without a result,
since there is no program to measure.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 170


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def _problems(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} failed: {proc.stderr.strip()[-500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics {got} differ from {wanted}")
    return problems


def _bare_copy_fails() -> list[str]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "exact_search", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _problems(spec, workload, trace)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failed |= bool(problems)
    problems = _bare_copy_fails()
    print(f"{'FAIL' if problems else 'ok  '} no program to measure -> non-zero exit, no result")
    for p in problems:
        print(f"     {p}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
