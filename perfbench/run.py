"""Benchmark of the h3cover command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  One process runs one workload
(see BENCHMARK.json and perfbench/README.md): a closed loop of rounds, each
round the workload's CLI commands in order through ``h3cover.cli.main``,
every command against a freshly imported program (so module-level caches
start empty, as in a new CLI process) and checked against an independent
expectation.  Rounds repeat while another one fits in ``--seconds``; at
least one always runs.  Timings are scaled to a reference host speed
sampled during the run (see hostspeed.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports per-layer self time, calls and counters
from the traced ones, the tracing overhead, and the isolated probes, and
writes the spans to perfbench/out/spans-<workload>.jsonl.  ``--smoke`` runs
the same code at reduced n.  The last stdout line is the JSON result; the
line before it holds the run's metadata.
"""

from __future__ import annotations

import os

# no worker threads: keep numpy's BLAS pool at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import probes
import tracer as tracing
import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# start-ups timed before the first round; one more precedes every command
EXTRA_SETUPS = 20


def fresh_program(tracer: tracing.Tracer | None = None):
    """Import h3cover from src/ anew, with every module-level cache empty."""
    for name in [m for m in sys.modules if m == "h3cover" or m.startswith("h3cover.")]:
        del sys.modules[name]
    hook = tracer.import_hook() if tracer is not None else None
    if hook is not None:
        sys.meta_path.insert(0, hook)
    try:
        return importlib.import_module("h3cover.cli")
    finally:
        if hook is not None:
            sys.meta_path.remove(hook)


class Runner:
    """Runs rounds of one workload's commands and checks every output.

    Timings are kept as (start, end) perf_counter pairs, so that a run that
    samples the host speed can scale them afterwards.
    """

    def __init__(self, commands: list[workloads.Command]):
        self.commands = commands
        self.setups: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def start(self, tracer: tracing.Tracer | None = None):
        gc.collect()
        t0 = perf_counter()
        cli = fresh_program(tracer)
        if tracer is None:
            self.setups.append((t0, perf_counter()))
        return cli

    def round(self, tracer: tracing.Tracer | None = None) -> list[tuple[str, float, float]]:
        """(command kind, start, end) for each command of one round."""
        times = []
        for cmd in self.commands:
            if tracer is not None:
                tracer.active = True
            cli = self.start(tracer)
            if tracer is not None:
                tracing.install(tracer)
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed command, not a failed benchmark
                rc = "traceback"
                err.write(traceback.format_exception_only(exc)[-1])
            times.append((cmd.kind, t0, perf_counter()))
            if tracer is not None:
                tracer.active = False
            self.attempted += 1
            self._check(cmd, rc, out.getvalue(), err.getvalue(), cli)
        return times

    def _check(self, cmd: workloads.Command, rc, stdout: str, stderr: str, cli) -> None:
        try:
            if rc != 0:
                raise workloads.Mismatch(f"exit {rc!r}: {stderr.strip()[-300:]}")
            cmd.check(json.loads(stdout), cli)
        except (workloads.Mismatch, KeyError, TypeError, ValueError) as exc:
            self.failures.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")


def _elapsed_allows_another(t_start: float, last: float, seconds: float) -> bool:
    return perf_counter() - t_start + last <= seconds


def measure(runner: Runner, seconds: float, reference: str) -> tuple[dict[str, float], dict]:
    t_start = perf_counter()
    with HostSpeed(reference) as speed:
        for _ in range(EXTRA_SETUPS):
            runner.start()
        rounds = []
        while True:
            t0 = perf_counter()
            rounds.append(runner.round())
            if not _elapsed_allows_another(t_start, perf_counter() - t0, seconds):
                break

    def summary(timer) -> tuple[dict[str, float], dict[str, list[float]], list[float]]:
        """Metrics, per-kind seconds per round, and round totals, timed by ``timer``."""
        per_round, per_kind = [], {}
        for times in rounds:
            secs = [(kind, timer(t0, t1)) for kind, t0, t1 in times]
            per_round.append(secs)
            sums: dict[str, float] = {}
            for kind, dt in secs:
                sums[kind] = sums.get(kind, 0.0) + dt
            for kind, total in sums.items():
                per_kind.setdefault(kind, []).append(total)
        totals = [sum(dt for _, dt in secs) for secs in per_round]
        return {
            "round_s": median(totals),
            "slowest_command_s": median(max(dt for _, dt in secs) for secs in per_round),
            "setup_s": median(timer(t0, t1) for t0, t1 in runner.setups),
        }, per_kind, totals

    metrics, per_kind, totals = summary(speed.scaled)
    raw, _, raw_totals = summary(speed.raw)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "samples": {"round_s": len(rounds), "slowest_command_s": len(rounds),
                    "setup_s": len(runner.setups), "peak_rss_mb": 1},
        "command_s": {kind: {"median": median(v), "samples": len(v)} for kind, v in per_kind.items()},
        "raw": raw,
        "rounds_s": [round(t, 4) for t in totals],
        "raw_rounds_s": [round(t, 4) for t in raw_totals],
        "host_speed": {"reference": reference, "median_s": median(speed.samples), "samples": len(speed.samples)},
    }
    return metrics, detail


def measure_traced(runner: Runner, seconds: float, workload: str, probe_args: dict) -> tuple[dict[str, float], dict]:
    tracer = tracing.Tracer()
    t_start = perf_counter()
    untraced, traced, per_round = [], [], []
    while True:
        t0 = perf_counter()
        untraced.append(sum(t1 - t0 for _, t0, t1 in runner.round()))
        first = len(tracer.spans)
        tracer.counts.clear()
        traced.append(sum(t1 - t0 for _, t0, t1 in runner.round(tracer)))
        c = tracer.counts
        per_round.append({
            **tracer.layer_totals(first),
            "core.pair_mask_calls": c["core.pair_mask_calls"],
            "patterns.embed_calls": c["patterns.embed_calls"],
            "patterns.embed_hit_ratio": c["patterns.embed_hits"] / max(1, c["patterns.embed_calls"]),
            "analysis.graphs_scanned": c["analysis.graphs_scanned"],
        })
        if not _elapsed_allows_another(t_start, perf_counter() - t0, seconds):
            break
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.jsonl")

    metrics = {key: median(r[key] for r in per_round) for key in per_round[0]}
    metrics["trace_overhead_s"] = median(traced) - median(untraced)
    runner.start()
    probe_metrics, probe_count, probe_failures = probes.run(tracing.modules(), **probe_args)
    metrics.update(probe_metrics)
    runner.attempted += probe_count
    runner.failures += probe_failures

    layers = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
    total = sum(layers.values()) or 1.0
    detail = {
        "samples": {**{key: len(per_round) for key in per_round[0]}, "trace_overhead_s": len(traced),
                    **{key: probes.EMBED_REPEATS if key.startswith("patterns.embed_") else 1
                       for key in probe_metrics}},
        "layer_share": {layer: round(v / total, 4) for layer, v in layers.items()},
        "untraced_round_s": median(untraced),
        "traced_round_s": median(traced),
    }
    return metrics, detail


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(args, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "git_commit": _git_commit(),
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced n, for a quick check of the benchmark")
    args = parser.parse_args(argv)

    if not (SRC / "h3cover" / "__init__.py").is_file():
        print(f"error: no h3cover sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
        runner = Runner(workloads.build(args.workload, workdir, args.seed, sizes))
        if args.trace:
            metrics, detail = measure_traced(runner, args.seconds, args.workload,
                                             {"n": sizes["apex"], "n_fam": sizes["family"], "seed": args.seed})
        else:
            metrics, detail = measure(runner, args.seconds, workloads.WORKLOADS[args.workload][2])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures:
        print(f"MISMATCH {failure}", file=sys.stderr)
    samples = detail.pop("samples")
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:>14.6f} {m['unit']:<6} n={samples[m['name']]}")
    fail_ratio = len(runner.failures) / runner.attempted
    print(f"{'fail_ratio':<32} {fail_ratio:>14.6f} {'ratio':<6} n={runner.attempted}")
    print(json.dumps({"meta": _metadata(args, samples), "fail_ratio": fail_ratio, **detail}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
