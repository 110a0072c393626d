"""Peak memory of the f1e commands, each in a new process.

    PYTHONPATH=src python tests/peak_rss.py N CONSTRUCT_MB READ_MB [TIMEOUT_S]

Builds f1e(N) with seed 1 in the hex form in a temporary directory, then runs
verify (K4), cover (K4) and recover (apex N - 1) on the file.  Each command
runs under ``timeout TIMEOUT_S`` (default 120); its peak resident set is the
ru_maxrss that ``os.wait4`` reports for it, which takes in the processes it
waited for.  Prints one JSON line per command and exits 1 if a command fails
or its peak exceeds its bound (CONSTRUCT_MB for construct, READ_MB for the
others).  Run it from a small process: a child's ru_maxrss includes what its
parent had resident when it forked.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def main(argv: list[str]) -> int:
    n, construct_mb, read_mb = int(argv[0]), float(argv[1]), float(argv[2])
    limit = argv[3] if len(argv) > 3 else "120"
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "f1e.h3")
        construct = ["construct", "f1e", "--n", str(n), "--seed", "1", "--fmt", "hex", "-o", f]
        for argv_, bound in ((construct, construct_mb),
                             (["verify", "--in", f, "--pattern", "K4"], read_mb),
                             (["cover", "--in", f, "--pattern", "K4"], read_mb),
                             (["recover", "--in", f, "--apex", str(n - 1)], read_mb)):
            t0 = time.perf_counter()
            proc = subprocess.Popen(["timeout", limit, sys.executable, "-m", "h3cover.cli", *argv_],
                                    stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            mb = usage.ru_maxrss / 1024
            failed |= code != 0 or mb > bound
            print(json.dumps({"command": argv_[0], "n": n, "exit": code, "peak_rss_mb": round(mb, 1),
                              "bound_mb": bound, "wall_s": round(time.perf_counter() - t0, 2)}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
