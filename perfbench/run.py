#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload exact-cold|hot-tier|campaign-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `crsched` and the benchmark harness
from source with dune, then runs one workload against the built binary: the
harness (perfbench/harness) spawns the program as users run it, loads it,
checks every answer and prints the metrics, ending with one JSON line
{"correct", "attempted", "failed", "metrics"}. With --trace 1 it runs the
traced per-layer pass instead of the timed one. Exit code 0 only when the
run completed and every correctness check passed.

--corrupt-golden perturbs one expected answer; the benchmark's own tests
use it to show that a wrong answer fails the run.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["exact-cold", "hot-tier", "campaign-sweep"]
# A run must end within 180 s; the harness is stopped a little before.
RUN_LIMIT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-golden", action="store_true")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("dune-project", "bin/crsched.ml", "lib/serve/server.ml"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a crsharing checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command()
        + ["build", "--root", ".", "./bin/crsched.exe", "./perfbench/harness/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode)

    cmd = [
        "_build/default/perfbench/harness/perfbench.exe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--crsched", "_build/default/bin/crsched.exe",
        "--work", ".perfbench-work",
    ] + (["--corrupt-golden"] if args.corrupt_golden else [])
    # Its own process group, so a stuck run can be stopped with every program
    # process it started.
    harness = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = harness.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
