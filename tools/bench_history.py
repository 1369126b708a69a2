#!/usr/bin/env python3
"""Append one repository-benchmark run to BENCH_history.jsonl.

    python3 tools/bench_history.py --workload exact-cold|hot-tier|campaign-sweep --seed N

Runs `python3 perfbench/run.py --workload W --seed N --seconds S` at the root
of the checkout this script sits in, with S taken from BENCHMARK.json's
run_seconds, and appends one JSON line to BENCH_history.jsonl there:

    seq, commit, workload, seed, seconds, correct, attempted, failed,
    the end-to-end metrics of BENCHMARK.json, host.probe_ms, host.steal_pct

`host.probe_ms` and `host.steal_pct` (the median CPU steal over the run's
segments, in percent) are parsed from the lines perfbench prints. `seq`
counts the file's lines from 1, so the file only ever grows at its end.

Refuses to run while `git status --porcelain --untracked-files=no` lists any
file but BENCH_history.jsonl, so every line names the code it measured.
Exit code: perfbench's, or 2 when no line was appended for another reason.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HISTORY = "BENCH_history.jsonl"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"bench_history: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def printed(pattern, stdout, what):
    m = re.search(pattern, stdout, re.MULTILINE)
    if not m:
        fail(f"perfbench printed no {what}")
    return float(m.group(1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    dirty = [line[3:] for line in git("status", "--porcelain", "--untracked-files=no").splitlines()
             if line[3:] != HISTORY]
    if dirty:
        fail("uncommitted changes to " + ", ".join(dirty) + ": commit them first")
    commit = git("rev-parse", "HEAD").strip()
    seconds = bench["run_seconds"]

    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"perfbench ended without a result line (exit {run.returncode})")
    result = json.loads(lines[-1])

    path = os.path.join(ROOT, HISTORY)
    seq = 1
    if os.path.exists(path):
        with open(path) as f:
            seq += sum(1 for line in f if line.strip())
    entry = {
        "seq": seq,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    for m in bench["end_to_end"]:
        entry[m["name"]] = result["metrics"][m["name"]]["value"]
    entry["host.probe_ms"] = printed(r"host\.probe_ms ([0-9.]+)", run.stdout, "host.probe_ms")
    entry["host.steal_pct"] = printed(r"^host steal: ([0-9.]+)% median", run.stdout,
                                      "host steal median")
    with open(path, "a") as f:
        f.write(json.dumps(entry) + "\n")
    print(f"bench_history: appended seq {seq} to {HISTORY}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
