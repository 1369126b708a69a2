#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at a one-second size.

    python3 perfbench/test_smoke.py

From the root of a checkout. For every workload it checks that a timed run
passes and emits every end-to-end metric of BENCHMARK.json with its unit,
that a traced run emits every per-layer metric with its unit, and that a
run with a deliberately corrupted golden answer fails. Exit code 0 when
all of that holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SPEC = json.load(open(os.path.join(ROOT, "perfbench", "spec.json")))
failures = []


def run(workload, trace=0, corrupt=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)] + (["--corrupt-golden"] if corrupt else [])
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def emits(result, declared):
    got = result["metrics"] if result else {}
    return [m["name"] for m in declared
            if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]


expect(set(SPEC["layers"]) == {m["name"] for m in BENCH["per_layer"]},
       "every per-layer metric names the end-to-end metric it should move")
for w in [w["name"] for w in BENCH["workloads"]]:
    code, result, out = run(w)
    expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
           f"{w}: timed run passes" + (f"\n{out[-1500:]}" if code else ""))
    missing = emits(result, BENCH["end_to_end"])
    expect(not missing, f"{w}: end-to-end metrics emitted with units (missing: {missing})")
    code, result, out = run(w, trace=1)
    missing = emits(result, BENCH["per_layer"])
    expect(code == 0 and not missing, f"{w}: traced run emits per-layer metrics (missing: {missing})")
    code, result, out = run(w, corrupt=True)
    expect(code != 0 and result is not None and not result["correct"],
           f"{w}: a corrupted golden fails the run")

print("FAILED" if failures else "all smoke checks passed")
sys.exit(1 if failures else 0)
