#!/usr/bin/env python3
"""A/B the repository benchmark: a parent commit against a change.

    python3 tools/ab.py --parent REV [--change REV] --workload W [--workload W ...] \\
        --seeds LO-HI [--seconds S] [--trace 0|1] [--work DIR]

Exports the parent and the change into two clean checkouts under DIR (with
`git archive`, so the repository's own metadata is left alone), builds each,
and then, for every workload and every seed, runs `perfbench/run.py` once in
each checkout: one pair per seed, alternating which side runs first. perfbench
is run as it is, with the same arguments on both sides; nothing under
`perfbench/` is read or changed.

--change defaults to WORKTREE: the tracked and untracked, not ignored, files
of the working tree this script sits in, so a change can be measured before
it is committed. --seconds defaults to BENCHMARK.json's run_seconds.

For each workload and each metric both sides reported, it prints each side's
median and quartiles, the change's wins out of the pairs (ties count for
neither side), whether the median gap in the better direction exceeds the
parent's interquartile range, and, for the end-to-end metrics of
BENCHMARK.json, whether the change's median is worse than the parent's by
more than the metric's bound. Every run's result line is kept in
DIR/ab-<workload>.json and its output in DIR/<side>-<workload>-<seed>.log.
Exit code 0 when every run completed correctly.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw).stdout


def export(rev, dest):
    """A clean checkout of REV (or of the working tree) at DEST."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == "WORKTREE":
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
        for f in filter(None, (f.decode() for f in files)):
            src = os.path.join(ROOT, f)
            if os.path.isfile(src):
                os.makedirs(os.path.join(dest, os.path.dirname(f)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, f))
    else:
        with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
            tar.extractall(dest)


def run(checkout, workload, seed, seconds, trace):
    with open(f"{checkout}-{workload}-{seed}.log", "w") as log:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, stdout=subprocess.PIPE, stderr=log, text=True)
        log.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": out.returncode}
    result = json.loads(lines[-1])
    result["exit"] = out.returncode
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def cell(med, q1, q3):
    num = lambda x: f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"
    return f"{num(med)} [{num(q1)}, {num(q3)}]"


def report(workload, pairs, bench):
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [n for n in pairs[0]["parent"]["metrics"]
             if all(n in p[s]["metrics"] for p in pairs for s in ("parent", "change"))]
    print(f"\n{workload}: {len(pairs)} pairs, seeds {pairs[0]['seed']}-{pairs[-1]['seed']}")
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        bad = sum(1 for p in pairs if not p[side]["correct"])
        print(f"  {side}: {failed} of {attempted} operations failed, {bad} incorrect runs")
    print(f"  {'metric':<34} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'ratio':>6} {'wins':>6} {'gap>IQR':>7} {'bound':>8}")
    for name in names:
        a = [p["parent"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["metrics"][name]["value"] for p in pairs]
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(a), quartiles(b)
        sense = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sense * (y - x) > 0)
        gap = sense * (bmed - amed) > (aq3 - aq1)
        ratio = f"{bmed / amed:.3f}" if amed else "-"
        if name in bounds:
            worse = -sense * (bmed - amed) / abs(amed) if amed else 0.0
            bound = "EXCEEDED" if worse > bounds[name] else "within"
        else:
            bound = "-"
        print(f"  {name:<34} {cell(amed, aq1, aq3):>34} {cell(bmed, bq1, bq3):>34}"
              f" {ratio:>6} {wins:>3}/{len(pairs):<2} {'yes' if gap else 'no':>7} {bound:>8}")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="WORKTREE")
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", required=True, help="LO-HI, one pair per seed")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", default=os.path.join(ROOT, ".ab-work"))
    args = ap.parse_args()
    try:
        lo, hi = (int(x) for x in args.seeds.split("-"))
    except ValueError:
        fail(f"--seeds {args.seeds!r}: expected LO-HI")
    if hi < lo:
        fail(f"--seeds {args.seeds!r}: empty range")

    checkouts = {side: os.path.join(args.work, side) for side in ("parent", "change")}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        export(rev, checkouts[side])
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/crsched.exe",
             "./perfbench/harness/perfbench.exe"],
            cwd=checkouts[side], env=dict(os.environ, DUNE_CACHE="disabled"))
        if build.returncode != 0:
            fail(f"{side} ({rev}) does not build")

    ok = True
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(range(lo, hi + 1)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(checkouts[side], workload, seed, args.seconds, args.trace)
                ok = ok and pair[side]["correct"] and pair[side]["exit"] == 0
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{s} {pair[s]['metrics'].get('throughput_rps', {}).get('value', float('nan')):.1f} rps"
                for s in order), flush=True)
            pairs.append(pair)
        with open(os.path.join(args.work, f"ab-{workload}.json"), "w") as f:
            json.dump({"parent": args.parent, "change": args.change, "seconds": args.seconds,
                       "trace": args.trace, "pairs": pairs}, f, indent=1)
        report(workload, pairs, bench)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
