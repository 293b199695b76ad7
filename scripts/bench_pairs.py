#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py BASE CHANGE --pairs 10 --seed 1

BASE and CHANGE are git revisions of this repository (to measure uncommitted
work, stage it and pass the commit that `git stash create` prints).  Each
side is built with `git archive` into its own temporary directory, so
neither has a bytecode cache, and every run sets PYTHONDONTWRITEBYTECODE=1
so that none is written.  For each workload of BENCHMARK.json, the script
runs its command from each side's directory in N pairs, the base first in
even pairs and the change first in odd ones, for BENCHMARK.json's
run_seconds with tracing off, and reads the last JSON line of each run.  It
prints every run, then for each end-to-end metric of BENCHMARK.json the
median and quartiles of each side, the relative change of the median, and
the pairs the change won (ties count for neither side), and last the
attempted and failed counts of each side and whether the change's failed
share is above the base's.  The change of the median is "within" or "past"
the metric's bound, or "unresolved" when the base's own spread
(q3 - q1) / median is wider than the bound, unless every change run beats
every base run.  Last it prints each side's failed share pooled over all
the workloads run: every failed operation over every attempted one.  A
workload's own share is mostly fixed by how its rounds are built, so the
pooled share is the reading that a change to what fails moves.  The script
exits 1 when the change's failed share is above the base's on any workload
or pooled, else 0.  BENCHMARK.json is read, never edited.  Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def build(rev: str, into: Path) -> None:
    """A clean tree of `rev` in the directory `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, spec: dict, workload: str, seed: int) -> dict:
    """The last JSON line of one untraced benchmark run in `tree`."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def share_above(counts: dict) -> bool:
    """Print each side's attempted and failed counts, {side: (attempted,
    failed)}, and return whether the change's failed share is above the base's."""
    share = {}
    for side, (attempted, failed) in counts.items():
        share[side] = failed / attempted
        print(f"  {side:6} attempted {attempted}, failed {failed} ({share[side]:.4g})")
    above = share["change"] > share["base"]
    print(f"  failed share: the change's is {'' if above else 'not '}above the base's")
    return above


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="run only this workload of BENCHMARK.json (repeatable)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for name in args.workload or []:
        if name not in workloads:
            parser.error(f"unknown workload {name}; BENCHMARK.json lists {', '.join(workloads)}")
    workloads = args.workload or workloads
    metrics = spec["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            trees[side] = Path(tmp) / side
            trees[side].mkdir()
            build(rev, trees[side])
        print(f"base {args.base}, change {args.change}: {args.pairs} pairs per workload, "
              f"--seed {args.seed} --seconds {spec['run_seconds']} --trace 0")
        results = {}
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    out = run_once(trees[side], spec, workload, args.seed)
                    runs[side].append(out)
                    values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.6g}"
                                      for m in metrics)
                    print(f"  {workload} pair {i} {side:6} {values} "
                          f"attempted={out['attempted']} failed={out['failed']}", flush=True)
            results[workload] = runs

    more_failures = []
    pooled = {"base": [0, 0], "change": [0, 0]}  # side: [attempted, failed]
    for workload, runs in results.items():
        print(f"\n{workload}")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            quartiles = {side: statistics.quantiles(v, n=4, method="inclusive")
                         for side, v in values.items()}
            for side, (q1, q2, q3) in quartiles.items():
                print(f"  {name:12} {side:6} median {q2:.6g} {m['unit']}, "
                      f"quartiles {q1:.6g}..{q3:.6g} (spread {q3 - q1:.3g})")
            (q1, base_median, q3), change_median = quartiles["base"], quartiles["change"][1]
            change = (change_median - base_median) / base_median
            worse = change if lower else -change
            won = sum((c < b) if lower else (c > b)
                      for b, c in zip(values["base"], values["change"]))
            # a spread wider than the bound cannot tell a move within it from noise
            if lower:
                separated = max(values["change"]) < min(values["base"])
            else:
                separated = min(values["change"]) > max(values["base"])
            spread = (q3 - q1) / base_median
            if spread > m["bound"] and not separated:
                verdict = f"unresolved, base spread {spread:.0%}"
            else:
                verdict = "past" if worse > m["bound"] else "within"
            print(f"  {name:12} change of the median {change:+.1%} (bound {m['bound']:.0%}: "
                  f"{verdict}); change won {won} of {args.pairs} pairs")
        counts = {side: (sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs))
                  for side, rs in runs.items()}
        for side, (attempted, failed) in counts.items():
            pooled[side][0] += attempted
            pooled[side][1] += failed
        if share_above(counts):
            more_failures.append(workload)
    print(f"\npooled over {', '.join(results)}")
    if share_above(pooled):
        more_failures.append("all workloads pooled")
    if more_failures:
        print(f"\nfailed share above the base's on {', '.join(more_failures)}")
    return 1 if more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
