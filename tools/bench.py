"""Benchmark a change against its parent and write BENCH_<label>.json.

Both checkouts run `python3 perfbench/run.py` from their own roots, one run
at a time, for the run_seconds of BENCHMARK.json.  Every workload gets ten
end-to-end runs (--trace 0) per tree, in pairs that alternate which tree goes
first, then one traced run (--trace 1) per tree whose counters and per-layer
times go into the file.

Run from the repository root, with git checkouts of the parent and the
change in directories whose absolute paths have the same length:

    python3 tools/bench.py --label solve --parent ../parent --change ../change --seed 7

The file records the Python version, the CPU count, and each tree's git
revision and ``src_lines``, the wc -l total of src/rankin/*.py; per workload
and tree, every run's end-to-end metrics with their median and quartiles,
and the traced counters; per workload, as ``moved``, each traced counter
whose value differs between the trees, as [parent, change] (None where a
tree has no such counter), which is also printed on standard error; and, per
end-to-end metric, the pairs in which the change did better than the parent
(ties count for neither), in the direction BENCHMARK.json gives.  After each
workload one line per end-to-end metric on standard error gives its median in
both trees and the pairs the change won.

Paths of different lengths are a usage error (exit code 2, no file
written), since peak_rss_mb moves with that length; so is a tree with no git
revision, such as a git archive copy, since the file could not say what it
measured.  Otherwise the file is written in any case; the exit code is then
1, with each such run named on standard error, when a run was graded
incorrect or had a failed check, since its timings do not time the checks
that were meant.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dlog", "dist", "hecke", "symbolic")
PAIRS = 10


def revision(tree: str):
    """The commit checked out in ``tree``, or None when ``tree`` is not the
    top of a git checkout (a copy inside another checkout has none)."""
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    top, commit = proc.stdout.splitlines()
    return commit if os.path.samefile(top, tree) else None


def src_lines(tree: str) -> int:
    """The line count of src/rankin/*.py in ``tree``, as wc -l totals it."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "rankin", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; its final JSON line."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 1: a check failed; still a result
        raise SystemExit(f"{' '.join(argv)} in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def bench_workload(trees: dict, workload: str, seed: int, seconds: float,
                   better: dict, units: dict) -> dict:
    runs = {name: [] for name in trees}
    for i in range(PAIRS):
        for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run(trees[name], workload, seed, seconds, 0)
            runs[name].append({"correct": result["correct"],
                               "attempted": result["attempted"],
                               "failed": result["failed"],
                               **{m: v["value"] for m, v in result["metrics"].items()}})
            print(f"{workload} pair {i} {name}: verdict_s "
                  f"{runs[name][-1]['verdict_s']:.4f}", file=sys.stderr)
    out = {}
    for name, path in trees.items():
        result = run(path, workload, seed, seconds, 1)
        traced = result["metrics"]
        out[name] = {
            "runs": runs[name],
            "traced": {k: result[k] for k in ("correct", "attempted", "failed")},
            "summary": {m: summary([r[m] for r in runs[name]]) for m in better},
            "counters": {m: v["value"] for m, v in traced.items() if v["unit"] == "count"},
            "per_layer": {m: v["value"] for m, v in traced.items() if v["unit"] != "count"}}
    counters = [out[name]["counters"] for name in ("parent", "change")]
    out["moved"] = {m: [c.get(m) for c in counters]
                    for m in sorted(counters[0].keys() | counters[1].keys())
                    if counters[0].get(m) != counters[1].get(m)}
    for m, (before, after) in out["moved"].items():
        print(f"{workload} moved {m}: {before} -> {after}", file=sys.stderr)
    sign = {"lower": -1, "higher": 1}
    out["wins"] = {m: sum(1 for x, y in zip(runs["parent"], runs["change"])
                          if (y[m] - x[m]) * sign[direction] > 0)
                   for m, direction in better.items()}
    out["pairs"] = PAIRS
    for m, unit in units.items():
        parent, change = (out[name]["summary"][m]["median"] for name in ("parent", "change"))
        print(f"{workload} {m} median: parent {parent:.4f} {unit}, change {change:.4f} "
              f"{unit}; change better in {out['wins'][m]} of {PAIRS} pairs", file=sys.stderr)
    return out


def bad_runs(report: dict) -> list:
    """(workload, tree, pair) of each run graded incorrect or with a failed
    check; the pair of the traced run is "traced"."""
    bad = []
    for workload, result in report["workloads"].items():
        for name in report["trees"]:
            runs = enumerate(result[name]["runs"])
            for pair, r in [*runs, ("traced", result[name]["traced"])]:
                if not r["correct"] or r["failed"]:
                    bad.append((workload, name, pair))
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    trees = {}
    for name, path in (("parent", args.parent), ("change", args.change)):
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{path} has no perfbench/run.py")
        trees[name] = os.path.abspath(path)
    if len(trees["parent"]) != len(trees["change"]):
        ap.error("the absolute paths of --parent and --change differ in length, "
                 "and peak_rss_mb moves with that length")
    revisions = {name: revision(path) for name, path in trees.items()}
    for name, rev in revisions.items():
        if rev is None:
            ap.error(f"--{name} {trees[name]} has no git revision; use a git checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    report = {"label": args.label, "python": platform.python_version(),
              "cpus": os.cpu_count(), "seed": args.seed, "seconds": seconds,
              "trees": {name: {"revision": revisions[name], "src_lines": src_lines(path)}
                        for name, path in trees.items()},
              "workloads": {w: bench_workload(trees, w, args.seed, seconds, better, units)
                            for w in WORKLOADS}}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    bad = bad_runs(report)
    for workload, name, pair in bad:
        print(f"{workload}: the {name} run of pair {pair} was graded incorrect "
              "or had a failed check", file=sys.stderr)
    if bad:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
