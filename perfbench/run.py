"""The workbench benchmark: time to verdict of four catalog workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dlog --seed 0 --seconds 25 --trace 0

The load is a closed loop with one client: one pass at a time, each pass in
a fresh interpreter (users run the `rankin` CLI once per invocation, so a
cache that outlives a pass must not show up as a gain), no threads.  Passes
start while they are expected to end within --seconds, and at least
MIN_PASSES run.

The shared host runs a process up to 2x slower at one moment than at
another, so setup_s and verdict_s are scaled to a reference host speed:
hostspeed.py times a fixed stdlib workload just before and after each check
and after each set-up, and each check's wall time is scaled by the
reference time over the mean of its two samples.  The output lines give the
unscaled wall times too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, reports the per-layer metrics of the traced ones and the
fixed-size layer probes, and writes every span to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check instance
of every pass passed and matched the reference, 1 when one did not, and 2
when the benchmark could not run (no rankin sources, a crashed child).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 2
MIN_SETUPS = 11       # setup_s is the median of at least this many set-ups
DEADLINE_S = 170      # the whole invocation stays under 180 s

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "ratio")]

# Per-layer metrics.  Counts come from the traced pass's counters; busy_s
# and self_s are medians over the traced passes.
COUNTS = [
    "qseries.mul.count", "qseries.mul.terms", "qseries.inverse.count",
    "qseries.pow.count", "qseries.mul_one_minus.count",
    "cyclo.mul.count", "cyclo.add.count", "cyclo.inverse.count",
    "siegel.unit.count", "eisenstein.qexp.count",
    "cosets.from_condition.count", "cosets.enumerated", "cosets.to_level.count",
    "cosets.coset_reps.count", "cosets.same_right_coset.count", "cosets.lift_sl2.count",
    "poly.mpoly_mul.count", "poly.ratfunc_new.count", "quotring.mul.count",
    "quotring.inverse.count",
    "otsuki.bareiss_solve.count",
]
TIMES = [
    "qseries.mul.busy_s", "qseries.inverse.busy_s", "qseries.pow.busy_s",
    "qseries.mul_one_minus.busy_s", "siegel.unit.busy_s", "siegel.unit_c.busy_s",
    "siegel.check.busy_s", "eisenstein.qexp.busy_s",
    "cosets.from_condition.busy_s", "cosets.coset_reps.busy_s",
    "cosets.same_right_coset.busy_s", "cosets.double_coset_multiply.busy_s",
    "otsuki.bareiss_solve.busy_s", "otsuki.trace_check.busy_s",
    "euler.functional_symmetry.busy_s", "euler.weil_check.busy_s",
    "euler.rankin_euler_factor.busy_s", "euler.local_correction.busy_s",
    "normrel.busy_s", "operators.busy_s", "forms.p_stabilize.busy_s",
    "forms.congruence_scan.busy_s", "forms.ingest.busy_s",
] + [f"{layer}.self_s" for layer in (
    "qseries", "siegel", "eisenstein", "cosets", "otsuki", "euler", "normrel",
    "operators", "forms", "catalog")]
RATIOS = ["cosets.enum_yield", "cosets.to_level.repeat_ratio",
          "trace.overhead_ratio"]
PROBES = [("probe.cyclo_mul_us.phi4", "us"), ("probe.cyclo_mul_us.phi16", "us"),
          ("probe.qseries_mul_ms.prec200", "ms"),
          ("probe.qseries_inverse_ms.prec200", "ms"),
          ("probe.sl2_enum_ms.M45", "ms"), ("probe.coset_reps_ms.g1_5_diag9", "ms"),
          ("probe.linsolve_ms.n16", "ms")]


def catalog_ids():
    from rankin import CATALOG
    return [ident for ident, _, _ in CATALOG]


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = [(n, "count") for n in COUNTS]
    out += [(n, "s") for n in TIMES]
    out += [(f"catalog.{i}.busy_s", "s") for i in catalog_ids()]
    out += [(n, "ratio") for n in RATIOS] + PROBES
    return out


class BenchError(Exception):
    pass


class Runner:
    """Starts children in the checkout, one at a time, within the deadline."""

    def __init__(self, workload, seed, src="src"):
        self.workload, self.seed = workload, seed
        self.t0 = time.monotonic()
        # a fixed hash seed keeps set and dict orders, and so the counters,
        # the same from pass to pass
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                        PYTHONHASHSEED="0")

    def _run(self, argv):
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise BenchError("out of time before the run was complete")
        try:
            proc = subprocess.run([sys.executable] + argv, env=self.env,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv)} did not finish within the deadline")
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def child(self, workload, trace):
        return self._run([os.path.join(HERE, "child.py"), workload,
                          str(self.seed), "1" if trace else "0"])

    def probes(self):
        return self._run([os.path.join(HERE, "probes.py")])

    def elapsed(self):
        return time.monotonic() - self.t0


class Window:
    """The measuring window of one run: another pass (or traced pair) starts
    while it is expected to end within the window, judged by the median
    duration so far, and until ``minimum`` have run."""

    def __init__(self, seconds, minimum):
        self.seconds, self.minimum = seconds, minimum
        self.start, self.mark = time.monotonic(), None
        self.durations = []

    def another(self):
        now = time.monotonic()
        if self.mark is not None:
            self.durations.append(now - self.mark)
        self.mark = now
        if len(self.durations) < self.minimum:
            return True
        return now - self.start + statistics.median(self.durations) <= self.seconds


def end_to_end(runner, seconds):
    runner.child("setup", False)   # compile bytecode; users do not pay this per run
    window, passes = Window(seconds, MIN_PASSES), []
    while window.another():
        passes.append(runner.child(runner.workload, False))
    setups = passes[:]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child("setup", False))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    metrics = {
        "setup_s": statistics.median(p["setup_scaled_s"] for p in setups),
        "verdict_s": statistics.median(p["scaled_s"] for p in passes),
        "peak_rss_mb": statistics.median([p["maxrss_kb"] for p in passes]) / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    walls = [p["verdict_s"] for p in passes]
    notes = {"verdict_s": f"median of {len(passes)} passes; wall time min "
                          f"{min(walls):.4f}, median {statistics.median(walls):.4f}, "
                          f"max {max(walls):.4f}",
             "setup_s": f"median of {len(setups)} set-ups; wall time median "
                        f"{statistics.median(p['setup_s'] for p in setups):.4f}",
             "peak_rss_mb": f"median of {len(passes)} passes"}
    return passes, attempted, failed, metrics, notes


def per_layer(runner, seconds):
    runner.child("setup", True)
    window, plain, traced = Window(seconds, 1), [], []
    while window.another():
        plain.append(runner.child(runner.workload, False))
        traced.append(runner.child(runner.workload, True))
    probes = runner.probes()
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)

    counters = traced[0]["counters"]
    for p in traced[1:]:
        if p["counters"] != counters:
            print("warning: counters differ between traced passes", file=sys.stderr)
    metrics = {n: counters.get(n, 0) for n in COUNTS}
    layer_names = set(TIMES) | {f"catalog.{i}.busy_s" for i in catalog_ids()}
    for name in sorted(layer_names):
        metrics[name] = statistics.median([p["layers"].get(name, 0.0) for p in traced])
    enumerated = counters.get("cosets.enumerated", 0)
    metrics["cosets.enum_yield"] = (counters.get("cosets.kept", 0) / enumerated
                                    if enumerated else 0.0)
    to_level = counters.get("cosets.to_level.count", 0)
    metrics["cosets.to_level.repeat_ratio"] = (
        counters.get("cosets.to_level.repeats", 0) / to_level if to_level else 0.0)
    metrics["trace.overhead_ratio"] = (statistics.median(p["scaled_s"] for p in traced)
                                       / statistics.median(p["scaled_s"] for p in plain))
    metrics.update(probes)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{runner.workload}-seed{runner.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": runner.workload, "seed": runner.seed,
                   "passes": [{"pass_id": i, "counters": p["counters"],
                               "spans": [s + [i] for s in p["spans"]]}
                              for i, p in enumerate(traced)]}, fh)
    notes = {"trace.overhead_ratio": f"{len(traced)} traced / {len(plain)} untraced passes",
             "spans": f"written to {os.path.relpath(path)}"}
    return passes, attempted, failed, metrics, notes


def revision():
    """The git revision of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "rankin", "__init__.py")):
        print("error: run from the repository root; src/rankin is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # on SIGTERM, subprocess.run kills and reaps the running child as the
    # SystemExit unwinds through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        passes, attempted, failed, metrics, notes = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = dict(per_layer_units() if args.trace else END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  cpus {os.cpu_count()}  "
          f"revision {revision()}  wall {runner.elapsed():.1f} s")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit:6s} {note}")
    if "spans" in notes:
        print(f"  spans {notes['spans']}")
    for i, p in enumerate(passes):
        for ident in p["failed"]:
            print(f"  FAILED pass {i}: {ident}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
