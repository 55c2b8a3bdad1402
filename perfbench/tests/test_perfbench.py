"""Tests of the benchmark itself: the counters repeat, tracing off changes
nothing, the correctness gate can fail, and the span tree accounts for each
workload's pass.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads
from conftest import BENCH, ROOT

SRC = os.path.join(ROOT, "src")
SERIES = ("qseries.", "siegel.unit", "eisenstein.")


def traced_pass(workload, seed):
    return run.Runner(workload, seed, src=SRC).child(workload, True)


@pytest.fixture(scope="module")
def traced():
    """One traced pass of each workload at seed 0."""
    return {w: traced_pass(w, 0) for w in workloads.WORKLOADS}


def share(p, prefixes):
    """Share of the pass's check time covered by spans of the given layers."""
    spans = p["spans"]
    covered = tracer.busy(spans, lambda n: n.startswith(prefixes))
    total = tracer.busy(spans, lambda n: n.startswith("catalog."))
    return covered / total


def test_counters_repeat_across_runs_and_seeds(traced):
    for workload, seeds in (("symbolic", [0, 5]), ("hecke", [3])):
        for seed in seeds:
            assert traced_pass(workload, seed)["counters"] == \
                traced[workload]["counters"], (workload, seed)


def test_tracing_off_replaces_no_rankin_function():
    import rankin.catalog
    import rankin.siegel
    before = tracer.rankin_bindings()
    records, _, _ = workloads.run_pass("symbolic", 0)
    assert all(r["status"] == "PASS" for r in records.values())
    after = tracer.rankin_bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)

    t = tracer.Tracer()
    t.install()
    try:
        # every binding made by `from ... import` is wrapped, not just the source
        wrapped = rankin.siegel.distribution_check
        assert wrapped.__wrapped__ is before[("rankin.siegel", "distribution_check")]
        assert rankin.catalog.distribution_check is wrapped
        assert rankin.distribution_check is wrapped
    finally:
        t.uninstall()
    after = tracer.rankin_bindings()
    assert all(before[k] is after[k] for k in before)


def test_span_tree_accounts_for_each_pass(traced):
    for w in ("dlog", "dist"):
        assert share(traced[w], SERIES) > 0.9, w
        assert share(traced[w], ("cosets.",)) == 0, w
    assert share(traced["hecke"], ("cosets.",)) > 0.9
    assert share(traced["hecke"], SERIES) == 0
    assert share(traced["symbolic"], SERIES) < 0.2
    assert share(traced["symbolic"], ("cosets.",)) == 0
    for p in traced.values():
        spans = p["spans"]
        assert all(s[1] <= s[2] for s in spans)
        assert all(parent < i for i, (_, _, _, parent) in enumerate(spans))
        assert min(tracer.self_times(spans)) > -1e-6


def copy_checkout(dest):
    shutil.copytree(os.path.join(SRC, "rankin"), os.path.join(dest, "src", "rankin"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def bench(cwd, workload="symbolic"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gate_catches_a_failing_entry(tmp_path):
    copy_checkout(tmp_path)
    with open(tmp_path / "src" / "rankin" / "catalog.py", "a", encoding="utf-8") as fh:
        fh.write("\nCATALOG[:] = [(i, s, (lambda cfg: ('FAIL', 'stub')) if "
                 "i == 'iwahori-table' else r) for i, s, r in CATALOG]\n")
    proc = bench(tmp_path)
    out = result(proc)
    assert proc.returncode == 1
    assert not out["correct"] and out["failed"] == run.MIN_PASSES
    assert out["metrics"]["pass_ratio"]["value"] == pytest.approx(
        1 - out["failed"] / out["attempted"])
    assert "FAILED pass 0: iwahori-table" in proc.stdout


def test_gate_catches_a_changed_witness(tmp_path):
    copy_checkout(tmp_path)
    ref_path = tmp_path / "perfbench" / "reference" / "symbolic.json"
    ref = json.loads(ref_path.read_text())
    ref["correction-polynomial"]["witness"]["C"] = "2"
    ref_path.write_text(json.dumps(ref))
    proc = bench(tmp_path)
    out = result(proc)
    assert proc.returncode == 1
    assert not out["correct"] and out["failed"] == run.MIN_PASSES
    assert out["metrics"]["pass_ratio"]["value"] < 1


def test_without_the_program_no_result(tmp_path):
    copy_checkout(tmp_path)
    shutil.rmtree(tmp_path / "src")
    proc = bench(tmp_path)
    assert proc.returncode not in (0, 1)
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()


def test_scaling_to_the_reference_speed():
    import hostspeed
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, [ref, ref]) == pytest.approx(2.0)
    # a host at half speed for the whole check: half the work per second
    assert hostspeed.scale(2.0, [2 * ref] * 3) == pytest.approx(1.0)
    # half the check at full speed, half at half speed
    assert hostspeed.scale(2.0, [ref, 2 * ref]) == pytest.approx(1.5)
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.times) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.times))
