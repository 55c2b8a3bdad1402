"""tools/bench.py with a stubbed perfbench run: the file is written, and a
run graded incorrect or with a failed check makes the exit code 1."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", os.path.join(TOOLS, "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(tmp_path, monkeypatch):
    module = load_bench()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "verdict_s", "unit": "s", "better": "lower"},
                       {"name": "pass_ratio", "unit": "ratio", "better": "higher"}]}))
    for tree, sources in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                          ("change", {"a.py": "x = 1\n", "notes.txt": "not\ncounted\n"}),
                          ("chg", {"a.py": "x = 1\n"})):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "perfbench" / "run.py").write_text("")
        (tmp_path / tree / "src" / "rankin").mkdir(parents=True)
        for name, text in sources.items():
            (tmp_path / tree / "src" / "rankin" / name).write_text(text)
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    monkeypatch.setattr(module, "revision", lambda tree: "stub")
    return module


def stub_run(bad=None):
    """A stand-in for bench.run; ``bad`` = (workload, tree, call) makes that
    call (0-based, in the order made for that workload and tree) fail a check."""
    calls = {}

    def run(tree, workload, seed, seconds, trace):
        key = (workload, os.path.basename(tree))
        call = calls[key] = calls.get(key, -1) + 1
        failed = int(bad == (*key, call))
        return {"correct": not failed, "attempted": 3, "failed": failed,
                "metrics": {"verdict_s": {"value": 0.5 - 0.1 * (key[1] == "change"),
                                          "unit": "s"},
                            "pass_ratio": {"value": 1.0 - failed / 3, "unit": "ratio"},
                            "qseries.mul.count": {"value": 7, "unit": "count"}}}
    return run


def main(bench, tmp_path):
    bench.main(["--label", "t", "--parent", str(tmp_path / "parent"),
                "--change", str(tmp_path / "change")])
    with open(tmp_path / "BENCH_t.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_clean_runs_exit_zero(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "run", stub_run())
    report = main(bench, tmp_path)
    assert report["workloads"]["dist"]["wins"] == {"verdict_s": 10, "pass_ratio": 0}
    assert report["workloads"]["dist"]["change"]["counters"] == {"qseries.mul.count": 7}
    assert report["workloads"]["dist"]["moved"] == {}
    assert report["trees"] == {"parent": {"revision": "stub", "src_lines": 3},
                               "change": {"revision": "stub", "src_lines": 1}}


def test_verdict_medians_and_wins_are_printed_per_workload(bench, tmp_path, monkeypatch,
                                                            capsys):
    stub = stub_run()
    calls = []

    def run(tree, workload, seed, seconds, trace):
        # the change wins every pair but the fourth, which it ties
        result = stub(tree, workload, seed, seconds, trace)
        if os.path.basename(tree) == "change":
            calls.append(tree)
            if len(calls) % (bench.PAIRS + 1) == 4:
                result["metrics"]["verdict_s"]["value"] = 0.5
        return result

    monkeypatch.setattr(bench, "run", run)
    main(bench, tmp_path)
    err = capsys.readouterr().err.splitlines()
    lines = [line for line in err if "verdict_s median" in line]
    assert lines == [f"{w} verdict_s median: parent 0.5000 s, change 0.4000 s; "
                     f"change better in 9 of 10 pairs" for w in bench.WORKLOADS]


def test_every_end_to_end_metric_is_summarised_per_workload(bench, tmp_path, monkeypatch,
                                                            capsys):
    stub = stub_run()

    def run(tree, workload, seed, seconds, trace):
        # the change has the higher pass_ratio in the first pair only
        result = stub(tree, workload, seed, seconds, trace)
        if os.path.basename(tree) == "parent" and workload == "hecke":
            run.parent_calls += 1
            if run.parent_calls == 1:
                result["metrics"]["pass_ratio"]["value"] = 0.9
        return result

    run.parent_calls = 0
    monkeypatch.setattr(bench, "run", run)
    main(bench, tmp_path)
    err = capsys.readouterr().err.splitlines()
    lines = [line for line in err if "median" in line]
    assert lines == [line for w in bench.WORKLOADS for line in (
        f"{w} verdict_s median: parent 0.5000 s, change 0.4000 s; "
        f"change better in 10 of 10 pairs",
        f"{w} pass_ratio median: parent 1.0000 ratio, change 1.0000 ratio; "
        f"change better in {int(w == 'hecke')} of 10 pairs")]


def test_moved_counters_are_written_and_printed(bench, tmp_path, monkeypatch, capsys):
    stub = stub_run()

    def run(tree, workload, seed, seconds, trace):
        result = stub(tree, workload, seed, seconds, trace)
        if os.path.basename(tree) == "change":
            result["metrics"]["poly.mpoly_mul.count"] = {"value": 4, "unit": "count"}
            result["metrics"]["cosets.enumerated"] = {"value": 5, "unit": "count"}
        else:
            result["metrics"]["poly.mpoly_mul.count"] = {"value": 9, "unit": "count"}
        return result

    monkeypatch.setattr(bench, "run", run)
    report = main(bench, tmp_path)
    for workload in bench.WORKLOADS:
        assert report["workloads"][workload]["moved"] == {
            "cosets.enumerated": [None, 5], "poly.mpoly_mul.count": [9, 4]}
    err = capsys.readouterr().err.splitlines()
    assert "symbolic moved poly.mpoly_mul.count: 9 -> 4" in err
    assert "symbolic moved cosets.enumerated: None -> 5" in err
    assert not any("qseries.mul.count" in line for line in err)


@pytest.mark.parametrize("call, pair", [(3, "3"), (10, "traced")])
def test_failed_run_is_named_and_exits_one(bench, tmp_path, monkeypatch, capsys,
                                           call, pair):
    monkeypatch.setattr(bench, "run", stub_run(bad=("hecke", "change", call)))
    with pytest.raises(SystemExit) as exc:
        main(bench, tmp_path)
    assert exc.value.code == 1
    assert (tmp_path / "BENCH_t.json").exists()
    err = capsys.readouterr().err.splitlines()
    named = [line for line in err if "graded incorrect" in line]
    assert named == [f"hecke: the change run of pair {pair} was graded incorrect "
                     "or had a failed check"]


def test_paths_of_unequal_length_are_a_usage_error(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "run", stub_run())
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "t", "--parent", str(tmp_path / "parent"),
                    "--change", str(tmp_path / "chg")])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_tree_without_a_revision_is_a_usage_error(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "run", stub_run())
    monkeypatch.setattr(bench, "revision",
                        lambda tree: None if tree.endswith("change") else "stub")
    with pytest.raises(SystemExit) as exc:
        main(bench, tmp_path)
    assert exc.value.code == 2
    assert "no git revision" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_revision_only_at_the_top_of_a_checkout(tmp_path):
    repo = tmp_path / "repo"
    (repo / "copy").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "t"], check=True)
    head = subprocess.run(git[:3] + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    revision = load_bench().revision
    assert revision(str(repo)) == head
    assert revision(str(repo / "copy")) is None
    assert revision(str(tmp_path)) is None
