"""The paired-run summary of tools/bench_pairs.py, on made-up run results."""

import importlib.util
import json
import os
from xml.etree import ElementTree

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _result(items_per_s, peak_rss_mb, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def test_last_json_reads_the_final_line():
    assert bench_pairs.last_json('metric x 1\n{"correct": true}\n\n') \
        == {"correct": True}
    with pytest.raises(ValueError):
        bench_pairs.last_json("")


def test_summary_counts_wins_by_direction_and_not_ties():
    results = [{"parent": _result(4.0, 35.0), "head": _result(8.0, 36.0)},
               {"parent": _result(5.0, 35.0), "head": _result(5.0, 34.0)},
               {"parent": _result(6.0, 35.0), "head": _result(9.0, 35.0)},
               {"parent": _result(7.0, 36.0), "head": _result(6.0, 37.0)}]
    rows = bench_pairs.summarize(results, END_TO_END)
    rate = rows["items_per_s"]
    assert rate["pairs"] == 4 and rate["bound"] == 0.25
    assert (rate["head_won"], rate["parent_won"]) == (2, 1)
    assert rate["parent"]["runs"] == [4.0, 5.0, 6.0, 7.0]
    assert (rate["parent"]["q1"], rate["parent"]["median"],
            rate["parent"]["q3"]) == (4.75, 5.5, 6.25)
    assert rate["head"]["median"] == 7.0
    assert rate["ratio"] == pytest.approx(7.0 / 5.5)
    rss = rows["peak_rss_mb"]
    assert (rss["head_won"], rss["parent_won"]) == (1, 2)
    assert rss["better"] == "lower" and rss["bound"] == 0.1


def test_summary_of_one_pair_and_of_a_missing_metric():
    broken = {"correct": False, "error": "exit 1: run printed nothing"}
    results = [{"parent": _result(4.0, 35.0), "head": _result(8.0, 36.0)},
               {"parent": _result(5.0, 35.0), "head": broken}]
    rows = bench_pairs.summarize(results, END_TO_END)
    assert rows["items_per_s"]["pairs"] == 1
    assert rows["items_per_s"]["parent"]["q1"] \
        == rows["items_per_s"]["parent"]["q3"] == 4.0
    tally = bench_pairs.counts(results)
    assert tally["head"]["incorrect_runs"] == 1
    assert tally["head"]["errors"] == ["exit 1: run printed nothing"]
    assert tally["parent"]["incorrect_runs"] == 0


def _acceptance(ac1, ac3, failed=()):
    metrics = {"ac1": {"value": ac1, "unit": "s"},
               "ac3": {"value": ac3, "unit": "s"}}
    result = {"correct": not failed, "attempted": 2, "failed": len(failed),
              "metrics": metrics}
    if failed:
        result["error"] = "failed " + ", ".join(failed)
    return result


def test_acceptance_result_reads_call_times_and_failures():
    root = ElementTree.fromstring(
        '<testsuites><testsuite name="pytest">'
        '<testcase classname="tests.test_acceptance" '
        'name="test_ac1_basic_type_relations" time="0.031"/>'
        '<testcase classname="tests.test_acceptance" '
        'name="test_ac3_cyclic_rank_cross_validation" time="31.5">'
        '<failure message="AC3 budget">slow</failure></testcase>'
        '<testcase classname="tests.test_acceptance" '
        'name="test_ac10_future_sweep" time="2.0"/>'
        '<testcase classname="tests.test_acceptance" '
        'name="test_report_helper" time="0.5"/>'
        '</testsuite></testsuites>')
    result = bench_pairs.acceptance_result(root)
    assert {name: m["value"] for name, m in result["metrics"].items()} \
        == {"ac1": 0.031, "ac3": 31.5, "ac10": 2.0}
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 3, 1)
    assert result["error"] == "failed ac3"
    clean = ElementTree.fromstring(
        '<testsuite><testcase name="test_ac2_signature_table" time="0.004"/>'
        '</testsuite>')
    assert bench_pairs.acceptance_result(clean) == {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"ac2": {"value": 0.004, "unit": "s"}}}


def test_main_alternates_sides_and_writes_the_file(tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout == str(parent) else "head"
        calls.append((side, seed))
        return _result(5.0 if side == "parent" else 10.0, 35.0)

    timings = iter([_acceptance(0.03, 20.0), _acceptance(0.02, 14.0),
                    _acceptance(0.02, 12.0), _acceptance(0.04, 22.0),
                    _acceptance(0.03, 21.0),
                    _acceptance(0.02, 31.0, failed=["ac3"])])

    def fake_acceptance(checkout):
        side = "parent" if checkout == str(parent) else "head"
        calls.append((side, "acceptance"))
        return next(timings)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "time_acceptance", fake_acceptance)
    monkeypatch.setattr(bench_pairs, "drop_bytecode", lambda checkout: None)
    out = tmp_path / "BENCH.json"
    status = bench_pairs.main(["--parent", str(parent), "--workload",
                               "enumerate-stream", "--pairs", "3",
                               "--seconds", "1", "--seed", "7",
                               "--out", str(out)])
    # a failed acceptance sweep is recorded and makes the exit status 1
    assert status == 1
    assert calls == [("parent", 7), ("head", 7), ("head", 8), ("parent", 8),
                     ("parent", 9), ("head", 9),
                     ("parent", "acceptance"), ("head", "acceptance"),
                     ("head", "acceptance"), ("parent", "acceptance"),
                     ("parent", "acceptance"), ("head", "acceptance")]
    report = json.loads(out.read_text())
    assert report["seeds"] == [7, 8, 9]
    rows = report["workloads"]["enumerate-stream"]["metrics"]
    assert rows["items_per_s"]["head_won"] == 3
    assert rows["peak_rss_mb"]["head_won"] == rows["peak_rss_mb"][
        "parent_won"] == 0
    sweeps = report["acceptance"]["metrics"]
    assert list(sweeps) == ["ac1", "ac3"]
    # rounds 2 and 3 ran head first: (parent, head) = (20, 14), (22, 12),
    # (21, 31)
    assert sweeps["ac3"]["parent"]["runs"] == [20.0, 22.0, 21.0]
    assert sweeps["ac3"]["head"]["runs"] == [14.0, 12.0, 31.0]
    assert (sweeps["ac3"]["parent"]["median"],
            sweeps["ac3"]["head"]["median"]) == (21.0, 14.0)
    assert (sweeps["ac3"]["head_won"], sweeps["ac3"]["parent_won"]) == (2, 1)
    assert sweeps["ac3"]["better"] == "lower" and sweeps["ac3"]["unit"] == "s"
    assert sweeps["ac3"]["bound"] is None
    runs = report["acceptance"]["runs"]
    assert runs["head"]["errors"] == ["failed ac3"]
    assert runs["head"]["incorrect_runs"] == 1
    assert runs["parent"]["incorrect_runs"] == 0
    assert bench_pairs.main(["--parent", str(parent), "--workload", "nope",
                             "--pairs", "1", "--seconds", "1",
                             "--out", str(out)]) == 2
