"""tools/bench_record.py: the fields of a BENCH_<n>.json.  Nothing here gates
a number; a fake harness stands in for bench/run.py."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "query_p50_ms")


def _fake_harness(calls):
    def harness(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, trace))
        value = len(calls) + (checkout == "change")
        meta = {"commit": None, "src_lines": 1, "workload": workload, "seed": seed}
        if workload == "batch-mixed":
            meta["records_per_s"] = 1000.0 / value
        if trace:
            meta["absent"] = []
            metrics = {"residues.orders": {"value": 7, "unit": "count"}}
        else:
            metrics = {name: {"value": value, "unit": "s"} for name in END_TO_END}
        return {"meta": meta, "result": {"correct": True, "failed": 0, "metrics": metrics}}

    return harness


def _check_fields(data):
    assert set(data["sides"]) == {"parent", "change"}
    for side in data["sides"].values():
        assert {"checkout", "commit", "src_lines", "workloads"} <= set(side)
        assert set(side["workloads"]) == set(bench_record.WORKLOADS)
        for figures in side["workloads"].values():
            assert set(figures["end_to_end"]) == set(END_TO_END)
            for spread in list(figures["end_to_end"].values()) + list(figures["named"].values()):
                assert {"median", "q1", "q3", "iqr", "runs"} <= set(spread)
                assert len(spread["runs"]) == data["runs"] >= 5
                assert spread["q1"] <= spread["median"] <= spread["q3"]
            assert figures["traced"] and figures["absent"] == []
            assert len(figures["meta"]) == data["runs"]
            assert figures["correct"] is True
    for pairs in data["pairs"].values():
        assert set(pairs) == set(END_TO_END)
        assert all(len(p) == data["runs"] for p in pairs.values())


def test_a_record_alternates_the_sides_and_keeps_every_field():
    calls = []
    data = bench_record.record({"parent": "parent", "change": "change"}, 11, 1.0, 5, _fake_harness(calls))
    _check_fields(data)
    per_workload = len(calls) // len(bench_record.WORKLOADS)
    assert per_workload == 2 * 5 + 2
    first = [calls[i][0] for i in range(0, 10, 2)]
    assert first == ["parent", "change", "parent", "change", "parent"]
    assert sum(trace for _, _, trace in calls) == 2 * len(bench_record.WORKLOADS)
    assert data["sides"]["change"]["workloads"]["batch-mixed"]["named"]["records_per_s"]["runs"]
    json.dumps(data)


def test_fewer_than_five_runs_are_refused():
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", ".", "--change", ".", "--seed", "1", "--seconds", "1",
                           "--runs", "4", "--out", "unused.json"])


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_have_every_field(path):
    _check_fields(json.loads(path.read_text()))
