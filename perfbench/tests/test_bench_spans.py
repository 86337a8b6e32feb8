"""Spans, self times and the benchmark's contract file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TOLERANCE = 1e-9


def _assert_self_times_bounded(dump):
    spans_ = dump["spans"]
    selfs = spans.self_times(spans_, dump["leaves"])
    for (name, start, end, parent, _op), self_s in zip(spans_, selfs):
        duration = end - start
        assert -TOLERANCE <= self_s <= duration + TOLERANCE, name
        if parent >= 0:
            _, p_start, p_end, _, _ = spans_[parent]
            assert p_start <= start and end <= p_end, name
            assert self_s <= p_end - p_start + TOLERANCE, name
    for parent, _name, _calls, seconds in dump["leaves"]:
        if parent >= 0:
            _, p_start, p_end, _, _ = spans_[parent]
            assert seconds <= p_end - p_start + TOLERANCE


def test_self_time_subtracts_children_and_leaves():
    dump = {"spans": [["cli", 0.0, 10.0, -1, "op"],
                      ["engine.report", 1.0, 6.0, 0, "op"],
                      ["graphs.girth", 2.0, 4.0, 1, "op"],
                      ["catalog.build", 7.0, 9.0, 0, "op"]],
            "leaves": [[3, "fields.mat2_mul", 100, 1.5]]}
    assert spans.self_times(dump["spans"], dump["leaves"]) == [3.0, 3.0, 2.0, 0.5]
    _assert_self_times_bounded(dump)


def _traced_cli(tmp_path, *args):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), "cli", str(out),
                           "op-1", "--", *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(out.read_text())


@pytest.mark.parametrize("args", [("genus", "--name", "D", "--param", "12"),
                                  ("genus", "--name", "GL2", "--param", "3"),
                                  ("verify", "acyclic")])
def test_real_trace_self_times_never_exceed_parent(tmp_path, args):
    payload, dump = _traced_cli(tmp_path, *args)
    assert dump["spans"][0][0] == "cli" and dump["spans"][0][3] == -1
    assert all(span[4] == "op-1" for span in dump["spans"])
    _assert_self_times_bounded(dump)
    values = spans.layer_metrics(dump)
    assert set(values) == set(run.PER_LAYER_UNITS) - {"trace.overhead_s"}
    if args[0] == "genus":
        assert payload["genus"]["kind"] == "exact"
        assert values["groups.elements_built"] >= payload["group"]["order"]
        assert values["engine.report_s"] > 0 and values["engine.json_s"] > 0
    if "GL2" in args:
        assert values["fields.mat2_mul_calls"] > 0
    if args[0] == "verify":
        assert values["cli.suite_s.acyclic"] > 0
        hits, lookups = values["catalog.report_cache_hit_ratio"]
        assert lookups > 0 and 0 <= hits <= lookups


def test_oracle_facts_are_computed_from_degrees():
    class Graph:  # K3,3 on 0..5 plus vertex 6 joined to 0 and 3
        n = 7

        def edges(self):
            return [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)] + [(0, 6), (3, 6)]
    systems, tight = spans.oracle_input_facts(Graph(), 1)
    assert systems == 6 * 2 * 2 * 6 * 2 * 2 * 1
    assert tight  # Euler bound is 0, so max(1, 0) == 1
    assert not spans.oracle_input_facts(Graph(), 2)[1]


def test_cli_run_flags_a_wrong_expectation(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    right = workloads._genus_op("D8", "D", 8, 8, 2, 0)
    wrong = workloads._genus_op("D8-wrong", "D", 8, 8, 2, 1)
    monkeypatch.setitem(workloads.CLI_WORKLOADS, "tiny", (right, wrong))
    result = run.run_cli_workload("tiny", seed=0, budget_s=0.0, deadline_s=60.0,
                                  traced=False)
    assert result.attempted == 2
    assert len(result.errors) == 1 and result.errors[0].startswith("D8-wrong:")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
