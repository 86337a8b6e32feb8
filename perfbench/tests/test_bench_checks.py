"""The output checkers flag injected wrong answers and accept added fields."""

import copy
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import graphgen  # noqa: E402
import workloads  # noqa: E402


def _genus_payload(order, center, genus):
    return {"group": {"name": "G", "order": order, "center_order": center,
                      "is_ac": True},
            "graph": {"vertices": order - center, "edges": 1, "girth": 3},
            "blocks": [],
            "genus": {"kind": "exact", "value": genus, "certificate": "BlockSum"}}


def _verify_payload():
    payload = {suite: {"checks": [{"ok": True}] * n, "passed": n, "failed": 0}
               for suite, n in workloads.VERIFY_SUITE_CHECKS.items()}
    payload["ok"] = True
    return payload


def test_expected_group_values_follow_the_order_formulas():
    assert workloads.sl2_order(8) == 504
    assert workloads.gl2_order(5) == 480
    assert workloads.gl2_order(4) == 180
    expected = {op.op_id: dict(op.expect)[("genus", "value")]
                for op in workloads.GENUS_MATRIX + workloads.GENUS_DIHEDRAL}
    assert expected == {"PSL2-8": 101, "GL2-5": 398, "GL2-4": 61,
                        "D400": 3153, "Q400": 3153, "SD256": 1251}


def test_genus_checker_accepts_right_answer_and_added_fields():
    op = workloads.GENUS_MATRIX[0]
    payload = _genus_payload(504, 1, 101)
    assert workloads.check_cli_output(op, 0, payload) is None
    payload["graph"]["new_field"] = 7
    payload["extra"] = {"anything": True}
    assert workloads.check_cli_output(op, 0, payload) is None


def test_genus_checker_flags_injected_wrong_answers():
    op = workloads.GENUS_MATRIX[0]
    good = _genus_payload(504, 1, 101)
    for path, wrong in [(("genus", "value"), 100), (("group", "order"), 48),
                        (("group", "center_order"), 2),
                        (("graph", "vertices"), 504), (("genus", "kind"), "bounds"),
                        (("genus", "value"), 101.0)]:
        payload = copy.deepcopy(good)
        payload[path[0]][path[1]] = wrong
        assert workloads.check_cli_output(op, 0, payload), path
    del good["genus"]
    assert workloads.check_cli_output(op, 0, good)
    assert workloads.check_cli_output(op, 1, _genus_payload(504, 1, 101))
    assert workloads.check_cli_output(op, 0, None)


def test_verify_checker_flags_failures_and_changed_counts():
    op = workloads.VERIFY_ALL[0]
    assert workloads.check_cli_output(op, 0, _verify_payload()) is None
    payload = _verify_payload()
    payload["ok"] = False
    assert workloads.check_cli_output(op, 0, payload)
    payload = _verify_payload()
    payload["bounds"]["passed"] = 175
    assert workloads.check_cli_output(op, 0, payload)
    payload = _verify_payload()
    payload["planar"]["failed"] = 1
    assert workloads.check_cli_output(op, 0, payload)
    assert workloads.check_cli_output(op, 1, _verify_payload())


def test_graph_checker_flags_injected_wrong_answers():
    ops = graphgen.generate(3)
    for op in ops:
        if op.exact:
            right = {"kind": "exact", "value": op.genus}
            assert graphgen.check_result(op, right) is None
            assert graphgen.check_result(op, {"kind": "exact", "value": op.genus + 1})
            assert graphgen.check_result(
                op, {"kind": "bounds", "lower": op.genus, "upper": op.genus + 1})
        else:
            inside = {"kind": "bounds", "lower": 0, "upper": 3}
            assert graphgen.check_result(op, inside) is None
            assert graphgen.check_result(op, {"kind": "bounds", "lower": 2, "upper": 3})
            assert graphgen.check_result(op, {"kind": "exact", "value": 2})


def test_run_passes_covers_every_op_in_whole_passes():
    seen = []
    passes = workloads.run_passes(random.Random(5), 4, 0.0, 3, 60.0,
                                  lambda index, remaining: seen.append(index))
    assert passes == 3
    assert sorted(seen) == sorted(list(range(4)) * 3)
    assert all(sorted(seen[i:i + 4]) == [0, 1, 2, 3] for i in (0, 4, 8))


def test_run_passes_reports_remaining_time_for_the_deadline():
    remaining = []
    workloads.run_passes(random.Random(0), 3, 0.0, 1, -1.0,
                         lambda index, left: remaining.append(left))
    assert len(remaining) == 3 and all(left < 0 for left in remaining)
