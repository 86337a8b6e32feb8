import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cgraph
from cgraph.catalog import catalog_entries
from cgraph.cli import main
from cgraph.groups import MAX_ORDER
from conftest import LATIN5


@pytest.fixture
def runner():
    return CliRunner()


def invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def test_info_catalog_group(runner):
    payload = invoke_json(runner, ["info", "--name", "D", "--param", "8"])
    assert payload["order"] == 8
    assert payload["center_order"] == 2
    assert payload["is_ac"] is True
    assert payload["element_orders"] == {"1": 1, "2": 5, "4": 2}


def test_info_verbose_goes_to_stderr(runner):
    result = runner.invoke(main, ["info", "--name", "Q8", "--verbose"])
    assert result.exit_code == 0
    json.loads(result.stdout)  # stdout stays pure JSON
    assert "order 8" in result.stderr


@pytest.mark.parametrize("args, line", [
    (["--name", "D", "--param", "400"], "D400: 398 vertices, 19603 edges, genus 3153"),
    (["--name", "S", "--param", "4"], "S4: 23 vertices, 25 edges, genus 0"),
])
def test_genus_verbose_line(runner, args, line):
    result = runner.invoke(main, ["genus", *args, "--verbose"])
    assert result.exit_code == 0
    assert result.stderr == line + "\n"


def networkx_loaded(args=None) -> bool:
    """Whether a fresh interpreter holds networkx after importing cgraph.cli
    and, given args, running that command."""
    code = "import sys\nfrom cgraph.cli import main\n"
    if args is not None:
        code += f"main({args!r}, standalone_mode=False)\n"
    code += "print('networkx' in sys.modules)"
    src = str(Path(cgraph.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1] == "True"


def test_networkx_is_never_loaded(tmp_path):
    # the graph layer is self-contained: networkx is only the tests' oracle
    q12 = ["--name", "Q", "--param", "12"]
    assert not networkx_loaded()
    assert not networkx_loaded(["genus", *q12])        # AC: read from the family
    assert not networkx_loaded(["genus", "--name", "S", "--param", "4"])  # not AC
    assert not networkx_loaded(["export-dot", *q12, "--out", str(tmp_path / "q12.dot")])
    assert not networkx_loaded(["verify", "all"])


def test_info_from_table_file(runner, tmp_path):
    from cgraph.catalog import build
    g = build("S", 3)
    lines = [f"order {g.order}", "table"]
    lines += [" ".join(str(v) for v in row) for row in g.table]
    path = tmp_path / "s3.group"
    path.write_text("\n".join(lines) + "\n")
    payload = invoke_json(runner, ["info", "--file", str(path)])
    assert payload["order"] == 6 and payload["name"] == "s3"


def test_info_from_perm_generator_file(runner, tmp_path):
    path = tmp_path / "s3.group"
    path.write_text("order 6\nperm-generators 3\n(1 2)\n(1 2 3)\n")
    payload = invoke_json(runner, ["info", "--file", str(path)])
    assert payload["order"] == 6 and payload["abelian"] is False


def test_usage_errors_exit_2(runner, tmp_path):
    assert runner.invoke(main, ["info"]).exit_code == 2
    assert runner.invoke(main, ["info", "--name", "NoSuch"]).exit_code == 2
    assert runner.invoke(
        main, ["info", "--file", str(tmp_path / "missing")]).exit_code == 2
    bad = tmp_path / "bad.group"
    bad.write_text("gibberish\n")
    assert runner.invoke(main, ["info", "--file", str(bad)]).exit_code == 2
    both = ["info", "--name", "Q8", "--file", str(bad)]
    assert runner.invoke(main, both).exit_code == 2
    assert runner.invoke(main, ["verify", "nonsense"]).exit_code == 2
    no_such_option = ["genus", "--name", "D", "--param", "8", "--oracle-cap", "16"]
    assert runner.invoke(main, no_such_option).exit_code == 2


def test_genus_report_d16(runner):
    payload = invoke_json(runner, ["genus", "--name", "D", "--param", "16"])
    assert payload["group"] == {"name": "D16", "order": 16,
                                "center_order": 2, "is_ac": True}
    assert payload["graph"]["vertices"] == 14
    assert payload["genus"] == {"kind": "exact", "value": 1,
                                "certificate": "BlockSum"}
    sizes = sorted(b["size"] for b in payload["blocks"])
    assert sizes == [2, 2, 2, 2, 6]
    assert payload["bounds"]["h"] == 7


def test_genus_rejects_abelian_group(runner, tmp_path):
    message = "Error: commuting graph requires a non-abelian group"
    result = runner.invoke(main, ["genus", "--name", "Z", "--param", "6"])
    assert one_line_error(result) == message
    out = tmp_path / "z6.dot"
    result = runner.invoke(main, ["export-dot", "--name", "Z", "--param", "6",
                                  "--out", str(out)])
    assert one_line_error(result) == message
    assert not out.exists()


def test_genus_is_deterministic(runner):
    first = runner.invoke(main, ["genus", "--name", "GL2", "--param", "3"])
    second = runner.invoke(main, ["genus", "--name", "GL2", "--param", "3"])
    assert first.stdout == second.stdout


def test_export_dot(runner, tmp_path):
    out = tmp_path / "q8.dot"
    payload = invoke_json(
        runner, ["export-dot", "--name", "Q8", "--out", str(out)])
    assert payload == {"written": str(out), "vertices": 6, "edges": 3}
    text = out.read_text()
    assert text.startswith('graph "Q8" {')
    assert text.count("--") == 3


def test_export_catalog(runner, tmp_path):
    payload = invoke_json(runner, ["export-catalog"])
    assert any(e["name"] == "SD16" for e in payload)
    out = tmp_path / "catalog.json"
    invoke_json(runner, ["export-catalog", "--out", str(out)])
    assert json.loads(out.read_text()) == payload


@pytest.mark.parametrize("suite,count", [
    ("acyclic", 45), ("planar", 45), ("toroidal", 46)])
def test_verify_classification_suites(runner, suite, count):
    payload = invoke_json(runner, ["verify", suite])
    assert payload["ok"] is True
    assert payload[suite]["failed"] == 0
    assert payload[suite]["passed"] == count


def test_verify_formulas_suite(runner):
    payload = invoke_json(runner, ["verify", "formulas"])
    assert payload["ok"] is True
    checks = payload["formulas"]["checks"]
    assert all(c["formula"] == c["engine"] for c in checks)
    families = {c["family"] for c in checks}
    assert families == {"Dihedral", "Dicyclic", "Semidihedral", "PQ",
                        "PCubed", "PSL2", "GL2", "AbelianTimesAC"}


def test_verify_bounds_suite(runner):
    payload = invoke_json(runner, ["verify", "bounds"])
    assert payload["ok"] is True
    names = {c["check"] for c in payload["bounds"]["checks"]}
    assert names == {"max_commuting_set", "center_size",
                     "abelian_subgroups", "order_bound"}


def test_verify_all(runner):
    payload = invoke_json(runner, ["verify", "all"])
    assert payload["ok"] is True
    assert set(payload) == {"acyclic", "planar", "toroidal", "formulas",
                            "bounds", "ok"}


def test_verify_failure_exits_1(runner, monkeypatch):
    from cgraph import cli

    def broken_suite():
        return [{"group": "X", "ok": False}]

    monkeypatch.setitem(cli.SUITES, "acyclic", broken_suite)
    result = runner.invoke(main, ["verify", "acyclic"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["ok"] is False


def one_line_error(result):
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr
    return lines[0]


def test_non_associative_table_file_exits_2(runner, tmp_path):
    path = tmp_path / "latin5.group"
    path.write_text(LATIN5)
    result = runner.invoke(main, ["genus", "--file", str(path)])
    assert "line 2: table is not associative" in one_line_error(result)


def test_library_error_after_loading_exits_2(runner, monkeypatch):
    from cgraph import cli

    def broken(group):
        raise ValueError("subgroup is not normal")

    monkeypatch.setattr(cli, "commuting_graph", broken)
    result = runner.invoke(main, ["genus", "--name", "D", "--param", "8"])
    assert one_line_error(result) == "Error: subgroup is not normal"


def test_group_over_max_order_exits_2(runner, tmp_path):
    s8 = runner.invoke(main, ["genus", "--name", "S", "--param", "8"])
    assert f"more than {MAX_ORDER} elements" in one_line_error(s8)
    path = tmp_path / "big.group"
    path.write_text(f"order {MAX_ORDER + 1}\ntable\n")
    header = runner.invoke(main, ["info", "--file", str(path)])
    assert one_line_error(header).startswith("Error: line 1: group order")
    # generators whose closure passes the limit are reported at their section
    path.write_text("order 6\nperm-generators 8\n(1 2)\n(1 2 3 4 5 6 7 8)\n")
    closure = runner.invoke(main, ["info", "--file", str(path)])
    assert one_line_error(closure) == \
        f"Error: line 2: more than {MAX_ORDER} elements, the order limit"


@pytest.mark.parametrize("text, message", [
    # a group of order n acts on its own n elements, so no group needs more
    ("order 2\nperm-generators 10000000000\n(1 2)\n",
     f"line 2: permutation degree 10000000000 exceeds the limit of {MAX_ORDER}"),
    # longer than Python's 4300-digit limit on int(str)
    (f"order {'9' * 5000}\ntable\n",
     f"line 1: group order {'9' * 5000} exceeds the limit of {MAX_ORDER}"),
    (f"order 2\nperm-generators {'9' * 5000}\n(1 2)\n",
     f"line 2: permutation degree {'9' * 5000} exceeds the limit of {MAX_ORDER}"),
    # str.isdigit accepts a superscript that int() refuses
    ("order \u00b2\ntable\n", "line 1: expected 'order n', got 'order \u00b2'"),
    ("order 2\nperm-generators \u00b3\n",
     "line 2: expected 'perm-generators m', got 'perm-generators \u00b3'"),
    # only ASCII digits: int() would read fullwidth digits as 6
    ("order \uff10\uff16\ntable\n",
     "line 1: expected 'order n', got 'order \uff10\uff16'"),
], ids=["huge-degree", "order-5000-digits", "degree-5000-digits",
        "superscript-order", "superscript-degree", "fullwidth-order"])
def test_bad_header_number_exits_2(runner, tmp_path, text, message):
    path = tmp_path / "huge.group"
    path.write_text(text)
    result = runner.invoke(main, ["info", "--file", str(path)])
    assert one_line_error(result) == f"Error: {message}"


@pytest.mark.parametrize("line, point", [("(1 2 3)(3 2 1)", 3), ("(1 2)(1 3)", 1)])
def test_non_disjoint_cycles_exit_2_at_their_line(runner, tmp_path, line, point):
    path = tmp_path / "overlap.group"
    path.write_text(f"order 3\nperm-generators 3\n{line}\n")
    result = runner.invoke(main, ["info", "--file", str(path)])
    assert one_line_error(result) == \
        f"Error: line 3: point {point} is in two cycles of {line!r}"


@pytest.mark.parametrize("name, param", [("Z", 3000000), ("D", 20000), ("S", 100000)])
def test_parametric_build_past_max_order_exits_2(runner, name, param):
    result = runner.invoke(main, ["info", "--name", name, "--param", str(param)])
    assert one_line_error(result) == (f"Error: {name} {param} would have more than "
                                      f"{MAX_ORDER} elements, the order limit")


@pytest.mark.parametrize("args", [
    ["info", "--name", "PSL2", "--param", "9"],
    ["info", "--name", "Z", "--param", "0"],
])
def test_build_off_its_order_formula_exits_2(runner, args):
    assert "the order formula gives" in one_line_error(runner.invoke(main, args))


@pytest.mark.parametrize("args, message", [
    (["info", "--name", "S", "--param", "0"],
     "Error: symmetric group degree must be >= 1, got 0"),
    (["info", "--name", "A", "--param", "-1"],
     "Error: alternating group degree must be >= 1, got -1"),
])
def test_degree_below_1_exits_2(runner, args, message):
    assert one_line_error(runner.invoke(main, args)) == message


@pytest.mark.parametrize("name", ["GL2", "D", "S", "Z"])
def test_family_without_its_parameter_exits_2(runner, name):
    result = runner.invoke(main, ["info", "--name", name])
    assert one_line_error(result) == \
        f"Error: catalog family '{name}' needs a parameter"


@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda e: e.name)
def test_every_catalog_entry_name_loads(runner, entry):
    # the names export-catalog lists, e.g. PSL(2,8), which no family prefix covers
    payload = invoke_json(runner, ["info", "--name", entry.name])
    assert payload["order"] == entry.expected_order


def test_unknown_catalog_name_exits_2(runner):
    result = runner.invoke(main, ["info", "--name", "PSL(2,9)"])
    assert one_line_error(result) == "Error: unknown catalog group 'PSL(2,9)'"


def test_catalog_entry_mismatch_exits_2(runner, monkeypatch):
    from dataclasses import replace

    from cgraph import catalog

    patched = [replace(e, expected_center=3) if e.name == "D8" else e
               for e in catalog._ENTRIES]
    monkeypatch.setattr(catalog, "_ENTRIES", patched)
    catalog.report_for.cache_clear()
    try:
        result = runner.invoke(main, ["verify", "all"])
    finally:
        catalog.report_for.cache_clear()
    assert one_line_error(result) == \
        "Error: catalog entry D8: center order is 2, expected 3"


@pytest.mark.parametrize("args", [
    ["export-catalog"],
    ["export-dot", "--name", "Q8"],
])
def test_unwritable_out_exits_2(runner, tmp_path, args):
    out = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert one_line_error(result).startswith(f"Error: cannot write {out}")
