import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgraph
from cgraph.catalog import catalog_entries
from cgraph.cli import main
from cgraph.groups import MAX_ORDER
from conftest import LATIN5, invoke, peak_bytes, run_fresh, table_of


def invoke_json(args):
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


def test_info_catalog_group():
    payload = invoke_json(["info", "--name", "D", "--param", "8"])
    assert payload["order"] == 8
    assert payload["center_order"] == 2
    assert payload["is_ac"] is True
    assert payload["element_orders"] == {"1": 1, "2": 5, "4": 2}


def test_info_verbose_goes_to_stderr():
    result = invoke(["info", "--name", "Q8", "--verbose"])
    assert result.exit_code == 0
    json.loads(result.stdout)  # stdout stays pure JSON
    assert "order 8" in result.stderr


@pytest.mark.parametrize("args, line", [
    (["--name", "D", "--param", "400"], "D400: 398 vertices, 19603 edges, genus 3153"),
    (["--name", "S", "--param", "4"], "S4: 23 vertices, 25 edges, genus 0"),
])
def test_genus_verbose_line(args, line):
    result = invoke(["genus", *args, "--verbose"])
    assert result.exit_code == 0
    assert result.stderr == line + "\n"


def modules_loaded(args=None) -> set:
    """The modules a fresh interpreter adds to those it starts with by
    importing cgraph.cli and, given args, running that command."""
    code = "import sys\nbare = set(sys.modules)\nfrom cgraph.cli import main\n"
    if args is not None:
        code += f"main({args!r}, standalone_mode=False)\n"
    code += "print(*sorted(set(sys.modules) - bare))"
    return set(run_fresh(code).splitlines()[-1].split())


def test_networkx_is_never_loaded(tmp_path):
    # the graph layer is self-contained: networkx is only the tests' oracle
    q12 = ["--name", "Q", "--param", "12"]
    assert "networkx" not in modules_loaded()
    assert "networkx" not in modules_loaded(["genus", *q12])   # AC: read from the family
    assert "networkx" not in modules_loaded(["genus", "--name", "S", "--param", "4"])  # not AC
    assert "networkx" not in modules_loaded(
        ["export-dot", *q12, "--out", str(tmp_path / "q12.dot")])
    assert "networkx" not in modules_loaded(["verify", "all"])


def test_cli_process_loads_no_click_inspect_or_dataclasses():
    # each costs start-up time and computes nothing: `cli.COMMANDS` parses
    # the options, not argparse (which loads gettext and locale), and
    # typing.NamedTuple makes the records
    loaded = modules_loaded(["genus", "--name", "D", "--param", "8"])
    assert "cgraph.engine" in loaded
    assert not loaded & {"click", "inspect", "dataclasses", "argparse", "gettext", "locale"}


def failing_acyclic_suite():
    return [{"group": "X", "ok": False}]


@pytest.mark.parametrize("args, code", [
    (["info", "--name", "Q8"], 0),
    (["verify", "acyclic"], 1),
    (["genus", "--name", "Z", "--param", "6"], 2),
    (["genus", "--name", "D", "--param", "x"], 2),
])
def test_main_keeps_clicks_calling_convention(monkeypatch, capsys, args, code):
    # standalone mode exits with the code, as the console script needs;
    # otherwise the code is returned
    from cgraph import cli

    monkeypatch.setitem(cli.SUITES, "acyclic", failing_acyclic_suite)
    with pytest.raises(SystemExit) as exit_info:
        main(args=args, prog_name="cgraph", standalone_mode=True)
    assert exit_info.value.code == code
    assert main(args, standalone_mode=False) == code


@pytest.mark.parametrize("command", [
    [], ["info"], ["genus"], ["export-dot"], ["export-catalog"], ["verify"]])
def test_help_exits_0(command):
    result = invoke([*command, "--help"])
    assert result.exit_code == 0, result.stderr
    assert result.stdout.startswith(f"usage: {' '.join(['cgraph', *command])} ")


@pytest.mark.parametrize("command", [[], ["genus"]])
def test_short_h_is_help(command):
    assert invoke([*command, "-h"]) == invoke([*command, "--help"])


@pytest.mark.parametrize("args", [
    [],
    ["nonsense"],
    ["export-dot", "--name", "Q8"],
    ["genus", "--name", "D", "--param", "x"],
    ["genus", "--nam", "D", "--param", "8"],
    ["info", "--name", "Q8", "--verb"],
    ["verify", "nonsense"],
    ["verify"],
    ["info", "--name", "Q8", "--file", "q8.group"],
    ["info", "--name"],
    ["info", "--name", "Q8", "--verbose=yes"],
    ["genus", "--name", "Q8", "extra"],
], ids=["no-command", "unknown-command", "export-dot-without-out", "param-not-int",
        "abbreviated-name", "abbreviated-verbose", "unknown-suite", "no-suite",
        "name-and-file", "name-without-value", "flag-with-value", "extra-positional"])
def test_argument_errors_exit_2_with_usage(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: cgraph")


@pytest.mark.parametrize("args", [
    ["genus", "--name=D", "--param=400"],
    ["genus", "--name", "D", "--param", "16", "--param", "400"],
], ids=["equals-form", "last-param-wins"])
def test_option_forms_give_the_same_bytes(args):
    spaced = invoke(["genus", "--name", "D", "--param", "400"])
    assert spaced.exit_code == 0
    assert invoke(args) == spaced


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["cgraph", "info", "--name=Q8"])
    assert main(standalone_mode=False) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 8


@pytest.mark.parametrize("filename", ["s3.group", "a.b.group", ".group", "s3.", "s3"])
def test_a_file_is_named_by_its_stem(tmp_path, filename):
    path = tmp_path / filename
    path.write_text("order 6\nperm-generators 3\n(1 2)\n(1 2 3)\n")
    assert invoke_json(["info", "--file", str(path)])["name"] == path.stem


def test_info_from_table_file(tmp_path):
    from cgraph.catalog import build
    g = build("S", 3)
    lines = [f"order {g.order}", "table"]
    lines += [" ".join(str(v) for v in row) for row in table_of(g)]
    path = tmp_path / "s3.group"
    path.write_text("\n".join(lines) + "\n")
    payload = invoke_json(["info", "--file", str(path)])
    assert payload["order"] == 6 and payload["name"] == "s3"


def test_info_from_perm_generator_file(tmp_path):
    path = tmp_path / "s3.group"
    path.write_text("order 6\nperm-generators 3\n(1 2)\n(1 2 3)\n")
    payload = invoke_json(["info", "--file", str(path)])
    assert payload["order"] == 6 and payload["abelian"] is False


def test_usage_errors_exit_2(tmp_path):
    assert invoke(["info"]).exit_code == 2
    assert invoke(["info", "--name", "NoSuch"]).exit_code == 2
    assert invoke(
        ["info", "--file", str(tmp_path / "missing")]).exit_code == 2
    bad = tmp_path / "bad.group"
    bad.write_text("gibberish\n")
    assert invoke(["info", "--file", str(bad)]).exit_code == 2
    both = ["info", "--name", "Q8", "--file", str(bad)]
    assert invoke(both).exit_code == 2
    assert invoke(["verify", "nonsense"]).exit_code == 2
    no_such_option = ["genus", "--name", "D", "--param", "8", "--oracle-cap", "16"]
    assert invoke(no_such_option).exit_code == 2


def test_genus_report_d16():
    payload = invoke_json(["genus", "--name", "D", "--param", "16"])
    assert payload["group"] == {"name": "D16", "order": 16,
                                "center_order": 2, "is_ac": True}
    assert payload["graph"]["vertices"] == 14
    assert payload["genus"] == {"kind": "exact", "value": 1,
                                "certificate": "BlockSum"}
    sizes = sorted(b["size"] for b in payload["blocks"])
    assert sizes == [2, 2, 2, 2, 6]
    assert payload["bounds"]["h"] == 7


def test_genus_rejects_abelian_group(tmp_path):
    message = "Error: commuting graph requires a non-abelian group"
    result = invoke(["genus", "--name", "Z", "--param", "6"])
    assert one_line_error(result) == message
    out = tmp_path / "z6.dot"
    result = invoke(["export-dot", "--name", "Z", "--param", "6",
                                  "--out", str(out)])
    assert one_line_error(result) == message
    assert not out.exists()


def test_genus_is_deterministic():
    first = invoke(["genus", "--name", "GL2", "--param", "3"])
    second = invoke(["genus", "--name", "GL2", "--param", "3"])
    assert first.stdout == second.stdout


def test_export_dot(tmp_path):
    out = tmp_path / "q8.dot"
    payload = invoke_json(
        ["export-dot", "--name", "Q8", "--out", str(out)])
    assert payload == {"written": str(out), "vertices": 6, "edges": 3}
    text = out.read_text()
    assert text.startswith('graph "Q8" {')
    assert text.count("--") == 3


def test_export_catalog(tmp_path):
    payload = invoke_json(["export-catalog"])
    assert any(e["name"] == "SD16" for e in payload)
    out = tmp_path / "catalog.json"
    invoke_json(["export-catalog", "--out", str(out)])
    assert json.loads(out.read_text()) == payload


@pytest.mark.parametrize("suite,count", [
    ("acyclic", 45), ("planar", 45), ("toroidal", 46)])
def test_verify_classification_suites(suite, count):
    payload = invoke_json(["verify", suite])
    assert payload["ok"] is True
    assert payload[suite]["failed"] == 0
    assert payload[suite]["passed"] == count


def test_verify_formulas_suite():
    payload = invoke_json(["verify", "formulas"])
    assert payload["ok"] is True
    checks = payload["formulas"]["checks"]
    assert all(c["formula"] == c["engine"] for c in checks)
    families = {c["family"] for c in checks}
    assert families == {"Dihedral", "Dicyclic", "Semidihedral", "PQ",
                        "PCubed", "PSL2", "GL2", "AbelianTimesAC"}


def test_verify_bounds_suite():
    payload = invoke_json(["verify", "bounds"])
    assert payload["ok"] is True
    names = {c["check"] for c in payload["bounds"]["checks"]}
    assert names == {"max_commuting_set", "center_size",
                     "abelian_subgroups", "order_bound"}


def test_verify_all():
    payload = invoke_json(["verify", "all"])
    assert payload["ok"] is True
    assert set(payload) == {"acyclic", "planar", "toroidal", "formulas",
                            "bounds", "ok"}


def test_verify_failure_exits_1(monkeypatch):
    from cgraph import cli

    def broken_suite():
        return [{"group": "X", "ok": False}]

    monkeypatch.setitem(cli.SUITES, "acyclic", broken_suite)
    result = invoke(["verify", "acyclic"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["ok"] is False


def one_line_error(result):
    assert result.exit_code == 2, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr
    return lines[0]


def test_non_associative_table_file_exits_2(tmp_path):
    path = tmp_path / "latin5.group"
    path.write_text(LATIN5)
    result = invoke(["genus", "--file", str(path)])
    assert "line 2: table is not associative" in one_line_error(result)


def test_library_error_after_loading_exits_2(monkeypatch):
    from cgraph import cli

    def broken(group):
        raise ValueError("subgroup is not normal")

    monkeypatch.setattr(cli, "commuting_graph", broken)
    result = invoke(["genus", "--name", "D", "--param", "8"])
    assert one_line_error(result) == "Error: subgroup is not normal"


def test_group_over_max_order_exits_2(tmp_path):
    s8 = invoke(["genus", "--name", "S", "--param", "8"])
    assert f"more than {MAX_ORDER} elements" in one_line_error(s8)
    path = tmp_path / "big.group"
    path.write_text(f"order {MAX_ORDER + 1}\ntable\n")
    header = invoke(["info", "--file", str(path)])
    assert one_line_error(header).startswith("Error: line 1: group order")
    # generators whose closure passes the limit are reported at their section
    path.write_text("order 6\nperm-generators 8\n(1 2)\n(1 2 3 4 5 6 7 8)\n")
    closure = invoke(["info", "--file", str(path)])
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
    # the table section line takes no arguments, as `perm-generators` takes one
    ("order 2\ntable junk\n0 1\n1 0\n", "line 2: expected 'table', got 'table junk'"),
], ids=["huge-degree", "order-5000-digits", "degree-5000-digits",
        "superscript-order", "superscript-degree", "fullwidth-order", "table-junk"])
def test_bad_header_number_exits_2(tmp_path, text, message):
    path = tmp_path / "huge.group"
    path.write_text(text)
    result = invoke(["info", "--file", str(path)])
    assert one_line_error(result) == f"Error: {message}"


@pytest.mark.parametrize("source, message", [
    # builders whose order formula passes a parameter that they refuse
    (["--name", "D", "--param", "7"], "dihedral group order must be even and >= 6, got 7"),
    (["--name", "Q", "--param", "6"], "dicyclic group order must be 4n with n >= 2, got 6"),
    (["--name", "SD", "--param", "8"],
     "semidihedral group order must be 2^k with k >= 4, got 8"),
    (["--name", "GL2", "--param", "6"], "unsupported field order 6"),
    # group files, given as their text
    ("# only a comment\n", "line 1: empty group file"),
    ("order 2\n", "line 1: missing 'table' or 'perm-generators' section"),
    ("order 2\ntable\n0 1\n", "line 2: expected 2 table rows, got 1"),
    ("order 2\ntable\n0 x\n1 0\n", "line 3: non-integer entry in '0 x'"),
    ("order 2\nperm-generators 2\n(1 a)\n", "line 3: non-integer point in cycle (1 a)"),
    ("order 2\ngenerators 2\n(1 2)\n", "line 2: unknown section 'generators'"),
    # no group has order 0, whatever section follows the header
    ("order 0\ntable\n", "line 1: group order must be at least 1"),
    ("order 0\nperm-generators 2\n(1 2)\n", "line 1: group order must be at least 1"),
], ids=["D7", "Q6", "SD8", "GL2-6", "empty-file", "no-section", "row-count",
        "table-entry", "cycle-point", "unknown-section", "order-0-table", "order-0-perms"])
def test_input_errors_exit_2_with_one_line(tmp_path, source, message):
    if isinstance(source, str):
        path = tmp_path / "bad.group"
        path.write_text(source)
        source = ["--file", str(path)]
    result = invoke(["info", *source])
    assert one_line_error(result) == f"Error: {message}"
    assert "Traceback" not in result.stderr


def test_a_file_that_is_not_utf8_exits_2_naming_its_path(tmp_path):
    path = tmp_path / "binary.group"
    path.write_bytes(b"\xff\xfe\x00order 6\n")
    message = one_line_error(invoke(["info", "--file", str(path)]))
    assert message.startswith(f"Error: cannot read {path}: 'utf-8' codec can't decode")


def test_a_group_file_is_read_as_utf8_under_the_c_locale(tmp_path):
    # with locale coercion and UTF-8 mode off, the C locale's encoding is
    # ASCII, which a non-ASCII comment would not decode in
    path = tmp_path / "s3.group"
    path.write_text("# groupe sym\u00e9trique\norder 6\nperm-generators 3\n(1 2)\n(1 2 3)\n",
                    encoding="utf-8")
    src = str(Path(cgraph.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cgraph.cli", "info", "--file", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["order"] == 6


def test_param_with_a_group_file_exits_2(tmp_path):
    # a file names its own group, so a --param would be ignored
    path = tmp_path / "s3.group"
    path.write_text("order 6\nperm-generators 3\n(1 2)\n(1 2 3)\n")
    result = invoke(["info", "--file", str(path), "--param", "99"])
    assert one_line_error(result) == "Error: --param does not apply to a group --file"
    assert result.stdout == ""


@pytest.mark.parametrize("line, point", [("(1 2 3)(3 2 1)", 3), ("(1 2)(1 3)", 1)])
def test_non_disjoint_cycles_exit_2_at_their_line(tmp_path, line, point):
    path = tmp_path / "overlap.group"
    path.write_text(f"order 3\nperm-generators 3\n{line}\n")
    result = invoke(["info", "--file", str(path)])
    assert one_line_error(result) == \
        f"Error: line 3: point {point} is in two cycles of {line!r}"


@pytest.mark.parametrize("name, param", [("Z", 3000000), ("D", 20000), ("S", 100000)])
def test_parametric_build_past_max_order_exits_2(name, param):
    result = invoke(["info", "--name", name, "--param", str(param)])
    assert one_line_error(result) == (f"Error: {name} {param} would have more than "
                                      f"{MAX_ORDER} elements, the order limit")


@pytest.mark.parametrize("args", [
    ["info", "--name", "PSL2", "--param", "9"],
    ["info", "--name", "Z", "--param", "0"],
])
def test_build_off_its_order_formula_exits_2(args):
    assert "the order formula gives" in one_line_error(invoke(args))


@pytest.mark.parametrize("args, message", [
    (["info", "--name", "S", "--param", "0"],
     "Error: symmetric group degree must be >= 1, got 0"),
    (["info", "--name", "A", "--param", "-1"],
     "Error: alternating group degree must be >= 1, got -1"),
])
def test_degree_below_1_exits_2(args, message):
    assert one_line_error(invoke(args)) == message


@pytest.mark.parametrize("name", ["GL2", "D", "S", "Z"])
def test_family_without_its_parameter_exits_2(name):
    result = invoke(["info", "--name", name])
    assert one_line_error(result) == \
        f"Error: catalog family '{name}' needs a parameter"


@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda e: e.name)
def test_every_catalog_entry_name_loads(entry):
    # the names export-catalog lists, e.g. PSL(2,8), which no family prefix covers
    payload = invoke_json(["info", "--name", entry.name])
    assert payload["order"] == entry.expected_order


def test_unknown_catalog_name_exits_2():
    result = invoke(["info", "--name", "PSL(2,9)"])
    assert one_line_error(result) == "Error: unknown catalog group 'PSL(2,9)'"


def test_catalog_entry_mismatch_exits_2(monkeypatch):
    from cgraph import catalog

    patched = [e._replace(expected_center=3) if e.name == "D8" else e
               for e in catalog._ENTRIES]
    monkeypatch.setattr(catalog, "_ENTRIES", patched)
    catalog.report_for.cache_clear()
    try:
        result = invoke(["verify", "all"])
    finally:
        catalog.report_for.cache_clear()
    assert one_line_error(result) == \
        "Error: catalog entry D8: center order is 2, expected 3"


@pytest.mark.parametrize("args", [
    ["export-catalog"],
    ["export-dot", "--name", "Q8"],
])
def test_unwritable_out_exits_2(tmp_path, args):
    out = tmp_path / "missing" / "out.txt"
    result = invoke(args + ["--out", str(out)])
    assert one_line_error(result).startswith(f"Error: cannot write {out}")


@pytest.mark.parametrize("command", ["genus", "info"])
@pytest.mark.parametrize("name, param", [("PSL2", 8), ("GL2", 5), ("D", 400)])
def test_reports_never_fill_the_table(monkeypatch, command, name, param):
    """`genus` and `info` read centralizers, orders and the center class by
    class, so the n^2 table of a fresh build is never filled: a table holds
    a pointer per product, 8 * order^2 bytes, twice the bound."""
    from cgraph import catalog
    built, uncached = [], catalog.build.__wrapped__

    def fresh(*args):
        built.append(uncached(*args))
        return built[-1]
    monkeypatch.setattr(catalog, "build", fresh)
    peak = peak_bytes(lambda: invoke_json([command, "--name", name, "--param", str(param)]))
    assert built and peak < 4 * min(group.order for group in built) ** 2
