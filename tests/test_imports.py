"""What each entry point loads, every case in a fresh interpreter: `import
cgraph` loads no submodule, a `genus` on an AC-group runs no graph search,
only `verify` loads the suites and only a group file the text format, and
any module imported first brings in what it needs."""

import pytest

import cgraph
from conftest import run_fresh

PUBLIC_NAMES = {
    "CommutingGraphReport", "FieldContext", "FiniteGroup", "GenusResult",
    "HeawoodBounds", "Mat2", "SimpleGraph", "check_bounds_against_group",
    "commuting_graph", "commuting_graph_of", "direct_product",
    "disjoint_clique_lower_bound", "family_genus", "genus_complete",
    "genus_complete_bipartite", "genus_lower_bound_euler", "genus_of_graph",
    "genus_oracle", "genus_upper_bound_betti", "group_from_file_text",
    "group_from_matrices", "group_from_operation", "group_from_permutations",
    "group_from_table", "heawood_bounds", "heawood_clique_bound", "max_clique",
    "report_to_json",
}


def run_commands(commands):
    """(exit codes, cgraph submodules loaded) of `cgraph ARGS...` for each
    ARGS in `commands`, one after another in one interpreter."""
    out = run_fresh(
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from cgraph.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(args, standalone_mode=False) for args in {commands!r}]\n"
        "print(*codes)\n"
        "print(*sorted(m for m in sys.modules if m.startswith('cgraph.')))\n")
    codes, modules = out.splitlines()
    return [int(code) for code in codes.split()], set(modules.split())


def run_command(args):
    """(exit code, cgraph submodules loaded) of `cgraph ARGS...`."""
    (code,), modules = run_commands([args])
    return code, modules


def test_import_cgraph_loads_no_submodule():
    out = run_fresh(
        "import sys, cgraph\n"
        "print(*[m for m in sys.modules if m.startswith('cgraph.')])\n"
        "first = cgraph.SimpleGraph\n"
        "print('SimpleGraph' in vars(cgraph), first is cgraph.graphs.SimpleGraph)\n")
    assert out.splitlines() == ["", "True True"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'genus_of_groups'"):
        cgraph.genus_of_groups


@pytest.mark.parametrize("args", [
    ["genus", "--name", "D", "--param", "400"],
    ["genus", "--name", "Q", "--param", "400"],
    ["genus", "--name", "SD", "--param", "256"],
    ["info", "--name", "D", "--param", "400"],
], ids=["D400", "Q400", "SD256", "info-D400"])
def test_an_ac_family_loads_no_graph_search_and_no_fields(args):
    code, modules = run_command(args)
    assert code == 0
    assert "cgraph.engine" in modules
    assert not modules & {"cgraph.graphs", "cgraph.fields"}


@pytest.mark.parametrize("name, param", [("PSL2", 8), ("GL2", 5)])
def test_a_matrix_ac_group_loads_no_graph_search(name, param):
    code, modules = run_command(["genus", "--name", name, "--param", str(param)])
    assert code == 0
    assert "cgraph.fields" in modules and "cgraph.graphs" not in modules


@pytest.mark.parametrize("args, loaded", [
    # not AC: its blocks need the graph
    (["genus", "--name", "S", "--param", "4"], {"cgraph.graphs"}),
    # the S5 witness and non-AC entries, and the suites themselves
    (["verify", "all"], {"cgraph.graphs", "cgraph.verify"}),
], ids=["S4", "verify-all"])
def test_a_non_ac_group_loads_the_graph_search(args, loaded):
    code, modules = run_command(args)
    assert code == 0
    assert loaded <= modules


def test_a_catalog_group_loads_neither_verify_nor_the_text_format(tmp_path):
    # all in one interpreter: a module that none of them loads is missing
    # from what they load together
    groups = [["--name", "D", "--param", "400"], ["--name", "Q", "--param", "400"],
              ["--name", "SD", "--param", "256"], ["--name", "PSL(2,8)"]]
    commands = [[command, *group] for command in ("genus", "info") for group in groups]
    commands.append(["export-dot", "--name", "D", "--param", "400",
                     "--out", str(tmp_path / "d400.dot")])
    codes, modules = run_commands(commands)
    assert codes == [0] * len(commands)
    assert {"cgraph.engine", "cgraph.fields"} <= modules
    assert not modules & {"cgraph.verify", "cgraph.textformat"}


def test_a_group_file_loads_the_text_format(tmp_path):
    path = tmp_path / "s3.group"
    path.write_text("order 6\nperm-generators 3\n(1 2)\n(1 2 3)\n")
    code, modules = run_command(["info", "--file", str(path)])
    assert code == 0
    assert "cgraph.textformat" in modules and "cgraph.verify" not in modules


def test_cli_suites_are_verify_suites_loaded_on_first_use():
    out = run_fresh(
        "import sys\n"
        "from cgraph import cli\n"
        "print('cgraph.verify' in sys.modules)\n"
        "suites = cli.SUITES\n"
        "from cgraph import verify\n"
        "print(suites is verify.SUITES)\n")
    assert out.split() == ["False", "True"]


@pytest.mark.parametrize("module", [
    "cgraph.genus", "cgraph.graphs", "cgraph.engine", "cgraph.fields",
    "cgraph.groups", "cgraph.textformat", "cgraph.catalog", "cgraph.verify", "cgraph.cli",
])
def test_any_module_imports_first(module):
    # a cycle between modules would fail whichever of its members comes first
    out = run_fresh(
        f"import {module}\n"
        "from itertools import combinations\n"
        "from cgraph import SimpleGraph, genus_of_graph\n"
        "print(genus_of_graph(SimpleGraph(5, combinations(range(5), 2))).value)\n")
    assert out.split() == ["1"]


def test_public_names_are_their_modules_objects():
    out = run_fresh(
        "import importlib, cgraph\n"
        "listed = set(dir(cgraph))\n"
        "bound = {}\n"
        "exec('from cgraph import *', bound)\n"
        "print(*cgraph.__all__)\n"
        "for name in cgraph.__all__:\n"
        "    value = getattr(cgraph, name)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    print(name in listed, bound[name] is value is getattr(home, name))\n")
    names, *checks = out.splitlines()
    assert set(names.split()) == PUBLIC_NAMES
    assert checks == ["True True"] * len(PUBLIC_NAMES)
