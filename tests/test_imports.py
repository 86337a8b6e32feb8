"""What each entry point loads, every case in a fresh interpreter: `import
cgraph` loads no submodule, a `genus` on an AC-group runs no graph search,
and any module imported first brings in what it needs."""

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


def run_command(args):
    """(exit code, cgraph submodules loaded) of `cgraph ARGS...`."""
    out = run_fresh(
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from cgraph.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = main({args!r}, standalone_mode=False)\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('cgraph.')))\n")
    code, *modules = out.split()
    return int(code), set(modules)


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


@pytest.mark.parametrize("args", [
    ["genus", "--name", "S", "--param", "4"],   # not AC: its blocks need the graph
    ["verify", "all"],                          # the S5 witness and non-AC entries
], ids=["S4", "verify-all"])
def test_a_non_ac_group_loads_the_graph_search(args):
    code, modules = run_command(args)
    assert code == 0
    assert "cgraph.graphs" in modules


@pytest.mark.parametrize("module", [
    "cgraph.genus", "cgraph.graphs", "cgraph.engine", "cgraph.fields",
    "cgraph.groups", "cgraph.catalog", "cgraph.verify", "cgraph.cli",
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
