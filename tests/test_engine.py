import math
import re
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cgraph import (
    check_bounds_against_group,
    commuting_graph,
    commuting_graph_of,
    family_genus,
    genus_complete,
    genus_of_graph,
    group_from_permutations,
    heawood_bounds,
    heawood_clique_bound,
    max_clique,
    report_to_json,
)
from cgraph.catalog import build, catalog_entries, report_for
from cgraph.engine import _total
from conftest import complete_bipartite_graph, invoke, peak_bytes, permutation_generators

from cgraph import SimpleGraph


# -- genus_of_graph dispatch -----------------------------------------------

def test_genus_of_complete_block(k5):
    result = genus_of_graph(k5)
    assert result.is_exact and result.value == 1
    assert result.certificate == "CompleteFormula"


def test_genus_of_bipartite_block():
    result = genus_of_graph(complete_bipartite_graph(3, 4))
    assert result.is_exact and result.value == 1
    assert result.certificate == "BipartiteFormula"


def test_genus_of_planar_block():
    wheel = SimpleGraph(5, [(0, i) for i in range(1, 5)]
                        + [(i, i % 4 + 1) for i in range(1, 5)])
    result = genus_of_graph(wheel)
    assert result.is_exact and result.value == 0
    assert result.certificate == "PlanarTest"


def test_genus_dispatch_falls_through_to_oracle():
    # K5 plus a chord subdivision: non-planar, not complete, not bipartite
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    edges += [(3, 5), (5, 4)]
    g = SimpleGraph(6, edges)
    result = genus_of_graph(g)
    assert result.is_exact and result.value == 1
    assert result.certificate == "RotationOracle"


def test_genus_block_additivity():
    # two K5 blocks sharing a cut vertex
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)]
    g = SimpleGraph(9, edges)
    result = genus_of_graph(g)
    assert result.is_exact and result.value == 2
    assert result.certificate == "BlockSum"


def test_genus_disconnected_sums_components():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(5 + u, 5 + v) for u in range(5) for v in range(u + 1, 5)]
    result = genus_of_graph(SimpleGraph(10, edges))
    assert result.is_exact and result.value == 2


def test_genus_bounds_when_oracle_capped(k133):
    # K_{1,3,3} is over the oracle's limit and its Euler bound is 0, so the
    # lower bound comes from non-planarity
    start = time.perf_counter()
    result = genus_of_graph(k133)
    assert time.perf_counter() - start < 1
    assert not result.is_exact
    assert (result.lower, result.upper) == (1, 4)
    assert result.provenance == ("BettiUpper", "NonPlanarLower")


def test_genus_bounds_take_the_euler_bound_when_it_is_at_least_1():
    # K7 minus two disjoint edges: 19 edges on 7 vertices, over the oracle's
    # limit, Euler bound ceil((19 - 21 + 6) / 6) = 1
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)
             if (u, v) not in ((0, 1), (2, 3))]
    result = genus_of_graph(SimpleGraph(7, edges))
    assert (result.lower, result.upper) == (1, 6)
    assert result.provenance == ("BettiUpper", "EulerLower")


def test_two_sparsely_joined_cliques_get_the_euler_bound():
    # two K8s joined by two edges: one block, 58 edges on 16 vertices, Euler
    # bound ceil((58 - 48 + 6) / 6) = 3, although the two K8s alone give
    # 2 * gamma(K8) = 4 by additivity; no clique search is made
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges += [(8 + u, 8 + v) for u, v in edges] + [(0, 8), (1, 9)]
    result = genus_of_graph(SimpleGraph(16, edges))
    assert (result.lower, result.upper) == (3, 21)
    assert result.provenance == ("BettiUpper", "EulerLower")


def test_s6_commuting_graph_is_bounded_by_euler_and_betti():
    report = commuting_graph(build("S", 6))
    assert (report.total.lower, report.total.upper) == (158, 1045)
    assert report_to_json(report)["genus"]["certificate"] == "BettiUpper+EulerLower"


# -- commuting graphs ------------------------------------------------------

def test_commuting_graph_of_s3_is_three_isolated_edges_short():
    # S3: 5 vertices, two rotations commute, three reflections isolated
    group = build("S", 3)
    graph = commuting_graph_of(group)
    assert graph.n == 5
    assert set(vars(graph)) == {"n", "adj", "edge_count"}  # no vertex names
    # vertex v is element v + 1, and the one edge joins the two 3-cycles
    assert [(group.labels[u + 1], group.labels[v + 1]) for u, v in graph.edges()] == \
        [("(1 2 3)", "(1 3 2)")]
    assert graph.edge_count == 1
    assert graph.girth() == math.inf


def test_commuting_graph_of_abelian_group_raises():
    with pytest.raises(ValueError):
        commuting_graph_of(build("Z", 6))


def test_commuting_graph_report_d8():
    report = commuting_graph(build("D", 8))
    assert len(report.vertex_elements) == 6
    assert report.girth == math.inf
    assert report.is_ac
    assert report.total.is_exact and report.total.value == 0
    assert all(len(b) == 2 for b, _, _ in report.blocks)


def test_commuting_graph_report_d12():
    report = commuting_graph(build("D", 12))
    assert len(report.vertex_elements) == 10
    assert report.girth == 3
    assert sorted(len(b) for b, _, _ in report.blocks) == [2, 2, 2, 4]
    assert report.total.value == 0


def test_ac_blocks_are_the_centralizer_family_cliques():
    # in an AC-group the commuting graph is the disjoint union of the cliques
    # K_|X| over the centralizer family, so its blocks are the members |X| >= 2
    entries = [e for e in catalog_entries() if e.expected_ac]
    assert entries
    for entry in entries:
        report = report_for(entry.name)
        members = tuple(m for m in report.group.centralizer_family() if len(m) >= 2)
        blocks = tuple(tuple(report.vertex_elements[v] for v in b)
                       for b, _, _ in report.blocks)
        assert blocks == members, entry.name
        assert [shape for _, shape, _ in report.blocks] == \
            [f"K{len(m)}" for m in members]
        assert report.total.value == sum(genus_complete(len(m)) for m in members)


def assert_report_matches_the_graph(group):
    """The report's vertex and edge counts and girth, read from centralizer
    sizes, against its built commuting graph; an AC-group's blocks, read from
    its centralizer family, against the graph's blocks too."""
    report = commuting_graph(group)
    graph = commuting_graph_of(group)
    # graph vertex v is the element report.vertex_elements[v]
    element = report.vertex_elements
    assert all(group.mul(element[u], element[v]) == group.mul(element[v], element[u])
               for u, v in graph.edges())
    assert (len(report.vertex_elements), report.edge_count, report.girth) == \
        (graph.n, graph.edge_count, graph.girth())
    if report.is_ac:
        blocks = graph._block_sum()
        assert report.blocks == blocks
        assert report.total == _total(blocks)


def test_report_matches_the_graph_on_catalog_entries():
    for entry in catalog_entries():
        assert_report_matches_the_graph(build(entry.name))


@settings(max_examples=40, deadline=None)
@given(permutation_generators())
def test_report_matches_the_graph_on_random_groups(gens):
    group = group_from_permutations(gens)
    assume(not group.is_abelian())
    assert_report_matches_the_graph(group)


def test_ac_report_renders_no_labels():
    # uncached groups, whose labels no other test has read: no report renders
    # them, AC (D400) or not (S5, S6), and no bound check (S4)
    for name, param in [("D", 400), ("S", 5), ("S", 6)]:
        group = build.__wrapped__(name, param)
        commuting_graph(group)
        assert "labels" not in vars(group), group.name
    group = build.__wrapped__("S", 4)
    check_bounds_against_group(commuting_graph(group))
    assert "labels" not in vars(group)
    assert group.labels[0] == "()" and "labels" in vars(group)


def test_vertex_elements_and_labels_align(tmp_path):
    # export-dot draws graph vertex v as the label of report.vertex_elements[v]
    for name, param in [("Q", 8), ("S", 4)]:
        group = build(name, param)
        report = commuting_graph(group)
        out = tmp_path / f"{name}{param}.dot"
        result = invoke(["export-dot", "--name", name, "--param", str(param),
                         "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        drawn = re.findall(r'^  (\d+) \[label="(.*)"\];$', out.read_text(), re.M)
        assert drawn == [(str(v), group.labels[x])
                         for v, x in enumerate(report.vertex_elements)]


# -- family formulas -------------------------------------------------------

def test_family_params_validation():
    with pytest.raises(ValueError, match="unknown family tag"):
        family_genus("NoSuchFamily")
    with pytest.raises(ValueError, match="n >= 3"):
        family_genus("Dihedral", 2)
    with pytest.raises(ValueError, match="k >= 4"):
        family_genus("Semidihedral", 3)
    with pytest.raises(ValueError, match=r"p \| q-1"):
        family_genus("PQ", 3, 5)        # 3 does not divide 4
    with pytest.raises(ValueError, match="primes"):
        family_genus("PQ", 2, 9)        # 9 is not prime
    with pytest.raises(ValueError, match="prime power"):
        family_genus("GL2", 6)
    with pytest.raises(ValueError, match="n >= 2"):
        family_genus("Dicyclic", 1)
    with pytest.raises(ValueError, match="a prime p"):
        family_genus("PCubed", 4)
    with pytest.raises(ValueError, match="k >= 2"):
        family_genus("PSL2", 1)
    with pytest.raises(ValueError, match="q > 2"):
        family_genus("GL2", 2)
    with pytest.raises(ValueError, match="base family sizes"):
        family_genus("AbelianTimesAC", 2, ())


def test_family_genus_small_values():
    assert family_genus("Dihedral", 3) == 0
    assert family_genus("Dihedral", 8) == 1
    assert family_genus("Dihedral", 9) == 2
    assert family_genus("Dicyclic", 2) == 0
    assert family_genus("Dicyclic", 4) == 1
    assert family_genus("Semidihedral", 4) == 1
    assert family_genus("Semidihedral", 5) == 10
    assert family_genus("PQ", 3, 7) == 1
    assert family_genus("PCubed", 3) == 4
    assert family_genus("PSL2", 2) == 0
    assert family_genus("PSL2", 3) == 101
    assert family_genus("GL2", 3) == 3
    assert family_genus("AbelianTimesAC", 2, (4, 2, 2, 2)) == 2


def test_family_genus_matches_catalog_groups():
    cases = [
        (("Dihedral", 8), ("D", 16)),
        (("Dicyclic", 4), ("Q", 16)),
        (("Semidihedral", 4), ("SD", 16)),
        (("PQ", 3, 7), ("Z7:Z3", None)),
        (("GL2", 3), ("GL2", 3)),
    ]
    for family, (name, param) in cases:
        engine = commuting_graph(build(name, param)).total
        assert engine.is_exact and engine.value == family_genus(*family)


# -- Heawood-style bounds --------------------------------------------------

def test_heawood_clique_bound_values():
    assert heawood_clique_bound(0) == 4
    assert heawood_clique_bound(1) == 7
    assert heawood_clique_bound(2) == 8
    assert heawood_clique_bound(6) == 12
    with pytest.raises(ValueError):
        heawood_clique_bound(-1)


def test_heawood_bound_dominates_complete_genus():
    # Ringel-Youngs: h(g) is the largest n with genus(K_n) <= g
    for g in range(20001):
        h = heawood_clique_bound(g)
        assert genus_complete(h) <= g < genus_complete(h + 1), g


def test_heawood_bounds_fields():
    bounds = heawood_bounds(0, 2)
    assert bounds.h == 4
    assert bounds.center_bound == 4
    assert bounds.order_bound_base == 8
    assert bounds.order_bound_exponent == 4 * 17 ** 2
    assert bounds.order_bound_base ** bounds.order_bound_exponent == 8 ** 1156
    assert heawood_bounds(1, 3).center_bound == 3
    with pytest.raises(ValueError):
        heawood_bounds(0, 1)


@given(st.integers(2, 40), st.integers(0, 120), st.integers(0, 10 ** 60))
@example(8, 3, 511)
@example(8, 3, 512)
@example(8, 30, 8 ** 30)
def test_admits_order_matches_the_full_power(base, exponent, order):
    bounds = heawood_bounds(0, 2)._replace(order_bound_base=base,
                                           order_bound_exponent=exponent)
    assert bounds.admits_order(order) == (order < base ** exponent)


def test_check_bounds_against_group():
    group = build("D", 16)
    report = commuting_graph(group)
    checks = check_bounds_against_group(report)
    assert [list(c) for c in checks] == [["check", "observed", "limit", "ok"]] * 4
    assert [c["check"] for c in checks] == [
        "max_commuting_set", "center_size", "abelian_subgroups", "order_bound"]
    assert all(c["ok"] for c in checks)


def test_max_commuting_set_is_the_maximum_clique():
    # read from centralizer sizes on an AC-group, it must match a clique
    # search on the graph
    exact = [e for e in catalog_entries() if report_for(e.name).total.is_exact]
    assert len(exact) == 44
    for entry in exact:
        report = report_for(entry.name)
        check = check_bounds_against_group(report)[0]
        assert check["check"] == "max_commuting_set"
        assert check["observed"] == \
            len(max_clique(commuting_graph_of(report.group))), entry.name


def assert_bound_rows_match_brute_force(report):
    """Checks the max_commuting_set and abelian_subgroups rows for g = 0, 1, 2
    against every abelian subgroup; returns the g whose rows fail."""
    group = report.group
    center = set(group.center())
    subs = group.abelian_subgroups()
    d = max(len(a) - len(a & center) for a in subs)
    maximisers = [a for a in subs if len(a) - len(a & center) == d]
    assert all(center <= a for a in maximisers)
    failing = set()
    for g in (0, 1, 2):
        bounds = heawood_bounds(g, group.quotient_exponent())
        h = bounds.h
        commuting, _, abelian, _ = check_bounds_against_group(
            report._replace(heawood=bounds))
        assert (commuting["observed"], commuting["ok"]) == (d, d <= h)
        # any maximiser, whichever a walk over the subgroups meets first
        assert {(len(a), h + len(a & center)) for a in maximisers} == \
            {(abelian["observed"], abelian["limit"])}
        assert abelian["ok"] == all(len(a) <= h + len(a & center) for a in subs)
        if not abelian["ok"]:
            failing.add(g)
    return failing


def test_bound_rows_match_brute_force_over_abelian_subgroups():
    failing = {}
    for entry in catalog_entries():
        report = report_for(entry.name)
        if report.total.is_exact:
            failing[entry.name] = assert_bound_rows_match_brute_force(report)
    assert len(failing) == 44
    assert 0 in failing["D16"]  # d = 6 > h(0) = 4
    assert any(2 in gs for gs in failing.values())


@settings(max_examples=40, deadline=None)
@given(permutation_generators(max_degree=5))
def test_bound_rows_match_brute_force_on_random_groups(gens):
    group = group_from_permutations(gens)
    assume(not group.is_abelian())
    assert_bound_rows_match_brute_force(commuting_graph(group))


@settings(max_examples=40, deadline=None)
@given(permutation_generators(max_degree=6, min_degree=4, min_size=2))
def test_bound_rows_match_brute_force_on_random_non_ac_groups(gens):
    # the clique-search branch: up to S6, past the catalog's one non-AC
    # exact-genus entry, S4; the helper swaps in bounds for any genus.  Below
    # degree 4 every group is abelian or S3, an AC-group, and one generator
    # gives a cyclic group, so neither is drawn
    group = group_from_permutations(gens)
    assume(not group.is_abelian() and not group.is_ac_group())
    assert_bound_rows_match_brute_force(commuting_graph(group))


@pytest.mark.parametrize("family, q, observed", [
    ("PSL2", 8, (8, 1, 9, 504)),
    ("GL2", 9, (72, 8, 80, 5760)),
    ("PSL2", 16, (16, 1, 17, 4080)),
])
def test_bound_checks_on_large_groups_fill_no_table(family, q, observed):
    # uncached: a fresh build, which no other test has touched; the values
    # are those of the brute-force search over abelian subgroups.  A table
    # holds a pointer per product, 8 * order^2 bytes, twice the bound
    rows = []

    def run():
        rows.extend(check_bounds_against_group(commuting_graph(build.__wrapped__(family, q))))
    assert peak_bytes(run) < 4 * observed[3] ** 2
    assert tuple(row["observed"] for row in rows) == observed
    assert all(row["ok"] for row in rows)


def test_report_carries_the_heawood_bounds_of_an_exact_genus():
    group = build("D", 16)
    report = commuting_graph(group)
    assert report.heawood == heawood_bounds(1, group.quotient_exponent())
    assert report_for("S5").heawood is None


def test_check_bounds_requires_exact_genus():
    group = build("S", 5)
    report = commuting_graph(group)
    assert not report.total.is_exact
    with pytest.raises(ValueError):
        check_bounds_against_group(report)


# -- JSON report -----------------------------------------------------------

def test_report_to_json_shape():
    report = commuting_graph(build("D", 12))
    payload = report_to_json(report, name="D12")
    assert payload["group"] == {"name": "D12", "order": 12,
                                "center_order": 2, "is_ac": True}
    assert payload["graph"] == {"vertices": 10, "edges": 9, "girth": 3}
    assert sorted(b["size"] for b in payload["blocks"]) == [2, 2, 2, 4]
    types = sorted(b["type"] for b in payload["blocks"])
    assert types == ["K2", "K2", "K2", "K4"]
    assert payload["genus"] == {"kind": "exact", "value": 0,
                                "certificate": "BlockSum"}
    assert payload["bounds"]["h"] == 4
    assert payload["bounds"]["order_bound"] == {"base": 8, "exponent": 1156}


def test_report_to_json_acyclic_girth_is_null():
    payload = report_to_json(commuting_graph(build("Q", 8)))
    assert payload["graph"]["girth"] is None


def test_report_to_json_bounds_kind():
    payload = report_to_json(commuting_graph(build("S", 5)))
    genus = payload["genus"]
    assert genus["kind"] == "bounds"
    assert 2 <= genus["lower"] <= genus["upper"]
    assert "bounds" not in payload  # Heawood section needs an exact genus
