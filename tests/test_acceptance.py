"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(visible under ``pytest -s`` or in failure output).
"""

import math

from cgraph import (
    commuting_graph,
    commuting_graph_of,
    direct_product,
    disjoint_clique_lower_bound,
    family_genus,
    genus_complete,
    genus_complete_bipartite,
    genus_oracle,
    heawood_bounds,
    heawood_clique_bound,
)
from cgraph.catalog import build, catalog_entries, report_for
from conftest import complete_bipartite_graph, complete_graph


def _report(criterion, description, ok):
    print(f"criterion {criterion} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_genus_formulas_and_oracle():
    ok = all(genus_complete(n) == -((n - 3) * (n - 4) // -12)
             for n in range(5, 21))
    ok = ok and all(genus_complete(n) == 0 for n in range(3, 5))
    ok = ok and all(
        genus_complete_bipartite(m, n) == -((m - 2) * (n - 2) // -4)
        for m in range(2, 11) for n in range(2, 11))
    ok = ok and all(genus_oracle(complete_graph(n)) == genus_complete(n)
                    for n in (3, 4, 5))
    ok = ok and all(
        genus_oracle(complete_bipartite_graph(m, n))
        == genus_complete_bipartite(m, n)
        for m, n in ((2, 2), (2, 3), (3, 3), (3, 4)))
    _report(1, "closed-form genus formulas and oracle agreement", ok)


def test_criterion_2_acyclic_classification():
    acyclic = {"S3", "Q8", "D8"}
    ok = True
    for entry in catalog_entries():
        girth = report_for(entry.name).girth
        if entry.effective_name() in acyclic:
            ok = ok and girth == math.inf
        else:
            ok = ok and girth == 3
    _report(2, "commuting graph acyclic exactly for S3, Q8, D8", ok)


def test_criterion_3_planar_classification():
    planar = {"S3", "D10", "A4", "Sz(2)", "S4", "A5", "D8", "Q8", "D12",
              "Q12", "SL(2,3)", "Z2xD8", "Z2xQ8", "SG16_3", "Z4:Z4",
              "D8*Z4", "M16"}
    ok = len(planar) == 17
    for entry in catalog_entries():
        total = report_for(entry.name).total
        listed = entry.effective_name() in planar
        if total.is_exact:
            ok = ok and (total.value == 0) == listed
        else:
            ok = ok and not listed and total.lower >= 1
    _report(3, "genus 0 exactly for the 17 listed groups", ok)


def test_criterion_4_toroidal_classification():
    toroidal = {"D14", "Z7:Z3", "Z2xA4", "Z3xS3", "D16", "Q16", "SD16"}
    ok = True
    for entry in catalog_entries():
        total = report_for(entry.name).total
        listed = entry.effective_name() in toroidal
        if total.is_exact:
            ok = ok and (total.value == 1) == listed
        else:
            ok = ok and not listed and total.lower >= 2

    # S5 witness: two disjoint abelian subgroups of order 6 force genus >= 2
    group = build("S", 5)
    report = report_for("S5")
    element = {lbl: i for i, lbl in enumerate(group.labels)}
    vertex = {e: v for v, e in enumerate(report.vertex_elements)}

    def cyclic_vertices(label):
        x = element[label]
        out, acc = [], x
        while acc != 0:
            out.append(vertex[acc])
            acc = group.mul(acc, x)
        return out

    bound = disjoint_clique_lower_bound(
        commuting_graph_of(group), cyclic_vertices("(1 2)(3 4 5)"),
        cyclic_vertices("(1 2 3)(4 5)"))
    ok = ok and bound >= 2
    _report(4, "genus 1 exactly for the 7 listed groups; S5 bound >= 2", ok)


def test_criterion_5_family_formulas_match_engine():
    cases = []
    for n in range(3, 13):
        cases.append((("Dihedral", n), ("D", 2 * n), None))
    for n in range(2, 8):
        cases.append((("Dicyclic", n), ("Q", 4 * n), None))
    cases.append((("Semidihedral", 4), ("SD", 16), 1))
    cases.append((("Semidihedral", 5), ("SD", 32), 10))
    cases.append((("PQ", 2, 3), ("S", 3), 0))
    cases.append((("PQ", 2, 5), ("D", 10), 0))
    cases.append((("PQ", 2, 7), ("D", 14), 1))
    cases.append((("PQ", 3, 7), ("Z7:Z3", None), 1))
    cases.append((("PCubed", 3), ("27_exp3", None), 4))
    cases.append((("PCubed", 3), ("27_exp9", None), 4))
    cases.append((("PSL2", 2), ("PSL2", 4), 0))
    cases.append((("GL2", 3), ("GL2", 3), 3))
    ok = True
    for family, (name, param), expected in cases:
        formula = family_genus(*family)
        engine = commuting_graph(build(name, param)).total
        ok = ok and engine.is_exact and engine.value == formula
        if expected is not None:
            ok = ok and formula == expected
    _report(5, "closed-form family formulas agree with the engine", ok)


def test_criterion_6_abelian_factor_products():
    ok = True
    for a_order in (2, 3):
        for base_name in ("S3", "D8", "Q8"):
            base = build(base_name)
            sizes = sorted(map(len, base.centralizer_family()))
            expected = sum(genus_complete(a_order * s) for s in sizes)
            product = direct_product(build("Z", a_order), base)
            engine = commuting_graph(product).total
            ok = ok and engine.is_exact and engine.value == expected
    _report(6, "genus of A x G equals the scaled family sum", ok)


def test_criterion_7_bound_suite():
    ok = heawood_clique_bound(0) == 4 and heawood_clique_bound(1) == 7
    from cgraph import check_bounds_against_group, max_clique
    for entry in catalog_entries():
        report = report_for(entry.name)
        if not report.total.is_exact:
            continue
        group = entry.build()
        g = report.total.value
        bounds = heawood_bounds(g, t=group.quotient_exponent())
        ok = ok and len(max_clique(commuting_graph_of(group))) <= bounds.h
        ok = ok and len(group.center()) <= bounds.center_bound
        center = set(group.center())
        ok = ok and all(len(a) <= bounds.h + len(a & center)
                        for a in group.abelian_subgroups())
        # big-integer comparison against the exact power
        ok = ok and group.order < bounds.order_bound_base ** bounds.order_bound_exponent
        ok = ok and all(c["ok"] for c in check_bounds_against_group(report))
    b = heawood_bounds(0, 2)
    ok = ok and b.order_bound_base ** b.order_bound_exponent == 8 ** 1156
    _report(7, "clique / center / abelian / order bounds hold", ok)


def test_criterion_8_structural_subgroup_properties():
    def orders(group):
        return {len(h) for h in group.abelian_subgroups()}
    ok = True
    # every catalog 2-group of order >= 16 has an abelian subgroup of order 8
    for entry in catalog_entries():
        group = entry.build()
        n = group.order
        if n >= 16 and n & (n - 1) == 0:
            ok = ok and 8 in orders(group)
    # 2-groups of order >= 32 with |Z| >= 4 have one of order 16; the catalog
    # has no such group, so build qualifying instances here
    z2 = build("Z", 2)
    instances = [
        direct_product(z2, build("D", 16)),
        direct_product(z2, build("Q", 16)),
        direct_product(z2, build("SD", 16)),
        direct_product(build("Z", 4), build("D", 8)),
        direct_product(z2, build("Z2xD8")),
    ]
    for group in instances:
        assert group.order >= 32 and len(group.center()) >= 4
        ok = ok and 16 in orders(group)
    # order-30 groups have a subgroup of order 15 (necessarily cyclic)
    for name in ("D30", "Z3xD10", "Z5xS3"):
        ok = ok and 15 in orders(build(*{"D30": ("D", 30)}.get(name, (name, None))))
    # the order-40 catalog group has an abelian subgroup of order 10
    ok = ok and 10 in orders(build("Q", 40))
    _report(8, "structural subgroup existence properties", ok)
