"""The theorem-verification suites behind `cgraph verify`.

Each suite returns a list of JSON-ready checks, each with an "ok" verdict:
the acyclic, planar and toroidal classifications over the catalog (with an
independent disjoint-clique witness that S5 is not toroidal), the closed-form
family formulas against the engine, and the Heawood-style bounds.
"""

from __future__ import annotations

import math

from . import catalog
from .engine import (check_bounds_against_group, commuting_graph,
                     commuting_graph_of, family_genus)
from .groups import direct_product


def _suite_acyclic():
    expected = {e.name for e in catalog.catalog_entries("acyclic-list")}
    checks = []
    for entry in catalog.catalog_entries():
        girth = catalog.report_for(entry.name).girth
        should_be_acyclic = entry.effective_name() in expected
        ok = (girth == math.inf) == should_be_acyclic
        if girth != math.inf:
            ok = ok and girth == 3  # girth of a commuting graph is 3 or infinite
        checks.append({"group": entry.name,
                       "girth": None if girth == math.inf else int(girth),
                       "expected_acyclic": should_be_acyclic, "ok": ok})
    return checks


def _classification_suite(tag, genus_value):
    expected = {e.name for e in catalog.catalog_entries(tag)}
    checks = []
    for entry in catalog.catalog_entries():
        total = catalog.report_for(entry.name).total
        listed = entry.effective_name() in expected
        if total.is_exact:
            ok = (total.value == genus_value) == listed
            observed = total.value
        else:
            # interval excluding the target value still classifies the group
            ok = (not listed) and total.lower > genus_value
            observed = [total.lower, total.upper]
        checks.append({"group": entry.name, "genus": observed,
                       "listed": listed, "ok": ok})
    return checks


def _suite_planar():
    return _classification_suite("planar-list", 0)


def _suite_toroidal():
    checks = _classification_suite("toroidal-list", 1)
    checks.append(_s5_witness_check())
    return checks


def _s5_witness_check():
    """S5 witness: two disjoint order-6 abelian subgroups force genus >= 2."""
    from .graphs import disjoint_clique_lower_bound
    report = catalog.report_for("S5")
    group = report.group
    element = {lbl: i for i, lbl in enumerate(group.labels)}
    vertex = {e: v for v, e in enumerate(report.vertex_elements)}

    def cyclic_vertices(label):
        return [vertex[e] for e in group.subgroup_closure([element[label]]) - {0}]

    first = cyclic_vertices("(1 2)(3 4 5)")
    second = cyclic_vertices("(1 2 3)(4 5)")
    bound = disjoint_clique_lower_bound(commuting_graph_of(group), first, second)
    return {"group": "S5", "check": "disjoint-clique witness",
            "lower_bound": bound, "ok": bound >= 2}


def _suite_formulas():
    checks = []

    def check(family, group, label=None):
        formula = family_genus(*family)
        total = commuting_graph(group).total
        checks.append({
            "family": family[0], "group": label or group.name,
            "formula": formula,
            "engine": total.value if total.is_exact else None,
            "ok": total.is_exact and total.value == formula})

    for n in range(3, 13):
        check(("Dihedral", n), catalog.build("D", 2 * n))
    for n in range(2, 8):
        check(("Dicyclic", n), catalog.build("Q", 4 * n))
    for k in (4, 5):
        check(("Semidihedral", k), catalog.build("SD", 2 ** k))
    for (p, q), (name, param) in [((2, 3), ("S3", None)), ((2, 5), ("D", 10)),
                                  ((2, 7), ("D", 14)), ((3, 7), ("Z7:Z3", None))]:
        check(("PQ", p, q), catalog.build(name, param))
    for name in ("27_exp3", "27_exp9"):
        check(("PCubed", 3), catalog.build(name))
    check(("PSL2", 2), catalog.build("PSL2", 4))
    check(("GL2", 3), catalog.build("GL2", 3))
    # abelian factors: A x G scales every family member by |A|
    for a_order in (2, 3):
        for base_name in ("S3", "D8", "Q8"):
            base = catalog.build(base_name)
            sizes = tuple(sorted(map(len, base.centralizer_family())))
            check(("AbelianTimesAC", a_order, sizes),
                  direct_product(catalog.build("Z", a_order), base),
                  f"Z{a_order}x{base_name}")
    return checks


def _suite_bounds():
    checks = []
    for entry in catalog.catalog_entries():
        report = catalog.report_for(entry.name)
        if not report.total.is_exact:
            continue
        checks.extend({"group": entry.name, **check}
                      for check in check_bounds_against_group(report))
    return checks


SUITES = {
    "acyclic": _suite_acyclic,
    "planar": _suite_planar,
    "toroidal": _suite_toroidal,
    "formulas": _suite_formulas,
    "bounds": _suite_bounds,
}


def run_suites(names) -> dict:
    """The checks of each named suite with their passed and failed counts,
    then "ok": whether every check passed."""
    payload = {}
    for name in names:
        checks = SUITES[name]()
        failed = sum(not c["ok"] for c in checks)
        payload[name] = {"checks": checks, "passed": len(checks) - failed,
                         "failed": failed}
    payload["ok"] = not any(payload[name]["failed"] for name in names)
    return payload
