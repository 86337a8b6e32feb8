"""Command-line interface.

JSON goes to stdout, human-readable summaries to stderr with --verbose.
Exit codes: 0 success, 1 a verification assertion failed, 2 usage or input
error.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

import click

from . import catalog
from .engine import (
    check_bounds_against_group,
    commuting_graph,
    commuting_graph_of,
    family_genus,
    FamilyParams,
    oracle_cap_from_env,
    report_to_json,
    to_json_text,
)
from .graphs import DEFAULT_ORACLE_EDGE_CAP, disjoint_clique_lower_bound
from .groups import FiniteGroup, direct_product, group_from_file_text

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class InputError(click.ClickException):
    """Bad input or a library error: one line on stderr, exit 2."""

    exit_code = EXIT_USAGE


class _Commands(click.Group):
    """Reports any ValueError, bad input included, as an InputError."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise InputError(str(exc)) from None


def _load_group(name, param, path) -> tuple[FiniteGroup, str]:
    if path is not None:
        if name is not None:
            raise click.UsageError("--file and --name are mutually exclusive")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}")
        group = group_from_file_text(text)
        return group, group.name or Path(path).stem
    if name is None:
        raise click.UsageError("supply --name or --file")
    group = catalog.build(name, param)
    label = name if param is None else f"{name}{param}"
    return group, group.name or label


def _group_options(fn):
    fn = click.option("--file", "path", type=click.Path(), default=None,
                      help="group file (table or perm-generators format)")(fn)
    fn = click.option("--param", type=int, default=None,
                      help="family parameter, e.g. the group order for --name D")(fn)
    fn = click.option("--name", default=None,
                      help="catalog name, e.g. D, Q, SD, S, GL2 or Sz(2)")(fn)
    return fn


@click.group(cls=_Commands)
def main():
    """Genus of commuting graphs of finite non-abelian groups."""


@main.command()
@_group_options
@click.option("--verbose", is_flag=True)
def info(name, param, path, verbose):
    """Order, center, AC flag and basic invariant multisets of a group."""
    group, label = _load_group(name, param, path)
    orders = Counter(group.element_order(x) for x in range(group.order))
    centralizers = Counter(len(group.centralizer(x)) for x in range(group.order))
    payload = {
        "name": label,
        "order": group.order,
        "center_order": len(group.center()),
        "abelian": group.is_abelian(),
        "is_ac": group.is_ac_group(),
        "element_orders": {str(k): v for k, v in sorted(orders.items())},
        "centralizer_sizes": {str(k): v for k, v in sorted(centralizers.items())},
    }
    click.echo(to_json_text(payload), nl=False)
    if verbose:
        click.echo(f"{label}: order {group.order}, |Z| = {len(group.center())}, "
                   f"AC = {payload['is_ac']}", err=True)


@main.command()
@_group_options
@click.option("--oracle-cap", type=int, default=None,
              help=f"edge cap for the rotation-system oracle "
                   f"(default {DEFAULT_ORACLE_EDGE_CAP}, env CGRAPH_ORACLE_CAP)")
@click.option("--verbose", is_flag=True)
def genus(name, param, path, oracle_cap, verbose):
    """Commuting-graph report with block decomposition and genus."""
    group, label = _load_group(name, param, path)
    if group.is_abelian():
        raise click.UsageError(f"{label} is abelian: its commuting graph is empty")
    cap = oracle_cap if oracle_cap is not None else oracle_cap_from_env()
    report = commuting_graph(group, oracle_cap=cap)
    click.echo(to_json_text(report_to_json(report, name=label)), nl=False)
    if verbose:
        total = report.total
        desc = (f"genus {total.value}" if total.is_exact
                else f"genus in [{total.lower}, {total.upper}]")
        click.echo(f"{label}: {report.graph.n} vertices, "
                   f"{report.graph.edge_count} edges, {desc}", err=True)


@main.command("export-dot")
@_group_options
@click.option("--out", type=click.Path(), required=True)
def export_dot(name, param, path, out):
    """Write the commuting graph in DOT format."""
    group, label = _load_group(name, param, path)
    if group.is_abelian():
        raise click.UsageError(f"{label} is abelian: its commuting graph is empty")
    graph, _ = commuting_graph_of(group)
    try:
        Path(out).write_text(graph.to_dot(name=label))
    except OSError as exc:
        raise click.UsageError(f"cannot write {out}: {exc}")
    click.echo(to_json_text({"written": str(out), "vertices": graph.n,
                             "edges": graph.edge_count}), nl=False)


@main.command("export-catalog")
@click.option("--out", type=click.Path(), default=None,
              help="write catalog.json here instead of stdout")
def export_catalog(out):
    """Dump the group catalog with expected invariants."""
    text = catalog.catalog_json()
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        click.echo(to_json_text({"written": str(out)}), nl=False)


# -- verification suites ---------------------------------------------------

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
    group = catalog.build("S", 5)
    report = catalog.report_for("S5")
    element = {lbl: i for i, lbl in enumerate(group.labels)}
    vertex = {e: v for v, e in enumerate(report.vertex_elements)}

    def cyclic_vertices(label):
        x = element[label]
        powers, acc = [], x
        while acc != 0:
            powers.append(vertex[acc])
            acc = group.mul(acc, x)
        return powers

    first = cyclic_vertices("(1 2)(3 4 5)")
    second = cyclic_vertices("(1 2 3)(4 5)")
    bound = disjoint_clique_lower_bound(report.graph, first, second)
    return {"group": "S5", "check": "disjoint-clique witness",
            "lower_bound": bound, "ok": bound >= 2}


def _suite_formulas():
    checks = []

    def check(params, group, label=None):
        formula = family_genus(params)
        total = commuting_graph(group).total
        checks.append({
            "family": params.tag, "group": label or group.name,
            "formula": formula,
            "engine": total.value if total.is_exact else None,
            "ok": total.is_exact and total.value == formula})

    for n in range(3, 13):
        check(FamilyParams("Dihedral", n=n), catalog.build("D", 2 * n))
    for n in range(2, 8):
        check(FamilyParams("Dicyclic", n=n), catalog.build("Q", 4 * n))
    for k in (4, 5):
        check(FamilyParams("Semidihedral", k=k), catalog.build("SD", 2 ** k))
    for (p, q), (name, param) in [((2, 3), ("S3", None)), ((2, 5), ("D", 10)),
                                  ((2, 7), ("D", 14)), ((3, 7), ("Z7:Z3", None))]:
        check(FamilyParams("PQ", p=p, q=q), catalog.build(name, param))
    for name in ("27_exp3", "27_exp9"):
        check(FamilyParams("PCubed", p=3), catalog.build(name))
    check(FamilyParams("PSL2", k=2), catalog.build("PSL2", 4))
    check(FamilyParams("GL2", q=3), catalog.build("GL2", 3))
    # abelian factors: A x G scales every family member by |A|
    for a_order in (2, 3):
        for base_name in ("S3", "D8", "Q8"):
            base = catalog.build(base_name)
            sizes = tuple(sorted(map(len, base.centralizer_family())))
            check(FamilyParams("AbelianTimesAC", abelian_order=a_order,
                               family_sizes=sizes),
                  direct_product(catalog.build("Z", a_order), base),
                  f"Z{a_order}x{base_name}")
    return checks


def _suite_bounds():
    checks = []
    for entry in catalog.catalog_entries():
        report = catalog.report_for(entry.name)
        if not report.total.is_exact:
            continue
        for check in check_bounds_against_group(entry.build(), report):
            checks.append({"group": entry.name, "check": check.name,
                           "observed": check.observed, "limit": check.limit,
                           "ok": check.passed})
    return checks


SUITES = {
    "acyclic": _suite_acyclic,
    "planar": _suite_planar,
    "toroidal": _suite_toroidal,
    "formulas": _suite_formulas,
    "bounds": _suite_bounds,
}


@main.command()
@click.argument("suite")
@click.option("--verbose", is_flag=True)
def verify(suite, verbose):
    """Run a theorem-verification suite: acyclic | planar | toroidal |
    formulas | bounds | all."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)} or all")
    payload = {}
    failed = 0
    for name in names:
        checks = SUITES[name]()
        failures = [c for c in checks if not c["ok"]]
        failed += len(failures)
        payload[name] = {"checks": checks, "passed": len(checks) - len(failures),
                         "failed": len(failures)}
        if verbose:
            click.echo(f"{name}: {len(checks) - len(failures)}/{len(checks)} passed",
                       err=True)
    payload["ok"] = failed == 0
    click.echo(to_json_text(payload), nl=False)
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
