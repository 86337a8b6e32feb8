"""Command-line interface.

JSON goes to stdout, human-readable summaries to stderr with --verbose.
Exit codes: 0 success, 1 a verification assertion failed, 2 usage or input
error.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import click

from . import catalog
from .engine import commuting_graph, commuting_graph_of, report_to_json, to_json_text
from .groups import FiniteGroup, group_from_file_text
from .verify import SUITES, run_suites

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


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


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
@click.option("--verbose", is_flag=True)
def genus(name, param, path, verbose):
    """Commuting-graph report with block decomposition and genus."""
    group, label = _load_group(name, param, path)
    report = commuting_graph(group)
    click.echo(to_json_text(report_to_json(report, name=label)), nl=False)
    if verbose:
        total = report.total
        desc = (f"genus {total.value}" if total.is_exact
                else f"genus in [{total.lower}, {total.upper}]")
        click.echo(f"{label}: {len(report.vertex_elements)} vertices, "
                   f"{report.edge_count} edges, {desc}", err=True)


@main.command("export-dot")
@_group_options
@click.option("--out", type=click.Path(), required=True)
def export_dot(name, param, path, out):
    """Write the commuting graph in DOT format."""
    group, label = _load_group(name, param, path)
    graph = commuting_graph_of(group)
    _write(out, graph.to_dot(name=label))
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
        _write(out, text)
        click.echo(to_json_text({"written": str(out)}), nl=False)


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
    payload = run_suites(names)
    if verbose:
        for name in names:
            result = payload[name]
            click.echo(f"{name}: {result['passed']}/{len(result['checks'])} passed",
                       err=True)
    click.echo(to_json_text(payload), nl=False)
    if not payload["ok"]:
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
