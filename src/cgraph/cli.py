"""Command-line interface, on argparse.

JSON goes to stdout, human-readable summaries to stderr with --verbose.
Exit codes: 0 success, 1 a verification assertion failed, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import catalog
from .engine import _vertices, commuting_graph, commuting_graph_of, report_to_json, to_json_text
from .groups import FiniteGroup, group_from_file_text
from .verify import SUITES, run_suites

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _load_group(name, param, path) -> tuple[FiniteGroup, str]:
    if path is not None:
        if param is not None:
            raise ValueError("--param does not apply to a group --file")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}")
        group = group_from_file_text(text)
        return group, group.name or Path(path).stem
    group = catalog.build(name, param)
    label = name if param is None else f"{name}{param}"
    return group, group.name or label


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


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
    sys.stdout.write(to_json_text(payload))
    if verbose:
        print(f"{label}: order {group.order}, |Z| = {len(group.center())}, "
              f"AC = {payload['is_ac']}", file=sys.stderr)
    return 0


def genus(name, param, path, verbose):
    """Commuting-graph report with block decomposition and genus."""
    group, label = _load_group(name, param, path)
    report = commuting_graph(group)
    sys.stdout.write(to_json_text(report_to_json(report, name=label)))
    if verbose:
        total = report.total
        desc = (f"genus {total.value}" if total.is_exact
                else f"genus in [{total.lower}, {total.upper}]")
        print(f"{label}: {len(report.vertex_elements)} vertices, "
              f"{report.edge_count} edges, {desc}", file=sys.stderr)
    return 0


def export_dot(name, param, path, out):
    """Write the commuting graph in DOT format."""
    group, label = _load_group(name, param, path)
    graph = commuting_graph_of(group)
    _write(out, graph.to_dot(label, [group.labels[x] for x in _vertices(group)]))
    sys.stdout.write(to_json_text({"written": str(out), "vertices": graph.n,
                                   "edges": graph.edge_count}))
    return 0


def export_catalog(out):
    """Dump the group catalog with expected invariants."""
    text = catalog.catalog_json()
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)
        sys.stdout.write(to_json_text({"written": str(out)}))
    return 0


def verify(suite, verbose):
    """Run a theorem-verification suite: acyclic | planar | toroidal |
    formulas | bounds | all."""
    names = list(SUITES) if suite == "all" else [suite]
    payload = run_suites(names)
    if verbose:
        for name in names:
            result = payload[name]
            print(f"{name}: {result['passed']}/{len(result['checks'])} passed",
                  file=sys.stderr)
    sys.stdout.write(to_json_text(payload))
    return 0 if payload["ok"] else EXIT_VERIFY_FAILED


def _parser(prog_name) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog_name, allow_abbrev=False,
        description="Genus of commuting graphs of finite non-abelian groups.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=doc,
                                  description=doc, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    def group_options(sub):
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--name", help="catalog name, e.g. D, Q, SD, S, GL2 or Sz(2)")
        source.add_argument("--file", dest="path", metavar="PATH",
                            help="group file (table or perm-generators format)")
        sub.add_argument("--param", type=int,
                         help="family parameter, e.g. the group order for --name D")
        return sub

    group_options(command(info)).add_argument("--verbose", action="store_true")
    group_options(command(genus)).add_argument("--verbose", action="store_true")
    group_options(command(export_dot)).add_argument(
        "--out", metavar="PATH", required=True)
    command(export_catalog).add_argument(
        "--out", metavar="PATH", help="write catalog.json here instead of stdout")
    sub = command(verify)
    sub.add_argument("suite", choices=[*SUITES, "all"], metavar="SUITE")
    sub.add_argument("--verbose", action="store_true")
    return parser


def main(args=None, prog_name="cgraph", standalone_mode=True):
    """Run one command and give its exit code: standalone mode, the console
    script's, exits with it, and otherwise it is returned."""
    try:
        options = vars(_parser(prog_name).parse_args(args))
        code = options.pop("run")(**options)
    except SystemExit as exc:   # argparse: --help, or a usage error
        code = exc.code
    except ValueError as exc:   # bad input or a library error
        print(f"Error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
