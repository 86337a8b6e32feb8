"""Command-line interface.

JSON goes to stdout, human-readable summaries to stderr with --verbose.
Exit codes: 0 success, 1 a verification assertion failed, 2 usage or input
error.

`COMMANDS` holds each command's function, usage and options, and `_parse`
reads a command line from it: argparse would cost each process about 6 ms to
import and build, gettext and locale among it.  A process loads only what
its command runs: `verify` alone imports the verification suites, and a
`--file` alone imports the group-file parser in `textformat`.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Callable, NamedTuple

from . import catalog
from .engine import _vertices, commuting_graph, commuting_graph_of, report_to_json, to_json_text
from .groups import FiniteGroup

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def __getattr__(name):
    """`SUITES`, the verification suites by name: the dict object of
    `verify.SUITES`, imported on first use, since only `verify` runs them."""
    if name == "SUITES":
        from .verify import SUITES
        return SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """A command line its command refuses: args are (command or None, message)."""


def _load_group(name, param, path) -> tuple[FiniteGroup, str]:
    if path is not None:
        if param is not None:
            raise ValueError("--param does not apply to a group --file")
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}")
        from .textformat import group_from_file_text
        group = group_from_file_text(text)
        base = os.path.basename(path)   # its stem, as pathlib reads it
        dot = base.rfind(".")
        return group, group.name or (base[:dot] if 0 < dot < len(base) - 1 else base)
    group = catalog.build(name, param)
    label = name if param is None else f"{name}{param}"
    return group, group.name or label


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
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
    """Run a theorem-verification suite: acyclic | planar |
    toroidal | formulas | bounds | all."""
    from .verify import SUITES, run_suites
    if suite != "all" and suite not in SUITES:
        raise UsageError("verify", f"argument SUITE: invalid choice: {suite!r} "
                         f"(choose from {_choices([*SUITES, 'all'])})")
    names = list(SUITES) if suite == "all" else [suite]
    payload = run_suites(names)
    if verbose:
        for name in names:
            result = payload[name]
            print(f"{name}: {result['passed']}/{len(result['checks'])} passed",
                  file=sys.stderr)
    sys.stdout.write(to_json_text(payload))
    return 0 if payload["ok"] else EXIT_VERIFY_FAILED


class Command(NamedTuple):
    run: Callable
    usage: tuple        # after "usage: PROG COMMAND ", one string per line
    options: dict       # option -> (keyword, int or str; None for a flag)
    required: tuple     # groups of options, exactly one of each to be given
    positional: str | None
    help: str           # after the usage, as `--help` prints it


# The usages and help texts are argparse's at 80 columns, byte for byte.
_SOURCE = {"--name": ("name", str), "--file": ("path", str), "--param": ("param", int)}
_SOURCE_USAGE = "[-h] (--name NAME | --file PATH) [--param PARAM]"
_SOURCE_HELP = """
options:
  -h, --help     show this help message and exit
  --name NAME    catalog name, e.g. D, Q, SD, S, GL2 or Sz(2)
  --file PATH    group file (table or perm-generators format)
  --param PARAM  family parameter, e.g. the group order for --name D
"""

COMMANDS = {
    "info": Command(
        info, (_SOURCE_USAGE, "[--verbose]"),
        {**_SOURCE, "--verbose": ("verbose", None)}, (("--name", "--file"),), None,
        "Order, center, AC flag and basic invariant multisets of a group.\n"
        + _SOURCE_HELP + "  --verbose\n"),
    "genus": Command(
        genus, (_SOURCE_USAGE, "[--verbose]"),
        {**_SOURCE, "--verbose": ("verbose", None)}, (("--name", "--file"),), None,
        "Commuting-graph report with block decomposition and genus.\n"
        + _SOURCE_HELP + "  --verbose\n"),
    "export-dot": Command(
        export_dot, (_SOURCE_USAGE, "--out PATH"),
        {**_SOURCE, "--out": ("out", str)}, (("--name", "--file"), ("--out",)), None,
        "Write the commuting graph in DOT format.\n" + _SOURCE_HELP + "  --out PATH\n"),
    "export-catalog": Command(
        export_catalog, ("[-h] [--out PATH]",), {"--out": ("out", str)}, (), None,
        "Dump the group catalog with expected invariants.\n\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out PATH  write catalog.json here instead of stdout\n"),
    "verify": Command(
        verify, ("[-h] [--verbose] SUITE",), {"--verbose": ("verbose", None)}, (), "suite",
        "Run a theorem-verification suite: acyclic | planar | toroidal | formulas |\n"
        "bounds | all.\n\n"
        "positional arguments:\n"
        "  SUITE\n\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --verbose\n"),
}

_HELP = """\
Genus of commuting graphs of finite non-abelian groups.

positional arguments:
  COMMAND
    info          Order, center, AC flag and basic invariant multisets of a
                  group.
    genus         Commuting-graph report with block decomposition and genus.
    export-dot    Write the commuting graph in DOT format.
    export-catalog
                  Dump the group catalog with expected invariants.
    verify        Run a theorem-verification suite: acyclic | planar |
                  toroidal | formulas | bounds | all.

options:
  -h, --help      show this help message and exit
"""


def _choices(names) -> str:
    return ", ".join(map(repr, names))


def _usage(prog, command) -> str:
    """The usage of `prog command`, or of `prog` for command None."""
    head = f"usage: {prog}" if command is None else f"usage: {prog} {command}"
    lines = ("[-h] COMMAND ...",) if command is None else COMMANDS[command].usage
    return f"{head} " + ("\n" + " " * (len(head) + 1)).join(lines) + "\n"


def _is_option(token) -> bool:
    """Whether `token` names an option: it starts with "-" and, as in
    argparse, is not "-" or a negative number, which are values."""
    return (token.startswith("-") and token != "-"
            and not token[1:].replace(".", "", 1).isdigit())


def _parse(args) -> tuple:
    """(command, its keyword arguments) of a command line, the arguments None
    for `-h` or `--help` and the command None for the top level.  Options are
    never abbreviated, take their value as `--opt value` or `--opt=value`,
    and the last of a repeated option wins."""
    if not args:
        raise UsageError(None, "the following arguments are required: COMMAND")
    name, *rest = args
    if name in ("-h", "--help"):
        return None, None
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(None, f"argument COMMAND: invalid choice: {name!r} "
                         f"(choose from {_choices(COMMANDS)})")
    kwargs = {key: False if convert is None else None
              for key, convert in command.options.values()}
    positionals = []
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return name, None
        if not _is_option(token):
            positionals.append(token)
            continue
        option, explicit, value = token.partition("=")
        if option not in command.options:
            raise UsageError(name, f"unrecognized arguments: {token}")
        key, convert = command.options[option]
        if convert is None:
            if explicit:
                raise UsageError(name, f"argument {option}: ignored explicit argument {value!r}")
            kwargs[key] = True
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise UsageError(name, f"argument {option}: expected one argument")
        try:
            kwargs[key] = convert(value)
        except ValueError:
            raise UsageError(name, f"argument {option}: invalid int value: {value!r}") from None
    wanted = [command.positional] if command.positional else []
    if len(positionals) > len(wanted):
        raise UsageError(name, f"unrecognized arguments: {' '.join(positionals[len(wanted):])}")
    if len(positionals) < len(wanted):
        raise UsageError(name, f"the following arguments are required: {wanted[0].upper()}")
    kwargs.update(zip(wanted, positionals))
    for group in command.required:
        given = [option for option in group if kwargs[command.options[option][0]] is not None]
        if not given:
            raise UsageError(name, "the following arguments are required: "
                             + " or ".join(group))
        if len(given) > 1:
            raise UsageError(name, f"argument {given[1]}: not allowed with argument {given[0]}")
    return name, kwargs


def main(args=None, prog_name="cgraph", standalone_mode=True):
    """Run one command and give its exit code: standalone mode, the console
    script's, exits with it, and otherwise it is returned.  `args` defaults
    to `sys.argv[1:]`."""
    try:
        name, kwargs = _parse(sys.argv[1:] if args is None else list(args))
        if kwargs is None:
            sys.stdout.write(_usage(prog_name, name) + "\n"
                             + (_HELP if name is None else COMMANDS[name].help))
            code = 0
        else:
            code = COMMANDS[name].run(**kwargs)
    except UsageError as exc:
        name, message = exc.args
        prog = prog_name if name is None else f"{prog_name} {name}"
        sys.stderr.write(f"{_usage(prog_name, name)}{prog}: error: {message}\n")
        code = EXIT_USAGE
    except ValueError as exc:   # bad input or a library error
        print(f"Error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
