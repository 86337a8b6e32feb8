"""The plain-text group format: a multiplication table or permutation
generators, read by `cli` only for a `--file`.

`group_from_file_text` parses a file; `group_from_table` checks a table and
builds its group, the one way in for a table from outside.
"""

from __future__ import annotations

import re

from .groups import MAX_ORDER, FiniteGroup, _greedy, group_from_permutations

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _cycle_moves(text: str, m: int) -> frozenset:
    """The (point, image) pairs, 0-based, of the points that a line of
    disjoint cycles like ``(1 2)(3 4)`` moves; a point in two cycles is refused."""
    normalized = text.replace(",", " ")
    if _CYCLE_RE.sub("", normalized).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = {}
    for body in _CYCLE_RE.findall(normalized):
        try:
            points = [int(tok) - 1 for tok in body.split()]
        except ValueError:
            raise ValueError(f"non-integer point in cycle ({body})") from None
        if any(not 0 <= pt < m for pt in points) or len(set(points)) != len(points):
            raise ValueError(f"bad cycle ({body}) for degree {m}")
        for pt, image in zip(points, points[1:] + points[:1]):
            if pt in images:
                raise ValueError(f"point {pt + 1} is in two cycles of {text!r}")
            images[pt] = image
    return frozenset((pt, image) for pt, image in images.items() if pt != image)


def parse_cycles(text: str, m: int):
    """Parse disjoint-cycle notation like ``(1 2)(3 4)`` into a permutation."""
    perm = list(range(m))
    for pt, image in _cycle_moves(text, m):
        perm[pt] = image
    return tuple(perm)


def group_from_table(rows) -> FiniteGroup:
    """The group with table `rows`, checked as n rows of n indices forming a
    Latin square with its identity at index 0, then by Light's test: (x*s)*y
    == x*(s*y) for all x, y and s in a greedy generating set, O(n^2 |S|),
    which suffices because the s passing it are closed under the product.
    The group is the BFS tree over those generators' columns, which keeps
    every index; `rows` itself is not kept."""
    n = len(rows)
    full = set(range(n))
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for i, line in enumerate(lines):
            if len(line) != n:
                raise ValueError(f"{kind} {i} has length {len(line)}, expected {n}")
            if set(line) != full:
                raise ValueError(f"{kind} {i} is not a permutation of 0..{n - 1}")
    ident = list(range(n))
    identity = next((e for e, row in enumerate(rows)
                     if list(row) == ident and [r[e] for r in rows] == ident), None)
    if identity is None:
        raise ValueError("table has no identity element")
    if identity != 0:
        raise ValueError("identity must be at index 0")
    gens, (bfs, _, at) = _greedy(n, range(n), lambda g: [[row[g] for row in rows]])
    parents = [None] * n  # BFS positions mapped back to the table's indices
    for y, (p, s) in zip(bfs[1:], at[1:]):
        parents[y] = (bfs[p], s)
    for s in gens:
        for x in range(n):
            for y in range(n):
                if rows[rows[x][s]][y] != rows[x][rows[s][y]]:
                    raise ValueError(f"table is not associative: "
                                     f"({x}*{s})*{y} != {x}*({s}*{y})")
    return FiniteGroup([[row[g] for row in rows] for g in gens], parents, bfs)


def group_from_file_text(text: str) -> FiniteGroup:
    """Parse the plain-text group format.

    First line is ``order n`` with n >= 1; then either ``table`` followed by
    n rows of n indices, or ``perm-generators m`` followed by one generator
    per line in disjoint-cycle notation.
    """
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
            if ln.strip() and not ln.strip().startswith("#")]
    if not rows:
        raise ValueError("line 1: empty group file")

    def fail(lineno, msg):
        raise ValueError(f"line {lineno}: {msg}")

    def bounded(lineno, token, what):  # length first: int() refuses 4300+ digits
        digits = token.lstrip("0") or "0"
        if len(digits) > len(str(MAX_ORDER)) or int(digits) > MAX_ORDER:
            fail(lineno, f"{what} {digits} exceeds the limit of {MAX_ORDER}")
        return int(digits)

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "order" or not re.fullmatch("[0-9]+", parts[1]):
        fail(lineno, f"expected 'order n', got {header!r}")
    n = bounded(lineno, parts[1], "group order")
    if n < 1:
        fail(lineno, "group order must be at least 1")
    if len(rows) < 2:
        fail(lineno, "missing 'table' or 'perm-generators' section")
    lineno, mode = rows[1]
    mparts = mode.split()
    if mparts[0] == "table":
        if len(mparts) != 1:
            fail(lineno, f"expected 'table', got {mode!r}")
        body = rows[2:]
        if len(body) != n:
            fail(lineno, f"expected {n} table rows, got {len(body)}")
        table = []
        for rowno, line in body:
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                fail(rowno, f"non-integer entry in {line!r}")
            if len(row) != n:
                fail(rowno, f"expected {n} entries, got {len(row)}")
            table.append(row)
        try:
            return group_from_table(table)
        except ValueError as exc:
            fail(lineno, str(exc))
    elif mparts[0] == "perm-generators":
        if len(mparts) != 2 or not re.fullmatch("[0-9]+", mparts[1]):
            fail(lineno, f"expected 'perm-generators m', got {mode!r}")
        m = bounded(lineno, mparts[1], "permutation degree")
        gens = {}  # moved points -> line, first occurrences in order
        for rowno, line in rows[2:]:
            try:  # a repeated generator never adds an element
                gens.setdefault(_cycle_moves(line, m), line)
            except ValueError as exc:
                fail(rowno, str(exc))
        try:
            group = group_from_permutations(
                parse_cycles(line, m) for line in gens.values())
        except ValueError as exc:  # the generators close past MAX_ORDER
            fail(lineno, str(exc))
        if group.order != n:
            fail(lineno, f"generators produce order {group.order}, header says {n}")
        return group
    else:
        fail(lineno, f"unknown section {mparts[0]!r}")
