"""Finite groups as complete multiplication tables.

Every group is built by one generator closure, `group_from_operation`:
permutations, 2x2 matrices over a finite field, element models, direct
products and quotients only supply its generators and product, so its tables
are group tables by construction; only a table read from a file is checked.
A group's table and element order never change once built.  Elements are in
BFS order from the identity over the generators in the order given, which
keeps labels, rendered on first read, deterministic.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property
from itertools import compress

from .fields import FieldContext, Mat2

# The largest group order.  A build peaks at about 16 B per table entry (GL(2,9),
# 5760 elements, peaks at 548 MiB), so 6000 elements bound it at about 590 MiB.
# The closure checks it before it pays the n^2 table fill, and a group file at
# its `order n` header.
MAX_ORDER = 6000


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `table[i][j]` is the index of the product of elements i and j; index 0 is
    the identity.  Labels are purely cosmetic.  The table is taken as given:
    one from outside the closure is checked first, by `group_from_table`.
    """

    def __init__(self, table, labels=None, name=None):
        self.order = len(table)
        self.table = [tuple(row) for row in table]
        self.name = name
        self._labels = labels

    @cached_property
    def labels(self) -> list:
        """One string per element, rendered on first read: an AC report reads none."""
        if self._labels is None:
            return [str(i) for i in range(self.order)]
        return list(self._labels)

    # -- basic arithmetic -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def element_order(self, x: int) -> int:
        order, acc = 1, x
        while acc != 0:
            acc = self.mul(acc, x)
            order += 1
        return order

    # -- structural queries ----------------------------------------------

    @cached_property
    def _centralizers(self):
        """Row x is C(x), the ascending tuple of the y with xy = yx."""
        ids = list(range(self.order))  # one int object per index, shared by the rows
        return [tuple(compress(ids, map(operator.eq, row, col)))
                for row, col in zip(self.table, zip(*self.table))]

    def centralizer(self, x: int) -> tuple:
        return self._centralizers[x]

    def center(self) -> tuple:
        """The x whose centralizer is the whole group."""
        return tuple(x for x, c in enumerate(self._centralizers) if len(c) == self.order)

    def is_abelian(self) -> bool:
        return len(self.center()) == self.order

    def is_ac_group(self) -> bool:
        """True iff every centralizer of a non-central element is abelian.

        That holds iff C(y) == C(x) for every non-central x and every
        non-central y in C(x).  If C(x) and C(y) are abelian, y in C(x) gives
        C(x) <= C(y) and x in C(y) gives C(y) <= C(x); conversely, if C(a) ==
        C(x) for every non-central a in C(x), any a, b in C(x) commute.

        So G is AC iff its distinct X = C(x) \\ Z partition G \\ Z, that is,
        iff the |X| sum to |G| - |Z|: each non-central y lies in its own
        C(y) \\ Z, and a member C(x) \\ Z that holds y is that one iff
        C(x) == C(y), as both contain Z.  An abelian group is AC vacuously.
        """
        if self.is_abelian():
            return True
        return sum(map(len, self.centralizer_family())) == \
            self.order - len(self.center())

    def centralizer_family(self) -> tuple:
        """Deduplicated sorted tuples C(u) \\ Z over all non-central u, sorted."""
        if self.is_abelian():
            raise ValueError("centralizer family requires a non-abelian group")
        z = set(self.center())
        distinct = {c for c in self._centralizers if len(c) < self.order}
        return tuple(sorted(tuple(y for y in c if y not in z) for c in distinct))

    # -- subgroup machinery ----------------------------------------------

    def subgroup_closure(self, seed) -> frozenset:
        """The subgroup generated by the given element indices."""
        elems = {0}
        frontier = [0]
        gens = list(seed)
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.table[g][s]
                    if h not in elems:
                        elems.add(h)
                        nxt.append(h)
            frontier = nxt
        return frozenset(elems)

    def abelian_subgroups(self):
        """All abelian subgroups, by iterative centralizing extension.

        Seeded with the trivial subgroup; each abelian subgroup H is extended
        by every z in C(H) \\ H, so the cyclic subgroups are the extensions of
        {0}, and every abelian subgroup is reached through a chain of its own
        generators.  z centralizes H, so the extension <H, z> is H<z>.  Each
        <z> is closed once, however many subgroups z extends, and H<z> is
        formed once per distinct <z>, however many of its generators lie in
        C(H) \\ H.
        """
        cent, table = self._centralizers, self.table
        cyclic = {}
        found = {frozenset({0})}
        work = list(found)
        while work:
            h = work.pop()
            extenders = set()
            for z in set(range(self.order)).intersection(*(cent[x] for x in h)) - h:
                if z not in cyclic:
                    cyclic[z] = self.subgroup_closure([z])
                extenders.add(cyclic[z])
            for c in extenders:
                ext = frozenset(table[x][p] for x in h for p in c)
                if ext not in found:
                    found.add(ext)
                    work.append(ext)
        return found

    def generators(self) -> list:
        """A generating set, picked greedily: each element in index order that
        the earlier picks do not generate."""
        gens, reached = [], {0}
        for g in range(self.order):
            if g not in reached:
                gens.append(g)
                reached = self.subgroup_closure(gens)
        return gens

    # -- quotients --------------------------------------------------------

    def quotient(self, normal) -> "FiniteGroup":
        """Quotient by a normal subgroup given as an element index set."""
        nset = frozenset(normal)
        if 0 not in nset:
            raise ValueError("normal subgroup must contain the identity")
        t = self.table
        for g in range(self.order):  # gN == Ng
            if {t[g][x] for x in nset} != {t[x][g] for x in nset}:
                raise ValueError("subgroup is not normal")
        coset_of = [None] * self.order  # element -> least member of its coset
        for x in range(self.order):
            if coset_of[x] is None:  # no smaller element shares its coset
                for h in nset:
                    coset_of[self.table[x][h]] = x
        return group_from_operation(
            [coset_of[g] for g in self.generators()],
            lambda x, y: coset_of[self.table[x][y]], 0,
            lambda r: f"{self.labels[r]}N",
            name=f"{self.name}/N" if self.name else None)

    def quotient_exponent(self) -> int:
        """Maximum element order in G/Z(G): the largest least k >= 1 with x^k in Z.

        One walk over x's powers x, x^2, .., x^(k-1) settles them all: x^j has
        order k / gcd(j, k) <= k in G/Z, so none of them can raise the maximum.
        """
        if self.is_abelian():
            raise ValueError("quotient exponent requires a non-abelian group")
        t = self.table
        z = set(self.center())
        done = set(z)
        exponent = 1
        for x in range(self.order):
            if x not in done:
                k, acc = 1, x
                while acc not in z:
                    done.add(acc)
                    acc = t[acc][x]
                    k += 1
                exponent = max(exponent, k)
        return exponent

    def __repr__(self):
        name = self.name or "FiniteGroup"
        return f"<{name} of order {self.order}>"


# -- constructions ---------------------------------------------------------

def _perm_compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[i] for i in q)


def perm_cycle_label(perm) -> str:
    """Disjoint-cycle notation with 1-based points; identity renders as ()."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(i + 1) for i in cycle) + ")")
    return "".join(parts) or "()"


def group_from_operation(generators, op, identity, label=str, name=None) -> FiniteGroup:
    """The group generated under `op`, by BFS from the identity over right
    multiplication by the generators in the order given.

    Only the n*|S| products x*s use `op`.  Each b but the identity is
    parent(b)*s, so the table is filled by lookup, a*b = right[s][a*parent(b)].
    So `op` must be a group operation on what the generators produce, with
    `identity` its identity; nothing checks that.
    """
    gens = list(generators)
    index = {identity: 0}
    elements = [identity]
    parents = [None]
    right = [[] for _ in gens]
    for x, g in enumerate(elements):  # `elements` grows while it is walked
        for s, gen in enumerate(gens):
            h = op(g, gen)
            if h not in index:
                if len(elements) == MAX_ORDER:
                    raise ValueError(f"more than {MAX_ORDER} elements, the order limit")
                index[h] = len(elements)
                elements.append(h)
                parents.append((x, s))
            right[s].append(index[h])
    columns = [range(len(elements))]
    for x, s in parents[1:]:
        columns.append(list(map(right[s].__getitem__, columns[x])))
    return FiniteGroup(list(zip(*columns)), map(label, elements), name=name)


def group_from_permutations(generators, name=None) -> FiniteGroup:
    """The group generated by permutations on {0..m-1} under composition."""
    gens = [tuple(g) for g in generators]
    m = len(gens[0]) if gens else 1
    for g in gens:
        if sorted(g) != list(range(m)):
            raise ValueError(f"generator {g} is not a bijection on 0..{m - 1}")
    return group_from_operation(gens, _perm_compose, tuple(range(m)),
                                perm_cycle_label, name)


def group_from_matrices(generators, context: FieldContext, name=None) -> FiniteGroup:
    """The matrix group generated by invertible `Mat2` matrices over `context`."""
    gens = list(generators)
    for g in gens:
        if not g.det():
            raise ValueError(f"generator {g} is singular")
    return group_from_operation(gens, operator.mul, Mat2.identity(context), repr, name)


def direct_product(a: FiniteGroup, b: FiniteGroup, name=None) -> FiniteGroup:
    """Componentwise product of pairs (i, j), generated by (0, t) and (s, 0)
    over the generators t of B and s of A."""
    gens = [(0, t) for t in b.generators()] + [(s, 0) for s in a.generators()]
    if name is None and a.name and b.name:
        name = f"{a.name} x {b.name}"
    return group_from_operation(
        gens, lambda x, y: (a.table[x[0]][y[0]], b.table[x[1]][y[1]]), (0, 0),
        lambda x: f"({a.labels[x[0]]},{b.labels[x[1]]})", name)


# -- text format -----------------------------------------------------------

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
    Tables from outside the closure come in here, not through `FiniteGroup`."""
    n = len(rows)
    full = set(range(n))
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for i, line in enumerate(lines):
            if len(line) != n:
                raise ValueError(f"{kind} {i} has length {len(line)}, expected {n}")
            if set(line) != full:
                raise ValueError(f"{kind} {i} is not a permutation of 0..{n - 1}")
    group = FiniteGroup(rows)
    t, ident = group.table, tuple(range(n))
    identity = next((e for e, row in enumerate(t)
                     if row == ident and tuple(r[e] for r in t) == ident), None)
    if identity is None:
        raise ValueError("table has no identity element")
    if identity != 0:
        raise ValueError("identity must be at index 0")
    for s in group.generators():
        for x in range(n):
            for y in range(n):
                if t[t[x][s]][y] != t[x][t[s][y]]:
                    raise ValueError(f"table is not associative: "
                                     f"({x}*{s})*{y} != {x}*({s}*{y})")
    return group


def group_from_file_text(text: str) -> FiniteGroup:
    """Parse the plain-text group format.

    First line is ``order n``; then either ``table`` followed by n rows of n
    indices, or ``perm-generators m`` followed by one generator per line in
    disjoint-cycle notation.
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
    if len(rows) < 2:
        fail(lineno, "missing 'table' or 'perm-generators' section")
    lineno, mode = rows[1]
    mparts = mode.split()
    if mparts[0] == "table":
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
