"""Finite groups as complete multiplication tables.

Groups are built by generator closure (permutations or 2x2 matrices over a
finite field), by direct products, or from an explicit element model, and are
immutable once constructed.  Element ordering is BFS from the identity over
the generators in the order given, which keeps labels deterministic.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, reduce
from itertools import compress

from .fields import FieldContext, Mat2

# The largest group order.  A build peaks at about 16 B per table entry (GL(2,9),
# 5760 elements, peaks at 548 MiB), so 6000 elements bound it at about 590 MiB.
# Every construction checks it before it pays the n^2 table fill.
MAX_ORDER = 6000


def _check_order(n):
    if n > MAX_ORDER:
        raise ValueError(f"group order {n} exceeds the limit of {MAX_ORDER}")


def _closure(identity, generators, mul):
    """(elements, table) of the group generated under `mul`, by BFS from the
    identity over right multiplication by the generators in the order given.

    Only the n*|S| products x*s use `mul`.  Each b but the identity is
    parent(b)*s, so the table is filled by lookup, a*b = right[s][a*parent(b)].
    """
    index = {identity: 0}
    elements = [identity]
    parents = [None]
    right = [[] for _ in generators]
    for x, g in enumerate(elements):  # `elements` grows while it is walked
        for s, gen in enumerate(generators):
            h = mul(g, gen)
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
    return elements, list(zip(*columns))


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `table[i][j]` is the index of the product of elements i and j; index 0 is
    the identity.  Labels are purely cosmetic.
    """

    def __init__(self, table, labels=None, name=None):
        n = len(table)
        self.order = n
        self.table = [tuple(row) for row in table]
        self.name = name
        full = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
        for j, col in enumerate(zip(*self.table)):
            if set(col) != full:
                raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
        ident = tuple(range(n))
        identity = next(
            (e for e, row in enumerate(self.table)
             if row == ident and tuple(r[e] for r in self.table) == ident),
            None)
        if identity is None:
            raise ValueError("table has no identity element")
        if identity != 0:
            raise ValueError("identity must be at index 0")
        self.identity = identity
        self.inverse = [row.index(0) for row in self.table]
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count does not match group order")

    # -- basic arithmetic -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inverse[g])

    def element_order(self, x: int) -> int:
        order, acc = 1, x
        while acc != 0:
            acc = self.mul(acc, x)
            order += 1
        return order

    def elements(self):
        return range(self.order)

    # -- structural queries ----------------------------------------------

    @cached_property
    def _centralizers(self):
        """Row x is an int whose bit y is set iff xy = yx."""
        return [sum(1 << y for y in compress(range(self.order), map(operator.eq, row, col)))
                for row, col in zip(self.table, zip(*self.table))]

    @cached_property
    def _center_bits(self):
        return reduce(operator.and_, self._centralizers)

    def centralizer(self, x: int) -> tuple:
        return _indices(self._centralizers[x])

    def center(self) -> tuple:
        return _indices(self._center_bits)

    def is_abelian(self) -> bool:
        return len(self.center()) == self.order

    def _distinct_centralizers(self) -> set:
        """The distinct centralizers C(x) of non-central x, as bitsets."""
        z = self._center_bits
        return {c for x, c in enumerate(self._centralizers) if not z >> x & 1}

    def is_ac_group(self) -> bool:
        """True iff every centralizer of a non-central element is abelian."""
        rows = self._centralizers
        return all(not c & ~rows[y]
                   for c in self._distinct_centralizers() for y in _indices(c))

    def centralizer_family(self) -> tuple:
        """Deduplicated sorted tuples C(u) \\ Z over all non-central u, sorted."""
        if self.is_abelian():
            raise ValueError("centralizer family requires a non-abelian group")
        z = self._center_bits
        return tuple(sorted(_indices(c & ~z) for c in self._distinct_centralizers()))

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

        Seeded with the cyclic subgroups; each abelian subgroup H is extended
        by elements of C(H) \\ H and re-closed.  Elementary abelian subgroups
        needing 3+ generators are reached this way.
        """
        cent = self._centralizers
        found = set()
        work = []
        for x in range(self.order):
            h = self.subgroup_closure([x])
            if h not in found:
                found.add(h)
                work.append(h)
        while work:
            h = work.pop()
            for z in _indices(reduce(operator.and_, (cent[x] for x in h))):
                if z in h:
                    continue
                ext = self.subgroup_closure(h | {z})
                if ext not in found:
                    found.add(ext)
                    work.append(ext)
        return found

    # -- quotients --------------------------------------------------------

    def quotient(self, normal) -> "FiniteGroup":
        """Quotient by a normal subgroup given as an element index set."""
        nset = frozenset(normal)
        if 0 not in nset:
            raise ValueError("normal subgroup must contain the identity")
        for g in range(self.order):
            for x in nset:
                if self.conjugate(g, x) not in nset:
                    raise ValueError("subgroup is not normal")
        coset_of = {}
        reps = []
        for x in range(self.order):
            if x in coset_of:
                continue
            members = sorted(self.table[x][h] for h in nset)
            rep = members[0]
            for m in members:
                coset_of[m] = rep
            reps.append(rep)
        # identity coset first, rest in representative order
        reps.sort()
        assert reps[0] == coset_of[0]
        rep_index = {r: i for i, r in enumerate(reps)}
        table = [[rep_index[coset_of[self.table[a][b]]] for b in reps] for a in reps]
        labels = [f"{self.labels[r]}N" for r in reps]
        return FiniteGroup(table, labels, name=f"{self.name}/N" if self.name else None)

    def quotient_exponent(self) -> int:
        """Maximum element order in G/Z(G): the largest least k >= 1 with x^k in Z."""
        if self.is_abelian():
            raise ValueError("quotient exponent requires a non-abelian group")
        z = self._center_bits

        def order_mod_center(x):
            k, acc = 1, x
            while not z >> acc & 1:
                acc = self.table[acc][x]
                k += 1
            return k
        return max(map(order_mod_center, range(self.order)))

    def __repr__(self):
        name = self.name or "FiniteGroup"
        return f"<{name} of order {self.order}>"


def _indices(bits: int) -> tuple:
    """The positions of the set bits, ascending."""
    return tuple(i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1")


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


def group_from_permutations(generators, name=None) -> FiniteGroup:
    """The group generated by permutations on {0..m-1} under composition."""
    gens = [tuple(g) for g in generators]
    m = len(gens[0]) if gens else 1
    for g in gens:
        if sorted(g) != list(range(m)):
            raise ValueError(f"generator {g} is not a bijection on 0..{m - 1}")
    elements, table = _closure(tuple(range(m)), gens, _perm_compose)
    labels = [perm_cycle_label(p) for p in elements]
    return FiniteGroup(table, labels, name=name)


def group_from_matrices(generators, context: FieldContext, name=None) -> FiniteGroup:
    """The matrix group generated by invertible `Mat2` matrices over `context`."""
    gens = list(generators)
    for g in gens:
        if not g.det():
            raise ValueError(f"generator {g} is singular")
    elements, table = _closure(Mat2.identity(context), gens, operator.mul)
    labels = [repr(g) for g in elements]
    return FiniteGroup(table, labels, name=name)


def group_from_operation(elements, op, identity, label=str, name=None) -> FiniteGroup:
    """A group from an explicit element model with multiplication `op`."""
    elements = list(elements)
    _check_order(len(elements))
    if elements[0] != identity:
        elements = [identity] + [e for e in elements if e != identity]
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[op(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table, [label(e) for e in elements], name=name)


def direct_product(a: FiniteGroup, b: FiniteGroup, name=None) -> FiniteGroup:
    """Componentwise product; element (i, j) gets index i * |B| + j."""
    _check_order(a.order * b.order)
    nb = b.order
    table = [[a.table[i][k] * nb + b.table[j][l]
              for k in range(a.order) for l in range(nb)]
             for i in range(a.order) for j in range(nb)]
    labels = [f"({a.labels[i]},{b.labels[j]})"
              for i in range(a.order) for j in range(nb)]
    if name is None and a.name and b.name:
        name = f"{a.name} x {b.name}"
    return FiniteGroup(table, labels, name=name)


def _check_associative(group: FiniteGroup) -> FiniteGroup:
    """Light's test: (x*s)*y == x*(s*y) for all x, y and s in a generating set.

    That suffices because the s passing it are closed under the product.  The
    generating set is picked greedily, so the test costs O(n^2 |S|).
    """
    t, n = group.table, group.order
    gens, reached = [], {0}
    for g in range(n):
        if g not in reached:
            gens.append(g)
            reached = group.subgroup_closure(gens)
    for s in gens:
        for x in range(n):
            for y in range(n):
                if t[t[x][s]][y] != t[x][t[s][y]]:
                    raise ValueError(f"table is not associative: "
                                     f"({x}*{s})*{y} != {x}*({s}*{y})")
    return group


# -- text format -----------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, m: int):
    """Parse disjoint-cycle notation like ``(1 2)(3 4)`` into a permutation."""
    normalized = text.replace(",", " ")
    if _CYCLE_RE.sub("", normalized).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    perm = list(range(m))
    for body in _CYCLE_RE.findall(normalized):
        try:
            points = [int(tok) - 1 for tok in body.split()]
        except ValueError:
            raise ValueError(f"non-integer point in cycle ({body})") from None
        if not points:
            continue
        if any(not 0 <= pt < m for pt in points) or len(set(points)) != len(points):
            raise ValueError(f"bad cycle ({body}) for degree {m}")
        for i, pt in enumerate(points):
            perm[pt] = points[(i + 1) % len(points)]
    return tuple(perm)


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

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "order" or not parts[1].isdigit():
        fail(lineno, f"expected 'order n', got {header!r}")
    n = int(parts[1])
    if n > MAX_ORDER:
        fail(lineno, f"group order {n} exceeds the limit of {MAX_ORDER}")
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
            return _check_associative(FiniteGroup(table))
        except ValueError as exc:
            fail(lineno, str(exc))
    elif mparts[0] == "perm-generators":
        if len(mparts) != 2 or not mparts[1].isdigit():
            fail(lineno, f"expected 'perm-generators m', got {mode!r}")
        m = int(mparts[1])
        gens = []
        for rowno, line in rows[2:]:
            try:
                gens.append(parse_cycles(line, m))
            except ValueError as exc:
                fail(rowno, str(exc))
        try:
            group = group_from_permutations(gens)
        except ValueError as exc:  # the generators close past MAX_ORDER
            fail(lineno, str(exc))
        if group.order != n:
            fail(lineno, f"generators produce order {group.order}, header says {n}")
        return group
    else:
        fail(lineno, f"unknown section {mparts[0]!r}")
