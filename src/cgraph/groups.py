"""Finite groups as generator closures: right actions and a BFS tree.

One BFS, `_closure`, builds every group, subgroup and table tree.  Through
`group_from_operation`, permutations, 2x2 matrices over a finite field,
element models, direct products and quotients only supply generators and a
product, so what it stores is a group by construction.  Through `_greedy`,
it closes the greedy picks' words for `generators`, `subgroup_closure` and a
table file, which only `textformat.group_from_table` checks; the text format
lives in `textformat`, which only a group file loads.  A group stores, per
generator s, the index map x -> x*s and each element's BFS parent, n*|S|
entries in all, and no table: x*y is x pushed through y's tree word by
`_push`.  Elements are in BFS order from the identity over the generators in
the order given, which keeps labels, rendered on first read, deterministic.
A group never changes once built.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import compress
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .fields import FieldContext

# The largest group order.  A group stores n*|S| action entries and, once
# asked, k*n centralizer entries for k conjugacy classes (GL(2,9), 5760
# elements, reports its genus at about 20 MiB peak).  Only a table file is
# n^2 entries, about 590 MiB at 6000 elements, and that is what the limit
# bounds.  The closure checks the limit as it grows, and a group file at its
# `order n` header.
MAX_ORDER = 6000


def _index(g, n) -> int:
    """g, an element index, if it is in 0..n-1; else ValueError."""
    if not 0 <= g < n:
        raise ValueError(f"index {g} is outside 0..{n - 1}")
    return g


def _push(x, maps) -> int:
    """x mapped by each of `maps` in turn: x*y, given y's tree word."""
    for m in maps:
        x = m[x]
    return x


def _closure(gens, op, identity):
    """The BFS from `identity` over right multiplication by `gens`, in order:
    (elements, right, parents), right[s][x] the position of elements[x]*gens[s]
    and parents[y] = (x, s) for y = x*s; past MAX_ORDER elements, ValueError."""
    index = {identity: 0}
    elements, parents = [identity], [None]
    right = [[] for _ in gens]
    steps = list(enumerate(zip(gens, [act.append for act in right])))
    for x, g in enumerate(elements):  # `elements` grows while it is walked
        for s, (gen, put) in steps:
            h = op(g, gen)
            y = index.get(h)
            if y is None:
                if len(elements) == MAX_ORDER:
                    raise ValueError(f"more than {MAX_ORDER} elements, the order limit")
                y = index[h] = len(elements)
                elements.append(h)
                parents.append((x, s))
            put(y)
    return elements, right, parents


def _greedy(n, candidates, word):
    """The greedy picks among `candidates`, each one that the earlier picks
    do not generate, and the `_closure` of the picks' words over 0..n-1.
    `word(g)` is a list of index maps whose composite is x -> x*g, built once
    per pick.  An index outside 0..n-1 raises ValueError."""
    picks, words, members = [], [], {0}
    closure = _closure(words, _push, 0)
    for g in candidates:
        if g not in members:  # an index outside 0..n-1 never is
            picks.append(_index(g, n))
            words.append(word(g))
            closure = _closure(words, _push, 0)
            members = set(closure[0])
    return picks, closure


class FiniteGroup:
    """A finite group given by the right actions of its generators.

    `_tree` holds `right[s][x]`, the index of x*s for generator s, the BFS
    tree `parents[y] = (p, s)` with y = p*s (None at the identity, index 0)
    and the elements in BFS order (a closure's are `range(order)`; a table
    file's keep their own indices).  The actions must be those of a group;
    only `textformat.group_from_table` checks a table from outside.  Labels
    are purely cosmetic.
    """

    def __init__(self, right, parents, bfs, labels=None, name=None):
        self._tree = (right, parents, bfs)
        self.order = len(parents)
        self.name = name
        self._labels = labels

    @cached_property
    def labels(self) -> list:
        """One string per element, rendered on first read: no report reads them."""
        if self._labels is None:
            return [str(i) for i in range(self.order)]
        return list(self._labels)

    def _word(self, y) -> list:
        """The right actions along y's tree path: y = s1*..*sk read from the
        identity gives [right[s1], .., right[sk]], so x*y is x mapped by each."""
        right, parents, _ = self._tree
        word = []
        while y:
            y, s = parents[y]
            word.append(right[s])
        word.reverse()
        return word

    # -- basic arithmetic -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return _push(_index(x, self.order), self._word(_index(y, self.order)))

    def element_order(self, x: int) -> int:
        return self._power_orders[0][_index(x, self.order)]

    # -- conjugacy classes -----------------------------------------------

    @cached_property
    def _conjugations(self) -> list:
        """Per generator s, the map x -> s^-1 x s: right[s] after y -> s^-1 y,
        which is filled along the BFS tree from s^-1 (the x with x*s = 1),
        s^-1 y = (s^-1 p)*t for y = p*t."""
        right, parents, bfs = self._tree
        conj = []
        for act in right:
            left = [0] * self.order
            left[0] = act.index(0)
            for y in bfs[1:]:
                p, t = parents[y]
                left[y] = right[t][left[p]]
            conj.append(list(map(act.__getitem__, left)))
        return conj

    @cached_property
    def _class_of(self) -> list:
        """Per element, its conjugacy class: the orbit under the generators'
        conjugations, a list led by its least member, shared by its members."""
        class_of = [None] * self.order
        for r in range(self.order):
            if class_of[r] is None:
                orbit = class_of[r] = [r]
                for x in orbit:  # `orbit` grows while it is walked
                    for c in self._conjugations:
                        y = c[x]
                        if class_of[y] is None:
                            class_of[y] = orbit
                            orbit.append(y)
        return class_of

    def _reps(self, size=1) -> list:
        """The least member of each class of at least `size` elements, ascending."""
        return [x for x, orbit in enumerate(self._class_of)
                if orbit[0] == x and len(orbit) >= size]

    def _powers(self, r) -> list:
        """r, r^2, .., up to the identity, each the last times r's word."""
        word = self._word(r)
        powers = [r]
        while powers[-1]:
            powers.append(_push(powers[-1], word))
        return powers

    # -- structural queries ----------------------------------------------

    @cached_property
    def _centralizers(self):
        """Row x is C(x), the ascending tuple of the y with xy = yx.

        A central element's is the whole group.  For one element r of each
        other class, one walk of the BFS tree gives r's conjugate by every
        element, x[y] = y^-1 r y, since x[y] = t^-1 x[p] t for y = p*t, and
        C(r) is the y with x[y] = r (orbit-stabilizer over a Schreier tree).
        C(r) is spread over r's class, C(c[x]) = c(C(x)).  A power p of r
        has C(p) >= C(r), so C(p) = C(r) if the classes of p and r have the
        same size, and p's class is settled with r's."""
        n, conj, class_of = self.order, self._conjugations, self._class_of
        _, parents, bfs = self._tree
        cent, whole = [None] * n, tuple(range(n))  # one int object per index
        for z in self.center():
            cent[z] = whole

        images = {}  # (id of a stored C(x), s) -> c_s(C(x)), one object each

        def spread(x):  # over x's class, from x
            todo = [x]
            for x in todo:
                for s, c in enumerate(conj):
                    y = c[x]
                    if cent[y] is None:
                        key = (id(cent[x]), s)
                        if key not in images:
                            images[key] = tuple(sorted(map(c.__getitem__, cent[x])))
                        cent[y] = images[key]
                        todo.append(y)

        for r in self._reps(2):
            if cent[r] is not None:
                continue
            x = [r] * n
            for y in bfs[1:]:
                p, t = parents[y]
                x[y] = conj[t][x[p]]
            known = tuple(compress(whole, map(r.__eq__, x)))
            same = [p for p in self._powers(r)
                    if cent[p] is None and len(class_of[p]) == len(class_of[r])]
            for p in same:  # r is its own first power
                cent[p] = known
            for p in same:
                spread(p)
        return cent

    @cached_property
    def _power_orders(self):
        """Per element its order, and the largest order of an element modulo
        Z.  Orders are class functions, and one walk over r's powers settles
        every power of r: if r has order k, r^j has order k / gcd(j, k).  So
        only the representatives that no earlier walk reached are walked, in
        ascending order; modulo Z, no power of r has a larger order than r."""
        n, z, class_of = self.order, set(self.center()), self._class_of
        orders, exponent = [0] * n, 1
        for r in self._reps():
            if not orders[r]:
                powers = self._powers(r)
                k = len(powers)
                exponent = max(exponent, next(j for j, p in enumerate(powers, 1) if p in z))
                for j, p in enumerate(powers, 1):
                    if not orders[p]:
                        for y in class_of[p]:
                            orders[y] = k // gcd(j, k)
        return orders, exponent

    def centralizer(self, x: int) -> tuple:
        return self._centralizers[_index(x, self.order)]

    @cached_property
    def _center(self) -> tuple:
        return tuple(x for x, orbit in enumerate(self._class_of) if len(orbit) == 1)

    def center(self) -> tuple:
        """The x that form a conjugacy class of their own, ascending."""
        return self._center

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
        return self._centralizer_family

    @cached_property
    def _centralizer_family(self) -> tuple:
        """centralizer_family, built once: the AC test and an AC-group's
        blocks both read it."""
        z = set(self.center())
        stored = {id(c): c for c in self._centralizers}.values()  # shared tuples once
        distinct = {c for c in stored if len(c) < self.order}
        return tuple(sorted(tuple(y for y in c if y not in z) for c in distinct))

    # -- subgroup machinery ----------------------------------------------

    def subgroup_closure(self, seed) -> frozenset:
        """The subgroup generated by the given element indices: the closure
        of their greedy picks.  An index outside 0..n-1 raises ValueError."""
        return frozenset(_greedy(self.order, seed, self._word)[1][0])

    def abelian_subgroups(self):
        """All abelian subgroups, by the plain centralizing extension walk.

        Seeded with the trivial subgroup; each abelian subgroup H is extended
        by every z in C(H) \\ H to the closure of H | {z}, which is abelian
        as z commutes with H.  So the cyclic subgroups are the extensions of
        {0}, and every abelian subgroup is reached through a chain of its own
        generators.

        Public API and the tests' brute-force oracle for the bound checks.
        It closes one subgroup per extension, each product pushed through a
        tree word (about 0.7 s on D400, whose words run up to 101 deep), so
        no run-time path calls it: the bound checks read the largest order
        from centralizers and the clique number.
        """
        cent = self._centralizers
        found = {frozenset({0})}
        work = list(found)
        while work:
            h = work.pop()
            for z in set(range(self.order)).intersection(*(cent[x] for x in h)) - h:
                ext = self.subgroup_closure(h | {z})
                if ext not in found:
                    found.add(ext)
                    work.append(ext)
        return found

    def generators(self) -> list:
        """A generating set, picked greedily: each element in index order that
        the earlier picks do not generate."""
        return _greedy(self.order, range(self.order), self._word)[0]

    # -- quotients --------------------------------------------------------

    def quotient(self, normal) -> "FiniteGroup":
        """Quotient by a normal subgroup given as an element index set.  Each
        coset xN is named by its least member, and the quotient's closure
        multiplies only by those of G's greedy generators' cosets."""
        nset = frozenset(normal)
        if self.subgroup_closure(nset) != nset:
            raise ValueError("not a subgroup")
        # N is normal iff every generator's conjugation maps N onto N
        if any({c[x] for x in nset} != nset for c in self._conjugations):
            raise ValueError("subgroup is not normal")
        coset_of = [None] * self.order  # element -> least member of its coset
        for x in range(self.order):
            if coset_of[x] is None:  # no smaller element shares its coset
                for h in nset:
                    coset_of[self.mul(x, h)] = x
        return group_from_operation(
            [coset_of[g] for g in self.generators()],
            lambda x, y: coset_of[self.mul(x, y)], 0,
            lambda r: f"{self.labels[r]}N",
            name=f"{self.name}/N" if self.name else None)

    def quotient_exponent(self) -> int:
        """Maximum element order in G/Z(G): the largest least k >= 1 with x^k in Z."""
        if self.is_abelian():
            raise ValueError("quotient exponent requires a non-abelian group")
        return self._power_orders[1]

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
    """The group generated under `op`: the `_closure` of the generators.

    Only the n*|S| products x*s use `op`; the group keeps them, as right[s],
    with each element's BFS parent.  Each b but the identity is parent(b)*s,
    so every other product is lookups, a*b = right[s][a*parent(b)], which
    `FiniteGroup.mul` unrolls along b's tree word.  So `op` must be a group
    operation on what the generators produce, with `identity` its identity;
    nothing checks that."""
    elements, right, parents = _closure(list(generators), op, identity)
    return FiniteGroup(right, parents, range(len(elements)),
                       map(label, elements), name)


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
    from .fields import Mat2
    gens = list(generators)
    for g in gens:
        if not g.det():
            raise ValueError(f"generator {g} is singular")
    return group_from_operation(gens, operator.mul, Mat2.identity(context), repr, name)


def direct_product(a: FiniteGroup, b: FiniteGroup, name=None) -> FiniteGroup:
    """Componentwise product of pairs (i, j), generated by (0, t) and (s, 0)
    over the generators t of B and s of A, each factor's product its `mul`."""
    gens = [(0, t) for t in b.generators()] + [(s, 0) for s in a.generators()]
    if name is None and a.name and b.name:
        name = f"{a.name} x {b.name}"
    return group_from_operation(
        gens, lambda x, y: (a.mul(x[0], y[0]), b.mul(x[1], y[1])), (0, 0),
        lambda x: f"({a.labels[x[0]]},{b.labels[x[1]]})", name)
