"""Named construction recipes for every group the verification suites use.

Each entry records how to build the group together with its expected
invariants (order, center size, AC flag, genus where a closed form pins it
down).  A presented group is built from generators that satisfy its defining
relations and reach its full order: permutations (`_holonomy` builds the split
metacyclic ones), 2x2 matrices or the element model of Q_{4n}.  Products are
built from their factors, and the central product D8*Z4 as a quotient.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import NamedTuple

from .engine import commuting_graph
from .fields import FIELDS, FieldContext, Mat2
from .groups import MAX_ORDER, FiniteGroup, direct_product, group_from_operation, group_from_permutations, group_from_matrices

CLASSIFICATION_TAGS = ("acyclic-list", "planar-list", "toroidal-list",
                       "counterexample", "counterexample-candidate")


# -- elementary builders ---------------------------------------------------

def _cyclic(n):
    return group_from_permutations([tuple((i + 1) % n for i in range(n))],
                                   name=f"Z{n}")


def _holonomy(n, mult, name):
    """Z_n semidirect a cyclic group acting by x -> mult * x, as permutations."""
    rot = tuple((i + 1) % n for i in range(n))
    act = tuple((mult * i) % n for i in range(n))
    return group_from_permutations([rot, act], name=name)


def _dihedral(order):
    if order % 2 or order < 6:
        raise ValueError(f"dihedral group order must be even and >= 6, got {order}")
    return _holonomy(order // 2, -1, f"D{order}")


def _dicyclic(order):
    if order % 4 or order < 8:
        raise ValueError(f"dicyclic group order must be 4n with n >= 2, got {order}")
    n = order // 4
    m = 2 * n
    # element model: (i, 0) = y^i, (i, 1) = x y^i, with x^2 = y^n, x y x^-1 = y^-1
    def op(a, b):
        (i, e), (j, f) = a, b
        if e == 0:
            return ((i + j) % m, 0) if f == 0 else ((j - i) % m, 1)
        return ((i + j) % m, 1) if f == 0 else ((n - i + j) % m, 0)

    def label(elem):
        i, e = elem
        return ("x" if e else "") + (f"y^{i}" if i else ("" if e else "1"))

    return group_from_operation([(1, 0), (0, 1)], op, (0, 0), label, name=f"Q{order}")


def _semidihedral(order):
    if order < 16 or order & (order - 1):
        raise ValueError(f"semidihedral group order must be 2^k with k >= 4, got {order}")
    # s r s = r^(2^(n-2) - 1)
    return _holonomy(order // 2, order // 4 - 1, f"SD{order}")


def _symmetric(n):
    if n < 1:
        raise ValueError(f"symmetric group degree must be >= 1, got {n}")
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return group_from_permutations([transposition, cycle] if n > 1 else [],
                                   name=f"S{n}")


def _alternating(n):
    if n < 1:
        raise ValueError(f"alternating group degree must be >= 1, got {n}")
    three_cycle = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        long_cycle = tuple(list(range(1, n)) + [0])
    else:
        long_cycle = tuple([0] + list(range(2, n)) + [1])
    return group_from_permutations([three_cycle, long_cycle] if n > 2 else [],
                                   name=f"A{n}")


@lru_cache(maxsize=None)
def field(q) -> FieldContext:
    if q not in FIELDS:
        raise ValueError(f"unsupported field order {q}")
    p, k, _ = FIELDS[q]
    return FieldContext(p, k)


def _primitive(ctx):
    """The smallest field code whose multiplicative order is q - 1."""
    for z in ctx.elements()[1:]:
        acc, order = z, 1
        while acc != ctx.one:
            acc, order = ctx.mul[acc][z], order + 1
        if order == ctx.q - 1:
            return z


def _gl2(q):
    ctx = field(q)
    # row operations: a primitive scaling, a transvection and the swap
    z = _primitive(ctx)
    gens = [Mat2.of(ctx, z, 0, 0, 1), Mat2.of(ctx, 1, 1, 0, 1),
            Mat2.of(ctx, 0, 1, 1, 0)]
    return group_from_matrices(gens, ctx, name=f"GL(2,{q})")


def _sl2(q, name=None):
    ctx = field(q)
    gens = [Mat2.of(ctx, 1, 1, 0, 1), Mat2.of(ctx, 1, 0, 1, 1)]
    if q > 3:
        # transvections over the prime field only reach SL(2,p); add a torus
        # generator to cover the field extension
        t = _primitive(ctx)
        gens.append(Mat2(ctx, t, 0, 0, ctx.inv[t]))
    return group_from_matrices(gens, ctx, name=name or f"SL(2,{q})")


def _sg16_3():
    # a = (1 2 3 4)(5 6 7 8), b = (2 4)(5 6 7 8): these satisfy
    # a^4 = b^4 = 1, ab = (ab)^-1, ab^-1 = (ab^-1)^-1 and generate order 16,
    # hence realize SG(16,3) faithfully.
    return group_from_permutations([(1, 2, 3, 0, 5, 6, 7, 4),
                                    (0, 3, 2, 1, 5, 6, 7, 4)], name="SG(16,3)")


def _z4_rtimes_z4():
    # a = (1 2 3 4), b = (2 4)(5 6 7 8): a^4 = b^4 = 1, b a b^-1 = a^-1
    return group_from_permutations([(1, 2, 3, 0, 4, 5, 6, 7),
                                    (0, 3, 2, 1, 5, 6, 7, 4)], name="Z4:Z4")


def _d8_star_z4():
    # central product: (D8 x Z4) / <(z, c^2)> with z the central involution
    d8 = _dihedral(8)
    z4 = _cyclic(4)
    prod = direct_product(d8, z4)
    z = next(x for x in d8.center() if x != 0)
    c2 = next(x for x in range(4) if z4.element_order(x) == 2)
    pair = prod.labels.index(f"({d8.labels[z]},{z4.labels[c2]})")
    fused = prod.quotient(prod.subgroup_closure([pair]))
    fused.name = "D8*Z4"
    return fused


def _heisenberg27():
    # affine maps of GF(3)^2: a translation and a shear generate the
    # extraspecial group of order 27 and exponent 3
    points = [(i, j) for i in range(3) for j in range(3)]
    index = {p: i for i, p in enumerate(points)}
    translate = tuple(index[(i, (j + 1) % 3)] for (i, j) in points)
    shear = tuple(index[((i + j) % 3, j)] for (i, j) in points)
    return group_from_permutations([translate, shear], name="27_exp3")


_SIMPLE_BUILDERS = {
    "Sz(2)": lambda: _holonomy(5, 2, "Sz(2)"),
    "Z7:Z3": lambda: _holonomy(7, 2, "Z7:Z3"),
    "M16": lambda: _holonomy(8, 5, "M16"),
    "SG16_3": _sg16_3,
    "Z4:Z4": _z4_rtimes_z4,
    "D8*Z4": _d8_star_z4,
    "SL(2,3)": lambda: _sl2(3),
    "27_exp3": _heisenberg27,
    "27_exp9": lambda: _holonomy(9, 4, "27_exp9"),
    "Z2xD8": lambda: direct_product(_cyclic(2), _dihedral(8)),
    "Z2xQ8": lambda: direct_product(_cyclic(2), _dicyclic(8)),
    "Z2xA4": lambda: direct_product(_cyclic(2), _alternating(4)),
    "Z2xD12": lambda: direct_product(_cyclic(2), _dihedral(12)),
    "Z3xS3": lambda: direct_product(_cyclic(3), _symmetric(3)),
    "Z3xD8": lambda: direct_product(_cyclic(3), _dihedral(8)),
    "Z3xQ8": lambda: direct_product(_cyclic(3), _dicyclic(8)),
    "Z3xD10": lambda: direct_product(_cyclic(3), _dihedral(10)),
    "Z5xS3": lambda: direct_product(_cyclic(5), _symmetric(3)),
}

# family -> (builder, order of the group it must build)
_PARAMETRIC_BUILDERS = {
    "D": (_dihedral, lambda n: n),
    "Q": (_dicyclic, lambda n: n),
    "SD": (_semidihedral, lambda n: n),
    "S": (_symmetric, math.factorial),
    "A": (_alternating, lambda n: max(1, math.factorial(n) // 2)),
    "Z": (_cyclic, lambda n: n),
    "GL2": (_gl2, lambda q: (q * q - 1) * (q * q - q)),
    "SL2": (_sl2, lambda q: q * (q * q - 1)),
    # SL(2,2^k) has a trivial center, so it is PSL(2,2^k); an odd q fails the check
    "PSL2": (lambda q: _sl2(q, f"PSL(2,{q})"),
             lambda q: q * (q * q - 1) // math.gcd(2, q - 1)),
}


@lru_cache(maxsize=None)
def build(name: str, param: int | None = None) -> FiniteGroup:
    """Build a catalog group by name, e.g. build("D", 14), build("D14"),
    build("Sz(2)") or build("PSL(2,8)"): every catalog entry name loads, the
    names `export-catalog` lists.  A parametric build must have its family's
    order, and one whose order formula passes MAX_ORDER is refused unbuilt."""
    if param is None:
        if name in _SIMPLE_BUILDERS:
            return _SIMPLE_BUILDERS[name]()
        if name in _PARAMETRIC_BUILDERS:
            raise ValueError(f"catalog family {name!r} needs a parameter")
        prefix = next((p for p in ("SD", "D", "Q")
                       if name.startswith(p) and name[len(p):].isdigit()), None)
        if prefix is None:
            # any other entry, e.g. "PSL(2,8)", loads through its builder
            entry = next((e for e in _ENTRIES if e.name == name), None)
            if entry is None:
                raise ValueError(f"unknown catalog group {name!r}")
            return build(*entry.builder)
        name, param = prefix, int(name[len(prefix):])
    if name not in _PARAMETRIC_BUILDERS:
        raise ValueError(f"unknown parametric family {name!r}")
    builder, order = _PARAMETRIC_BUILDERS[name]
    # refused before the builder allocates degree-`param` generators.  Past
    # MAX_ORDER every family's order is at least its param, so no formula (n!
    # of a huge n) is evaluated there
    if param > MAX_ORDER or (param >= 1 and order(param) > MAX_ORDER):
        raise ValueError(f"{name} {param} would have more than {MAX_ORDER} elements, "
                         "the order limit")
    group = builder(param)
    if group.order != order(param):
        raise ValueError(f"{name} {param} built a group of order {group.order}, "
                         f"but the order formula gives {order(param)}")
    return group


# -- the catalog -----------------------------------------------------------

class CatalogEntry(NamedTuple):
    """One named group with its expected invariants."""

    name: str
    builder: tuple                    # (builder name, param or None)
    expected_order: int
    expected_center: int
    expected_ac: bool
    expected_genus: int | None        # None: no exact value is asserted
    tags: tuple = ("counterexample",)
    family: tuple | None = None       # family_genus arguments, when a formula applies
    alias_of: str | None = None       # isomorphic to another catalog entry

    def build(self) -> FiniteGroup:
        return build(*self.builder)

    def effective_name(self) -> str:
        """Name used for classification membership (aliases collapse)."""
        return self.alias_of or self.name


def _catalog() -> list:
    entries = [
        CatalogEntry("S3", ("S", 3), 6, 1, True, 0,
                     ("acyclic-list", "planar-list"), family=("PQ", 2, 3)),
        CatalogEntry("D10", ("D", 10), 10, 1, True, 0, ("planar-list",),
                     family=("PQ", 2, 5)),
        CatalogEntry("A4", ("A", 4), 12, 1, True, 0, ("planar-list",)),
        CatalogEntry("Sz(2)", ("Sz(2)", None), 20, 1, True, 0, ("planar-list",)),
        CatalogEntry("S4", ("S", 4), 24, 1, False, 0, ("planar-list",)),
        CatalogEntry("A5", ("A", 5), 60, 1, True, 0, ("planar-list",)),
        CatalogEntry("D12", ("D", 12), 12, 2, True, 0, ("planar-list",),
                     family=("Dihedral", 6)),
        CatalogEntry("Q12", ("Q", 12), 12, 2, True, 0, ("planar-list",),
                     family=("Dicyclic", 3)),
        CatalogEntry("SL(2,3)", ("SL(2,3)", None), 24, 2, True, 0, ("planar-list",)),
        CatalogEntry("Z2xD8", ("Z2xD8", None), 16, 4, True, 0, ("planar-list",)),
        CatalogEntry("Z2xQ8", ("Z2xQ8", None), 16, 4, True, 0, ("planar-list",)),
        CatalogEntry("SG16_3", ("SG16_3", None), 16, 4, True, 0, ("planar-list",)),
        CatalogEntry("Z4:Z4", ("Z4:Z4", None), 16, 4, True, 0, ("planar-list",)),
        CatalogEntry("D8*Z4", ("D8*Z4", None), 16, 4, True, 0, ("planar-list",)),
        CatalogEntry("M16", ("M16", None), 16, 4, True, 0, ("planar-list",)),
        CatalogEntry("Z7:Z3", ("Z7:Z3", None), 21, 1, True, 1, ("toroidal-list",),
                     family=("PQ", 3, 7)),
        CatalogEntry("Z2xA4", ("Z2xA4", None), 24, 2, True, 1, ("toroidal-list",)),
        CatalogEntry("Z3xS3", ("Z3xS3", None), 18, 3, True, 1, ("toroidal-list",)),
        CatalogEntry("SD16", ("SD", 16), 16, 2, True, 1, ("toroidal-list",),
                     family=("Semidihedral", 4)),
        # counterexamples exercised by the classification proofs
        CatalogEntry("S5", ("S", 5), 120, 1, False, None),
        CatalogEntry("GL(2,3)", ("GL2", 3), 48, 2, True, 3, family=("GL2", 3)),
        CatalogEntry("PSL(2,4)", ("PSL2", 4), 60, 1, True, 0,
                     family=("PSL2", 2), alias_of="A5"),
        CatalogEntry("PSL(2,8)", ("PSL2", 8), 504, 1, True, 101, family=("PSL2", 3)),
        CatalogEntry("SD32", ("SD", 32), 32, 2, True, 10, family=("Semidihedral", 5)),
        CatalogEntry("27_exp3", ("27_exp3", None), 27, 3, True, 4,
                     family=("PCubed", 3)),
        CatalogEntry("27_exp9", ("27_exp9", None), 27, 3, True, 4,
                     family=("PCubed", 3)),
        CatalogEntry("D30", ("D", 30), 30, 1, True, 10, family=("Dihedral", 15)),
        CatalogEntry("Z3xD10", ("Z3xD10", None), 30, 3, True, 6),
        CatalogEntry("Z5xS3", ("Z5xS3", None), 30, 5, True, 7),
        CatalogEntry("Z2xD12", ("Z2xD12", None), 24, 4, True, 2,
                     tags=("counterexample", "counterexample-candidate")),
        CatalogEntry("Z3xD8", ("Z3xD8", None), 24, 6, True, 3,
                     tags=("counterexample", "counterexample-candidate")),
        CatalogEntry("Z3xQ8", ("Z3xQ8", None), 24, 6, True, 3,
                     tags=("counterexample", "counterexample-candidate")),
    ]
    # parameter sweeps: (order, tags, genus from the family formula)
    for order, tags, genus in [
            (8, ("acyclic-list", "planar-list"), None),
            (14, ("toroidal-list",), 1), (16, ("toroidal-list",), 1),
            (18, ("counterexample",), 2), (20, ("counterexample",), 2),
            (22, ("counterexample",), 4),
            (24, ("counterexample", "counterexample-candidate"), 4)]:
        entries.append(CatalogEntry(f"D{order}", ("D", order), order,
                                    2 - order // 2 % 2, True, genus, tags,
                                    family=("Dihedral", order // 2)))
    for order, tags, genus in [
            (8, ("acyclic-list", "planar-list"), None),
            (16, ("toroidal-list",), 1), (20, ("counterexample",), 2),
            (24, ("counterexample", "counterexample-candidate"), 4),
            (28, ("counterexample",), 6), (40, ("counterexample",), 18)]:
        entries.append(CatalogEntry(f"Q{order}", ("Q", order), order, 2, True, genus,
                                    tags, family=("Dicyclic", order // 4)))
    entries.sort(key=lambda e: e.name)
    return entries


_ENTRIES = _catalog()


def catalog_entries(tag: str = "all") -> list:
    """Entries carrying the given classification tag, or all of them."""
    if tag == "all":
        return list(_ENTRIES)
    if tag not in CLASSIFICATION_TAGS:
        raise ValueError(f"unknown classification tag {tag!r}")
    return [e for e in _ENTRIES if tag in e.tags]


def entry_by_name(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise ValueError(f"no catalog entry named {name!r}")


@lru_cache(maxsize=None)
def report_for(name: str):
    """Cached commuting-graph report for a catalog entry, whose built group
    must have the entry's order, center order, AC flag and (where one is set)
    exact genus."""
    entry = entry_by_name(name)
    report = commuting_graph(entry.build())
    total = report.total
    for field_name, observed, expected in [
            ("order", report.group.order, entry.expected_order),
            ("center order", len(report.group.center()), entry.expected_center),
            ("AC flag", report.is_ac, entry.expected_ac),
            ("genus", total.value if total.is_exact else [total.lower, total.upper],
             entry.expected_genus)]:
        if expected is not None and observed != expected:
            raise ValueError(f"catalog entry {name}: {field_name} is {observed}, "
                             f"expected {expected}")
    return report


def catalog_json() -> str:
    """All entries with expected invariants, for external tooling."""
    payload = []
    for e in _ENTRIES:
        payload.append({
            "name": e.name,
            "builder": {"family": e.builder[0], "param": e.builder[1]},
            "expected": {
                "order": e.expected_order,
                "center_order": e.expected_center,
                "is_ac": e.expected_ac,
                "genus": e.expected_genus,
            },
            "tags": list(e.tags),
            "alias_of": e.alias_of,
        })
    return json.dumps(payload, indent=2) + "\n"
