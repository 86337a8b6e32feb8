"""Commuting graphs and their genus.

Builds the commuting graph of a finite non-abelian group, sums the genus of
a graph over its blocks, and implements the closed-form family formulas and
the Heawood-style bounds.  Every report reads its counts and girth from
centralizer sizes and an AC-group's blocks from its centralizer family, so
only a non-AC group or a bare graph loads `graphs`: each block's formula /
planarity / oracle dispatch is the graph's own `_block_sum`.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, NamedTuple

from .genus import GenusResult, genus_complete
from .groups import FiniteGroup

if TYPE_CHECKING:
    from .graphs import SimpleGraph

# -- genus of an arbitrary graph ------------------------------------------

def _total(blocks) -> GenusResult:
    """The sum of the blocks' genera; an exact total is a "BlockSum"."""
    results = [result for _, _, result in blocks]
    if all(r.is_exact for r in results):
        return GenusResult.exact(sum(r.value for r in results), "BlockSum")
    provenance = sorted({p for r in results if not r.is_exact for p in r.provenance})
    return GenusResult.bounds(sum(r.lower for r in results),
                              sum(r.upper for r in results), provenance)


def genus_of_graph(g: SimpleGraph) -> GenusResult:
    """Total genus: sum over connected components, each a sum over blocks."""
    blocks = g._block_sum()
    total = _total(blocks)
    # an exact genus of a lone block keeps that block's certificate
    return blocks[0][2] if len(blocks) == 1 and total.is_exact else total


# -- commuting graphs ------------------------------------------------------

class CommutingGraphReport(NamedTuple):
    """Everything the genus engine derives from one group."""

    group: FiniteGroup
    vertex_elements: tuple   # vertex index -> group element index
    edge_count: int
    girth: float
    blocks: tuple            # (vertices, "K{n}" | "K{m},{n}" | "other", GenusResult)
    total: GenusResult
    is_ac: bool
    heawood: HeawoodBounds | None   # the bounds of an exact genus


def _vertices(group: FiniteGroup) -> tuple:
    """G \\ Z(G) in ascending order: the commuting graph's vertices."""
    if group.is_abelian():
        raise ValueError("commuting graph requires a non-abelian group")
    center = set(group.center())
    return tuple(x for x in range(group.order) if x not in center)


def commuting_graph_of(group: FiniteGroup) -> SimpleGraph:
    """The graph on G \\ Z(G) with edges between distinct commuting elements;
    vertex i is the i-th non-central element in ascending order."""
    from .graphs import SimpleGraph
    vertices = _vertices(group)
    pos = {x: i for i, x in enumerate(vertices)}
    edges = [(pos[x], pos[y])
             for x in vertices for y in group.centralizer(x) if y > x and y in pos]
    return SimpleGraph(len(vertices), edges)


def _family_blocks(family, vertices):
    """(vertices, shape, genus) of each block of an AC-group, read from its
    centralizer family X = C(x) \\ Z(G).

    The members partition G \\ Z(G), and each is a clique whose elements
    commute with nothing outside it and Z(G): x in X = C(x) \\ Z and y in C(x)
    put y in X or Z.  So the commuting graph is the disjoint union of the
    K_|X|, whose blocks are the members with |X| >= 2 (the rest are isolated
    vertices)."""
    pos = {x: i for i, x in enumerate(vertices)}
    # pos is increasing, so the sorted family maps to sorted blocks
    return tuple((tuple(map(pos.__getitem__, m)), f"K{len(m)}",
                  GenusResult.exact(genus_complete(len(m)), "CompleteFormula"))
                 for m in family if len(m) >= 2)


def commuting_graph(group: FiniteGroup) -> CommutingGraphReport:
    """The report of a non-abelian group.  Its counts, girth and AC flag are
    read from centralizer sizes; an AC-group's blocks from its centralizer
    family, any other's from its built commuting graph.

    With Z = Z(G), a vertex x is adjacent to C(x) \\ Z but x, so its degree
    is |X| - 1 with X = C(x) \\ Z, and E = (1/2) sum over x not in Z of
    (|C(x)| - |Z| - 1).

    The girth is 3 if some |X| >= 3, else infinite.  Take y, w in X \\ {x}.
    If y and w commute, {x, y, w} is a triangle.  If not, {x, y, xy} is one:
    xy commutes with x and y, is neither of them, as neither is the identity,
    and is not in Z, since w commutes with x and with Z but not with y.  If
    every |X| <= 2, every degree is at most 1, and the graph has no cycle."""
    vertices = _vertices(group)
    z = group.order - len(vertices)
    degrees = [len(group.centralizer(x)) - z - 1 for x in vertices]
    is_ac = group.is_ac_group()
    blocks = (_family_blocks(group.centralizer_family(), vertices) if is_ac
              else commuting_graph_of(group)._block_sum())
    total = _total(blocks)
    heawood = (heawood_bounds(total.value, group.quotient_exponent())
               if total.is_exact else None)
    return CommutingGraphReport(
        group=group,
        vertex_elements=vertices,
        edge_count=sum(degrees) // 2,
        girth=3 if max(degrees) >= 2 else math.inf,
        blocks=blocks,
        total=total,
        is_ac=is_ac,
        heawood=heawood,
    )


# -- closed-form family formulas -------------------------------------------

def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def family_genus(tag: str, *params) -> int:
    """Closed-form genus of the commuting graph of one family instance:
    ("Dihedral", n) of order 2n, ("Dicyclic", n) of order 4n,
    ("Semidihedral", k) of order 2^k, ("PQ", p, q), ("PCubed", p),
    ("PSL2", k) for PSL(2,2^k), ("GL2", q), and ("AbelianTimesAC", |A|, the
    base group's family sizes |X|)."""
    if tag == "Dihedral":
        (n,) = params
        if n < 3:
            raise ValueError("dihedral formula needs n >= 3 (group order 2n)")
        return genus_complete(n - 2) if n % 2 == 0 else genus_complete(n - 1)
    if tag == "Dicyclic":
        (n,) = params
        if n < 2:
            raise ValueError("dicyclic formula needs n >= 2 (group order 4n)")
        return genus_complete(2 * (n - 1))
    if tag == "Semidihedral":
        (k,) = params
        if k < 4:
            raise ValueError("semidihedral formula needs k >= 4 (group order 2^k)")
        return genus_complete(2 ** (k - 1) - 2)
    if tag == "PQ":
        p, q = params
        if not (_is_prime(p) and _is_prime(q)):
            raise ValueError("pq formula needs primes p and q")
        if (q - 1) % p:
            raise ValueError(f"pq formula needs p | q-1, got p={p}, q={q}")
        return genus_complete(q - 1) + q * genus_complete(p - 1)
    if tag == "PCubed":
        (p,) = params
        if not _is_prime(p):
            raise ValueError("p^3 formula needs a prime p")
        return (p + 1) * genus_complete(p * (p - 1))
    if tag == "PSL2":
        (k,) = params
        if k < 2:
            raise ValueError("PSL(2,2^k) formula needs k >= 2")
        m = 2 ** k
        return ((m + 1) * genus_complete(m - 1)
                + (m // 2) * (m + 1) * genus_complete(m - 2)
                + (m // 2) * (m - 1) * genus_complete(m))
    if tag == "GL2":
        (q,) = params
        if q < 3:
            raise ValueError("GL(2,q) formula needs q > 2")
        base = min(d for d in range(2, q + 1) if q % d == 0)
        power = q
        while power % base == 0:
            power //= base
        if power != 1:
            raise ValueError(f"GL(2,q) formula needs a prime power q, got {q}")
        return (q * (q + 1) // 2 * genus_complete((q - 1) * (q - 2))
                + q * (q - 1) // 2 * genus_complete(q * (q - 1))
                + (q + 1) * genus_complete((q - 1) ** 2))
    if tag == "AbelianTimesAC":
        # each family member X of G scales to |A| * |X|
        a, family_sizes = params
        if not a or not family_sizes:
            raise ValueError("product formula needs |A| and the base family sizes")
        return sum(genus_complete(a * x) for x in family_sizes)
    raise ValueError(f"unknown family tag {tag!r}")


# -- Heawood-style bounds --------------------------------------------------

def heawood_clique_bound(g: int) -> int:
    """h(g) = floor((7 + sqrt(1 + 48 g)) / 2), the largest n with
    genus(K_n) <= g (Ringel-Youngs); h(0) = 4, as K5 is not planar."""
    if g < 0:
        raise ValueError("genus cannot be negative")
    return (7 + math.isqrt(1 + 48 * g)) // 2


class HeawoodBounds(NamedTuple):
    """The bounds on clique size, center, abelian subgroups and group order."""

    h: int
    center_bound: int                 # floor(h / (t-1))
    order_bound_base: int             # order bound is base ** exponent
    order_bound_exponent: int

    def admits_order(self, order: int) -> bool:
        """order < base ** exponent, without building the power: any base >= 2
        gives base ** order.bit_length() > order already."""
        return order < self.order_bound_base ** min(self.order_bound_exponent,
                                                    order.bit_length())


def heawood_bounds(g: int, t: int) -> HeawoodBounds:
    """The bounds for genus g and t, the largest element order of G/Z(G): an
    xZ of order t gives the (t - 1)|Z| non-central, pairwise commuting elements
    of the x^i Z, 0 < i < t, so the center bound |Z| <= h // (t - 1) needs that
    t, not the exponent of G/Z(G) (for S3, 4 // 5 = 0 < |Z| = 1)."""
    if t < 2:
        raise ValueError("quotient exponent t must be >= 2")
    h = heawood_clique_bound(g)
    return HeawoodBounds(
        h=h,
        center_bound=h // (t - 1),
        order_bound_base=2 * h,
        order_bound_exponent=h * (4 * h + 1) ** 2,
    )


def check_bounds_against_group(report: CommutingGraphReport) -> list:
    """The clique / center / abelian-subgroup / order checks of the report's
    Heawood bounds, as dicts with keys check, observed, limit and ok.

    Non-central elements are pairwise commuting iff, with Z = Z(G), they
    generate an abelian subgroup B, so a commuting set has at most
    |B| - |B meet Z| elements.  The commuting-set and abelian-subgroup rows
    both read one number, the largest abelian subgroup order a:
    - With k = |B : B meet Z|, BZ is abelian and |B| - |B meet Z| =
      |B meet Z|(k-1) <= |Z|(k-1) = |BZ| - |Z| <= a - |Z|, with equality for
      a largest A, as A contains Z (AZ is abelian and no larger than A).  So
      the largest commuting set has a - |Z| elements.
    - G is non-abelian, so a > |Z|, and equality forces k > 1 and
      B meet Z = Z: every maximiser has order a and limit h + |Z|.
    - Some B has |B| > h + |B meet Z| iff a - |Z| > h.
    So a = w + |Z| with w the clique number of the commuting graph.  An
    AC-group's graph is the disjoint union of the cliques C(x) \\ Z (see
    `_family_blocks`), so there w is the largest |C(x)| - |Z|; any other
    group's w is read from a maximum clique of its built graph.
    """
    bounds = report.heawood
    if bounds is None:
        raise ValueError("bound checks need an exact genus")
    group = report.group
    z = len(group.center())
    if report.is_ac:
        a = max(len(group.centralizer(x)) for x in report.vertex_elements)
    else:
        from .graphs import max_clique
        a = len(max_clique(commuting_graph_of(group))) + z
    return [
        {"check": "max_commuting_set", "observed": a - z, "limit": bounds.h,
         "ok": a - z <= bounds.h},
        {"check": "center_size", "observed": z, "limit": bounds.center_bound,
         "ok": z <= bounds.center_bound},
        {"check": "abelian_subgroups", "observed": a, "limit": bounds.h + z,
         "ok": a - z <= bounds.h},
        {"check": "order_bound", "observed": group.order,
         "limit": f"{bounds.order_bound_base}^{bounds.order_bound_exponent}",
         "ok": bounds.admits_order(group.order)},
    ]


# -- JSON rendering --------------------------------------------------------

def _genus_json(result: GenusResult):
    if result.is_exact:
        return {"kind": "exact", "value": result.value,
                "certificate": result.certificate}
    return {"kind": "bounds", "lower": result.lower, "upper": result.upper,
            "certificate": "+".join(result.provenance)}


def report_to_json(report: CommutingGraphReport, name=None) -> dict:
    group = report.group
    blocks = []
    for vertices, shape, result in report.blocks:
        entry = {"size": len(vertices), "type": shape}
        entry["genus"] = result.value if result.is_exact else \
            {"lower": result.lower, "upper": result.upper}
        blocks.append(entry)
    payload = {
        "group": {
            "name": name or group.name,
            "order": group.order,
            "center_order": len(group.center()),
            "is_ac": report.is_ac,
        },
        "graph": {
            "vertices": len(report.vertex_elements),
            "edges": report.edge_count,
            "girth": None if report.girth == math.inf else int(report.girth),
        },
        "blocks": blocks,
        "genus": _genus_json(report.total),
    }
    bounds = report.heawood
    if bounds is not None:
        payload["bounds"] = {
            "h": bounds.h,
            "center_bound": bounds.center_bound,
            "order_bound": {"base": bounds.order_bound_base,
                            "exponent": bounds.order_bound_exponent},
        }
    return payload


def to_json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
