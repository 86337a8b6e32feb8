"""Simple undirected graphs and their topological operations.

Covers blocks, girth, complete / complete-bipartite recognition,
planarity, the closed-form genus formulas for K_n and K_{m,n}, Euler/Betti
genus bounds, and an exact genus oracle that searches rotation systems.
A graph is held as one networkx graph, which supplies components, blocks,
bipartite tests, maximum cliques, girth and planarity.  networkx is imported
inside the functions that call it: it takes most of the package's import
time, and a report on an AC-group builds no graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

# The most rotation systems, prod over vertices of (deg - 1)!, that the oracle
# enumerates.  A system costs 8-11 us on 7- to 10-vertex blocks and 12-16 us on
# the 14-vertex Heawood graph (CPython 3.11, 2-vCPU Xeon VM), so a search to
# the end takes up to about 1-1.6 s.  Floored at 1, as the dispatcher does
# after a failed planarity test, it stops at the first toroidal system: within
# 9 ms on non-planar blocks of 41k-83k systems, 16 ms on the Heawood graph.
# The gate counts every system all the same, so K_{1,3,3}, with 5,598,720
# systems, is refused and gets bounds, though its floored search ends in 0.4 s.
MAX_ROTATION_SYSTEMS = 10 ** 5


class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1, held as one networkx graph."""

    def __init__(self, n, edges=(), labels=None):
        import networkx as nx
        self.n = n
        edges = list(edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
        self.nx_graph = nx.Graph()
        self.nx_graph.add_nodes_from(range(n))
        self.nx_graph.add_edges_from(edges)
        self.labels = list(labels) if labels is not None else None

    @property
    def edge_count(self):
        return self.nx_graph.number_of_edges()

    def edges(self):
        adj = self.nx_graph.adj
        return [(u, v) for u in range(self.n) for v in sorted(adj[u]) if u < v]

    def has_edge(self, u, v):
        return self.nx_graph.has_edge(u, v)

    def label(self, u):
        return self.labels[u] if self.labels else str(u)

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices) -> "SimpleGraph":
        """Subgraph on the given vertices, relabelled 0..|U|-1 in sorted order."""
        vs = sorted(set(vertices))
        if not vs:
            raise ValueError("induced subgraph on empty vertex set")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise ValueError("vertex out of range")
        pos = {v: i for i, v in enumerate(vs)}
        adj = self.nx_graph.adj
        edges = [(pos[u], pos[v]) for u in vs for v in adj[u] if v in pos and u < v]
        labels = [self.label(v) for v in vs] if self.labels else None
        return SimpleGraph(len(vs), edges, labels)

    # -- connectivity -----------------------------------------------------

    def is_connected(self):
        import networkx as nx
        return self.n <= 1 or nx.is_connected(self.nx_graph)

    def blocks(self) -> tuple:
        """Sorted vertex tuples of the biconnected components (bridges included)."""
        import networkx as nx
        return tuple(sorted(tuple(sorted(b))
                            for b in nx.biconnected_components(self.nx_graph)))

    # -- cycles -----------------------------------------------------------

    def girth(self):
        """Length of a shortest cycle, or math.inf when acyclic."""
        import networkx as nx
        return nx.girth(self.nx_graph)

    # -- recognition ------------------------------------------------------

    def recognize_complete(self):
        """n if the graph is K_n, else None."""
        if self.edge_count == self.n * (self.n - 1) // 2:
            return self.n
        return None

    def recognize_complete_bipartite(self):
        """(m, n) with m <= n if the graph is K_{m,n} with m, n >= 1, else None."""
        import networkx as nx
        if self.edge_count == 0 or not nx.is_bipartite(self.nx_graph):
            return None
        # E = m * n makes every pair across the colour classes an edge
        ones = sum(nx.bipartite.color(self.nx_graph).values())
        m, n = sorted((ones, self.n - ones))
        return (m, n) if self.edge_count == m * n else None

    def is_planar(self) -> bool:
        import networkx as nx
        return nx.is_planar(self.nx_graph)

    # -- serialization ----------------------------------------------------

    def to_dot(self, name="graph") -> str:
        lines = [f'graph "{name}" {{']
        for v in range(self.n):
            lines.append(f'  {v} [label="{self.label(v)}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GenusResult:
    """Either an exact genus with a certificate, or a lower/upper interval;
    an exact genus is also its own interval."""

    kind: str                       # "exact" | "bounds"
    value: int | None = None
    certificate: str | None = None  # exact: how the value was obtained
    lower: int | None = None
    upper: int | None = None
    provenance: tuple = field(default_factory=tuple)  # bounds: sources

    @classmethod
    def exact(cls, value, certificate):
        if value < 0:
            raise ValueError("genus cannot be negative")
        return cls("exact", value=value, certificate=certificate,
                   lower=value, upper=value)

    @classmethod
    def bounds(cls, lower, upper, provenance=()):
        if not 0 <= lower <= upper:
            raise ValueError(f"invalid bounds [{lower}, {upper}]")
        return cls("bounds", lower=lower, upper=upper, provenance=tuple(provenance))

    @property
    def is_exact(self):
        return self.kind == "exact"


# -- genus formulas and bounds ---------------------------------------------

def genus_complete(n: int) -> int:
    """Genus of K_n: ceil((n-3)(n-4)/12), which is 0 for n <= 4."""
    if n < 0:
        raise ValueError("vertex count cannot be negative")
    if n <= 4:
        return 0
    return -((n - 3) * (n - 4) // -12)


def genus_complete_bipartite(m: int, n: int) -> int:
    """Genus of K_{m,n}: ceil((m-2)(n-2)/4), which is 0 when min(m,n) <= 1."""
    if m < 0 or n < 0:
        raise ValueError("part sizes cannot be negative")
    if min(m, n) <= 1:
        return 0
    return -((m - 2) * (n - 2) // -4)


def genus_lower_bound_euler(g: SimpleGraph) -> int:
    """ceil((E - 3V + 6)/6), valid for connected graphs with V >= 3."""
    if not g.is_connected():
        raise ValueError("Euler lower bound requires a connected graph")
    if g.n < 3:
        return 0
    return max(0, -((g.edge_count - 3 * g.n + 6) // -6))


def genus_upper_bound_betti(g: SimpleGraph) -> int:
    """floor((E - V + 1)/2): the cycle rank halved, always an upper bound."""
    if not g.is_connected():
        raise ValueError("Betti upper bound requires a connected graph")
    return max(0, (g.edge_count - g.n + 1) // 2)


def disjoint_clique_lower_bound(g: SimpleGraph, clique_a, clique_b) -> int:
    """gamma(K_m) + gamma(K_n) for caller-supplied disjoint cliques in g."""
    sa, sb = set(clique_a), set(clique_b)
    if sa & sb:
        raise ValueError("clique vertex sets are not disjoint")
    for s in (sa, sb):
        for u, v in combinations(sorted(s), 2):
            if not g.has_edge(u, v):
                raise ValueError(f"supplied set {sorted(s)} is not a clique")
    return genus_complete(len(sa)) + genus_complete(len(sb))


# -- exact maximum clique --------------------------------------------------

def max_clique(g: SimpleGraph):
    """An exact maximum clique, as a sorted vertex list."""
    import networkx as nx
    return sorted(nx.max_weight_clique(g.nx_graph, weight=None)[0])


# -- exact genus oracle ----------------------------------------------------

def genus_oracle(g: SimpleGraph, lower: int = 0):
    """Exact genus by a search over rotation systems.

    Enumerates every assignment of a cyclic order of incident edges at each
    vertex, traces faces and applies Euler's formula; the minimum over all
    systems is the orientable genus.  Returns None past MAX_ROTATION_SYSTEMS
    systems.  Stops early at the first system of genus max(lower, Euler lower
    bound), so `lower` must be a genus the caller has proven, e.g. 1 after a
    failed planarity test.
    """
    if not g.is_connected():
        raise ValueError("genus oracle requires a connected graph")
    e = g.edge_count
    v = g.n
    if e == 0:
        return 0
    adj = g.nx_graph.adj
    systems = 1
    for a in range(v):  # every degree is >= 1 in a connected graph with an edge
        systems *= math.factorial(len(adj[a]) - 1)
        if systems > MAX_ROTATION_SYSTEMS:
            return None
    darts = [(a, b) for a in range(v) for b in adj[a]]
    floor_genus = max(lower, genus_lower_bound_euler(g))

    # Cyclic orders at a vertex as successor maps: fix the smallest neighbour,
    # permute the rest.
    orders = []
    for a in range(v):
        head, *rest = sorted(adj[a])
        orders.append([dict(zip((head,) + p, p + (head,)))
                       for p in permutations(rest)])

    best = None
    for succ in product(*orders):
        # the dart (a, b) is followed on its face by (b, succ[b][a])
        unseen = set(darts)
        faces = 0
        for dart in darts:
            if dart in unseen:
                faces += 1
                a, b = dart
                while (a, b) in unseen:
                    unseen.remove((a, b))
                    a, b = b, succ[b][a]
        genus = (2 - v + e - faces) // 2
        if best is None or genus < best:
            best = genus
            if best == floor_genus:
                break
    return best
