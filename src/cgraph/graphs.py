"""Simple undirected graphs and their topological operations.

Covers blocks, girth, complete / complete-bipartite recognition,
planarity, the closed-form genus formulas for K_n and K_{m,n}, Euler/Betti
genus bounds, and a brute-force exact genus oracle over rotation systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product

import networkx as nx

DEFAULT_ORACLE_EDGE_CAP = 16


class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1."""

    def __init__(self, n, edges=(), labels=None):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.labels = list(labels) if labels is not None else None

    @property
    def edge_count(self):
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def has_edge(self, u, v):
        return v in self.adj[u]

    def degree(self, u):
        return len(self.adj[u])

    def label(self, u):
        return self.labels[u] if self.labels else str(u)

    def to_networkx(self):
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges())
        return g

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices) -> "SimpleGraph":
        """Subgraph on the given vertices, relabelled 0..|U|-1 in sorted order."""
        vs = sorted(set(vertices))
        if not vs:
            raise ValueError("induced subgraph on empty vertex set")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise ValueError("vertex out of range")
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for u, v in combinations(vs, 2) if self.has_edge(u, v)]
        labels = [self.label(v) for v in vs] if self.labels else None
        return SimpleGraph(len(vs), edges, labels)

    # -- connectivity -----------------------------------------------------

    def connected_components(self):
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def is_connected(self):
        return self.n <= 1 or len(self.connected_components()) == 1

    def blocks(self) -> "BlockDecomposition":
        """Biconnected components plus bridges; isolated vertices kept apart."""
        g = self.to_networkx()
        blocks = sorted((tuple(sorted(b)) for b in nx.biconnected_components(g)))
        cuts = sorted(nx.articulation_points(g))
        isolated = tuple(v for v in range(self.n) if not self.adj[v])
        return BlockDecomposition(self, blocks, tuple(cuts), isolated)

    # -- cycles -----------------------------------------------------------

    def girth(self):
        """Length of a shortest cycle, or math.inf when acyclic."""
        return nx.girth(self.to_networkx())

    # -- recognition ------------------------------------------------------

    def recognize_complete(self):
        """n if the graph is K_n, else None."""
        if self.edge_count == self.n * (self.n - 1) // 2:
            return self.n
        return None

    def recognize_complete_bipartite(self):
        """(m, n) with m <= n if the graph is K_{m,n} with m, n >= 1, else None."""
        if self.n < 2 or self.edge_count == 0:
            return None
        color = {}
        for comp in self.connected_components():
            color[comp[0]] = 0
            stack = [comp[0]]
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if v not in color:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        return None
        left = [v for v in range(self.n) if color[v] == 0]
        right = [v for v in range(self.n) if color[v] == 1]
        if not left or not right:
            return None
        if self.edge_count != len(left) * len(right):
            return None
        m, n = sorted((len(left), len(right)))
        return (m, n)

    def is_planar(self) -> bool:
        ok, _ = nx.check_planarity(self.to_networkx())
        return ok

    # -- serialization ----------------------------------------------------

    def to_dot(self, name="graph") -> str:
        lines = [f'graph "{name}" {{']
        for v in range(self.n):
            lines.append(f'  {v} [label="{self.label(v)}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "SimpleGraph":
        """Parse the ``V E`` header format with one ``u v`` pair per line."""
        rows = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())
                if ln.strip() and not ln.strip().startswith("#")]
        if not rows:
            raise ValueError("line 1: empty graph file")
        lineno, header = rows[0]
        parts = header.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"line {lineno}: expected 'V E' header, got {header!r}")
        n, e = int(parts[0]), int(parts[1])
        if len(rows) - 1 != e:
            raise ValueError(f"line {lineno}: header promises {e} edges, file has {len(rows) - 1}")
        edges = []
        for rowno, line in rows[1:]:
            toks = line.split()
            if len(toks) != 2 or not all(t.isdigit() for t in toks):
                raise ValueError(f"line {rowno}: expected 'u v', got {line!r}")
            edges.append((int(toks[0]), int(toks[1])))
        return cls(n, edges)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (as parent vertex tuples), cut vertices and isolated vertices."""

    graph: SimpleGraph
    blocks: tuple
    cut_vertices: tuple
    isolated_vertices: tuple

    def __init__(self, graph, blocks, cut_vertices, isolated_vertices):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))
        object.__setattr__(self, "cut_vertices", tuple(cut_vertices))
        object.__setattr__(self, "isolated_vertices", tuple(isolated_vertices))

    def block_subgraphs(self):
        return [self.graph.induced_subgraph(b) for b in self.blocks]


@dataclass(frozen=True)
class GenusResult:
    """Either an exact genus with a certificate, or a lower/upper interval."""

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
        return cls("exact", value=value, certificate=certificate)

    @classmethod
    def bounds(cls, lower, upper, provenance=()):
        if not 0 <= lower <= upper:
            raise ValueError(f"invalid bounds [{lower}, {upper}]")
        return cls("bounds", lower=lower, upper=upper, provenance=tuple(provenance))

    @property
    def is_exact(self):
        return self.kind == "exact"

    def low(self):
        return self.value if self.is_exact else self.lower

    def high(self):
        return self.value if self.is_exact else self.upper


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
    """An exact maximum clique, by branch and bound with greedy coloring."""
    best = []
    for comp in g.connected_components():
        if len(comp) <= len(best):
            continue
        sub = g.induced_subgraph(comp)
        local = _max_clique_connected(sub, len(best))
        if len(local) > len(best):
            best = [comp[v] for v in local]
    return sorted(best)


def _greedy_color_order(g, candidates):
    """Vertices ordered by color class; color count bounds the clique size."""
    color_classes = []
    for v in sorted(candidates, key=g.degree, reverse=True):
        for cls in color_classes:
            if not any(g.has_edge(v, u) for u in cls):
                cls.append(v)
                break
        else:
            color_classes.append([v])
    ordered = []
    for color, cls in enumerate(color_classes, start=1):
        for v in cls:
            ordered.append((v, color))
    return ordered


def _max_clique_connected(g, floor_size):
    best = []

    def expand(clique, candidates):
        nonlocal best
        ordered = _greedy_color_order(g, candidates)
        for v, color in reversed(ordered):
            if len(clique) + color <= max(len(best), floor_size):
                return
            clique.append(v)
            nxt = [u for u, _ in ordered if u != v and g.has_edge(u, v)
                   and u in candidates]
            if not nxt:
                if len(clique) > len(best):
                    best = list(clique)
            else:
                expand(clique, set(nxt))
            clique.pop()
            candidates = candidates - {v}

    expand([], set(range(g.n)))
    return best


# -- exact genus oracle ----------------------------------------------------

def _face_count(rotation, darts, succ_index):
    """Number of faces traced by the rotation system."""
    unseen = set(darts)
    faces = 0
    while unseen:
        dart = next(iter(unseen))
        cur = dart
        while True:
            unseen.discard(cur)
            u, v = cur
            rot = rotation[v]
            w = rot[(succ_index[v][u] + 1) % len(rot)]
            cur = (v, w)
            if cur == dart:
                break
        faces += 1
    return faces


def genus_oracle(g: SimpleGraph, edge_cap: int = DEFAULT_ORACLE_EDGE_CAP):
    """Exact genus by exhaustive search over rotation systems.

    Enumerates every assignment of a cyclic order of incident edges at each
    vertex, traces faces and applies Euler's formula; the minimum over all
    systems is the orientable genus.  Returns None when the edge count
    exceeds `edge_cap`.  Stops early once the Euler lower bound is attained.
    """
    if not g.is_connected():
        raise ValueError("genus oracle requires a connected graph")
    e = g.edge_count
    if e > edge_cap:
        return None
    v = g.n
    if e == 0:
        return 0
    darts = [(a, b) for a in range(v) for b in g.adj[a]]
    floor_genus = genus_lower_bound_euler(g)

    # Cyclic orders at a vertex: fix the first neighbor, permute the rest.
    per_vertex = []
    for a in range(v):
        nbrs = sorted(g.adj[a])
        if len(nbrs) <= 2:
            per_vertex.append([tuple(nbrs)])
        else:
            head, rest = nbrs[0], nbrs[1:]
            per_vertex.append([(head,) + p for p in permutations(rest)])

    best = None
    for assignment in product(*per_vertex):
        succ_index = [
            {b: i for i, b in enumerate(rot)} for rot in assignment]
        faces = _face_count(assignment, darts, succ_index)
        genus = (2 - v + e - faces) // 2
        if best is None or genus < best:
            best = genus
            if best == floor_genus:
                break
    return best
