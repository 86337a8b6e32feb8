"""Seeded input graphs for the graph-genus workload.

Every graph carries a genus that follows from how it was built, not from
cgraph:

* oracle blocks are subgraphs of K7 or K4,4 that contain a K3,3 or a K5
  subdivision.  Both hosts embed in the torus, so the genus is exactly 1.
  They have at most 15 (K7) or 16 (K4,4) edges, so the Euler lower bound
  is 0 and the current rotation oracle searches every system; the
  generator fixes each block's system count prod((deg - 1)!) from
  ROTATION_TARGETS so that every seed costs about the same;
* glued ops are two oracle blocks sharing one cut vertex (genus 2, by
  additivity over blocks);
* planar ops are maximal outerplanar graphs, some with an apex joined to
  every vertex (genus 0);
* bipartite ops are relabelled K_{m,n} (Ringel's formula);
* over-cap ops are subgraphs of K7 with 17 to 20 edges.  They are
  non-planar (E > 3V - 6) and toroidal, so genus 1 must lie inside the
  interval the program reports once the oracle's edge cap turns them away.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

ORACLE_EDGE_CAP = 16
# Rotation-system counts of the oracle blocks, cycled through by op index.
# Fixing the counts (inside the band 4096..8192) fixes the oracle's work per
# pass, so every seed costs about the same.
ROTATION_TARGETS = {"oracle-k7": (5184, 6912, 7776), "oracle-k44": (5184,)}

# (kind, how many) in one pass; 24 single oracle blocks, 38 ops in all.
OP_MIX = (("oracle-k7", 12), ("oracle-k44", 12), ("glued", 3),
          ("planar", 4), ("bipartite", 4), ("overcap", 3))


@dataclass(frozen=True)
class GraphOp:
    """One graph-genus op and the answer it must produce."""

    op_id: str
    kind: str
    n: int
    edges: tuple          # sorted (u, v) pairs with u < v
    genus: int            # the genus the construction guarantees
    exact: bool           # False: the program may answer with an interval
    witness: tuple = ()   # Kuratowski subgraph edges, for non-planar ops


def rotation_systems(n, edges) -> int:
    """prod over vertices of (deg - 1)!: the systems the oracle enumerates."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return math.prod(math.factorial(d - 1) for d in degree if d > 0)


def euler_lower_bound(n, e) -> int:
    """ceil((E - 3V + 6) / 6), floored at 0."""
    return max(0, -((e - 3 * n + 6) // -6)) if n >= 3 else 0


def ringel_genus(m, n) -> int:
    """Genus of K_{m,n}: ceil((m - 2)(n - 2) / 4)."""
    return 0 if min(m, n) <= 2 else -((m - 2) * (n - 2) // -4)


def is_complete_bipartite(n, edges) -> bool:
    adj = _adjacency(n, edges)
    color = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in color:
                color[v] = 1 - color[u]
                stack.append(v)
            elif color[v] == color[u]:
                return False
    if len(color) != n:
        return False
    left = sum(1 for c in color.values() if c == 0)
    return len(edges) == left * (n - left)


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _norm(edges):
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def _relabel(rng, n, edges, witness=()):
    perm = list(range(n))
    rng.shuffle(perm)
    return (_norm((perm[u], perm[v]) for u, v in edges),
            _norm((perm[u], perm[v]) for u, v in witness))


def _k33(left, right):
    return [(a, b) for a in left for b in right]


def _grow_to(rng, n, edges, host, max_edges, target):
    """Add random host edges until the rotation count equals `target`."""
    edges = set(_norm(edges))
    spare = sorted(set(_norm(host)) - edges)
    rng.shuffle(spare)
    while True:
        count = rotation_systems(n, edges)
        if count == target and not is_complete_bipartite(n, edges):
            return _norm(edges)
        if count > target or not spare or len(edges) >= max_edges:
            return None
        edges.add(spare.pop())


def _oracle_k7(rng, target):
    """Subgraph of K7 on 7 vertices, <= 15 edges, with a Kuratowski witness."""
    host = list(combinations(range(7), 2))
    while True:
        if target == 7776 and rng.random() < 0.5:
            # K5 on 0..4 with two of its edges subdivided by vertices 5 and 6
            k5 = list(combinations(range(5), 2))
            cut = rng.sample(k5, 2)
            witness = [e for e in k5 if e not in cut]
            for mid, (a, b) in zip((5, 6), cut):
                witness += [(a, mid), (mid, b)]
            edges = list(witness)
        else:
            # K3,3 on 0..5, vertex 6 joined to two of them
            witness = _k33((0, 1, 2), (3, 4, 5))
            edges = witness + [(6, v) for v in rng.sample(range(6), 2)]
        edges = _grow_to(rng, 7, edges, host, 15, target)
        if edges is not None:
            return 7, edges, witness


def _oracle_k44(rng, target):
    """Subgraph of K4,4 (parts 0..3 and 4..7) containing a K3,3."""
    host = _k33(range(4), range(4, 8))
    while True:
        witness = _k33((0, 1, 2), (4, 5, 6))
        edges = (witness + [(3, b) for b in rng.sample(range(4, 8), 2)]
                 + [(a, 7) for a in rng.sample(range(4), 2)])
        edges = _grow_to(rng, 8, edges, host, ORACLE_EDGE_CAP, target)
        if edges is not None:
            return 8, edges, witness


def _glued(rng):
    """A K7-type and a K4,4-type block sharing one vertex: genus 1 + 1."""
    n1, e1, w1 = _oracle_k7(rng, 6912)
    n2, e2, _ = _oracle_k44(rng, 5184)
    shared = rng.randrange(n1)
    # vertex 0 of the second block becomes `shared`; the rest follow n1
    move = {0: shared, **{v: n1 + v - 1 for v in range(1, n2)}}
    edges = list(e1) + [(move[u], move[v]) for u, v in e2]
    return n1 + n2 - 1, edges, list(w1)


def _planar(rng):
    """A random maximal outerplanar graph, with an apex half of the time."""
    size = rng.randint(7, 12)
    edges = [(i, (i + 1) % size) for i in range(size)]
    polygon = list(range(size))
    while len(polygon) > 3:
        i = rng.randrange(len(polygon))
        edges.append((polygon[i - 1], polygon[(i + 1) % len(polygon)]))
        del polygon[i]
    if rng.random() < 0.5:
        edges += [(v, size) for v in range(size)]
        size += 1
    return size, edges


def _bipartite(rng):
    m = rng.randint(3, 6)
    n = rng.randint(m, 9)
    return m + n, _k33(range(m), range(m, m + n)), ringel_genus(m, n)


def _overcap(rng):
    host = list(combinations(range(7), 2))
    return 7, rng.sample(host, rng.randint(17, 20))


def generate(seed: int) -> list:
    """The graph-genus ops for one seed, in a seeded order."""
    rng = random.Random(seed)
    ops = []
    for kind, count in OP_MIX:
        for k in range(count):
            op_id = f"{kind}-{k:02d}"
            witness = ()
            if kind in ("oracle-k7", "oracle-k44"):
                build = _oracle_k7 if kind == "oracle-k7" else _oracle_k44
                targets = ROTATION_TARGETS[kind]
                n, edges, witness = build(rng, targets[k % len(targets)])
                genus, exact = 1, True
            elif kind == "glued":
                n, edges, witness = _glued(rng)
                genus, exact = 2, True
            elif kind == "planar":
                n, edges = _planar(rng)
                genus, exact = 0, True
            elif kind == "bipartite":
                n, edges, genus = _bipartite(rng)
                exact = True
            else:
                n, edges = _overcap(rng)
                genus, exact = 1, False
            edges, witness = _relabel(rng, n, edges, witness)
            ops.append(GraphOp(op_id, kind, n, edges, genus, exact, witness))
    rng.shuffle(ops)
    return ops


def check_result(op: GraphOp, result) -> str | None:
    """None when the program's answer fits what the construction guarantees.

    `result` is a dict with `kind` ("exact" or "bounds") and `value`, or
    `lower` and `upper`.
    """
    if result.get("kind") == "exact":
        if result.get("value") != op.genus:
            return f"{op.op_id}: genus {result.get('value')}, expected {op.genus}"
        return None
    if result.get("kind") == "bounds" and not op.exact:
        lower, upper = result.get("lower"), result.get("upper")
        if isinstance(lower, int) and isinstance(upper, int) \
                and lower <= op.genus <= upper:
            return None
        return f"{op.op_id}: interval [{lower}, {upper}] misses genus {op.genus}"
    return f"{op.op_id}: unexpected answer {result!r}"
