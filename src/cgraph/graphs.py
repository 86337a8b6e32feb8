"""Simple undirected graphs and their topological operations.

Covers blocks, girth, complete / complete-bipartite recognition,
planarity, the closed-form genus formula for K_{m,n}, Euler/Betti
genus bounds, an exact genus oracle that searches rotation systems, and the
block dispatch that picks one of them for each block of a graph.
A graph, and so each block, is held as a list of neighbour sets.  Blocks
come from Hopcroft and Tarjan's depth-first search (CACM 1973), and
planarity from the path embedding of Demoucron, Malgrange and Pertuiset
(1964), so no graph library is needed.  `is_planar` tests each block as the
dispatch does, which gives the search a floor read off the block's counts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, combinations, permutations

from .genus import GenusResult, genus_complete

# The most rotation systems, prod over vertices of (deg - 1)!, that the oracle
# accepts.  It turns all but the busiest vertex, the hub, at about 3-4 us a
# setting, and reads the hub's best cyclic order off a formula in O(deg), so
# the count overstates the work by the hub's (deg - 1)! (CPython 3.11.7,
# 2-vCPU Intel Xeon VM): to the end, 5 ms on a 41,472-system block, 31 ms on
# the Heawood graph and 0.14 s on the Moebius-Kantor graph, all of whose
# vertices have degree 3.  Floored at 1, Heawood takes 1.2 ms.  K_{1,3,3}
# (5,598,720 systems but 46,656 settings) is refused and gets bounds, though
# floored it takes 4 ms.
MAX_ROTATION_SYSTEMS = 10 ** 5


class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1; adj[v] is the set of
    v's neighbours."""

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count cannot be negative")
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edge_count = sum(map(len, self.adj)) // 2

    def edges(self):
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def has_edge(self, u, v):
        return 0 <= u < self.n and v in self.adj[u]

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices) -> "SimpleGraph":
        """Subgraph on the given vertices, relabelled 0..|U|-1 in sorted order."""
        vs = sorted(set(vertices))
        if not vs:
            raise ValueError("induced subgraph on empty vertex set")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise ValueError("vertex out of range")
        pos = {v: i for i, v in enumerate(vs)}
        adj = self.adj
        edges = [(pos[u], pos[v]) for u in vs for v in adj[u] if v in pos and u < v]
        return SimpleGraph(len(vs), edges)

    # -- connectivity -----------------------------------------------------

    def is_connected(self):
        if self.n <= 1:
            return True
        seen, stack = {0}, [0]
        while stack:
            for w in self.adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        return len(seen) == self.n

    def blocks(self) -> tuple:
        """Sorted vertex tuples of the biconnected components (bridges included).

        Hopcroft and Tarjan's depth-first search, run with an explicit stack:
        when a child u of p has no back edge above p (low[u] >= depth[p]),
        u's subtree on the vertex stack, with p, is a block.
        """
        depth, low = [-1] * self.n, [0] * self.n
        found = []
        for root in range(self.n):
            if depth[root] >= 0 or not self.adj[root]:
                continue
            depth[root] = 0
            visited = [root]
            path = [(root, iter(self.adj[root]))]
            while path:
                u, neighbours = path[-1]
                for w in neighbours:
                    if depth[w] < 0:
                        depth[w] = low[w] = depth[u] + 1
                        visited.append(w)
                        path.append((w, iter(self.adj[w])))
                        break
                    if depth[w] < low[u]:
                        low[u] = depth[w]
                else:
                    path.pop()
                    if path:
                        p = path[-1][0]
                        if low[u] < low[p]:
                            low[p] = low[u]
                        if low[u] >= depth[p]:
                            block = [p]
                            while block[-1] != u:
                                block.append(visited.pop())
                            found.append(tuple(sorted(block)))
        return tuple(sorted(found))

    # -- cycles -----------------------------------------------------------

    def girth(self):
        """Length of a shortest cycle, or math.inf when acyclic: a breadth-first
        search from each vertex, where a non-tree edge (u, w) closes a cycle of
        at most depth[u] + depth[w] + 1 edges."""
        best = math.inf
        for root in range(self.n):
            depth, parent = {root: 0}, {root: None}
            queue = [root]
            for u in queue:
                if 2 * depth[u] >= best:
                    break
                for w in self.adj[u]:
                    if w not in depth:
                        depth[w], parent[w] = depth[u] + 1, u
                        queue.append(w)
                    elif w != parent[u]:
                        best = min(best, depth[u] + depth[w] + 1)
        return best

    # -- recognition ------------------------------------------------------

    def recognize_complete(self):
        """n if the graph is K_n, else None."""
        if self.edge_count == self.n * (self.n - 1) // 2:
            return self.n
        return None

    def recognize_complete_bipartite(self):
        """(m, n) with m <= n if the graph is K_{m,n} with m, n >= 1, else None."""
        return self._complete_bipartite(self._two_colouring())

    def _complete_bipartite(self, colour):
        """recognize_complete_bipartite, read from the graph's two-colouring."""
        if self.edge_count == 0 or colour is None:
            return None
        # E = m * n makes every pair across the colour classes an edge
        m, n = sorted((sum(colour), self.n - sum(colour)))
        return (m, n) if self.edge_count == m * n else None

    def _two_colouring(self):
        """A colour 0 or 1 per vertex that differs along every edge, one search
        per component, or None if an odd cycle forbids it."""
        colour = [-1] * self.n
        for root in range(self.n):
            if colour[root] < 0:
                colour[root], queue = 0, [root]
                for u in queue:  # `queue` grows while it is walked
                    for w in self.adj[u]:
                        if colour[w] < 0:
                            colour[w] = 1 - colour[u]
                            queue.append(w)
                        elif colour[w] == colour[u]:
                            return None
        return colour

    def is_planar(self) -> bool:
        """Whether every block passes the genus dispatch's planarity test."""
        return all(block._planar(block._two_colouring()) for _, block in self._block_graphs())

    def _planar(self, colour) -> bool:
        """Whether a block is planar, given its two-colouring or None: not if
        E > 3V - 6, or if two-coloured and E > 2V - 4, as each face then has
        four sides or more (Euler), and else as the path embedding decides."""
        n = self.n
        cut = n >= 3 and self.edge_count > (3 * n - 6 if colour is None else 2 * n - 4)
        return not cut and _planar_block(self.adj)

    def _block_graphs(self):
        """(vertices, graph) of each block, the graph itself, not a copy, if whole."""
        for b in self.blocks():
            yield b, self if len(b) == self.n else self.induced_subgraph(b)

    def _block_sum(self) -> tuple:
        """(vertices, shape, genus) of each block."""
        return tuple((b, *_block_genus(block)) for b, block in self._block_graphs())

    # -- serialization ----------------------------------------------------

    def to_dot(self, name="graph", labels=None) -> str:
        """The graph in DOT, vertex v drawn as labels[v], or as v without labels."""
        if labels is None:
            labels = [str(v) for v in range(self.n)]
        elif len(labels) != self.n:
            raise ValueError(f"{len(labels)} labels for {self.n} vertices")

        def quoted(text):  # a DOT string ends at the first unescaped quote
            return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
        lines = [f"graph {quoted(name)} {{"]
        for v, text in enumerate(labels):
            lines.append(f"  {v} [label={quoted(text)}];")
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _planar_block(adj) -> bool:
    """Whether a biconnected graph, given as its neighbour sets adj[0..n-1], is planar.

    Demoucron, Malgrange and Pertuiset's path embedding.  It embeds one edge,
    whose one face runs along both its sides, then repeats: the fragments are
    the edges off the embedding that join two embedded vertices, and the
    components of the unembedded vertices with the edges that attach them;
    a fragment fits a face whose boundary holds all its embedded contacts.
    The graph is non-planar iff some fragment fits no face.  Otherwise a path
    through a fragment between two contacts, taken from a fragment that fits
    the fewest faces, or only one, splits one of them in two.  That fragment
    falls into the pieces it leaves unembedded; every other keeps its
    contacts, and if it fitted the split face, it fits each half that holds
    them all.

    The path is depth first: it ends only at a vertex that has nothing left
    to reach and touches another contact, so it takes in much of a fragment
    and the pieces it leaves are small.  When a face splits, the smaller half
    takes the new index, so only the vertices on that half alone move.  A
    step can still walk most of the graph, so a planar block costs up to
    O(V E).  The big commuting-graph blocks never get here, as they fail
    E <= 3V - 6, but large sparse planar graphs do: triangular lattices of
    231, 496 and 1,081 vertices take about 5, 14 and 37 ms (2-vCPU Intel
    Xeon VM), where networkx takes 10, 24 and 52 ms.
    """
    u, w = 0, min(adj[0])
    faces, faces_at = [[u, w]], {u: {0}, w: {0}}  # embedded vertex -> its faces

    def pieces(path):
        """(contacts, unembedded vertices, faces fitted) of each fragment left
        by embedding `path`, all of whose vertices but its two ends are new;
        an edge has no unembedded vertices."""
        inner = path[1:-1]
        new, found, seen = set(inner), [], set()
        for t, a in enumerate(inner, 1):
            along = path[t - 1], path[t + 1]  # a's edges on the path
            for b in adj[a]:
                if b in faces_at:
                    if b not in along and (a < b or b not in new):
                        found.append(({a, b}, (), faces_at[a] & faces_at[b]))
                elif b not in seen:
                    contacts, inside, stack = set(), {b}, [b]
                    while stack:
                        for y in adj[stack.pop()]:
                            if y in faces_at:
                                contacts.add(y)
                            elif y not in inside:
                                inside.add(y)
                                stack.append(y)
                    seen |= inside
                    fits = set.intersection(*map(faces_at.__getitem__, contacts))
                    found.append((contacts, inside, fits))
        return found

    fragments = pieces([w, u, w, u])  # the first edge, closed both ways round its face
    while fragments:
        # the first that fits fewest, or the first that fits at most one face
        pick, fewest = 0, len(fragments[0][2])
        for i in range(1, len(fragments)):
            if fewest <= 1:
                break
            if len(fragments[i][2]) < fewest:
                pick, fewest = i, len(fragments[i][2])
        contacts, inside, fits = fragments.pop(pick)
        if not fits:
            return False
        if inside:  # depth first from a through the fragment to another contact
            a = min(contacts)
            others, left = contacts - {a}, set(inside)
            x = min(adj[a] & inside)
            left.discard(x)
            path = [a, x]
            while True:
                step = adj[x] & left
                if step:
                    x = step.pop()
                    left.discard(x)
                    path.append(x)
                elif ends := adj[x] & others:
                    break
                else:  # a dead end: back out of it
                    path.pop()
                    x = path[-1]
            path.append(min(ends))
        else:  # an edge is its own path
            path = [*contacts]

        k = min(fits)
        face = faces[k]
        i, j = face.index(path[0]), face.index(path[-1])
        if i > j:
            path.reverse()
            i, j = j, i
        # face[i..j] closed back along the path, and face[j..i] along it; the
        # smaller half takes the new index, so only its own vertices move
        inner = path[1:-1]
        new = len(faces)
        if 2 * (j - i) <= len(face):
            moved = face[i + 1:j]
            faces[k] = face[j:] + face[:i + 1] + inner
            faces.append(face[i:j + 1] + inner[::-1])
        else:
            moved = face[j + 1:] + face[:i]
            faces[k] = face[i:j + 1] + inner[::-1]
            faces.append(face[j:] + face[:i + 1] + inner)
        for v in moved:
            at = faces_at[v]
            at.discard(k)
            at.add(new)
        faces_at[path[0]].add(new)
        faces_at[path[-1]].add(new)
        for v in inner:
            faces_at[v] = {k, new}
        # a fragment on face k lies on the large half unless it touches a
        # moved vertex, and on the small half if all its contacts are there
        on_k = [f for f in fragments if k in f[2]]
        if on_k:
            moved, small = set(moved), set(faces[new])
            for other, _, other_fits in on_k:
                if not other.isdisjoint(moved):
                    other_fits.discard(k)
                if other <= small:
                    other_fits.add(new)
        if inner:
            fragments += pieces(path)
    return True


# -- genus formulas and bounds ---------------------------------------------

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
    return _euler_lower(g.n, g.edge_count)


def genus_upper_bound_betti(g: SimpleGraph) -> int:
    """floor((E - V + 1)/2): the cycle rank halved, always an upper bound."""
    if not g.is_connected():
        raise ValueError("Betti upper bound requires a connected graph")
    return _betti_upper(g.n, g.edge_count)


# the two bounds of a connected graph, read off its vertex and edge counts
def _euler_lower(n, e):
    return 0 if n < 3 else max(0, -((e - 3 * n + 6) // -6))


def _betti_upper(n, e):
    return max(0, (e - n + 1) // 2)


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
    """An exact maximum clique, as a sorted vertex list: a branch and bound
    that drops a branch once its clique and candidates cannot beat the best."""
    best = []

    def extend(clique, candidates):
        nonlocal best
        if len(clique) > len(best):
            best = clique
        for v in sorted(candidates):
            if len(clique) + len(candidates) <= len(best):
                return
            candidates = candidates - {v}
            extend(clique + [v], candidates & g.adj[v])

    extend([], set(range(g.n)))
    return sorted(best)


# -- exact genus oracle ----------------------------------------------------

@lru_cache(maxsize=None)
def _cyclic_orders(k):
    """The cyclic orders of 0..k-1 as successor lists, 0 followed by each
    permutation of 1..k-1."""
    orders = []
    for p in permutations(range(1, k)):
        succ, last = [0] * k, 0
        for x in p:
            succ[last] = last = x
        orders.append(succ)
    return orders


def genus_oracle(g: SimpleGraph, lower: int = 0):
    """Exact genus of a connected graph, refusing any other, by a search over
    rotation systems, or None past MAX_ROTATION_SYSTEMS systems.  Stops early
    at the first system of genus max(lower, Euler lower bound), so `lower`
    must be a genus the caller has proven, e.g. 1 after a failed planarity test."""
    return _rotation_search(g, max(lower, genus_lower_bound_euler(g)))


def _rotation_search(g: SimpleGraph, floor_genus: int):
    """genus_oracle's search of a connected g, which stops at genus `floor_genus`.

    Covers every assignment of a cyclic order of incident edges at each
    vertex, counts faces and applies Euler's formula; the minimum over all
    systems is the orientable genus.

    The vertex of highest degree, the hub, leaves the enumeration (as in G.
    Brinkmann's practical genus algorithm, Ars Math. Contemp. 2022).  For
    each setting of the other vertices, one walk along phi from each of the
    hub's out-darts to the next dart into it gives a permutation w of the
    hub's deg positions, and the faces through the hub under its cyclic
    order succ are the cycles of i -> w[succ[i]].  The best order gives
    deg + 1 - c(w) of them, c(w) the cycle count of w: no more, as w, succ
    and their product form a hypermap on deg darts, whose genus
    (deg + 1 - c(w) - faces) / 2 is at least 0, and exactly that many, as
    some cyclic order makes it 0 for every cycle type of w (I. P. Goulden
    and D. M. Jackson, Europ. J. Combin. 13, 1992).  So the hub costs
    O(deg) per setting, and the floor is checked once per setting.
    """
    v, e = g.n, g.edge_count
    if e == 0:
        return 0
    adj = g.adj
    degrees = list(map(len, adj))
    systems = 1
    for d in degrees:  # every degree is >= 1 in a connected graph with an edge
        systems *= math.factorial(d - 1)
        if systems > MAX_ROTATION_SYSTEMS:
            return None

    # Darts are integers, those into b a run from starts[b] in the order of b's
    # neighbours, so the face permutation phi (a -> b, then b -> a's successor
    # at b) is a flat list, and each cyclic order at b fills b's run.  Sorted
    # stably by tail, the darts list each b's out-darts in the order of its
    # neighbours too.  The hub's run is never read: the walks stop at its
    # in-darts, which start out seen.
    nbrs = list(map(sorted, adj))
    hub = degrees.index(max(degrees))
    starts = list(accumulate(degrees, initial=0))
    outs = sorted(range(2 * e), key=list(chain.from_iterable(nbrs)).__getitem__)
    # a vertex starts at its first cyclic order, the identity, 0 -> 1 -> .. -> 0,
    # so phi is each run of outs turned by one.  runs: (run, out-darts, number
    # of orders, fills) of the non-hub vertices with a choice, where fills[c]
    # is built the first time the vertex turns to order c, as most calls stop
    # within a few settings
    phi, runs = outs[1:] + outs[:1], []
    for b in range(v):
        s, t = starts[b], starts[b + 1]
        phi[t - 1] = outs[s]
        if degrees[b] >= 3 and b != hub:
            runs.append((slice(s, t), outs[s:t], math.factorial(degrees[b] - 1), {}))
    first = starts[hub]
    hub_out = outs[first:starts[hub + 1]]
    hub_in = bytearray(2 * e)
    hub_in[first:first + len(hub_out)] = b"\1" * len(hub_out)

    deg, choice, best = len(hub_out), [0] * len(runs), math.inf
    while True:
        seen, w = bytearray(hub_in), []
        for d in hub_out:
            while not seen[d]:
                seen[d] = 1
                d = phi[d]
            w.append(d - first)
        faces, d = 0, seen.find(0)
        while d >= 0:  # the faces that miss the hub, cycles of phi
            faces += 1
            while not seen[d]:
                seen[d] = 1
                d = phi[d]
            d = seen.find(0, d)
        cycles = deg  # c(w), by sorting w in place: each swap splits off a cycle
        for i in range(deg):
            j = w[i]
            while j != i:
                w[i], w[j] = w[j], j
                j = w[i]
                cycles -= 1
        most = deg + 1 - cycles  # the hub's faces under its best cyclic order
        genus = (2 - v + e - faces - most) // 2
        if genus < best:
            best = genus
            if best == floor_genus:
                return best
        # the next setting of the other vertices, the last turning fastest
        for k in reversed(range(len(runs))):
            run, out, period, fills = runs[k]
            c = choice[k] = (choice[k] + 1) % period
            fill = fills.get(c)
            if fill is None:
                fill = fills[c] = [out[y] for y in _cyclic_orders(len(out))[c]]
            phi[run] = fill
            if c:
                break
        else:
            return best


# -- genus of a block ------------------------------------------------------

def _block_genus(block: SimpleGraph):
    """Shape (`K{n}`, `K{m},{n}` or `other`) and genus of a single block."""
    n = block.recognize_complete()
    if n is not None:
        return f"K{n}", GenusResult.exact(genus_complete(n), "CompleteFormula")
    # one two-colouring gives the K_{m,n} shape and the edge cut
    colour = block._two_colouring()
    mn = block._complete_bipartite(colour)
    if mn is not None:
        return (f"K{mn[0]},{mn[1]}",
                GenusResult.exact(genus_complete_bipartite(*mn), "BipartiteFormula"))
    if block._planar(colour):
        return "other", GenusResult.exact(0, "PlanarTest")
    # a block that failed the planarity test has genus >= 1; it is connected,
    # so its floor and bounds are read off its counts
    n, e = block.n, block.edge_count
    euler = _euler_lower(n, e)
    genus = _rotation_search(block, max(1, euler))
    if genus is not None:
        return "other", GenusResult.exact(genus, "RotationOracle")
    lower, source = (euler, "EulerLower") if euler >= 1 else (1, "NonPlanarLower")
    return "other", GenusResult.bounds(lower, _betti_upper(n, e), [source, "BettiUpper"])
