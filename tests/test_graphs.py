import math
from collections import Counter
from itertools import combinations, permutations, product

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cgraph import (
    GenusResult,
    SimpleGraph,
    commuting_graph_of,
    disjoint_clique_lower_bound,
    genus_complete,
    genus_complete_bipartite,
    genus_of_graph,
    genus_lower_bound_euler,
    genus_oracle,
    genus_upper_bound_betti,
    max_clique,
)

from cgraph import graphs
from cgraph.catalog import build
from cgraph.graphs import MAX_ROTATION_SYSTEMS, _block_genus
from conftest import complete_bipartite_graph, complete_graph


def to_nx(g):
    """The same graph in networkx, the oracle these tests compare against."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_nx(h):
    h = nx.convert_node_labels_to_integers(h)
    return SimpleGraph(h.number_of_nodes(), h.edges())


def cycle_graph(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def test_construction_validation():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="vertex count cannot be negative"):
        SimpleGraph(-3)
    g = SimpleGraph(3, [(0, 1), (1, 0)])  # duplicate edges collapse
    assert g.edge_count == 1


def test_edges_sorted():
    g = SimpleGraph(4, [(2, 1), (0, 3), (1, 0)])
    assert g.edges() == [(0, 1), (0, 3), (1, 2)]


def test_induced_subgraph_relabels():
    g = complete_graph(5)
    sub = g.induced_subgraph([4, 1, 2])
    assert sub.n == 3 and sub.edge_count == 3
    with pytest.raises(ValueError):
        g.induced_subgraph([])
    with pytest.raises(ValueError):
        g.induced_subgraph([7])


def test_connected_components():
    assert not SimpleGraph(5, [(0, 1), (2, 3)]).is_connected()
    assert not SimpleGraph(3, [(0, 1)]).is_connected()
    assert complete_graph(3).is_connected()
    assert SimpleGraph(0).is_connected()


def test_blocks_two_triangles_sharing_a_vertex():
    g = SimpleGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    blocks = g.blocks()
    assert blocks == ((0, 1, 2), (2, 3, 4))
    assert [g.induced_subgraph(b).n for b in blocks] == [3, 3]


def test_blocks_bridge_and_isolated_vertex():
    g = SimpleGraph(4, [(0, 1)])
    assert g.blocks() == ((0, 1),)


def test_girth():
    assert complete_graph(3).girth() == 3
    assert cycle_graph(5).girth() == 5
    assert cycle_graph(6).girth() == 6
    assert complete_bipartite_graph(2, 3).girth() == 4
    assert path_graph(4).girth() == math.inf
    assert SimpleGraph(3).girth() == math.inf


def test_recognize_complete():
    assert complete_graph(5).recognize_complete() == 5
    assert complete_graph(1).recognize_complete() == 1
    assert cycle_graph(4).recognize_complete() is None


def test_recognize_complete_bipartite():
    assert complete_bipartite_graph(2, 3).recognize_complete_bipartite() == (2, 3)
    assert complete_bipartite_graph(4, 1).recognize_complete_bipartite() == (1, 4)
    assert complete_graph(3).recognize_complete_bipartite() is None
    assert cycle_graph(6).recognize_complete_bipartite() is None  # bipartite, not complete
    assert SimpleGraph(3).recognize_complete_bipartite() is None
    assert complete_graph(2).recognize_complete_bipartite() == (1, 1)


def test_is_planar(k5):
    assert complete_graph(4).is_planar()
    assert not k5.is_planar()
    assert not complete_bipartite_graph(3, 3).is_planar()
    assert cycle_graph(8).is_planar()
    # K5 with a pendant edge passes E <= 3V - 6, so its K5 block is tested
    assert not SimpleGraph(6, k5.edges() + [(4, 5)]).is_planar()


def stacked_triangulation(n):
    """A maximal planar graph on n >= 4 vertices (E = 3n - 6): K4, then each
    new vertex joined to the three corners of a face, which it splits in three."""
    edges = list(combinations(range(4), 2))
    faces = list(combinations(range(4), 3))
    for v in range(4, n):
        a, b, c = faces.pop(v * 7 % len(faces))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return SimpleGraph(n, edges)


def subdivided(g):
    """g with a new vertex in the middle of every edge."""
    edges = [(u, g.n + i) for i, (u, _) in enumerate(g.edges())]
    edges += [(v, g.n + i) for i, (_, v) in enumerate(g.edges())]
    return SimpleGraph(g.n + g.edge_count, edges)


@pytest.mark.parametrize("n", [5, 8, 13, 30])
def test_maximal_planar_graphs_and_one_edge_more(n):
    g = stacked_triangulation(n)
    assert g.edge_count == 3 * n - 6 and g.is_planar()
    missing = next(e for e in combinations(range(n), 2) if not g.has_edge(*e))
    assert not SimpleGraph(n, g.edges() + [missing]).is_planar()


@st.composite
def thinned_triangulations(draw):
    """stacked_triangulation(n), n <= 40, less up to n of its edges and plus
    up to two others, then with up to four edges subdivided, and with a
    subdivided K5 or K3,3 glued on at one vertex a third of the time each.
    A subdivision vertex whose far end is already on a depth-first path is a
    dead end, so the path embedding has to back out of it."""
    n = draw(st.integers(4, 40))
    g = stacked_triangulation(n)
    edges = g.edges()
    dropped = draw(st.sets(st.sampled_from(edges), max_size=n))
    missing = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
    added = draw(st.sets(st.sampled_from(missing), max_size=2)) if missing else set()
    edges = [e for e in edges if e not in dropped] + sorted(added)
    if edges:
        for u, v in sorted(draw(st.sets(st.sampled_from(edges), max_size=4))):
            edges.remove((u, v))
            edges += [(u, n), (v, n)]
            n += 1
    kuratowski = draw(st.sampled_from([None, complete_graph(5),
                                       complete_bipartite_graph(3, 3)]))
    if kuratowski is not None:
        h, at = subdivided(kuratowski), draw(st.integers(0, n - 1))
        # h's vertex 0 becomes `at`, its others follow the triangulation's
        edges += [tuple(at if x == 0 else n + x - 1 for x in e) for e in h.edges()]
        n += h.n - 1
    return SimpleGraph(n, edges)


@settings(max_examples=300, deadline=None)
@given(thinned_triangulations())
def test_path_embedding_matches_networkx_on_thinned_triangulations(g):
    planar = nx.check_planarity(to_nx(g))[0]
    assert g.is_planar() == planar
    assert (genus_of_graph(g).upper == 0) == planar


def triangular_lattice(rows, cols):
    """The triangulated grid: vertex (i, j), numbered i * cols + j, joined to
    (i, j + 1), (i + 1, j) and (i + 1, j + 1)."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
            if i + 1 < rows and j + 1 < cols:
                edges.append((v, v + cols + 1))
    return SimpleGraph(rows * cols, edges)


def chorded_lattice(rows, cols):
    """triangular_lattice(rows, cols) and a chord from (1, 1) to
    (rows - 2, cols - 2), two interior vertices that share no face."""
    g = triangular_lattice(rows, cols)
    return SimpleGraph(g.n, g.edges() + [(cols + 1, (rows - 2) * cols + cols - 2)])


def test_a_chord_across_a_triangular_lattice_makes_it_non_planar():
    g, h = triangular_lattice(15, 15), chorded_lattice(15, 15)
    # the chord passes the edge cut, so the path embedding has to refuse it
    assert h.edge_count <= 3 * h.n - 6 and h._two_colouring() is None
    assert g.is_planar() and not h.is_planar()
    assert not nx.check_planarity(to_nx(h))[0]
    assert genus_of_graph(g) == GenusResult.exact(0, "PlanarTest")
    assert genus_of_graph(h) == GenusResult.bounds(
        1, genus_upper_bound_betti(h), ["BettiUpper", "NonPlanarLower"])


def bridged(h, k):
    """h and k side by side, h's last vertex joined to k's first by a bridge."""
    joined = nx.disjoint_union(h, k)
    joined.add_edge(len(h) - 1, len(h))
    return joined


@pytest.mark.parametrize("h, planar", [
    (nx.octahedral_graph(), True),
    (nx.icosahedral_graph(), True),
    (nx.petersen_graph(), False),
    (nx.heawood_graph(), False),
    (nx.triangular_lattice_graph(20, 20), True),  # 231 vertices, 630 edges
    # one block each, which is_planar() tests as the graph itself, not a copy
    (to_nx(triangular_lattice(31, 16)), True),  # 496 vertices, 1,395 edges
    (to_nx(chorded_lattice(31, 16)), False),
    (to_nx(triangular_lattice(23, 47)), True),  # 1,081 vertices, 3,104 edges
    (to_nx(chorded_lattice(23, 47)), False),
    # three blocks each: K4, a bridge, and a planar or a non-planar block
    (bridged(nx.complete_graph(4), nx.octahedral_graph()), True),
    (bridged(nx.complete_graph(4), nx.petersen_graph()), False),
], ids=["octahedron", "icosahedron", "petersen", "heawood", "lattice231",
        "lattice496", "lattice496-chord", "lattice1081", "lattice1081-chord",
        "k4-bridge-octahedron", "k4-bridge-petersen"])
def test_is_planar_named_graphs(h, planar):
    assert from_nx(h).is_planar() == planar


def k44_minus_matching(k):
    """K_{4,4} less k edges of a perfect matching: 16 - k edges."""
    return SimpleGraph(8, [(i, 4 + j) for i in range(4) for j in range(4)
                           if i != j or i >= k])


@pytest.mark.parametrize("g, planar, path_embedded", [
    (from_nx(nx.hypercube_graph(3)), True, True),    # E = 2V - 4 = 12: not cut
    (k44_minus_matching(3), False, False),           # E = 13 > 12: cut
    (from_nx(nx.heawood_graph()), False, True),      # E = 21 <= 24: not cut
], ids=["cube", "k44-minus-3", "heawood"])
def test_bipartite_edge_cut(monkeypatch, g, planar, path_embedded):
    # a bipartite graph with V >= 3 and E > 2V - 4 is refused without the
    # path embedding, since each of its faces has at least four sides, both
    # by is_planar() and by the genus dispatcher, which embeds a block itself
    assert g._two_colouring() is not None
    embedded, embed = [], graphs._planar_block

    def spy(adj):
        embedded.append(adj)
        return embed(adj)
    monkeypatch.setattr(graphs, "_planar_block", spy)
    assert g.is_planar() == planar == nx.is_planar(to_nx(g))
    assert bool(embedded) == path_embedded
    embedded.clear()
    shape, result = _block_genus(g)
    assert shape == "other" and (result.certificate == "PlanarTest") == planar
    assert bool(embedded) == path_embedded


def one_block_graphs():
    return [complete_graph(6), k44_minus_matching(3), from_nx(nx.petersen_graph()),
            from_nx(nx.heawood_graph()), from_nx(nx.hypercube_graph(3))]


def test_a_one_block_graph_is_dispatched_without_a_copy(monkeypatch):
    cases = one_block_graphs()
    # the triples of the block's induced copy, as the copy is the graph itself
    expected = [tuple((b, *_block_genus(g.induced_subgraph(b))) for b in g.blocks())
                for g in cases]
    assert all(len(blocks) == 1 and len(blocks[0][0]) == g.n
               for g, blocks in zip(cases, expected))

    def refuse(*args):
        raise AssertionError("a one-block graph is copied")
    monkeypatch.setattr(SimpleGraph, "induced_subgraph", refuse)
    for g, blocks in zip(cases, expected):
        assert g._block_sum() == blocks
        assert genus_of_graph(g) == blocks[0][2]


def test_a_block_is_scanned_once(monkeypatch):
    # genus_of_graph finds the blocks once, each block's one two-colouring
    # serves both the K_{m,n} shape and the edge cut, and a block is connected
    # by construction, so the search's floor comes without a connectivity search
    calls = Counter()

    def counted(name):
        method = getattr(SimpleGraph, name)
        def wrapper(self):
            calls[name, id(self)] += 1
            return method(self)
        return wrapper
    for name in ("blocks", "_two_colouring", "is_connected"):
        monkeypatch.setattr(SimpleGraph, name, counted(name))
    searched = 0
    for g in one_block_graphs():
        calls.clear()
        searched += genus_of_graph(g).certificate == "RotationOracle"
        assert set(calls) <= {("blocks", id(g)), ("_two_colouring", id(g))}
        assert calls["blocks", id(g)] == 1 and calls["_two_colouring", id(g)] <= 1
        assert calls["is_connected", id(g)] == 0
    assert searched == 3  # Petersen, Heawood and K4,4 less three matching edges


def test_is_planar_subdivided_kuratowski_graphs(k5):
    for g in (k5, complete_bipartite_graph(3, 3)):
        assert not subdivided(g).is_planar()
        assert not subdivided(subdivided(g)).is_planar()
    assert subdivided(complete_graph(4)).is_planar()


def test_is_planar_on_the_s5_block():
    # the block of S5's commuting graph that the oracle cannot take
    graph = commuting_graph_of(build("S", 5))
    big = [b for b in graph.blocks() if len(b) == 25]
    assert len(big) == 1
    block = graph.induced_subgraph(big[0])
    assert block.edge_count == 60 and block.edge_count <= 3 * block.n - 6
    assert not block.is_planar()


def test_to_dot():
    g = SimpleGraph(2, [(0, 1)])
    text = g.to_dot(name="pair", labels=["a", "b"])
    assert 'graph "pair" {' in text
    assert '0 [label="a"];' in text
    assert "0 -- 1;" in text
    assert text.endswith("}\n")
    # without labels a vertex is drawn as its index
    assert g.to_dot() == 'graph "graph" {\n  0 [label="0"];\n  1 [label="1"];\n  0 -- 1;\n}\n'
    # quotes and backslashes in the name and the labels are escaped
    text = SimpleGraph(1).to_dot(name='my"s3', labels=['x"\\'])
    assert text == 'graph "my\\"s3" {\n  0 [label="x\\"\\\\"];\n}\n'
    with pytest.raises(ValueError, match="1 labels for 3 vertices"):
        SimpleGraph(3, [(0, 1)]).to_dot(labels=["a"])


# -- formulas and bounds ---------------------------------------------------

def test_genus_complete_values():
    assert [genus_complete(n) for n in range(9)] == [0, 0, 0, 0, 0, 1, 1, 1, 2]
    assert genus_complete(12) == 6
    assert genus_complete(20) == 23
    with pytest.raises(ValueError):
        genus_complete(-1)


def test_genus_complete_bipartite_values():
    assert genus_complete_bipartite(1, 100) == 0
    assert genus_complete_bipartite(2, 2) == 0
    assert genus_complete_bipartite(3, 3) == 1
    assert genus_complete_bipartite(4, 4) == 1
    assert genus_complete_bipartite(5, 5) == 3
    assert genus_complete_bipartite(3, 7) == 2
    with pytest.raises(ValueError):
        genus_complete_bipartite(-1, 3)


def test_euler_and_betti_bounds(k5):
    assert genus_lower_bound_euler(k5) == 1
    assert genus_upper_bound_betti(k5) == 3
    assert genus_lower_bound_euler(complete_graph(7)) == 1
    assert genus_upper_bound_betti(cycle_graph(6)) == 0
    assert genus_lower_bound_euler(path_graph(2)) == 0
    with pytest.raises(ValueError, match="connected"):
        genus_lower_bound_euler(SimpleGraph(3))
    with pytest.raises(ValueError, match="connected"):
        genus_upper_bound_betti(SimpleGraph(3, [(0, 1)]))


def test_genus_result_refuses_a_negative_genus_and_an_empty_interval():
    with pytest.raises(ValueError, match="genus cannot be negative"):
        GenusResult.exact(-1, "CompleteFormula")
    with pytest.raises(ValueError, match=r"invalid bounds \[3, 2\]"):
        GenusResult.bounds(3, 2)
    assert GenusResult.bounds(2, 2).is_exact is False


def test_bounds_sandwich_exact_genus():
    for n in range(3, 8):
        g = complete_graph(n)
        assert genus_lower_bound_euler(g) <= genus_complete(n) \
            <= genus_upper_bound_betti(g)


def test_disjoint_clique_lower_bound():
    # two K_5s joined at nothing inside a disconnected host
    edges = []
    for base in (0, 5):
        edges += [(base + i, base + j) for i in range(5) for j in range(i + 1, 5)]
    g = SimpleGraph(10, edges)
    assert disjoint_clique_lower_bound(g, range(5), range(5, 10)) == 2
    with pytest.raises(ValueError):
        disjoint_clique_lower_bound(g, range(5), range(4, 9))  # overlap
    with pytest.raises(ValueError):
        disjoint_clique_lower_bound(g, [0, 1, 5], [2, 3])  # not a clique


def test_max_clique():
    assert max_clique(complete_graph(6)) == [0, 1, 2, 3, 4, 5]
    assert len(max_clique(cycle_graph(5))) == 2
    assert len(max_clique(complete_bipartite_graph(3, 3))) == 2
    assert max_clique(SimpleGraph(3)) in ([0], [1], [2])
    # two components with different clique numbers
    edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
    assert max_clique(SimpleGraph(5, edges)) == [0, 1, 2]


# -- oracle ----------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(2, 0), (3, 0), (4, 0), (5, 1)])
def test_oracle_complete(n, expected):
    assert genus_oracle(complete_graph(n)) == expected


# K_{1,8}: the hub is the only vertex with a choice, so the search is one
# setting, scored by the formula over the hub's 5,040 orders
@pytest.mark.parametrize("m,n,expected", [(2, 2, 0), (2, 3, 0), (3, 3, 1), (1, 8, 0)])
def test_oracle_complete_bipartite(m, n, expected):
    assert genus_oracle(complete_bipartite_graph(m, n)) == expected


def test_oracle_trees_and_cycles():
    assert genus_oracle(path_graph(5)) == 0
    assert genus_oracle(cycle_graph(7)) == 0
    assert genus_oracle(SimpleGraph(1)) == 0


def test_oracle_petersen_is_toroidal():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = SimpleGraph(10, outer + spokes + inner)
    assert genus_oracle(petersen) == 1


def test_oracle_heawood_graph_runs_to_the_end():
    # bipartite but not K_{m,n}: 2^14 = 16,384 systems, all searched, since the
    # Euler floor is 0 and the genus is 1.  The dispatcher floors the search
    # at 1 after the failed planarity test, so it stops at the first toroidal
    # system
    g = from_nx(nx.heawood_graph())
    assert g.recognize_complete_bipartite() is None
    assert genus_lower_bound_euler(g) == 0
    assert genus_oracle(g) == 1
    result = genus_of_graph(g)
    assert result.is_exact and result.value == 1
    assert result.certificate == "RotationOracle"


def test_oracle_searches_a_block_of_41472_systems_to_the_end():
    # degrees 3,2,4,3,4,5,3,4: the hub, vertex 5, has 24 cyclic orders, the
    # best of them read off one walk map at each of the 1,728 settings of the
    # other vertices.  The Euler floor is 0 and the genus is 1, so nothing
    # stops early; floored at 1, the search stops at the first toroidal system
    g = SimpleGraph(8, [(0, 2), (0, 4), (0, 6), (1, 3), (1, 7), (2, 4), (2, 5),
                        (2, 7), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7), (6, 7)])
    assert g.blocks() == (tuple(range(8)),)
    assert math.prod(math.factorial(len(a) - 1) for a in g.adj) == 41_472
    assert genus_lower_bound_euler(g) == 0
    assert genus_oracle(g) == 1
    assert genus_oracle(g, lower=1) == 1
    assert genus_of_graph(g)[:3] == ("exact", 1, "RotationOracle")


def cycle_count(p):
    """The number of cycles of the permutation i -> p[i]."""
    seen, cycles = set(), 0
    for i in range(len(p)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = p[i]
    return cycles


def most_hub_faces(w):
    """The most cycles of i -> w[succ[i]] over the cyclic orders succ of
    w's positions: the faces through the hub under its best order."""
    return max(cycle_count([w[y] for y in succ])
               for succ in graphs._cyclic_orders(len(w)))


# the oracle scores its hub by k + 1 - cycles(w) without trying its orders
@pytest.mark.parametrize("k", range(1, 7))
def test_best_hub_order_gives_k_plus_1_minus_the_walk_map_cycles(k):
    for w in permutations(range(k)):
        assert most_hub_faces(w) == k + 1 - cycle_count(w)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(7)))
def test_best_hub_order_formula_on_a_hub_of_degree_7(w):
    assert most_hub_faces(w) == 8 - cycle_count(w)


def test_oracle_returns_none_over_system_limit(k133):
    assert genus_oracle(k133) is None
    with pytest.raises(ValueError, match="connected"):
        genus_oracle(SimpleGraph(2))  # disconnected


@st.composite
def oracle_graphs(draw, max_systems=2000):
    """A connected graph on at most 7 vertices with few rotation systems: a
    random spanning tree, half the time grown from a K_{3,3} so that it is
    non-planar, then drawn extra edges while the count allows."""
    n = draw(st.integers(1, 7))
    k33 = n >= 6 and draw(st.booleans())
    edges = {(i, j) for i in range(3) for j in range(3, 6)} if k33 else set()
    edges |= {(draw(st.integers(0, v - 1)), v) for v in range(6 if k33 else 1, n)}
    extra = [e for e in combinations(range(n), 2) if e not in edges]
    for e in draw(st.permutations(extra)) if extra else ():
        degree = Counter(v for edge in edges | {e} for v in edge)
        if math.prod(math.factorial(d - 1) for d in degree.values()) <= max_systems:
            edges.add(e)
    return SimpleGraph(n, sorted(edges))


@settings(max_examples=100, deadline=None)
@given(oracle_graphs())
def test_oracle_against_planarity_bounds_and_block_sum(g):
    genus = genus_oracle(g)
    assert (genus == 0) == nx.is_planar(to_nx(g))
    assert genus_lower_bound_euler(g) <= genus <= genus_upper_bound_betti(g)
    if genus:  # a failed planarity test proves the floor of 1
        assert genus_oracle(g, lower=1) == genus
    result = genus_of_graph(g)
    assert result.is_exact and result.value == genus


def reference_genus_oracle(g: SimpleGraph, lower: int = 0):
    """The rotation oracle as a flat product over dict successor maps and
    tuple darts: the reference that `genus_oracle` must agree with."""
    if not g.is_connected():
        raise ValueError("genus oracle requires a connected graph")
    e = g.edge_count
    v = g.n
    if e == 0:
        return 0
    adj = g.adj
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


@settings(max_examples=100, deadline=None)
@given(oracle_graphs())
def test_oracle_matches_the_flat_product_reference(g):
    assert genus_oracle(g) == reference_genus_oracle(g)
    if not nx.is_planar(to_nx(g)):  # so 1 is a proven floor
        assert genus_oracle(g, lower=1) == reference_genus_oracle(g, lower=1)


@st.composite
def hub_graphs(draw, max_systems=30_000):
    """A connected graph on at most 10 vertices whose vertex 0, the hub, has
    degree 5 to 7: half the time 0 lies on a K_{3,3}, so that the graph is
    non-planar.  0 is joined to new vertices up to its degree, any more hang
    off vertices 1.. as a random tree, then drawn extra edges off the hub are
    added while the rotation-system count allows."""
    degree = draw(st.integers(5, 7))
    k33 = draw(st.booleans())
    edges = {(i, j) for i in range(3) for j in range(3, 6)} if k33 else set()
    start = 6 if k33 else 1
    first = start + degree - (3 if k33 else 0)  # 0 meets 3, 4, 5 on the K_{3,3}
    n = draw(st.integers(first, 10))
    edges |= {(0, v) for v in range(start, first)}
    edges |= {(draw(st.integers(1, v - 1)), v) for v in range(first, n)}
    extra = [e for e in combinations(range(1, n), 2) if e not in edges]
    for e in draw(st.permutations(extra)):
        degrees = Counter(v for edge in edges | {e} for v in edge)
        if math.prod(math.factorial(d - 1) for d in degrees.values()) <= max_systems:
            edges.add(e)
    return SimpleGraph(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(hub_graphs())
def test_oracle_matches_the_reference_on_a_hub_of_degree_5_to_7(g):
    assert len(g.adj[0]) >= 5
    assert genus_oracle(g) == reference_genus_oracle(g)
    if not nx.is_planar(to_nx(g)):
        assert genus_oracle(g, lower=1) == reference_genus_oracle(g, lower=1)


@settings(max_examples=50, deadline=None)
@given(oracle_graphs(), st.data())
def test_oracle_is_invariant_under_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert genus_oracle(relabelled) == genus_oracle(g)


# -- the graph layer against brute force -----------------------------------

@st.composite
def small_graphs(draw):
    """(n, sorted edge list) with n <= 8."""
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


def union_find_components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())


def relabel(vertices, edges):
    pos = {v: i for i, v in enumerate(vertices)}
    return [(pos[u], pos[v]) for u, v in edges]


def is_clique(edge_set, vertices):
    return all(e in edge_set for e in combinations(sorted(vertices), 2))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_components_match_union_find(graph):
    n, edges = graph
    g = SimpleGraph(n, edges)
    assert g.is_connected() == (len(union_find_components(n, edges)) <= 1)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_blocks_and_girth_match_networkx(graph):
    n, edges = graph
    g = SimpleGraph(n, edges)
    h = to_nx(g)
    assert g.blocks() == tuple(sorted(tuple(sorted(b))
                                      for b in nx.biconnected_components(h)))
    assert g.girth() == nx.girth(h)


@st.composite
def planarity_graphs(draw):
    """(n, edge list) with n <= 12 and at most 3n edges drawn, repeats allowed,
    so that sparse non-planar graphs turn up as well as dense ones; or, half
    the time, K_{k,n-k} less at most n edges, on both sides of E = 2n - 4."""
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    if draw(st.booleans()):
        k = draw(st.integers(n // 3, n - n // 3))
        pairs = [(i, j) for i, j in pairs if i < k <= j]
        return n, sorted(set(pairs) - draw(st.sets(st.sampled_from(pairs), max_size=n))
                         if pairs else ())
    return n, draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []


@settings(max_examples=300, deadline=None)
@given(planarity_graphs())
def test_is_planar_matches_networkx(graph):
    g = SimpleGraph(*graph)
    assert g.is_planar() == nx.is_planar(to_nx(g))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_max_clique_matches_exhaustive_search(graph):
    n, edges = graph
    edge_set = set(edges)
    clique = max_clique(SimpleGraph(n, edges))
    assert clique == sorted(clique) and is_clique(edge_set, clique)
    largest = max((k for k in range(n + 1)
                   for vs in combinations(range(n), k) if is_clique(edge_set, vs)),
                  default=0)
    assert len(clique) == largest


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_complete_bipartite_matches_every_two_colouring(graph):
    n, edges = graph
    edge_set = set(edges)
    shapes = set()
    for colour in product((0, 1), repeat=n):
        ones = sum(colour)
        if 0 < ones < n and edge_set == {(u, v) for u, v in combinations(range(n), 2)
                                         if colour[u] != colour[v]}:
            shapes.add(tuple(sorted((ones, n - ones))))
    assert len(shapes) <= 1
    expected = shapes.pop() if shapes else None
    assert SimpleGraph(n, edges).recognize_complete_bipartite() == expected


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_induced_subgraph_edges_match_combinations(graph, data):
    n, edges = graph
    if n == 0:
        return
    vs = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    edge_set = set(edges)
    sub = SimpleGraph(n, edges).induced_subgraph(vs)
    assert sub.n == len(vs)
    assert sub.edges() == [(i, j) for i, j in combinations(range(len(vs)), 2)
                           if (vs[i], vs[j]) in edge_set]


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_blocks_cover_each_edge_once_and_have_no_cut_vertex(graph):
    n, edges = graph
    blocks = SimpleGraph(n, edges).blocks()
    assert blocks == tuple(sorted(blocks))
    for u, v in edges:
        assert sum(u in b and v in b for b in blocks) == 1
    for b in blocks:
        assert len(b) >= 2 and list(b) == sorted(b)
        inside = [(u, v) for u, v in edges if u in b and v in b]
        assert len(union_find_components(len(b), relabel(b, inside))) == 1
        if len(b) >= 3:
            for cut in b:
                rest = [x for x in b if x != cut]
                kept = [(u, v) for u, v in inside if cut not in (u, v)]
                assert len(union_find_components(len(rest), relabel(rest, kept))) == 1
