"""The graph-genus generator: deterministic per seed, with promised properties."""

import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import graphgen  # noqa: E402

SEEDS = (0, 1, 7, 12345)


def _graph(op):
    g = nx.Graph()
    g.add_nodes_from(range(op.n))
    g.add_edges_from(op.edges)
    return g


def _is_planar(op):
    return nx.check_planarity(_graph(op))[0]


def _is_kuratowski_subdivision(n, edges):
    """True for a subdivided K5 or K3,3: branch vertices plus degree-2 paths."""
    g = nx.Graph(list(edges))
    branch = [v for v in g if g.degree(v) != 2]
    if any(g.degree(v) < 2 for v in g):
        return False
    # contract every degree-2 path into one edge between branch vertices
    contracted = nx.Graph()
    contracted.add_nodes_from(branch)
    for v in branch:
        for w in g[v]:
            prev, cur = v, w
            while g.degree(cur) == 2:
                prev, cur = cur, next(x for x in g[cur] if x != prev)
            contracted.add_edge(v, cur)
    k5 = nx.complete_graph(5)
    k33 = nx.complete_bipartite_graph(3, 3)
    return (nx.is_isomorphic(contracted, k5) or nx.is_isomorphic(contracted, k33))


def test_generation_is_deterministic_per_seed():
    for seed in SEEDS:
        assert graphgen.generate(seed) == graphgen.generate(seed)
    assert graphgen.generate(0) != graphgen.generate(1)


@pytest.mark.parametrize("seed", SEEDS)
def test_op_mix_and_fixed_oracle_work(seed):
    ops = graphgen.generate(seed)
    assert len(ops) == sum(count for _, count in graphgen.OP_MIX) == 38
    assert len({op.op_id for op in ops}) == len(ops)
    oracle_systems = sum(graphgen.rotation_systems(op.n, op.edges)
                         for op in ops if op.kind.startswith("oracle"))
    expected = sum(sum(targets[k % len(targets)] for k in range(count))
                   for kind, count in graphgen.OP_MIX
                   for targets in [graphgen.ROTATION_TARGETS.get(kind)] if targets)
    assert oracle_systems == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_every_graph_has_the_promised_properties(seed):
    for op in graphgen.generate(seed):
        g = _graph(op)
        e = len(op.edges)
        assert all(0 <= u < v < op.n for u, v in op.edges)
        assert nx.is_connected(g), op.op_id
        if op.kind.startswith("oracle"):
            assert op.genus == 1 and op.exact
            assert nx.is_biconnected(g), op.op_id
            assert e <= graphgen.ORACLE_EDGE_CAP
            assert graphgen.euler_lower_bound(op.n, e) == 0
            assert 4096 <= graphgen.rotation_systems(op.n, op.edges) <= 8192
            assert set(op.witness) <= set(op.edges)
            assert _is_kuratowski_subdivision(op.n, op.witness), op.op_id
            assert not _is_planar(op)
            assert not graphgen.is_complete_bipartite(op.n, op.edges)
            if op.kind == "oracle-k7":
                assert op.n == 7 and e <= 15
            else:
                assert op.n == 8 and nx.is_bipartite(g)
                left, right = nx.bipartite.sets(g)
                assert len(left) == len(right) == 4
        elif op.kind == "glued":
            assert op.genus == 2 and op.exact
            assert len(list(nx.articulation_points(g))) == 1
            blocks = [g.subgraph(b) for b in nx.biconnected_components(g)]
            assert len(blocks) == 2
            for block in blocks:
                assert block.number_of_edges() <= graphgen.ORACLE_EDGE_CAP
                assert not nx.check_planarity(block)[0]
        elif op.kind == "planar":
            assert op.genus == 0 and op.exact
            assert _is_planar(op)
            assert e < op.n * (op.n - 1) // 2 and not nx.is_bipartite(g)
        elif op.kind == "bipartite":
            assert graphgen.is_complete_bipartite(op.n, op.edges)
            left, right = nx.bipartite.sets(g)
            assert op.genus == graphgen.ringel_genus(len(left), len(right))
        else:
            assert op.kind == "overcap" and not op.exact and op.genus == 1
            assert op.n == 7 and 17 <= e <= 20
            assert set(op.edges) <= set(combinations(range(7), 2))
            assert e > 3 * op.n - 6  # hence non-planar


def test_ringel_formula_matches_known_values():
    assert graphgen.ringel_genus(3, 3) == 1
    assert graphgen.ringel_genus(4, 4) == 1
    assert graphgen.ringel_genus(3, 7) == 2
    assert graphgen.ringel_genus(6, 6) == 4
    assert graphgen.ringel_genus(2, 9) == 0
