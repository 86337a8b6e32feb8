import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

import cgraph
from cgraph import SimpleGraph
from cgraph.cli import main

# a reduced Latin square of order 5 that is not a group table
LATIN5 = ("order 5\ntable\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n"
          "3 4 1 2 0\n4 2 0 1 3\n")


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(args):
    """Runs `cgraph ARGS...` in this process; `main` returns the exit code of
    usage errors and --help too, so no SystemExit leaves it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args, standalone_mode=False)
    return Result(code, out.getvalue(), err.getvalue())


def run_fresh(code) -> str:
    """The stdout of `code` run by a fresh interpreter that imports this
    cgraph; a failure in it fails the caller."""
    src = str(Path(cgraph.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def table_of(group):
    """The multiplication table, `table_of(group)[x][y]` the index of x*y, as
    rows of tuples: the test oracle for products.  Filled column by column
    along the group's BFS tree: column y = p*s is column p mapped by right[s]."""
    right, parents, bfs = group._tree
    columns = [None] * group.order
    columns[0] = range(group.order)
    for y in bfs[1:]:
        p, s = parents[y]
        columns[y] = list(map(right[s].__getitem__, columns[p]))
    return list(zip(*columns))


def peak_bytes(run):
    """The peak of the memory Python allocates while `run()` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def permutation_generators(draw, max_degree=6, min_degree=1, min_size=0):
    degree = draw(st.integers(min_degree, max_degree))
    perm = st.permutations(range(degree)).map(tuple)
    return draw(st.lists(perm, min_size=min_size, max_size=3))


def complete_graph(n):
    return SimpleGraph(n, list(combinations(range(n), 2)))


def complete_bipartite_graph(m, n):
    return SimpleGraph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def k133():
    """K_{1,3,3}: 5,598,720 rotation systems, genus 1."""
    return SimpleGraph(7, [(0, i) for i in range(1, 7)]
                       + [(i, j) for i in range(1, 4) for j in range(4, 7)])
