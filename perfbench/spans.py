"""Spans around cgraph's public functions, installed from outside the package.

`Recorder.install()` replaces each function or method listed in TARGETS with
a wrapper that records a span (name, start, end, parent, op id).  Nothing
under src/ changes: the wrappers are bound into the cgraph modules at run
time, in every module that imported the name.  Spans stay in memory and are
written out once, by `dump`, when the traced process ends.

`Mat2.__mul__` runs about 255k times for one PSL(2,8) build, so it is a leaf:
its calls are summed per parent span as (calls, seconds) instead of one span
each.  `layer_metrics` turns one dump into the per-layer numbers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import graphgen

# (span name, module, attribute path); several targets may share a span name.
TARGETS = (
    ("groups.construct", "cgraph.groups", "group_from_matrices"),
    ("groups.construct", "cgraph.groups", "group_from_permutations"),
    ("groups.construct", "cgraph.groups", "group_from_operation"),
    ("groups.construct", "cgraph.groups", "direct_product"),
    ("groups.construct", "cgraph.groups", "FiniteGroup.quotient"),
    ("groups.validate", "cgraph.groups", "FiniteGroup.__init__"),
    ("groups.is_ac", "cgraph.groups", "FiniteGroup.is_ac_group"),
    ("groups.centralizer_family", "cgraph.groups", "FiniteGroup.centralizer_family"),
    ("groups.quotient_exponent", "cgraph.groups", "FiniteGroup.quotient_exponent"),
    ("groups.abelian_subgroups", "cgraph.groups", "FiniteGroup.abelian_subgroups"),
    ("graphs.girth", "cgraph.graphs", "SimpleGraph.girth"),
    ("graphs.blocks", "cgraph.graphs", "SimpleGraph.blocks"),
    ("graphs.induced_subgraph", "cgraph.graphs", "SimpleGraph.induced_subgraph"),
    ("graphs.recognize", "cgraph.graphs", "SimpleGraph.recognize_complete"),
    ("graphs.recognize", "cgraph.graphs", "SimpleGraph.recognize_complete_bipartite"),
    ("graphs.is_planar", "cgraph.graphs", "SimpleGraph.is_planar"),
    ("graphs.oracle", "cgraph.graphs", "genus_oracle"),
    ("graphs.max_clique", "cgraph.graphs", "max_clique"),
    ("engine.graph_build", "cgraph.engine", "commuting_graph_of"),
    ("engine.report", "cgraph.engine", "commuting_graph"),
    ("engine.genus_of_graph", "cgraph.engine", "genus_of_graph"),
    ("engine.check_bounds", "cgraph.engine", "check_bounds_against_group"),
    ("engine.json", "cgraph.engine", "report_to_json"),
    ("engine.json", "cgraph.engine", "to_json_text"),
    ("catalog.build", "cgraph.catalog", "build"),
)
LEAF_TARGETS = (("fields.mat2_mul", "cgraph.fields", "Mat2.__mul__"),)
VERIFY_SUITES = ("acyclic", "planar", "toroidal", "formulas", "bounds")

# Per-layer metric -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "groups.construct_s": "groups.construct",
    "groups.validate_s": "groups.validate",
    "groups.is_ac_s": "groups.is_ac",
    "groups.centralizer_family_s": "groups.centralizer_family",
    "groups.quotient_exponent_s": "groups.quotient_exponent",
    "groups.abelian_subgroups_s": "groups.abelian_subgroups",
    "graphs.girth_s": "graphs.girth",
    "graphs.blocks_s": "graphs.blocks",
    "graphs.induced_subgraph_s": "graphs.induced_subgraph",
    "graphs.recognize_s": "graphs.recognize",
    "graphs.is_planar_s": "graphs.is_planar",
    "graphs.oracle_s": "graphs.oracle",
    "graphs.max_clique_s": "graphs.max_clique",
    "engine.graph_build_s": "engine.graph_build",
    "engine.report_s": "engine.report",
    "engine.genus_of_graph_s": "engine.genus_of_graph",
    "engine.check_bounds_s": "engine.check_bounds",
    "engine.json_s": "engine.json",
    "catalog.build_s": "catalog.build",
    "cli.self_s": "cli",
    **{f"cli.suite_s.{s}": f"cli.suite.{s}" for s in VERIFY_SUITES},
}


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(original, replacement):
    """Point every cgraph module-level name bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cgraph" or name.startswith("cgraph.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def oracle_input_facts(graph, genus):
    """(systems, floor_tight) for one oracle call, computed from degrees.

    systems is prod((deg - 1)!), the count the oracle enumerates when it does
    not stop early.  floor_tight says whether the genus equals
    max(1, Euler lower bound).
    """
    edges = graph.edges()
    euler = graphgen.euler_lower_bound(graph.n, len(edges))
    return graphgen.rotation_systems(graph.n, edges), genus == max(1, euler)


class Recorder:
    """In-memory spans of one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.leaves = {}         # (parent index, name) -> [calls, seconds]
        self.stack = []
        self.op = None
        self.elements_built = 0
        self.oracle = []         # [systems, floor_tight] per oracle call
        self._caches = {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    def wrap_leaf(self, name, fn):
        leaves, stack = self.leaves, self.stack
        clock = time.perf_counter

        def traced(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                entry = leaves.setdefault((stack[-1] if stack else -1, name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
        return traced

    def install(self):
        """Wrap every target in the imported cgraph modules."""
        importlib.import_module("cgraph.cli")
        catalog = sys.modules["cgraph.catalog"]
        # the lru_cache objects keep their statistics behind the wrappers
        self._caches = {"build": catalog.build, "report": catalog.report_for}
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, self._hooked(name, original))
            setattr(owner, attr, wrapped)
            _rebind(original, wrapped)
        for name, module, path in LEAF_TARGETS:
            owner, attr = _resolve(module, path)
            setattr(owner, attr, self.wrap_leaf(name, getattr(owner, attr)))
        cli = sys.modules["cgraph.cli"]
        for suite in VERIFY_SUITES:
            original = cli.SUITES[suite]
            wrapped = self.wrap(f"cli.suite.{suite}", original)
            cli.SUITES[suite] = wrapped
            _rebind(original, wrapped)

    def _hooked(self, name, fn):
        """Add the counters some spans carry."""
        if name == "groups.validate":
            def counted(group, *args, **kwargs):
                fn(group, *args, **kwargs)
                self.elements_built += group.order
            return counted
        if name == "graphs.oracle":
            def counted(graph, *args, **kwargs):
                genus = fn(graph, *args, **kwargs)
                if genus is not None:
                    self.oracle.append(list(oracle_input_facts(graph, genus)))
                return genus
            return counted
        return fn

    def dump(self, path):
        caches = {key: list(cache.cache_info()[:2])  # hits, misses
                  for key, cache in self._caches.items()}
        payload = {
            "spans": self.spans,
            "leaves": [[parent, name, calls, seconds]
                       for (parent, name), (calls, seconds) in self.leaves.items()],
            "elements_built": self.elements_built,
            "oracle": self.oracle,
            "caches": caches,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans, leaves=()):
    """Self time of every span: its duration minus the time of its children.

    Children of one span run one after another, so their durations add up
    without overlap.  Leaf aggregates count as children of their parent.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    for parent, _name, _calls, seconds in leaves:
        if parent >= 0:
            child[parent] += seconds
    return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def layer_metrics(dump) -> dict:
    """Per-layer values of one traced process: seconds, counts, and ratios as
    (numerator, denominator) pairs so that several processes can be summed."""
    spans, leaves = dump["spans"], dump["leaves"]
    values = {metric: 0.0 for metric in SELF_TIME_METRICS}
    by_span = {span: metric for metric, span in SELF_TIME_METRICS.items()}
    for (name, *_), self_s in zip(spans, self_times(spans, leaves)):
        if name in by_span:
            values[by_span[name]] += self_s
    values["fields.mat2_mul_s"] = sum(s for _p, _n, _c, s in leaves)
    values["fields.mat2_mul_calls"] = sum(c for _p, _n, c, _s in leaves)
    values["groups.elements_built"] = dump["elements_built"]
    names = [span[0] for span in spans]
    values["graphs.planar_calls"] = names.count("graphs.is_planar")
    values["graphs.oracle_calls"] = names.count("graphs.oracle")
    values["graphs.oracle_systems"] = sum(s for s, _t in dump["oracle"])
    values["graphs.oracle_floor_tight_ratio"] = (
        sum(1 for _s, tight in dump["oracle"] if tight), len(dump["oracle"]))
    for key in ("build", "report"):
        hits, misses = dump["caches"].get(key, (0, 0))
        values[f"catalog.{key}_cache_hit_ratio"] = (hits, hits + misses)
    return values
