"""Genus of commuting graphs of finite non-abelian groups.

`import cgraph` loads no submodule: each public name is imported from its
module on first use (PEP 562) and then kept here, so a later lookup is a
plain attribute.  A `cgraph genus` on an AC-group thus never compiles the
graph search in `graphs` or the field arithmetic in `fields`, and only a
group file compiles the text format in `textformat`.
"""

import importlib

# public name -> the submodule that defines it
_HOMES = {
    "CommutingGraphReport": "engine",
    "HeawoodBounds": "engine",
    "check_bounds_against_group": "engine",
    "commuting_graph": "engine",
    "commuting_graph_of": "engine",
    "family_genus": "engine",
    "genus_of_graph": "engine",
    "heawood_bounds": "engine",
    "heawood_clique_bound": "engine",
    "report_to_json": "engine",
    "FieldContext": "fields",
    "Mat2": "fields",
    "GenusResult": "genus",
    "genus_complete": "genus",
    "SimpleGraph": "graphs",
    "disjoint_clique_lower_bound": "graphs",
    "genus_complete_bipartite": "graphs",
    "genus_lower_bound_euler": "graphs",
    "genus_oracle": "graphs",
    "genus_upper_bound_betti": "graphs",
    "max_clique": "graphs",
    "FiniteGroup": "groups",
    "direct_product": "groups",
    "group_from_matrices": "groups",
    "group_from_operation": "groups",
    "group_from_permutations": "groups",
    "group_from_file_text": "textformat",
    "group_from_table": "textformat",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
