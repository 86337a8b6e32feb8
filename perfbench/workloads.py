"""The benchmark's workloads, their expected outputs and the pass schedule.

Expected values are written here from closed forms, never read from cgraph:
group orders from the order formulas, center orders from the group
structure, vertex counts as |G| - |Z(G)| and genera from the published
family formulas.  The CLI outputs are compared field by field, so a JSON
field added later does not count as a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


def gl2_order(q):
    return (q * q - 1) * (q * q - q)


def sl2_order(q):
    return q * (q * q - 1)


@dataclass(frozen=True)
class CliOp:
    """One `cgraph` command run in a fresh process, with expected fields."""

    op_id: str
    args: tuple
    expect: tuple            # ((json key path, value), ...)


def _genus_op(op_id, name, param, order, center, genus):
    return CliOp(op_id, ("genus", "--name", name, "--param", str(param)), (
        (("group", "order"), order),
        (("group", "center_order"), center),
        (("graph", "vertices"), order - center),
        (("genus", "kind"), "exact"),
        (("genus", "value"), genus),
    ))


# PSL(2,2^k) = SL(2,2^k) has trivial center; Z(GL(2,q)) is the q - 1 scalars.
GENUS_MATRIX = (
    _genus_op("PSL2-8", "PSL2", 8, sl2_order(8), 1, 101),
    _genus_op("GL2-5", "GL2", 5, gl2_order(5), 4, 398),
    _genus_op("GL2-4", "GL2", 4, gl2_order(4), 3, 61),
)
# D_2n (n even), Q_4n and SD_2^k all have a center of order 2; their genera
# are gamma(K_{n-2}), gamma(K_{2(n-1)}) and gamma(K_{2^(k-1)-2}).
GENUS_DIHEDRAL = (
    _genus_op("D400", "D", 400, 400, 2, 3153),
    _genus_op("Q400", "Q", 400, 400, 2, 3153),
    _genus_op("SD256", "SD", 256, 256, 2, 1251),
)
# Check counts of each suite over the 45-entry catalog when this benchmark
# was written.
VERIFY_SUITE_CHECKS = {"acyclic": 45, "planar": 45, "toroidal": 46,
                       "formulas": 32, "bounds": 176}
VERIFY_ALL = (CliOp("verify-all", ("verify", "all"), (
    (("ok",), True),
    *(((suite, "passed"), n) for suite, n in VERIFY_SUITE_CHECKS.items()),
    *(((suite, "failed"), 0) for suite in VERIFY_SUITE_CHECKS),
)),)

CLI_WORKLOADS = {
    "genus-matrix": GENUS_MATRIX,
    "genus-dihedral": GENUS_DIHEDRAL,
    "verify-all": VERIFY_ALL,
}
WORKLOADS = (*CLI_WORKLOADS, "graph-genus")

# What a fresh interpreter imports before the workload's first op.
SETUP_IMPORT = {"graph-genus": "cgraph"}
DEFAULT_SETUP_IMPORT = "cgraph.cli"

# Per-op time limits, about ten times the op's time when this benchmark
# was written.  A timeout is a failed op.
CLI_OP_TIMEOUT_S = 60.0
GRAPH_OP_TIMEOUT_S = 10.0
# Passes guaranteed per run.  graph-genus needs three (114 op samples) so
# that its tail percentile, p90, always has at least ten samples beyond it.
MIN_PASSES = {"graph-genus": 3}


def check_cli_output(op: CliOp, returncode, payload) -> str | None:
    """None when the command's exit code and JSON fields match `op.expect`."""
    if returncode != 0:
        return f"{op.op_id}: exit code {returncode}"
    if not isinstance(payload, dict):
        return f"{op.op_id}: output is not a JSON object"
    for path, expected in op.expect:
        value = payload
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if value != expected or type(value) is not type(expected):
            return f"{op.op_id}: {'.'.join(path)} is {value!r}, expected {expected!r}"
    return None


def run_passes(rng, count, budget_s, min_passes, deadline_s, run_op):
    """Run passes over `count` ops, each pass in a fresh seeded order.

    The first `min_passes` passes run in full.  After them an op starts only
    if half its previous duration still fits in `budget_s`, and the run ends
    at the first op that does not fit, so runs measure `budget_s` on average
    and overrun it by at most half an op.
    `run_op(index, remaining)` gets the seconds left before `deadline_s`; an
    op past the deadline must count itself as failed without running.
    Returns the number of complete passes.
    """
    start = time.perf_counter()
    last = {}
    passes = 0
    while True:
        for index in rng.sample(range(count), count):
            elapsed = time.perf_counter() - start
            if passes >= min_passes and (elapsed + last[index] / 2 > budget_s
                                         or elapsed >= deadline_s):
                return passes
            op_start = time.perf_counter()
            run_op(index, deadline_s - elapsed)
            last[index] = time.perf_counter() - op_start
        passes += 1
