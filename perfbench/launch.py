"""Child-process entry points of the benchmark.

    python3 perfbench/launch.py cli TRACE_OUT OP_ID -- ARGS...
        Runs `cgraph ARGS...` through `cgraph.cli.main` with spans installed
        and writes them to TRACE_OUT when the command ends.

    python3 perfbench/launch.py graphs SPEC
        Runs the graph-genus ops described by the JSON file SPEC in this one
        process, pass after pass, and prints one JSON line per op.  With
        "trace_out" set in SPEC the spans are installed first and written
        there at the end.

The parent sets PYTHONPATH so that `cgraph` is the checkout's src/cgraph.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time

import spans
from workloads import run_passes


def _cli(trace_out, op_id, args):
    recorder = spans.Recorder()
    recorder.install()
    recorder.op = op_id
    import cgraph.cli
    command = recorder.wrap("cli", cgraph.cli.main)
    code = 0
    try:
        command(args=list(args), prog_name="cgraph", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        recorder.dump(trace_out)
    return code


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def _graphs(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    recorder = None
    if spec.get("trace_out"):
        recorder = spans.Recorder()
        recorder.install()
    import cgraph
    ops = [(op["op_id"], cgraph.SimpleGraph(op["n"], op["edges"])) for op in spec["ops"]]
    signal.signal(signal.SIGALRM, _on_alarm)

    def run_op(index, remaining):
        op_id, graph = ops[index]
        limit = min(spec["op_timeout_s"], remaining)
        line = {"op": op_id, "start": time.perf_counter()}
        if limit <= 0:
            line["error"] = "deadline passed before the op started"
        else:
            if recorder is not None:
                recorder.op = op_id
            cpu = time.process_time()
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                result = cgraph.genus_of_graph(graph)
            except OpTimeout:
                line["error"] = f"timeout after {limit:.1f} s"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            line["wall_s"] = time.perf_counter() - line["start"]
            line["cpu_s"] = time.process_time() - cpu
            if "error" not in line:
                line["result"] = {"kind": result.kind, "value": result.value,
                                  "lower": result.lower, "upper": result.upper}
        print(json.dumps(line), flush=True)

    try:
        run_passes(random.Random(spec["seed"]), len(ops), spec["budget_s"],
                   spec["min_passes"], spec["deadline_s"], run_op)
    finally:
        if recorder is not None:
            recorder.dump(spec["trace_out"])
    return 0


def main(argv):
    if len(argv) >= 4 and argv[0] == "cli" and argv[3] == "--":
        return _cli(argv[1], argv[2], argv[4:])
    if len(argv) == 2 and argv[0] == "graphs":
        return _graphs(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
