"""cgraph benchmark: one workload per call, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the src/cgraph next to this
directory.  Workloads (see workloads.py and graphgen.py):

    genus-matrix    `cgraph genus` on PSL(2,8), GL(2,5), GL(2,4)
    genus-dihedral  `cgraph genus` on D400, Q400, SD256
    verify-all      `cgraph verify all`
    graph-genus     `cgraph.genus_of_graph` on 38 seeded graphs, in one process

One client runs one op at a time (a closed loop).  CLI ops each start a
fresh `python3 -m cgraph.cli`.  A run repeats passes over the ops, each
pass in a seeded order, for about --seconds (see workloads.run_passes),
and always completes its first pass (three for graph-genus).  Every op has
a time limit; a timeout, a nonzero exit or a wrong answer is a failed op.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the minimum number
of whole passes untraced and then again with spans installed, and prints
the per-layer metrics of one pass plus the tracing overhead.  The last line of
stdout is the result; the line before it holds the run's context.

The op times behind norm_* and setup_s are scaled to a reference host speed,
measured by calibrate.py while they run; the raw times are in the context line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import graphgen
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
# A run stops starting ops after this many seconds, so that it always ends
# well inside three minutes even when every op times out.
DEADLINE_S = 140.0
# The calibration monitor stops by itself after this long, should the
# benchmark be killed before it can stop it.
MONITOR_LIFETIME_S = 180.0

END_TO_END_UNITS = {
    "setup_s": "s", "norm_wall_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB",
    "success_ratio": "ratio", "norm_op_s.p50": "s", "norm_op_s.tail": "s",
}
PER_LAYER_UNITS = {
    "fields.mat2_mul_calls": "count", "fields.mat2_mul_s": "s",
    "groups.elements_built": "count",
    **{m: "s" for m in spans.SELF_TIME_METRICS},
    "graphs.planar_calls": "count", "graphs.oracle_calls": "count",
    "graphs.oracle_systems": "computed_count",
    "graphs.oracle_floor_tight_ratio": "ratio",
    "catalog.build_cache_hit_ratio": "ratio",
    "catalog.report_cache_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}
# Tail level for graph-genus: the highest of p90/p95/p99 with ten samples
# beyond it at the guaranteed minimum of 3 passes x 38 ops.  Fixed, so that
# runs with more passes report the same percentile.
TAIL_PERCENTILE = 90


class Run:
    """Op samples, calibration samples and failures of one measured phase."""

    def __init__(self):
        self.ops = []            # (op id, start, end, wall_s, cpu_s), raw
        self.calibration = []    # calibrate.py samples: (time, cpu_s)
        self.layers = []         # layer_metrics dicts, one per traced process
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.errors = []
        self.passes = 0

    def record(self, op_id, start, wall_s, cpu_s, error):
        self.attempted += 1
        self.ops.append((op_id, start, start + wall_s, wall_s, cpu_s))
        if error:
            self.errors.append(error)

    @property
    def samples(self):
        """op id -> [(wall_s, cpu_s)], scaled to the reference host speed."""
        samples = {}
        for op_id, start, end, wall, cpu in self.ops:
            scale = calibrate.factor(self.calibration, start, end)
            samples.setdefault(op_id, []).append((wall * scale, cpu * scale))
        return samples

    def per_op_mean(self, column):
        # Means, not medians: the host this was tuned on switches between a
        # fast and a ~1.6x slower state every few seconds, and what the
        # calibration leaves of such a two-state mix in a median still jumps
        # between the states from run to run.
        return {op: statistics.fmean(s[column] for s in samples)
                for op, samples in self.samples.items()}

    def pass_s(self, column=0):
        """One pass: the sum over ops of each op's mean wall (0) or CPU (1) time."""
        return sum(self.per_op_mean(column).values())

    def raw_pass_s(self, column=0):
        """pass_s from the measured times, without the calibration's scaling."""
        raw = {}
        for op in self.ops:
            raw.setdefault(op[0], []).append(op[3 + column])
        return sum(statistics.fmean(times) for times in raw.values())


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv, timeout_s):
    """Run argv to completion or timeout; wall, CPU and peak RSS of the child."""
    out_path, err_path = SCRATCH / "op.out", SCRATCH / "op.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        ready = []
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(timeout_s, 0.0))
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        finally:
            # also on an exception or SIGTERM: never leave the child running
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "timed_out": not ready,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes()[-400:].decode(errors="replace"),
    }


def measure_setup(workload):
    """(start, wall_s) of fresh interpreters importing what the workload uses."""
    module = workloads.SETUP_IMPORT.get(workload, workloads.DEFAULT_SETUP_IMPORT)
    argv = [sys.executable, "-c", f"import {module}"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = run_process(argv, 60.0)
        if proc["returncode"] != 0:
            raise RuntimeError(f"import {module} failed: {proc['stderr']}")
        if attempt:  # the first import writes bytecode caches; users do not pay that
            times.append((start, proc["wall_s"]))
    return times


def run_cli_workload(workload, seed, budget_s, deadline_s, traced):
    ops = workloads.CLI_WORKLOADS[workload]
    run = Run()
    trace_out = SCRATCH / "trace.json"

    def run_op(index, remaining):
        op = ops[index]
        if remaining <= 0:
            run.record(op.op_id, time.perf_counter(), 0.0, 0.0,
                       f"{op.op_id}: deadline passed")
            return
        if traced:
            argv = [sys.executable, str(BENCH / "launch.py"), "cli",
                    str(trace_out), op.op_id, "--", *op.args]
        else:
            argv = [sys.executable, "-m", "cgraph.cli", *op.args]
        start = time.perf_counter()
        proc = run_process(argv, min(workloads.CLI_OP_TIMEOUT_S, remaining))
        run.peak_rss_mb = max(run.peak_rss_mb, proc["rss_mb"])
        if proc["timed_out"]:
            error = f"{op.op_id}: timeout"
        else:
            try:
                payload = json.loads(proc["stdout"])
            except ValueError:
                payload = None
            error = workloads.check_cli_output(op, proc["returncode"], payload)
            if error and proc["stderr"]:
                error += f" ({proc['stderr'].strip()})"
        if traced and trace_out.exists():
            run.layers.append(spans.layer_metrics(json.loads(trace_out.read_text())))
            trace_out.unlink()
        run.record(op.op_id, start, proc["wall_s"], proc["cpu_s"], error)

    run.passes = workloads.run_passes(
        random.Random(seed), len(ops), budget_s,
        workloads.MIN_PASSES.get(workload, 1), deadline_s, run_op)
    return run


def run_graph_workload(seed, budget_s, deadline_s, traced):
    ops = {op.op_id: op for op in graphgen.generate(seed)}
    spec_path, trace_out = SCRATCH / "graphs.json", SCRATCH / "trace.json"
    spec = {
        "ops": [{"op_id": op.op_id, "n": op.n, "edges": op.edges}
                for op in ops.values()],
        "seed": seed, "budget_s": budget_s, "deadline_s": deadline_s,
        "min_passes": workloads.MIN_PASSES["graph-genus"],
        "op_timeout_s": workloads.GRAPH_OP_TIMEOUT_S,
        "trace_out": str(trace_out) if traced else None,
    }
    spec_path.write_text(json.dumps(spec))
    proc = run_process([sys.executable, str(BENCH / "launch.py"), "graphs",
                        str(spec_path)], deadline_s + 20.0)
    run = Run()
    run.peak_rss_mb = proc["rss_mb"]
    lines = []
    for text in proc["stdout"].splitlines():
        try:
            lines.append(json.loads(text))
        except ValueError:  # a line cut short when the worker was killed
            pass
    for line in lines:
        op = ops[line["op"]]
        error = line.get("error")
        error = f"{op.op_id}: {error}" if error else graphgen.check_result(op, line["result"])
        run.record(op.op_id, line["start"], line.get("wall_s", 0.0),
                   line.get("cpu_s", 0.0), error)
    run.passes = len(lines) // len(ops)
    if proc["timed_out"] or proc["returncode"] != 0:
        run.attempted += 1
        run.errors.append(f"graph worker: exit {proc['returncode']}, "
                          f"timed out {proc['timed_out']}, {proc['stderr'].strip()}")
    if traced and trace_out.exists():
        run.layers.append(spans.layer_metrics(json.loads(trace_out.read_text())))
        trace_out.unlink()
    spec_path.unlink()
    return run


def run_workload(workload, seed, budget_s, deadline_s, traced):
    if workload == "graph-genus":
        return run_graph_workload(seed, budget_s, deadline_s, traced)
    return run_cli_workload(workload, seed, budget_s, deadline_s, traced)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def op_time_stats(run):
    """op_s.p50 and op_s.tail with what they were computed from.

    With more than ten ops in a pass, p50 is the median over ops of each
    op's mean time and the tail is p90 over every op sample.  With ten or
    fewer no percentile has ten samples beyond it, so the two do not apply;
    both then report the mean op time of one pass, which moves with wall_s.
    """
    if len(run.samples) > 10:
        walls = [wall for samples in run.samples.values() for wall, _ in samples]
        tail = percentile(walls, TAIL_PERCENTILE)
        return (statistics.median(run.per_op_mean(0).values()), tail,
                {"p50": "median over ops of per-op means", "ops": len(run.samples),
                 "tail": f"p{TAIL_PERCENTILE} of op samples", "samples": len(walls),
                 "beyond_tail": sum(wall > tail for wall in walls)})
    mean = run.pass_s() / len(run.samples)
    return (mean, mean, {"basis": "not applicable: mean op time of one pass",
                         "ops": len(run.samples)})


def end_to_end(run, setup_times):
    p50, tail, stats_info = op_time_stats(run)
    setup_norm = [wall * calibrate.factor(run.calibration, start, start + wall)
                  for start, wall in setup_times]
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "norm_wall_s": run.pass_s(),
        "norm_cpu_s": run.pass_s(1),
        "peak_rss_mb": run.peak_rss_mb,
        "success_ratio": (run.attempted - len(run.errors)) / run.attempted,
        "norm_op_s.p50": p50,
        "norm_op_s.tail": tail,
    }
    return metrics, {"op_s": stats_info,
                     "raw_setup_s": [wall for _, wall in setup_times],
                     "raw_wall_s": run.raw_pass_s(), "raw_cpu_s": run.raw_pass_s(1),
                     "calibration_samples": len(run.calibration),
                     "calibration_median_cpu_s":
                         statistics.median(s[1] for s in run.calibration)}


def per_layer(traced, base):
    """Per-layer values of one pass: the traced totals over whole passes."""
    totals = {}
    for values in traced.layers:
        for name, value in values.items():
            if isinstance(value, tuple):
                num, den = totals.get(name, (0, 0))
                totals[name] = (num + value[0], den + value[1])
            else:
                totals[name] = totals.get(name, 0) + value
    metrics = {}
    for name in PER_LAYER_UNITS:
        value = totals.get(name, 0)
        if isinstance(value, tuple):
            metrics[name] = value[0] / value[1] if value[1] else 0.0
        else:
            metrics[name] = value / max(traced.passes, 1)
    overhead = traced.pass_s() - base.pass_s()
    metrics["trace.overhead_s"] = overhead
    return metrics, {"untraced_norm_wall_s": base.pass_s(),
                     "traced_norm_wall_s": traced.pass_s(),
                     "trace_overhead_s": overhead}


def source_identity():
    """The commit when the checkout is a git work tree, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cgraph" / "__init__.py").is_file():
        print(f"no cgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    commit, src_digest = source_identity()
    load_before = os.getloadavg()
    monitor = calibrate.Monitor(SCRATCH / "calibration.txt", MONITOR_LIFETIME_S)
    if args.trace:
        # a zero budget runs exactly the minimum passes, so counts are per pass
        with monitor:
            base = run_workload(args.workload, args.seed, 0.0, DEADLINE_S / 2, False)
            traced = run_workload(args.workload, args.seed, 0.0, DEADLINE_S / 2, True)
        base.calibration = traced.calibration = monitor.samples
        metrics, info = per_layer(traced, base)
        runs, units = (base, traced), PER_LAYER_UNITS
    else:
        try:
            with monitor:
                setup_times = measure_setup(args.workload)
                run = run_workload(args.workload, args.seed, args.seconds, DEADLINE_S,
                                   False)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        run.calibration = monitor.samples
        if not run.samples:
            print("no op ran: " + "; ".join(run.errors), file=sys.stderr)
            return 1
        metrics, info = end_to_end(run, setup_times)
        runs, units = (run,), END_TO_END_UNITS
    attempted = sum(r.attempted for r in runs)
    errors = [e for r in runs for e in r.errors]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": src_digest,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "passes": [r.passes for r in runs],
        "op_samples": [{op: len(s) for op, s in r.samples.items()} for r in runs],
        "fail_ratio": len(errors) / attempted, "errors": errors[:5], **info,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
