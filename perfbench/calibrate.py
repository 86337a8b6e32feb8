"""Host-speed calibration: a fixed reference computation timed during the ops.

The shared host this benchmark runs on changes the speed of each of its CPUs
by up to about 2x, switching within seconds and drifting over minutes, in CPU
time as well as in wall time, so raw op times of two runs of the same code
can differ by more than any useful bound.  While a run measures, a monitor
process on the ops' CPU runs `kernel`, which never touches cgraph, every
PERIOD_S seconds and records its CPU time.  Each op's time is then scaled to
the reference speed: normalised = raw * REF_CPU_S / mean kernel CPU time
while the op ran.  A change to cgraph moves the ops and not the kernel, so it
moves the normalised time by the same share as the raw time.

The monitor shares the ops' CPU on purpose: the speed of the other CPU
follows that of the ops' CPU only loosely.  Its CPU time, unlike its wall
time, leaves out the time it waits for the op.  It takes about 3.5% of that
CPU, which the ops' wall times include.

The kernel closes SL(2, 13) under two generators with small objects that
multiply, hash and compare, the work pattern of cgraph's group closure.

    python3 perfbench/calibrate.py OUT LIFETIME_S
        Runs the monitor: appends "time cpu_s" lines to OUT until it is
        terminated, its parent exits, or LIFETIME_S seconds pass.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

P = 13
# Median kernel CPU time while an op runs, on the host the benchmark was
# tuned on (a shared 2-vCPU Intel Xeon VM at 2.1 GHz): the reference speed.
REF_CPU_S = 0.007
PERIOD_S = 0.2


class _M:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o):
        return _M((self.a * o.a + self.b * o.c) % P, (self.a * o.b + self.b * o.d) % P,
                  (self.c * o.a + self.d * o.c) % P, (self.c * o.b + self.d * o.d) % P)

    def __eq__(self, o):
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))


def kernel():
    """Close SL(2, 13) under two generators; returns the group order, 2184."""
    gens = (_M(1, 1, 0, 1), _M(0, P - 1, 1, 0))
    one = _M(1, 0, 0, 1)
    seen = {one}
    frontier = [one]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return len(seen)


def factor(samples, start, end):
    """The scale factor for a time measured from `start` to `end`.

    `samples` are (time, cpu_s) in time order.  The factor comes from the
    mean kernel CPU time over the samples taken from PERIOD_S before `start`
    to PERIOD_S after `end`, or from the nearest sample if there is none.
    """
    near = [s for s in samples if start - PERIOD_S <= s[0] <= end + PERIOD_S]
    if not near:
        if not samples:
            raise ValueError("no calibration sample was taken")
        near = [min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))]
    return REF_CPU_S / statistics.fmean(s[1] for s in near)


class Monitor:
    """Runs the monitor process for the duration of a `with` block.

    On entry it pins itself, and so the ops it starts, and the monitor to
    one CPU and waits for the first sample.  On exit it stops the process,
    waits for it, restores its own CPU set and leaves the samples in
    `self.samples`.
    """

    def __init__(self, out_path: Path, lifetime_s: float):
        self.out_path = out_path
        self.lifetime_s = lifetime_s
        self.samples = []
        self.proc = None
        self.cpus = os.sched_getaffinity(0)

    def __enter__(self):
        self.out_path.unlink(missing_ok=True)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out_path),
                                      str(self.lifetime_s)])
        deadline = time.perf_counter() + 30.0
        while not self._read():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("the calibration monitor gave no sample")
            time.sleep(0.02)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()
        os.sched_setaffinity(0, self.cpus)
        self.samples = self._read()
        return False

    def _read(self):
        samples = []
        if self.out_path.exists():
            # drop what follows the last newline: a line being written
            for line in self.out_path.read_text().split("\n")[:-1]:
                samples.append(tuple(float(f) for f in line.split()))
        return samples


def monitor(out_path, lifetime_s):
    parent = os.getppid()
    stop = time.perf_counter() + lifetime_s
    with open(out_path, "a") as out:
        while time.perf_counter() < stop and os.getppid() == parent:
            cpu = time.process_time()
            kernel()
            out.write(f"{time.perf_counter()!r} {time.process_time() - cpu!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    monitor(sys.argv[1], float(sys.argv[2]))
