"""Machine speed, measured with a fixed pure-Python kernel.

On a shared virtual machine the interpreter's speed drifts by a third
within seconds: other tenants come and go, clocks change.  A run
measures that drift with a fixed kernel of the same kind of work as the
package (recursive calls, tuple and dict access, small-int arithmetic),
timed in CPU time every `PROBE_EVERY` seconds between commands.  Each
command's CPU time is divided by the kernel's slowdown near it, relative
to `NOMINAL_S`, so the reported times are those of a machine at the
nominal speed, without the time the hypervisor gave to other guests.
Wall-clock times stay in the run's context line.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter, thread_time

#: The kernel's time at the nominal speed: its typical time on a 2-vCPU
#: cloud VM with CPython 3.11 in its faster phases.
NOMINAL_S = 0.35e-3

#: Seconds between probes, and how far around a command probes count.
PROBE_EVERY = 0.05
WINDOW = 0.1


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return ("var", "x") if i % 2 else ("num", i + 2)
    return ("add" if i % 3 else "mul", _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


_TREE = _tree(5)


def _eval(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    a = _eval(node[1], env)
    b = _eval(node[2], env)
    return (a + b) % 10007 if op == "add" else a * b % 10007


def kernel() -> int:
    return sum(_eval(_TREE, {"x": x}) for x in range(36))


class Probe:
    """Kernel timings of one process: (midpoint, duration) in time order."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.last = float("-inf")

    def measure(self) -> None:
        start, cpu = perf_counter(), thread_time()
        kernel()
        cpu, end = thread_time() - cpu, perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(cpu)
        self.last = end

    def maybe_measure(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY:
            self.measure()

    def slowness(self, start: float, end: float) -> float:
        """The machine's slowdown against nominal over [start, end]: the
        median kernel time within WINDOW of it, else the nearest one."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo == hi:
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return statistics.median(self.durations[lo:hi]) / NOMINAL_S
