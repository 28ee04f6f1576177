"""Host speed probe: fixed pure-Python work timed on every CPU at once.

The benchmark shares its host with other tenants, and the host's speed
swings, for seconds to minutes at a time: the same workload runs up to
twice as fast in one minute as in the next, with no steal time to show
for it.  No statistic taken inside one run removes a swing that lasts
longer than the run, so :func:`bench.measure` times this probe whenever
the program is idle (between slices of the timed phase and after each
set-up) and scales the program's times to a host on which the probe
takes :data:`NOMINAL_S`, by the measured :data:`ELASTICITY`.

The probe runs in helper processes started from a short ``-c`` script,
one per CPU the program uses, so that every CPU is sampled and the
helpers stay far smaller than the program's own processes.  They share
no code with the program: a change to the program cannot change the
probe.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from typing import List

#: probe time, in seconds, of the host the scaled times refer to: about
#: the probe's median on the 2-vCPU VM the first numbers were measured on
NOMINAL_S = 0.0035

#: how much of the probe's slow-down the program's times show: over forty
#: runs of each workload, spread over slow and fast host phases, the
#: log-log slope of a run's unscaled time against its median probe time
#: ranged from 0.55 to 1.06 (median about 0.75), at correlations of
#: 0.93-0.98; dividing by the whole probe ratio over-corrects
ELASTICITY = 0.7

#: the helper: for each line "n" on stdin, run the probe n times and print
#: the fastest time; an empty line ends it.  The probe mixes three kinds
#: of work, because neighbours slow them by different amounts: random
#: lookups in a table of a few megabytes (cache contention),
#: attribute updates on small slotted objects, and dict and heap work on
#: a few hundred keys (the core alone)
_HELPER = r"""
import heapq, random, sys, time
rng = random.Random(0)
table = {i: [i, 0, str(i)] for i in range(25000)}
lookups = [rng.randrange(len(table)) for _ in range(4000)]
class Event:
    __slots__ = ("at", "tid", "kind", "mark")
    def __init__(self, at, tid, kind):
        self.at, self.tid, self.kind, self.mark = at, tid, kind, 0
events = [Event(rng.randrange(10**6), i % 64, i % 7) for i in range(20000)]
picks = [rng.randrange(len(events)) for _ in range(3000)]
def work():
    total = 0
    for key in lookups:
        row = table[key]
        row[1] += 1
        total += row[0] + len(row[2])
    busy = {}
    for i in picks:
        event = events[i]
        busy[event.tid] = busy.get(event.tid, 0) + event.at * (event.kind + 1)
        event.mark = busy[event.tid] & 0xFFFF
    counts, heap = {}, []
    for i in range(1500):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (counts[key] & 1023, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total + len(busy) + len(heap)
for line in sys.stdin:
    if not line.strip():
        break
    best = None
    for _ in range(int(line)):
        started = time.perf_counter()
        work()
        took = time.perf_counter() - started
        best = took if best is None else min(best, took)
    print(repr(best), flush=True)
"""


class HostProbe:
    """Helper processes that time the probe loop on request.

    Use as a context manager, or call :meth:`close`: it ends and waits
    for every helper.
    """

    def __init__(self, cpus: int, reps: int = 10):
        self.reps = reps
        self.samples: List[float] = []
        self._helpers: List[subprocess.Popen] = []
        try:
            for _ in range(cpus):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, "-c", _HELPER],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
            self.sample()  # the first loop also pays for warming the helpers up
            self.samples.clear()
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Run the loop on every helper at once; the mean of their best times."""
        for helper in self._helpers:
            helper.stdin.write(f"{self.reps}\n")
            helper.stdin.flush()
        times = []
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"host probe helper exited with {helper.wait()}")
            times.append(float(line))
        took = statistics.fmean(times)
        self.samples.append(took)
        return took

    def scale(self) -> float:
        """Sample now; the factor that scales a time measured now to the nominal host."""
        return (NOMINAL_S / self.sample()) ** ELASTICITY

    def close(self) -> None:
        # worker processes forked meanwhile hold copies of the helpers'
        # stdin, so closing ours sends no end-of-file: ask them to stop
        for helper in self._helpers:
            try:
                helper.stdin.write("\n")
                helper.stdin.close()
            except OSError:  # the helper has already exited
                pass
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            if helper.stdout:
                helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
