"""A fixed reference kernel that tells how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within a minute, as other tenants come and go. A
program's throughput read off the wall clock then moves with the host,
not with the program. So a run interleaves the workload with short
samples of a fixed pure-Python kernel — the same kind of work as the
simulator: a heap of small slotted objects, seeded random draws, dict
lookups, float arithmetic and method calls — and reports host-time
metrics scaled to a *reference host*, one on which a sample takes
:data:`NOMINAL_S`:

    reference seconds = measured seconds × NOMINAL_S / mean sample seconds

A sim repetition takes its samples from inside the run, at a hook the
program calls every few simulated seconds (:meth:`Calibration.tick`),
and leaves their time out of its own; set-up takes them between its
probes. The kernel is the benchmark's own code and never changes with
the program, so a program that does more work still reads slower; a
host that runs everything slower does not. The raw figures and the
scale factors are kept in each run's report.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

# Seconds one sample takes on the reference host: about its median on
# the 2-CPU shared Xeon host the bounds were set on.
NOMINAL_S = 0.025
STEPS = 12_500
# Share of a repetition's wall time spent in samples.
SHARE = 0.25


class _Job:
    __slots__ = ("due", "key", "value")

    def __init__(self, due: float, key: int, value: int):
        self.due = due
        self.key = key
        self.value = value

    def __lt__(self, other: "_Job") -> bool:
        return self.due < other.due


def kernel(steps: int = STEPS) -> float:
    """The reference work: a tiny event loop over a heap of jobs."""
    rng = random.Random(0)
    heap: list[_Job] = []
    tallies: dict[int, list] = {}
    total = 0.0
    for i in range(64):
        heapq.heappush(heap, _Job(rng.expovariate(1.0), i % 8, i))
    for _ in range(steps):
        job = heapq.heappop(heap)
        tally = tallies.get(job.key)
        if tally is None:
            tally = tallies[job.key] = [0, 0.0]
        tally[0] += 1
        tally[1] += job.due
        total += (job.value * 1.5) % 7.0
        heapq.heappush(heap, _Job(job.due + rng.expovariate(1.0),
                                  (job.key + job.value) % 8, job.value + 1))
    return total


class Calibration:
    """Kernel samples of one run, and the scale factors they give."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._since = 0.0
        self._owed = 0.0

    def sample(self) -> float:
        """Time the kernel once; returns its wall seconds.

        The collector is off while it runs, so that the heap a workload
        left behind cannot add collection pauses to the reading.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            kernel()
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
        finally:
            if enabled:
                gc.enable()
        self.wall.append(wall)
        self.cpu.append(cpu)
        return wall

    def sample_for(self, seconds: float) -> None:
        """Sample at least once, until ``seconds`` of wall time are spent."""
        spent = 0.0
        while True:
            spent += self.sample()
            if spent >= seconds:
                return

    def resume(self) -> None:
        """Mark the start of workload time that :meth:`tick` samples for."""
        self._since = time.perf_counter()

    def tick(self) -> None:
        """Sample until the samples are :data:`SHARE` of the wall time
        since :meth:`resume`.

        Called from inside a repetition, at a hook the program reaches
        every few simulated seconds, however unevenly.
        """
        now = time.perf_counter()
        self._owed += (now - self._since) * SHARE / (1.0 - SHARE)
        while self._owed > 0:
            self._owed -= self.sample()
        self._since = time.perf_counter()

    def spent(self) -> tuple[float, float]:
        """Wall and CPU seconds spent in samples so far."""
        return sum(self.wall), sum(self.cpu)

    @property
    def wall_factor(self) -> float:
        """Reference seconds per measured wall second."""
        return NOMINAL_S * len(self.wall) / sum(self.wall)

    @property
    def cpu_factor(self) -> float:
        """Reference seconds per measured CPU second."""
        return NOMINAL_S * len(self.cpu) / sum(self.cpu)

    def to_json(self) -> dict:
        return {"samples": len(self.wall), "nominal_s": NOMINAL_S,
                "wall_factor": self.wall_factor,
                "cpu_factor": self.cpu_factor}
