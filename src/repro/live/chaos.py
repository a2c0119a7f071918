"""Wall-clock fault injection against the live testbed (chaos harness).

The simulator's fault vocabulary (:mod:`repro.faults.faults`) is written
against an injector facade — ``mesh.deployment(...).backend_in(...)``,
``mesh.network.partition(...)``, ``require_scraper().pause(...)`` — not
against the simulator itself. This module supplies that facade over the
*live* substrate, so the exact same frozen :class:`~repro.faults.base.Fault`
dataclasses (and therefore the exact same ``--faults`` spec strings)
drive real asyncio servers:

- replica / cluster faults close or blackhole the
  :class:`~repro.live.server.ReplicaServer` listeners and re-bind them
  on recovery;
- link faults shape the client-side path through a
  :class:`LiveLinkShaper` the proxy traverses before each attempt;
- scrape faults break the ``/metrics`` pages themselves (500s or
  accept-then-stall), so the outage happens on the wire where the
  :class:`~repro.live.scrape.HttpScraper` actually feels it;
- controller faults pause the reconcile loop or crash one
  :class:`~repro.core.leader.ControllerReplica` out of the lease
  election.

:class:`LiveFaultInjector` runs the schedule as an asyncio task on the
run clock. ``Fault.apply``/``revert`` are synchronous by contract, so
facade methods *defer* their async work (listener close, port re-bind)
onto the injector, which awaits it immediately after each action — the
fault's effect is complete before the injector sleeps toward the next
event. A fault that cannot run (e.g. ``controller-crash`` without HA
replicas) is logged into :attr:`LiveFaultInjector.errors` and the
schedule continues: a chaos run should report a broken experiment, not
die half-way with ports still bound.
"""

from __future__ import annotations

import asyncio
import itertools
import typing

from repro.errors import ConfigError, MeshError, ReproError
from repro.faults.base import Fault, FaultInjector
from repro.mesh.cluster import split_backend_name
from repro.mesh.replica import DOWN_MODES


class LiveLinkShaper:
    """Client-side link shaping: partitions and degradations by pair.

    The simulator shapes delay inside its network model; on localhost
    there is no network to shape, so the proxy calls
    :meth:`traverse` before each attempt's request and the shaper
    inserts the fault there. Directed pairs, symmetric by default —
    the same semantics as ``mesh.network``:

    - a *degraded* pair sleeps ``base_delay_s * (multiplier - 1) +
      extra_delay_s`` per attempt (the inflation a real link would add
      on top of its base propagation delay);
    - a *partitioned* pair hangs until the client's deadline fires —
      healing the partition does not resurrect attempts already stuck
      on it, matching the simulated network. Teardown calls
      :meth:`release` so stuck attempts fail fast instead of leaking.
    """

    def __init__(self, base_delay_s: float = 0.0):
        if base_delay_s < 0:
            raise ConfigError(
                f"base link delay must be >= 0: {base_delay_s}")
        self.base_delay_s = base_delay_s
        self._partitioned: set[tuple[str, str]] = set()
        self._degraded: dict[tuple[str, str], tuple[float, float]] = {}
        self._gate = asyncio.Event()
        self.traversals = 0
        self.dropped = 0

    def _pairs(self, src: str, dst: str,
               symmetric: bool) -> list[tuple[str, str]]:
        return [(src, dst), (dst, src)] if symmetric else [(src, dst)]

    def partition(self, src: str, dst: str, symmetric: bool = True) -> None:
        self._partitioned.update(self._pairs(src, dst, symmetric))

    def heal_partition(self, src: str, dst: str,
                       symmetric: bool = True) -> None:
        self._partitioned.difference_update(self._pairs(src, dst, symmetric))

    def degrade(self, src: str, dst: str, multiplier: float = 1.0,
                extra_delay_s: float = 0.0, symmetric: bool = True) -> None:
        for pair in self._pairs(src, dst, symmetric):
            self._degraded[pair] = (multiplier, extra_delay_s)

    def heal_degradation(self, src: str, dst: str,
                         symmetric: bool = True) -> None:
        for pair in self._pairs(src, dst, symmetric):
            self._degraded.pop(pair, None)

    def partitioned(self, src: str, dst: str) -> bool:
        return (src, dst) in self._partitioned

    def extra_delay_s(self, src: str, dst: str) -> float:
        """Seconds of injected delay for one traversal of ``src → dst``."""
        entry = self._degraded.get((src, dst))
        if entry is None:
            return 0.0
        multiplier, extra = entry
        return self.base_delay_s * (multiplier - 1.0) + extra

    async def traverse(self, src: str, dst: str) -> None:
        """One attempt crossing the link; raises MeshError when dropped."""
        self.traversals += 1
        delay = self.extra_delay_s(src, dst)
        if delay > 0:
            await asyncio.sleep(delay)
        if (src, dst) in self._partitioned:
            self.dropped += 1
            # Hang like a real partition: nothing answers, only the
            # client's deadline (or teardown's release) ends the wait.
            await self._gate.wait()
            raise MeshError(f"link {src} -> {dst} is partitioned")

    def release(self) -> None:
        """Fail every stuck traversal fast (teardown; not a heal)."""
        self._gate.set()


class _LiveBackendFacade:
    """One ReplicaServer wearing the simulated backend's fault surface.

    A live server stands in for a whole cluster-local deployment, so it
    is both the backend (``crash``/``restart`` — what ClusterOutage
    touches) and its only replica (``.replicas[0]`` — what ReplicaCrash
    indexes). Async server work is deferred onto the injector.
    """

    def __init__(self, name: str, server, injector: "LiveFaultInjector"):
        self.name = name
        self.server = server
        self._injector = injector
        self.replicas = [self]

    def crash(self, mode: str = "fail_fast") -> None:
        if mode not in DOWN_MODES:
            raise MeshError(
                f"down mode must be one of {DOWN_MODES}: {mode!r}")
        self._injector.defer(self.server.crash(mode))

    def restart(self) -> None:
        self._injector.defer(self.server.restart())


class _LiveDeploymentFacade:
    """The one-service deployment view over the cluster → backend map."""

    def __init__(self, service: str, backends: dict[str, _LiveBackendFacade]):
        self.service = service
        self.backends = backends

    def backend_in(self, cluster: str) -> _LiveBackendFacade:
        backend = self.backends.get(cluster)
        if backend is None:
            raise ConfigError(
                f"service {self.service!r} has no backend in cluster "
                f"{cluster!r}; clusters: {tuple(sorted(self.backends))}")
        return backend


class _LiveMeshFacade:
    """Just enough of ServiceMesh's surface for the fault vocabulary."""

    def __init__(self, deployment: _LiveDeploymentFacade,
                 network: LiveLinkShaper):
        self._deployment = deployment
        self.network = network

    def services(self) -> list[str]:
        return [self._deployment.service]

    def deployment(self, name: str) -> _LiveDeploymentFacade:
        if name != self._deployment.service:
            raise ConfigError(
                f"unknown service {name!r}; the live testbed runs "
                f"{self._deployment.service!r}")
        return self._deployment


class _LiveScrapeFacade:
    """Scrape outages, live: break every /metrics page on the wire.

    The simulator pauses the scraper; here the outage happens where a
    real one would — the exposition endpoints stop answering (500s) or
    stop answering *at all* (stall), and the running
    :class:`~repro.live.scrape.HttpScraper` fails its fetches.
    """

    def __init__(self, servers: typing.Sequence):
        self.servers = list(servers)

    def pause(self, mode: str = "error") -> None:
        for server in self.servers:
            server.fail_metrics(mode)

    def resume(self) -> None:
        for server in self.servers:
            server.restore_metrics()


class LiveFaultInjector(FaultInjector):
    """Runs a fault schedule against the live testbed on the run clock.

    Reuses the simulator injector's helper surface (``backends_in``,
    ``require_*``) over live facades; scheduling is wall-clock — an
    asyncio task sleeps toward each event and executes it, awaiting any
    deferred server work before moving on.

    Args:
        service: the service the testbed runs (``SCENARIO_SERVICE``).
        servers: backend name → :class:`~repro.live.server.ReplicaServer`.
        network: the :class:`LiveLinkShaper` the proxy traverses.
        clock: zero-argument callable, seconds since the run started.
        metrics_server: the proxy-side exposition server, included in
            scrape outages alongside every replica server.
        controllers: reconcile controllers (``pause()``/``resume()``).
        replicas: HA :class:`~repro.core.leader.ControllerReplica` list.
        sleep: async sleep (injectable for socket-free tests).
    """

    def __init__(self, service: str, servers: dict, network: LiveLinkShaper,
                 clock, metrics_server=None,
                 controllers: typing.Sequence = (),
                 replicas: typing.Sequence = (), sleep=None):
        backends: dict[str, _LiveBackendFacade] = {}
        for name, server in servers.items():
            _service, cluster = split_backend_name(name)
            backends[cluster] = _LiveBackendFacade(name, server, self)
        self.mesh = _LiveMeshFacade(
            _LiveDeploymentFacade(service, backends), network)
        scrape_servers = list(servers.values())
        if metrics_server is not None:
            scrape_servers.append(metrics_server)
        self.scraper = _LiveScrapeFacade(scrape_servers)
        self.controllers = [c for c in controllers if c is not None]
        self.replicas = list(replicas)
        self.clock = clock
        self.log: list[tuple[float, str]] = []
        self.errors: list[str] = []
        self._sleep = sleep or asyncio.sleep
        self._deferred: list = []
        self._seq = itertools.count()
        # (due_s, rank, seq, action, fault); reverts outrank applies at
        # equal times so back-to-back windows hand over cleanly.
        self._events: list[tuple[float, int, int, str, Fault]] = []

    # ------------------------------------------------------- scheduling #

    def schedule(self, fault: Fault, offset_s: float = 0.0) -> None:
        """Register one fault's apply (and revert) on the run clock."""
        fault.validate()
        start = offset_s + fault.at_s
        self._events.append((start, 1, next(self._seq), "apply", fault))
        duration = getattr(fault, "duration_s", None)
        if duration is not None:
            self._events.append(
                (start + duration, 0, next(self._seq), "revert", fault))

    def record(self, description: str) -> None:
        """Append one line to the fault log at the current run time."""
        self.log.append((self.clock(), description))

    # -------------------------------------------------- deferred server #

    def defer(self, coro) -> None:
        """Queue async work a synchronous ``Fault.apply`` cannot await."""
        self._deferred.append(coro)

    async def _flush(self) -> None:
        while self._deferred:
            coros, self._deferred = self._deferred, []
            for coro in coros:
                await coro

    def close(self) -> None:
        """Drop un-flushed deferred work (cancelled before it ran)."""
        for coro in self._deferred:
            coro.close()
        self._deferred.clear()

    # --------------------------------------------------------- running #

    async def run(self) -> None:
        """Execute the whole schedule; returns when the last event ran.

        A fault that cannot run logs an ``ERROR`` line and the schedule
        continues — chaos runs report broken experiments instead of
        abandoning the testbed mid-run.
        """
        for due, _rank, _seq, action, fault in sorted(self._events):
            delay = due - self.clock()
            if delay > 0:
                await self._sleep(delay)
            try:
                getattr(fault, action)(self)
                await self._flush()
            except ReproError as exc:
                self.errors.append(f"{action} {fault}: {exc}")
                self.record(f"ERROR {action} {fault}: {exc}")
            else:
                self.record(f"{action} {fault}")
