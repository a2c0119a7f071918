"""The benchmark's four workloads and one repetition of each.

Three simulate (``tier-steady``, ``fleet-sparse``, ``hotel-callgraph``);
their latencies are on the **sim** clock and are fixed by the seed. One
crosses real loopback sockets (``live-flat``); its latencies are on the
**host** clock. Every repetition runs the program's own entry points —
:func:`repro.bench.coordinator.run_scenario_benchmark`,
:func:`~repro.bench.coordinator.run_hotel_benchmark` and
:class:`repro.live.harness.LiveHarness` — in this process, on one
thread. Probes patched in from here time the first request, capture the
objects a run builds, and, in a traced repetition, record spans and a
profile; all of them are undone when the repetition ends.

``scale`` shrinks a workload for the self-tests; digests and counts are
pinned only at ``scale == 1``.
"""

from __future__ import annotations

import asyncio
import cProfile
import gc
import os
import resource
import time
from dataclasses import dataclass, field

import repro
from repro.bench import coordinator
from repro.bench.coordinator import run_hotel_benchmark, run_scenario_benchmark
from repro.bench.digest import digest_result
from repro.core.controller import L3Controller
from repro.live import harness as live_harness
from repro.live import scrape as live_scrape
from repro.live import server as live_server
from repro.live.control import LiveControlLoop
from repro.live.harness import LiveConfig, LiveHarness
from repro.live.loadgen import LiveLoadGenerator
from repro.live.proxy import HttpTransport, LiveProxy
from repro.live.scrape import HttpScraper
from repro.live.server import ReplicaServer
from repro.mesh.fastdispatch import FastRequestEngine
from repro.sim.engine import Simulator
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import SampleSeries
from repro.workloads import hotel
from repro.workloads.callgraph import CallGraphApp
from repro.workloads.fleet import FleetSpec, build_fleet_scenario
from repro.workloads.loadgen import OpenLoopLoadGenerator
from repro.workloads.profiles import constant_backend_profile, constant_series
from repro.workloads.scenarios import Scenario

from calibrate import Calibration
from tracing import Patches, ProfileSummary, Tracer

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Counts that must repeat exactly for a given seed (ROADMAP: "gated
# exactly"). Reported as counts, never as speed-ups.
DETERMINISTIC_COUNTS = (
    "sim.events_per_req", "sim.event_pool_reuse_ratio", "core.reconciles",
    "telemetry.scrape_rounds", "telemetry.samples_appended",
    "workloads.callgraph.hops_per_req")

# A send later than this behind its intended time is a late arrival.
LATE_ARRIVAL_S = 0.001


class SetupDone(Exception):
    """Raised at the first request of a set-up-only repetition."""


@dataclass
class Rep:
    """What one repetition measured and checked."""

    setup_s: float
    host_s: float        # wall seconds from the first request to the end
    cpu_s: float         # process CPU seconds over the same interval
    generated: int       # arrivals the load generator produced
    completed: int       # records written (warm-up included)
    failed: int          # unsuccessful records
    p50_ms: float
    p99_ms: float
    peak_rss_mb: float   # process high-water mark when the run returned
    digest: str | None = None
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def _percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile of seconds, in ms (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[index] * 1000.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _FirstRequest:
    """Times the first request of a run; optionally stops the run there."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.wall: float | None = None
        self.cpu: float | None = None

    def mark(self) -> None:
        if self.wall is None:
            self.wall = time.perf_counter()
            self.cpu = time.process_time()
            if self.setup_only:
                raise SetupDone


# --------------------------------------------------------------------- sim #


class SimWorkload:
    """A simulated workload: one coordinator call per repetition."""

    latency_clock = "sim"
    modules = ("repro.bench.coordinator", "repro.workloads.fleet")
    # A repetition has a fixed size; a run repeats it to fill its time.
    repeats = True
    # Host figures are scaled to the reference host (calibrate.py).
    calibrated = True

    def __init__(self, name: str, engine: str):
        self.name = name
        self.engine = engine

    def execute(self, seed: int, scale: float, patches, tracer):
        """Build the workload's input and run it; returns the result."""
        raise NotImplementedError

    def rep(self, seed: int, seconds: float, scale: float = 1.0,
            tracer: Tracer | None = None, setup_only: bool = False,
            cal: Calibration | None = None):
        """One repetition; a set-up-only one returns its set-up seconds.

        ``seconds`` is unused: a simulated repetition has a fixed size.
        With ``cal``, kernel samples are taken after controller
        reconciles all through the run, and their time is left out of
        the repetition's own.
        """
        # Free the previous repetition's object cycles first, so that peak
        # memory is one repetition's, however many a run fits in.
        gc.collect()
        first = _FirstRequest(setup_only)
        loadgens: list = []
        engines: list = []
        controllers: list = []
        series: list = []
        with Patches() as patches:
            patches.capture(OpenLoopLoadGenerator, loadgens)
            patches.capture(FastRequestEngine, engines)
            patches.capture(L3Controller, controllers)

            def timed_run(run):
                def run_after_mark(sim, *args, **kwargs):
                    first.mark()
                    if cal is not None:
                        cal.resume()
                    return run(sim, *args, **kwargs)
                return run_after_mark
            patches.replace(Simulator, "run", timed_run)
            if cal is not None:
                def sampled(reconcile):
                    def reconcile_then_sample(controller, now):
                        weights = reconcile(controller, now)
                        cal.tick()
                        return weights
                    return reconcile_then_sample
                patches.replace(L3Controller, "reconcile", sampled)
                kernel_wall, kernel_cpu = cal.spent()
            if tracer is not None:
                patches.capture(SampleSeries, series)
                self._trace(patches, tracer)
            profile = cProfile.Profile() if tracer is not None else None
            start = time.perf_counter()
            try:
                if profile is not None:
                    profile.enable()
                try:
                    result = self.execute(seed, scale, patches, tracer)
                finally:
                    if profile is not None:
                        profile.disable()
            except SetupDone:
                return first.wall - start
            end_wall, end_cpu = time.perf_counter(), time.process_time()
            peak_rss_mb = _peak_rss_mb()
            if cal is not None:
                wall, cpu = cal.spent()
                end_wall -= wall - kernel_wall
                end_cpu -= cpu - kernel_cpu

        (loadgen,) = loadgens
        problems = []
        records = loadgen.records
        if loadgen.generated != len(records):
            problems.append(f"{loadgen.generated} arrivals produced "
                            f"{len(records)} records")
        if len({r.request_id for r in records}) != len(records):
            problems.append("duplicate request ids")
        rep = Rep(
            setup_s=first.wall - start,
            host_s=end_wall - first.wall,
            cpu_s=end_cpu - first.cpu,
            generated=loadgen.generated,
            completed=len(records),
            failed=sum(1 for r in records if not r.success),
            p50_ms=result.p50_ms,
            p99_ms=result.p99_ms,
            peak_rss_mb=peak_rss_mb,
            digest=digest_result(result),
            problems=problems,
        )
        stats = engines[0].stats() if engines else None
        rep.counts = {
            "sim.events_per_req": _ratio(result.events_processed,
                                         loadgen.generated),
            "sim.event_pool_reuse_ratio": (
                _ratio(stats["reused"], stats["reused"] + stats["created"])
                if stats else 0.0),
            "core.reconciles": sum(c.reconcile_count for c in controllers),
        }
        if tracer is not None:
            summary = ProfileSummary(profile, SRC_ROOT)
            self._layers(rep, tracer, summary, series, controllers)
            rep.spans = tracer.to_json()
        return rep

    def _trace(self, patches: Patches, tracer: Tracer) -> None:
        patches.trace(tracer, Scraper, "scrape_once", "telemetry.scrape")

        def no_data(samples):
            tracer.count("telemetry.no_data_backends",
                         sum(1 for s in samples.values() if s is None))
        patches.trace(tracer, PromMetricsSource, "collect",
                      "telemetry.collect", on_return=no_data)
        patches.trace(tracer, L3Controller, "reconcile", "core.reconcile")

        def counted_call(call):
            # CallGraphApp._call is a generator function: count at
            # creation, once per hop, and hand the generator back.
            def hop(*args, **kwargs):
                tracer.count("callgraph.calls")
                return call(*args, **kwargs)
            return hop
        patches.replace(CallGraphApp, "_call", counted_call)

    def _layers(self, rep: Rep, tracer: Tracer, prof: ProfileSummary,
                series: list, controllers: list) -> None:
        generated = rep.generated
        reconciles = tracer.durations("core.reconcile")
        scrapes = tracer.durations("telemetry.scrape")
        samples_appended = prof.call_count("telemetry.timeseries",
                                           "SampleSeries.append")
        rep.counts.update({
            "telemetry.scrape_rounds": len(scrapes),
            "telemetry.samples_appended": samples_appended,
            "workloads.callgraph.hops_per_req": _ratio(
                tracer.counts.get("callgraph.calls", 0), generated),
        })
        draws = (prof.call_count("workloads.profiles",
                                 "BackendProfile.sample_service_time")
                 + prof.call_count("workloads.profiles",
                                   "BackendProfile.sample_failure"))
        rep.layers = {
            "sim.self_s": prof.self_s("sim.engine", "sim.events",
                                      "sim.fastpath", "sim.resources"),
            "sim.process.self_s": prof.self_s("sim.process"),
            "mesh.fastdispatch.self_s": prof.self_s("mesh.fastdispatch"),
            "mesh.fastdispatch.dispatch_calls": prof.call_count(
                "mesh.fastdispatch", "FastRequestEngine.dispatch"),
            "mesh.proxy.self_s": prof.self_s("mesh.proxy"),
            "workloads.callgraph.self_s": prof.self_s("workloads.callgraph"),
            "balancers.pick_calls": prof.call_count("balancers", ".pick"),
            "balancers.pick_self_s": prof.self_s("balancers",
                                                 "mesh.traffic_split"),
            "mesh.network.self_s": prof.self_s("mesh.network"),
            "workloads.profiles.self_s": prof.self_s("workloads.profiles"),
            "workloads.profiles.draws_per_req": _ratio(draws, generated),
            "workloads.loadgen.self_s": prof.self_s("workloads.loadgen"),
            "telemetry.on_response_calls": prof.call_count(
                "telemetry.metrics", "BackendTelemetry.on_response"),
            "telemetry.write_self_s": prof.self_s("telemetry.metrics",
                                                  "telemetry.histogram"),
            "telemetry.scrape_s": sum(scrapes),
            "telemetry.samples_held": sum(len(s) for s in series),
            "telemetry.collect_s": sum(tracer.durations("telemetry.collect")),
            "telemetry.no_data_backends": tracer.counts.get(
                "telemetry.no_data_backends", 0),
            "core.reconcile_p50_ms": _percentile_ms(reconciles, 0.50),
            "core.reconcile_p99_ms": _percentile_ms(reconciles, 0.99),
            "core.reconcile_s": sum(reconciles),
            "core.degraded_reconciles": sum(
                c.degraded_reconciles for c in controllers),
        }
        build = sum(tracer.durations("setup.build_scenario"))
        rep.layers["setup.build_scenario_s"] = build
        rep.layers["setup.deploy_s"] = rep.setup_s - build
        rep.layers["setup.boot_s"] = 0.0


class TierSteady(SimWorkload):
    """TIER scenario-1 under l3, paper configuration, default engine."""

    SIM_S = 600.0

    def execute(self, seed, scale, patches, tracer):
        if tracer is not None:
            patches.trace(tracer, coordinator, "build_scenario",
                          "setup.build_scenario")
        return run_scenario_benchmark(
            "scenario-1", "l3", duration_s=self.SIM_S * scale, seed=seed,
            engine=self.engine)


class FleetSparse(SimWorkload):
    """A 120-cluster generated fleet at a trickle of load.

    The topology is one fixed cell (fleet seed 1), like scenario-1's
    fixed trace; ``seed`` drives the run's own random streams. A
    topology drawn from the run seed would change P50 by tens of
    percent from seed to seed.
    """

    SIM_S = 3600.0
    SPEC = FleetSpec(clusters=120, total_rps=20.0)
    TOPOLOGY_SEED = 1

    def execute(self, seed, scale, patches, tracer):
        if tracer is not None:
            span, token = tracer.begin("setup.build_scenario")
        scenario = build_fleet_scenario(self.SPEC, seed=self.TOPOLOGY_SEED)
        if tracer is not None:
            tracer.end(span, token)
        return run_scenario_benchmark(
            scenario, "l3", duration_s=self.SIM_S * scale, seed=seed,
            engine=self.engine)


class HotelCallgraph(SimWorkload):
    """DeathStarBench hotel reservation at 200 rps, generator engine."""

    SIM_S = 120.0
    RPS = 200.0

    def execute(self, seed, scale, patches, tracer):
        if tracer is not None:
            patches.trace(tracer, hotel, "hotel_service_specs",
                          "setup.build_scenario")
        return run_hotel_benchmark("l3", rps=self.RPS,
                                   duration_s=self.SIM_S * scale, seed=seed)


# -------------------------------------------------------------------- live #


def flat_scenario(rps: float) -> Scenario:
    """Three clusters with one constant profile: median 2 ms, p99 5 ms.

    Identical clusters mean L3's wall-clock weight wobble cannot change
    the latency mix, so host cost is what moves the latencies.
    """
    clusters = ("cluster-1", "cluster-2", "cluster-3")
    return Scenario(
        name="live-flat", duration_s=600.0,
        cluster_profiles={c: constant_backend_profile(0.002, 0.005)
                          for c in clusters},
        rps=constant_series(rps),
        description="three identical constant clusters, fixed open loop")


class LiveFlat:
    """The asyncio testbed under l3 at 1 s cadence, fixed 400 rps."""

    latency_clock = "host"
    engine = "live"
    modules = ("repro.live.harness",)
    # One repetition is the whole run: the load phase lasts ``seconds``.
    repeats = False
    # Host figures stay as measured: the open loop sends on a wall-clock
    # schedule, and the CPU time goes to sockets and event-loop wake-ups,
    # which the reference kernel does not track. Kernel samples inside
    # the load phase would also stall the sends.
    calibrated = False
    RPS = 400.0
    PORT_BASE = 28080

    def __init__(self, name: str):
        self.name = name

    def rep(self, seed: int, seconds: float, scale: float = 1.0,
            tracer: Tracer | None = None, setup_only: bool = False):
        """One repetition; ``scale`` is unused (``seconds`` sizes it)."""
        gc.collect()
        first = _FirstRequest(setup_only)
        load_end: list[float] = []
        loadgens: list = []
        scrapers: list = []
        servers: list = []
        controllers: list = []
        logged_errors = [0]
        with Patches() as patches:
            patches.capture(LiveLoadGenerator, loadgens)
            patches.capture(HttpScraper, scrapers)
            patches.capture(ReplicaServer, servers)
            patches.capture(L3Controller, controllers)

            def timed_load(run):
                async def run_after_mark(loadgen, duration_s):
                    first.mark()
                    try:
                        return await run(loadgen, duration_s)
                    finally:
                        load_end.append(time.perf_counter())
                return run_after_mark
            patches.replace(LiveLoadGenerator, "run", timed_load)
            if tracer is not None:
                self._trace(patches, tracer)

            start = time.perf_counter()
            if tracer is not None:
                span, token = tracer.begin("setup.build_scenario")
            scenario = flat_scenario(self.RPS)
            if tracer is not None:
                tracer.end(span, token)
            live = LiveHarness(scenario, LiveConfig(
                algorithm="l3", duration_s=seconds, rps=self.RPS, seed=seed,
                port_base=self.PORT_BASE, scrape_interval_s=1.0,
                reconcile_interval_s=1.0))

            async def run_counting_errors():
                # Count what asyncio's exception handler would log (e.g.
                # CancelledError tracebacks of handlers cut at teardown)
                # and still log it: a regression must show, not vanish.
                loop = asyncio.get_running_loop()

                def handler(loop, context):
                    logged_errors[0] += 1
                    loop.default_exception_handler(context)
                loop.set_exception_handler(handler)
                return await live.run_async()
            try:
                result = asyncio.run(run_counting_errors())
            except SetupDone:
                return first.wall - start
            end_cpu = time.process_time()
            peak_rss_mb = _peak_rss_mb()

        records = live.records
        (loadgen,) = loadgens
        problems = []
        if not live.clean_shutdown:
            problems.append(f"leaked tasks: {live.leaked_tasks}")
        if loadgen.generated != len(records):
            problems.append(f"{loadgen.generated} arrivals produced "
                            f"{len(records)} records")
        distinct = {tuple(sorted(w.items())) for _t, w in live.weight_history}
        if len(distinct) < 2:
            problems.append("no reconcile changed the weights")
        lags = [r.start_s - r.intended_start_s for r in records]
        rep = Rep(
            setup_s=first.wall - start,
            host_s=load_end[0] - first.wall,
            cpu_s=end_cpu - first.cpu,
            generated=loadgen.generated,
            completed=len(records),
            failed=sum(1 for r in records if not r.success),
            p50_ms=result.p50_ms,
            p99_ms=result.p99_ms,
            peak_rss_mb=peak_rss_mb,
            problems=problems,
        )
        rep.layers = {
            "core.reconciles": sum(c.reconcile_count for c in controllers),
            "live.asyncio_logged_errors": logged_errors[0],
            "live.loadgen.late_arrivals": sum(
                1 for lag in lags if lag > LATE_ARRIVAL_S),
            "live.loadgen.send_lag_p99_ms": _percentile_ms(lags, 0.99),
            "live.server.requests": sum(
                s.requests_served + s.failures_served for s in servers),
            "live.scrape.failures": sum(s.failed_scrapes for s in scrapers),
        }
        if tracer is not None:
            self._layers(rep, tracer, controllers)
            rep.spans = tracer.to_json()
        return rep

    def _trace(self, patches: Patches, tracer: Tracer) -> None:
        patches.trace(tracer, LiveProxy, "dispatch", "live.proxy.dispatch")
        patches.trace(tracer, LiveProxy, "_pick_backend", "live.proxy.pick")
        patches.trace(tracer, HttpTransport, "__call__", "live.http")

        def count_connection(open_connection):
            async def counted(*args, **kwargs):
                if tracer.current_name() == "live.http":
                    tracer.count("live.http.connections")
                return await open_connection(*args, **kwargs)
            return counted
        patches.replace(asyncio, "open_connection", count_connection)
        patches.trace(
            tracer, ReplicaServer, "_work", "live.server.work",
            on_call=lambda args: tracer.high_water(
                "live.server.inflight", args[0].inflight + 1))

        def page_size(page):
            tracer.count("live.exposition.pages")
            tracer.count("live.exposition.bytes", len(page))
        for module in (live_harness, live_server):
            patches.trace(tracer, module, "render_exposition",
                          "live.exposition.render", on_return=page_size)
        patches.trace(tracer, live_scrape, "parse_exposition",
                      "live.exposition.parse")
        patches.trace(tracer, HttpScraper, "scrape_once", "live.scrape")
        patches.trace(tracer, LiveControlLoop, "tick", "live.control.tick")
        patches.trace(tracer, L3Controller, "reconcile", "core.reconcile")
        patches.trace(tracer, live_server._HttpServerBase, "start",
                      "setup.boot")

    def _layers(self, rep: Rep, tracer: Tracer, controllers: list) -> None:
        def mean_ms(name):
            spans = tracer.durations(name)
            return _ratio(sum(spans), len(spans)) * 1000.0
        dispatch = tracer.durations("live.proxy.dispatch")
        http = tracer.durations("live.http")
        reconciles = tracer.durations("core.reconcile")
        pages = tracer.counts.get("live.exposition.pages", 0)
        build = sum(tracer.durations("setup.build_scenario"))
        boot = sum(tracer.durations("setup.boot"))
        rep.layers.update({
            "live.proxy.dispatch_p50_ms": _percentile_ms(dispatch, 0.50),
            "live.proxy.dispatch_p99_ms": _percentile_ms(dispatch, 0.99),
            "live.proxy.pick_us": mean_ms("live.proxy.pick") * 1000.0,
            "live.http.roundtrip_p50_ms": _percentile_ms(http, 0.50),
            "live.http.roundtrip_p99_ms": _percentile_ms(http, 0.99),
            "live.http.connections_per_req": _ratio(
                tracer.counts.get("live.http.connections", 0),
                len(dispatch)),
            "live.server.inflight_max": tracer.maxima.get(
                "live.server.inflight", 0),
            "live.exposition.render_ms": mean_ms("live.exposition.render"),
            "live.exposition.parse_ms": mean_ms("live.exposition.parse"),
            "live.exposition.page_bytes": _ratio(
                tracer.counts.get("live.exposition.bytes", 0), pages),
            "live.scrape.round_ms": mean_ms("live.scrape"),
            "live.control.tick_ms": mean_ms("live.control.tick"),
            "core.reconcile_p50_ms": _percentile_ms(reconciles, 0.50),
            "core.reconcile_p99_ms": _percentile_ms(reconciles, 0.99),
            "core.reconcile_s": sum(reconciles),
            "core.degraded_reconciles": sum(
                c.degraded_reconciles for c in controllers),
            "setup.build_scenario_s": build,
            "setup.boot_s": boot,
            "setup.deploy_s": rep.setup_s - build - boot,
        })


WORKLOADS = {
    "tier-steady": TierSteady("tier-steady", engine="fast"),
    "fleet-sparse": FleetSparse("fleet-sparse", engine="fast"),
    "hotel-callgraph": HotelCallgraph("hotel-callgraph", engine="process"),
    "live-flat": LiveFlat("live-flat"),
}

