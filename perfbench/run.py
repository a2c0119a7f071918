"""Run one benchmark workload; print its metrics as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload tier-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
Host times are scaled to a reference host by samples of the fixed kernel
in :mod:`calibrate`: ``setup_s`` on every workload, by samples taken
between the set-up probes; a sim workload's ``req_per_s`` and
``cpu_ms_per_req``, by samples taken all through its repetitions. The
live workload's run figures stay as measured (see ``LiveFlat``).
``--trace 1`` runs the workload once untraced and once traced, and
reports the per-layer metrics of the traced repetition plus
``tracing_overhead`` (traced ÷ untraced process CPU time). Metric names
and units come from ``BENCHMARK.json``; the workloads' reasons, the
layer metrics each should move, and the digests and counts pinned for
the default seed come from ``perfbench/spec.json``.

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the run manifest. A full
report (manifest, per-repetition figures and, when traced, every span)
is written under ``perfbench/_out/``. ``--write-pins`` re-pins the
default seed's digest and counts after an intended behaviour change.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")
OUT_DIR = os.path.join(HERE, "_out")

# Set-up is measured several times per run and reported as a median.
IMPORT_PROBES = 5
SETUP_REPS = 5
# Seconds of kernel samples before each set-up probe.
SETUP_SAMPLE_S = 0.05

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(repr(time.time()))\n")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds(src: str, modules) -> float:
    """Process start to imports done, in a fresh interpreter."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src, *modules],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip()) - start


def git_sha(root: str) -> str:
    """HEAD of the checkout's own ``.git``, or ``"unknown"``."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                sha, _sep, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def manifest(root: str, workload, seed: int, traced: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "engine": workload.engine,
        "latency_clock": workload.latency_clock,
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        # Looked up, not imported: an import would add to peak_rss_mb.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "traced": traced,
    }


def measure(workload, seed: int, seconds: float, scale: float,
            cal) -> list:
    """Untraced repetitions while the next would end within half a
    repetition of ``seconds``.

    A calibrated workload's repetitions take kernel samples for ``cal``.
    """
    reps = []
    begin = time.perf_counter()
    while True:
        if cal is None:
            reps.append(workload.rep(seed, seconds, scale))
        else:
            reps.append(workload.rep(seed, seconds, scale, cal=cal))
        elapsed = time.perf_counter() - begin
        if not workload.repeats or \
                elapsed + elapsed / len(reps) / 2 > seconds:
            return reps


def measure_setup(workload, src: str, seed: int, seconds: float,
                  scale: float) -> tuple[float, Calibration]:
    """Median import plus median set-up seconds, on the reference host.

    Kernel samples before each probe give the scale factor; returns the
    seconds and those samples.
    """
    cal = Calibration()
    imports, setups = [], []
    for _ in range(IMPORT_PROBES):
        cal.sample_for(SETUP_SAMPLE_S)
        imports.append(import_seconds(src, workload.modules))
    for _ in range(SETUP_REPS):
        cal.sample_for(SETUP_SAMPLE_S)
        setups.append(workload.rep(seed, seconds, scale, setup_only=True))
    return ((statistics.median(imports) + statistics.median(setups))
            * cal.wall_factor), cal


def check(wl, seed: int, scale: float, reps: list, pins: dict,
          default_seed: int) -> list[str]:
    """Problems with the outputs of a run's repetitions (empty = correct)."""
    problems = [p for rep in reps for p in rep.problems]
    digests = {rep.digest for rep in reps}
    if len(digests) > 1:
        problems.append("repetitions of one seed gave different digests")
    # Counts every repetition reports must agree between them, traced
    # or not: tracing must not change what the program does.
    for name in wl.DETERMINISTIC_COUNTS:
        values = {rep.counts[name] for rep in reps if name in rep.counts}
        if len(values) > 1:
            problems.append(f"{name} differs between repetitions: {values}")
    if seed == default_seed and scale == 1.0 and pins:
        if digests != {pins["digest"]}:
            problems.append(f"digest {sorted(digests)} != pinned "
                            f"{pins['digest']}")
        for name, pinned in pins.get("counts", {}).items():
            for rep in reps:
                if name in rep.counts and rep.counts[name] != pinned:
                    problems.append(f"{name} = {rep.counts[name]} != "
                                    f"pinned {pinned}")
    return problems


def end_to_end(reps: list, setup_s: float, cal) -> dict:
    """End-to-end figures; with ``cal``, host times on the reference host."""
    completed = sum(rep.completed for rep in reps)
    host_s = sum(rep.host_s for rep in reps)
    cpu_s = sum(rep.cpu_s for rep in reps)
    if cal is not None:
        host_s *= cal.wall_factor
        cpu_s *= cal.cpu_factor
    return {
        "setup_s": setup_s,
        "req_per_s": completed / host_s,
        "cpu_ms_per_req": cpu_s * 1000.0 / completed,
        "p50_ms": statistics.median(rep.p50_ms for rep in reps),
        "success_rate": (sum(rep.completed - rep.failed for rep in reps)
                         / sum(rep.generated for rep in reps)),
        # Read as the first repetition returned, before its digest: the
        # checks' own allocations must not count, and the high-water
        # mark never falls, so later repetitions cannot be read cleanly.
        "peak_rss_mb": reps[0].peak_rss_mb,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: str, scale: float = 1.0, check_pins: bool = True,
        ) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, report)``.

    The result is the JSON line printed last; the report adds the
    manifest and per-repetition figures.
    """
    import workloads as wl
    from tracing import Tracer

    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    spec = load_json(SPEC_PATH)
    workload = wl.WORKLOADS[workload_name]
    pins = spec["workloads"][workload_name]["pins"] if check_pins else {}
    src = os.path.join(root, "src")

    report = {"manifest": manifest(root, workload, seed, trace)}
    if not trace:
        setup_s, setup_cal = measure_setup(workload, src, seed, seconds,
                                           scale)
        cal = Calibration() if workload.calibrated else None
        reps = measure(workload, seed, seconds, scale, cal)
        values = end_to_end(reps, setup_s, cal)
        declared = bench["end_to_end"]
        report["calibration"] = {
            "setup": setup_cal.to_json(),
            "run": cal.to_json() if cal is not None else None}
    else:
        import_s = statistics.median(
            import_seconds(src, workload.modules)
            for _ in range(IMPORT_PROBES))
        base = workload.rep(seed, seconds, scale)
        traced = workload.rep(seed, seconds, scale, tracer=Tracer())
        reps = [base, traced]
        # P99 is a per-layer figure, read off the untraced repetition:
        # on a shared host the live tail swings far more between runs
        # than any bound allows (sim P99 is pinned by the digest).
        values = {**traced.layers, **traced.counts,
                  "latency.p99_ms": base.p99_ms,
                  "setup.import_s": import_s,
                  "tracing_overhead": traced.cpu_s / base.cpu_s}
        declared = bench["per_layer"]
        report["spans"] = traced.spans
    problems = check(wl, seed, scale, reps, pins, spec["default_seed"])

    attempted = sum(rep.generated for rep in reps)
    failed = attempted if problems else sum(rep.failed for rep in reps)
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report.update(problems=problems, result=result, reps=[
        {"setup_s": r.setup_s, "host_s": r.host_s, "cpu_s": r.cpu_s,
         "generated": r.generated, "completed": r.completed,
         "failed": r.failed, "p50_ms": r.p50_ms, "p99_ms": r.p99_ms,
         "digest": r.digest, "counts": r.counts} for r in reps])
    return result, report


def write_pins(workload_name: str, report: dict) -> None:
    spec = load_json(SPEC_PATH)
    traced = report["reps"][-1]
    spec["workloads"][workload_name]["pins"] = {
        "digest": traced["digest"], "counts": traced["counts"]}
    with open(SPEC_PATH, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the digest and counts of this "
                             "(default-seed, traced) run in spec.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program under ./src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, src)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), root,
                         check_pins=not args.write_pins)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    for problem in report["problems"]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if args.write_pins:
        if not args.trace or report["problems"] or \
                report["reps"][-1]["digest"] is None:
            print("perfbench: pins need a clean traced sim run",
                  file=sys.stderr)
            return 1
        write_pins(args.workload, report)
    print(json.dumps({"manifest": report["manifest"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
