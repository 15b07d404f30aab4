#!/usr/bin/env python3
"""Two-clock benchmark of the FlowGuard reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed-knee --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``closed-knee``, ``replay-audit``, ``open-tenants`` (see
``perfbench/layer_map.json`` for why each was chosen and which layer it
stresses).  The run

1. imports the program from ``src/`` and loads the scan kernel, then
   repeats the workload's set-up three times (``setup_s`` is the
   start-up time plus the median set-up);
2. with ``--trace 0`` repeats measured units for ``--seconds`` seconds
   and reports the end-to-end metrics — host-clock ones from wall time
   with the shared host's interference filtered out (see
   :func:`fastest_slices`), charged ones from the simulated cycles of
   one unit;
3. with ``--trace 1`` measures half the time untraced and half with
   spans around every layer's entry point, and reports the per-layer
   metrics, tracing overhead included;
4. checks every output (exact ledgers, no false quarantine, ROP windows
   judged violations and only they, identical digests across units) and
   fails — exit code 1, ``"correct": false``, no samples and no metrics —
   if any check does.

Every metric is printed as one ``(metric, value, unit, labels)`` sample
per line; the last stdout line is the result object.  The samples, the
outcome digest and (with ``--trace 1``) the spans are also written under
``.bench_build/perfbench/``.  Metric names and units are the ones
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def bootstrap() -> None:
    """Put the checkout's ``src/`` on the path and keep every file the
    run writes (the scan kernel build included) inside the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(
            f"no program sources at {src}: run from the root of a checkout"
        )
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp


def trace_targets():
    """Each layer's public entry points, as (span name, owner, attr)."""
    from repro.fleet.dispatcher import FleetDispatcher
    from repro.fleet.scheduler import RoundRobinScheduler
    from repro.fleet.service import FleetService
    from repro.fleet.workers import SimulatedWorkerPool, WorkStealingPool
    from repro.ipt.encoder import IPTEncoder
    from repro.itccfg.searchindex import FlowSearchIndex
    from repro.monitor.fastpath import FastPathChecker
    from repro.monitor.slowpath import SlowPathEngine
    from repro.osmodel.kernel import Kernel
    from repro.pipeline import FlowGuardPipeline
    from repro.service import TenantRuntime

    return [
        ("osmodel.step", Kernel, "step"),
        ("ipt.on_branch", IPTEncoder, "on_branch"),
        ("ipt.flush", IPTEncoder, "flush"),
        ("monitor.fastpath", FastPathChecker, "check"),
        ("monitor.decode", FastPathChecker, "decode_tail_columnar"),
        ("monitor.slowpath", SlowPathEngine, "check"),
        ("itccfg.check_batch", FlowSearchIndex, "check_batch"),
        ("fleet.scheduler", RoundRobinScheduler, "step_round"),
        ("fleet.dispatch", FleetDispatcher, "submit"),
        ("fleet.pool", SimulatedWorkerPool, "dispatch"),
        ("fleet.pool", WorkStealingPool, "dispatch"),
        ("fleet.build", FleetService, "__init__"),
        ("fleet.build", FleetService, "add_workload"),
        ("service.step", TenantRuntime, "step"),
        ("service.reload", TenantRuntime, "reload"),
        ("pipeline.offline", FlowGuardPipeline, "offline"),
    ]


def measure(workload, seconds: float, tracer=None):
    """Measured units for about ``seconds`` (and at least one).

    A unit starts only while the median unit so far still fits in the
    time left, so runs do not overshoot by a whole unit.  The cyclic
    collector stays on, so every collection the program's garbage
    triggers is paid inside the unit that made it.
    """
    units, bounds, walls = [], [], []
    start = time.perf_counter()
    while not units or (
        time.perf_counter() - start + statistics.median(walls) / 1e9
        <= seconds
    ):
        workload.reset()
        if tracer is not None:
            tracer.phase = "measure"
        began = time.perf_counter_ns()
        try:
            unit = workload.run_unit()
        finally:
            ended = time.perf_counter_ns()
            bounds.append((began, ended))
            walls.append(ended - began)
            if tracer is not None:
                tracer.phase = None
        units.append(unit)
    return units, bounds, walls


def consistency_failures(units) -> list:
    """Every unit of one seed must repeat the first bit for bit."""
    first = units[0]
    failures = []
    for index, unit in enumerate(units[1:], start=1):
        if unit.digest != first.digest:
            failures.append(f"unit {index}: outcome digest differs")
        if unit.charged != first.charged or unit.counts != first.counts:
            failures.append(f"unit {index}: charged metrics differ")
    return failures


def fastest_slices(units, bounds):
    """Host time of one unit and of each of its timed check calls, with
    the shared host's interference filtered out.

    Every unit repeats the same work bit for bit, so its timed calls cut
    it into the same slices: unit start to first call start, each call
    start to the next, last call start to unit end.  Interference from
    other tenants of the host only ever adds time, so each slice keeps
    its fastest unit, and so does each call's own duration.  Returns
    (unit seconds, per-call nanoseconds).
    """
    slices, calls = [], []
    for unit, (began, ended) in zip(units, bounds):
        starts = [began] + [start for start, _ in unit.calls_ns] + [ended]
        slices.append([b - a for a, b in zip(starts, starts[1:])])
        calls.append([end - start for start, end in unit.calls_ns])
    unit_ns = sum(min(cut) for cut in zip(*slices))
    return unit_ns / 1e9, [min(call) for call in zip(*calls)]


def end_to_end_values(units, bounds, setup_s: float):
    from repro.telemetry.metrics import nearest_rank

    unit_s, call_ns = fastest_slices(units, bounds)
    verdict = sorted(call_ns)
    values = {
        "setup_s": setup_s,
        "ops_per_s": units[0].ops / unit_s,
        "verdict_us_p50": nearest_rank(verdict, 50) / 1e3,
        "verdict_us_p99": nearest_rank(verdict, 99) / 1e3,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        **units[0].charged,
    }
    counts = {**units[0].sample_counts,
              "verdict_us_p50": len(verdict), "verdict_us_p99": len(verdict)}
    return values, counts


def per_layer_values(registry, walls, traced_units, traced_walls, tracer):
    from perfbench import ledger

    n = len(traced_units)
    spans = tracer.self_times("measure")

    def self_s(*names):
        return sum(spans.get(name, (0.0, 0))[0] for name in names) / n

    def calls(name):
        return spans.get(name, (0.0, 0))[1] / n

    counts = traced_units[0].counts
    monitor_s = self_s("monitor.fastpath", "monitor.decode",
                       "monitor.slowpath", "itccfg.check_batch")
    step_s = self_s("osmodel.step")
    insns = counts.get("cpu.insns", 0)
    traced_wall = sum(traced_walls) / 1e9
    covered = sum(cell[0] for cell in spans.values())
    values = {name: 0.0 for name in ledger.group_names(registry, "per_layer")}
    values.update(counts)
    values.update(
        {
            "osmodel.step_self_s": step_s,
            "cpu.ns_per_insn": step_s * 1e9 / insns if step_s else 0.0,
            "ipt.encoder_self_s": self_s("ipt.on_branch", "ipt.flush"),
            "monitor.fastpath_self_s": self_s("monitor.fastpath"),
            "monitor.decode_self_s": self_s("monitor.decode"),
            "monitor.slowpath_self_s": self_s("monitor.slowpath"),
            "monitor.us_per_check": (
                monitor_s * 1e6 / counts["monitor.checks"]
                if counts.get("monitor.checks") else 0.0
            ),
            "itccfg.check_batch_self_s": self_s("itccfg.check_batch"),
            "fleet.scheduler_self_s": self_s("fleet.scheduler"),
            "fleet.dispatch_self_s": self_s("fleet.dispatch"),
            "fleet.pool_self_s": self_s("fleet.pool"),
            "fleet.build_self_s": self_s("fleet.build"),
            "service.step_self_s": self_s("service.step"),
            "service.reload_s": (
                tracer.total_seconds("service.reload", "measure") / n
            ),
            "pipeline.offline_s": (
                tracer.total_seconds("pipeline.offline", "setup")
                / SETUP_REPEATS
            ),
            "trace.overhead_pct": (
                statistics.median(traced_walls) / statistics.median(walls)
                - 1.0
            ) * 100.0,
            "trace.unattributed_share": (
                (traced_wall - covered) / traced_wall
            ),
        }
    )
    if "ipt.branches" not in counts:
        values["ipt.branches"] = calls("ipt.on_branch")
    return values


def run_benchmark(workload_name: str, seed: int, seconds: float,
                  trace: bool, size: str = "full", out=sys.stdout,
                  expectation=None) -> int:
    """Run one workload; print samples and the result line to ``out``.

    Returns the process exit code.  ``expectation`` optionally edits the
    workload after set-up (the tests plant a wrong expectation there).
    """
    started = time.perf_counter()
    from perfbench import ledger
    from perfbench.tracer import SpanTracer
    from perfbench.workloads import SMOKE_SIZES, WORKLOADS
    from repro.ipt import scan_kernel

    scan_kernel.load()
    startup_s = time.perf_counter() - started

    registry = ledger.load_registry()
    kwargs = SMOKE_SIZES[workload_name] if size == "smoke" else {}
    workload = WORKLOADS[workload_name](seed, **kwargs)
    tracer = SpanTracer(trace_targets()) if trace else None

    setup_times = []
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    try:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - began)
    finally:
        if tracer is not None:
            tracer.phase = None
            tracer.uninstall()
    if expectation is not None:
        expectation(workload)

    untraced_s = seconds / 2 if trace else seconds
    units, bounds, walls = measure(workload, untraced_s)
    all_units = list(units)
    if tracer is not None:
        workload.time_verdicts = False
        with tracer:
            traced_units, _, traced_walls = measure(
                workload, seconds - untraced_s, tracer
            )
        all_units += traced_units

    failures = [f for unit in all_units for f in unit.failures]
    failures += consistency_failures(all_units)
    if len({len(unit.calls_ns) for unit in units}) > 1:
        # fastest_slices lines the units' timed calls up one to one.
        failures.append("timed call count differs between units")
    attempted = sum(unit.attempted for unit in all_units)

    setup_s = startup_s + statistics.median(setup_times)
    if tracer is None:
        values, sample_counts = end_to_end_values(units, bounds, setup_s)
    else:
        values = per_layer_values(
            registry, walls, traced_units, traced_walls, tracer
        )
        sample_counts = {}
    extra = {
        name: {"samples": str(count)}
        for name, count in sample_counts.items()
    }
    samples = ledger.make_samples(
        values, registry, workload_name, seed, extra
    )

    if failures:
        # A run whose outputs are wrong reports no figures at all.
        samples = []
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": bool(trace),
        "digest": units[0].digest,
        "units": len(all_units),
        "failures": failures,
        "samples": [s.to_dict() for s in samples],
    }
    if not failures:
        record["unit_wall_s"] = [w / 1e9 for w in walls]
        record["setup_runs_s"] = setup_times
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None and not failures:
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload_name}.jsonl.gz"))

    if samples:
        print(ledger.format_table(samples), file=sys.stderr)
    for sample in samples:
        print(json.dumps(sample.to_dict()), file=out)
    print(json.dumps({"workload": workload_name, "seed": seed,
                      "digest": units[0].digest}), file=out)
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": ledger.metrics_object(samples),
    }
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result), file=out)
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-knee", "replay-audit",
                                 "open-tenants"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        return run_benchmark(args.workload, args.seed, args.seconds,
                             bool(args.trace), size=args.size)
    except Exception:  # an untyped exception escaped the program
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
