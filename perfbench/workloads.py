"""The benchmark's three workloads, driven through the public API.

Each workload is seeded, builds its inputs from the seed alone, and
exposes the same four steps to ``run.py``:

- ``setup()`` — one full set-up (offline phase for every server, fleet
  or tenant build, warm-up, capture); ``run.py`` repeats it and reports
  the median;
- ``reset()`` — untimed, before every measured unit: rebuild the shared
  server pipelines so every unit starts from the same trained state and
  repeats bit for bit;
- ``run_unit()`` — one measured unit of work, returning a
  :class:`UnitResult` with its charged metrics, per-layer counts,
  outcome digest and any failed output check;
- ``time_verdicts`` — whether to time each check call on the host clock
  (off during the traced run, whose spans time it instead).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

from repro import costs
from repro.experiments.common import (
    libraries,
    seed_server_fs,
    server_pipeline,
    training_corpus,
)
from repro.fleet.dispatcher import FleetDispatcher
from repro.ipt.encoder import IPTEncoder
from repro.itccfg.credits import CreditLabeledITC, EdgeLabel
from repro.itccfg.shardindex import build_flow_index
from repro.loadgen import (
    LoadScenario,
    build_load_service,
    builtin_scenario,
    summarize_load_point,
)
from repro.monitor.fastpath import FastPathChecker, Verdict
from repro.monitor.policy import FlowGuardPolicy
from repro.monitor.slowpath import SlowPathEngine
from repro.osmodel.kernel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.service import ServeConfig, TenantSpec, TraceCheckService
from repro.telemetry.metrics import nearest_rank
from repro.workloads import SERVER_BUILDERS, build_vdso

SERVERS = ("nginx", "exim", "vsftpd", "openssh")
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


@dataclass
class UnitResult:
    """One measured unit: what it did, on both clocks, and whether its
    outputs were right."""

    #: completed operations (requests or verdicted windows).
    ops: int
    #: operations the output checks covered.
    attempted: int
    digest: str
    charged: Dict[str, float]
    counts: Dict[str, float]
    #: (start, end) ``perf_counter_ns`` of every timed check call.
    calls_ns: List[Tuple[int, int]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: sample counts of the charged percentile metrics (labels).
    sample_counts: Dict[str, int] = field(default_factory=dict)


def rebuild_pipelines(servers: Sequence[str]) -> None:
    """Drop the shared server-pipeline cache and retrain ``servers``.

    Slow-path promotion mutates the cached pipelines in place, so a
    unit that starts from a freshly trained pipeline repeats exactly.
    """
    server_pipeline.cache_clear()
    for name in servers:
        server_pipeline(name)


@contextlib.contextmanager
def timed_calls(owner, attr: str, sink: Optional[List[Tuple[int, int]]]):
    """Append the (start, end) ``perf_counter_ns`` of every
    ``owner.attr`` call to ``sink`` (no-op when ``sink`` is None)."""
    if sink is None:
        yield
        return
    original = owner.__dict__[attr]

    def timed(*args, **kwargs):
        start = perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((start, perf_counter_ns()))

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _digest(parts) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True).encode()
    ).hexdigest()


# -- fleet accounting ----------------------------------------------------------


class FleetLedger:
    """Charged outcome of one or more completed fleet runs, pooled, plus
    the output checks every fleet must pass."""

    def __init__(self) -> None:
        self.offered = 0
        self.shed = 0
        self.completed = 0
        self.within_slo = 0
        self.latencies: List[float] = []
        self.makespan = 0.0
        self.app_cycles = 0.0
        self.idle_cycles = 0.0
        self.monitor_cycles = 0.0
        self.stall_cycles = 0.0
        self.tasks = 0
        self.lags: List[float] = []
        self.rounds = 0
        self.utilization: List[float] = []
        self.retries = 0
        self.dead_letters = 0
        self.dropped_checks = 0
        self.checks = 0
        self.fast_passes = 0
        self.slow_path_runs = 0
        self.decode_cycles = 0.0
        self.check_cycles = 0.0
        self.trace_cycles = 0.0
        self.pmis = 0
        self.edges_checked = 0
        self.low_credit_edges = 0
        self.trace_bytes = 0
        self.insns = 0
        self.digests: List[str] = []
        self.failures: List[str] = []

    def absorb(
        self, scenario: LoadScenario, service, tracker, attacked,
        result, summary, label: str,
    ) -> None:
        latencies = [r.latency for r in tracker.records if r.completed]
        self.offered += summary.offered
        self.shed += service.monitor.degradations.count("shed-load")
        self.completed += summary.completed
        self.within_slo += sum(
            1 for lat in latencies if lat <= scenario.slo_latency
        )
        self.latencies.extend(latencies)
        self.makespan += result.makespan
        self.app_cycles += result.app_cycles
        self.idle_cycles += tracker.total_idle_cycles
        self.monitor_cycles += result.monitor_cycles
        self.stall_cycles += result.stall_cycles
        tasks = service.dispatcher.tasks
        self.tasks += len(tasks)
        self.lags.extend(task.lag for task in tasks)
        self.retries += sum(task.attempts - 1 for task in tasks)
        self.rounds += result.rounds
        util = result.worker_utilization
        self.utilization.append(sum(util) / len(util) if util else 0.0)
        self.dead_letters += len(result.dead_letters or [])
        self.dropped_checks += result.dropped_checks
        for stats in service.monitor.all_stats():
            self.checks += stats.checks
            self.fast_passes += stats.fast_passes
            self.slow_path_runs += stats.slow_path_runs
            self.decode_cycles += stats.decode_cycles
            self.check_cycles += stats.check_cycles
            self.trace_cycles += stats.trace_cycles
            self.pmis += stats.pmi_count
            self.edges_checked += stats.edges_checked
            self.low_credit_edges += stats.low_credit_edges
        for entry in service.scheduler.entries:
            self.trace_bytes += entry.pp.topa.total_bytes_written
            self.insns += entry.proc.executor.insn_count
        self.digests.append(summary.digest)

        # -- output checks --------------------------------------------------
        if not summary.accounting_exact:
            self.failures.append(f"{label}: fleet cycle accounting inexact")
        if not summary.ledger_exact:
            self.failures.append(f"{label}: degradation ledger inexact")
        attacked_set = set(attacked)
        for event in result.quarantines:
            if event.pid in attacked_set:
                continue
            if scenario.faults is not None and event.reason.startswith(
                "dead-letter"
            ):
                continue  # fail-closed on a check injected faults lost
            self.failures.append(
                f"{label}: clean pid {event.pid} quarantined "
                f"({event.reason})"
            )
        for det in service.monitor.detections:
            if det.pid not in attacked_set:
                self.failures.append(
                    f"{label}: VIOLATION on clean pid {det.pid} "
                    f"({det.reason})"
                )
        missed = attacked_set - set(result.quarantined_pids)
        if missed:
            self.failures.append(
                f"{label}: planted attack not quarantined in {sorted(missed)}"
            )

    def charged(self) -> Dict[str, float]:
        lat = sorted(self.latencies)
        busy = max(self.app_cycles - self.idle_cycles, 1e-9)
        attempted = max(self.offered + self.shed, 1)
        return {
            "req_per_mcycle": self.completed / self.makespan * 1e6,
            "latency_p50_kcycles": nearest_rank(lat, 50) / 1e3,
            "latency_p95_kcycles": nearest_rank(lat, 95) / 1e3,
            "slo_attainment": self.within_slo / attempted,
            "overhead_pct": (
                (self.monitor_cycles + self.stall_cycles) / busy * 100.0
            ),
            "monitor_kcycles_per_check": (
                self.monitor_cycles / max(self.tasks, 1) / 1e3
            ),
            # Dead-lettered checks fail as well as unfinished requests.
            "completed_share": (
                max(self.completed - self.dead_letters, 0) / attempted
            ),
        }

    def substrate_counts(self) -> Dict[str, float]:
        return {
            "cpu.insns": self.insns,
            "cpu.app_mcycles": self.app_cycles / 1e6,
            "ipt.trace_bytes": self.trace_bytes,
            "ipt.pmis": self.pmis,
            "ipt.trace_mcycles": self.trace_cycles / 1e6,
        }

    def fleet_counts(self) -> Dict[str, float]:
        lags = sorted(self.lags)
        return {
            "fleet.rounds": self.rounds,
            "fleet.tasks": self.tasks,
            "fleet.check_lag_p50_kcycles": nearest_rank(lags, 50) / 1e3,
            "fleet.check_lag_p99_kcycles": nearest_rank(lags, 99) / 1e3,
            "fleet.stall_mcycles": self.stall_cycles / 1e6,
            "fleet.worker_utilization": (
                sum(self.utilization) / len(self.utilization)
                if self.utilization else 0.0
            ),
            "fleet.retries": self.retries,
            "fleet.dead_letters": self.dead_letters,
            "fleet.dropped_checks": self.dropped_checks,
        }

    def monitor_counts(self) -> Dict[str, float]:
        return {
            "monitor.checks": self.checks,
            "monitor.slow_path_runs": self.slow_path_runs,
            "monitor.fast_pass_ratio": (
                self.fast_passes / self.checks if self.checks else 0.0
            ),
            "monitor.decode_mcycles": self.decode_cycles / 1e6,
            "monitor.check_mcycles": self.check_cycles / 1e6,
            "itccfg.edges_checked": self.edges_checked,
            "itccfg.low_credit_edges": self.low_credit_edges,
        }

    def unit_result(self, calls_ns: List[Tuple[int, int]]) -> UnitResult:
        return UnitResult(
            ops=self.completed,
            attempted=self.offered + self.shed,
            digest=_digest(self.digests),
            charged=self.charged(),
            counts={
                **self.substrate_counts(),
                **self.fleet_counts(),
                **self.monitor_counts(),
            },
            calls_ns=calls_ns,
            failures=list(self.failures),
            sample_counts={
                "latency_p50_kcycles": len(self.latencies),
                "latency_p95_kcycles": len(self.latencies),
            },
        )


# -- closed-knee ---------------------------------------------------------------


class ClosedKnee:
    """Closed loop at the committed knee: ``nginx-closed``, 3 connections,
    ``points`` seeded load points per unit (9 requests each)."""

    name = "closed-knee"
    #: the committed knee of ``nginx-closed``.
    connections = 3

    def __init__(self, seed: int, points: int = 23):
        self.seed = seed
        self.points = points
        self.scenario = builtin_scenario("nginx-closed")
        self.time_verdicts = True

    def point_seeds(self) -> List[int]:
        return [self.seed * 1000 + k for k in range(self.points)]

    def setup(self) -> None:
        rebuild_pipelines(SERVERS)
        # Warm-up: one load point of this seed's shape.
        self._run_point(self.point_seeds()[0], FleetLedger())

    def reset(self) -> None:
        rebuild_pipelines(("nginx",))

    def _run_point(self, seed: int, ledger: FleetLedger) -> None:
        service, tracker, attacked = build_load_service(
            self.scenario, self.connections, seed=seed
        )
        result = service.run()
        summary = summarize_load_point(
            self.scenario, self.connections, service, tracker, attacked,
            result,
        )
        ledger.absorb(
            self.scenario, service, tracker, attacked, result, summary,
            label=f"point seed={seed}",
        )

    def run_unit(self) -> UnitResult:
        ledger = FleetLedger()
        calls_ns: Optional[List[Tuple[int, int]]] = (
            [] if self.time_verdicts else None
        )
        with timed_calls(FleetDispatcher, "submit", calls_ns):
            for seed in self.point_seeds():
                self._run_point(seed, ledger)
        return ledger.unit_result(calls_ns or [])


# -- replay-audit --------------------------------------------------------------


@dataclass
class Window:
    """One ToPA snapshot the live fast path received."""

    program: str
    pid: int
    data: bytes
    #: ground truth: the live, fully trained monitor flagged this
    #: window of a planted-ROP process as a violation.
    rop: bool


def copy_labels(labeled: CreditLabeledITC) -> CreditLabeledITC:
    """A private copy of the credit labels over the shared ITC-CFG, so
    promotions during one pass never leak into the next."""
    return CreditLabeledITC(
        itc=labeled.itc,
        labels={
            key: EdgeLabel(label.credit, set(label.tnt_patterns))
            for key, label in labeled.labels.items()
        },
        trained_entry_nodes=set(labeled.trained_entry_nodes),
    )


def undertrained_pipeline(program: str) -> FlowGuardPipeline:
    """The Fig. 5d under-training point: trained on the first input of
    the program's training corpus only."""
    return FlowGuardPipeline.offline(
        program,
        SERVER_BUILDERS[program](),
        libraries(),
        vdso=build_vdso(),
        corpus=training_corpus(program)[:1],
        mode="socket",
        kernel_setup=seed_server_fs,
    )


TYPED_VERDICTS = ("pass", "insufficient", "violation", "slow-pass",
                  "slow-violation")


def judge_windows(windows: Sequence[Window], verdicts: Sequence[str]) -> List[str]:
    """The replay output checks: planted-ROP windows are violations, no
    clean window is (the §4.2 zero-false-positive theorem), every clean
    SUSPICIOUS window passes the slow path, every verdict is typed."""
    failures = []
    if len(windows) != len(verdicts):
        return [f"{len(verdicts)} verdicts for {len(windows)} windows"]
    if not any(w.rop for w in windows):
        failures.append("no planted-ROP window was captured")
    for index, (window, verdict) in enumerate(zip(windows, verdicts)):
        where = f"window {index} ({window.program} pid {window.pid})"
        if verdict not in TYPED_VERDICTS:
            failures.append(f"{where}: untyped verdict {verdict!r}")
        elif window.rop and verdict not in ("violation", "slow-violation"):
            failures.append(f"{where}: planted ROP judged {verdict}")
        elif not window.rop and verdict == "violation":
            failures.append(f"{where}: clean window judged violation")
        elif not window.rop and verdict == "slow-violation":
            failures.append(f"{where}: clean SUSPICIOUS window failed "
                            "the slow path")
    return failures


class ReplayAudit:
    """Monitor-only replay of captured ToPA windows against under-trained
    pipelines, with fresh indexes every pass.

    With one checking stack per program and promotion on, only the first
    window to meet each untrained path takes the slow path: about 2% of
    the 1000-2000 windows, so p50 and p95 fall in the fast-path population and
    p99 inside the slow-path one, never on the boundary between them.
    """

    name = "replay-audit"

    def __init__(self, seed: int, connections: int = 130):
        self.seed = seed
        self.connections = connections
        # One request per connection puts the planted ROP first in its
        # connection, where the exploit hijacks control for every seed
        # (after a varied request it can fail to fire).
        self.scenario = LoadScenario(
            name="replay-capture",
            servers=SERVERS,
            sessions=1,
            attack_kind="rop",
            attack_count=1,
        )
        self.policy = FlowGuardPolicy()
        self.time_verdicts = True
        self.windows: List[Window] = []
        self.capture = FleetLedger()
        self.capture_branches = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        rebuild_pipelines(SERVERS)
        self.windows, self.capture = self._capture()
        self.undertrained = {
            name: undertrained_pipeline(name) for name in SERVERS
        }
        # A freshly loaded instance of each program: deterministic
        # module bases give the image and code pages the windows were
        # traced against.
        kernel = Kernel()
        seed_server_fs(kernel)
        self.hosts = {
            name: pipeline.spawn_unprotected(kernel)
            for name, pipeline in self.undertrained.items()
        }

    def _capture(self):
        captured = []
        branches = []
        original = FastPathChecker.__dict__["check"]

        def recording(checker, data):
            result = original(checker, data)
            captured.append((checker.owner_pid, data, result.verdict))
            return result

        FastPathChecker.check = recording
        try:
            # One entry per branch event: the count is ipt.branches.
            with timed_calls(IPTEncoder, "on_branch", branches):
                service, tracker, attacked = build_load_service(
                    self.scenario, self.connections, seed=self.seed
                )
                result = service.run()
        finally:
            FastPathChecker.check = original
        self.capture_branches = len(branches)
        summary = summarize_load_point(
            self.scenario, self.connections, service, tracker, attacked,
            result,
        )
        ledger = FleetLedger()
        ledger.absorb(
            self.scenario, service, tracker, attacked, result, summary,
            label="replay capture",
        )
        programs = {e.proc.pid: e.proc.name for e in service.scheduler.entries}
        attacked_set = set(attacked)
        windows = [
            Window(
                program=programs[pid],
                pid=pid,
                data=data,
                rop=pid in attacked_set and live is Verdict.VIOLATION,
            )
            for pid, data, live in captured
        ]
        return windows, ledger

    def reset(self) -> None:
        """Nothing shared is mutated: every pass builds its own indexes."""

    # -- one pass -------------------------------------------------------------

    def _fresh_checkers(self):
        """One checking stack per program, as the live monitor shares one
        trained pipeline (and its promotions) across a program's
        processes, built from a private copy of the under-trained labels."""
        policy = self.policy
        checkers = {}
        for program, pipeline in self.undertrained.items():
            labeled = copy_labels(pipeline.labeled)
            index = build_flow_index(
                labeled,
                edge_cache_entries=policy.edge_cache_entries,
                index_shards=policy.index_shards,
            )
            host = self.hosts[program]
            checker = FastPathChecker(
                index,
                host.image,
                pkt_count=policy.pkt_count,
                cred_ratio=policy.cred_ratio,
                require_cross_module=policy.require_cross_module,
                require_executable=policy.require_executable,
                engine=policy.engine,
            )
            slow = SlowPathEngine(host.machine.memory, pipeline.ocfg)
            checkers[program] = (labeled, index, checker, slow)
        return checkers

    def run_unit(self) -> UnitResult:
        checkers = self._fresh_checkers()
        verdicts: List[str] = []
        cycles: List[float] = []
        calls_ns: List[Tuple[int, int]] = []
        decode = check = 0.0
        slow_runs = fast_passes = edges = low_credit = 0
        upcall = costs.SLOWPATH_UPCALL_CYCLES
        for window in self.windows:
            labeled, index, checker, slow = checkers[window.program]
            start = perf_counter_ns()
            result = checker.check(window.data)
            verdict = result.verdict.value
            spent = (costs.MONITOR_INTERCEPT_CYCLES
                     + result.decode_cycles + result.search_cycles)
            if result.verdict is Verdict.SUSPICIOUS:
                outcome = slow.check(
                    result.slow_path_source(), window=result.window
                )
                if outcome.ok:
                    verdict = "slow-pass"
                    if self.policy.cache_slow_path_negatives:
                        for src, dst, tnt in outcome.confirmed_pairs:
                            labeled.promote(src, dst, tnt)
                            index.promote(src, dst, tnt)
                else:
                    verdict = "slow-violation"
            else:
                outcome = None
            end = perf_counter_ns()
            calls_ns.append((start, end))
            decode += result.decode_cycles
            check += result.search_cycles
            edges += result.checked_pairs
            low_credit += len(result.low_credit_pairs)
            if outcome is not None:
                slow_runs += 1
                slow_decode = (outcome.insns_decoded
                               * costs.FULL_DECODE_CYCLES_PER_INSN)
                decode += slow_decode
                check += max(0.0, outcome.cycles - upcall - slow_decode)
                spent += outcome.cycles
            elif verdict in ("pass", "insufficient"):
                fast_passes += 1
            verdicts.append(verdict)
            cycles.append(spent)

        n = len(self.windows)
        total = sum(cycles)
        ordered = sorted(cycles)
        capture = self.capture
        busy = max(capture.app_cycles - capture.idle_cycles, 1e-9)
        charged = {
            "req_per_mcycle": n / total * 1e6,
            "latency_p50_kcycles": nearest_rank(ordered, 50) / 1e3,
            "latency_p95_kcycles": nearest_rank(ordered, 95) / 1e3,
            "slo_attainment": (
                sum(1 for c in cycles if c <= self.scenario.slo_latency) / n
            ),
            "overhead_pct": total / busy * 100.0,
            "monitor_kcycles_per_check": total / n / 1e3,
            "completed_share": (
                sum(1 for v in verdicts if v in TYPED_VERDICTS) / n
            ),
        }
        counts = {
            # Substrate and fleet counts describe the capture run whose
            # trace this pass replays; the pass itself runs neither.
            **capture.substrate_counts(),
            **capture.fleet_counts(),
            "ipt.branches": self.capture_branches,
            "monitor.checks": n,
            "monitor.slow_path_runs": slow_runs,
            "monitor.fast_pass_ratio": fast_passes / n,
            "monitor.decode_mcycles": decode / 1e6,
            "monitor.check_mcycles": check / 1e6,
            "itccfg.edges_checked": edges,
            "itccfg.low_credit_edges": low_credit,
        }
        failures = list(capture.failures) + judge_windows(
            self.windows, verdicts
        )
        return UnitResult(
            ops=n,
            attempted=n,
            digest=_digest(
                [verdicts, [round(c, 6) for c in cycles]]
            ),
            charged=charged,
            counts=counts,
            calls_ns=calls_ns if self.time_verdicts else [],
            failures=failures,
            sample_counts={
                "latency_p50_kcycles": n,
                "latency_p95_kcycles": n,
            },
        )


# -- open-tenants --------------------------------------------------------------


@dataclass
class SizedTenant(TenantSpec):
    """A tenant whose scenario's session count can be overridden."""

    sessions: Optional[int] = None

    def resolve(self) -> LoadScenario:
        scenario = super().resolve()
        if self.sessions is None:
            return scenario
        return replace(scenario, sessions=self.sessions)


class OpenTenants:
    """Two open-loop tenants on one ``TraceCheckService``: a clean tenant
    over all four servers and a noisy faulted, throttled, reloading one.

    ``sessions`` optionally overrides each tenant's sessions per
    connection (the benchmark's tests run tiny tenants)."""

    name = "open-tenants"

    def __init__(self, seed: int, sessions: Optional[Dict[str, int]] = None,
                 reload_at_round: int = 120):
        self.seed = seed
        self.sessions = sessions or {}
        self.reload_at_round = reload_at_round
        self.fault_plan = builtin_scenario("faulted-closed").faults
        self.time_verdicts = True

    def config(self) -> ServeConfig:
        def scenario(name: str) -> str:
            return os.path.join(SCENARIO_DIR, f"{name}.json")

        return ServeConfig(
            name="open-tenants",
            tenants=(
                SizedTenant(
                    name="clean",
                    scenario=scenario("clean-open"),
                    connections=4,
                    seed=self.seed,
                    sessions=self.sessions.get("clean"),
                ),
                SizedTenant(
                    name="noisy",
                    scenario=scenario("noisy-open"),
                    sessions=self.sessions.get("noisy"),
                    connections=2,
                    seed=self.seed + 1,
                    # The seed reshapes the request mix only: the
                    # faulted-closed plan, its own fault seed kept, holds
                    # the number of injected faults per run steady.
                    faults=self.fault_plan,
                    quota_rate=0.5,
                    quota_burst=4_000.0,
                    reload_at_round=self.reload_at_round,
                ),
            ),
        )

    def setup(self) -> None:
        rebuild_pipelines(SERVERS)
        # Tenant build (kernels, fleets, trackers); serving happens in
        # the measured units.
        TraceCheckService(self.config())

    def reset(self) -> None:
        rebuild_pipelines(SERVERS)

    def run_unit(self) -> UnitResult:
        calls_ns: Optional[List[Tuple[int, int]]] = (
            [] if self.time_verdicts else None
        )
        with timed_calls(FleetDispatcher, "submit", calls_ns):
            service = TraceCheckService(self.config())
            served = asyncio.run(service.serve())
        ledger = FleetLedger()
        throttles = 0
        for rt in service.runtimes:
            ledger.absorb(
                rt.scenario, rt.fleet, rt.tracker, rt.attacked,
                rt.result(), rt.summary(), label=f"tenant {rt.name}",
            )
            throttles += rt.fleet.monitor.degradations.count("throttle")
            if rt.registry.undrained:
                ledger.failures.append(
                    f"tenant {rt.name}: {rt.registry.undrained} pipeline "
                    "versions never drained"
                )
        noisy = service.runtime("noisy")
        if len(noisy.registry.versions) < 1:
            ledger.failures.append("tenant noisy: hot reload never ran")
        unit = ledger.unit_result(calls_ns or [])
        unit.counts.update(
            {
                "service.throttles": throttles,
                "service.shed": ledger.shed,
                "service.fairness_spread": served.fairness()["spread"],
            }
        )
        return unit


WORKLOADS = {
    ClosedKnee.name: ClosedKnee,
    ReplayAudit.name: ReplayAudit,
    OpenTenants.name: OpenTenants,
}

#: smaller shapes for the benchmark's own tests.
SMOKE_SIZES = {
    ClosedKnee.name: {"points": 2},
    ReplayAudit.name: {"connections": 8},
    OpenTenants.name: {"sessions": {"clean": 2, "noisy": 3},
                       "reload_at_round": 10},
}
