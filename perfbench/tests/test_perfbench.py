"""Smoke-sized tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.ledger import group_names, load_registry
from perfbench.tracer import SpanTracer
from perfbench.workloads import (
    SMOKE_SIZES,
    WORKLOADS,
    Window,
    judge_windows,
)

WORKLOAD_NAMES = sorted(WORKLOADS)


def bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke_run(workload, seed=3, trace=False, expectation=None):
    out = io.StringIO()
    code = run.run_benchmark(workload, seed, 0, trace, size="smoke",
                             out=out, expectation=expectation)
    lines = out.getvalue().strip().splitlines()
    return code, [json.loads(line) for line in lines]


def smoke_unit(workload, seed):
    """One set-up and one measured unit, at smoke size."""
    bench = WORKLOADS[workload](seed, **SMOKE_SIZES[workload])
    bench.setup()
    bench.reset()
    return bench.run_unit()


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_the_metric_registry():
    bench = bench_json()
    registry = load_registry()  # raises on a metric BENCHMARK.json lacks
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == [
        "closed-knee", "replay-audit", "open-tenants"]
    assert group_names(registry, "end_to_end") == [
        m["name"] for m in bench["end_to_end"]]
    for spec in registry["metrics"].values():
        assert spec["clock"] in ("host", "charged") and spec["layer"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_prediction_names_registered_metrics():
    registry = load_registry()
    for entry in registry["predictions"]:
        for name in entry["layer_metrics"] + entry["end_to_end"]:
            assert name in registry["metrics"], name
        for workload in entry["moves_on"] + entry["no_change_on"]:
            assert workload in registry["workloads"], workload


# -- every workload emits every named metric ---------------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    code, records = smoke_run(workload, trace=trace)
    result = records[-1]
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = bench_json()
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {name: cell["unit"] for name, cell in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    samples = [r for r in records if "metric" in r]
    assert {s["metric"] for s in samples} == set(result["metrics"])
    for sample in samples:
        labels = sample["labels"]
        assert labels["workload"] == workload
        assert labels["clock"] in ("host", "charged")
        assert {"seed", "layer", "scan_kernel", "python", "nproc"} <= set(labels)
    if trace:
        # Layer self times reconcile with traced wall: nothing counted
        # twice, and at most 10% of the wall outside every layer.
        share = result["metrics"]["trace.unattributed_share"]["value"]
        assert -0.001 <= share <= 0.10
    else:
        for name in ("ops_per_s", "setup_s", "verdict_us_p50",
                     "latency_p50_kcycles", "req_per_mcycle"):
            assert result["metrics"][name]["value"] > 0


# -- output checks ------------------------------------------------------------


def test_a_rop_window_marked_clean_fails_the_run():
    def mislabel(workload):
        rop = next(w for w in workload.windows if w.rop)
        rop.rop = False

    code, records = smoke_run("replay-audit", expectation=mislabel)
    result = records[-1]
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert not [r for r in records if "metric" in r]


def test_judge_windows_enforces_the_zero_false_positive_theorem():
    rop = Window("nginx", 1, b"", rop=True)
    clean = Window("exim", 2, b"", rop=False)
    assert judge_windows([rop, clean], ["violation", "pass"]) == []
    assert judge_windows([rop, clean], ["violation", "slow-pass"]) == []
    assert judge_windows([rop, clean], ["pass", "pass"])  # missed ROP
    assert judge_windows([rop, clean], ["violation", "violation"])
    assert judge_windows([rop, clean], ["violation", "slow-violation"])
    assert judge_windows([clean], ["pass"])  # no ROP captured at all
    assert judge_windows([rop, clean], ["violation", "maybe"])


# -- determinism record -------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_the_seed_alone_fixes_digest_and_charged_metrics(workload):
    first = smoke_unit(workload, seed=5)
    again = smoke_unit(workload, seed=5)
    other = smoke_unit(workload, seed=6)
    assert first.failures == [] and other.failures == []
    assert again.digest == first.digest
    assert again.charged == first.charged
    assert again.counts == first.counts
    assert other.digest != first.digest
    assert other.charged != first.charged


def test_separate_processes_agree_on_the_digest():
    def digest_line():
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", "closed-knee", "--seed", "7", "--seconds", "0",
             "--trace", "0", "--size", "smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(l) for l in proc.stdout.strip().splitlines()]
        digest = next(r for r in records if "digest" in r)["digest"]
        charged = {
            r["metric"]: r["value"] for r in records
            if "metric" in r and r["labels"]["clock"] == "charged"
        }
        return digest, charged

    assert digest_line() == digest_line()


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-knee",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracer -------------------------------------------------------------------


class _Layers:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return "done"

    def inner(self):
        return sum(range(2000))


def test_span_self_times_subtract_nested_spans():
    tracer = SpanTracer([("outer", _Layers, "outer"),
                         ("inner", _Layers, "inner")])
    layers = _Layers()
    with tracer:
        tracer.phase = "measure"
        assert layers.outer(5) == "done"
        tracer.phase = None
        layers.inner()  # outside any phase: not recorded
    assert not hasattr(_Layers.__dict__["outer"], "__wrapped__")
    times = tracer.self_times("measure")
    assert times["inner"][1] == 5 and times["outer"][1] == 1
    outer_total = tracer.total_seconds("outer", "measure")
    inner_total = tracer.total_seconds("inner", "measure")
    assert times["outer"][0] == pytest.approx(outer_total - inner_total)
    assert times["inner"][0] == pytest.approx(inner_total)


def test_fastest_slices_keep_each_slice_of_its_fastest_unit():
    from types import SimpleNamespace

    # Two units of the same work: interference slows the first slice of
    # unit a, and the second call and last slice of unit b.
    a = SimpleNamespace(calls_ns=[(130, 140), (150, 160)])
    b = SimpleNamespace(calls_ns=[(1010, 1020), (1030, 1060)])
    unit_s, calls = run.fastest_slices([a, b], [(100, 170), (1000, 1100)])
    # Slices: start->call 1 (30 | 10), call 1->call 2 (20 | 20),
    # call 2->end (20 | 70).
    assert unit_s == pytest.approx((10 + 20 + 20) / 1e9)
    assert calls == [10, 10]
