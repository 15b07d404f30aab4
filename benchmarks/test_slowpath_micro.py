"""Bench S3 — block-granular slow-path micro-benchmark.

Runs the slow path (full decode + shadow stack + forward-edge checks)
over every PSB-anchored window of a captured nginx ToPA trace, the
hand-off ``FastPathResult.slow_path_source`` gives it, three ways:

- *cold*: a fresh engine, so every block is disassembled on first use;
- *warm*: the same engine again, every block already in its table;
- *oracle*: the per-instruction walk (``tests/oracles``) the block walk
  replaced.

Verdicts and charged cycles must be identical across all three — the
cost model charges per instruction however the walk is organised.  The
wall-clock floor asserted here is deliberately loose because CI
machines are noisy.
"""

import time

from conftest import run_once

from repro.experiments import micro
from repro.ipt.columnar import ColumnarSlowSource, columnar_decode_parallel
from repro.monitor.slowpath import SlowPathEngine
from tests.oracles.instruction_walk import decode_per_instruction

REPEATS = 3
#: loose wall-clock floor for CI: the cold block walk vs the oracle.
MIN_SPEEDUP = 1.5


class _OracleDecoder:
    """The per-instruction walk behind the slow path's decoder seam."""

    def __init__(self, memory) -> None:
        self.memory = memory

    def decode(self, packets):
        return decode_per_instruction(self.memory, packets)


def _fingerprint(result):
    return (result.ok, result.reason, result.violation_addr, result.cycles,
            result.insns_decoded, result.shadow_cycles)


def _check_all(engine, windows):
    return [_fingerprint(engine.check(window)) for window in windows]


def _measure():
    pipeline, proc, data = micro.capture_trace()
    memory = proc.machine.memory
    columns = columnar_decode_parallel(data, sync=True).columns
    windows = [ColumnarSlowSource(columns[k:]) for k in range(len(columns))]

    oracle = SlowPathEngine(memory, pipeline.ocfg)
    oracle._decoder = _OracleDecoder(memory)
    start = time.perf_counter()
    expected = _check_all(oracle, windows)
    best = {"oracle": time.perf_counter() - start,
            "cold": float("inf"), "warm": float("inf")}
    # Best-of for the block walk: a fresh engine per repeat.
    for _ in range(REPEATS):
        engine = SlowPathEngine(memory, pipeline.ocfg)
        for lane in ("cold", "warm"):
            start = time.perf_counter()
            got = _check_all(engine, windows)
            best[lane] = min(best[lane], time.perf_counter() - start)
            assert got == expected, lane
    return {
        "windows": len(windows),
        "insns": sum(row[4] for row in expected),
        "wall_s": best,
    }


def test_block_walk_faster_same_verdicts_and_cycles(benchmark):
    row = run_once(benchmark, _measure)
    wall = row["wall_s"]
    print(
        f"\nslow path over {row['windows']} windows "
        f"({row['insns']} instructions charged): "
        f"oracle {wall['oracle'] * 1e3:.2f} ms, "
        f"cold blocks {wall['cold'] * 1e3:.2f} ms, "
        f"warm blocks {wall['warm'] * 1e3:.2f} ms"
    )
    assert row["insns"] > 0
    assert wall["oracle"] / wall["cold"] >= MIN_SPEEDUP
