"""One sample schema for every benchmark metric.

Every number the benchmark reports is a :class:`Sample` — ``(metric,
value, unit, labels)``, the PerfKitBenchmarker ``sample`` idiom.  The
metric names and units come from ``BENCHMARK.json``; the clock, layer
and meaning of each come from ``layer_map.json``.  A sample cannot be
emitted under a name or unit ``BENCHMARK.json`` does not list.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, Iterable, List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
LAYER_MAP_PATH = os.path.join(HERE, "layer_map.json")
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class Sample(NamedTuple):
    metric: str
    value: float
    unit: str
    labels: Dict[str, str]

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "labels": dict(self.labels),
        }


def load_registry() -> dict:
    """The layer map, its ``metrics`` table keyed and ordered as in
    ``BENCHMARK.json``, each entry given the unit and group
    (``end_to_end`` or ``per_layer``) listed there."""
    with open(LAYER_MAP_PATH, encoding="utf-8") as fh:
        layer_map = json.load(fh)
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {}
    for group in ("end_to_end", "per_layer"):
        for entry in bench[group]:
            metrics[entry["name"]] = {
                **layer_map["metrics"][entry["name"]],
                "unit": entry["unit"],
                "group": group,
            }
    unlisted = set(layer_map["metrics"]) - set(metrics)
    if unlisted:
        raise ValueError(
            f"layer_map.json metrics not in BENCHMARK.json: {sorted(unlisted)}"
        )
    return {**layer_map, "metrics": metrics}


def group_names(registry: dict, group: str) -> List[str]:
    return [
        name for name, spec in registry["metrics"].items()
        if spec["group"] == group
    ]


def environment_labels() -> Dict[str, str]:
    """Labels every sample carries: what the numbers were measured on."""
    from repro.ipt.columnar import scan_kernel_active

    return {
        "scan_kernel": "on" if scan_kernel_active() else "off",
        "python": platform.python_version(),
        "nproc": str(os.cpu_count() or 1),
    }


def make_samples(
    values: Dict[str, float],
    registry: dict,
    workload: str,
    seed: int,
    extra: Dict[str, Dict[str, str]] = None,
) -> List[Sample]:
    """Samples for ``values`` labelled from the registry."""
    env = environment_labels()
    out = []
    for name, value in values.items():
        spec = registry["metrics"][name]
        labels = {
            "workload": workload,
            "seed": str(seed),
            "clock": spec["clock"],
            "layer": spec["layer"],
            **env,
            **((extra or {}).get(name, {})),
        }
        out.append(Sample(name, float(value), spec["unit"], labels))
    return out


def metrics_object(samples: Iterable[Sample]) -> Dict[str, dict]:
    """The ``metrics`` member of the result line."""
    return {s.metric: {"value": s.value, "unit": s.unit} for s in samples}


def format_table(samples: Iterable[Sample]) -> str:
    """Every metric by name with its unit, one per line."""
    rows = [
        f"{s.metric:<30} {s.value:>16.6g} {s.unit:<11} "
        f"[{s.labels['clock']}/{s.labels['layer']}]"
        for s in samples
    ]
    return "\n".join(rows)
