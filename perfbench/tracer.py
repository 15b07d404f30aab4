"""Layer spans recorded from the benchmark's own files.

:class:`SpanTracer` wraps the public entry point of each layer (a method
of the layer's class) in a recorder that keeps one span per call
as ``(name, start_ns, end_ns, parent)`` in memory.  Nothing under
``src/`` changes: the wrappers are installed on the classes for the
traced phase only and the original attributes are put back afterwards.

A span's *self* time is its duration minus the durations of the spans
nested directly inside it, so the self times of all layers sum to the
time covered by top-level spans and never count a nanosecond twice.
"""

from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: (layer span name, owner, attribute) — what the traced run wraps.
Target = Tuple[str, object, str]


class SpanTracer:
    """In-memory span recorder over monkeypatched layer entry points."""

    def __init__(self, targets: List[Target]) -> None:
        self.targets = list(targets)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: one tuple per finished call: (name_id, start, end, parent, phase).
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: spans are recorded only while a phase is open.
        self.phase: Optional[str] = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for name, owner, attr in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_descriptor(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_descriptor(self, name: str, original):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))
        return self._wrap(name, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent, phase)

        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self, phase: str) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over one phase."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            if span is None or span[4] != phase:
                continue
            cell = out.setdefault(self.names[span[0]], [0.0, 0])
            cell[0] += (span[2] - span[1] - child_ns[index]) / 1e9
            cell[1] += 1
        return {name: (cell[0], cell[1]) for name, cell in out.items()}

    def total_seconds(self, name: str, phase: str) -> float:
        """Inclusive time of every ``name`` span in ``phase``."""
        name_id = self._name_ids.get(name)
        return sum(
            (span[2] - span[1]) / 1e9
            for span in self.spans
            if span is not None and span[0] == name_id and span[4] == phase
        )

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": self.names[span[0]],
                            "start_ns": span[1],
                            "end_ns": span[2],
                            "parent": span[3],
                            "phase": span[4],
                        }
                    )
                )
                fh.write("\n")
