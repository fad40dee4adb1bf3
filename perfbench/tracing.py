"""In-memory spans around the benchmark's calls into vneap.

A span records one public call: its name (``<layer>.<call>``), the span
that caused it, the workload, the phase and its index (see
:meth:`Tracer.at`), and wall (``time.perf_counter``) and CPU
(``time.process_time``) start and end.  Spans stay in memory while the benchmark runs and are
written once, at the end, by :func:`write_spans`.

A disabled tracer records nothing, so the untraced run only pays for
one attribute test per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    workload: str
    phase: str
    repetition: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self.phase = "setup"
        self.repetition = 0
        self._open: list[Span] = []

    def at(self, phase: str, repetition: int) -> None:
        """Tag the spans that follow with a phase (``setup`` or
        ``measure``) and an index: the round, which is also the index of
        the instance built or used."""
        self.phase = phase
        self.repetition = repetition

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1].id if self._open else None,
            workload=self.workload,
            phase=self.phase,
            repetition=self.repetition,
            start=time.perf_counter(),
            cpu_start=time.process_time(),
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield
        finally:
            s.cpu_end = time.process_time()
            s.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Span id -> (wall, CPU) self time: the span's duration minus the
    part of its interval that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = sorted(children.get(s.id, ()), key=lambda k: k.start)
        covered = 0.0
        reach = s.start
        for k in kids:
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        cpu_covered = sum(k.cpu_s for k in kids)
        out[s.id] = (s.wall_s - covered, s.cpu_s - cpu_covered)
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    selfs = self_times(spans)
    rows = []
    for s in spans:
        row = asdict(s)
        row.update(
            wall_s=s.wall_s,
            cpu_s=s.cpu_s,
            self_s=selfs[s.id][0],
            self_cpu_s=selfs[s.id][1],
        )
        rows.append(row)
    path.write_text(json.dumps(rows, indent=1) + "\n")
