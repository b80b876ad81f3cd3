"""Execution tracing: spans over simulated time, Chrome-trace export.

A :class:`Tracer` collects named spans (category, name, start, end, lane)
as components execute; :meth:`Tracer.to_chrome_trace` serializes them in
the Chrome trace-event format, so a pipeline run can be inspected in
``chrome://tracing`` / Perfetto — alloc, load, decrypt and compute
operators on their hardware lanes, exactly like the paper's Fig. 5
timelines.  Flow events (``ph: s/t/f``) bind spans across lanes: a
serving-gateway arrival can be followed into the TEE compute lane that
served it.

Tracing is opt-in and zero-cost when disabled (the default tracer is a
no-op singleton with full API parity, so instrumented code never needs
an ``if tracer`` guard).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

from ..errors import ConfigurationError
from .core import Simulator

__all__ = [
    "Span",
    "CounterSample",
    "Instant",
    "FlowEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

_FLOW_PHASES = ("s", "t", "f")


@dataclass(frozen=True)
class Span:
    category: str
    name: str
    start: float
    end: float
    lane: str = "main"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CounterSample:
    """One sample of a time-varying gauge (queue depth, utilization)."""

    name: str
    at: float
    value: float


@dataclass(frozen=True)
class Instant:
    """A point event (e.g. a shed request) on a lane."""

    category: str
    name: str
    at: float
    lane: str = "main"


@dataclass(frozen=True)
class FlowEvent:
    """One leg of a cross-lane flow: start (s), step (t), or finish (f).

    Chrome binds the legs by ``flow_id`` + ``name``; the viewer draws an
    arrow from each leg to the next through the enclosing spans.
    """

    phase: str
    flow_id: int
    name: str
    at: float
    lane: str = "main"
    category: str = "flow"


class Tracer:
    """Collects spans against a simulator's clock."""

    enabled = True

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.spans: List[Span] = []
        self.counters: List[CounterSample] = []
        self.instants: List[Instant] = []
        self.flows: List[FlowEvent] = []

    # ------------------------------------------------------------------
    def record(self, category: str, name: str, start: float, lane: str = "main") -> None:
        """Record a span from ``start`` to now."""
        end = self.sim.now
        if end < start:
            raise ConfigurationError("span ends before it starts")
        self.spans.append(Span(category, name, start, end, lane))

    def span(self, category: str, name: str, lane: str = "main") -> "_SpanHandle":
        """Open a span handle; close it explicitly or use as a ``with`` block."""
        return _SpanHandle(self, category, name, lane, self.sim.now)

    def counter(self, name: str, value: float) -> None:
        """Sample a gauge at the current simulated time."""
        self.counters.append(CounterSample(name, self.sim.now, float(value)))

    def instant(self, category: str, name: str, lane: str = "main") -> None:
        """Record a point event at the current simulated time."""
        self.instants.append(Instant(category, name, self.sim.now, lane))

    def flow(
        self,
        phase: str,
        flow_id: int,
        name: str,
        lane: str = "main",
        category: str = "flow",
    ) -> None:
        """Record one flow leg at the current simulated time.

        ``phase`` is ``"s"`` (start), ``"t"`` (step), or ``"f"``
        (finish); legs sharing ``flow_id`` and ``name`` are linked.
        """
        if phase not in _FLOW_PHASES:
            raise ConfigurationError("flow phase must be one of s/t/f, got %r" % (phase,))
        self.flows.append(FlowEvent(phase, flow_id, name, self.sim.now, lane, category))

    # ------------------------------------------------------------------
    def lanes(self) -> List[str]:
        lanes = {span.lane for span in self.spans}
        lanes.update(inst.lane for inst in self.instants)
        lanes.update(flow.lane for flow in self.flows)
        return sorted(lanes)

    def total_time(self, category: str) -> float:
        return sum(span.duration for span in self.spans if span.category == category)

    def to_chrome_trace(self) -> str:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto).

        Simulated seconds map to trace microseconds 1:1e6; lanes become
        thread ids of one process, named by metadata events stamped at
        ts 0 so every event carries a timestamp.  Flow legs ride on their
        lane's tid so the viewer binds them to the enclosing spans.
        """
        lane_ids: Dict[str, int] = {lane: i + 1 for i, lane in enumerate(self.lanes())}
        events = []
        for lane, tid in lane_ids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "ts": 0,
                    "name": "thread_name",
                    "args": {"name": lane},
                }
            )
        for span in self.spans:
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": lane_ids[span.lane],
                    "cat": span.category,
                    "name": span.name,
                    "ts": span.start * 1e6,
                    "dur": max(0.001, span.duration * 1e6),
                }
            )
        for inst in self.instants:
            events.append(
                {
                    "ph": "i",
                    "pid": 1,
                    "tid": lane_ids[inst.lane],
                    "cat": inst.category,
                    "name": inst.name,
                    "ts": inst.at * 1e6,
                    "s": "t",
                }
            )
        for flow in self.flows:
            event = {
                "ph": flow.phase,
                "pid": 1,
                "tid": lane_ids[flow.lane],
                "cat": flow.category,
                "name": flow.name,
                "id": flow.flow_id,
                "ts": flow.at * 1e6,
            }
            if flow.phase == "f":
                # Bind the finish to the enclosing slice's end.
                event["bp"] = "e"
            events.append(event)
        for sample in self.counters:
            events.append(
                {
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "name": sample.name,
                    "ts": sample.at * 1e6,
                    "args": {"value": sample.value},
                }
            )
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_trace())


class _SpanHandle:
    __slots__ = ("tracer", "category", "name", "lane", "start", "closed")

    def __init__(self, tracer: Tracer, category: str, name: str, lane: str, start: float):
        self.tracer = tracer
        self.category = category
        self.name = name
        self.lane = lane
        self.start = start
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.tracer.record(self.category, self.name, self.start, self.lane)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullTracer:
    """The do-nothing default: tracing costs nothing unless requested.

    Mirrors the full :class:`Tracer` surface — including the read-side
    (``lanes``, ``total_time``, ``spans``/``counters``/``instants``/
    ``flows``, ``to_chrome_trace``) — so code written against a real
    tracer runs unchanged against the default.  The collection
    attributes are shared empty tuples: nothing is ever allocated.
    """

    enabled = False
    sim = None

    # Shared immutable empties — the zero-allocation guarantee.
    spans = ()
    counters = ()
    instants = ()
    flows = ()

    def record(self, category, name, start, lane="main") -> None:
        pass

    def span(self, category, name, lane="main") -> "_NullHandle":
        return _NULL_HANDLE

    def counter(self, name, value) -> None:
        pass

    def instant(self, category, name, lane="main") -> None:
        pass

    def flow(self, phase, flow_id, name, lane="main", category="flow") -> None:
        pass

    def lanes(self) -> List[str]:
        return []

    def total_time(self, category) -> float:
        return 0.0

    def to_chrome_trace(self) -> str:
        return json.dumps({"traceEvents": [], "displayTimeUnit": "ms"})

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_trace())


class _NullHandle:
    __slots__ = ()

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_HANDLE = _NullHandle()
NULL_TRACER = NullTracer()
