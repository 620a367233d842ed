"""Structured tracing — nested spans over the debug pipeline.

A :class:`Tracer` records a tree of :class:`Span`s — run → stage →
round → probe/commit/SAT-solve/CEGIS-iteration — with attributes
(design digest, strategy, cache hit/miss, clauses learned, conflicts)
attached where the work happens.  Two consumers:

* :meth:`Tracer.write_chrome_trace` exports Chrome ``trace_event``
  JSON (``"X"`` complete events) loadable in Perfetto or
  ``chrome://tracing``;
* :func:`render_span_tree` (and :func:`render_chrome_tree` for a
  trace file read back from disk) prints the same hierarchy as a
  human-readable tree for ``python -m repro report``.

Arming is thread-local and cooperative, mirroring
:mod:`repro.resilience.budget`: instrumented code calls
:func:`maybe_span`, which is a single thread-local attribute read
returning a shared no-op context manager when no tracer is active —
the disarmed path stays bit-identical and effectively free.  The
pipeline's stage boundaries are captured without touching stage code
at all via :class:`TracingHooks`, an adapter over the existing
``PipelineHooks`` observer protocol.

Durations come from :func:`time.perf_counter_ns` (monotonic); wall
timestamps are recorded only at span boundaries, so exported traces
can never show negative or clock-skewed durations.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.errors import DeadlineExceeded

__all__ = [
    "Span",
    "Tracer",
    "TracingHooks",
    "active_tracer",
    "maybe_span",
    "render_chrome_tree",
    "render_span_tree",
    "set_active_tracer",
    "tracer_scope",
]

#: span statuses — ``open`` only appears when exporting a live tracer
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
OPEN = "open"


class Span:
    """One timed node in the trace tree."""

    __slots__ = ("name", "category", "attrs", "status", "start_ns",
                 "end_ns", "wall_start", "tid", "children")

    def __init__(self, name: str, category: str, attrs: dict,
                 tid: int) -> None:
        self.name = name
        self.category = category
        self.attrs = attrs
        self.status: str = OPEN
        self.start_ns = time.perf_counter_ns()
        self.end_ns: int | None = None
        #: wall clock at the span boundary only — never used for math
        self.wall_start = time.time()
        self.tid = tid
        self.children: list[Span] = []

    @property
    def duration_s(self) -> float:
        end = self.end_ns if self.end_ns is not None \
            else time.perf_counter_ns()
        return (end - self.start_ns) / 1e9

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "status": self.status,
            "duration_s": round(self.duration_s, 6),
            "wall_start": round(self.wall_start, 3),
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


def _status_for(etype) -> str:
    if etype is None:
        return OK
    if issubclass(etype, DeadlineExceeded):
        return TIMEOUT
    return ERROR


class _SpanScope:
    """Context manager pairing :meth:`Tracer.begin`/:meth:`Tracer.end`."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(
            self._name, category=self._category, **self._attrs
        )
        return self.span

    def __exit__(self, etype, exc, tb) -> bool:
        self._tracer.end(self.span, status=_status_for(etype))
        return False


class _NullScope:
    """Shared no-op returned by :func:`maybe_span` when disarmed."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, etype, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class Tracer:
    """Collects a span tree; safe for concurrent threads.

    Each thread keeps its own open-span stack; the finished tree and
    root list are shared under a lock.  ``listener``, when given, is
    called as ``listener(phase, span)`` with phase ``"start"``,
    ``"end"``, or ``"instant"`` (zero-duration point events) — the
    service worker uses it to stream span events over the daemon's
    ``events`` verb while the run is still in flight.
    """

    def __init__(self, listener=None) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []
        self.listener = listener
        self.epoch_ns = time.perf_counter_ns()
        self.wall_epoch = time.time()
        #: free-form payloads exported under ``otherData`` (profiles)
        self.extras: dict = {}

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def begin(self, name: str, category: str = "pipeline",
              **attrs) -> Span:
        span = Span(name, category, attrs, threading.get_ident())
        stack = self._stack()
        with self._lock:
            if stack:
                stack[-1].children.append(span)
            else:
                self.roots.append(span)
        stack.append(span)
        if self.listener is not None:
            self.listener("start", span)
        return span

    def end(self, span: Span | None = None, status: str = OK,
            **attrs) -> None:
        """Close ``span`` (default: the innermost open one).

        If inner spans were left open above ``span`` — an abandoned
        generator, an exception path that skipped a scope — they are
        closed with the same status so the stack never wedges.
        """
        stack = self._stack()
        while stack:
            top = stack.pop()
            top.end_ns = time.perf_counter_ns()
            if top is span or span is None:
                top.status = status
                top.attrs.update(attrs)
                if self.listener is not None:
                    self.listener("end", top)
                return
            top.status = status
            if self.listener is not None:
                self.listener("end", top)

    def span(self, name: str, category: str = "pipeline",
             **attrs) -> _SpanScope:
        return _SpanScope(self, name, category, attrs)

    def instant(self, name: str, category: str = "pipeline",
                **attrs) -> Span:
        """A zero-duration point event (e.g. a commit)."""
        span = Span(name, category, attrs, threading.get_ident())
        span.end_ns = span.start_ns
        span.status = OK
        stack = self._stack()
        with self._lock:
            if stack:
                stack[-1].children.append(span)
            else:
                self.roots.append(span)
        if self.listener is not None:
            self.listener("instant", span)
        return span

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def set_attrs(self, **attrs) -> None:
        span = self.current()
        if span is not None:
            span.attrs.update(attrs)

    def unwind(self, status: str) -> None:
        """Close every span still open on this thread (error paths)."""
        stack = self._stack()
        while stack:
            self.end(stack[-1], status=status)

    # -- export --------------------------------------------------------

    def _events(self) -> list[dict]:
        pid = os.getpid()
        events: list[dict] = []

        def emit(span: Span) -> None:
            end_ns = span.end_ns if span.end_ns is not None \
                else time.perf_counter_ns()
            args = dict(span.attrs)
            args["status"] = span.status
            event = {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": (span.start_ns - self.epoch_ns) / 1000.0,
                "dur": (end_ns - span.start_ns) / 1000.0,
                "pid": pid,
                "tid": span.tid,
                "args": args,
            }
            events.append(event)
            for child in span.children:
                emit(child)

        with self._lock:
            for root in self.roots:
                emit(root)
        return events

    def to_chrome_trace(self) -> dict:
        """The full trace as a Chrome ``trace_event`` JSON object."""
        other = {"wall_epoch": round(self.wall_epoch, 3)}
        other.update(self.extras)
        return {
            "traceEvents": self._events(),
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def write_chrome_trace(self, path: str) -> None:
        payload = json.dumps(self.to_chrome_trace(), indent=1,
                             sort_keys=True)
        if path == "-":
            sys.stdout.write(payload + "\n")
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


# -- thread-local arming ----------------------------------------------

_ACTIVE = threading.local()


def set_active_tracer(tracer: Tracer | None) -> None:
    _ACTIVE.tracer = tracer


def active_tracer() -> Tracer | None:
    return getattr(_ACTIVE, "tracer", None)


class tracer_scope:
    """``with tracer_scope(tracer):`` — arm for the dynamic extent."""

    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: Tracer | None) -> None:
        self._tracer = tracer
        self._prev: Tracer | None = None

    def __enter__(self) -> Tracer | None:
        self._prev = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, etype, exc, tb) -> bool:
        _ACTIVE.tracer = self._prev
        return False


def maybe_span(name: str, category: str = "pipeline", **attrs):
    """A span scope when a tracer is armed, a shared no-op otherwise.

    The disarmed cost is one thread-local attribute read — instrumented
    hot-ish paths (localizer probes, CEGIS iterations, SAT solves) stay
    effectively free by default.
    """
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return _NULL_SCOPE
    return _SpanScope(tracer, name, category, attrs)


def maybe_instant(name: str, category: str = "pipeline", **attrs) -> None:
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is not None:
        tracer.instant(name, category=category, **attrs)


def maybe_set_attrs(**attrs) -> None:
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is not None:
        tracer.set_attrs(**attrs)


# -- PipelineHooks adapter --------------------------------------------


class TracingHooks:
    """Adapts the ``PipelineHooks`` observer protocol onto a tracer.

    Structural duck-type of :class:`repro.api.pipeline.PipelineHooks`
    (not a subclass, to keep :mod:`repro.obs` import-cycle-free) that
    opens a span per stage and records probes/commits as point events,
    delegating every callback to ``inner`` so user hooks keep firing.

    ``on_stage_end`` fires inside ``run_timed_stage``'s ``finally``, so
    during exception unwind :func:`sys.exc_info` still names the
    in-flight exception — the stage span closes with status
    ``"timeout"`` for a tripped cooperative deadline and ``"error"``
    for anything else, with no pipeline signature changes.
    """

    def __init__(self, tracer: Tracer, inner=None) -> None:
        self.tracer = tracer
        self.inner = inner

    def on_stage_start(self, stage, ctx) -> None:
        self.tracer.begin(stage.name, category="stage")
        if self.inner is not None:
            self.inner.on_stage_start(stage, ctx)

    def on_stage_end(self, stage, ctx, seconds: float) -> None:
        try:
            if self.inner is not None:
                self.inner.on_stage_end(stage, ctx, seconds)
        finally:
            self.tracer.end(status=_status_for(sys.exc_info()[0]))

    def on_probe(self, ctx, step) -> None:
        if self.inner is not None:
            self.inner.on_probe(ctx, step)

    def on_commit(self, ctx, record) -> None:
        self.tracer.instant(
            "commit", category="route",
            description=record.description,
            cache_hit=record.cache_hit,
        )
        if self.inner is not None:
            self.inner.on_commit(ctx, record)


# -- rendering --------------------------------------------------------


def _render_node(lines: list[str], node: dict, prefix: str,
                 last: bool, root: bool) -> None:
    attrs = " ".join(
        f"{k}={v}" for k, v in sorted(node.get("attrs", {}).items())
    )
    # quantise to whole microseconds so the live render and the render
    # rebuilt from an exported trace file format identical numbers
    dur_ms = round(node.get("duration_s", 0.0), 6) * 1e3
    label = (f"{node['name']} [{node.get('status', '?')}] "
             f"{dur_ms:.1f}ms")
    if attrs:
        label += f"  {attrs}"
    if root:
        lines.append(label)
        child_prefix = ""
    else:
        lines.append(prefix + ("└─ " if last else "├─ ") + label)
        child_prefix = prefix + ("   " if last else "│  ")
    children = node.get("children", [])
    for i, child in enumerate(children):
        _render_node(lines, child, child_prefix,
                     i == len(children) - 1, root=False)


def render_span_tree(tracer: Tracer) -> str:
    """The tracer's span tree, one indented line per span."""
    lines: list[str] = []
    with tracer._lock:
        roots = [root.to_dict() for root in tracer.roots]
    for root in roots:
        _render_node(lines, root, "", True, root=True)
    return "\n".join(lines)


def render_chrome_tree(trace: dict) -> str:
    """Rebuild and render the span tree from a Chrome trace file.

    ``"X"`` events carry no explicit parentage — nesting is recovered
    per ``(pid, tid)`` lane by timestamp/duration containment, exactly
    how trace viewers draw them.
    """
    events = [e for e in trace.get("traceEvents", [])
              if e.get("ph") == "X"]
    lanes: dict[tuple, list[dict]] = {}
    for event in events:
        lanes.setdefault((event.get("pid"), event.get("tid")),
                         []).append(event)
    roots: list[dict] = []
    for key in sorted(lanes, key=str):
        lane = sorted(lanes[key],
                      key=lambda e: (e.get("ts", 0.0), -e.get("dur", 0.0)))
        stack: list[tuple[float, dict]] = []  # (end_ts, node)
        for event in lane:
            ts = float(event.get("ts", 0.0))
            dur = float(event.get("dur", 0.0))
            args = dict(event.get("args", {}))
            status = args.pop("status", "?")
            node = {
                "name": event.get("name", "?"),
                "status": status,
                "duration_s": dur / 1e6,
                "attrs": args,
                "children": [],
            }
            while stack and ts >= stack[-1][0] - 1e-9:
                stack.pop()
            if stack:
                stack[-1][1]["children"].append(node)
            else:
                roots.append(node)
            stack.append((ts + dur, node))
    lines: list[str] = []
    for root in roots:
        _render_node(lines, root, "", True, root=True)
    return "\n".join(lines)
