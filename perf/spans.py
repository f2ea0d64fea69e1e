"""The traced run: spans around every call into a repro layer.

Spans are recorded only from this benchmark's own code, never inside
``src/``: a :class:`~repro.simulation.engine.Simulator` subclass wraps
each scheduled callback and times ``at``/``call_at``/``reserve_inline``;
delegating proxies wrap the scheduler's ``enqueue``/``dequeue``/
``on_service_complete``, the metrics hub and the arrival stream; a
``Tracer`` subclass wraps the tracer hooks; and ingress callables and
departure hooks are wrapped where the workload hands them out.

Every span is named ``<layer>.<function>``, where the layer is the
``repro`` subpackage that defines the timed function (``simulation``,
``core``, ``servers``, ``tracing``, ``metrics``, ``traffic``,
``transport``) or ``harness`` for the workload's own callbacks. A
layer's self time is its spans' durations minus their child spans; the
engine's own loop is the ``sim.run()`` wall time minus the top-level
spans and is booked to ``simulation``. So the layer self times add up
to the traced wall time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.simulation.engine import Simulator
from repro.simulation.tracing import Tracer

LAYERS = (
    "simulation",
    "core",
    "servers",
    "tracing",
    "metrics",
    "traffic",
    "transport",
    "harness",
)

_CORE_OPS = ("core.enqueue", "core.dequeue", "core.on_service_complete")

#: Raw spans kept for ``trace-<workload>.json``; totals cover every span.
KEEP = 20_000


def layer_of(fn: Callable) -> str:
    """The repro subpackage defining ``fn``, or ``harness``."""
    module = getattr(getattr(fn, "__func__", fn), "__module__", None) or ""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "harness"


class Spans:
    """In-memory span totals plus the first ``KEEP`` raw spans."""

    __slots__ = ("stats", "raw", "top_s", "_stack", "_next")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: name -> [self seconds, total seconds, calls]
        self.stats: Dict[str, List[float]] = {}
        #: (id, name, start, end, parent id or -1)
        self.raw: List[Tuple[int, str, float, float, int]] = []
        #: Total duration of spans with no parent.
        self.top_s = 0.0
        self._stack: List[List[float]] = []
        self._next = 0

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as a span called ``name``."""
        stack = self._stack
        sid = self._next
        self._next = sid + 1
        parent = int(stack[-1][1]) if stack else -1
        frame = [0.0, sid]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            else:
                self.top_s += dur
            rec = self.stats.get(name)
            if rec is None:
                rec = self.stats[name] = [0.0, 0.0, 0]
            rec[0] += dur - frame[0]
            rec[1] += dur
            rec[2] += 1
            if sid < KEEP:
                self.raw.append((sid, name, start, end, parent))


def _timed(spans: Spans, layer: str, owner: Any, hook: str) -> Callable:
    """``owner.hook`` as a span named ``<layer>.<hook>``.

    A ``functools.partial`` is called without a Python frame of its own,
    so the wrapper adds as little as possible to the calling layer.
    """
    return functools.partial(spans.call, f"{layer}.{hook}", getattr(owner, hook))


class _SchedulerProxy:
    """Times the scheduler protocol and samples backlog at each enqueue."""

    __slots__ = (
        "inner", "_enqueue", "dequeue", "on_service_complete",
        "backlog_sum", "backlog_max", "enqueues",
    )

    def __init__(self, inner: Any, spans: Spans) -> None:
        self.inner = inner
        self._enqueue = _timed(spans, "core", inner, "enqueue")
        self.dequeue = _timed(spans, "core", inner, "dequeue")
        self.on_service_complete = _timed(spans, "core", inner, "on_service_complete")
        self.reset()

    def reset(self) -> None:
        self.backlog_sum = 0
        self.backlog_max = 0
        self.enqueues = 0

    def enqueue(self, packet: Any, now: float) -> None:
        self._enqueue(packet, now)
        backlog = self.inner.backlog_packets
        self.backlog_sum += backlog
        self.enqueues += 1
        if backlog > self.backlog_max:
            self.backlog_max = backlog

    # Read by Link on every packet: explicit, so they skip the slow
    # failed-lookup path into __getattr__ that would inflate servers.
    @property
    def backlog_packets(self) -> int:
        return self.inner.backlog_packets

    @property
    def backlog_bits(self) -> int:
        return self.inner.backlog_bits

    @property
    def is_empty(self) -> bool:
        return self.inner.is_empty

    def flow_backlog(self, flow: Any) -> int:
        return self.inner.flow_backlog(flow)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class _HubProxy:
    """A live metrics hub whose four ``Link`` hooks are ``metrics`` spans."""

    __slots__ = ("on_arrival", "on_served", "on_dropped", "on_queue_sample")

    enabled = True

    def __init__(self, inner: Any, spans: Spans) -> None:
        for hook in self.__slots__:
            setattr(self, hook, _timed(spans, "metrics", inner, hook))


class _TimedTracer(Tracer):
    """A ``Tracer`` whose hooks are ``tracing`` spans."""

    __slots__ = ("on_arrival", "mark_start", "mark_departure", "mark_dropped")

    def __init__(self, name: str, spans: Spans) -> None:
        super().__init__(name)
        for hook in self.__slots__:
            setattr(self, hook, _timed(spans, "tracing", super(), hook))


class _StreamProxy:
    """An arrival stream whose ``fire`` is a ``traffic`` span."""

    __slots__ = ("inner", "fire")

    def __init__(self, inner: Any, spans: Spans) -> None:
        self.inner = inner
        self.fire = _timed(spans, "traffic", inner, "fire")

    @property
    def next_time(self) -> float:
        return self.inner.next_time


class TracedProbe:
    """Probe whose hooks return timing wrappers (see module docstring)."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts = {"timers": 0, "inline_attempts": 0, "inline_hits": 0}
        #: Set-up phase name -> seconds.
        self.phases: Dict[str, float] = {}
        self.schedulers: List[_SchedulerProxy] = []
        self._names: Dict[Any, str] = {}
        self._sim_cls = self._simulator_class()

    def name_of(self, fn: Callable) -> str:
        key = getattr(fn, "__func__", fn)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"{layer_of(fn)}.{getattr(key, '__name__', '?')}"
        return name

    def _simulator_class(self) -> type:
        call = self.spans.call
        counts = self.counts
        name_of = self.name_of

        class TracedSimulator(Simulator):
            __slots__ = ()

            def at(self, time: float, callback: Callable, *args: Any, priority: int = 0) -> Any:
                counts["timers"] += 1
                return call(
                    "simulation.at", Simulator.at, self, time,
                    call, name_of(callback), callback, *args, priority=priority,
                )

            def call_at(self, time: float, callback: Callable, *args: Any, priority: int = 0) -> None:
                counts["timers"] += 1
                call(
                    "simulation.call_at", Simulator.call_at, self, time,
                    call, name_of(callback), callback, *args, priority=priority,
                )

            def reserve_inline(self, time: float) -> bool:
                counts["inline_attempts"] += 1
                hit = call("simulation.reserve_inline", Simulator.reserve_inline, self, time)
                if hit:
                    counts["inline_hits"] += 1
                return hit

        return TracedSimulator

    # -- probe hooks ---------------------------------------------------
    def simulator(self) -> Simulator:
        return self._sim_cls()

    def scheduler(self, scheduler: Any) -> _SchedulerProxy:
        proxy = _SchedulerProxy(scheduler, self.spans)
        self.schedulers.append(proxy)
        return proxy

    def tracer(self, name: str) -> Tracer:
        return _TimedTracer(name, self.spans)

    def hub(self, session: Any, name: str) -> _HubProxy:
        return _HubProxy(session.hub(name), self.spans)

    def stream(self, stream: Any) -> _StreamProxy:
        return _StreamProxy(stream, self.spans)

    def wrap(self, fn: Callable) -> Callable:
        return functools.partial(self.spans.call, self.name_of(fn), fn)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + perf_counter() - start

    def reset(self) -> None:
        """Forget spans and counts from set-up; keep the set-up phases."""
        self.spans.reset()
        for key in self.counts:
            self.counts[key] = 0
        for proxy in self.schedulers:
            proxy.reset()

    # -- results -------------------------------------------------------
    def layer_self_s(self, run_s: float) -> Dict[str, float]:
        """Self seconds per layer; they sum to ``run_s``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, rec in self.spans.stats.items():
            out[name.split(".", 1)[0]] += rec[0]
        out["simulation"] += run_s - self.spans.top_s
        return out

    def metrics(
        self, run_s: float, departed: int, offered: int, dropped: int,
        events: int, records: int, counts: Dict[str, Any],
    ) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_pct``, which needs
        the untraced repeats (``run.LAYER_METRICS`` lists them all)."""
        stats = self.spans.stats
        layer = self.layer_self_s(run_s)
        per_pkt = 1e6 / departed

        def mean_ns(name: str) -> float:
            rec = stats.get(name)
            return rec[1] / rec[2] * 1e9 if rec else 0.0

        def calls(prefix: str) -> int:
            return sum(int(r[2]) for n, r in stats.items() if n.startswith(prefix))

        (sched,) = self.schedulers
        attempts = self.counts["inline_attempts"]
        return {
            "simulation.self_us_per_pkt": layer["simulation"] * per_pkt,
            "simulation.events_per_pkt": events / departed,
            "simulation.timers_per_pkt": self.counts["timers"] / departed,
            "simulation.inline_hit_frac": (
                self.counts["inline_hits"] / attempts if attempts else 0.0
            ),
            "core.us_per_pkt": layer["core"] * per_pkt,
            "core.enqueue_ns": mean_ns("core.enqueue"),
            "core.dequeue_ns": mean_ns("core.dequeue"),
            "core.complete_ns": mean_ns("core.on_service_complete"),
            "core.calls_per_pkt": sum(calls(op) for op in _CORE_OPS) / departed,
            "core.max_backlog_pkts": sched.backlog_max,
            "core.mean_backlog_pkts": sched.backlog_sum / max(sched.enqueues, 1),
            "core.attach_s": self.phases.get("core.attach_s", 0.0),
            "core.churn_attach_ns": mean_ns("core.attach_flow"),
            "core.churn_detach_ns": mean_ns("core.detach_flow"),
            "servers.self_us_per_pkt": layer["servers"] * per_pkt,
            "servers.drop_frac": dropped / offered,
            "tracing.us_per_pkt": layer["tracing"] * per_pkt,
            "tracing.records": records,
            "metrics.us_per_pkt": layer["metrics"] * per_pkt,
            "metrics.calls_per_pkt": calls("metrics.") / departed,
            "traffic.self_us_per_pkt": layer["traffic"] * per_pkt,
            "traffic.gen_s": self.phases.get("traffic.gen_s", 0.0),
            "transport.self_us_per_pkt": layer["transport"] * per_pkt,
            "transport.retransmits": counts.get("retransmits", 0),
            "transport.acks_per_pkt": counts.get("acks", 0) / departed,
            "harness.self_us_per_pkt": layer["harness"] * per_pkt,
        }

    def raw_spans(self) -> List[Dict[str, Any]]:
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans.raw
        ]
