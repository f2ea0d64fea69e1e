"""Tests for the discrete-event engine."""

from __future__ import annotations

import ast
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.simulation import Simulator
from repro.simulation.engine import SimulationError

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: The engine modules allowed to advance the clock.
CLOCK_WRITERS = {"simulation/engine.py", "simulation/eventq.py"}


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(3.0, fired.append, "c")
    sim.at(1.0, fired.append, "a")
    sim.at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_equal_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_equal_time_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "late", priority=1)
    sim.at(1.0, fired.append, "early", priority=-1)
    sim.run()
    assert fired == ["early", "late"]


def test_after_schedules_relative():
    sim = Simulator()
    times = []
    sim.after(2.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.0]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(5.0, lambda: sim.at(1.0, lambda: None))
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().after(-1.0, lambda: None)


def test_nan_time_rejected():
    with pytest.raises(SimulationError):
        Simulator().at(float("nan"), lambda: None)


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    end = sim.run(until=10.0)
    assert end == 10.0
    assert sim.now == 10.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "in")
    sim.at(20.0, fired.append, "out")
    sim.run(until=10.0)
    assert fired == ["in"]
    # A later run picks the event up.
    sim.run()
    assert fired == ["in", "out"]


def test_event_scheduled_at_now_fires_in_same_run():
    sim = Simulator()
    fired = []
    sim.at(1.0, lambda: sim.at(sim.now, fired.append, "nested"))
    sim.run()
    assert fired == ["nested"]


def test_cancelled_event_skipped():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, fired.append, "x")
    sim.at(0.5, event.cancel)
    sim.run()
    assert fired == []
    assert not event.pending


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    sim.run()
    event.cancel()  # must not raise
    assert event.fired


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, sim.stop)
    sim.at(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]


def test_peek_returns_next_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.at(4.0, lambda: None)
    sim.at(2.0, lambda: None)
    assert sim.peek() == 2.0


def test_max_events_limits_run():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_truncated_flag_set_when_work_remains():
    sim = Simulator()
    for i in range(10):
        sim.at(float(i), lambda: None)
    sim.run(max_events=3)
    assert sim.truncated


def test_truncated_flag_clear_on_complete_run():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run()
    assert not sim.truncated


def test_truncated_flag_clear_when_remaining_events_beyond_until():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.at(50.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    # The only pending event lies past the horizon; the run within
    # [0, until] is complete, not truncated.
    assert not sim.truncated


def test_truncated_flag_reset_by_next_run():
    sim = Simulator()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run(max_events=2)
    assert sim.truncated
    sim.run()
    assert not sim.truncated


def test_peek_skips_cancelled_events():
    sim = Simulator()
    first = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0


def test_equal_time_insertion_order_is_deterministic():
    # Same schedule built twice fires identically: ties broken by
    # insertion sequence, independent of callback identity.
    def build_and_run():
        sim = Simulator()
        fired = []
        for i in (3, 1, 4, 1, 5, 9, 2, 6):
            sim.at(1.0, fired.append, i)
        sim.at(1.0, lambda: fired.append("tail"))
        sim.run()
        return fired

    assert build_and_run() == build_and_run() == [3, 1, 4, 1, 5, 9, 2, 6, "tail"]


def test_not_reentrant():
    sim = Simulator()

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.at(1.0, recurse)
    sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_for_runs_relative_duration():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(5.0, fired.append, 5)
    sim.run_for(2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run_for(3.0)
    assert fired == [1, 5]


def test_only_the_engine_writes_the_clock():
    """``Simulator.now`` is a plain attribute; nothing but the engine
    may assign it (an assignment to any attribute named ``now`` counts)."""
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        rel = path.relative_to(PACKAGE_ROOT).as_posix()
        if rel in CLOCK_WRITERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr == "now"
                        and isinstance(sub.ctx, ast.Store)
                    ):
                        offenders.append(f"{rel}:{sub.lineno}")
    assert offenders == [], f"clock written outside the engine: {offenders}"


#: (build, function, attribute names). After one run of the build in a
#: fresh interpreter, every load of each name in the function must hold
#: a specialized instruction, not the generic one. A run loop runs once
#: per ``sim.run()``, so only its ``while True`` back-edge can warm it
#: up. On the packet path, a flag read is specialized only from a slot,
#: a timer callback only when bound once, and a call through an
#: attribute only through a local (HACKING, "Per-packet path rules").
SPECIALIZED_LOADS = (
    ("timers", "repro.simulation.eventq:BinaryHeapQueue.drain", ("_stopped",)),
    ("timers-budget", "repro.simulation.engine:Simulator._run_generic", ("_stopped",)),
    ("sfq16", "repro.servers.link:Link.send", ("enabled",)),
    ("sfq16", "repro.servers.link:Link._complete", ("enabled", "_complete_cb")),
    ("sfq16", "repro.traffic.base:Source._emit", ("ingress",)),
    ("sfq16", "repro.traffic.poisson:PoissonSource._schedule_next", ("_schedule_next_cb",)),
    ("sfq16", "repro.simulation.engine:Simulator.call_at", ("_push",)),
    ("fleet", "repro.traffic.batch:FleetTimeline.fire", ("_ingress",)),
)

#: Runs the build named by argv[1] once, then prints as JSON, for each
#: ``module:qualname`` in argv[2:], the (opname, name) of every attribute
#: and method load CPython's adaptive interpreter holds for it.
_WARMUP_SCRIPT = """
import dis, importlib, json, sys
from repro.core.registry import make_scheduler
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.simulation.tracing import NullTracer
from repro.traffic import PoissonSource
from repro.traffic.batch import FleetTimeline, cbr_fleet_times

def tick():
    pass

build, targets = sys.argv[1], sys.argv[2:]
sim = Simulator()
if build in ("timers", "timers-budget"):
    for i in range(100):
        sim.call_at(i * 0.5, tick)
    sim.run(max_events=10**6 if build == "timers-budget" else None)
elif build == "sfq16":
    # sfq16-poisson in small: Poisson flows under SFQ at 0.95 load,
    # the default Tracer, no MetricsSession.
    sfq = make_scheduler("SFQ")
    link = Link(sim, sfq, ConstantCapacity(1e6))
    streams = RandomStreams(1)
    for i in range(4):
        sfq.add_flow(i, weight=i + 1.0)
        PoissonSource(
            sim, i, link.send, 0.95e6 * (i + 1) / 10, 8 * 576,
            streams.stream(f"flow{i}"), 0.0, 2.0,
        ).start()
    sim.run()
else:  # fleet: a CBR fleet through an arrival stream
    sfq = make_scheduler("SFQ")
    link = Link(sim, sfq, ConstantCapacity(1e6), tracer=NullTracer())
    for i in range(100):
        sfq.add_flow(i)
    times, flows = cbr_fleet_times(100, 1.2e6 / 100, 1000, 10)
    sim.attach_stream(FleetTimeline(link.send, times, flows, 1000))
    sim.run()
loads = {}
for target in targets:
    module, qualname = target.split(":")
    fn = importlib.import_module(module)
    for part in qualname.split("."):
        fn = getattr(fn, part)
    loads[target] = [
        (i.opname, i.argval)
        for i in dis.get_instructions(fn, adaptive=True)
        if i.opname.startswith(("LOAD_ATTR", "LOAD_METHOD"))
    ]
print(json.dumps(loads))
"""

#: The instructions a load holds before, or instead of, specializing.
_GENERIC_LOADS = {"LOAD_ATTR", "LOAD_ATTR_ADAPTIVE", "LOAD_METHOD", "LOAD_METHOD_ADAPTIVE"}


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="CPython 3.11 warms a code object up only on calls and "
    "unconditional backward jumps, and its specializer is what the "
    "table describes; later versions specialize differently",
)
def test_packet_path_loads_specialize_within_one_run():
    """Each build of ``SPECIALIZED_LOADS`` runs once in a fresh
    interpreter; afterwards every listed load must be specialized (e.g.
    ``LOAD_ATTR_SLOT`` for ``sim._stopped`` or ``tracer.enabled``)."""
    from repro.simulation.eventq import BinaryHeapQueue

    if not inspect.isfunction(BinaryHeapQueue.drain):
        pytest.skip("the event queue is compiled")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_ROOT.parent)
    problems = []
    for build in dict.fromkeys(row[0] for row in SPECIALIZED_LOADS):
        rows = [(target, names) for b, target, names in SPECIALIZED_LOADS if b == build]
        out = subprocess.run(
            [sys.executable, "-c", _WARMUP_SCRIPT, build, *(target for target, _ in rows)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        loads = json.loads(out)
        for target, names in rows:
            for name in names:
                ops = [op for op, argval in loads[target] if argval == name]
                if not ops:
                    problems.append(f"{target} loads no `{name}`")
                elif set(ops) & _GENERIC_LOADS:
                    problems.append(f"{target} `{name}` stayed generic: {ops}")
    assert problems == [], "\n".join(problems)


class ListStream:
    """An arrival stream over fixed times that logs each firing."""

    def __init__(self, name, times, log):
        self.name = name
        self.times = list(times)
        self.next_time = self.times[0]
        self.log = log

    def fire(self):
        self.log.append((self.name, self.next_time))
        self.times.pop(0)
        self.next_time = self.times[0] if self.times else math.inf


def test_reserve_inline_sees_the_earliest_stream_after_each_firing():
    """Streams a (at 1 and 5) and b (at 3): after a fires the earliest
    stream is b, and after b fires it is a again. A reservation at or
    past the earliest stream arrival fails (the stream wins ties); one
    before it succeeds and moves the clock."""
    sim = Simulator()
    fired = []
    sim.attach_stream(ListStream("a", [1.0, 5.0], fired))
    sim.attach_stream(ListStream("b", [3.0], fired))
    reserved = []

    def reserve(*times):
        for time in times:
            reserved.append((time, sim.reserve_inline(time), sim.now))

    sim.call_at(2.0, reserve, 3.0, 2.5)
    sim.call_at(4.0, reserve, 5.0, 4.5)
    sim.call_at(6.0, reserve, 100.0)
    sim.run()
    assert fired == [("a", 1.0), ("b", 3.0), ("a", 5.0)]
    assert reserved == [
        (3.0, False, 2.0),
        (2.5, True, 2.5),
        (5.0, False, 4.0),
        (4.5, True, 4.5),
        (100.0, True, 100.0),
    ]
    assert sim.events_processed == 3 + 3 + 3


def test_reserve_inline_sees_a_stream_attached_mid_run():
    sim = Simulator()
    reserved = []

    def attach_then_reserve():
        sim.attach_stream(ListStream("late", [2.0], []))
        reserved.append(sim.reserve_inline(2.0))
        reserved.append(sim.reserve_inline(1.5))

    sim.call_at(1.0, attach_then_reserve)
    sim.run()
    assert reserved == [False, True]
    assert sim.now == 1.5
