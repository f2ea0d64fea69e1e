"""Tests for the discrete-event engine."""

from __future__ import annotations

import ast
import inspect
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


#: Runs each run loop once in a fresh interpreter and prints, per loop,
#: the attribute-load instructions CPython's adaptive interpreter holds
#: for it afterwards.
_WARMUP_SCRIPT = """
import dis
from repro.simulation.engine import Simulator
from repro.simulation.eventq import BinaryHeapQueue

def tick():
    pass

for loop, budget in ((BinaryHeapQueue.drain, None), (Simulator._run_generic, 10**6)):
    sim = Simulator()
    for i in range(100):
        sim.call_at(i * 0.5, tick)
    sim.run(max_events=budget)
    ops = {i.opname for i in dis.get_instructions(loop, adaptive=True)}
    print(loop.__name__, *sorted(op for op in ops if op.startswith("LOAD_ATTR")))
"""


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="CPython 3.11 warms a code object up only on calls and "
    "unconditional backward jumps; later versions warm up either loop shape",
)
def test_run_loops_specialize_within_one_run():
    """Each run loop is entered once per ``sim.run()``, so only its
    ``while True`` back-edge can warm it up: after a single run, its
    attribute loads must already be specialized (e.g. ``LOAD_ATTR_SLOT``
    for ``sim._stopped``), not left adaptive."""
    from repro.simulation.eventq import BinaryHeapQueue

    if not inspect.isfunction(BinaryHeapQueue.drain):
        pytest.skip("the event queue is compiled")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_ROOT.parent)
    out = subprocess.run(
        [sys.executable, "-c", _WARMUP_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    loads = {line.split()[0]: set(line.split()[1:]) for line in out.splitlines()}
    assert set(loads) == {"drain", "_run_generic"}
    for loop, ops in loads.items():
        assert ops - {"LOAD_ATTR", "LOAD_ATTR_ADAPTIVE"}, (
            f"{loop} kept only generic attribute loads after one run: {sorted(ops)}"
        )


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
