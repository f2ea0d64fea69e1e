"""The event queue against an independent reference engine.

The headline test drives >=10^5 randomized mixed operations
(``call_at``/``call_after``/``at``+cancel/``run_for``) through the
``Simulator`` and the frozen seed engine
(``tests/reference/legacy_engine.py``, one ``Event`` per timer on a
plain ``heapq``) side by side and asserts the two fire the identical
event sequence and end on identical clocks — the operational form of
the guarantee the trace-equivalence suite checks end-to-end. Seeds are
rooted in ``derive_seed`` (DET005 discipline).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.simulation import Simulator, derive_seed

from tests.reference.legacy_engine import LegacySimulator

#: The engine under test and its independent reference.
ENGINES = (Simulator, LegacySimulator)


# ---------------------------------------------------------------------------
# Randomized parity against the reference engine
# ---------------------------------------------------------------------------


def _timers(sim):
    """``(call_at, call_after)`` of ``sim``: the reference engine has no
    fire-and-forget timers, so its ``at``/``after`` stand in."""
    if isinstance(sim, LegacySimulator):
        return sim.at, sim.after
    return sim.call_at, sim.call_after


def _drive(sim, rng: random.Random, ops: int, log: list) -> None:
    """Apply a seeded operation mix to ``sim``, recording every firing."""
    counter = [0]
    handles = []
    call_at, call_after = _timers(sim)

    def fire(tag: int) -> None:
        log.append((round(sim.now, 9), tag))

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.42:
            tag = counter[0]
            counter[0] += 1
            call_at(sim.now + rng.uniform(0.0, 7.0), fire, tag)
        elif roll < 0.70:
            tag = counter[0]
            counter[0] += 1
            call_after(rng.uniform(0.0, 0.2), fire, tag)
        elif roll < 0.88:
            tag = counter[0]
            counter[0] += 1
            handles.append(sim.at(sim.now + rng.uniform(0.0, 40.0), fire, tag))
        elif roll < 0.96 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        else:
            sim.run_for(rng.uniform(0.0, 3.0))
    sim.run()


def test_randomized_parity_100k_ops():
    """>=10^5 mixed ops: identical pop order and final clocks."""
    ops = 100_000
    seed = derive_seed("eventq-parity", ops)
    logs = []
    clocks = []
    for engine in ENGINES:
        rng = random.Random(seed)  # same op sequence for both engines
        sim = engine()
        log: list = []
        _drive(sim, rng, ops, log)
        logs.append(log)
        clocks.append(sim.now)
    assert len(logs[0]) > ops // 2  # the mix actually fired things
    assert logs[0] == logs[1]
    assert clocks[0] == clocks[1]


@pytest.mark.parametrize("case", range(3))
def test_randomized_parity_small_cases(case):
    """Smaller seeds x cases for quicker shrinking when parity breaks."""
    seed = derive_seed("eventq-parity-small", case)
    logs = []
    for engine in ENGINES:
        rng = random.Random(seed)
        sim = engine()
        log: list = []
        _drive(sim, rng, 2_000, log)
        logs.append(log)
    assert logs[0] == logs[1]


def test_identical_timestamp_fifo_order_across_backends():
    for engine in ENGINES:
        sim = engine()
        order: list = []
        call_at, _ = _timers(sim)
        for i in range(50):
            call_at(1.0, order.append, i)
        sim.run()
        assert order == list(range(50))


# ---------------------------------------------------------------------------
# Engine behavior
# ---------------------------------------------------------------------------


def test_run_until_and_budget():
    sim = Simulator()
    fired: list = []
    for i in range(10):
        sim.call_at(float(i), fired.append, i)
    assert sim.run(until=4.5) == 4.5
    assert fired == [0, 1, 2, 3, 4]
    sim.run(max_events=2)
    assert fired == [0, 1, 2, 3, 4, 5, 6]
    assert sim.truncated
    sim.run()
    assert fired == list(range(10))


def test_stop_mid_run():
    sim = Simulator()
    fired: list = []
    sim.call_at(1.0, fired.append, 1)
    sim.call_at(2.0, sim.stop)
    sim.call_at(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.now == 2.0


def test_past_and_nan_scheduling_rejected():
    from repro.simulation.engine import SimulationError

    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError, match="past"):
        sim.call_at(4.0, lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        sim.at(math.nan, lambda: None)
