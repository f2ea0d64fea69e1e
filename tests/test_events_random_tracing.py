"""Tests for events, random streams, and tracing."""

from __future__ import annotations

import pytest

from repro.simulation import PacketRecord, RandomStreams, Tracer
from repro.simulation.events import Event, EventCancelled


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def test_event_ordering_by_time_priority_seq():
    a = Event(1.0, lambda: None)
    b = Event(2.0, lambda: None)
    assert a < b
    c = Event(1.0, lambda: None, priority=-1)
    assert c < a  # same time, lower priority value first
    d = Event(1.0, lambda: None)
    assert a < d  # same time+priority: earlier seq first


def test_cancelled_event_cannot_fire():
    event = Event(1.0, lambda: None)
    event.cancel()
    with pytest.raises(EventCancelled):
        event._fire()


def test_event_releases_callback_after_fire():
    fired = []
    event = Event(1.0, fired.append, (42,))
    event._fire()
    assert fired == [42]
    assert event.callback is None  # no lingering references


# ----------------------------------------------------------------------
# Random streams
# ----------------------------------------------------------------------
def test_same_seed_same_streams():
    a = RandomStreams(7).stream("x")
    b = RandomStreams(7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_independent():
    streams = RandomStreams(7)
    x = streams.stream("x")
    y = streams.stream("y")
    assert [x.random() for _ in range(5)] != [y.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("a") is streams.stream("a")


def test_adding_stream_does_not_perturb_existing():
    s1 = RandomStreams(3)
    first = s1.stream("x").random()
    s2 = RandomStreams(3)
    s2.stream("unrelated")  # created before "x" this time
    assert s2.stream("x").random() == first


def test_getitem_alias():
    streams = RandomStreams(1)
    assert streams["z"] is streams.stream("z")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_record_delay_fields():
    record = PacketRecord(flow="f", seqno=0, length=100, arrival=1.0)
    assert record.delay is None
    assert record.queueing_delay is None
    record.start_service = 2.0
    record.departure = 3.0
    assert record.queueing_delay == 1.0
    assert record.delay == 2.0


def test_tracer_indexes_by_flow():
    tracer = Tracer()
    tracer.on_arrival("a", 0, 100, 0.0)
    tracer.on_arrival("b", 0, 200, 0.5)
    tracer.on_arrival("a", 1, 100, 1.0)
    assert len(tracer) == 3
    assert sorted(tracer.flows()) == ["a", "b"]
    assert len(tracer.for_flow("a")) == 2


def test_work_in_interval_counts_fully_contained_service_only():
    tracer = Tracer()
    inside = tracer.on_arrival("f", 0, 100, 0.0)
    tracer.mark_start(inside, 1.0)
    tracer.mark_departure(inside, 2.0)
    straddles = tracer.on_arrival("f", 1, 100, 0.0)
    tracer.mark_start(straddles, 2.5)
    tracer.mark_departure(straddles, 4.5)
    # Paper semantics: a packet is served in [t1,t2] iff it starts AND
    # finishes within it.
    assert tracer.work_in_interval("f", 0.0, 3.0) == 100
    assert tracer.work_in_interval("f", 0.0, 5.0) == 200
    assert tracer.work_in_interval("f", 1.5, 5.0) == 100


def test_departed_and_dropped_filters():
    tracer = Tracer()
    done = tracer.on_arrival("f", 0, 100, 0.0)
    tracer.mark_departure(done, 1.0)
    lost = tracer.on_arrival("f", 1, 100, 0.0)
    tracer.mark_dropped(lost)
    assert [r.seqno for r in tracer.departed("f")] == [0]
    assert [r.seqno for r in tracer.dropped("f")] == [1]
    assert tracer.delays("f") == [1.0]


def test_tracer_clear():
    tracer = Tracer()
    tracer.on_arrival("f", 0, 100, 0.0)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.for_flow("f") == ()
