"""Discrete-event simulation substrate.

This package provides the event-driven simulator on which every
experiment in the reproduction runs: a heapq-based event loop
(:mod:`repro.simulation.engine`), cancellable event handles
(:mod:`repro.simulation.events`), seeded random-stream management
(:mod:`repro.simulation.random`), and structured packet tracing
(:mod:`repro.simulation.tracing`).
"""

from repro.simulation.engine import ArrivalStream, Simulator
from repro.simulation.eventq import BinaryHeapQueue
from repro.simulation.events import Event, EventCancelled
from repro.simulation.random import RandomStreams, derive_seed
from repro.simulation.tracing import NullTracer, PacketRecord, Tracer

__all__ = [
    "Simulator",
    "ArrivalStream",
    "BinaryHeapQueue",
    "Event",
    "EventCancelled",
    "RandomStreams",
    "derive_seed",
    "PacketRecord",
    "Tracer",
    "NullTracer",
]
