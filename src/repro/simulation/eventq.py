"""The simulator's event queue: one ``heapq`` tuple heap.

The :class:`~repro.simulation.engine.Simulator` owns a
:class:`BinaryHeapQueue`, which stores the pending-timer tuples
described in :mod:`repro.simulation.engine` (shapes
``(time, priority, seq, event)`` and
``(time, priority, seq, None, callback, args)``) and yields them in
``(time, priority, seq)`` order. ``seq`` is globally unique, so
comparison never reaches the payload slots.

Why the run loop lives here
---------------------------
The queue carries ``drain(sim, limit)`` — the stream-free,
unlimited-budget hot loop — with the ``heapq`` calls inlined. Keeping
those calls *in this module* is what makes the PERF002 lint rule (no
direct heap surgery on the simulator event queue outside
``repro.simulation.eventq``) enforceable: everything outside this file
goes through the queue's ``push``/``pop``/``peek_live``/``drain``.
The one exception is a read: the heap list is the public attribute
``heap``, and the engine's busy-period check reads ``heap[0]`` without
a call. Only this module mutates it.

``drain`` advances the engine's clock by writing ``sim.now``, a plain
attribute of the :class:`~repro.simulation.engine.Simulator`.

An optional compiled extension of this module may be built with
``scripts/build_compiled.py`` (mypyc); the import system then prefers
the shared object over this source file transparently. Nothing in the
repo requires the compiled form — it is a pure, byte-identical speedup.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

Entry = Tuple[Any, ...]

__all__ = ["BinaryHeapQueue"]


class BinaryHeapQueue:
    """The event queue: a single ``heapq`` tuple heap."""

    __slots__ = ("heap", "push")

    def __init__(self) -> None:
        #: The heap list itself. The engine reads ``heap[0]`` directly
        #: (``Simulator.reserve_inline``); nothing outside this module
        #: mutates it (lint rule PERF002).
        self.heap: List[Entry] = []
        #: Bound C-level push (``partial(heappush, heap)``) — saves a
        #: Python-level frame on the hottest call in the engine.
        self.push: Callable[[Entry], None] = partial(heappush, self.heap)

    def __len__(self) -> int:
        return len(self.heap)

    def pop(self) -> Entry:
        return heappop(self.heap)

    def peek_live(self) -> Optional[Entry]:
        """Head entry, discarding cancelled entries in place."""
        heap = self.heap
        while heap:
            head = heap[0]
            event = head[3]
            if event is not None and event.cancelled:
                heappop(heap)
                continue
            return head
        return None

    def drain(self, sim: Any, limit: float) -> int:  # lint: hot
        """Fire events in order while ``time <= limit`` (no budget).

        The engine's stream-free, unbudgeted hot loop: hoists the heap
        and ``heappop`` into locals and skips cancelled entries in
        place. ``sim.now`` is advanced per event;
        ``sim._events_processed`` is settled once on exit (including
        the exceptional one — the failing event counts as fired, as in
        the seed loop).

        The loop is ``while True`` with its exit tests inside: CPython
        3.11 warms a code object up only on calls and unconditional
        backward jumps, and this function runs once per ``sim.run()``,
        so a loop that ended on a conditional jump would never
        specialize its attribute loads.
        """
        heap = self.heap
        pop = heappop
        fired = 0
        try:
            while True:
                if not heap or sim._stopped:
                    break
                entry = heap[0]
                event = entry[3]
                if event is not None and event.cancelled:
                    pop(heap)
                    continue
                time = entry[0]
                if time > limit:
                    break
                pop(heap)
                sim.now = time
                fired += 1
                if event is None:
                    entry[4](*entry[5])
                else:
                    event._fire()
        finally:
            sim._events_processed += fired
        return fired
