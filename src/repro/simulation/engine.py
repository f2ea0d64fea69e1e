"""Discrete-event simulation loop over a binary-heap event queue.

The :class:`Simulator` is deliberately small: a priority queue of
pending callbacks, a clock, and run controls. Everything else in the
reproduction (links, sources, TCP, switches) is built by scheduling
callbacks on a shared ``Simulator``.

Determinism
-----------
Events at equal timestamps fire in the order they were scheduled
(insertion sequence), and all randomness in the library flows through
:class:`repro.simulation.random.RandomStreams`, so a run is a pure
function of its seed and parameters.

Hot-path layout
---------------
The event queue holds plain tuples, never
:class:`~repro.simulation.events.Event` objects, in one of two shapes
sharing the ``(time, priority, seq)`` ordering prefix (``seq`` is
globally unique, so comparison never reaches the payload slots):

* ``(time, priority, seq, event)`` — a *cancellable* entry created by
  :meth:`Simulator.at` / :meth:`Simulator.after`. The ``Event`` is the
  caller's handle; the loop consults ``event.cancelled`` and skips stale
  entries in place.
* ``(time, priority, seq, None, callback, args)`` — a *fire-and-forget*
  entry created by :meth:`Simulator.call_at` / :meth:`Simulator.call_after`.
  No handle object is ever allocated; the loop invokes ``callback(*args)``
  directly. Most traffic-source and link-completion timers use this path,
  so the common case schedules and fires an event with zero object
  allocations beyond the queue tuple itself.

One binary heap orders those tuples
(:class:`~repro.simulation.eventq.BinaryHeapQueue`); it carries the
inlined ``drain`` hot loop that :meth:`Simulator.run` delegates to on
the common path (no streams, no ``max_events`` budget).

Busy-period timer elision
-------------------------
:meth:`Simulator.reserve_inline` lets the callback *currently firing*
consume the next tick of its own timer chain without a queue round
trip: if nothing else (queue entry or stream arrival) is due at or
before ``time`` and run controls permit, the clock jumps straight to
``time`` and the caller runs its completion logic inline. The strict
"nothing at or before" test is what keeps the optimization invisible:
a successfully reserved instant provably has no other event the loop
could have interleaved, and the event counter advances exactly as if
the timer had been popped. :class:`repro.servers.link.Link` uses this
to chain back-to-back departures of a busy period (see HACKING.md).

Arrival streams (batch admission)
---------------------------------
Scheduling one queue tuple per generated packet is the other large cost
at scale: a 10^6-flow workload pushes millions of timer tuples through
the queue just to deliver precomputed arrivals. An **arrival stream**
(:class:`ArrivalStream`) bypasses the queue for that case: it exposes the
time of its next pending arrival (``next_time``) and a ``fire()`` that
delivers exactly one arrival and advances. The run loop merges attached
streams with the queue — a stream wins ties against queue entries (an
arrival *at* t happens before timers at t, matching the order
``call_at`` arrivals would have had when scheduled first) — so sources
can hand the engine whole precomputed arrival arrays
(:mod:`repro.traffic.batch`) at O(1) queue cost instead of O(N log N).
Stream firings count toward ``events_processed`` and the ``max_events``
budget exactly like queue events. Attach before calling :meth:`run`;
streams attached while the loop is running take effect on the next
:meth:`run`/:meth:`step`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.simulation.eventq import BinaryHeapQueue
from repro.simulation.events import Event, _sequence


class ArrivalStream(Protocol):
    """Protocol for batch arrival sources merged into the run loop.

    ``next_time`` is the absolute time of the next pending arrival, or
    ``math.inf`` when the stream is exhausted (the loop then detaches
    it). ``fire()`` delivers exactly one arrival (the one at
    ``next_time``) and advances ``next_time``.
    """

    next_time: float

    def fire(self) -> None: ...


class SimulationError(Exception):
    """Raised on invalid scheduling requests (e.g. into the past)."""


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    Parameters
    ----------
    start_time:
        Initial clock value.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_push",
        "_peek_live",
        "_streams",
        "_running",
        "_stopped",
        "_truncated",
        "_events_processed",
        "_limit",
        "_budget_left",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = BinaryHeapQueue()
        self._push = self._queue.push
        self._peek_live = self._queue.peek_live
        self._streams: List[ArrivalStream] = []
        self._running = False
        self._stopped = False
        self._truncated = False
        self._events_processed = 0
        self._limit = -math.inf
        self._budget_left: Optional[int] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (for complexity accounting)."""
        return self._events_processed

    @property
    def truncated(self) -> bool:
        """True when the last :meth:`run` hit ``max_events`` with work
        still pending (within ``until``, if one was given).

        A truncated run is an *incomplete* simulation — results computed
        from its traces are suspect. The flag is reset by the next call
        to :meth:`run`.
        """
        return self._truncated

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        ``time`` may equal ``now`` (the event fires after the current
        callback returns) but may not lie in the past. Returns a
        cancellable :class:`~repro.simulation.events.Event` handle; use
        :meth:`call_at` when no handle is needed.
        """
        if not time >= self._now:  # also catches NaN
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN")
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self._now}"
            )
        event = Event(time, callback, args, priority=priority)
        self._push((time, priority, event.seq, event))
        return event

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + delay, callback, *args, priority=priority)

    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at ``time``, fire-and-forget.

        Identical ordering semantics to :meth:`at`, but no
        :class:`~repro.simulation.events.Event` handle is allocated and
        the timer cannot be cancelled. Use for the overwhelmingly common
        timers that never need cancellation (source emissions, wake-ups).
        """
        if not time >= self._now:  # also catches NaN
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN")
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self._now}"
            )
        self._push((time, priority, next(_sequence), None, callback, args))

    def call_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds, fire-and-forget."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.call_at(self._now + delay, callback, *args, priority=priority)

    def attach_stream(self, stream: ArrivalStream) -> None:
        """Merge an :class:`ArrivalStream` into the event loop.

        The stream delivers precomputed arrivals without a queue tuple
        per packet. An exhausted stream (``next_time == math.inf``) is
        detached automatically by the loop. Attaching while the loop is
        running takes effect on the next :meth:`run`/:meth:`step`.
        """
        if math.isnan(stream.next_time):
            raise SimulationError("arrival stream next_time is NaN")
        if stream.next_time < self._now:
            raise SimulationError(
                f"arrival stream starts in the past: "
                f"{stream.next_time} < now={self._now}"
            )
        self._streams.append(stream)

    # ------------------------------------------------------------------
    # Run controls
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the loop after the currently firing event returns."""
        self._stopped = True

    def _min_stream(self) -> "Tuple[float, Optional[ArrivalStream]]":
        """Earliest attached stream, pruning exhausted ones."""
        streams = self._streams
        if not streams:
            return math.inf, None
        best_t = math.inf
        best: Optional[ArrivalStream] = None
        exhausted = False
        for s in streams:
            t = s.next_time
            if t == math.inf:
                exhausted = True
            elif t < best_t:
                best_t = t
                best = s
        if exhausted:
            self._streams = [s for s in streams if s.next_time != math.inf]
        return best_t, best

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when nothing is pending.

        Considers both the event queue and attached arrival streams.
        """
        head = self._queue.peek_live()
        heap_t = float(head[0]) if head is not None else math.inf
        stream_t, _ = self._min_stream()
        nxt = min(heap_t, stream_t)
        return None if nxt == math.inf else nxt

    def step(self) -> bool:
        """Fire the single next event (queue timer or stream arrival).

        Returns False when none remain. A stream arrival wins a tie
        against a queue timer at the same instant (same rule as
        :meth:`run`).
        """
        queue = self._queue
        head = queue.peek_live()
        heap_t = float(head[0]) if head is not None else math.inf
        stream_t, stream = self._min_stream()
        if stream is not None and stream_t <= heap_t:
            self._now = stream_t
            self._events_processed += 1
            stream.fire()
            return True
        if head is None:
            return False
        entry = queue.pop()
        self._now = entry[0]
        self._events_processed += 1
        event = entry[3]
        if event is None:
            entry[4](*entry[5])
        else:
            event._fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time
            and advance the clock to exactly ``until``. ``None`` runs to
            event-queue exhaustion.
        max_events:
            Safety valve for runaway simulations. Exhausting it with
            events still pending sets :attr:`truncated` so callers can
            tell an incomplete run from a naturally finished one.

        Returns the simulation time at which the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        self._truncated = False
        limit = math.inf if until is None else until
        self._limit = limit
        self._budget_left = max_events
        try:
            if self._streams or max_events is not None:
                self._run_generic(limit)
            else:
                # Common case: the queue's own inlined hot loop.
                self._queue.drain(self, limit)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def _run_generic(self, limit: float) -> None:
        """Run loop handling arrival streams and ``max_events`` budgets.

        Kept out of the common path so simulations without either pay
        nothing; goes through the queue interface only (the inlined
        heap loop lives in :mod:`repro.simulation.eventq`). A
        stream arrival wins ties against queue timers at the same
        instant.
        """
        queue = self._queue
        while not self._stopped:
            head = queue.peek_live()
            heap_t = float(head[0]) if head is not None else math.inf
            stream_t, stream = self._min_stream()
            if stream is not None and stream_t <= heap_t:
                if stream_t > limit:
                    break
                self._now = stream_t
                self._events_processed += 1
                stream.fire()
            elif head is not None:
                time = head[0]
                if time > limit:
                    break
                queue.pop()
                self._now = time
                self._events_processed += 1
                event = head[3]
                if event is None:
                    head[4](*head[5])
                else:
                    event._fire()
            else:
                break
            budget = self._budget_left
            if budget is not None:
                # reserve_inline may have spent part of the budget
                # during the callback; settle the firing just done.
                budget -= 1
                self._budget_left = budget
                if budget <= 0:
                    nxt = self.peek()
                    if nxt is not None and nxt <= limit:
                        self._truncated = True
                    break

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run(until=self._now + duration, max_events=max_events)

    # ------------------------------------------------------------------
    # Busy-period timer elision
    # ------------------------------------------------------------------
    def reserve_inline(self, time: float) -> bool:
        """Claim the instant ``time`` for the currently firing callback.

        Succeeds — advancing the clock to ``time`` and counting one
        processed event — only when the loop could not possibly have
        run anything else first: the loop is live, ``time`` is within
        the active ``until`` horizon and event budget, and every
        pending queue entry and stream arrival is *strictly* later than
        ``time`` (a tie must lose to the already-queued work, which
        holds an earlier sequence number — and to streams, which win
        ties by rule). On success the caller must immediately run the
        work it would otherwise have scheduled at ``time``; on failure
        it must schedule normally. Either way the observable schedule
        is identical; success merely skips the queue round trip.
        """
        if not self._running or self._stopped or time > self._limit:
            return False
        budget = self._budget_left
        if budget is not None and budget <= 1:
            return False
        head = self._peek_live()
        if head is not None and head[0] <= time:
            return False
        if self._streams:
            stream_t, _ = self._min_stream()
            if stream_t <= time:
                return False
        if budget is not None:
            self._budget_left = budget - 1
        self._now = time
        self._events_processed += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.9g}, pending={len(self._queue)})"
