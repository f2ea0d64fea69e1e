"""Fault injectors: outages, flow churn, and packet-level faults.

Each injector composes with the existing engine/link stack — it
schedules ordinary events on the shared :class:`Simulator` and drives
public APIs (``Link.pause/resume``, ``Scheduler.add_flow/remove_flow``,
an ingress callable). All randomness is drawn from named
:class:`repro.simulation.random.RandomStreams` streams, so a faulted run
remains a pure function of its seed and fault configuration: two runs
with the same seed and schedule produce byte-identical traces.

* :class:`LinkOutage` — the link goes dark and comes back, on a
  deterministic ``[(down, up), ...]`` schedule or a seeded renewal
  process (exponential time-to-failure / time-to-repair);
* :class:`FlowChurn` — a pool of flows joins and leaves mid-run,
  exercising ``add_flow``/``remove_flow`` and SFQ's virtual-time
  restart rule (a re-joining flow's tag chain restarts at the current
  ``v(t)``, Section 2);
* :class:`PacketFaults` — seeded loss and reordering applied at an
  ingress point, upstream of a link;
* :class:`ServerStall` — short scheduler freezes: the link stops
  *dispatching* for a moment (the in-flight transmission finishes, no
  new one starts), the paper's fluctuation-constrained server in its
  bursty extreme;
* :class:`WeightReconfig` — mid-run flow re-weighting through
  ``Scheduler.set_weight``, the event Theorem 1's constant-rate
  assumption is most sensitive to.

Composition
-----------
Injectors that take the link down (:class:`LinkOutage`,
:class:`ServerStall`) each own their *own* hold on the link's counted
pause depth (see :meth:`repro.servers.link.Link.pause`): an injector
pauses when its window opens and releases exactly the hold it took when
the window closes, regardless of what any other injector did in
between. Overlapping windows from different injectors therefore neither
double-pause nor resume underneath each other, and the in-flight packet
survives until the last hold is released.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.packet import Packet
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.traffic.base import Ingress, Source

__all__ = [
    "LinkOutage",
    "FlowChurn",
    "PacketFaults",
    "ServerStall",
    "WeightReconfig",
]

#: Builds the traffic source for a churn flow: (flow_id, start, stop) ->
#: an *unstarted* Source feeding the churned link.
SourceFactory = Callable[[Hashable, float, float], Source]


class LinkOutage:
    """Drives a link through down/up cycles.

    Parameters
    ----------
    schedule:
        Deterministic mode: a sequence of ``(down_time, up_time)``
        pairs, strictly increasing and non-overlapping.
    streams, mean_time_to_failure, mean_outage:
        Seeded mode: failures arrive as a renewal process — after each
        recovery the next failure is ``Exp(mean_time_to_failure)`` away
        and lasts ``Exp(mean_outage)``. Draws come from the stream
        ``"outage:<link name>"`` so adding an outage never perturbs any
        other random stream.
    recovery:
        ``"replay"`` retransmits the interrupted packet on recovery;
        ``"drop"`` discards it (see :meth:`repro.servers.link.Link.resume`).
    max_outages, stop_time:
        Bounds for the seeded mode (either may be ``None``).

    Call :meth:`start` to arm the injector.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        schedule: Optional[Sequence[Tuple[float, float]]] = None,
        *,
        streams: Optional[RandomStreams] = None,
        mean_time_to_failure: Optional[float] = None,
        mean_outage: Optional[float] = None,
        recovery: str = "replay",
        max_outages: Optional[int] = None,
        stop_time: Optional[float] = None,
    ) -> None:
        if recovery not in ("replay", "drop"):
            raise ValueError(
                f"recovery must be 'replay' or 'drop', got {recovery!r}"
            )
        seeded = streams is not None
        if seeded == (schedule is not None):
            raise ValueError(
                "provide exactly one of schedule= (deterministic) or "
                "streams= (seeded renewal process)"
            )
        if seeded and (mean_time_to_failure is None or mean_outage is None):
            raise ValueError(
                "seeded mode needs mean_time_to_failure and mean_outage"
            )
        if schedule is not None:
            last_up = float("-inf")
            for down, up in schedule:
                if not (last_up < down < up):
                    raise ValueError(
                        f"outage [{down}, {up}] overlaps or is inverted"
                    )
                last_up = up
        self.sim = sim
        self.link = link
        self.schedule = list(schedule) if schedule is not None else None
        self.recovery = recovery
        self.max_outages = max_outages
        self.stop_time = stop_time
        self.mean_time_to_failure = mean_time_to_failure
        self.mean_outage = mean_outage
        self._rng = streams.stream(f"outage:{link.name}") if seeded else None
        self._started = False
        #: True while this injector owns a hold on the link (between its
        #: own _down and _up) — composition-safe, unlike ``link.paused``
        #: which any other injector may also be driving.
        self._holding = False
        self.outages = 0
        self.downtime = 0.0
        self._down_since: Optional[float] = None

    def start(self) -> None:
        """Arm the injector (schedules the first failure)."""
        if self._started:
            return
        self._started = True
        if self.schedule is not None:
            for down, up in self.schedule:
                self.sim.at(down, self._down)
                self.sim.at(up, self._up)
        else:
            self._schedule_failure()

    # ------------------------------------------------------------------
    def _schedule_failure(self) -> None:
        if self.max_outages is not None and self.outages >= self.max_outages:
            return
        assert self._rng is not None
        assert self.mean_time_to_failure is not None
        delay = self._rng.expovariate(1.0 / self.mean_time_to_failure)
        when = self.sim.now + delay
        if self.stop_time is not None and when >= self.stop_time:
            return
        self.sim.at(when, self._down)

    def _down(self) -> None:
        if self._holding:
            return
        self._holding = True
        self.outages += 1
        self._down_since = self.sim.now
        self.link.pause()
        if self._rng is not None:
            assert self.mean_outage is not None
            self.sim.after(
                self._rng.expovariate(1.0 / self.mean_outage), self._up
            )

    def _up(self) -> None:
        if not self._holding:
            return
        self._holding = False
        if self._down_since is not None:
            self.downtime += self.sim.now - self._down_since
            self._down_since = None
        self.link.resume(self.recovery)
        if self._rng is not None:
            self._schedule_failure()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkOutage({self.link.name}, outages={self.outages}, "
            f"downtime={self.downtime:.9g}s)"
        )


class FlowChurn:
    """A pool of flows joining and leaving a link mid-run.

    Each churn flow alternates off/on: after an ``Exp(mean_off)`` idle
    period it *joins* — registered with the link's scheduler at
    ``weight`` and driven by a traffic source built via
    ``make_source(flow_id, start, stop)`` — stays for ``Exp(mean_on)``,
    then *leaves*: its source stops, and once its last queued packet has
    drained the flow is removed from the scheduler (``remove_flow``
    rejects backlogged flows, so removal waits for the drain). A
    subsequent join re-registers the flow from scratch, which is exactly
    the path that exercises SFQ's virtual-time restart rule: the fresh
    tag chain starts at the *current* ``v(t)``, not at the flow's stale
    finish tag.

    Per-flow draws come from streams named ``"churn:<name>:<flow>"``, so
    churn timing is independent of everything else in the run.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        make_source: SourceFactory,
        *,
        streams: RandomStreams,
        flow_ids: Sequence[Hashable],
        mean_on: float,
        mean_off: float,
        weight: float = 1.0,
        stop_time: Optional[float] = None,
        name: str = "churn",
    ) -> None:
        if mean_on <= 0 or mean_off <= 0:
            raise ValueError("mean_on and mean_off must be positive")
        self.sim = sim
        self.link = link
        self.make_source = make_source
        self.flow_ids = list(flow_ids)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.weight = float(weight)
        self.stop_time = stop_time
        self.name = name
        self._rngs = {
            fid: streams.stream(f"churn:{name}:{fid}") for fid in self.flow_ids
        }
        self._started = False
        self._leaving: Set[Hashable] = set()
        self.active: Set[Hashable] = set()
        self.joins = 0
        self.leaves = 0
        self.sources: List[Source] = []
        link.departure_hooks.append(self._on_departure)

    def start(self) -> None:
        """Arm the churn process (schedules each flow's first join)."""
        if self._started:
            return
        self._started = True
        for fid in self.flow_ids:
            self._schedule_join(fid)

    # ------------------------------------------------------------------
    def _schedule_join(self, fid: Hashable) -> None:
        delay = self._rngs[fid].expovariate(1.0 / self.mean_off)
        when = self.sim.now + delay
        if self.stop_time is not None and when >= self.stop_time:
            return
        self.sim.at(when, self._join, fid)

    def _join(self, fid: Hashable) -> None:
        if fid in self.active or fid in self._leaving:
            return
        now = self.sim.now
        on_for = self._rngs[fid].expovariate(1.0 / self.mean_on)
        stop = now + on_for
        if self.stop_time is not None:
            stop = min(stop, self.stop_time)
        if fid not in self.link.scheduler.flows:
            self.link.scheduler.add_flow(fid, self.weight)
        source = self.make_source(fid, now, stop)
        self.sources.append(source)
        source.start()
        self.active.add(fid)
        self.joins += 1
        self.sim.at(stop, self._leave, fid)

    def _leave(self, fid: Hashable) -> None:
        if fid not in self.active:
            return
        self.active.discard(fid)
        self._leaving.add(fid)
        self._try_remove(fid)

    def _on_departure(self, packet: Packet, now: float) -> None:
        if packet.flow in self._leaving:
            self._try_remove(packet.flow)

    def _try_remove(self, fid: Hashable) -> None:
        """Remove the flow once its backlog has fully drained."""
        scheduler = self.link.scheduler
        if scheduler.flow_backlog(fid) > 0:
            return
        in_flight = self.link.in_flight
        if in_flight is not None and in_flight.flow == fid:
            return
        if fid in scheduler.flows:
            scheduler.remove_flow(fid)
        self._leaving.discard(fid)
        self.leaves += 1
        self._schedule_join(fid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowChurn({self.name}, joins={self.joins}, leaves={self.leaves}, "
            f"active={sorted(map(repr, self.active))})"
        )


class PacketFaults:
    """Seeded packet-level faults applied at an ingress point.

    Wraps any ingress callable (e.g. ``link.send``) and forwards
    packets through a fault pipeline:

    * **loss** — with probability ``p_loss`` the packet vanishes;
    * **reorder** — with probability ``p_reorder`` the packet is held
      for ``Uniform(0, max_reorder_delay)`` before delivery, letting
      packets behind it overtake.

    Draws come from the stream ``"pktfaults:<name>"``, one draw per
    configured fault class per packet, in a fixed order — so the fault
    pattern for a given seed is independent of event interleavings.

    Use ``faults.send`` as the source's ingress.
    """

    def __init__(
        self,
        sim: Simulator,
        ingress: Ingress,
        *,
        streams: RandomStreams,
        p_loss: float = 0.0,
        p_reorder: float = 0.0,
        max_reorder_delay: float = 0.0,
        name: str = "pktfaults",
    ) -> None:
        for label, p in (
            ("p_loss", p_loss),
            ("p_reorder", p_reorder),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")
        if p_reorder > 0 and max_reorder_delay <= 0:
            raise ValueError("reordering needs max_reorder_delay > 0")
        self.sim = sim
        self.ingress = ingress
        self.p_loss = float(p_loss)
        self.p_reorder = float(p_reorder)
        self.max_reorder_delay = float(max_reorder_delay)
        self._rng = streams.stream(f"pktfaults:{name}")
        self.lost = 0
        self.reordered = 0
        self.delivered = 0

    def send(self, packet: Packet) -> None:
        """Fault pipeline ingress; deliver (or not) downstream."""
        rng = self._rng
        if self.p_loss > 0 and rng.random() < self.p_loss:
            self.lost += 1
            return
        if self.p_reorder > 0 and rng.random() < self.p_reorder:
            delay = rng.uniform(0.0, self.max_reorder_delay)
            self.reordered += 1
            self.sim.after(delay, self._deliver, packet)
            return
        self._deliver(packet)

    __call__ = send

    def _deliver(self, packet: Packet) -> None:
        packet.arrival = self.sim.now
        self.delivered += 1
        self.ingress(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketFaults(lost={self.lost}, "
            f"reordered={self.reordered}, delivered={self.delivered})"
        )


class ServerStall:
    """Short scheduler freezes: the link stops dispatching for a moment.

    The paper's fluctuation-constrained server (Section 1) is one whose
    instantaneous rate dips below its nominal capacity for bounded
    stretches; a stall is that dip taken to zero. Unlike a
    :class:`LinkOutage`, a stall never destroys work: if a transmission
    is on the wire when the stall window opens, it is allowed to
    *finish* — the freeze only defers the start of the next service —
    and recovery is always ``"replay"``-clean.

    Parameters
    ----------
    schedule:
        Deterministic mode: ``(start, duration)`` pairs, strictly
        increasing and non-overlapping.
    streams, mean_time_between, mean_stall:
        Seeded mode: stalls arrive as a renewal process — after each
        recovery the next stall is ``Exp(mean_time_between)`` away and
        freezes the scheduler for ``Exp(mean_stall)``. Draws come from
        the stream ``"stall:<link name>"``.
    max_stalls, stop_time:
        Bounds for the seeded mode (either may be ``None``).

    Call :meth:`start` to arm the injector.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        schedule: Optional[Sequence[Tuple[float, float]]] = None,
        *,
        streams: Optional[RandomStreams] = None,
        mean_time_between: Optional[float] = None,
        mean_stall: Optional[float] = None,
        max_stalls: Optional[int] = None,
        stop_time: Optional[float] = None,
    ) -> None:
        seeded = streams is not None
        if seeded == (schedule is not None):
            raise ValueError(
                "provide exactly one of schedule= (deterministic) or "
                "streams= (seeded renewal process)"
            )
        if seeded and (mean_time_between is None or mean_stall is None):
            raise ValueError(
                "seeded mode needs mean_time_between and mean_stall"
            )
        if schedule is not None:
            last_end = float("-inf")
            for start, duration in schedule:
                if duration <= 0 or start <= last_end:
                    raise ValueError(
                        f"stall [{start}, +{duration}] overlaps or is empty"
                    )
                last_end = start + duration
        self.sim = sim
        self.link = link
        self.schedule = list(schedule) if schedule is not None else None
        self.mean_time_between = mean_time_between
        self.mean_stall = mean_stall
        self.max_stalls = max_stalls
        self.stop_time = stop_time
        self._rng = streams.stream(f"stall:{link.name}") if seeded else None
        self._started = False
        #: Stall window open, waiting for the in-flight packet to finish
        #: before the freeze can take hold.
        self._pending = False
        #: This injector currently owns a hold on the link.
        self._holding = False
        self.stalls = 0
        self.stalled_time = 0.0
        self._stall_since: Optional[float] = None
        link.departure_hooks.append(self._on_departure)

    def start(self) -> None:
        """Arm the injector (schedules the first stall)."""
        if self._started:
            return
        self._started = True
        if self.schedule is not None:
            for begin, duration in self.schedule:
                self.sim.at(begin, self._freeze)
                self.sim.at(begin + duration, self._thaw)
        else:
            self._schedule_stall()

    # ------------------------------------------------------------------
    def _schedule_stall(self) -> None:
        if self.max_stalls is not None and self.stalls >= self.max_stalls:
            return
        assert self._rng is not None
        assert self.mean_time_between is not None
        when = self.sim.now + self._rng.expovariate(1.0 / self.mean_time_between)
        if self.stop_time is not None and when >= self.stop_time:
            return
        self.sim.at(when, self._freeze)

    def _freeze(self) -> None:
        if self._pending or self._holding:
            return
        self.stalls += 1
        if self.link.busy:
            # Let the transmission on the wire complete; the departure
            # hook takes the hold the instant it does.
            self._pending = True
        else:
            self._holding = True
            self._stall_since = self.sim.now
            self.link.pause()
        if self._rng is not None:
            assert self.mean_stall is not None
            self.sim.after(
                self._rng.expovariate(1.0 / self.mean_stall), self._thaw
            )

    def _on_departure(self, packet: Packet, now: float) -> None:
        if self._pending:
            self._pending = False
            self._holding = True
            self._stall_since = now
            self.link.pause()

    def _thaw(self) -> None:
        if self._pending:
            # Window closed before the in-flight packet finished: the
            # freeze never took hold, nothing to release.
            self._pending = False
        elif self._holding:
            self._holding = False
            if self._stall_since is not None:
                self.stalled_time += self.sim.now - self._stall_since
                self._stall_since = None
            # A stall never owns an interrupted packet (it waited for
            # the wire to clear), so "replay" recovery is a pure
            # service-loop restart.
            self.link.resume("replay")
        if self._rng is not None:
            self._schedule_stall()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerStall({self.link.name}, stalls={self.stalls}, "
            f"stalled={self.stalled_time:.9g}s)"
        )


#: Observer invoked after each applied re-weighting:
#: ``(flow_id, new_weight, now)``. The chaos runner hangs the fairness
#: monitor's span rebase off this.
ReweightHook = Callable[[Hashable, float, float], None]


class WeightReconfig:
    """Mid-run flow re-weighting through ``Scheduler.set_weight``.

    Theorem 1 is stated for constant rates :math:`r_f`; re-weighting a
    flow mid-run is therefore the control-plane event the fairness
    guarantee is most sensitive to — tags already assigned keep the old
    rate while subsequently arriving packets use the new one (the
    generalized per-packet-rate algorithm of Section 2.3). This
    injector drives exactly that event, deterministically or on a
    seeded clock.

    Parameters
    ----------
    events:
        Deterministic mode: ``(time, flow_id, new_weight)`` triples,
        applied in time order.
    streams, flow_ids, mean_interval:
        Seeded mode: every ``Exp(mean_interval)`` one flow of
        ``flow_ids`` (uniform choice) is re-weighted by a factor drawn
        uniformly from ``factor_range``, clamped to
        ``[min_weight, max_weight]``. Draws come from the stream
        ``"reweight:<name>"``.
    on_reweight:
        Optional observer called after each *applied* re-weighting.
        Monitors use this to restart measurement spans whose constants
        changed under them.

    Re-weightings addressed to flows the scheduler does not currently
    know (e.g. churned away) are counted in :attr:`skipped` and
    otherwise ignored — a control-plane update racing flow removal is
    not an error. Call :meth:`start` to arm the injector.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        events: Optional[Sequence[Tuple[float, Hashable, float]]] = None,
        *,
        streams: Optional[RandomStreams] = None,
        flow_ids: Optional[Sequence[Hashable]] = None,
        mean_interval: Optional[float] = None,
        factor_range: Tuple[float, float] = (0.5, 2.0),
        min_weight: float = 1e-6,
        max_weight: float = float("inf"),
        stop_time: Optional[float] = None,
        max_events: Optional[int] = None,
        name: str = "reweight",
        on_reweight: Optional[ReweightHook] = None,
    ) -> None:
        seeded = streams is not None
        if seeded == (events is not None):
            raise ValueError(
                "provide exactly one of events= (deterministic) or "
                "streams= (seeded process)"
            )
        if seeded and (not flow_ids or mean_interval is None):
            raise ValueError("seeded mode needs flow_ids and mean_interval")
        if events is not None:
            for _, _, weight in events:
                if weight <= 0:
                    raise ValueError(f"weight must be positive, got {weight}")
        if factor_range[0] <= 0 or factor_range[1] < factor_range[0]:
            raise ValueError(f"bad factor_range {factor_range}")
        self.sim = sim
        self.link = link
        self.events = list(events) if events is not None else None
        self.flow_ids = list(flow_ids) if flow_ids else []
        self.mean_interval = mean_interval
        self.factor_range = factor_range
        self.min_weight = float(min_weight)
        self.max_weight = float(max_weight)
        self.stop_time = stop_time
        self.max_events = max_events
        self.name = name
        self.on_reweight = on_reweight
        self._rng = streams.stream(f"reweight:{name}") if seeded else None
        self._started = False
        self.applied = 0
        self.skipped = 0

    def start(self) -> None:
        """Arm the injector."""
        if self._started:
            return
        self._started = True
        if self.events is not None:
            for when, flow_id, weight in self.events:
                self.sim.at(when, self._apply, flow_id, float(weight))
        else:
            self._schedule_next()

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        if self.max_events is not None and self.applied >= self.max_events:
            return
        assert self._rng is not None
        assert self.mean_interval is not None
        when = self.sim.now + self._rng.expovariate(1.0 / self.mean_interval)
        if self.stop_time is not None and when >= self.stop_time:
            return
        self.sim.at(when, self._tick)

    def _tick(self) -> None:
        rng = self._rng
        assert rng is not None
        flow_id = self.flow_ids[rng.randrange(len(self.flow_ids))]
        factor = rng.uniform(*self.factor_range)
        state = self.link.scheduler.flows.get(flow_id)
        if state is None:
            self.skipped += 1
        else:
            new_weight = min(
                max(state.weight * factor, self.min_weight), self.max_weight
            )
            self._apply(flow_id, new_weight)
        self._schedule_next()

    def _apply(self, flow_id: Hashable, weight: float) -> None:
        scheduler = self.link.scheduler
        if flow_id not in scheduler.flows:
            self.skipped += 1
            return
        scheduler.set_weight(flow_id, weight)
        self.applied += 1
        if self.on_reweight is not None:
            self.on_reweight(flow_id, weight, self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightReconfig({self.name}, applied={self.applied}, "
            f"skipped={self.skipped})"
        )
