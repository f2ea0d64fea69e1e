"""MetricsHub: a per-server registry of online instruments.

A hub follows the ``NullTracer`` pattern from
:mod:`repro.simulation.tracing`: hot-path call sites guard every update
with ``if metrics.enabled:``, so a server wired to the
:data:`NULL_METRICS` singleton (the default) pays one attribute read
per packet and nothing else. When a :class:`~repro.metrics.session.
MetricsSession` is active, servers get a live hub and the same guard
routes arrivals, departures, and drops into the instruments of
:mod:`repro.metrics.instruments`.

A ``Link`` makes two hub calls per packet, :meth:`MetricsHub.on_arrival`
and :meth:`MetricsHub.on_served`, each carrying the scheduler backlog
after the event for the ``queue_depth`` and ``backlog_bits`` gauges.
Neither hook touches an instrument: each appends the event's values to
columns (per flow: lengths, delays and departure times; per hub:
departure times and lengths for ``link_throughput``, backlog packets and
bits for the two gauges). Every :data:`FOLD_ROWS` events the hub *folds*
the columns into the instruments through their batch methods, per
instrument in event order, so the instruments end bit-identical to one
update per event.

Fold-on-read contract: every read through the hub (``counter``,
``gauge``, ``histogram``, ``rate_meter``, ``get``, ``labels``,
``families``, ``to_payload`` and ``merge``) folds the buffered rows
first, so it sees every event so far, and so does any instrument object
fetched earlier, once a later hub read has run. Write to the standard
families below only through the hooks: a write through a held
instrument object lands before the rows still buffered. A hub's memory
is its instruments plus at most :data:`FOLD_ROWS` buffered rows.
:meth:`~MetricsHub.on_dropped` updates its two counters directly.

Standard instrument catalog (what :meth:`MetricsHub.on_arrival` and
friends populate; see HACKING.md "Metrics" for the full description):

=====================  =========  ======  ==================================
family                 kind       label   meaning
=====================  =========  ======  ==================================
``packets_arrived``    counter    flow    accepted arrivals
``bits_arrived``       counter    flow    accepted arrival bits
``packets_served``     counter    flow    departures
``bits_served``        counter    flow    departed bits
``packets_dropped``    counter    flow    drops (buffer/evict/outage)
``bits_dropped``       counter    flow    dropped bits
``delay``              histogram  flow    arrival->departure delay (s)
``packet_length``      histogram  flow    accepted packet lengths (bits)
``throughput``         ratemeter  flow    departed bits per window
``link_throughput``    ratemeter  --      all departed bits per window
``queue_depth``        gauge      --      scheduler backlog (packets)
``backlog_bits``       gauge      --      scheduler backlog (bits)
=====================  =========  ======  ==================================

Servers and monitors may also register ad-hoc instruments through the
generic accessors (:meth:`counter`, :meth:`gauge`, :meth:`histogram`,
:meth:`rate_meter`) — e.g. the fault monitors count invariant
violations as ``invariant_violations{monitor}``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, List, Optional, Tuple, Type, Union

from repro.metrics.instruments import (
    Counter,
    Gauge,
    Histogram,
    RateMeter,
    decode_label,
    encode_label,
)

__all__ = [
    "MetricsHub",
    "NullMetricsHub",
    "NULL_METRICS",
    "DEFAULT_RATE_WINDOW",
    "DELAY_HISTOGRAM",
    "LENGTH_HISTOGRAM",
    "FOLD_ROWS",
]

Instrument = Union[Counter, Gauge, Histogram, RateMeter]

#: Payload schema identifier (bump on incompatible layout changes).
SCHEMA = "metrics-hub/1"

#: Default RateMeter window (seconds of simulation time). Figure 1/2
#: runs last O(1..10) simulated seconds, so 100 ms windows give a
#: usable utilization curve without storing per-packet state.
DEFAULT_RATE_WINDOW = 0.1

#: Delay histogram layout: 64 geometric buckets over 1 us .. 1000 s.
DELAY_HISTOGRAM = (1e-6, 1e3, 64)

#: Packet-length histogram layout: 40 geometric buckets over
#: 8 bits .. 10 Mbit (covers every packet size the experiments use).
LENGTH_HISTOGRAM = (8.0, 1e7, 40)

#: Buffered events (arrivals, departures and backlog samples) after
#: which a hub folds its columns into the instruments. Large enough that
#: a fold's few calls per flow vanish per packet, small enough that the
#: buffer stays well under a MiB.
FOLD_ROWS = 4096

_KINDS: Dict[str, Type[Instrument]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "ratemeter": RateMeter,
}


def _label_sort_key(label: Hashable) -> str:
    """Deterministic ordering for mixed-type labels in payloads."""
    return json.dumps(encode_label(label), sort_keys=True)


class _FlowHandles:
    """Resolved per-flow instruments — one registry lookup per flow,
    not per fold."""

    __slots__ = (
        "packets_arrived",
        "bits_arrived",
        "packets_served",
        "bits_served",
        "packets_dropped",
        "bits_dropped",
        "delay",
        "packet_length",
        "throughput",
    )

    def __init__(self, hub: "MetricsHub", flow: Hashable) -> None:
        self.packets_arrived = hub.counter("packets_arrived", flow)
        self.bits_arrived = hub.counter("bits_arrived", flow)
        self.packets_served = hub.counter("packets_served", flow)
        self.bits_served = hub.counter("bits_served", flow)
        self.packets_dropped = hub.counter("packets_dropped", flow)
        self.bits_dropped = hub.counter("bits_dropped", flow)
        lo, hi, bins = DELAY_HISTOGRAM
        self.delay = hub.histogram("delay", flow, lo=lo, hi=hi, bins=bins)
        lo, hi, bins = LENGTH_HISTOGRAM
        self.packet_length = hub.histogram(
            "packet_length", flow, lo=lo, hi=hi, bins=bins
        )
        self.throughput = hub.rate_meter("throughput", flow)


class MetricsHub:
    """Registry of named instrument families for one server.

    A *family* is a named set of same-kind instruments keyed by label
    (the per-flow dimension); unlabeled instruments use ``None``. The
    generic accessors create instruments on first use and return the
    existing one afterwards, so call sites never need registration
    boilerplate. Payload round-trip and shard merging work family- and
    label-wise.
    """

    __slots__ = (
        "name",
        "enabled",
        "rate_window",
        "_families",
        "_flow_cache",
        "_arrived",
        "_served",
        "_link_times",
        "_link_lengths",
        "_depths",
        "_bits",
    )

    def __init__(self, name: str, rate_window: float = DEFAULT_RATE_WINDOW) -> None:
        self.name = name
        #: Hot-path guard, in the style of ``Tracer.enabled``: a slot,
        #: so ``if metrics.enabled:`` is one specialized attribute read.
        self.enabled = True
        self.rate_window = float(rate_window)
        # family name -> (kind, {label: instrument})
        self._families: Dict[str, Tuple[str, Dict[Hashable, Instrument]]] = {}
        self._flow_cache: Dict[Hashable, _FlowHandles] = {}
        # Buffered rows, one column per instrument input (see _fold).
        # flow -> accepted arrival lengths
        self._arrived: Dict[Hashable, List[float]] = {}
        # flow -> (departed lengths, delays, departure times)
        self._served: Dict[Hashable, Tuple[List[float], List[float], List[float]]] = {}
        self._link_times: List[float] = []
        self._link_lengths: List[float] = []
        # One entry per buffered event: its length is the row count.
        self._depths: List[float] = []
        self._bits: List[float] = []
        self.rate_meter("link_throughput")
        self.gauge("queue_depth")
        self.gauge("backlog_bits")

    # ------------------------------------------------------------------
    # Generic instrument accessors (create-on-first-use)
    # ------------------------------------------------------------------
    def _family(self, family: str, kind: str) -> Dict[Hashable, Instrument]:
        entry = self._families.get(family)
        if entry is None:
            by_label: Dict[Hashable, Instrument] = {}
            self._families[family] = (kind, by_label)
            return by_label
        if entry[0] != kind:
            raise ValueError(
                f"instrument family {family!r} already registered as "
                f"{entry[0]}, cannot reuse as {kind}"
            )
        return entry[1]

    def counter(self, family: str, label: Hashable = None) -> Counter:
        """The counter ``family{label}``, created on first use."""
        self._fold()
        by_label = self._family(family, "counter")
        inst = by_label.get(label)
        if inst is None:
            inst = Counter()
            by_label[label] = inst
        assert isinstance(inst, Counter)
        return inst

    def gauge(self, family: str, label: Hashable = None) -> Gauge:
        """The gauge ``family{label}``, created on first use."""
        self._fold()
        by_label = self._family(family, "gauge")
        inst = by_label.get(label)
        if inst is None:
            inst = Gauge()
            by_label[label] = inst
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self,
        family: str,
        label: Hashable = None,
        *,
        lo: float,
        hi: float,
        bins: int,
    ) -> Histogram:
        """The histogram ``family{label}``; layout params apply only on
        first creation (all members of a family share one layout so
        shard merges stay bucket-compatible)."""
        self._fold()
        by_label = self._family(family, "histogram")
        inst = by_label.get(label)
        if inst is None:
            inst = Histogram(lo, hi, bins)
            by_label[label] = inst
        assert isinstance(inst, Histogram)
        return inst

    def rate_meter(
        self,
        family: str,
        label: Hashable = None,
        *,
        window: Optional[float] = None,
    ) -> RateMeter:
        """The rate meter ``family{label}``; the window defaults to the
        hub's ``rate_window`` and applies only on first creation."""
        self._fold()
        by_label = self._family(family, "ratemeter")
        inst = by_label.get(label)
        if inst is None:
            inst = RateMeter(self.rate_window if window is None else window)
            by_label[label] = inst
        assert isinstance(inst, RateMeter)
        return inst

    # ------------------------------------------------------------------
    # Hot-path update methods (call sites guard with `if metrics.enabled`)
    # ------------------------------------------------------------------
    def _flow(self, flow: Hashable) -> _FlowHandles:
        handles = self._flow_cache.get(flow)
        if handles is None:
            handles = _FlowHandles(self, flow)
            self._flow_cache[flow] = handles
        return handles

    def on_arrival(  # lint: hot
        self,
        flow: Hashable,
        length: float,
        now: float,
        backlog_packets: int,
        backlog_bits: float,
    ) -> None:
        """An arrival was accepted; the scheduler now holds
        ``backlog_packets`` packets of ``backlog_bits`` bits."""
        try:
            self._arrived[flow].append(length)
        except KeyError:
            self._arrived[flow] = [length]
        depths = self._depths
        depths.append(backlog_packets)
        self._bits.append(backlog_bits)
        if len(depths) >= FOLD_ROWS:
            self._fold()

    def on_served(  # lint: hot
        self,
        flow: Hashable,
        length: float,
        delay: float,
        now: float,
        backlog_packets: int,
        backlog_bits: float,
    ) -> None:
        """A packet finished transmission ``delay`` seconds after arrival,
        leaving ``backlog_packets`` packets of ``backlog_bits`` bits."""
        try:
            lengths, delays, times = self._served[flow]
        except KeyError:
            lengths, delays, times = [], [], []
            self._served[flow] = (lengths, delays, times)
        lengths.append(length)
        delays.append(delay)
        times.append(now)
        self._link_times.append(now)
        self._link_lengths.append(length)
        depths = self._depths
        depths.append(backlog_packets)
        self._bits.append(backlog_bits)
        if len(depths) >= FOLD_ROWS:
            self._fold()

    def on_dropped(self, flow: Hashable, length: float, now: float) -> None:
        """A packet was lost (buffer reject, eviction, or outage)."""
        handles = self._flow(flow)
        handles.packets_dropped.add(1)
        handles.bits_dropped.add(length)

    def on_queue_sample(self, packets: int, bits: float) -> None:
        """Record the scheduler backlog outside an arrival or departure
        (those hooks take it as arguments)."""
        depths = self._depths
        depths.append(packets)
        self._bits.append(bits)
        if len(depths) >= FOLD_ROWS:
            self._fold()

    def _fold(self) -> None:
        """Apply the buffered rows to the instruments, each instrument's
        rows in event order.

        The columns are swapped for empty ones before any is applied, so
        the accessors that resolve handles below find nothing to fold.
        Packet counters take a column's row count in one ``add``: they
        only ever hold ints, so that equals one ``add(1)`` per row.
        """
        depths = self._depths
        if not depths:
            return
        arrived, served = self._arrived, self._served
        link_times, link_lengths, bits = (
            self._link_times, self._link_lengths, self._bits
        )
        self._arrived = {}
        self._served = {}
        self._link_times = []
        self._link_lengths = []
        self._depths = []
        self._bits = []
        for flow, lengths in arrived.items():
            handles = self._flow(flow)
            handles.packets_arrived.add(len(lengths))
            handles.bits_arrived.add_many(lengths)
            handles.packet_length.observe_many(lengths)
        for flow, (lengths, delays, times) in served.items():
            handles = self._flow(flow)
            handles.packets_served.add(len(lengths))
            handles.bits_served.add_many(lengths)
            handles.delay.observe_many(delays)
            handles.throughput.add_many(times, lengths)
        self.rate_meter("link_throughput").add_many(link_times, link_lengths)
        self.gauge("queue_depth").set_many(depths)
        self.gauge("backlog_bits").set_many(bits)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def families(self) -> List[str]:
        """Registered family names, sorted."""
        self._fold()
        return sorted(self._families)

    def labels(self, family: str) -> List[Hashable]:
        """Labels registered under ``family``, deterministically sorted."""
        self._fold()
        entry = self._families.get(family)
        if entry is None:
            return []
        return sorted(entry[1], key=_label_sort_key)

    def get(self, family: str, label: Hashable = None) -> Optional[Instrument]:
        """The instrument ``family{label}`` if it exists (no creation)."""
        self._fold()
        entry = self._families.get(family)
        if entry is None:
            return None
        return entry[1].get(label)

    def to_payload(self) -> Dict[str, Any]:
        """Lossless JSON-compatible state, deterministically ordered."""
        self._fold()
        instruments = []
        for family in sorted(self._families):
            kind, by_label = self._families[family]
            for label in sorted(by_label, key=_label_sort_key):
                instruments.append(
                    {
                        "family": family,
                        "kind": kind,
                        "label": encode_label(label),
                        "state": by_label[label].to_payload(),
                    }
                )
        return {
            "schema": SCHEMA,
            "name": self.name,
            "rate_window": self.rate_window,
            "instruments": instruments,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsHub":
        """Rebuild a hub from :meth:`to_payload` output (lossless)."""
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported metrics-hub schema {payload.get('schema')!r}"
            )
        hub = cls(payload["name"], payload["rate_window"])
        for item in payload["instruments"]:
            kind = item["kind"]
            instrument_cls = _KINDS.get(kind)
            if instrument_cls is None:
                raise ValueError(f"unknown instrument kind {kind!r}")
            by_label = hub._family(item["family"], kind)
            by_label[decode_label(item["label"])] = instrument_cls.from_payload(
                item["state"]
            )
        return hub

    def merge(self, other: "MetricsHub") -> None:
        """Accumulate another hub (a campaign shard) into this one.

        Both hubs fold their buffered rows first. Shared instruments
        merge kind-wise, in place (counters sum, gauges max, histograms
        bucket-wise, rate meters window-wise); instruments only the
        other hub has are deep-copied in via their payloads.
        """
        self._fold()
        other._fold()
        for family, (kind, by_label) in other._families.items():
            mine = self._family(family, kind)
            for label, instrument in by_label.items():
                existing = mine.get(label)
                if existing is None:
                    mine[label] = type(instrument).from_payload(
                        instrument.to_payload()
                    )
                else:
                    # Kinds match within a family, so these are same-type.
                    existing.merge(instrument)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = sum(len(by_label) for _, by_label in self._families.values())
        return f"MetricsHub({self.name!r}, {n} instruments)"


class NullMetricsHub(MetricsHub):
    """The do-nothing hub wired into servers by default.

    ``enabled`` is False, so a hot-path guard
    (``if metrics.enabled:``) costs one attribute read and skips every
    update — the exact discipline ``NullTracer`` established. The full
    accessor surface still works (it is a real, empty hub) so
    non-hot-path code never needs to special-case it; anything written
    to it unguarded is simply never exported.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")
        self.enabled = False


#: Shared do-nothing hub (never exported; see :class:`NullMetricsHub`).
NULL_METRICS = NullMetricsHub()
