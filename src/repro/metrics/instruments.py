"""Streaming instruments: Counter, Gauge, Histogram, RateMeter.

Each instrument is a constant-memory online accumulator: updates are a
handful of arithmetic operations and dict/list accesses, never an
allocation proportional to the number of observations. All state is a
pure function of the observation sequence (values and simulation
timestamps), so two runs that process the same packets produce
bit-identical instruments — the same property the campaign cache and
the trace-equivalence suite rely on elsewhere.

Each instrument has one batch update method, written as a plain
in-order loop (:meth:`Counter.add_many`, :meth:`Gauge.set_many`,
:meth:`Histogram.observe_many`, :meth:`RateMeter.add_many`), and its
single-event method (``add``, ``set``, ``observe``) hands that method a
one-element batch. Each bucketing, windowing and high-water rule is
therefore written once, and a batch leaves an instrument bit-identical
to the same values applied one at a time: floats are added in arrival
order, never through ``sum()`` or ``math.fsum``. A live
:class:`~repro.metrics.hub.MetricsHub` buffers its per-packet rows and
folds them in through these batch methods (see its fold-on-read
contract), so an instrument object read straight after a hub hook may
not yet include that event: read through the hub, or after any hub
read.

Every instrument supports a lossless payload round-trip
(:meth:`to_payload` / ``from_payload``) and an in-place :meth:`merge`
with a compatible instrument, which is how campaign shard snapshots
aggregate (see :mod:`repro.metrics.snapshot`).

Instrument *labels* (the per-flow dimension) are encoded with
:func:`encode_label` / :func:`decode_label`: scalars pass through and
tuple flow ids round-trip via a tagged list, mirroring (but not
depending on) the ``ExperimentResult`` codec.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "RateMeter",
    "encode_label",
    "decode_label",
]

#: Tag key for tuple-valued labels in JSON payloads.
_TUPLE_TAG = "t"


def encode_label(label: Hashable) -> Any:
    """Encode an instrument label (flow id) as JSON-compatible data.

    Scalars (``str``/``int``/``float``/``bool``/``None``) pass through;
    tuples become ``{"t": [...]}`` recursively. Anything else raises
    ``TypeError`` so an unserializable flow id fails loudly at snapshot
    time rather than corrupting the export.
    """
    if label is None or isinstance(label, (bool, str, int, float)):
        return label
    if isinstance(label, tuple):
        return {_TUPLE_TAG: [encode_label(item) for item in label]}
    raise TypeError(f"cannot encode instrument label {label!r}")


def decode_label(data: Any) -> Hashable:
    """Inverse of :func:`encode_label`."""
    if isinstance(data, dict):
        return tuple(decode_label(item) for item in data[_TUPLE_TAG])
    if isinstance(data, list):  # defensive: JSON has no tuples
        return tuple(decode_label(item) for item in data)
    return data  # type: ignore[no-any-return]


class Counter:
    """A monotonically accumulating sum (packets served, bytes dropped).

    ``value`` stays an ``int`` as long as only integers are added, so
    counter exports are exact (no float rounding on packet counts).
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value: float = value

    def add(self, amount: float = 1) -> None:
        """Accumulate ``amount`` (typically 1 or a packet length)."""
        self.add_many((amount,))

    def add_many(self, amounts: Iterable[float]) -> None:  # lint: hot
        """Accumulate each of ``amounts``, in order."""
        value = self.value
        for amount in amounts:
            value += amount
        self.value = value

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible state."""
        return {"value": self.value}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Counter":
        """Rebuild from :meth:`to_payload` output."""
        return cls(payload["value"])

    def merge(self, other: "Counter") -> None:
        """Accumulate another shard's counter (sum)."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value!r})"


class Gauge:
    """A last-value instrument with a high-water mark (queue depth).

    :attr:`value` is the most recently set level; :attr:`high` the
    maximum ever set. Merging keeps the maximum of both fields — the
    peak across shards is the meaningful aggregate for a level signal
    (the "final" value of a merged run is not well defined).
    """

    __slots__ = ("value", "high")

    def __init__(self, value: float = 0, high: float = 0) -> None:
        self.value: float = value
        self.high: float = high

    def set(self, value: float) -> None:
        """Record the current level."""
        self.set_many((value,))

    def set_many(self, values: Iterable[float]) -> None:  # lint: hot
        """Record each of ``values`` in turn: the last is the level."""
        value = self.value
        high = self.high
        for value in values:
            if value > high:
                high = value
        self.value = value
        self.high = high

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible state."""
        return {"value": self.value, "high": self.high}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Gauge":
        """Rebuild from :meth:`to_payload` output."""
        return cls(payload["value"], payload["high"])

    def merge(self, other: "Gauge") -> None:
        """Combine with another shard's gauge (max of value and high)."""
        if other.value > self.value:
            self.value = other.value
        if other.high > self.high:
            self.high = other.high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(value={self.value!r}, high={self.high!r})"


@lru_cache(maxsize=64)
def _histogram_edges(lo: float, hi: float, bins: int) -> Tuple[float, ...]:
    """Bucket boundaries of the ``(lo, hi, bins)`` layout, lo..hi
    inclusive (``bins + 1`` edges). Every histogram of one layout shares
    the one immutable tuple, so a metered flow does not pay for its own
    copy of the edges."""
    ratio = (hi / lo) ** (1.0 / bins)
    return tuple(lo * ratio**i for i in range(bins + 1))


class Histogram:
    """Fixed-bucket log-scale histogram (per-flow delay, packet length).

    The bucket layout is fully determined by ``(lo, hi, bins)``:
    ``bins`` buckets whose boundaries are geometrically spaced from
    ``lo`` to ``hi``, plus an underflow bucket (values below ``lo``,
    including zero and negatives) and an overflow bucket (values at or
    above ``hi``). ``counts`` therefore has ``bins + 2`` entries. The
    layout never adapts to the data — deterministic bucketing is what
    makes shard histograms mergeable bucket-by-bucket.

    Alongside the buckets the exact ``count``/``total``/``vmin``/``vmax``
    are tracked, so means are not quantized by the bucket width.
    """

    __slots__ = ("lo", "hi", "bins", "counts", "count", "total", "vmin", "vmax", "_edges")

    def __init__(self, lo: float, hi: float, bins: int) -> None:
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        if bins < 1:
            raise ValueError(f"need bins >= 1, got {bins!r}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        #: bucket boundaries, shared by every histogram of this layout
        self._edges = _histogram_edges(self.lo, self.hi, self.bins)
        self.counts: List[int] = [0] * (self.bins + 2)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:  # lint: hot
        """Record each of ``values``, in order."""
        counts = self.counts
        edges = self._edges
        total = self.total
        vmin = self.vmin
        vmax = self.vmax
        last: Optional[float] = None
        index = 0
        for value in values:
            if value != last:  # a run of one packet size bisects once
                index = bisect_right(edges, value)
                last = value
            counts[index] += 1
            total += value
            if vmin is None or value < vmin:
                vmin = value
            if vmax is None or value > vmax:
                vmax = value
        self.count += len(values)
        self.total = total
        self.vmin = vmin
        self.vmax = vmax

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket layout.

        Returns the upper bound of the bucket containing the quantile
        (``vmax``/``vmin`` for the outer buckets), which bounds the true
        quantile within one geometric bucket width. 0.0 when empty.
        """
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                if index == 0:
                    return self.lo if self.vmin is None else min(self.lo, self.vmin)
                if index == self.bins + 1:
                    return self.hi if self.vmax is None else self.vmax
                return self._edges[index]
        return self.hi if self.vmax is None else self.vmax

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible state (layout config + buckets + exact stats)."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`to_payload` output."""
        hist = cls(payload["lo"], payload["hi"], payload["bins"])
        hist.counts = [int(c) for c in payload["counts"]]
        hist.count = int(payload["count"])
        hist.total = float(payload["total"])
        hist.vmin = payload["min"]
        hist.vmax = payload["max"]
        return hist

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise merge; layouts must match exactly."""
        if (self.lo, self.hi, self.bins) != (other.lo, other.hi, other.bins):
            raise ValueError(
                f"cannot merge histograms with layouts "
                f"({self.lo}, {self.hi}, {self.bins}) and "
                f"({other.lo}, {other.hi}, {other.bins})"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.vmin is not None and (self.vmin is None or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax is not None and (self.vmax is None or other.vmax > self.vmax):
            self.vmax = other.vmax

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(lo={self.lo:g}, hi={self.hi:g}, bins={self.bins}, "
            f"count={self.count})"
        )


class RateMeter:
    """Windowed accumulator producing a (time, rate) series.

    Simulation time is divided into fixed windows of ``window`` seconds;
    :meth:`add` accumulates ``amount`` into the window containing
    ``now``. Only non-empty windows are stored (sparse), so a mostly
    idle link costs nothing. :meth:`series` converts to
    ``(window_start, amount / window)`` pairs — e.g. bits accumulated
    per window become a bits-per-second throughput curve, the live
    analogue of Figure 2's time series.
    """

    __slots__ = ("window", "buckets", "last_time")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        self.window = float(window)
        #: window index -> accumulated amount (sparse)
        self.buckets: Dict[int, float] = {}
        #: largest timestamp observed (-inf before the first sample)
        self.last_time = float("-inf")

    def add(self, now: float, amount: float) -> None:
        """Accumulate ``amount`` into the window containing ``now``."""
        self.add_many((now,), (amount,))

    def add_many(  # lint: hot
        self, times: Iterable[float], amounts: Iterable[float]
    ) -> None:
        """Accumulate each ``amounts[i]`` into the window containing
        ``times[i]``, in order."""
        window = self.window
        buckets = self.buckets
        get = buckets.get
        last_time = self.last_time
        # The open window's running sum stays in ``acc`` until the next
        # row falls in another window: same additions, in the same order.
        open_index: Optional[int] = None
        acc = 0.0
        for now, amount in zip(times, amounts):
            index = int(now / window)
            if index == open_index:
                acc += amount
            else:
                if open_index is not None:
                    buckets[open_index] = acc
                bucket = get(index)
                acc = amount if bucket is None else bucket + amount
                open_index = index
            if now > last_time:
                last_time = now
        if open_index is not None:
            buckets[open_index] = acc
        self.last_time = last_time

    @property
    def total(self) -> float:
        """Sum of all accumulated amounts."""
        return sum(self.buckets.values())

    def series(self) -> List[Tuple[float, float]]:
        """``(window_start_time, rate)`` pairs in time order.

        The rate is ``amount / window``; windows with no samples are
        omitted (a reader should treat gaps as zero).
        """
        return [
            (index * self.window, amount / self.window)
            for index, amount in sorted(self.buckets.items())
        ]

    def to_payload(self) -> Dict[str, Any]:
        """JSON-compatible state (sparse window sums, not rates)."""
        return {
            "window": self.window,
            "buckets": [[index, amount] for index, amount in sorted(self.buckets.items())],
            "last_time": self.last_time if self.buckets else None,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RateMeter":
        """Rebuild from :meth:`to_payload` output."""
        meter = cls(payload["window"])
        meter.buckets = {int(index): amount for index, amount in payload["buckets"]}
        last = payload.get("last_time")
        meter.last_time = float("-inf") if last is None else float(last)
        return meter

    def merge(self, other: "RateMeter") -> None:
        """Window-wise sum; window widths must match exactly."""
        if self.window != other.window:
            raise ValueError(
                f"cannot merge rate meters with windows "
                f"{self.window} and {other.window}"
            )
        for index, amount in other.buckets.items():
            bucket = self.buckets.get(index)
            self.buckets[index] = amount if bucket is None else bucket + amount
        if other.last_time > self.last_time:
            self.last_time = other.last_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RateMeter(window={self.window:g}, windows={len(self.buckets)})"
