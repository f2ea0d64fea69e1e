"""Multi-hop tandem paths for end-to-end delay experiments.

Corollary 1 of the paper bounds the departure time of a packet from the
K-th server of a path in terms of its expected arrival time at the
*first* server, summing per-hop β terms and propagation delays. The
:class:`Tandem` wires K links in series: when a packet departs hop i it
is re-injected (as a fresh copy with fresh scheduler tags, per the GR
framework's per-server EAT) into hop i+1 after the configured
propagation delay.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.base import Scheduler
from repro.core.packet import Packet
from repro.servers.base import CapacityProcess
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.transport.sink import PacketSink

#: Decides whether a packet continues to the next hop; packets it
#: rejects terminate at the hop where they were served (hop-local cross
#: traffic in end-to-end experiments).
ForwardFilter = Callable[[Packet], bool]


class Tandem:
    """K servers in series with per-hop propagation delays."""

    def __init__(
        self,
        sim: Simulator,
        schedulers: Sequence[Scheduler],
        capacities: Sequence[CapacityProcess],
        propagation_delays: Optional[Sequence[float]] = None,
        name: str = "tandem",
        forward_filter: Optional[ForwardFilter] = None,
    ) -> None:
        if len(schedulers) != len(capacities):
            raise ValueError("need one capacity per scheduler")
        k = len(schedulers)
        if k == 0:
            raise ValueError("a tandem needs at least one hop")
        if propagation_delays is None:
            propagation_delays = [0.0] * (k - 1)
        if len(propagation_delays) != k - 1:
            raise ValueError(f"need {k - 1} propagation delays, got {len(propagation_delays)}")
        self.sim = sim
        self.forward_filter = forward_filter
        self.propagation_delays = [float(d) for d in propagation_delays]
        self.links: List[Link] = [
            Link(sim, sched, cap, name=f"{name}-hop{i}")
            for i, (sched, cap) in enumerate(zip(schedulers, capacities))
        ]
        self.sink = PacketSink(f"{name}-sink")
        for i, link in enumerate(self.links):
            if i + 1 < k:
                link.departure_hooks.append(self._forwarder(i))
            else:
                link.departure_hooks.append(self.sink.on_packet)

    def _forwarder(self, hop: int) -> Callable[[Packet, float], None]:
        delay = self.propagation_delays[hop]
        next_link = self.links[hop + 1]
        sim = self.sim

        def forward(packet: Packet, now: float) -> None:
            if self.forward_filter is not None and not self.forward_filter(packet):
                return
            clone = packet.fork()
            clone.meta["hop"] = hop + 1
            sim.call_at(sim.now + delay, self._inject, next_link, clone)

        return forward

    @staticmethod
    def _inject(link: Link, packet: Packet) -> None:
        packet.arrival = link.sim.now
        link.send(packet)

    @property
    def ingress(self) -> Callable[[Packet], object]:
        """Entry point for sources: the first hop's ``send``."""
        return self.links[0].send

    def end_to_end_delays(self, flow) -> List[float]:
        """Total delays (first-hop arrival to last-hop departure)."""
        return list(self.sink.end_to_end_delays.get(flow, []))
