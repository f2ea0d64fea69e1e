"""Fair Airport (FA) scheduling — paper Appendix B.

FA combines the delay guarantee of WFQ with fairness over variable-rate
servers. Every arriving packet joins **both** a per-flow rate regulator
and an Auxiliary Service Queue (ASQ, scheduled by SFQ). When a packet
passes its regulator (at its expected arrival time computed over the
subsequence of packets previously served through the guaranteed path) it
joins the Guaranteed Service Queue (GSQ, scheduled by Virtual Clock).
The server is work conserving and serves GSQ with priority:

1. on arrival a packet joins its flow's rate regulator and the ASQ;
2. the regulator releases :math:`p_f^j` at
   :math:`EAT^{RC}(p_f^j, r_f)` (eq. 120), the EAT over the GSQ-served
   subsequence only;
3. the ASQ is SFQ; the GSQ is Virtual Clock stamping
   :math:`EAT^{GSQ}(p) + l/r`;
4. a packet is removed from the regulator when it starts ASQ service;
5. a packet that became eligible is served only via GSQ; on its removal
   the next ASQ packet of the flow inherits its start tag;
6. GSQ has (non-preemptive) priority over ASQ.

Implementation note: eligibility is evaluated lazily at each
``dequeue``. Between two dequeue instants the server makes no decisions,
so committing regulator releases at dequeue time is behaviourally
identical to running per-packet timers, and keeps the scheduler free of
any simulator dependency.

Properties verified by the suite: fairness
:math:`|W_f/r_f - W_m/r_m| \\le 3(l_f^{max}/r_f + l_m^{max}/r_m) + 2\\beta`
(Theorem 8) and the WFQ delay guarantee
:math:`L(p) \\le EAT(p) + l/r + l_{max}/C` (Theorem 9).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.base import Scheduler
from repro.core.flow import FlowState
from repro.core.packet import Packet
from repro.core.tagmath import start_finish


class _FAFlow:
    """Per-flow Fair Airport scratch state."""

    __slots__ = ("regulator", "rc_clock")

    def __init__(self) -> None:
        # Packets not yet GSQ-eligible and not yet served, arrival order.
        self.regulator: Deque[Packet] = deque()
        # EAT chain over the GSQ-served subsequence (eq. 120/124):
        # the next candidate p is eligible at max(A(p), rc_clock).
        self.rc_clock = float("-inf")


class FairAirport(Scheduler):
    """Fair Airport scheduler: Virtual Clock GSQ + SFQ ASQ + regulators."""

    __slots__ = (
        "_fa",
        "_asq_heap",
        "_gsq_heap",
        "_release_heap",
        "_gone",
        "v",
        "_max_served_finish",
        "served_via_gsq",
        "served_via_asq",
    )

    algorithm = "FairAirport"

    def __init__(self, auto_register: bool = True, default_weight: float = 1.0) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._fa: Dict[Hashable, _FAFlow] = {}
        # ASQ: SFQ start-tag heap with lazy deletion; entries are
        # (start_tag_at_push, uid, packet).
        self._asq_heap: List[Tuple[float, int, Packet]] = []
        self._gsq_heap: List[Tuple[float, int, Packet]] = []
        # Lazy heap of (release_time, flow) for regulator heads, so a
        # dequeue does O(log Q) work instead of scanning every flow.
        self._release_heap: List[Tuple[float, Hashable]] = []
        # Packets pulled out of the ASQ because GSQ served them.
        self._gone: Set[int] = set()
        self.v = 0.0  # ASQ (SFQ) virtual time
        self._max_served_finish = 0.0
        self.served_via_gsq = 0
        self.served_via_asq = 0

    def _fa_state(self, flow_id: Hashable) -> _FAFlow:
        fa = self._fa.get(flow_id)
        if fa is None:
            fa = _FAFlow()
            self._fa[flow_id] = fa
        return fa

    # ------------------------------------------------------------------
    # Enqueue: join regulator + ASQ
    # ------------------------------------------------------------------
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        rate = state.packet_rate(packet)
        # Exact-float tag recursion shared with every other discipline
        # via repro.core.tagmath (divides by the reserved rate).
        start, finish = start_finish(self.v, state.last_finish, packet.length, rate, None)
        packet.start_tag = start
        packet.finish_tag = finish
        state.last_finish = finish
        state.push(packet)
        heapq.heappush(self._asq_heap, (start, packet.uid, packet))
        fa = self._fa_state(packet.flow)
        fa.regulator.append(packet)
        if len(fa.regulator) == 1:
            self._push_release(packet.flow, fa)

    def _push_release(self, flow_id: Hashable, fa: _FAFlow) -> None:
        """Advertise the flow's current regulator head on the heap."""
        if fa.regulator:
            release = max(fa.regulator[0].arrival, fa.rc_clock)
            heapq.heappush(self._release_heap, (release, flow_id))

    # ------------------------------------------------------------------
    # Dequeue: materialize eligibility, then GSQ-first
    # ------------------------------------------------------------------
    def _do_dequeue(self, now: float) -> Optional[Packet]:
        self._release_eligible(now)
        if self._gsq_heap:
            return self._serve_gsq()
        return self._serve_asq()

    def _release_eligible(self, now: float) -> None:
        """Move regulator heads with release time <= now into the GSQ.

        The release heap is lazy: entries may be stale (the flow's head
        changed since the push), so each pop is re-validated against the
        flow's live state before acting.
        """
        heap = self._release_heap
        while heap and heap[0][0] <= now:
            _advertised, flow_id = heapq.heappop(heap)
            fa = self._fa.get(flow_id)
            if fa is None or not fa.regulator:
                continue
            state = self.flows[flow_id]
            packet = fa.regulator[0]
            release = max(packet.arrival, fa.rc_clock)
            if release > now:
                # Stale entry (head changed); re-advertise the truth.
                heapq.heappush(heap, (release, flow_id))
                continue
            fa.regulator.popleft()
            rate = state.packet_rate(packet)
            # Commit the GSQ EAT chain (rule 5 says the packet will
            # now be served via GSQ only).
            stamp = release + packet.length / rate
            fa.rc_clock = stamp
            packet.eligible_at = release
            packet.timestamp = stamp  # EAT + l/r (rule 3)
            heapq.heappush(self._gsq_heap, (stamp, packet.uid, packet))
            self._push_release(flow_id, fa)

    def _serve_gsq(self) -> Packet:
        _stamp, _uid, packet = heapq.heappop(self._gsq_heap)
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet, "combined FA service must be flow-FIFO"
        self._gone.add(packet.uid)
        self._inherit_start_tag(state, packet)
        if packet.finish_tag is not None and packet.finish_tag > self._max_served_finish:
            self._max_served_finish = packet.finish_tag
        self.served_via_gsq += 1
        return packet

    def _inherit_start_tag(self, state: FlowState, removed: Packet) -> None:
        """Rule 5: the flow's next ASQ packet takes the removed packet's
        start tag (keeping SFQ's Lemma 1/2 machinery valid)."""
        nxt = state.head()
        start = removed.start_tag
        # Exact-copy comparison: an already-inherited tag IS the same
        # float object/value, never the result of different arithmetic.
        if nxt is None or start is None or nxt.start_tag == start:  # lint: disable=TAG001  exact copy, not recomputed arithmetic
            return
        rate = state.packet_rate(nxt)
        nxt.start_tag = start
        nxt.finish_tag = start + nxt.length / rate
        heapq.heappush(self._asq_heap, (start, nxt.uid, nxt))

    def _serve_asq(self) -> Optional[Packet]:
        heap = self._asq_heap
        while heap:
            start, uid, packet = heapq.heappop(heap)
            if uid in self._gone:
                self._gone.discard(uid)
                continue
            if packet.start_tag != start:  # lint: disable=TAG001  exact copy of the tag pushed with this entry
                continue  # stale entry superseded by rule-5 inheritance
            state = self.flows[packet.flow]
            popped = state.pop()
            assert popped is packet, "ASQ must serve each flow in FIFO order"
            fa = self._fa[packet.flow]
            # Rule 4: remove from the regulator; rc_clock is *not*
            # advanced (EAT^RC covers only the GSQ-served subsequence).
            assert fa.regulator and fa.regulator[0] is packet, (
                "an ASQ-served packet must still be regulator head"
            )
            fa.regulator.popleft()
            self.v = start  # SFQ rule: v = start tag of packet in service
            if (
                packet.finish_tag is not None
                and packet.finish_tag > self._max_served_finish
            ):
                self._max_served_finish = packet.finish_tag
            self.served_via_asq += 1
            return packet
        return None

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        if self.backlog_packets == 0:
            self.v = max(self.v, self._max_served_finish)

    @property
    def virtual_time(self) -> float:
        return self.v
