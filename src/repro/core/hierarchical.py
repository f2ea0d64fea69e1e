"""Hierarchical link sharing (paper Section 3).

The link-sharing structure is a tree of *classes*. Each class (other
than leaves) is treated as a virtual server: its scheduler fairly
distributes the bandwidth the class receives among its subclasses. The
paper's key observation (Example 3) is that the virtual server seen by a
subclass has *fluctuating* capacity (siblings come and go), so the
per-node scheduler must be fair over variable-rate servers — which is
why SFQ is the only algorithm of the table that can implement this
recursion with guarantees: the virtual server corresponding to a class
of an FC link is itself FC (eq. 65), so Theorems 2–5 recurse down the
tree.

Implementation model: a rank tree
---------------------------------
After PIFO trees (Sivaraman et al., "Programmable Packet Scheduling"),
an interior class holds references to its children, not copies of
their packets. Every class is a :class:`SchedClass` record:

* a child that has backlog keeps exactly one packet ``offered`` to its
  parent (the standard one-packet lookahead of "recursively schedule
  the virtual servers"), and ``last_finish``, the finish tag of its
  latest offer: the child's eq. 4 tag chain at its parent;
* an interior class keeps its SFQ server state: ``v`` (v(t)),
  ``max_served_finish`` (the largest finish tag it served) and
  ``heap``, one ``(start_tag, offer_seq, child)`` entry per child
  holding an offer.

An offer is tagged once, when the child makes it: one
:func:`~repro.core.tagmath.start_finish` call at the parent's v(t) with
the child's weight, and one heap push.
:meth:`HierarchicalScheduler._pull` is the one scheduling step. A class
serves its smallest start tag, and v(t) becomes that tag (SFQ's rules 3
and 2); it takes that child's offer as its own next packet, and the
child does the same one level down, until a leaf dequeues from its own
scheduler. Then, deepest class first, each class on the way re-offers
its new packet to its parent. Equal start tags are served in offer
order: ``offer_seq`` counts the tree's offers, so ties break as they
would for packets queued in arrival order.

When a packet completes service, each ancestor whose heap is empty has
ended a busy period and sets v(t) to the largest finish tag it served
(rule 2). The packet's leaf, remembered at dequeue time so that a flow
detached while its packet is in service still completes at its leaf,
hears ``on_service_complete`` as usual.

Disciplines
-----------
Interior classes run SFQ: the tree keeps their state itself, and
adding a child under a class built with any other scheduler raises
:class:`~repro.core.base.SchedulerError`. An interior class's
``scheduler`` then only names its discipline. Leaves run any
:class:`~repro.core.base.Scheduler` over the flows attached to them —
e.g. a Delay EDD leaf under an SFQ root implements Section 3's
"separation of delay and throughput allocation".
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.core.base import Scheduler, SchedulerError
from repro.core.flow import FlowState
from repro.core.packet import Packet
from repro.core.pifo import PifoScheduler, SfqRank
from repro.core.tagmath import start_finish

SchedulerFactory = Callable[[], Scheduler]

#: An interior class's head-heap entry: ``(start_tag, offer_seq, child)``.
#: ``offer_seq`` is unique in the tree, so comparison never reaches the
#: child.
OfferEntry = Tuple[float, int, "SchedClass"]


def _default_node_scheduler() -> Scheduler:
    """Per-node default: SFQ, built through the construction registry.

    Imported lazily — hierarchical is imported by ``repro.core`` before
    the registry module finishes populating, so a module-level import
    would cycle.
    """
    from repro.core.registry import make_scheduler

    return make_scheduler("SFQ", auto_register=False)


def _sfq_rank(scheduler: Scheduler) -> Optional[SfqRank]:
    """The rank of ``scheduler`` if it is the SFQ engine with arrival-order
    ties, the discipline the tree runs at its interior classes; else None."""
    if isinstance(scheduler, PifoScheduler) and scheduler._fifo_ties:
        rank = scheduler.rank_fn
        if isinstance(rank, SfqRank) and type(rank) is SfqRank:
            return rank
    return None


class SchedClass:
    """One node of the link-sharing tree (see the module docstring)."""

    __slots__ = (
        "name",
        "weight",
        "scheduler",
        "parent",
        "children",
        "offered",
        "last_finish",
        "v",
        "max_served_finish",
        "heap",
        "bits_served",
        "packets_served",
    )

    def __init__(
        self,
        name: str,
        weight: float,
        scheduler: Optional[Scheduler] = None,
        parent: Optional["SchedClass"] = None,
    ) -> None:
        if weight <= 0:
            raise SchedulerError(f"class weight must be positive, got {weight}")
        self.name = name
        self.weight = float(weight)
        self.scheduler = (
            scheduler if scheduler is not None else _default_node_scheduler()
        )
        self.parent = parent
        self.children: Dict[str, "SchedClass"] = {}
        #: The packet this class has offered to its parent (at most one).
        self.offered: Optional[Packet] = None
        #: Finish tag of this class's latest offer, F(p) = 0 at first.
        self.last_finish = 0.0
        #: SFQ server state over the children (interior classes only).
        self.v = 0.0
        self.max_served_finish = 0.0
        self.heap: List[OfferEntry] = []
        self.bits_served = 0
        self.packets_served = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def backlog_packets(self) -> int:
        """Packets queued anywhere in this class's subtree (the offered
        packet of each child is counted once, at the child)."""
        if self.is_leaf:
            return self.scheduler.backlog_packets
        return sum(
            child.backlog_packets + (1 if child.offered is not None else 0)
            for child in self.children.values()
        )

    def path(self) -> str:
        parts: List[str] = []
        node: Optional[SchedClass] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"interior[{len(self.children)}]"
        return f"SchedClass({self.path()}, w={self.weight:.9g}, {kind})"


class HierarchicalScheduler(Scheduler):
    """Link-sharing scheduler over a class tree.

    Usage::

        hs = HierarchicalScheduler()
        hs.add_class("root", "A", weight=1.0)
        hs.add_class("root", "B", weight=1.0)
        hs.add_class("A", "C", weight=1.0)
        hs.add_class("A", "D", weight=1.0)
        hs.attach_flow("f1", "C", weight=1.0)
        hs.attach_flow("f2", "D", weight=1.0)
    """

    __slots__ = (
        "_node_factory",
        "root",
        "_classes",
        "_flow_to_leaf",
        "_in_service_leaves",
        "_offer_seq",
    )

    algorithm = "Hierarchical"

    def __init__(
        self,
        root_scheduler: Optional[Scheduler] = None,
        default_node_scheduler: SchedulerFactory = _default_node_scheduler,
    ) -> None:
        super().__init__(auto_register=False)
        self._node_factory = default_node_scheduler
        if root_scheduler is None:
            root_scheduler = default_node_scheduler()
        self.root = SchedClass("root", 1.0, scheduler=root_scheduler)
        self._classes: Dict[str, SchedClass] = {"root": self.root}
        self._flow_to_leaf: Dict[Hashable, SchedClass] = {}
        #: Leaves of dequeued packets awaiting on_service_complete, in
        #: dequeue (= completion) order.
        self._in_service_leaves: Deque[SchedClass] = deque()
        #: Offers made so far: the tie-break rank of the next one.
        self._offer_seq = 0

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def add_class(
        self,
        parent: str,
        name: str,
        weight: float,
        scheduler: Optional[Scheduler] = None,
    ) -> SchedClass:
        """Add class ``name`` under ``parent`` with the given weight.

        ``scheduler`` (default: the tree's node factory) is the new
        class's discipline. ``parent`` must run SFQ: the tree schedules
        every interior class with SFQ itself.
        """
        if name in self._classes:
            raise SchedulerError(f"class {name!r} already exists")
        parent_node = self._classes.get(parent)
        if parent_node is None:
            raise SchedulerError(f"unknown parent class {parent!r}")
        if any(leaf is parent_node for leaf in self._flow_to_leaf.values()):
            raise SchedulerError(f"class {parent!r} already has flows attached")
        if not parent_node.children:
            rank = _sfq_rank(parent_node.scheduler)
            if rank is None:
                raise SchedulerError(
                    f"class {parent!r} runs {parent_node.scheduler.algorithm}; "
                    "only an SFQ class (arrival-order ties) can have subclasses"
                )
            # The class turns interior: its SFQ server state carries over.
            parent_node.v = rank.v
            parent_node.max_served_finish = rank._max_served_finish
        if scheduler is None:
            scheduler = self._node_factory()
        node = SchedClass(name, weight, scheduler=scheduler, parent=parent_node)
        parent_node.children[name] = node
        self._classes[name] = node
        return node

    def attach_flow(self, flow_id: Hashable, class_name: str, weight: float = 1.0) -> None:
        """Bind ``flow_id`` to leaf class ``class_name``."""
        node = self._classes.get(class_name)
        if node is None:
            raise SchedulerError(f"unknown class {class_name!r}")
        if node.children:
            raise SchedulerError(f"class {class_name!r} is interior; attach to a leaf")
        if flow_id in self._flow_to_leaf:
            raise SchedulerError(f"flow {flow_id!r} already attached")
        if flow_id not in node.scheduler.flows:
            # Flows needing richer registration (e.g. DelayEDD deadlines)
            # may be pre-registered on the leaf scheduler directly.
            node.scheduler.add_flow(flow_id, weight)
        self._flow_to_leaf[flow_id] = node

    def detach_flow(self, flow_id: Hashable) -> None:
        """Unbind an idle ``flow_id`` from its leaf class.

        The inverse of :meth:`attach_flow`: the flow's state is removed
        from the leaf scheduler, so long-running churn — users joining
        and leaving the link-sharing tree — keeps per-leaf state bounded
        by the peak concurrent population. The flow must be fully
        drained: no queued packets and no packet offered upward.
        """
        leaf = self._flow_to_leaf.get(flow_id)
        if leaf is None:
            raise SchedulerError(f"flow {flow_id!r} is not attached to any class")
        if self.flow_backlog(flow_id) > 0:
            raise SchedulerError(f"cannot detach backlogged flow {flow_id!r}")
        leaf.scheduler.remove_flow(flow_id)
        del self._flow_to_leaf[flow_id]

    def class_node(self, name: str) -> SchedClass:
        node = self._classes.get(name)
        if node is None:
            raise SchedulerError(f"unknown class {name!r}")
        return node

    def set_class_weight(self, name: str, weight: float) -> None:
        """Re-weight a class at runtime (link-sharing management).

        Applies from the class's next offered packet onward — the same
        take-effect-at-the-next-packet semantics as
        :meth:`Scheduler.set_weight` for flows.
        """
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        node = self.class_node(name)
        if node.parent is None:
            raise SchedulerError("the root class has no weight to set")
        node.weight = float(weight)

    # ------------------------------------------------------------------
    # Scheduler protocol (overridden wholesale: flows live in the leaves)
    # ------------------------------------------------------------------
    def _pull(self, top: SchedClass, now: float) -> Optional[Packet]:  # lint: hot
        """Take ``top``'s next packet (``None`` when it has none) and,
        below the root, offer it up: the descent and re-offers of the
        module docstring, in one frame."""
        node = top
        while node.children:
            heap = node.heap
            if not heap:
                break
            start, _seq, child = heappop(heap)
            # SFQ at this class: v(t) is the start tag in service, and
            # the largest finish tag served is kept for rule 2.
            node.v = start
            finish = child.last_finish
            if finish > node.max_served_finish:
                node.max_served_finish = finish
            node.offered = child.offered
            child.offered = None
            node = child
        else:
            node.offered = node.scheduler.dequeue(now)
        seq = self._offer_seq
        while True:
            packet = node.offered
            parent = node.parent
            if parent is None:
                node.offered = None  # the root hands its packet to the link
                break
            if packet is not None:
                start, finish = start_finish(
                    parent.v, node.last_finish, packet.length, node.weight, None
                )
                node.last_finish = finish
                seq += 1
                heappush(parent.heap, (start, seq, node))
            if node is top:
                break
            node = parent
        self._offer_seq = seq
        return packet

    def enqueue(self, packet: Packet, now: float) -> None:
        leaf = self._flow_to_leaf.get(packet.flow)
        if leaf is None:
            raise SchedulerError(
                f"flow {packet.flow!r} is not attached to any class; "
                "call attach_flow first"
            )
        packet.arrival = now
        self.backlog_packets += 1
        self.backlog_bits += packet.length
        leaf.scheduler.enqueue(packet, now)
        # Ensure every ancestor holds an offer after the arrival.
        node = leaf
        while node.offered is None and node.parent is not None:
            if self._pull(node, now) is None:
                break
            node = node.parent

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self._pull(self.root, now)
        if packet is None:
            return None
        length = packet.length
        self.backlog_packets -= 1
        self.backlog_bits -= length
        self.in_service = packet
        leaf = self._flow_to_leaf[packet.flow]
        self._in_service_leaves.append(leaf)
        # Account the service at every class on the packet's path.
        node: Optional[SchedClass] = leaf
        while node is not None:
            node.bits_served += length
            node.packets_served += 1
            node = node.parent
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        if self.in_service is packet:
            self.in_service = None
        leaf = self._in_service_leaves.popleft()
        node = leaf.parent
        while node is not None:
            if not node.heap:
                # Rule 2: the class's busy period ended, so v(t) is the
                # largest finish tag it served (max(v, F), inlined).
                served = node.max_served_finish
                if served > node.v:
                    node.v = served
            node = node.parent
        leaf.scheduler.on_service_complete(packet, now)

    # The abstract hooks are bypassed by the overridden public methods.
    def _do_enqueue(
        self, state: FlowState, packet: Packet, now: float
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def _do_dequeue(self, now: float) -> Optional[Packet]:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def backlogged_flows(self) -> List[Hashable]:
        """Attached flows with packets not yet dequeued (O(flows x depth))."""
        return [fid for fid in self._flow_to_leaf if self.flow_backlog(fid) > 0]

    def discard_tail(self, flow_id: Hashable) -> Optional[Packet]:
        # A flow's tail may be held as an offer above its leaf, out of a
        # leaf discard's reach; longest-queue drop fails loudly here.
        raise NotImplementedError(
            f"{self.algorithm} does not support discard_tail(); use "
            "drop-tail buffering with it"
        )

    def flow_backlog(self, flow_id: Hashable) -> int:
        """Packets of ``flow_id`` not yet dequeued: queued at its leaf or
        held as an offer by any class from the leaf up (O(depth))."""
        node = self._flow_to_leaf.get(flow_id)
        if node is None:
            return 0
        backlog = node.scheduler.flow_backlog(flow_id)
        while node is not None:
            offered = node.offered
            if offered is not None and offered.flow == flow_id:
                backlog += 1
            node = node.parent
        return backlog

    def class_bits_served(self) -> Dict[str, int]:
        return {name: node.bits_served for name, node in self._classes.items()}

    def describe(self) -> str:
        """ASCII rendering of the class tree (for docs/examples)."""
        lines: List[str] = []

        def walk(node: SchedClass, depth: int) -> None:
            flows = [
                f for f, leaf in self._flow_to_leaf.items() if leaf is node
            ]
            suffix = f" flows={flows}" if flows else ""
            lines.append(
                "  " * depth
                + f"{node.name} (w={node.weight:g}, "
                + f"{node.scheduler.algorithm}){suffix}"
            )
            for child in node.children.values():
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
