"""Hierarchical link sharing (paper Section 3).

The link-sharing structure is a tree of *classes*. Each class (other
than leaves) is treated as a virtual server: its scheduler — SFQ by
default, but any peekable :class:`~repro.core.base.Scheduler` — fairly
distributes the bandwidth the class receives among its subclasses. The
paper's key observation (Example 3) is that the virtual server seen by a
subclass has *fluctuating* capacity (siblings come and go), so the
per-node scheduler must be fair over variable-rate servers — which is
why SFQ is the only algorithm of the table that can implement this
recursion with guarantees: the virtual server corresponding to a class
of an FC link is itself FC (eq. 65), so Theorems 2–5 recurse down the
tree.

Implementation model
--------------------
Each interior node schedules its children's *offered packets*: a child
that has backlog keeps exactly one packet "offered" to its parent,
represented in the parent's scheduler by an offer wrapper (a packet of
the same length whose flow is the child's name, so the parent tags it
with the child's weight). :meth:`SchedClass.pull` is the one recursive
step: a class dequeues its next packet — an interior class by
dequeuing a wrapper and taking that child's offer, which makes the
child pull and re-offer at once — and, below the root, offers the
packet to its parent. Leaves run a scheduler over the actual flows
attached to them. This is the standard one-packet-lookahead realization
of "recursively schedule the virtual servers" and keeps every per-node
discipline exactly the paper's SFQ.

Every per-node scheduler must also hear when the packet behind a
dequeued wrapper finishes service (busy-period rule 2). Each class
keeps a FIFO of the wrappers it dequeued whose packets have not
completed: a class's offers move up one at a time and the link serves
the root's choices in order, so a class's offers complete in the order
it dequeued them. On completion the hierarchy walks from the packet's
leaf — remembered at dequeue time, so a flow detached while its packet
is in service still releases its ancestors' wrappers — to the root,
completing the front wrapper of each ancestor's FIFO.

Mixing disciplines is supported — e.g. a Delay EDD leaf under an SFQ
root implements Section 3's "separation of delay and throughput
allocation".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional

from repro.core.base import Scheduler, SchedulerError
from repro.core.flow import FlowState
from repro.core.packet import Packet

SchedulerFactory = Callable[[], Scheduler]


def _default_node_scheduler() -> Scheduler:
    """Per-node default: SFQ, built through the construction registry.

    Imported lazily — hierarchical is imported by ``repro.core`` before
    the registry module finishes populating, so a module-level import
    would cycle.
    """
    from repro.core.registry import make_scheduler

    return make_scheduler("SFQ", auto_register=False)


class SchedClass:
    """One node of the link-sharing tree."""

    __slots__ = (
        "name",
        "weight",
        "scheduler",
        "parent",
        "children",
        "offered",
        "dequeued",
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
        #: Offer wrappers this class's scheduler dequeued whose packets
        #: have not completed service, oldest first.
        self.dequeued: Deque[Packet] = deque()
        self.bits_served = 0
        self.packets_served = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def backlog_packets(self) -> int:
        """Packets queued anywhere in this class's subtree (the offered
        packet of each child is represented by its wrapper in this
        node's scheduler, so it is counted exactly once)."""
        if self.is_leaf:
            return self.scheduler.backlog_packets
        return sum(
            child.backlog_packets + (1 if child.offered is not None else 0)
            for child in self.children.values()
        )

    def pull(self, now: float) -> Optional[Packet]:  # lint: hot
        """Dequeue this class's next packet per its own discipline and,
        below the root, offer it to the parent; ``None`` when empty."""
        if self.children:
            wrapper = self.scheduler.dequeue(now)
            if wrapper is None:
                return None
            self.dequeued.append(wrapper)
            child = self.children[wrapper.flow]
            packet = child.offered
            assert packet is not None, "a scheduled child must hold an offer"
            child.offered = None
            child.pull(now)  # the child re-offers its next packet, if any
        else:
            packet = self.scheduler.dequeue(now)
            if packet is None:
                return None
        parent = self.parent
        if parent is not None:
            self.offered = packet
            parent.scheduler.enqueue(Packet(self.name, packet.length, now), now)
        return packet

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
    )

    algorithm = "Hierarchical"

    def __init__(
        self,
        root_scheduler: Optional[Scheduler] = None,
        default_node_scheduler: SchedulerFactory = _default_node_scheduler,
    ) -> None:
        super().__init__(auto_register=False)
        self._node_factory = default_node_scheduler
        self.root = SchedClass("root", 1.0, scheduler=root_scheduler or default_node_scheduler())
        self._classes: Dict[str, SchedClass] = {"root": self.root}
        self._flow_to_leaf: Dict[Hashable, SchedClass] = {}
        #: Leaves of dequeued packets awaiting on_service_complete, in
        #: dequeue (= completion) order.
        self._in_service_leaves: Deque[SchedClass] = deque()

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
        """Add class ``name`` under ``parent`` with the given weight."""
        if name in self._classes:
            raise SchedulerError(f"class {name!r} already exists")
        parent_node = self._classes.get(parent)
        if parent_node is None:
            raise SchedulerError(f"unknown parent class {parent!r}")
        if any(leaf is parent_node for leaf in self._flow_to_leaf.values()):
            raise SchedulerError(f"class {parent!r} already has flows attached")
        node = SchedClass(
            name,
            weight,
            scheduler=scheduler or self._node_factory(),
            parent=parent_node,
        )
        parent_node.children[name] = node
        # Register the child as a flow of the parent's scheduler so its
        # offers get tagged with the child's weight.
        parent_node.scheduler.add_flow(name, weight)
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
        from the leaf scheduler (on the array backend its slab slot
        returns to the free list), so long-running churn — users joining
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
        node.parent.scheduler.set_weight(name, weight)

    # ------------------------------------------------------------------
    # Scheduler protocol (overridden wholesale: flows live in the leaves)
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:
        leaf = self._flow_to_leaf.get(packet.flow)
        if leaf is None:
            raise SchedulerError(
                f"flow {packet.flow!r} is not attached to any class; "
                "call attach_flow first"
            )
        packet.arrival = now
        self._backlog_packets += 1
        self._backlog_bits += packet.length
        leaf.scheduler.enqueue(packet, now)
        # Ensure every ancestor holds an offer after the arrival.
        node = leaf
        while node.offered is None and node.parent is not None:
            if node.pull(now) is None:
                break
            node = node.parent

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self.root.pull(now)
        if packet is None:
            return None
        self._backlog_packets -= 1
        self._backlog_bits -= packet.length
        self.in_service = packet
        leaf = self._flow_to_leaf[packet.flow]
        self._in_service_leaves.append(leaf)
        # Account the service at every class on the packet's path.
        node: Optional[SchedClass] = leaf
        while node is not None:
            node.bits_served += packet.length
            node.packets_served += 1
            node = node.parent
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        if self.in_service is packet:
            self.in_service = None
        leaf = self._in_service_leaves.popleft()
        node = leaf.parent
        while node is not None:
            node.scheduler.on_service_complete(node.dequeued.popleft(), now)
            node = node.parent
        leaf.scheduler.on_service_complete(packet, now)

    def peek(self, now: float) -> Optional[Packet]:
        wrapper = self.root.scheduler.peek(now)
        if wrapper is None:
            return None
        node = self.root.children[wrapper.flow]
        if node.offered is None:  # pragma: no cover - defensive
            raise SchedulerError("scheduled child lost its offer")
        return node.offered

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
