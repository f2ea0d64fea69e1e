"""Frozen pre-offer-FIFO hierarchy — the link-sharing tree as it stood
before its single-frame rewrite (per-packet ``meta["hier_path"]``
lists, separate ``pull``/``_refill``), with frozen seed node schedulers
(``tests/reference/legacy_cores``) as the default per-class discipline.

``tests/test_hierarchy_equivalence.py`` drives it and
:class:`repro.core.hierarchical.HierarchicalScheduler` through the same
workloads and compares full trace record streams. Do not "fix" or
modernize this module: its value is that it does not change.

The original module docstring follows.

Hierarchical link sharing (paper Section 3).

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
tagged by the parent's scheduler with the child's weight. On dequeue the
parent consumes the offer and the child immediately re-offers its next
packet (pulled recursively through its own scheduler). Leaves run a
scheduler over the actual flows attached to them. This is the standard
one-packet-lookahead realization of "recursively schedule the virtual
servers" and keeps every per-node discipline exactly the paper's SFQ.

Mixing disciplines is supported — e.g. a Delay EDD leaf under an SFQ
root implements Section 3's "separation of delay and throughput
allocation".
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.core.base import Scheduler, SchedulerError
from repro.core.flow import FlowState
from repro.core.packet import Packet

from tests.reference.legacy_cores import LegacySFQ

SchedulerFactory = Callable[[], Scheduler]


def _default_node_scheduler() -> Scheduler:
    """Per-node default: the frozen seed SFQ."""
    return LegacySFQ(auto_register=False)


class LegacySchedClass:
    """One node of the link-sharing tree."""

    __slots__ = (
        "name",
        "weight",
        "scheduler",
        "parent",
        "children",
        "offered",
        "offer_wrapper",
        "bits_served",
        "packets_served",
    )

    def __init__(
        self,
        name: str,
        weight: float,
        scheduler: Optional[Scheduler] = None,
        parent: Optional["LegacySchedClass"] = None,
    ) -> None:
        if weight <= 0:
            raise SchedulerError(f"class weight must be positive, got {weight}")
        self.name = name
        self.weight = float(weight)
        self.scheduler = (
            scheduler if scheduler is not None else _default_node_scheduler()
        )
        self.parent = parent
        self.children: Dict[str, "LegacySchedClass"] = {}
        #: The packet this class has offered to its parent (at most one).
        self.offered: Optional[Packet] = None
        #: Wrapper packet representing the offer in the parent's scheduler.
        self.offer_wrapper: Optional[Packet] = None
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

    def pull(self, now: float) -> Optional[Packet]:
        """Produce this class's next packet per its own discipline."""
        if self.is_leaf:
            return self.scheduler.dequeue(now)
        wrapper = self.scheduler.dequeue(now)
        if wrapper is None:
            return None
        child = self.children[wrapper.flow]
        packet = child.offered
        assert packet is not None, "a scheduled child must hold an offer"
        child.offered = None
        child.offer_wrapper = None
        # Hot path: reach the meta dict directly (the ``meta`` property
        # plus setdefault costs two extra calls per hop per packet).
        meta = packet._meta_dict
        if meta is None:
            meta = packet._meta_dict = {}
        path = meta.get("hier_path")
        if path is None:
            path = meta["hier_path"] = []
        path.append((self, wrapper))
        self._refill(child, now)
        return packet

    def _refill(self, child: "LegacySchedClass", now: float) -> None:
        """Re-offer the child's next packet, if it has one."""
        nxt = child.pull(now)
        if nxt is None:
            return
        child.offered = nxt
        wrapper = Packet(flow=child.name, length=nxt.length, arrival=now)
        child.offer_wrapper = wrapper
        self.scheduler.enqueue(wrapper, now)

    def path(self) -> str:
        parts: List[str] = []
        node: Optional[LegacySchedClass] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"interior[{len(self.children)}]"
        return f"LegacySchedClass({self.path()}, w={self.weight:.9g}, {kind})"


class LegacyHierarchicalScheduler(Scheduler):
    """Link-sharing scheduler over a class tree.

    Usage::

        hs = LegacyHierarchicalScheduler()
        hs.add_class("root", "A", weight=1.0)
        hs.add_class("root", "B", weight=1.0)
        hs.add_class("A", "C", weight=1.0)
        hs.add_class("A", "D", weight=1.0)
        hs.attach_flow("f1", "C", weight=1.0)
        hs.attach_flow("f2", "D", weight=1.0)
    """

    __slots__ = ("_node_factory", "root", "_classes", "_flow_to_leaf")

    algorithm = "Hierarchical"

    def __init__(
        self,
        root_scheduler: Optional[Scheduler] = None,
        default_node_scheduler: SchedulerFactory = _default_node_scheduler,
    ) -> None:
        super().__init__(auto_register=False)
        self._node_factory = default_node_scheduler
        self.root = LegacySchedClass("root", 1.0, scheduler=root_scheduler or default_node_scheduler())
        self._classes: Dict[str, LegacySchedClass] = {"root": self.root}
        self._flow_to_leaf: Dict[Hashable, LegacySchedClass] = {}

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def add_class(
        self,
        parent: str,
        name: str,
        weight: float,
        scheduler: Optional[Scheduler] = None,
    ) -> LegacySchedClass:
        """Add class ``name`` under ``parent`` with the given weight."""
        if name in self._classes:
            raise SchedulerError(f"class {name!r} already exists")
        parent_node = self._classes.get(parent)
        if parent_node is None:
            raise SchedulerError(f"unknown parent class {parent!r}")
        if any(leaf is parent_node for leaf in self._flow_to_leaf.values()):
            raise SchedulerError(f"class {parent!r} already has flows attached")
        node = LegacySchedClass(
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

    def class_node(self, name: str) -> LegacySchedClass:
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
        self._offer_upward(leaf, now)

    def _offer_upward(self, node: LegacySchedClass, now: float) -> None:
        """Ensure every ancestor holds an offer after a new arrival."""
        while node.parent is not None:
            if node.offered is not None:
                break  # parent already sees this subtree; ordering is set
            parent = node.parent
            parent._refill(node, now)
            if node.offered is None:
                break
            node = parent

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self.root.pull(now)
        if packet is None:
            return None
        self._backlog_packets -= 1
        self._backlog_bits -= packet.length
        self.in_service = packet
        # Account the service at every class on the packet's path.
        leaf = self._flow_to_leaf[packet.flow]
        node: Optional[LegacySchedClass] = leaf
        while node is not None:
            node.bits_served += packet.length
            node.packets_served += 1
            node = node.parent
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        if self.in_service is packet:
            self.in_service = None
        meta = packet._meta_dict if packet._meta_dict is not None else {}
        for node, wrapper in meta.pop("hier_path", []):
            node.scheduler.on_service_complete(wrapper, now)
        leaf = self._flow_to_leaf.get(packet.flow)
        if leaf is not None:
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
        leaf = self._flow_to_leaf.get(flow_id)
        if leaf is None:
            return 0
        backlog = leaf.scheduler.flow_backlog(flow_id)
        if leaf.offered is not None and leaf.offered.flow == flow_id:
            backlog += 1
        return backlog

    def class_bits_served(self) -> Dict[str, int]:
        return {name: node.bits_served for name, node in self._classes.items()}

    def describe(self) -> str:
        """ASCII rendering of the class tree (for docs/examples)."""
        lines: List[str] = []

        def walk(node: LegacySchedClass, depth: int) -> None:
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
