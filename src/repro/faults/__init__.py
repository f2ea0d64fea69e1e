"""Fault injection and runtime invariant monitoring.

The paper proves SFQ's fairness and delay bounds hold on servers whose
rate *fluctuates*; this package asks what happens when the network
actually *breaks* — link outages and flaps, flow churn, lost and
reordered packets — and watches the guarantees online
while it happens.

Two halves:

* :mod:`repro.faults.injectors` — :class:`LinkOutage`,
  :class:`FlowChurn`, :class:`PacketFaults`, :class:`ServerStall`
  (short scheduler freezes) and :class:`WeightReconfig` (mid-run flow
  re-weighting); deterministic or seeded via
  :class:`repro.simulation.random.RandomStreams`, so every faulted
  run is a pure function of its seed. Pause-driving injectors compose
  through the link's counted pause depth, so overlapping fault windows
  never double-pause or lose the in-flight packet.
* :mod:`repro.faults.monitors` — :class:`FairnessMonitor` (Theorem 1,
  online), :class:`VirtualTimeMonitor`, :class:`ConservationAuditor`;
  each raises or records structured :class:`InvariantViolation`\\ s.

See ``repro/experiments/fault_tolerance.py`` (CLI: ``python -m repro
run faults``) for the headline result: SFQ re-converges to fair shares
after an outage while WFQ starves the late joiner.
"""

from repro.faults.injectors import (
    FlowChurn,
    LinkOutage,
    PacketFaults,
    ServerStall,
    WeightReconfig,
)
from repro.faults.monitors import (
    ConservationAuditor,
    FairnessMonitor,
    InvariantViolation,
    Monitor,
    MonitorSuite,
    VirtualTimeMonitor,
    install_monitors,
)

__all__ = [
    "LinkOutage",
    "FlowChurn",
    "PacketFaults",
    "ServerStall",
    "WeightReconfig",
    "InvariantViolation",
    "Monitor",
    "FairnessMonitor",
    "VirtualTimeMonitor",
    "ConservationAuditor",
    "MonitorSuite",
    "install_monitors",
]
