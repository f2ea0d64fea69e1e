"""Analytic bound calculators for the paper's theorems.

Each function implements one numbered result so that experiments can
print paper-formula vs. measured side by side:

* Theorem 2 — SFQ throughput guarantee on an FC server (eq. 22);
* Theorem 4 — SFQ delay guarantee on an FC server (eq. 38);
* eq. 56 — SCFQ's tight delay bound (Golestani/Goyal);
* WFQ's delay guarantee :math:`EAT + l/r + l_{max}/C`;
* eq. 57/58/59 — the SFQ-vs-SCFQ and SFQ-vs-WFQ max-delay deltas behind
  Figure 2(a);
* eq. 65 — the FC parameters of a hierarchical virtual server;
* eq. 68 — Delay EDD's bound on an FC server (Theorem 7);
* eq. 73 — the delay-shifting condition;
* eq. 137 — Fair Airport's WFQ-equivalent bound (Theorem 9).

All take plain numbers (bits, bits/s, seconds) so they are trivially
checkable against simulation traces.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.tagmath import eat_step


def expected_arrival_times(
    arrivals: Sequence[float],
    lengths: Sequence[int],
    rates: Sequence[float],
) -> List[float]:
    """EAT per eq. 37 for one flow's packet sequence."""
    if not (len(arrivals) == len(lengths) == len(rates)):
        raise ValueError("arrivals, lengths, rates must align")
    eats: List[float] = []
    prev_eat = float("-inf")
    prev_service = 0.0
    for arrival, length, rate in zip(arrivals, lengths, rates):
        eat, service = eat_step(arrival, prev_eat, prev_service, length, rate)
        eats.append(eat)
        prev_eat = eat
        prev_service = service
    return eats


# ----------------------------------------------------------------------
# Throughput (Theorems 2 / 3)
# ----------------------------------------------------------------------
def sfq_throughput_lower_bound(
    rf: float,
    interval: float,
    sum_lmax_all: float,
    capacity: float,
    delta: float,
    lf_max: float,
) -> float:
    """Theorem 2, eq. 22: guaranteed W_f over a backlogged interval."""
    return (
        rf * interval
        - rf * sum_lmax_all / capacity
        - rf * delta / capacity
        - lf_max
    )


def ebf_tail_probability(b: float, alpha: float, gamma: float) -> float:
    """The envelope :math:`B e^{-\\alpha\\gamma}` of Definitions 2 / Thm 3/5."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return b * math.exp(-alpha * gamma)


# ----------------------------------------------------------------------
# Single-server delay (Theorems 4 / 5, eq. 56-59)
# ----------------------------------------------------------------------
def sfq_delay_bound(
    eat: float,
    sum_lmax_others: float,
    l_packet: float,
    capacity: float,
    delta: float = 0.0,
) -> float:
    """Theorem 4, eq. 38: SFQ departure-time bound on FC(C, delta)."""
    return eat + sum_lmax_others / capacity + l_packet / capacity + delta / capacity


def scfq_delay_bound(
    eat: float,
    sum_lmax_others: float,
    l_packet: float,
    packet_rate: float,
    capacity: float,
) -> float:
    """Eq. 56: L_SCFQ(p) <= EAT + sum_{n != f} l_n^max / C + l / r."""
    return eat + sum_lmax_others / capacity + l_packet / packet_rate


def wfq_delay_bound(
    eat: float, l_packet: float, packet_rate: float, l_max: float, capacity: float
) -> float:
    """WFQ/PGPS guarantee: EAT + l/r + l_max/C (used for eq. 58).

    Also Fair Airport's bound (eq. 137, Theorem 9) and Virtual Clock's.
    """
    return eat + l_packet / packet_rate + l_max / capacity


def scfq_sfq_delay_delta(l_packet: float, packet_rate: float, capacity: float) -> float:
    """Eq. 57: extra max delay of SCFQ over SFQ, per server."""
    return l_packet / packet_rate - l_packet / capacity


def wfq_sfq_delay_delta(
    l_packet: float,
    packet_rate: float,
    l_max: float,
    sum_lmax_others: float,
    capacity: float,
) -> float:
    """Eq. 58: Δ(p) = max-delay(WFQ) - max-delay(SFQ). Positive means
    SFQ's bound is lower."""
    return (
        l_packet / packet_rate
        + l_max / capacity
        - sum_lmax_others / capacity
        - l_packet / capacity
    )


def wfq_sfq_delay_delta_equal_lengths(
    l: float, packet_rate: float, n_flows: int, capacity: float
) -> float:
    """Eq. 59: Δ(p) with all packets of length l."""
    return l / packet_rate - (n_flows - 1) * l / capacity


def wfq_sfq_delta_positive_condition(n_flows: int, rate: float, capacity: float) -> bool:
    """Eq. 60: SFQ's bound beats WFQ's iff r_f/C <= 1/(|Q|-1)."""
    if n_flows <= 1:
        return True
    return 1.0 / (n_flows - 1) >= rate / capacity


# ----------------------------------------------------------------------
# Hierarchy (eq. 65), delay shifting (eq. 69-73)
# ----------------------------------------------------------------------
def hierarchical_fc_params(
    rf: float, sum_lmax_all: float, capacity: float, delta: float, lf_max: float
) -> Tuple[float, float]:
    """Eq. 65: the virtual server of class f on an FC(C, delta) link is
    FC with these (rate, burstiness) parameters."""
    return (
        rf,
        rf * sum_lmax_all / capacity + rf * delta / capacity + lf_max,
    )


def flat_sfq_bound_equal_lengths(
    eat: float, n_flows: int, l: float, capacity: float, delta: float
) -> float:
    """Eq. 69: SFQ bound with |Q| equal-length flows on FC(C, delta)."""
    return eat + (n_flows - 1) * l / capacity + delta / capacity + l / capacity


def partitioned_sfq_bound_equal_lengths(
    eat: float,
    partition_size: int,
    partition_rate: float,
    n_partitions: int,
    l: float,
    capacity: float,
    delta: float,
) -> float:
    """Eq. 71: SFQ bound for a flow inside partition Q_i (rate C_i) of a
    K-way hierarchical split of an FC(C, delta) link."""
    return (
        eat
        + (partition_size + 1) * l / partition_rate
        + (delta + n_partitions * l) / capacity
    )


def delay_shift_condition(
    partition_size: int,
    total_flows: int,
    n_partitions: int,
    partition_rate: float,
    capacity: float,
) -> bool:
    """Eq. 73: hierarchical partitioning lowers the bound iff
    (|Q_i| + 1) / (|Q| - K) < C_i / C."""
    if total_flows <= n_partitions:
        raise ValueError("need |Q| > K")
    return (partition_size + 1) / (total_flows - n_partitions) < partition_rate / capacity


# ----------------------------------------------------------------------
# Delay EDD (Theorem 7) and Fair Airport (Theorem 9)
# ----------------------------------------------------------------------
def edd_delay_bound(deadline: float, l_max: float, capacity: float, delta: float) -> float:
    """Eq. 68: L_EDD(p) <= D(p) + l_max/C + delta/C on FC(C, delta)."""
    return deadline + l_max / capacity + delta / capacity


fair_airport_delay_bound = wfq_delay_bound


def fair_airport_fairness_bound(
    lf_max: float, rf: float, lm_max: float, rm: float, l_max: float, capacity: float
) -> float:
    """Theorem 8, eq. 135: 3(l_f/r_f + l_m/r_m) + 2*beta."""
    beta = l_max / capacity
    return 3.0 * (lf_max / rf + lm_max / rm) + 2.0 * beta
