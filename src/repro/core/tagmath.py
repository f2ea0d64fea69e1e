"""Shared tag arithmetic: eq. 4 start/finish tags and eq. 37 EATs.

Every rank function (:mod:`repro.core.pifo`), the Fair Airport ASQ, the
EAT tracker and the delay-bound analysis compute their tags through
these helpers, so no two copies of the recursion can drift apart.

Exact-float discipline
----------------------
Byte-identical schedules against the frozen seed cores require
bit-identical tags, so every expression below computes exactly what the
seed core's did:

* ``max(v, last_finish)``, written out as ``last_finish if last_finish >
  v else v``. That is the one comparison the builtin makes, so the
  first argument, the virtual time, wins a tie, and the result is the
  value ``max`` returns for every input, NaN included. The argument
  order is part of the contract. The builtin call itself is left out:
  on CPython 3.11 it costs about 120 ns where the comparison costs
  about 7, and it ran once per packet. Lint rule PERF005 keeps
  ``max``/``min`` calls out of this module;
* ``length / r`` — divide, never multiply by a cached ``1/r``: ``l/r``
  and ``l*(1/r)`` differ in ulps for non-dyadic rates, and a near-tie in
  tags would then break differently from the seed, flipping the
  service order.

The helpers are deliberately *pure* (no Packet, no FlowState): each
caller keeps its own state addressing and only the arithmetic is
shared. They are also ``mypyc``-friendly — plain module-level functions
over ``float``/``int`` — so ``scripts/build_compiled.py`` can compile
this module into a C extension that the import system then prefers
transparently; the pure-Python form stays the reference and the
fallback.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = ["start_finish", "eat_step"]


def start_finish(  # lint: hot
    v: float,
    last_finish: float,
    length: int,
    weight: float,
    rate: Optional[float],
) -> Tuple[float, float]:
    """Start/finish tags for a packet arriving into virtual time ``v``.

    Implements the tag recursion shared by SFQ, SCFQ, WFQ, FQS and
    WF2Q (paper Section 2, eqs. 1-2): the start tag is the maximum of
    the system virtual time and the flow's previous finish tag; the
    finish tag adds the packet's service in virtual time, ``length``
    over the flow ``weight`` — or over the per-packet ``rate``
    :math:`r_f^j` when one is assigned (generalized SFQ, eq. 36).

    Returns ``(start, finish)``; the caller stamps the packet and
    stores ``finish`` as the flow's new ``last_finish``.
    """
    start = last_finish if last_finish > v else v
    finish = start + length / (weight if rate is None else rate)
    return start, finish


def eat_step(  # lint: hot
    arrival: float,
    prev_eat: float,
    prev_service: float,
    length: int,
    rate: float,
) -> Tuple[float, float]:
    """One step of the expected-arrival-time recursion (eq. 37).

    ``EAT(p) = max(arrival, EAT(prev) + service(prev))`` with
    ``service(p) = length / rate``. Returns ``(eat, service)``; the
    caller stores both for the next step (and Virtual Clock stamps the
    packet with ``eat + service``).
    """
    due = prev_eat + prev_service
    eat = due if due > arrival else arrival
    return eat, length / rate
