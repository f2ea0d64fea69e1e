"""Tests for the analysis layer: fairness measures, bounds, admission,
end-to-end composition, statistics."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    ServerGuarantee,
    compose_path,
    delay_edd_schedulable,
    delay_shift_condition,
    deterministic_path_bound,
    drr_fairness_bound,
    ebf_tail_probability,
    expected_arrival_times,
    fair_airport_fairness_bound,
    golestani_lower_bound,
    hierarchical_fc_params,
    jain_index,
    leaky_bucket_e2e_delay_bound,
    path_delay_tail,
    rate_functions_admissible,
    rates_admissible,
    scfq_delay_bound,
    scfq_sfq_delay_delta,
    sfq_delay_bound,
    sfq_fairness_bound,
    sfq_throughput_lower_bound,
    wfq_delay_bound,
    wfq_sfq_delay_delta_equal_lengths,
    wfq_sfq_delta_positive_condition,
)
from repro.analysis.fairness import empirical_fairness_measure
from repro.analysis.stats import delay_summary, mean, percentile, stddev, windowed_throughput
from repro.core import Packet, make_scheduler
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator, Tracer
from repro.simulation.tracing import PacketRecord


# ----------------------------------------------------------------------
# Fairness bounds
# ----------------------------------------------------------------------
def test_bound_relationships():
    args = (1600, 64_000.0, 800, 32_000.0)
    lower = golestani_lower_bound(*args)
    sfq = sfq_fairness_bound(*args)
    drr = drr_fairness_bound(*args)
    assert sfq == pytest.approx(2 * lower)
    assert drr > sfq


def test_paper_drr_example():
    """Section 1.2: r=100, l=1 -> DRR H = 1.02, 50x SCFQ's 0.02."""
    drr = drr_fairness_bound(1, 100.0, 1, 100.0)
    scfq = sfq_fairness_bound(1, 100.0, 1, 100.0)
    assert drr == pytest.approx(1.02)
    assert scfq == pytest.approx(0.02)
    assert drr / scfq == pytest.approx(51.0)


# ----------------------------------------------------------------------
# Empirical fairness machinery
# ----------------------------------------------------------------------
def _record(flow, seq, length, arrival, start, dep):
    r = PacketRecord(flow=flow, seqno=seq, length=length, arrival=arrival)
    r.start_service, r.departure = start, dep
    return r


def test_empirical_fairness_simple_case():
    tracer = Tracer()
    # Both flows backlogged [0,4]; f served twice, m not at all.
    tracer.add(_record("f", 0, 100, 0.0, 0.0, 1.0))
    tracer.add(_record("f", 1, 100, 0.0, 1.0, 2.0))
    tracer.add(_record("m", 0, 100, 0.0, 2.0, 4.0))
    h = empirical_fairness_measure(tracer, "f", "m", 100.0, 100.0)
    # Over [0,2]: W_f=200, W_m=0 -> gap 2.0.
    assert h == pytest.approx(2.0)


def test_empirical_fairness_arrival_at_a_departure_keeps_the_backlog():
    tracer = Tracer()
    # f's second packet arrives as its first departs: f stays backlogged
    # through [0, 2], so both its packets fall in one window with m.
    tracer.add(_record("f", 0, 100, 0.0, 0.0, 1.0))
    tracer.add(_record("f", 1, 100, 1.0, 1.0, 2.0))
    tracer.add(_record("m", 0, 100, 0.0, 2.0, 4.0))
    assert empirical_fairness_measure(tracer, "f", "m", 100.0, 100.0) == pytest.approx(2.0)


def test_empirical_fairness_no_overlap_is_zero():
    tracer = Tracer()
    tracer.add(_record("f", 0, 100, 0.0, 0.0, 1.0))
    tracer.add(_record("m", 0, 100, 5.0, 5.0, 6.0))
    assert empirical_fairness_measure(tracer, "f", "m", 1.0, 1.0) == 0.0


def test_empirical_fairness_sees_one_giant_packet_in_a_long_trace():
    """3,000 departures in one common-backlog span, one 20,000-bit packet.

    When m's giant packet departs, m is its whole normalized length,
    20.0 s, ahead of f, and f then catches up over some 200 departures.
    An epoch grid subsampled to 2,000 points misses an instant that
    bounds the worst interval and reads 19.9; the replay is exact.
    """
    sim = Simulator()
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1000.0)
    sfq.add_flow("m", 1000.0)
    link = Link(sim, sfq, ConstantCapacity(2000.0))
    for seq in range(1500):
        link.send(Packet("f", 100, seqno=seq))
        link.send(Packet("m", 20_000 if seq == 700 else 100, seqno=seq))
    sim.run()
    h = empirical_fairness_measure(link.tracer, "f", "m", 1000.0, 1000.0)
    assert h == pytest.approx(20.0)
    assert h <= sfq_fairness_bound(100, 1000.0, 20_000, 1000.0)


def test_jain_index():
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
    assert jain_index([]) == 1.0


# ----------------------------------------------------------------------
# EAT and delay bounds
# ----------------------------------------------------------------------
def test_expected_arrival_times_matches_eq37():
    eats = expected_arrival_times([0.0, 0.0, 5.0], [100, 100, 100], [100.0] * 3)
    assert eats == [0.0, 1.0, 5.0]


def test_expected_arrival_times_validates_lengths():
    with pytest.raises(ValueError):
        expected_arrival_times([0.0], [100, 200], [1.0])


def test_sfq_delay_bound_formula():
    # eq. 38 with delta=0: EAT + sum_others/C + l/C.
    assert sfq_delay_bound(1.0, 3000, 1600, 1e6) == pytest.approx(
        1.0 + 3000 / 1e6 + 1600 / 1e6
    )


def test_scfq_vs_sfq_delta_paper_number():
    # The paper: r=64Kb/s, l=200B, C=100Mb/s -> ~24.4 ms (we compute
    # 24.98 ms exactly; the paper rounded differently).
    delta = scfq_sfq_delay_delta(1600, 64_000.0, 100e6)
    assert delta == pytest.approx(0.02498, rel=1e-3)
    assert scfq_delay_bound(0.0, 0, 1600, 64_000.0, 100e6) - sfq_delay_bound(
        0.0, 0, 1600, 100e6
    ) == pytest.approx(delta)


def test_wfq_sfq_delta_sign_condition():
    # eq. 60: positive iff r/C <= 1/(|Q|-1).
    assert wfq_sfq_delta_positive_condition(100, 64_000.0, 100e6)
    assert not wfq_sfq_delta_positive_condition(200, 1e6, 100e6)
    delta_pos = wfq_sfq_delay_delta_equal_lengths(1600, 64_000.0, 100, 100e6)
    assert delta_pos > 0
    delta_neg = wfq_sfq_delay_delta_equal_lengths(1600, 1e6, 200, 100e6)
    assert delta_neg < 0


def test_throughput_floor_formula():
    floor = sfq_throughput_lower_bound(100.0, 10.0, 500.0, 1000.0, 200.0, 50.0)
    assert floor == pytest.approx(100.0 * 10 - 100 * 500 / 1000 - 100 * 200 / 1000 - 50)


def test_hierarchical_fc_params_eq65():
    rate, delta = hierarchical_fc_params(500.0, 1000.0, 2000.0, 100.0, 50.0)
    assert rate == 500.0
    assert delta == pytest.approx(500 * 1000 / 2000 + 500 * 100 / 2000 + 50)


def test_delay_shift_condition_eq73():
    assert delay_shift_condition(2, 12, 2, 0.5 * 16000, 16000.0)
    assert not delay_shift_condition(9, 12, 2, 0.5 * 16000, 16000.0)
    with pytest.raises(ValueError):
        delay_shift_condition(1, 2, 2, 1.0, 2.0)


def test_fair_airport_bounds():
    h = fair_airport_fairness_bound(100, 100.0, 100, 100.0, 100, 1000.0)
    assert h == pytest.approx(3 * 2.0 + 2 * 0.1)
    assert wfq_delay_bound(1.0, 100, 50.0, 200, 1000.0) == pytest.approx(
        1.0 + 2.0 + 0.2
    )


def test_ebf_tail():
    assert ebf_tail_probability(2.0, 1.0, 0.0) == 2.0
    assert ebf_tail_probability(2.0, 1.0, math.log(4)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ebf_tail_probability(1.0, 1.0, -1.0)


# ----------------------------------------------------------------------
# End-to-end composition
# ----------------------------------------------------------------------
def test_deterministic_path_bound():
    assert deterministic_path_bound(1.0, [0.1, 0.2], [0.05]) == pytest.approx(1.35)
    with pytest.raises(ValueError):
        deterministic_path_bound(0.0, [0.1, 0.2], [])


def test_compose_path_deterministic():
    g = compose_path(
        [ServerGuarantee(0.1), ServerGuarantee(0.2)], propagation_delays=[0.05]
    )
    assert g.beta == pytest.approx(0.35)
    assert g.b == 0.0
    assert g.lam == float("inf")
    assert path_delay_tail(g, 0.0) == 0.0


def test_compose_path_ebf():
    g = compose_path(
        [ServerGuarantee(0.1, b=1.0, lam=2.0), ServerGuarantee(0.1, b=3.0, lam=2.0)],
        propagation_delays=[0.0],
    )
    assert g.b == 4.0
    assert g.lam == pytest.approx(1.0)  # 1/(1/2 + 1/2)
    assert path_delay_tail(g, 1.0) == pytest.approx(4.0 * math.exp(-1.0))


def test_leaky_bucket_e2e_bound():
    bound = leaky_bucket_e2e_delay_bound(
        sigma=2000.0, rho=100.0, r_hat=200.0, l_packet=100.0,
        betas=[0.01, 0.01], propagation_delays=[0.005],
    )
    assert bound == pytest.approx(2000 / 200 - 100 / 200 + 0.025)
    with pytest.raises(ValueError):
        leaky_bucket_e2e_delay_bound(1.0, 300.0, 200.0, 1.0, [0.0], [])


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
def test_rates_admissible():
    assert rates_admissible([400.0, 600.0], 1000.0)
    assert not rates_admissible([400.0, 700.0], 1000.0)


def test_rate_functions_admissible():
    ok = [
        [(0.0, 1.0, 400.0), (1.0, 2.0, 400.0)],
        [(0.0, 2.0, 600.0)],
    ]
    assert rate_functions_admissible(ok, 1000.0)
    bad = [
        [(0.0, 1.0, 700.0)],
        [(0.5, 2.0, 600.0)],
    ]
    assert not rate_functions_admissible(bad, 1000.0)
    with pytest.raises(ValueError):
        rate_functions_admissible([[(1.0, 1.0, 1.0)]], 10.0)


def test_edd_schedulability_slope_check():
    assert not delay_edd_schedulable([(600.0, 100.0, 1.0)] * 2, 1000.0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_mean_and_stddev():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert stddev([1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert stddev([5.0]) == 0.0
    with pytest.raises(ValueError):
        mean([])


def test_percentile():
    values = list(range(101))
    assert percentile(values, 0) == 0
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)


def test_windowed_throughput():
    tracer = Tracer()
    tracer.add(_record("f", 0, 100, 0.0, 0.0, 0.5))
    tracer.add(_record("f", 1, 100, 0.0, 0.5, 1.5))
    series = windowed_throughput(tracer, "f", window=1.0, horizon=2.0)
    assert series == [(1.0, 100.0), (2.0, 100.0)]
    with pytest.raises(ValueError):
        windowed_throughput(tracer, "f", 0.0, 1.0)


def test_delay_summary():
    tracer = Tracer()
    tracer.add(_record("f", 0, 100, 0.0, 0.0, 1.0))
    tracer.add(_record("f", 1, 100, 0.0, 1.0, 3.0))
    summary = delay_summary(tracer, "f")
    assert summary["count"] == 2
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["max"] == pytest.approx(3.0)
    assert delay_summary(tracer, "ghost")["count"] == 0
