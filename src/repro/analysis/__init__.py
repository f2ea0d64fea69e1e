"""Analysis: empirical fairness, theorem bounds, admission, statistics."""

from repro.analysis.admission import (
    delay_edd_schedulable,
    rate_functions_admissible,
    rates_admissible,
)
from repro.analysis.delay_bounds import (
    edd_delay_bound,
    ebf_tail_probability,
    expected_arrival_times,
    fair_airport_delay_bound,
    fair_airport_fairness_bound,
    delay_shift_condition,
    flat_sfq_bound_equal_lengths,
    hierarchical_fc_params,
    partitioned_sfq_bound_equal_lengths,
    scfq_delay_bound,
    scfq_sfq_delay_delta,
    sfq_delay_bound,
    sfq_throughput_lower_bound,
    wfq_delay_bound,
    wfq_sfq_delay_delta,
    wfq_sfq_delay_delta_equal_lengths,
    wfq_sfq_delta_positive_condition,
)
from repro.analysis.end_to_end import (
    ServerGuarantee,
    compose_path,
    deterministic_path_bound,
    leaky_bucket_e2e_delay_bound,
    path_delay_tail,
)
from repro.analysis.fairness import (
    RunningGap,
    drr_fairness_bound,
    empirical_fairness_measure,
    golestani_lower_bound,
    jain_index,
    scfq_fairness_bound,
    sfq_fairness_bound,
)
from repro.analysis.servers import measure_fc_delta, sample_ebf_deficits
from repro.analysis.stats import (
    delay_summary,
    mean,
    percentile,
    stddev,
    windowed_throughput,
)

__all__ = [
    # fairness
    "golestani_lower_bound",
    "sfq_fairness_bound",
    "scfq_fairness_bound",
    "drr_fairness_bound",
    "empirical_fairness_measure",
    "RunningGap",
    "jain_index",
    # delay / throughput bounds
    "expected_arrival_times",
    "sfq_throughput_lower_bound",
    "sfq_delay_bound",
    "scfq_delay_bound",
    "wfq_delay_bound",
    "scfq_sfq_delay_delta",
    "wfq_sfq_delay_delta",
    "wfq_sfq_delay_delta_equal_lengths",
    "wfq_sfq_delta_positive_condition",
    "hierarchical_fc_params",
    "flat_sfq_bound_equal_lengths",
    "partitioned_sfq_bound_equal_lengths",
    "delay_shift_condition",
    "edd_delay_bound",
    "fair_airport_delay_bound",
    "fair_airport_fairness_bound",
    "ebf_tail_probability",
    # end-to-end
    "ServerGuarantee",
    "compose_path",
    "deterministic_path_bound",
    "path_delay_tail",
    "leaky_bucket_e2e_delay_bound",
    # admission
    "rates_admissible",
    "rate_functions_admissible",
    "delay_edd_schedulable",
    # server characterization
    "measure_fc_delta",
    "sample_ebf_deficits",
    # stats
    "mean",
    "percentile",
    "stddev",
    "windowed_throughput",
    "delay_summary",
]
