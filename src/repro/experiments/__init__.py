"""Experiment modules: one per table/figure of the paper's evaluation.

| Module | Paper artifact |
|---|---|
| ``table1`` | Table 1 (fairness of WFQ/FQS/SCFQ/DRR vs SFQ) |
| ``examples_1_2`` | Examples 1 and 2 (WFQ's weaknesses) |
| ``figure1`` | Figure 1(b): TCP fairness over a variable-rate server |
| ``figure2a`` | Figure 2(a): max-delay delta, WFQ vs SFQ |
| ``figure2b`` | Figure 2(b): average delay, WFQ vs SFQ |
| ``figure3`` | Figure 3(b): weighted shares on a fluctuating interface |
| ``throughput_bounds`` | Theorems 2-3 |
| ``delay_bounds_exp`` | Theorems 4-5, eq. 56-57 |
| ``end_to_end_exp`` | Theorem 6 / Corollary 1 |
| ``link_sharing_exp`` | Section 3, Example 3 + recursive bounds |
| ``delay_shifting`` | Section 3, eq. 69-73 |
| ``delay_edd_exp`` | Theorem 7 (separation of delay and throughput) |
| ``fair_airport_exp`` | Appendix B, Theorems 8-9 |

The registry below is the single source of truth for *runnable*
experiments: the CLI (``python -m repro run``/``list``), the report
generator, and the campaign runner all dispatch through it. Entries are
lazy ``module:function`` targets so ``python -m repro list`` never
imports a simulation module.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.experiments.harness import ExperimentResult

#: CLI name -> lazy ``module:function`` target returning ExperimentResult.
REGISTRY: Dict[str, str] = {
    "table1": "repro.experiments.table1:run_table1",
    "example1": "repro.experiments.examples_1_2:run_example1",
    "example2": "repro.experiments.examples_1_2:run_example2",
    "figure1": "repro.experiments.figure1:run_figure1",
    "figure2a": "repro.experiments.figure2a:run_figure2a",
    "figure2b": "repro.experiments.figure2b:run_figure2b",
    "figure3": "repro.experiments.figure3:run_figure3",
    "throughput": "repro.experiments.throughput_bounds:run_throughput_bounds",
    "delay": "repro.experiments.delay_bounds_exp:run_delay_bounds",
    "e2e": "repro.experiments.end_to_end_exp:run_end_to_end",
    "linkshare": "repro.experiments.link_sharing_exp:run_link_sharing",
    "shifting": "repro.experiments.delay_shifting:run_delay_shifting",
    "edd": "repro.experiments.delay_edd_exp:run_delay_edd",
    "fa": "repro.experiments.fair_airport_exp:run_fair_airport",
    "ebf": "repro.experiments.ebf_delay:run_ebf_delay",
    "residual": "repro.experiments.residual_exp:run_residual",
    "vbr": "repro.experiments.vbr_rates:run_vbr_rates",
    "interop": "repro.experiments.interop:run_interop",
    "stress": "repro.experiments.stress:run_stress",
    "scale": "repro.experiments.scale:run_scale",
    "faults": "repro.experiments.fault_tolerance:run_fault_tolerance",
    "chaos": "repro.chaos.experiment:run_chaos_case",
    "robust-figure1": "repro.experiments.robustness:run_figure1_robustness",
    "robust-figure2b": "repro.experiments.robustness:run_figure2b_robustness",
    "complexity": "repro.experiments.complexity:run_complexity",
    "pifo_fidelity": "repro.experiments.pifo_fidelity:run_pifo_fidelity",
}

#: One-line description per registered experiment (``python -m repro list``).
DESCRIPTIONS: Dict[str, str] = {
    "table1": "Table 1: fairness of WFQ/FQS/SCFQ/DRR vs SFQ",
    "example1": "Example 1: WFQ >= 2x the fairness lower bound",
    "example2": "Example 2: WFQ unfair on a variable-rate server",
    "figure1": "Figure 1(b): TCP fairness over a variable-rate server",
    "figure2a": "Figure 2(a): max-delay delta, SFQ vs WFQ (analytic)",
    "figure2b": "Figure 2(b): avg delay of low-throughput flows",
    "figure3": "Figure 3(b): weighted shares on a fluctuating interface",
    "throughput": "Theorems 2/3: throughput guarantees (FC/EBF)",
    "delay": "Theorems 4/5 + eq. 56-57: delay guarantees",
    "e2e": "Corollary 1: end-to-end delay over K hops",
    "linkshare": "Example 3: hierarchical link sharing",
    "shifting": "Delay shifting (eq. 69-73)",
    "edd": "Theorem 7: Delay EDD on FC servers",
    "fa": "Fair Airport (Theorems 8/9)",
    "ebf": "Theorem 5: statistical delay tail on EBF servers",
    "residual": "Section 2.3: priority residual is FC(C-rho, sigma)",
    "vbr": "Section 2.3: generalized SFQ with per-packet rates",
    "interop": "Section 2.4: heterogeneous schedulers interoperate",
    "stress": "Theorem 1 under Pareto traffic + Gilbert-Elliott link",
    "scale": "Hierarchical link-sharing at 10^3..10^6 flows with churn "
             "(vectorized arrivals)",
    "faults": "Fault tolerance: link outage + flow churn, invariant monitors",
    "chaos": "Chaos case: randomized fault schedule vs one scheduler, "
             "invariant monitors on",
    "robust-figure1": "Robustness: Figure 1(b) across buffers and seeds",
    "robust-figure2b": "Robustness: Figure 2(b) excess across seeds",
    "complexity": "Complexity accounting: GPS work vs self-clocking",
    "pifo_fidelity": "SP-PIFO band sweep: inversion rate + throughput "
                     "error vs exact SFQ, k in {1..32}",
}

#: Experiments whose run function accepts a ``seed=`` keyword. The
#: campaign runner only fans these out across seed slots; the rest are
#: deterministic and run exactly once per parameter set.
ACCEPTS_SEED = frozenset(
    {"table1", "figure1", "figure2b", "ebf", "residual", "vbr", "stress",
     "faults", "chaos", "scale", "pifo_fidelity"}
)

#: Experiments whose run function accepts a ``duration=`` keyword.
ACCEPTS_DURATION = frozenset({"figure1", "figure2b"})


def resolve_target(target: str) -> Callable[..., ExperimentResult]:
    """Import ``module:function`` and return the callable."""
    module_name, _, func_name = target.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"malformed experiment target {target!r}")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def load_experiment(name: str) -> Callable[..., ExperimentResult]:
    """Return the run function for a registered experiment (lazy import)."""
    return resolve_target(REGISTRY[name])


__all__ = [
    "ExperimentResult",
    "REGISTRY",
    "DESCRIPTIONS",
    "ACCEPTS_SEED",
    "ACCEPTS_DURATION",
    "resolve_target",
    "load_experiment",
]
