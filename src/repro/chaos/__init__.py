"""Deterministic chaos testing for the scheduler zoo.

``repro.chaos`` drives randomized fault campaigns — seeded
compositions of link outages, server stalls, mid-run re-weightings,
flow churn, and packet loss/reordering — against every registered
scheduling discipline, with the full invariant monitor suite
(:mod:`repro.faults.monitors`) watching each run. Layers:

* :mod:`~repro.chaos.schedule` — seed -> :class:`ChaosSchedule`
  (topology + traffic + time-ordered fault events), byte-reproducible;
* :mod:`~repro.chaos.runner` — materialize one schedule against one
  discipline, returning a :class:`ChaosReport`;
* :mod:`~repro.chaos.campaign` — fan a schedulers × seeds grid through
  the campaign runner, shrinking every failure;
* :mod:`~repro.chaos.shrink` — ddmin failure minimizer + replayable
  ``chaos-repro/1`` artifacts;
* :mod:`~repro.chaos.fixtures` — deliberately broken disciplines the
  harness must catch (its own regression oracle);
* :mod:`~repro.chaos.experiment` — the :class:`ExperimentResult`
  adapter for the experiment registry (``python -m repro run chaos``).

CLI: ``python -m repro chaos --seeds 25`` (campaign) and
``python -m repro chaos replay results/chaos/repro_X_N.json``.
"""

from repro.chaos.campaign import (
    ChaosCampaignResult,
    ChaosFailure,
    run_chaos_campaign,
)
from repro.chaos.fixtures import ensure_fixture_registered, is_fixture
from repro.chaos.runner import (
    CHECKED_FAIRNESS,
    DEFAULT_ZOO,
    ChaosReport,
    run_schedule,
)
from repro.chaos.schedule import (
    EVENT_KINDS,
    ChaosSchedule,
    FaultEvent,
    FlowSpec,
    generate_schedule,
)
from repro.chaos.shrink import (
    ReplayOutcome,
    ShrinkResult,
    load_artifact,
    replay_artifact,
    shrink_failure,
    write_artifact,
)

__all__ = [
    "CHECKED_FAIRNESS",
    "ChaosCampaignResult",
    "ChaosFailure",
    "ChaosReport",
    "ChaosSchedule",
    "DEFAULT_ZOO",
    "EVENT_KINDS",
    "FaultEvent",
    "FlowSpec",
    "ReplayOutcome",
    "ShrinkResult",
    "ensure_fixture_registered",
    "generate_schedule",
    "is_fixture",
    "load_artifact",
    "replay_artifact",
    "run_chaos_campaign",
    "run_schedule",
    "shrink_failure",
    "write_artifact",
]
