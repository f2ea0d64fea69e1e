"""Parallel campaign runner: experiment fan-out with result caching.

The paper's evaluation is a set of *independent* experiment invocations
(experiment × parameter-override × seed). This module shards such a
campaign across a :class:`concurrent.futures.ProcessPoolExecutor` and
merges the per-shard :class:`ExperimentResult`\\ s into per-experiment
summary tables. Design goals, in order:

**Determinism.** Every shard derives its RNG seed from a stable hash of
its shard key via :func:`repro.simulation.random.derive_seed`, so a
shard's output is a pure function of ``(experiment, params, seed slot,
base seed)`` — never of worker count, completion order, or process
identity. ``--jobs 4`` and ``--jobs 1`` produce bit-identical summary
tables.

**Incrementality.** Results are cached content-addressed on disk under
``<results>/.cache/<sha256>.json`` where the key hashes the experiment
name, a digest of the ``repro`` source tree, the canonical parameters,
and the effective seed. Re-running a campaign recomputes only shards
whose inputs changed; editing any source file invalidates everything
(coarse but sound). Cached shards round-trip through
:meth:`ExperimentResult.to_json`, so the aggregation step cannot tell
cached and fresh shards apart.

**Fault isolation.** A shard that raises is reported as failed in the
summary, and the other shards run on. A worker process that dies breaks
the pool: every shard the pool had not finished is marked failed, and
nothing is retried — a shard is a pure function of its inputs, so a
retry would die the same way. Either way the surviving shards aggregate
into a summary flagged ``truncated``.

CLI: ``python -m repro campaign --jobs 4 --seeds 5 --only table1,faults``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments import (
    ACCEPTS_SEED,
    REGISTRY,
    resolve_target,
)
from repro.experiments.harness import ExperimentResult, encode_value
from repro.simulation.random import derive_seed

#: Parameter grids sharded per experiment: the ``faults`` scenario grid
#: (one shard per outage algorithm plus the churn audit) fans out across
#: workers; concatenating the shards in grid order reproduces the
#: monolithic ``run_fault_tolerance`` table and notes.
PARAM_GRIDS: Dict[str, List[Dict[str, Any]]] = {
    "faults": [
        {"algorithms": ("SFQ",), "include_churn": False},
        {"algorithms": ("WFQ",), "include_churn": False},
        {"algorithms": (), "include_churn": True},
    ],
}


@dataclass(frozen=True)
class Shard:
    """One unit of campaign work: experiment × params × seed slot."""

    experiment: str
    target: str  # "module:function"
    params: Tuple[Tuple[str, Any], ...] = ()
    seed_slot: int = 0
    seed: Optional[int] = None  # effective seed kwarg (None = omit)

    @property
    def kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def token(self) -> str:
        """Canonical string key (stable across processes and runs)."""
        return json.dumps(
            {
                "experiment": self.experiment,
                "params": encode_value(dict(self.params)),
                "seed_slot": self.seed_slot,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    def describe(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.params)
        label = f"{self.experiment}[{params}]" if params else self.experiment
        if self.seed is not None:
            label += f" seed={self.seed}"
        return label


@dataclass
class ShardOutcome:
    """What happened to one shard."""

    shard: Shard
    status: str  # "ok" | "failed"
    result: Optional[ExperimentResult] = None
    error: str = ""
    elapsed: float = 0.0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CampaignResult:
    """All shard outcomes plus the aggregated per-experiment summaries."""

    outcomes: List[ShardOutcome]
    summaries: "OrderedDict[str, ExperimentResult]"
    seeds: int
    wall_s: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)

    def render_stats(self) -> str:
        s = self.stats
        return (
            f"campaign: {s['shards']} shards ({s['ok']} ok, "
            f"{s['failed']} failed), {s['cached']} served from cache, "
            f"{self.wall_s:.2f}s wall"
        )

    @property
    def failures(self) -> List[ShardOutcome]:
        return [o for o in self.outcomes if not o.ok]


# --------------------------------------------------------------------------
# Shard expansion and seed derivation


def derive_shard_seed(
    experiment: str,
    params: Tuple[Tuple[str, Any], ...],
    seed_slot: int,
    base_seed: int,
) -> int:
    """The deterministic per-shard seed (see module docstring)."""
    params_token = json.dumps(encode_value(dict(params)), sort_keys=True)
    return derive_seed("campaign", base_seed, experiment, params_token, seed_slot)


def expand_campaign(
    names: Sequence[str],
    seeds: int = 1,
    base_seed: Optional[int] = 0,
    derive_seeds: bool = True,
    grids: Optional[Mapping[str, List[Dict[str, Any]]]] = None,
    targets: Optional[Mapping[str, str]] = None,
    accepts_seed: Optional[frozenset] = None,
) -> List[Shard]:
    """Expand experiment names into the ordered list of shards.

    Seed-accepting experiments fan out over ``seeds`` slots; the rest
    are deterministic and run once per parameter set. With
    ``derive_seeds=False`` (the legacy ``run all`` path) the seed is
    ``base_seed + slot`` passed through directly — or omitted entirely
    when ``base_seed`` is None, preserving each experiment's default.
    """
    if grids is None:
        grids = PARAM_GRIDS
    registry: Dict[str, str] = dict(REGISTRY)
    if targets:
        registry.update(targets)
    if accepts_seed is None:
        accepts_seed = ACCEPTS_SEED
    shards: List[Shard] = []
    for name in names:
        if name not in registry:
            raise KeyError(f"unknown experiment {name!r}")
        target = registry[name]
        takes_seed = name in accepts_seed
        slots = range(seeds if takes_seed else 1)
        for overrides in grids.get(name, [{}]):
            params = tuple(sorted(overrides.items()))
            for slot in slots:
                if not takes_seed:
                    seed: Optional[int] = None
                elif derive_seeds:
                    seed = derive_shard_seed(name, params, slot, base_seed)
                elif base_seed is None:
                    seed = None
                else:
                    seed = base_seed + slot
                shards.append(Shard(name, target, params, slot, seed))
    return shards


# --------------------------------------------------------------------------
# Content-addressed result cache


def repro_source_digest(root: Optional[Path] = None) -> str:
    """SHA-256 over every ``repro`` source file (path + content).

    Part of every cache key: editing any source file invalidates the
    whole cache — coarse, but sound, and cheap to compute (~60 files).
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def cache_key(shard: Shard, source_digest: str, metrics: bool = False) -> str:
    """sha256(experiment + source digest + params + seed [+ metrics]).

    The metrics flag joins the key only when set: a metrics-enabled
    shard carries its snapshot inside the cached result, so it must not
    be served to (or from) metrics-off campaigns, while every
    pre-existing metrics-off cache entry stays valid.
    """
    token_fields = {
        "experiment": shard.experiment,
        "source": source_digest,
        "params": encode_value(dict(shard.params)),
        "seed": shard.seed,
    }
    if metrics:
        token_fields["metrics"] = True
    token = json.dumps(token_fields, sort_keys=True)
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def cache_path(results_dir: Path, key: str) -> Path:
    """Where a shard with cache key ``key`` lives on disk."""
    return results_dir / ".cache" / f"{key}.json"


def cache_load(path: Path) -> Optional[Tuple[ExperimentResult, float]]:
    """Read a cached shard result; any corruption is a cache miss."""
    try:
        payload = json.loads(path.read_text())
        result = ExperimentResult.from_payload(payload["result"])
        return result, float(payload.get("elapsed", 0.0))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_store(path: Path, shard: Shard, result: ExperimentResult,
                elapsed: float) -> None:
    """Atomically write a shard result (tmp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": "campaign-shard/1",
        "shard": json.loads(shard.token()),
        "elapsed": round(elapsed, 6),
        "result": result.to_payload(),
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# Shard execution: in-process (jobs=1) or on a process pool (jobs>1)


def _execute(
    target: str, kwargs: Dict[str, Any], metrics: bool = False
) -> ExperimentResult:
    func = resolve_target(target)
    if metrics:
        # Ambient session: every Link the shard constructs
        # self-registers a hub. The snapshot rides inside result.data so
        # it crosses the process pool and the cache with the result.
        from repro.metrics import MetricsSession

        meta: Dict[str, Any] = {}
        if kwargs.get("seed") is not None:
            meta["seed"] = kwargs["seed"]
        with MetricsSession() as session:
            result = func(**kwargs)
        if isinstance(result, ExperimentResult):
            result.data["metrics_snapshot"] = (
                session.snapshot(meta).to_payload()
            )
    else:
        result = func(**kwargs)
    if not isinstance(result, ExperimentResult):
        raise TypeError(
            f"{target} returned {type(result).__name__}, not ExperimentResult"
        )
    return result


def _run_shard(shard: Shard, metrics: bool = False) -> ShardOutcome:
    """Run one shard; an exception inside it becomes a ``failed`` outcome."""
    start = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    result: Optional[ExperimentResult] = None
    status, error = "ok", ""
    try:
        result = _execute(shard.target, shard.kwargs, metrics)
    except Exception as exc:  # noqa: BLE001 - reported per shard
        status, error = "failed", f"{exc!r}\n{traceback.format_exc(limit=20)}"
    elapsed = time.perf_counter() - start  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    return ShardOutcome(shard, status, result, error, elapsed)


def _run_shard_in_worker(
    shard: Shard, metrics: bool
) -> Tuple[ShardOutcome, Optional[Dict[str, Any]]]:
    """Pool task: the outcome, with its result sent back as a payload."""
    outcome = _run_shard(shard, metrics)
    result, outcome.result = outcome.result, None
    return outcome, None if result is None else result.to_payload()


def _start_worker(go: Any) -> None:
    """Pool initializer: SIGINT's default action, so Ctrl-C kills the
    worker at once; then wait for ``go``, which the parent sets once
    every shard is submitted. On Python 3.10 and 3.11 a worker that dies
    while ``submit`` is still running can lose a future or crash the
    pool's manager thread, and the campaign then hangs."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    go.wait()


def _run_shards(
    shards: List[Shard], jobs: int, metrics: bool = False
) -> Iterator[Tuple[int, ShardOutcome]]:
    """Yield ``(index, outcome)`` for every shard as it finishes.

    With ``jobs <= 1`` the shards run in order in this process. Otherwise
    they run on a pool of ``jobs`` worker processes, forked where the
    platform can fork (no re-import of ``__main__``, and far cheaper
    start-up; a shard's result is a pure function of its derived seed,
    so the start method cannot change an output). A worker that dies
    breaks the pool, and every shard the pool had not finished fails
    with it. ``shutdown`` cancels the shards not yet started, so Ctrl-C
    stops the campaign at once instead of after the queued shards.
    """
    if jobs <= 1 or not shards:
        for index, shard in enumerate(shards):
            yield index, _run_shard(shard, metrics)
        return
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    go = context.Event()
    pool = ProcessPoolExecutor(
        min(jobs, len(shards)), context,
        initializer=_start_worker, initargs=(go,),
    )
    try:
        futures = {
            pool.submit(_run_shard_in_worker, shard, metrics): index
            for index, shard in enumerate(shards)
        }
        go.set()
        for future in as_completed(futures):
            index = futures[future]
            try:
                outcome, payload = future.result()
            except BrokenProcessPool as exc:
                error = f"worker process died: {exc}"
                outcome = ShardOutcome(shards[index], "failed", error=error)
            else:
                if payload is not None:
                    outcome.result = ExperimentResult.from_payload(payload)
            yield index, outcome
    finally:
        go.set()
        pool.shutdown(cancel_futures=True)


# --------------------------------------------------------------------------
# Aggregation: per-seed shards -> per-experiment summary tables


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _deep_merge(base: Dict[str, Any], extra: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``extra`` into ``base``, key by key through nested dicts.

    A nested dict of ``extra`` is merged into a dict of ``base``'s own,
    never stored by reference: a later merge into ``base`` must not
    write into the shard result ``extra`` came from.
    """
    for key, value in extra.items():
        if isinstance(value, dict):
            target = base.get(key)
            if not isinstance(target, dict):
                target = base[key] = {}
            _deep_merge(target, value)
        else:
            base[key] = value
    return base


def _aggregate_rows(
    per_seed: List[ExperimentResult],
) -> Tuple[List[List[Any]], List[List[Optional[List[float]]]]]:
    """Cell-wise mean/min/max across seeds for one parameter group.

    Numeric cells become their mean; non-numeric cells pass through when
    identical across seeds and render as ``varies`` otherwise. Returns
    ``(rows, ranges)`` where ranges mirrors the table shape with
    ``[min, max]`` for numeric cells and ``None`` elsewhere.
    """
    rows: List[List[Any]] = []
    ranges: List[List[Optional[List[float]]]] = []
    for row_cells in zip(*(r.rows for r in per_seed)):
        out_row: List[Any] = []
        out_rng: List[Optional[List[float]]] = []
        for cells in zip(*row_cells):
            if all(_is_number(c) for c in cells):
                values = [float(c) for c in cells]
                out_row.append(sum(values) / len(values))
                out_rng.append([min(values), max(values)])
            elif all(c == cells[0] for c in cells):
                out_row.append(cells[0])
                out_rng.append(None)
            else:
                out_row.append("varies")
                out_rng.append(None)
        rows.append(out_row)
        ranges.append(out_rng)
    return rows, ranges


def aggregate(
    outcomes: List[ShardOutcome], seeds: int
) -> "OrderedDict[str, ExperimentResult]":
    """Merge shard outcomes into one summary ExperimentResult per
    experiment, preserving expansion order throughout so the output is
    identical no matter how the shards were scheduled."""
    by_experiment: "OrderedDict[str, List[ShardOutcome]]" = OrderedDict()
    for outcome in outcomes:
        by_experiment.setdefault(outcome.shard.experiment, []).append(outcome)

    summaries: "OrderedDict[str, ExperimentResult]" = OrderedDict()
    for name, group in by_experiment.items():
        ok = [o for o in group if o.ok]
        failed = [o for o in group if not o.ok]
        if not ok:
            summary = ExperimentResult(
                experiment=name,
                description="campaign: every shard of this experiment failed",
                headers=["shard", "status", "error"],
            )
            for outcome in failed:
                summary.add_row(
                    outcome.shard.describe(),
                    outcome.status,
                    outcome.error.splitlines()[0] if outcome.error else "",
                )
            summary.data["campaign"] = {
                "seeds": seeds,
                "truncated": True,
                "shards": [
                    {"key": json.loads(o.shard.token()), "status": o.status}
                    for o in group
                ],
            }
            summaries[name] = summary
            continue

        first = ok[0].result
        assert first is not None
        summary = ExperimentResult(
            experiment=first.experiment,
            description=first.description,
            headers=list(first.headers),
        )
        # Group ok shards by parameter set, in expansion order.
        param_groups: "OrderedDict[Tuple, List[ShardOutcome]]" = OrderedDict()
        for outcome in ok:
            param_groups.setdefault(outcome.shard.params, []).append(outcome)
        merged_data: Dict[str, Any] = {}
        all_ranges: List[List[List[Optional[List[float]]]]] = []
        seed_counts = set()
        for params, outs in param_groups.items():
            outs = sorted(outs, key=lambda o: o.shard.seed_slot)
            results = [o.result for o in outs]
            seed_counts.add(len(results))
            shapes = {
                (len(r.rows), tuple(len(row) for row in r.rows)) for r in results
            }
            if len(results) == 1 or len(shapes) > 1:
                if len(shapes) > 1:
                    summary.note(
                        f"{Shard(name, '', params).describe()}: table shape "
                        "varies across seeds; showing the first seed slot only"
                    )
                base = results[0]
                for row in base.rows:
                    summary.rows.append(list(row))
                for note in base.notes:
                    summary.note(note)
                _deep_merge(merged_data, base.data)
                all_ranges.append([[None] * len(row) for row in base.rows])
            else:
                rows, ranges = _aggregate_rows(results)
                for row in rows:
                    summary.rows.append(row)
                all_ranges.append(ranges)
        if seed_counts - {1}:
            summary.note(
                f"cell values are means over {max(seed_counts)} derived "
                "seeds; per-cell [min, max] in data['ranges']"
            )
        if failed:
            # Partial aggregate: failed shards are dropped from the
            # cells, never silently absorbed — the summary is flagged
            # truncated and each miss is itemized below.
            summary.note(
                f"TRUNCATED: aggregate covers {len(ok)} of {len(group)} "
                "shards; the rest failed"
            )
        for outcome in failed:
            summary.note(
                f"FAILED shard {outcome.shard.describe()} "
                f"({outcome.status}): "
                + (outcome.error.splitlines()[0] if outcome.error else "")
            )
        if merged_data:
            summary.data.update(merged_data)
        summary.data["ranges"] = all_ranges
        summary.data["campaign"] = {
            "seeds": seeds,
            "truncated": bool(failed),
            "shards": [
                {
                    "key": json.loads(o.shard.token()),
                    "status": o.status,
                }
                for o in group
            ],
        }
        summaries[name] = summary
    return summaries


# --------------------------------------------------------------------------
# The campaign driver


def run_campaign(
    names: Optional[Sequence[str]] = None,
    *,
    seeds: int = 1,
    jobs: int = 1,
    base_seed: Optional[int] = 0,
    derive_seeds: bool = True,
    cache: bool = True,
    results_dir: str = "results",
    grids: Optional[Mapping[str, List[Dict[str, Any]]]] = None,
    targets: Optional[Mapping[str, str]] = None,
    accepts_seed: Optional[frozenset] = None,
    progress: Optional[Callable[[str], None]] = None,
    metrics: bool = False,
) -> CampaignResult:
    """Run a campaign and return outcomes + aggregated summaries.

    See the module docstring for semantics. ``targets`` may inject or
    override ``name -> module:function`` entries (used by tests to run
    synthetic raising/crashing experiments through the real machinery).

    With ``metrics=True`` every shard runs inside a
    :class:`repro.metrics.MetricsSession`; per-shard snapshots ride
    through workers and the cache inside ``result.data`` and are merged
    per experiment into ``summary.data["metrics_snapshot"]`` (counters
    sum, histograms add bucket-wise, meta collects the seed variants).
    """
    start = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    if names is None:
        names = sorted(REGISTRY)
    shards = expand_campaign(
        names,
        seeds=seeds,
        base_seed=0 if (base_seed is None and derive_seeds) else base_seed,
        derive_seeds=derive_seeds,
        grids=grids,
        targets=targets,
        accepts_seed=accepts_seed,
    )

    results_path = Path(results_dir)
    outcomes: Dict[int, ShardOutcome] = {}
    to_run: List[int] = []
    digest = repro_source_digest() if cache else ""
    if cache:
        for i, shard in enumerate(shards):
            cached = cache_load(
                cache_path(results_path, cache_key(shard, digest, metrics))
            )
            if cached is not None:
                result, elapsed = cached
                outcomes[i] = ShardOutcome(
                    shard, "ok", result, elapsed=elapsed, from_cache=True
                )
                if progress is not None:
                    progress(f"[cache] {shard.describe()}")
            else:
                to_run.append(i)
    else:
        to_run = list(range(len(shards)))

    fresh = [shards[i] for i in to_run]
    for local, outcome in _run_shards(fresh, jobs, metrics):
        i = to_run[local]
        outcomes[i] = outcome
        if progress is not None:
            progress(
                f"[{len(outcomes)}/{len(shards)}] "
                f"{shards[i].describe()}: {outcome.status}"
            )
        if cache and outcome.result is not None:
            cache_store(
                cache_path(results_path, cache_key(shards[i], digest, metrics)),
                shards[i], outcome.result, outcome.elapsed,
            )

    ordered = [outcomes[i] for i in range(len(shards))]

    # Lift snapshots out of shard data *after* cache_store (cached
    # entries keep theirs) and *before* aggregate (so table aggregation
    # never sees — or deep-merges — the raw payloads), merging them per
    # experiment across params and seeds.
    merged_snapshots: "OrderedDict[str, Any]" = OrderedDict()
    if metrics:
        from repro.metrics import Snapshot

        for outcome in ordered:
            if not outcome.ok or outcome.result is None:
                continue
            payload = outcome.result.data.pop("metrics_snapshot", None)
            if payload is None:
                continue
            snap = Snapshot.from_payload(payload)
            seen = merged_snapshots.get(outcome.shard.experiment)
            if seen is None:
                merged_snapshots[outcome.shard.experiment] = snap
            else:
                seen.merge(snap)

    summaries = aggregate(ordered, seeds)
    for name, snap in merged_snapshots.items():
        if name in summaries:
            summaries[name].data["metrics_snapshot"] = snap.to_payload()
    wall = time.perf_counter() - start  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    stats = {
        "shards": len(ordered),
        "ok": sum(1 for o in ordered if o.ok),
        "failed": sum(1 for o in ordered if not o.ok),
        "cached": sum(1 for o in ordered if o.from_cache),
        "jobs": jobs,
        "seeds": seeds,
    }
    return CampaignResult(ordered, summaries, seeds, wall_s=wall, stats=stats)


def write_manifest(campaign: CampaignResult, path: Path) -> None:
    """Machine-readable campaign manifest: per-shard status, cache hits
    and timings."""
    payload = {
        "schema": "campaign-manifest/2",
        "stats": dict(campaign.stats, wall_s=round(campaign.wall_s, 3)),
        "shards": [
            {
                "key": json.loads(o.shard.token()),
                "status": o.status,
                "from_cache": o.from_cache,
                "elapsed_s": round(o.elapsed, 4),
                "error": o.error.splitlines()[0] if o.error else "",
            }
            for o in campaign.outcomes
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))

