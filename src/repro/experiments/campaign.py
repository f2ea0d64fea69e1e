"""Parallel campaign runner: experiment fan-out with result caching.

The paper's evaluation is a set of *independent* experiment invocations
(experiment × parameter-override × seed). This module shards such a
campaign across a ``multiprocessing`` pool of worker processes and
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
summary; a shard whose worker process dies is retried a bounded number
of times on a fresh worker; a shard that exceeds the per-shard timeout
has its worker terminated and is marked failed. None of these abort the
other shards.

CLI: ``python -m repro campaign --jobs 4 --seeds 5 --only table1,faults``.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue as queue_module
import signal
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
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

#: Bounded retry for shards whose worker *process* dies (not for
#: in-shard exceptions, which are deterministic and reported directly).
DEFAULT_RETRIES = 1

#: Crash-retry backoff shape: first retry waits ~RETRY_BACKOFF_BASE
#: seconds, doubling per attempt up to RETRY_BACKOFF_CAP.
RETRY_BACKOFF_BASE = 0.25
RETRY_BACKOFF_CAP = 5.0


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
    status: str  # "ok" | "failed" | "timeout"
    result: Optional[ExperimentResult] = None
    error: str = ""
    elapsed: float = 0.0
    attempts: int = 1
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


def retry_backoff(
    shard: Shard,
    attempt: int,
    base: float = RETRY_BACKOFF_BASE,
    cap: float = RETRY_BACKOFF_CAP,
) -> float:
    """Delay (seconds) before re-dispatching a crashed shard.

    Exponential in ``attempt`` (the number of attempts already made,
    >= 1), capped, with +/-25% jitter — but the jitter is *derived*
    from the shard token and attempt number through
    :func:`derive_seed`, not drawn from a live RNG: retry timing, like
    everything else in a campaign, is a pure function of its inputs.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    expo = min(cap, base * (2 ** (attempt - 1)))
    unit = (derive_seed("retry-backoff", shard.token(), attempt) % 1024) / 1024.0
    return expo * (0.75 + 0.5 * unit)


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
# Shard execution: inline (jobs=1) and worker pool (jobs>1)


class _ShardTimeout(Exception):
    pass


def _execute(
    target: str, kwargs: Dict[str, Any], metrics: bool = False
) -> ExperimentResult:
    func = resolve_target(target)
    if metrics:
        # Ambient session: every Link the shard constructs
        # self-registers a hub. The snapshot rides inside result.data so
        # it crosses the worker queue and the cache with the result.
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


def _run_inline(
    shard: Shard, timeout: Optional[float], metrics: bool = False
) -> ShardOutcome:
    """Run a shard in-process (jobs=1), enforcing the timeout via
    ``SIGALRM`` where the platform supports it."""
    use_alarm = (
        timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    start = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    old_handler = None
    try:
        if use_alarm:
            def _on_alarm(signum, frame):
                raise _ShardTimeout()

            old_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        result = _execute(shard.target, shard.kwargs, metrics)
        return ShardOutcome(shard, "ok", result,
                            elapsed=time.perf_counter() - start)  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    except _ShardTimeout:
        return ShardOutcome(
            shard, "timeout",
            error=f"shard exceeded --timeout {timeout}s",
            elapsed=time.perf_counter() - start,  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        )
    except Exception as exc:  # noqa: BLE001 - reported per shard
        return ShardOutcome(
            shard, "failed",
            error=f"{exc!r}\n{traceback.format_exc(limit=20)}",
            elapsed=time.perf_counter() - start,  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


def _worker_main(task_queue, result_queue):  # pragma: no cover - child process
    """Worker loop: run tasks until the ``None`` sentinel arrives.

    In-shard exceptions are reported as results, never kill the worker;
    only a hard process death (crash/exit) is handled by the parent.
    """
    while True:
        task = task_queue.get()
        if task is None:
            return
        index, target, kwargs, metrics = task
        start = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        try:
            result = _execute(target, kwargs, metrics)
            result_queue.put(
                (index, "ok", result.to_payload(), time.perf_counter() - start)  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
            )
        except Exception as exc:  # noqa: BLE001 - reported per shard
            result_queue.put(
                (
                    index,
                    "failed",
                    f"{exc!r}\n{traceback.format_exc(limit=20)}",
                    time.perf_counter() - start,  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
                )
            )


class _PoolWorker:
    __slots__ = ("proc", "queue", "task", "started")

    def __init__(self, proc, task_queue):
        self.proc = proc
        self.queue = task_queue
        self.task: Optional[int] = None
        self.started: float = 0.0


def _run_pool(
    shards: List[Shard],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    progress: Optional[Callable[[str], None]] = None,
    metrics: bool = False,
) -> Dict[int, ShardOutcome]:
    """Dispatch shards across ``jobs`` spawned worker processes.

    Each worker has its own task queue (single-slot dispatch) so the
    parent always knows which shard a worker is running — required to
    terminate exactly the right process on a per-shard timeout.
    """
    import multiprocessing

    # fork where available: no re-execution of the parent __main__ and
    # ~10x cheaper worker startup. Shard results are a pure function of
    # the derived seed, so the start method cannot affect outputs.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    result_queue = ctx.Queue()

    def spawn_worker() -> _PoolWorker:
        task_queue = ctx.Queue()
        proc = ctx.Process(
            target=_worker_main, args=(task_queue, result_queue), daemon=True
        )
        proc.start()
        return _PoolWorker(proc, task_queue)

    pending = deque(range(len(shards)))
    attempts = [0] * len(shards)
    # Crash retries are not re-dispatched immediately: retry_backoff()
    # gates each one, so a poisoned shard (or a transiently sick
    # machine) cannot hot-loop worker respawns.
    not_before: Dict[int, float] = {}
    outcomes: Dict[int, ShardOutcome] = {}
    workers = [spawn_worker() for _ in range(min(jobs, len(shards)))]

    def record(index: int, status: str, payload, elapsed: float) -> None:
        shard = shards[index]
        if status == "ok":
            result = ExperimentResult.from_payload(payload)
            outcomes[index] = ShardOutcome(
                shard, "ok", result, elapsed=elapsed, attempts=attempts[index]
            )
        else:
            outcomes[index] = ShardOutcome(
                shard, status, error=str(payload), elapsed=elapsed,
                attempts=attempts[index],
            )
        if progress is not None:
            progress(f"[{len(outcomes)}/{len(shards)}] {shard.describe()}: {status}")

    def consume(message) -> int:
        index, status, payload, elapsed = message
        for worker in workers:
            if worker.task == index:
                worker.task = None
                break
        if index not in outcomes:  # ignore stale post-kill results
            record(index, status, payload, elapsed)
        return index

    try:
        while len(outcomes) < len(shards):
            # Dispatch to idle workers (skipping shards still backing
            # off — they rotate to the back of the queue).
            for worker in workers:
                if worker.task is None and pending:
                    index = None
                    for _ in range(len(pending)):
                        candidate = pending.popleft()
                        if candidate in outcomes:
                            continue
                        if time.monotonic() < not_before.get(candidate, 0.0):  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
                            pending.append(candidate)
                            continue
                        index = candidate
                        break
                    if index is None:
                        continue
                    attempts[index] += 1
                    worker.queue.put(
                        (index, shards[index].target, shards[index].kwargs,
                         metrics)
                    )
                    worker.task = index
                    worker.started = time.monotonic()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
            # Collect one result (short timeout so health checks run).
            try:
                consume(result_queue.get(timeout=0.05))
            except queue_module.Empty:
                pass
            # Health checks: timeouts and crashed workers.
            for i, worker in enumerate(workers):
                index = worker.task
                if index is None:
                    continue
                ran_for = time.monotonic() - worker.started  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
                if timeout is not None and ran_for > timeout:
                    worker.proc.terminate()
                    worker.proc.join(5.0)
                    if index not in outcomes:
                        record(
                            index, "timeout",
                            f"shard exceeded --timeout {timeout}s", ran_for,
                        )
                    workers[i] = spawn_worker()
                elif not worker.proc.is_alive():
                    # Crash (worker never reports and exits mid-task).
                    # Drain any result that raced the death first.
                    try:
                        while True:
                            consume(result_queue.get_nowait())
                    except queue_module.Empty:
                        pass
                    if index not in outcomes:
                        if attempts[index] <= retries:
                            not_before[index] = time.monotonic() + retry_backoff(  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
                                shards[index], attempts[index]
                            )
                            pending.appendleft(index)
                        else:
                            record(
                                index, "failed",
                                f"worker process died (exitcode "
                                f"{worker.proc.exitcode}) after "
                                f"{attempts[index]} attempt(s)",
                                ran_for,
                            )
                    workers[i] = spawn_worker()
    finally:
        for worker in workers:
            try:
                worker.queue.put(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
    return outcomes


# --------------------------------------------------------------------------
# Aggregation: per-seed shards -> per-experiment summary tables


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _deep_merge(base: Dict[str, Any], extra: Dict[str, Any]) -> Dict[str, Any]:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
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
            # Partial aggregate: crashed/timed-out shards are dropped
            # from the cells, never silently absorbed — the summary is
            # flagged truncated and each miss is itemized below.
            summary.note(
                f"TRUNCATED: aggregate covers {len(ok)} of {len(group)} "
                "shards; the rest crashed or timed out"
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
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    grids: Optional[Mapping[str, List[Dict[str, Any]]]] = None,
    targets: Optional[Mapping[str, str]] = None,
    accepts_seed: Optional[frozenset] = None,
    progress: Optional[Callable[[str], None]] = None,
    metrics: bool = False,
) -> CampaignResult:
    """Run a campaign and return outcomes + aggregated summaries.

    See the module docstring for semantics. ``targets`` may inject or
    override ``name -> module:function`` entries (used by tests to run
    synthetic crashing/sleeping experiments through the real machinery).

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
                    shard, "ok", result, elapsed=elapsed, attempts=0,
                    from_cache=True,
                )
                if progress is not None:
                    progress(f"[cache] {shard.describe()}")
            else:
                to_run.append(i)
    else:
        to_run = list(range(len(shards)))

    if to_run:
        if jobs <= 1:
            for i in to_run:
                outcomes[i] = _run_inline(shards[i], timeout, metrics)
                if progress is not None:
                    progress(
                        f"[{len(outcomes)}/{len(shards)}] "
                        f"{shards[i].describe()}: {outcomes[i].status}"
                    )
        else:
            fresh = _run_pool(
                [shards[i] for i in to_run], jobs, timeout, retries, progress,
                metrics,
            )
            for local_index, outcome in fresh.items():
                outcomes[to_run[local_index]] = outcome

    if cache:
        for i, outcome in outcomes.items():
            if outcome.ok and not outcome.from_cache:
                assert outcome.result is not None
                cache_store(
                    cache_path(
                        results_path, cache_key(shards[i], digest, metrics)
                    ),
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
        "retried": sum(1 for o in ordered if o.attempts > 1),
        "jobs": jobs,
        "seeds": seeds,
    }
    return CampaignResult(ordered, summaries, seeds, wall_s=wall, stats=stats)


def write_manifest(campaign: CampaignResult, path: Path) -> None:
    """Machine-readable campaign manifest (CI asserts cache hit rates)."""
    payload = {
        "schema": "campaign-manifest/1",
        "stats": dict(campaign.stats, wall_s=round(campaign.wall_s, 3)),
        "shards": [
            {
                "key": json.loads(o.shard.token()),
                "status": o.status,
                "from_cache": o.from_cache,
                "attempts": o.attempts,
                "elapsed_s": round(o.elapsed, 4),
                "error": o.error.splitlines()[0] if o.error else "",
            }
            for o in campaign.outcomes
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# Campaign benchmark (BENCH_campaign.json)


def run_sleep_probe(duration: float = 0.25, tag: int = 0) -> ExperimentResult:
    """Synthetic blocking shard for the fan-out probe: its cost is a
    ``time.sleep``, so wall-clock speedup under ``--jobs N`` measures the
    runner's dispatch/overlap machinery in isolation from the machine's
    core count (CPU-bound shards can only speed up with real cores)."""
    time.sleep(duration)
    result = ExperimentResult(
        experiment=f"fan-out probe #{tag}",
        description="synthetic blocking shard (campaign bench only)",
        headers=["tag", "blocked (s)"],
    )
    result.add_row(tag, duration)
    return result


def run_campaign_bench(
    output: str = "BENCH_campaign.json",
    jobs: int = 4,
    seeds: int = 1,
    names: Optional[Sequence[str]] = None,
    fanout_shards: int = 8,
    fanout_cost: float = 0.5,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, Any]:
    """Measure campaign speedups and write ``BENCH_campaign.json``.

    Three measurements: (1) full suite cold at ``--jobs 1`` vs
    ``--jobs N`` — CPU-bound, so the speedup tracks physical cores;
    (2) a warm-cache re-run of the full suite; (3) the fan-out probe
    (blocking shards), which demonstrates the runner's overlap is
    near-linear independent of core count. Also cross-checks that the
    ``--jobs 1`` and ``--jobs N`` runs produced bit-identical summaries.
    """
    import platform
    import tempfile

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    tmp1 = tempfile.mkdtemp(prefix="campaign_bench_j1_")
    tmp2 = tempfile.mkdtemp(prefix="campaign_bench_jN_")

    say(f"campaign bench: full suite cold, --jobs 1 (seeds={seeds}) ...")
    t0 = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    cold1 = run_campaign(
        names, seeds=seeds, jobs=1, cache=True, results_dir=tmp1,
        timeout=timeout,
    )
    cold1_s = time.perf_counter() - t0  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state

    say("campaign bench: full suite warm-cache re-run ...")
    t0 = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    warm = run_campaign(
        names, seeds=seeds, jobs=1, cache=True, results_dir=tmp1,
        timeout=timeout,
    )
    warm_s = time.perf_counter() - t0  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state

    say(f"campaign bench: full suite cold, --jobs {jobs} ...")
    t0 = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    coldN = run_campaign(
        names, seeds=seeds, jobs=jobs, cache=True, results_dir=tmp2,
        timeout=timeout,
    )
    coldN_s = time.perf_counter() - t0  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state

    deterministic = [s.render() for s in cold1.summaries.values()] == [
        s.render() for s in coldN.summaries.values()
    ]

    say(f"campaign bench: fan-out probe ({fanout_shards} blocking shards) ...")
    probe_grid = {
        "fanout-probe": [
            {"duration": fanout_cost, "tag": i} for i in range(fanout_shards)
        ]
    }
    probe_targets = {
        "fanout-probe": "repro.experiments.campaign:run_sleep_probe"
    }
    t0 = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    run_campaign(
        ["fanout-probe"], jobs=1, cache=False, grids=probe_grid,
        targets=probe_targets,
    )
    fanout1_s = time.perf_counter() - t0  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    t0 = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
    run_campaign(
        ["fanout-probe"], jobs=jobs, cache=False, grids=probe_grid,
        targets=probe_targets,
    )
    fanoutN_s = time.perf_counter() - t0  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state

    payload = {
        "schema": "campaign-bench/1",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "full_suite": {
            "experiments": len(cold1.summaries),
            "shards": cold1.stats["shards"],
            "seeds": seeds,
            "jobs": jobs,
            "jobs1_cold_s": round(cold1_s, 3),
            f"jobs{jobs}_cold_s": round(coldN_s, 3),
            "speedup_jobs_cold": round(cold1_s / coldN_s, 3),
            "warm_s": round(warm_s, 3),
            "speedup_warm_cache": round(cold1_s / warm_s, 3),
            "warm_cached_shards": warm.stats["cached"],
            "deterministic_across_jobs": deterministic,
            "note": (
                "cold shards are CPU-bound: speedup_jobs_cold tracks "
                "physical cores (cpu_count above), while "
                "speedup_warm_cache measures the content-addressed cache"
            ),
        },
        "runner_fanout": {
            "shards": fanout_shards,
            "shard_cost_s": fanout_cost,
            "jobs1_s": round(fanout1_s, 3),
            f"jobs{jobs}_s": round(fanoutN_s, 3),
            "speedup_jobs": round(fanout1_s / fanoutN_s, 3),
            "note": (
                "blocking-cost shards isolate the runner's dispatch "
                "overlap from core count: this is the speedup shape the "
                "runner delivers per available core"
            ),
        },
    }
    Path(output).write_text(json.dumps(payload, indent=2, sort_keys=True))
    say(f"campaign bench written to {output}")
    return payload
