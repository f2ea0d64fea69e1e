"""Full-evaluation report generation.

``generate_report`` runs a selected set (default: all) of the paper's
experiments and writes one self-contained Markdown document with every
table, note and ASCII chart — the programmatic equivalent of running
the benchmark suite and stitching ``results/`` together. Exposed on the
CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.experiments.harness import ExperimentResult

#: Experiments in presentation order (CLI names from repro.cli).
DEFAULT_ORDER = [
    "table1",
    "example1",
    "example2",
    "figure1",
    "figure2a",
    "figure2b",
    "figure3",
    "throughput",
    "delay",
    "ebf",
    "e2e",
    "interop",
    "linkshare",
    "shifting",
    "edd",
    "residual",
    "vbr",
    "fa",
    "stress",
    "faults",
    "robust-figure1",
    "robust-figure2b",
    "complexity",
]


def _to_markdown(result: ExperimentResult) -> str:
    lines: List[str] = [f"## {result.experiment}", "", result.description, ""]
    lines.append("| " + " | ".join(result.headers) + " |")
    lines.append("|" + "|".join("---" for _ in result.headers) + "|")
    for row in result.rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    if result.notes:
        lines.append("")
        for note in result.notes:
            lines.append(f"> {note}")
    charts = result.data.get("charts")
    if charts:
        for chart in charts:
            lines.append("")
            lines.append("```")
            lines.append(chart)
            lines.append("```")
    lines.append("")
    return "\n".join(lines)


def campaign_to_markdown(campaign: "CampaignResult") -> str:  # noqa: F821
    """Render a campaign's aggregated summaries as one Markdown doc.

    Written by ``python -m repro campaign`` to
    ``<results>/campaign_summary.md``. Shard-level provenance (cache
    hits, failures, timings) lives in the manifest next to it; this
    document is the human-readable evaluation: one summary table per
    experiment, mean over seed slots, with failed shards called out.
    """
    stats = campaign.stats
    lines: List[str] = [
        "# Campaign summary",
        "",
        f"{stats['shards']} shards ({stats['ok']} ok, {stats['failed']} "
        f"failed), {stats['cached']} served from cache, "
        f"{stats['seeds']} seed slot(s), --jobs {stats['jobs']}, "
        f"{campaign.wall_s:.2f}s wall.",
        "",
    ]
    for summary in campaign.summaries.values():
        lines.append(_to_markdown(summary))
    failures = campaign.failures
    if failures:
        lines.append("## Failed shards")
        lines.append("")
        for outcome in failures:
            first_line = outcome.error.splitlines()[0] if outcome.error else ""
            lines.append(
                f"- `{outcome.shard.describe()}` — {outcome.status}"
                + (f": {first_line}" if first_line else "")
            )
        lines.append("")
    return "\n".join(lines)


def _bench_section(root: Optional[Path] = None) -> Optional[str]:
    """Render the measured O(log F) vs O(log N) scaling curve from the
    committed ``BENCH_*.json`` (written by ``python -m repro bench``).

    Returns None when the bench artifacts are absent (fresh checkout
    before a bench run) — the report simply omits the section.
    """
    import json

    if root is None:
        root = Path(__file__).resolve().parents[3]
    sched_path = root / "BENCH_schedulers.json"
    engine_path = root / "BENCH_engine.json"
    if not sched_path.exists():
        return None
    sched = json.loads(sched_path.read_text())
    if sched.get("mode") == "smoke":
        return None
    lines: List[str] = [
        "## Scheduling cost: measured O(log F) vs O(log N)",
        "",
        "The paper's §2.5 complexity claim, measured on wall clock: "
        "per-packet cost of the flow-head-heap core (one heap entry per "
        f"backlogged flow, F={sched['flows']} flows fixed) stays flat as "
        "per-flow backlog deepens, while the seed's global packet heap "
        "pays O(log N) in total queued packets on every operation. "
        "Min-of-repeats `perf_counter` timings of a steady-state "
        "dequeue+complete+enqueue cycle; machine-dependent, compare "
        "shapes not nanoseconds. Regenerate with `python -m repro bench`.",
        "",
        "| packets/flow | total packets N | seed ns/pkt (packet heap) | optimized ns/pkt (flow-head heap) |",
        "|---|---|---|---|",
    ]
    for point in sched["sfq_backlog_curve"]:
        lines.append(
            f"| {point['per_flow_backlog']} | {point['total_packets']} "
            f"| {point['seed_ns_per_packet']} "
            f"| {point['optimized_ns_per_packet']} |"
        )
    if engine_path.exists():
        engine = json.loads(engine_path.read_text())
        if engine.get("mode") != "smoke":
            d4096 = engine["dispatch"]["pending=4096"]
            pipe = engine["pipeline"]
            lines += [
                "",
                f"> engine fast loop: {d4096['speedup']}× cheaper dispatch at "
                f"4096 pending events "
                f"({d4096['seed_ns_per_event']} → "
                f"{d4096['optimized_ns_per_event']} ns/event); end-to-end "
                f"SFQ pipeline {pipe['speedup']}× packets/wall-second with "
                "tracing disabled "
                f"({pipe['seed_pkts_per_sec']} → "
                f"{pipe['optimized_pkts_per_sec']} pkts/s)",
            ]
    lines.append("")
    return "\n".join(lines)


def generate_report(
    path: Optional[str] = None,
    experiments: Optional[Iterable[str]] = None,
    seed: Optional[int] = None,
) -> Tuple[str, List[str]]:
    """Run experiments and render the Markdown report.

    Returns ``(markdown, failures)``; the report is also written to
    ``path`` when given. An experiment that raises is recorded in
    ``failures`` and the report continues — a partial report beats no
    report when iterating.
    """
    from repro.cli import run_experiment

    names = list(experiments) if experiments is not None else list(DEFAULT_ORDER)
    sections: List[str] = [
        "# SFQ reproduction — full evaluation report",
        "",
        "Start-time Fair Queuing (Goyal, Vin & Cheng, SIGCOMM 1996): "
        "every table and figure, regenerated.",
        "",
    ]
    failures: List[str] = []
    for name in names:
        start = time.perf_counter()  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        try:
            result = run_experiment(name, seed=seed)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            failures.append(f"{name}: {exc!r}")
            sections.append(f"## {name}\n\n*FAILED: {exc!r}*\n")
            continue
        elapsed = time.perf_counter() - start  # lint: disable=DET002  harness wall-clock bookkeeping, not simulation state
        sections.append(_to_markdown(result))
        sections.append(f"*({elapsed:.2f}s simulated-experiment wall time)*\n")
    bench = _bench_section()
    if bench is not None:
        sections.append(bench)
    markdown = "\n".join(sections)
    if path is not None:
        Path(path).write_text(markdown)
    return markdown, failures
