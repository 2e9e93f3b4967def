"""Sweep-result renderers behind ``SweepResult.plot_*``.

Everything here is stdlib-only: text tables and ASCII bar charts for
terminals/logs, CSV for spreadsheets and external plotting.  Matplotlib is
strictly optional -- :func:`render_figure` imports it lazily and raises a
clear error when it is absent, so the simulator keeps its
no-third-party-dependencies property.

Metrics are addressed by dotted attribute path into
:class:`~repro.metrics.RunMetrics` -- ``"throughput_tokens_per_s"``,
``"ttft.p90"``, ``"e2e_latency.p50"``, ``"cache_hit_rate"`` -- so every
recorded number is plottable without a renderer edit.
"""

from __future__ import annotations

import io
from typing import List, Optional, Sequence

__all__ = [
    "metric_value",
    "render_table",
    "render_bars",
    "render_csv",
    "render_figure",
]

#: Default CSV column set (a useful superset of what the figure drivers log).
DEFAULT_CSV_METRICS = (
    "throughput_tokens_per_s",
    "output_tokens_per_s",
    "requests_per_s",
    "num_completed",
    "ttft.p50",
    "ttft.p90",
    "e2e_latency.p50",
    "e2e_latency.p90",
    "cache_hit_rate",
    "cross_region_fraction",
    "replica_load_imbalance",
)


def metric_value(run, metric: str) -> float:
    """Resolve a dotted metric path against a :class:`RunMetrics` record."""
    obj = run
    for part in metric.split("."):
        obj = getattr(obj, part)
        if obj is None:
            raise ValueError(
                f"metric {metric!r} is not recorded on this run (hit None at {part!r})"
            )
    return float(obj)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def render_table(result, metric: str = "throughput_tokens_per_s") -> str:
    """Workload x system text grid of one metric."""
    workloads = result.workloads()
    systems: List[str] = []
    for workload in workloads:
        for system in result.systems(workload):
            if system not in systems:
                systems.append(system)
    rows = [["workload \\ " + metric] + systems]
    for workload in workloads:
        row = [workload]
        for system in systems:
            try:
                row.append(_fmt(metric_value(result.get(workload, system), metric)))
            except (KeyError, ValueError, AttributeError):
                row.append("-")
        rows.append(row)
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_bars(
    result,
    metric: str = "throughput_tokens_per_s",
    *,
    workload: Optional[str] = None,
    width: int = 40,
) -> str:
    """ASCII horizontal bar chart of one metric, one bar per system.

    ``workload=None`` renders every workload as its own block.  Bars are
    scaled to the largest value in the block, so relative comparison (the
    thing a terminal chart is for) stays readable at any magnitude.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    workloads = [workload] if workload is not None else result.workloads()
    lines: List[str] = []
    for name in workloads:
        values = []
        for system in result.systems(name):
            try:
                values.append((system, metric_value(result.get(name, system), metric)))
            except (ValueError, AttributeError):
                continue
        if not values:
            continue
        peak = max(value for _, value in values)
        label_width = max(len(system) for system, _ in values)
        lines.append(f"== {name}: {metric} ==")
        for system, value in values:
            bar = "#" * (round(width * value / peak) if peak > 0 else 0)
            lines.append(f"  {system.ljust(label_width)}  {bar} {_fmt(value)}")
    return "\n".join(lines)


def render_csv(result, metrics: Sequence[str] = DEFAULT_CSV_METRICS) -> str:
    """CSV of every (workload, system, seed) run's chosen metrics, one row
    per seed.  Uses the stdlib :mod:`csv` writer, so the output round-trips
    through any spreadsheet.
    """
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["workload", "system", "seed"] + list(metrics))

    def row_for(workload: str, system: str, seed: int, run) -> List[object]:
        cells: List[object] = [workload, system, seed]
        for metric in metrics:
            try:
                cells.append(metric_value(run, metric))
            except (ValueError, AttributeError):
                cells.append("")
        return cells

    for workload in result.workloads():
        for system in result.systems(workload):
            for seed, run in result.runs_for(workload, system).items():
                writer.writerow(row_for(workload, system, seed, run))
    return buffer.getvalue()


def render_figure(
    result,
    metric: str = "throughput_tokens_per_s",
    *,
    path: Optional[str] = None,
):
    """Grouped bar chart via matplotlib (optional dependency).

    Returns the figure object; ``path`` additionally saves it.  Raises
    :class:`RuntimeError` when matplotlib is not installed -- the text/CSV
    renderers above are the dependency-free alternatives.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError(
            "matplotlib is not installed; use plot_table()/plot_bars()/plot_csv() "
            "for the dependency-free renderers"
        ) from exc

    workloads = result.workloads()
    systems: List[str] = []
    for workload in workloads:
        for system in result.systems(workload):
            if system not in systems:
                systems.append(system)

    fig, ax = plt.subplots(figsize=(1.5 + 1.2 * len(workloads) * len(systems) / 4, 4))
    group_width = 0.8
    bar_width = group_width / max(1, len(systems))
    for offset, system in enumerate(systems):
        xs, ys = [], []
        for index, workload in enumerate(workloads):
            try:
                ys.append(metric_value(result.get(workload, system), metric))
            except (KeyError, ValueError, AttributeError):
                continue
            xs.append(index - group_width / 2 + (offset + 0.5) * bar_width)
        ax.bar(xs, ys, width=bar_width, label=system)
    ax.set_xticks(range(len(workloads)))
    ax.set_xticklabels(workloads)
    ax.set_ylabel(metric)
    ax.legend(fontsize="small")
    fig.tight_layout()
    if path is not None:
        fig.savefig(path, dpi=150)
    return fig
