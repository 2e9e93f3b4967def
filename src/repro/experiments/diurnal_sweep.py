"""Fig. 10: SkyWalker vs region-local deployment under regionally skewed load.

The paper emulates US working hours: 120 clients in the US versus 40 each in
Europe and Asia, and sweeps the total replica count (evenly split across the
three regions).  SkyWalker's cross-region offloading lets the US spill its
excess load into the underused regions, so it reaches a given throughput
with fewer replicas -- the paper's 9-replica SkyWalker matches the
12-replica region-local deployment, a 25 % cost reduction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.cost import CostModel
from ..faults import FaultsLike
from ..metrics import AggregateMetrics, LatencySummary, RunMetrics, aggregate_cell
from ..workloads import ARENA_LIKE, ConversationConfig, ConversationWorkload
from .config import ClusterConfig, ExperimentConfig, WorkloadSpec
from .registry import REGISTRY
from .runner import run_experiment
from .sweep import SweepExecutor, normalise_seeds, ratio_over_run

__all__ = ["DiurnalSweepResult", "build_skewed_workload", "run_diurnal_sweep"]

_REGIONS = ("us", "eu", "asia")


@dataclass
class DiurnalSweepResult:
    """Throughput per system per total replica count.

    :attr:`skywalker` / :attr:`region_local` hold the base-seed run per
    replica count (bit-identical to the historical single-seed output);
    multi-seed sweeps also fill the ``*_seed_runs`` maps, which feed
    :meth:`aggregate`.
    """

    skywalker: Dict[int, RunMetrics] = field(default_factory=dict)
    region_local: Dict[int, RunMetrics] = field(default_factory=dict)
    #: Per-seed runs: ``skywalker_seed_runs[total_replicas][seed]``.
    skywalker_seed_runs: Dict[int, Dict[int, RunMetrics]] = field(default_factory=dict)
    region_local_seed_runs: Dict[int, Dict[int, RunMetrics]] = field(default_factory=dict)

    def replica_counts(self) -> List[int]:
        return sorted(set(self.skywalker) | set(self.region_local))

    def _arm(self, system: str):
        """``(base runs, per-seed runs)`` of one arm of the comparison;
        ``system`` must be ``"skywalker"`` or ``"region-local"``."""
        if system == "skywalker":
            return self.skywalker, self.skywalker_seed_runs
        if system == "region-local":
            return self.region_local, self.region_local_seed_runs
        raise ValueError(f"unknown system {system!r}; expected 'skywalker' or 'region-local'")

    def aggregate(self, system: str, replicas: int) -> AggregateMetrics:
        """Mean/stdev/95% CI for one (system, replica count) across seeds."""
        base, seed_runs = self._arm(system)
        return aggregate_cell(seed_runs.get(replicas), base[replicas])

    def throughput_series(self) -> Dict[str, Dict[int, float]]:
        return {
            "skywalker": {
                n: metrics.throughput_tokens_per_s for n, metrics in self.skywalker.items()
            },
            "region-local": {
                n: metrics.throughput_tokens_per_s for n, metrics in self.region_local.items()
            },
        }

    def speedup_at(self, replicas: int) -> float:
        """SkyWalker throughput over region-local at equal replica count."""
        return ratio_over_run(
            self.skywalker[replicas].throughput_tokens_per_s,
            self.region_local[replicas].throughput_tokens_per_s,
            run=f"region-local at {replicas} replicas",
            quantity="throughput",
        )

    def tail_ttft_improvement_at(self, replicas: int) -> float:
        """Region-local p90 TTFT over SkyWalker p90 TTFT (higher = better)."""
        return ratio_over_run(
            self.region_local[replicas].ttft.p90,
            self.skywalker[replicas].ttft.p90,
            run=f"skywalker at {replicas} replicas",
            quantity="p90 TTFT",
        )

    def replicas_matching_region_local(self, region_local_replicas: int) -> Optional[int]:
        """Smallest SkyWalker fleet whose throughput matches (or exceeds) the
        region-local deployment with ``region_local_replicas`` replicas."""
        if region_local_replicas not in self.region_local:
            return None
        target = self.region_local[region_local_replicas].throughput_tokens_per_s
        for count in sorted(self.skywalker):
            if self.skywalker[count].throughput_tokens_per_s >= target:
                return count
        return None

    def replicas_meeting_slo(self, system: str, ttft_p90_slo_s: float,
                             region: Optional[str] = "us") -> Optional[int]:
        """Smallest fleet whose (optionally per-region) p90 TTFT meets an SLO.

        The overloaded region's tail latency is what forces region-local
        deployments to over-provision; SkyWalker meets the same SLO with
        fewer replicas by spilling that region's excess load elsewhere.
        """
        runs, _ = self._arm(system)
        for count in sorted(runs):
            metrics = runs[count]
            key = f"{region}_ttft_p90"
            value = metrics.extra.get(key, metrics.ttft.p90) if region else metrics.ttft.p90
            if value <= ttft_p90_slo_s:
                return count
        return None

    def cost_reduction(self, region_local_replicas: int) -> Optional[float]:
        """Fractional cost saved at equal throughput (the paper reports 25 %)."""
        match = self.replicas_matching_region_local(region_local_replicas)
        if match is None:
            return None
        model = CostModel(requests_per_replica_hour=1.0)
        return model.cost_reduction_at_equal_throughput(match, region_local_replicas)

    def slo_cost_reduction(self, ttft_p90_slo_s: float, region: str = "us") -> Optional[float]:
        """Fractional replica (and thus reserved-cost) saving at equal SLO."""
        sky = self.replicas_meeting_slo("skywalker", ttft_p90_slo_s, region)
        local = self.replicas_meeting_slo("region-local", ttft_p90_slo_s, region)
        if sky is None or local is None or local == 0:
            return None
        return 1.0 - sky / local


def build_skewed_workload(scale: float = 1.0, *, seed: int = 5,
                          conversations_per_client: int = 3) -> WorkloadSpec:
    """US-peak-hours workload: 120 US clients, 40 each in Europe and Asia.

    Conversations follow the ChatBot-Arena length profile (shorter prompts
    than WildChat) so that the US region's overload is dominated by demand
    rather than by individual giant prompts.
    """
    clients = {
        "us": max(1, int(round(120 * scale))),
        "eu": max(1, int(round(40 * scale))),
        "asia": max(1, int(round(40 * scale))),
    }
    programs_by_region = {}
    for region, count in clients.items():
        config = ConversationConfig(
            regions=(region,),
            users_per_region=count,
            conversations_per_user=conversations_per_client,
            turns_range=(2, 4),
            lengths=ARENA_LIKE,
            # crc32, not hash(): built-in str hashing is salted per process
            # (PYTHONHASHSEED), which would make "same seed, same workload"
            # false across invocations.
            seed=seed + zlib.crc32(region.encode("utf-8")) % 997,
        )
        programs_by_region[region] = ConversationWorkload(config).generate_programs()
    return WorkloadSpec(
        name="regionally-skewed",
        programs_by_region=programs_by_region,
        clients_per_region=clients,
        hash_key="user",
    )


@dataclass(frozen=True)
class _DiurnalCell:
    """One (system kind, total replica count) cell of the Fig. 10 sweep."""

    kind: str
    total_replicas: int
    workload: WorkloadSpec
    duration_s: float
    seed: int
    faults: FaultsLike = None


def _run_diurnal_cell(cell: _DiurnalCell) -> RunMetrics:
    """Run one Fig. 10 cell, annotating per-region tail latency.

    Module-level so :meth:`SweepExecutor.map` can ship it to a worker
    process; the per-region percentiles have to be computed here because
    only the worker sees the completed request objects.
    """
    per_region = cell.total_replicas // len(_REGIONS)
    cluster = ClusterConfig(
        replicas_per_region={region: per_region for region in _REGIONS}
    )
    config = ExperimentConfig(
        system=REGISTRY.spec(cell.kind, hash_key="user"),
        cluster=cluster,
        duration_s=cell.duration_s,
        seed=cell.seed,
        faults=cell.faults,
    )
    outcome = run_experiment(config, cell.workload.fresh_copy())
    metrics = outcome.metrics
    metrics.seed = cell.seed
    # Per-region tail latency: the overloaded (US) region is the one
    # a region-local deployment must over-provision for.
    for region in _REGIONS:
        ttfts = [r.ttft for r in outcome.completed if r.region == region and r.ttft is not None]
        if ttfts:
            summary = LatencySummary.from_values(ttfts)
            metrics.extra[f"{region}_ttft_p90"] = summary.p90
            metrics.extra[f"{region}_ttft_p50"] = summary.p50
    return metrics


def run_diurnal_sweep(
    *,
    replica_counts: Sequence[int] = (3, 6, 9, 12, 15, 18),
    scale: float = 0.2,
    duration_s: float = 120.0,
    seed: int = 5,
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
    faults: FaultsLike = None,
) -> DiurnalSweepResult:
    """Sweep total replica counts for SkyWalker and the region-local baseline.

    ``seeds=[...]`` repeats the whole sweep with a freshly built skewed
    workload per seed (``seeds=[s]`` is bit-identical to ``seed=s``); the
    per-seed runs feed :meth:`DiurnalSweepResult.aggregate`.  ``workers`` >
    1 distributes the (kind, replica count, seed) cells over that many
    worker processes; results are identical to the serial sweep for the
    same seeds.  ``faults`` applies one deterministic fault schedule to
    every cell (e.g. to ask how many replicas each design needs when a
    balancer dies mid-peak).
    """
    for total in replica_counts:
        if total % len(_REGIONS) != 0:
            raise ValueError("replica counts must be divisible by the number of regions")
    seed_list = normalise_seeds(seed, seeds)
    cells = [
        _DiurnalCell(
            kind=kind,
            total_replicas=total,
            workload=workload,
            duration_s=duration_s,
            seed=cell_seed,
            faults=faults,
        )
        for cell_seed in seed_list
        for workload in (build_skewed_workload(scale=scale, seed=cell_seed),)
        for total in replica_counts
        for kind in ("skywalker", "region-local")
    ]
    result = DiurnalSweepResult()
    for cell, metrics in zip(cells, SweepExecutor(workers=workers).map(_run_diurnal_cell, cells)):
        if cell.kind == "skywalker":
            bucket, seed_bucket = result.skywalker, result.skywalker_seed_runs
        else:
            bucket, seed_bucket = result.region_local, result.region_local_seed_runs
        bucket.setdefault(cell.total_replicas, metrics)
        seed_bucket.setdefault(cell.total_replicas, {})[cell.seed] = metrics
    return result
