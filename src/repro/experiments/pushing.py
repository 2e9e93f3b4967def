"""Fig. 9 micro-benchmark: blind pushing vs the two selective-pushing variants.

The paper isolates the pushing mechanism by running everything inside a
single region (no cross-region effects): 4 replicas, 30 clients, the
2-branch Tree-of-Thoughts workload, with a prefix-aware router whose pushing
policy is swapped between BP, SP-O and SP-P.

The variants are one sweep (same workload, one system spec per registered
pushing-policy name), so they run through the
:class:`~repro.experiments.sweep.SweepExecutor` and parallelise across
processes like every other sweep.  The result is the executor's
:class:`~repro.experiments.runner.SweepResult`, with one workload row
(``"tot-single-region"``) keyed by policy.  ``seeds=[...]`` repeats the
ablation with a freshly generated ToT workload per seed; per-seed runs land
in :attr:`SweepResult.seed_runs` and :meth:`SweepResult.aggregate` gives
each policy's mean/95%-CI statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..faults import FaultsLike
from ..metrics import RunMetrics
from ..workloads import TreeOfThoughtsConfig, TreeOfThoughtsWorkload
from .config import ClusterConfig, WorkloadSpec
from .runner import SweepResult
from .sweep import (
    SweepExecutor,
    SweepTask,
    check_unique_system_names,
    normalise_seeds,
    ratio_over_run,
)
from .systems import SkyWalkerConfig

__all__ = [
    "run_pushing_benchmark",
    "build_single_region_tot_workload",
    "throughput_gain",
    "p90_ttft_reduction",
]

PUSHING_VARIANTS = ("BP", "SP-O", "SP-P")


def throughput_gain(
    row: Dict[str, RunMetrics], over: str = "BP", policy: str = "SP-P"
) -> float:
    """Throughput of ``policy`` over ``over`` in one workload row
    (``sweep.runs[workload]``)."""
    return ratio_over_run(
        row[policy].throughput_tokens_per_s,
        row[over].throughput_tokens_per_s,
        run=over,
        quantity="throughput",
    )


def p90_ttft_reduction(
    row: Dict[str, RunMetrics], over: str = "BP", policy: str = "SP-P"
) -> float:
    """p90 TTFT of ``over`` divided by that of ``policy`` in one workload
    row (higher means ``policy`` has the shorter tail)."""
    return ratio_over_run(
        row[over].ttft.p90, row[policy].ttft.p90, run=policy, quantity="p90 TTFT"
    )


def build_single_region_tot_workload(
    *, region: str = "us", clients: int = 30, trees_per_client: int = 2, seed: int = 7
) -> WorkloadSpec:
    """The single-region 2-branch ToT workload used in §5.2."""
    generator = TreeOfThoughtsWorkload(
        TreeOfThoughtsConfig(branching_factor=2, depth=4, seed=seed)
    )
    programs = generator.generate_programs(clients * trees_per_client, region)
    return WorkloadSpec(
        name="tot-single-region",
        programs_by_region={region: programs},
        clients_per_region={region: clients},
        hash_key="session",
    )


def run_pushing_benchmark(
    *,
    policies: Sequence[str] = PUSHING_VARIANTS,
    replicas: int = 4,
    clients: int = 30,
    duration_s: float = 120.0,
    sp_o_threshold: int = 24,
    region: str = "us",
    seed: int = 7,
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
    faults: FaultsLike = None,
) -> SweepResult:
    """Run the BP / SP-O / SP-P comparison in one region.

    ``policies`` may name any registered pushing policy, not just the
    paper's three.  ``seeds=[...]`` repeats the ablation across seeds (a
    fresh ToT workload per seed); ``seeds=[s]`` is bit-identical to
    ``seed=s``.  ``workers`` > 1 runs the (policy, seed) cells in parallel
    worker processes (identical metrics, less wall-clock).  ``faults``
    applies one deterministic fault schedule to every cell.
    """
    systems = [
        SkyWalkerConfig(
            kind="skywalker",
            label=policy,
            pushing=policy,
            sp_o_threshold=sp_o_threshold,
            hash_key="session",
        )
        for policy in policies
    ]
    cluster = ClusterConfig(replicas_per_region={region: replicas})
    check_unique_system_names(systems)
    seed_list = normalise_seeds(seed, seeds)
    tasks: List[SweepTask] = []
    for cell_seed in seed_list:
        workload = build_single_region_tot_workload(
            region=region, clients=clients, seed=cell_seed
        )
        for system in systems:
            tasks.append(
                SweepTask(
                    system=system,
                    workload=workload,
                    cluster=cluster,
                    duration_s=duration_s,
                    seed=cell_seed,
                    faults=faults,
                )
            )
    return SweepExecutor(workers=workers).run_cells(tasks)
