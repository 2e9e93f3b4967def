"""Unit tests for the figure ratio helpers over one sweep workload row.

Regression: a zero baseline (a run that completed nothing) used to yield
``float("inf")``, which silently poisoned downstream report formatting.
Empty runs must instead fail loudly, naming the offending run.  The Fig. 9
helpers (:func:`throughput_gain`, :func:`p90_ttft_reduction`) and the
Fig. 10 ones (:meth:`DiurnalSweepResult.speedup_at`,
:meth:`DiurnalSweepResult.tail_ttft_improvement_at`) share that guard.
"""

import pytest

from repro.experiments import DiurnalSweepResult, p90_ttft_reduction, throughput_gain
from repro.metrics import LatencySummary, RunMetrics


def make_metrics(system: str, *, throughput: float, ttft_p90: float) -> RunMetrics:
    ttft_values = [ttft_p90] if ttft_p90 > 0 else []
    return RunMetrics(
        system=system,
        workload="tot-single-region",
        duration_s=10.0,
        num_completed=1 if throughput > 0 else 0,
        num_issued=1,
        throughput_tokens_per_s=throughput,
        output_tokens_per_s=throughput / 2,
        requests_per_s=0.1,
        ttft=LatencySummary.from_values(ttft_values),
        e2e_latency=LatencySummary.from_values(ttft_values),
        queueing_delay=LatencySummary.from_values([]),
        cache_hit_rate=0.0,
        cross_region_fraction=0.0,
        forwarded_fraction=0.0,
        replica_load_imbalance=1.0,
        seed=7,
    )


def test_gains_computed_for_non_empty_runs():
    row = {
        "BP": make_metrics("BP", throughput=100.0, ttft_p90=2.0),
        "SP-P": make_metrics("SP-P", throughput=150.0, ttft_p90=0.5),
    }
    assert throughput_gain(row, "BP", "SP-P") == pytest.approx(1.5)
    assert p90_ttft_reduction(row, "BP", "SP-P") == pytest.approx(4.0)


def test_zero_throughput_baseline_raises_naming_the_run():
    row = {
        "BP": make_metrics("BP", throughput=0.0, ttft_p90=0.0),
        "SP-P": make_metrics("SP-P", throughput=150.0, ttft_p90=0.5),
    }
    with pytest.raises(ValueError, match="'BP'"):
        throughput_gain(row, "BP", "SP-P")


def test_zero_ttft_target_raises_naming_the_run():
    row = {
        "BP": make_metrics("BP", throughput=100.0, ttft_p90=2.0),
        "SP-P": make_metrics("SP-P", throughput=0.0, ttft_p90=0.0),
    }
    with pytest.raises(ValueError, match="'SP-P'"):
        p90_ttft_reduction(row, "BP", "SP-P")


@pytest.mark.parametrize(
    "method, empty, run",
    [
        (DiurnalSweepResult.speedup_at, "region-local", "'region-local at 9 replicas'"),
        (DiurnalSweepResult.tail_ttft_improvement_at, "skywalker", "'skywalker at 9 replicas'"),
    ],
    ids=["speedup_at", "tail_ttft_improvement_at"],
)
def test_fig10_empty_run_raises_naming_the_run(method, empty, run):
    arms = {
        name: make_metrics(name, throughput=0.0 if name == empty else 100.0,
                           ttft_p90=0.0 if name == empty else 1.0)
        for name in ("skywalker", "region-local")
    }
    result = DiurnalSweepResult(
        skywalker={9: arms["skywalker"]}, region_local={9: arms["region-local"]}
    )
    with pytest.raises(ValueError, match=run):
        method(result, 9)
