"""Tests for the Fig. 10 sweep harness (scaled far down for CI speed)."""

import pytest

from repro.experiments import run_diurnal_sweep


@pytest.fixture(scope="module")
def sweep():
    return run_diurnal_sweep(replica_counts=(3, 6), scale=0.2, duration_s=50.0, seed=5)


def test_sweep_covers_both_systems_and_all_counts(sweep):
    assert sweep.replica_counts() == [3, 6]
    for count in (3, 6):
        assert sweep.skywalker[count].num_completed > 0
        assert sweep.region_local[count].num_completed > 0


def test_throughput_series_structure(sweep):
    series = sweep.throughput_series()
    assert set(series) == {"skywalker", "region-local"}
    assert set(series["skywalker"]) == {3, 6}
    assert all(value > 0 for value in series["skywalker"].values())


def test_more_replicas_give_more_throughput(sweep):
    assert (
        sweep.region_local[6].throughput_tokens_per_s
        > sweep.region_local[3].throughput_tokens_per_s
    )
    assert (
        sweep.skywalker[6].throughput_tokens_per_s
        > sweep.skywalker[3].throughput_tokens_per_s
    )


def test_per_region_tail_latency_is_recorded(sweep):
    for runs in (sweep.skywalker, sweep.region_local):
        for metrics in runs.values():
            assert "us_ttft_p90" in metrics.extra
            assert metrics.extra["us_ttft_p90"] > 0


def test_region_local_never_offloads_but_skywalker_may(sweep):
    for metrics in sweep.region_local.values():
        assert metrics.forwarded_fraction == 0.0
    assert all(m.forwarded_fraction >= 0.0 for m in sweep.skywalker.values())


def test_slo_helpers_are_consistent(sweep):
    # A very loose SLO is met by the smallest fleet of both systems; an
    # impossible SLO is met by neither.
    loose_sky = sweep.replicas_meeting_slo("skywalker", 1e6)
    loose_local = sweep.replicas_meeting_slo("region-local", 1e6)
    assert loose_sky == loose_local == 3
    assert sweep.replicas_meeting_slo("skywalker", 1e-6) is None
    assert sweep.slo_cost_reduction(1e6) == pytest.approx(0.0)


@pytest.mark.parametrize("name", ["sky-walker", "region_local", "Skywalker"])
@pytest.mark.parametrize(
    "method",
    [
        lambda sweep, name: sweep.aggregate(name, 3),
        lambda sweep, name: sweep.replicas_meeting_slo(name, 1e6),
    ],
    ids=["aggregate", "replicas_meeting_slo"],
)
def test_mistyped_system_name_is_rejected_not_answered_for_region_local(sweep, method, name):
    with pytest.raises(ValueError, match=f"unknown system {name!r}"):
        method(sweep, name)


def test_uneven_replica_counts_are_rejected():
    with pytest.raises(ValueError):
        run_diurnal_sweep(replica_counts=(4,), scale=0.05, duration_s=10.0)
