"""Route re-convergence determinism: serial == workers=2 == forced spawn.

The network's ``route_changed`` event sequence is part of the
deterministic run payload: a partition -> heal replay (plus explicit
link-down/link-up faults on backbone edges) must produce identical event
tuples whether the cell runs in-process, in a forked worker pool, or in a
forced-``spawn`` pool that re-imports everything from scratch.
"""

import multiprocessing

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    SweepExecutor,
    SweepTask,
    build_tot_workload,
)
from repro.faults import FaultSchedule, LinkDown, LinkUp, RegionPartition
from repro.net import NetConfig, run_route_trace
from repro.replica import TINY_TEST_PROFILE

_NET = NetConfig(topology="backbone", topology_args=(("redundancy", 2),))

_FAULTS = (
    FaultSchedule.single(5.0, RegionPartition(a="us", b="eu", duration_s=10.0))
    .add(8.0, LinkDown(a="wan/north-america/a", b="wan/europe/a", duration_s=6.0))
    .add(20.0, LinkDown(a="wan/asia/a", b="wan/europe/a"))
    .add(24.0, LinkUp(a="wan/asia/a", b="wan/europe/a"))
)


def _task(seed):
    return SweepTask(
        system=REGISTRY.spec("skywalker"),
        workload=build_tot_workload(scale=0.06, seed=2),
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=TINY_TEST_PROFILE,
            network=_NET,
        ),
        duration_s=30.0,
        seed=seed,
        faults=_FAULTS,
    )


def _traces(executor):
    return executor.map(run_route_trace, [_task(1), _task(2)])


def test_route_trace_has_the_expected_shape():
    (trace, _) = _traces(SweepExecutor(workers=1))
    assert trace  # events actually fired
    reasons = [event[1] for event in trace]
    assert set(reasons) == {"partition", "heal", "link-down", "link-up"}
    # Partition fires at t=5, heals at t=15; link faults at 8/14 and 20/24.
    times = {event[1]: event[0] for event in trace}
    assert times["heal"] == 15.0
    # Every event names an ordered (src, dst) region pair and the heal
    # restores a concrete path where the partition left None.
    for time, reason, src, dst, old_path, new_path in trace:
        assert src != dst
        if reason == "partition":
            assert new_path is None
        if reason == "heal":
            assert old_path is None and new_path is not None


def test_reconvergence_trace_identical_serial_fork_and_spawn():
    serial = _traces(SweepExecutor(workers=1))
    forked = _traces(SweepExecutor(workers=2))
    spawned = _traces(
        SweepExecutor(workers=2, mp_context=multiprocessing.get_context("spawn"))
    )
    assert forked == serial
    assert spawned == serial
    # Distinct seeds agree on the route trace too: route changes depend on
    # the fault schedule and topology, not on traffic randomness.
    assert serial[0] == serial[1]
