"""Deterministic perf gate: engine events by kind for two 30 sim-s cells.

Event counts are a pure function of the seed, so they are pinned exactly --
a change that adds events per request (or shifts them between kinds) has to
update these pins on purpose.  The cells mirror two benchmark workloads at a
shorter horizon: ``tot-prefix`` (closed-loop Tree-of-Thoughts, Fig. 8) and
``diurnal-offload`` (open-loop diurnal replay at UTC hour 0).
"""

from repro.cluster import Deployment, Frontend, ReplicaSpec, RequestTracker, TraceReplayClient
from repro.experiments import REGISTRY, ClusterConfig, ExperimentConfig, run_experiment
from repro.experiments.runner import build_system
from repro.experiments.workloads import build_tot_workload
from repro.network import Network, default_topology
from repro.perf.anatomy import count_events
from repro.replica import LLAMA_8B_L4
from repro.sim import Environment
from repro.workloads.diurnal import COUNTRY_PROFILES
from repro.workloads.streams import DiurnalRequestStream

HORIZON_S = 30.0


def _tot_prefix_cell():
    spec = build_tot_workload(scale=1.0, seed=0)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=spec.hash_key),
        cluster=ClusterConfig(),
        duration_s=HORIZON_S,
        seed=0,
    )
    with count_events() as counts:
        result = run_experiment(config, spec)
    return counts, result.metrics.num_issued


def _diurnal_offload_cell():
    regions = {
        "us": COUNTRY_PROFILES["united-states"],
        "eu": COUNTRY_PROFILES["united-kingdom"],
        "asia": COUNTRY_PROFILES["china"],
    }
    env = Environment()
    topology = default_topology()
    network = Network(env, topology, jitter_fraction=0.05, seed=0)
    deployment = Deployment(
        env,
        [ReplicaSpec(region=region, count=2, profile=LLAMA_8B_L4) for region in regions],
        topology=topology,
        network=network,
    )
    tracker = RequestTracker(env)
    for replica in deployment.replicas:
        replica.add_completion_listener(tracker.complete)
    frontend = Frontend(env, network)
    build_system(
        REGISTRY.spec("skywalker"),
        env,
        network,
        deployment,
        frontend,
        client_regions=list(regions),
        hash_key="user",
    )
    clients = [
        TraceReplayClient(
            env,
            name=f"{region}/replay",
            region=region,
            frontend=frontend,
            tracker=tracker,
            timed_requests=DiurnalRequestStream(
                pattern=pattern, region=region, hours=1, seed=0, rate_scale=2.0
            ),
        )
        for region, pattern in regions.items()
    ]
    with count_events() as counts:
        env.run(until=HORIZON_S)
    return counts, sum(client.issued_requests for client in clients)


#: 10,576 events for 940 issued requests (11.3 per request; 14,556 with one
#: probe process per monitor and an event per inbox put, 26,360 with
#: per-token decode stepping and process-based probes and deliveries).
TOT_PREFIX_EVENTS = {
    "AllOf:ClosedLoopClient._run": 210,
    "Event:ConditionEvent._check": 645,
    "Event:Network._after.<locals>.start": 1880,
    "Event:ProbeClock._cycle": 300,
    "Event:ReplicaServer._run": 855,
    "Event:no-op": 242,
    "StoreGet:ReplicaServer._run": 12,
    "StoreGet:SkyWalkerBalancer._serve": 940,
    "Timeout:AvailabilityMonitor._probe_peer.<locals>.<lambda>": 1793,
    "Timeout:AvailabilityMonitor._record_replica_probes": 900,
    "Timeout:ClosedLoopClient._run": 210,
    "Timeout:Network.deliver.<locals>.<lambda>": 1880,
    "Timeout:ProbeClock._probe_peers": 300,
    "Timeout:ReplicaServer._run": 314,
    "_Initialize:ClosedLoopClient._run": 80,
    "_Initialize:ReplicaServer._run": 12,
    "_Initialize:SkyWalkerBalancer._serve": 3,
}

#: 4,811 events for 162 issued requests (29.7 per request; 7,235 with one
#: probe process per monitor and an event per inbox put, 15,344 before
#: decode spans).
DIURNAL_OFFLOAD_EVENTS = {
    "Event:Network._after.<locals>.start": 324,
    "Event:ProbeClock._cycle": 300,
    "Event:ReplicaServer._run": 195,
    "Event:no-op": 184,
    "StoreGet:ReplicaServer._run": 5,
    "StoreGet:SkyWalkerBalancer._serve": 162,
    "Timeout:AvailabilityMonitor._probe_peer.<locals>.<lambda>": 1794,
    "Timeout:AvailabilityMonitor._record_replica_probes": 900,
    "Timeout:Network.deliver.<locals>.<lambda>": 324,
    "Timeout:ProbeClock._probe_peers": 300,
    "Timeout:ReplicaServer._run": 149,
    "Timeout:TraceReplayClient._run": 162,
    "_Initialize:ReplicaServer._run": 6,
    "_Initialize:SkyWalkerBalancer._serve": 3,
    "_Initialize:TraceReplayClient._run": 3,
}


def test_tot_prefix_event_counts_are_pinned():
    counts, issued = _tot_prefix_cell()
    assert dict(counts) == TOT_PREFIX_EVENTS
    assert issued == 940


def test_diurnal_offload_event_counts_are_pinned():
    counts, issued = _diurnal_offload_cell()
    assert dict(counts) == DIURNAL_OFFLOAD_EVENTS
    assert issued == 162
