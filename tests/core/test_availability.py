"""Tests for the availability monitor (Algorithm 1's MONITORAVAILABILITY)."""

import pytest

from repro.core import AvailabilityMonitor, SelectivePushingPending
from repro.network import Network, default_topology
from repro.perf.anatomy import count_events
from repro.replica import TINY_TEST_PROFILE, ReplicaServer

from ..conftest import make_request


class StubPeer:
    """Minimal stand-in for a peer SkyWalkerBalancer."""

    def __init__(self, name, region, available_replicas=1, queue=0, healthy=True):
        self.name = name
        self.region = region
        self.healthy = healthy
        self.num_available_replicas = available_replicas
        self.queue_size = queue


@pytest.fixture
def monitor(env, network):
    return AvailabilityMonitor(env, network, "us", probe_interval_s=0.1)


def test_new_replica_is_optimistically_available(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    assert monitor.available_local_replicas() == [replica]


def test_probes_discover_a_full_replica(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    monitor.start()
    # Saturate the replica: one huge request occupies all memory, a second
    # one becomes pending.
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve

    def feeder(env):
        for _ in range(2):
            request = make_request(prompt_len=big, output_len=500)
            request.sent_time = env.now
            request.lb_arrival_time = env.now
            yield replica.submit(request)

    env.process(feeder(env))
    env.run(until=1.0)
    assert replica.num_pending >= 1
    assert monitor.available_local_replicas() == []


def test_dispatch_notes_bound_per_interval_pushes(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    monitor.start()
    env.run(until=0.25)
    assert monitor.available_local_replicas() == [replica]
    # The staleness guard tolerates a handful of dispatches per interval ...
    for _ in range(monitor.pushing_policy.max_dispatch_per_probe):
        assert monitor.available_local_replicas() == [replica]
        monitor.note_dispatch(replica.name)
    # ... then holds the replica back until the next heartbeat refreshes it.
    assert monitor.available_local_replicas() == []
    env.run(until=0.5)
    assert monitor.available_local_replicas() == [replica]


def test_remove_local_replica(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    monitor.remove_local_replica(replica.name)
    assert monitor.available_local_replicas() == []
    assert monitor.local_replicas() == []


def test_remote_balancer_availability_follows_probe_state(env, monitor):
    healthy_peer = StubPeer("lb-eu", "eu", available_replicas=2, queue=0)
    saturated_peer = StubPeer("lb-asia", "asia", available_replicas=0, queue=0)
    backlogged_peer = StubPeer("lb-eu2", "eu", available_replicas=3, queue=50)
    for peer in (healthy_peer, saturated_peer, backlogged_peer):
        monitor.add_remote_balancer(peer)
    monitor.start()
    env.run(until=1.0)
    available = monitor.available_remote_balancers()
    assert healthy_peer in available
    assert saturated_peer not in available
    assert backlogged_peer not in available


def test_attaching_an_already_failed_peer_is_not_available(env, monitor):
    """Regression: the seed probe used to hard-code ``healthy=True``, so a
    peer that was already down when attached (controller failover
    re-wiring) was selected as a forward target until the first real probe
    landed.  The seed must mirror the peer's live state instead."""
    dead_peer = StubPeer("lb-eu", "eu", available_replicas=2, healthy=False)
    monitor.add_remote_balancer(dead_peer)
    # No probe cycle has run yet: the seed alone must already exclude it.
    assert monitor.available_remote_balancers() == []
    probe = monitor.balancer_probes[dead_peer.name]
    assert not probe.healthy


def test_attach_seeds_peer_probe_from_live_state(env, monitor):
    peer = StubPeer("lb-eu", "eu", available_replicas=3, queue=2)
    monitor.add_remote_balancer(peer)
    probe = monitor.balancer_probes[peer.name]
    assert probe.healthy
    assert probe.num_available_replicas == 3
    assert probe.queue_size == 2


def test_attaching_a_peer_with_no_free_replicas_is_not_available(env, monitor):
    saturated = StubPeer("lb-asia", "asia", available_replicas=0)
    monitor.add_remote_balancer(saturated)
    assert monitor.available_remote_balancers() == []


def test_dispatched_since_probe_public_accessor(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    assert monitor.dispatched_since_probe(replica.name) == 0
    monitor.note_dispatch(replica.name)
    monitor.note_dispatch(replica.name)
    assert monitor.dispatched_since_probe(replica.name) == 2
    assert monitor.dispatched_since_probe("never-seen") == 0


def test_unhealthy_peer_is_excluded_after_probe(env, monitor):
    peer = StubPeer("lb-eu", "eu", available_replicas=2)
    monitor.add_remote_balancer(peer)
    monitor.start()
    env.run(until=1.0)
    assert peer in monitor.available_remote_balancers()
    peer.healthy = False
    env.run(until=2.0)
    assert peer not in monitor.available_remote_balancers()


def test_forward_note_respects_remote_queue_buffer(env, monitor):
    peer = StubPeer("lb-eu", "eu", available_replicas=2, queue=0)
    monitor.add_remote_balancer(peer)
    monitor.start()
    env.run(until=1.0)
    for _ in range(monitor.remote_queue_buffer + 1):
        monitor.note_forward(peer.name)
    assert peer not in monitor.available_remote_balancers()
    env.run(until=2.0)  # the next probe resets the counter
    assert peer in monitor.available_remote_balancers()


def test_wait_for_change_triggers_on_each_probe_cycle(env, monitor, make_tiny_replica):
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.start()
    wakeups = []

    def waiter(env):
        for _ in range(3):
            yield monitor.wait_for_change()
            wakeups.append(env.now)

    env.process(waiter(env))
    env.run(until=1.0)
    assert len(wakeups) == 3
    # Changes arrive roughly once per probe interval (100 ms).
    assert wakeups[-1] <= 0.5


def test_probe_counters_reflect_probe_traffic(env, network, make_tiny_replica):
    monitor = AvailabilityMonitor(env, network, "us", probe_interval_s=0.05)
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.add_remote_balancer(StubPeer("lb-eu", "eu"))
    monitor.start()
    env.run(until=1.0)
    assert network.probe_count >= 20  # ~2 probes per 50 ms cycle


def test_probe_loop_schedules_no_no_op_events(env, monitor, make_tiny_replica):
    """Nobody waits on the change event and nobody joins the peer probes,
    so a probe cycle is its local timeout, its sleep and the peer probe's
    start and reply -- nothing else."""
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.add_remote_balancer(StubPeer("lb-eu", "eu"))
    monitor.start()
    with count_events() as counts:
        env.run(until=1.0)
    assert not [kind for kind in counts if kind.endswith(":no-op")]
    assert monitor.balancer_probes["lb-eu"].probe_time > 0.9
