"""Tests for the network: mesh golden fixture, routing, contention, faults."""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_tot_workload,
    run_experiment,
)
from repro.faults import FaultInjector, FaultSchedule, LinkDegrade, LinkLatencySpike
from repro.net import NetConfig, WanGraph, register_wan_topology
from repro.net.graph import _WAN_TOPOLOGIES
from repro.network import Network, default_topology, wide_topology
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment, Store

REGIONS = ("us", "eu", "asia")

#: Outputs of the former pairwise-matrix network (one private wire per
#: region pair), recorded before it was folded into the routed one: the
#: default mesh must keep reproducing them bit for bit.
GOLDEN = json.loads((Path(__file__).parent / "data" / "mesh_golden.json").read_text())


def _network(seed=0, jitter=0.05, **config_kwargs):
    return Network(
        Environment(),
        default_topology(),
        NetConfig(**config_kwargs),
        jitter_fraction=jitter,
        seed=seed,
    )


# ----------------------------------------------------------------------
# the mesh golden fixture (contention off, the default network)
# ----------------------------------------------------------------------
def test_mesh_sampling_is_bit_identical_to_legacy():
    golden = GOLDEN["sampling"]
    network = _network(seed=golden["seed"], jitter=golden["jitter_fraction"])
    samples = [
        [src, dst, network.sample_one_way(src, dst)]
        for _ in range(golden["rounds"])
        for src in REGIONS
        for dst in REGIONS
    ]
    assert samples == golden["samples"]


def test_mesh_sampling_bit_identical_under_spike_and_degrade():
    golden = GOLDEN["spike_and_degrade"]
    network = _network(seed=golden["seed"], jitter=golden["jitter_fraction"])
    network.add_link_extra_latency("us", "eu", golden["extra_latency_s"])
    network.add_link_degrade(
        "us",
        "eu",
        loss_probability=golden["loss_probability"],
        extra_jitter_fraction=golden["extra_jitter_fraction"],
    )
    # Same floats AND the same fault-RNG stream consumption: jitter and
    # loss draws interleave exactly as recorded, and the fault-free us->asia
    # pair draws nothing from the fault RNG.
    draws = [
        [
            network.sample_one_way("us", "eu"),
            network._message_lost("us", "eu"),
            network.sample_one_way("us", "asia"),
            network._message_lost("us", "asia"),
        ]
        for _ in golden["draws"]
    ]
    assert draws == golden["draws"]
    losses = [draw[1] for draw in draws]
    assert any(losses) and not all(losses)


def test_mesh_delivery_bit_identical_to_legacy():
    golden = GOLDEN["delivery"]
    network = _network(seed=golden["seed"], jitter=golden["jitter_fraction"])
    inbox = Store(network.env)
    arrivals = []

    def consume():
        while True:
            item = yield inbox.get()
            arrivals.append([network.env.now, item])

    network.env.process(consume())
    for index in range(len(golden["arrivals"])):
        network.deliver(index, "us", "eu", inbox, extra_delay=0.01 * index)
    network.env.run(until=10.0)
    assert arrivals == golden["arrivals"]


@pytest.mark.parametrize("make_topology", [default_topology, wide_topology])
def test_mesh_routes_are_single_direct_edges(make_topology):
    # The premise of the golden fixture: with a latency matrix that obeys
    # the triangle inequality, shortest-path routing on the mesh never
    # goes multi-hop, so every pair keeps its own matrix latency.
    topology = make_topology()
    network = Network(Environment(), topology)
    regions = topology.region_names()
    for src in regions:
        for dst in regions:
            if src != dst:
                assert network.route(src, dst) == (src, dst)
    jitterless = Network(Environment(), topology, jitter_fraction=0.0)
    for src in regions:
        for dst in regions:
            assert jitterless.sample_one_way(src, dst) == topology.one_way(src, dst)


def test_contention_off_is_default():
    network = Network(Environment(), default_topology())
    assert not network.contention_enabled
    assert network.graph.has_edge("us", "eu")
    assert ClusterConfig().network == NetConfig()


# ----------------------------------------------------------------------
# multi-hop fault composition (spike + degrade on one path)
# ----------------------------------------------------------------------
def test_spike_and_degrade_compose_additively_per_edge_and_revert_either_order():
    # jitter off so samples are exact sums.
    base = _network(jitter=0.0, topology="backbone")
    path = base.route("us", "eu")
    assert path == ("us", "wan/north-america", "wan/europe", "eu")
    pristine = base.sample_one_way("us", "eu")
    assert pristine == pytest.approx(0.075)

    for revert_order in ("spike-first", "degrade-first"):
        network = _network(jitter=0.0, topology="backbone")
        # A latency spike on the access edge and a (jitter-only) degrade on
        # the backbone edge: different edges, same us->eu path.
        network.add_link_extra_latency("us", "wan/north-america", 0.010)
        network.add_link_degrade(
            "wan/north-america", "wan/europe",
            loss_probability=0.0, extra_jitter_fraction=0.5,
        )
        sample = network.sample_one_way("us", "eu")
        # Spike applies on its edge; degrade jitter inflates its own edge by
        # at most 50% of that edge's (spiked) latency.
        backbone_leg = network.graph.latency("wan/north-america", "wan/europe")
        assert sample >= pristine + 0.010
        assert sample <= pristine + 0.010 + 0.5 * backbone_leg + 1e-12

        # A second spike on the same access edge stacks additively.
        network.add_link_extra_latency("us", "wan/north-america", 0.007)
        network._link_extra_jitter.clear()  # isolate the additive check
        assert network.sample_one_way("us", "eu") == pytest.approx(pristine + 0.017)
        network.remove_link_extra_latency("us", "wan/north-america", 0.007)

        reverts = [
            lambda n: n.remove_link_extra_latency("us", "wan/north-america", 0.010),
            lambda n: n.remove_link_degrade(
                "wan/north-america", "wan/europe",
                loss_probability=0.0, extra_jitter_fraction=0.5,
            ),
        ]
        if revert_order == "degrade-first":
            reverts.reverse()
        for revert in reverts:
            revert(network)
        # Clean revert: every surcharge table empty, samples pristine.
        assert network.sample_one_way("us", "eu") == pristine
        assert not network._extra_latency
        assert not network._link_extra_jitter
        assert not network._link_loss


def test_multi_hop_loss_draws_per_lossy_edge():
    network = _network(jitter=0.0, topology="backbone", seed=11)
    network.add_link_degrade(
        "wan/north-america", "wan/europe", loss_probability=0.5,
        extra_jitter_fraction=0.0,
    )
    losses = [network._message_lost("us", "eu") for _ in range(200)]
    assert 40 < sum(losses) < 160  # draws happen, per seed, roughly p=0.5
    # The asia path never crosses the degraded edge: no draws, never lost.
    assert not any(network._message_lost("us", "asia") for _ in range(50))


# ----------------------------------------------------------------------
# partitions, edge downs, route events
# ----------------------------------------------------------------------
def test_partition_is_a_graph_cut_with_route_events():
    network = _network(topology="backbone")
    network.set_link_blocked("us", "eu", True)
    assert not network.reachable("us", "eu")
    assert network.link_blocked("us", "eu")
    events = [event.as_tuple() for event in network.route_events]
    # Sorted pair order within the re-convergence; both directions cut.
    assert [(e[1], e[2], e[3], e[5]) for e in events] == [
        ("partition", "eu", "us", None),
        ("partition", "us", "eu", None),
    ]
    # Third-party routes survive.
    assert network.reachable("us", "asia")
    assert network.reachable("eu", "asia")

    network.set_link_blocked("us", "eu", False)
    assert network.reachable("us", "eu")
    heals = [event for event in network.route_events if event.reason == "heal"]
    assert len(heals) == 2
    assert all(event.old_path is None and event.new_path for event in heals)


def test_unreachable_pair_drops_messages_until_heal():
    network = _network(topology="backbone")
    inbox = Store(network.env)
    network.set_link_blocked("us", "eu", True)
    network.deliver("lost", "us", "eu", inbox)
    assert network.dropped_messages == 1
    network.set_link_blocked("us", "eu", False)
    network.deliver("found", "us", "eu", inbox)
    network.env.run(until=1.0)
    assert list(inbox.items) == ["found"]


def test_graph_cut_drops_messages_like_a_partition():
    # Downing eu's only access edge leaves every pair into eu without a
    # route, although no region pair is blocked.
    network = _network(topology="backbone")
    inbox = Store(network.env)
    network.set_edge_down("eu", "wan/europe")
    assert network.link_blocked("us", "eu") and not network.reachable("us", "eu")
    network.deliver("lost", "us", "eu", inbox)
    network.call_after_delay("asia", "eu", lambda: inbox.put("lost-callback"))
    assert network.dropped_messages == 2
    network.set_edge_down("eu", "wan/europe", False)
    network.deliver("found", "us", "eu", inbox)
    network.env.run(until=1.0)
    assert list(inbox.items) == ["found"]


def test_edge_down_reroutes_on_redundant_backbone():
    network = _network(topology="backbone", topology_args=(("redundancy", 2),))
    assert network.route("us", "eu") == ("us", "wan/north-america/a", "wan/europe/a", "eu")
    network.set_edge_down("wan/north-america/a", "wan/europe/a")
    # Still reachable: the policy re-converged onto the surviving plane.
    assert network.reachable("us", "eu")
    assert "wan/north-america/b" in network.route("us", "eu")
    assert any(event.reason == "link-down" for event in network.route_events)

    network.set_edge_down("wan/north-america/a", "wan/europe/a", False)
    assert network.route("us", "eu") == ("us", "wan/north-america/a", "wan/europe/a", "eu")
    assert any(event.reason == "link-up" for event in network.route_events)


def test_edge_down_unknown_edge_raises():
    network = _network(topology="backbone")
    with pytest.raises(KeyError, match="'us' -> 'eu'"):
        network.set_edge_down("us", "eu")


def test_edge_downs_are_refcounted():
    network = _network(topology="backbone", topology_args=(("redundancy", 2),))
    edge = ("wan/north-america/a", "wan/europe/a")
    network.set_edge_down(*edge)
    network.set_edge_down(*edge)
    network.set_edge_down(*edge, False)
    # One down remains: still routed around.
    assert "wan/north-america/b" in network.route("us", "eu")
    network.set_edge_down(*edge, False)
    assert network.route("us", "eu") == ("us", "wan/north-america/a", "wan/europe/a", "eu")


def test_disconnected_topology_rejected_at_build():
    @register_wan_topology("test-disconnected")
    def build_disconnected(regions, *, wan_bandwidth_bytes_per_s=0.0):
        graph = WanGraph(regions)
        graph.add_edge("us", "eu", 0.075)  # asia left unconnected
        return graph

    try:
        with pytest.raises(ValueError, match="asia"):
            _network(topology="test-disconnected")
    finally:
        _WAN_TOPOLOGIES.unregister("test-disconnected")


# ----------------------------------------------------------------------
# bandwidth contention
# ----------------------------------------------------------------------
def _contended(bandwidth, seed=0):
    return _network(
        seed=seed,
        jitter=0.0,
        topology="backbone",
        wan_bandwidth_bytes_per_s=bandwidth,
        request_bytes_per_token=2.0,
        kv_bytes_per_token=64.0,
    )


def _arrivals(network, sends):
    inbox = Store(network.env)
    arrivals = []

    def consume():
        while True:
            item = yield inbox.get()
            arrivals.append((network.env.now, item))

    network.env.process(consume())
    for item, src, dst, size in sends:
        network.deliver(item, src, dst, inbox, size_bytes=size)
    network.env.run(until=60.0)
    return arrivals


def test_concurrent_messages_serialise_through_a_shared_edge():
    # 1000 B/s backbone edge: a 1000 B message occupies it for a full
    # second; the 100 B message behind it waits, then transmits 0.1 s.
    arrivals = _arrivals(
        _contended(1000.0),
        [("big", "us", "eu", 1000.0), ("small", "us", "eu", 100.0)],
    )
    assert [item for _, item in arrivals] == ["big", "small"]
    t_big, t_small = arrivals[0][0], arrivals[1][0]
    assert t_big == pytest.approx(0.075 + 1.0)
    # FIFO: small waited for big's transmission, then paid its own.
    assert t_small == pytest.approx(0.075 + 1.0 + 0.1)


def test_uncontended_edges_do_not_serialise():
    arrivals = _arrivals(
        _contended(0.0),
        [("big", "us", "eu", 1000.0), ("small", "us", "eu", 100.0)],
    )
    assert not _contended(0.0).contention_enabled
    for t, _ in arrivals:
        assert t == pytest.approx(0.075)


def test_distinct_edges_do_not_contend():
    # us->eu and asia->eu cross different backbone edges: no queueing.
    arrivals = _arrivals(
        _contended(1000.0),
        [("a", "us", "eu", 1000.0), ("b", "asia", "eu", 1000.0)],
    )
    times = sorted(t for t, _ in arrivals)
    assert times[0] == pytest.approx(0.075 + 1.0)
    assert times[1] == pytest.approx(0.100 + 1.0)


def test_zero_size_messages_still_queue_fifo():
    # A zero-byte message behind a large transfer waits for it (shared
    # FIFO), even though its own transmission is instant.
    arrivals = _arrivals(
        _contended(1000.0),
        [("big", "us", "eu", 1000.0), ("probe", "us", "eu", 0.0)],
    )
    assert [item for _, item in arrivals] == ["big", "probe"]
    assert arrivals[1][0] == pytest.approx(0.075 + 1.0)


def test_wire_sizes_come_from_config():
    network = _contended(1000.0)

    class FakeRequest:
        prompt_tokens = tuple(range(10))
        prompt_len = 10
        generated_tokens = 5
        output_len = 7

    assert network.request_wire_bytes(FakeRequest()) == 20.0
    assert network.push_wire_bytes(100) == 6400.0
    assert network.push_wire_bytes(-3) == 0.0
    assert network.response_wire_bytes(FakeRequest()) == 10.0


def test_netconfig_validation():
    with pytest.raises(ValueError, match="wan_bandwidth_bytes_per_s"):
        NetConfig(wan_bandwidth_bytes_per_s=-1.0)
    with pytest.raises(ValueError, match="request_bytes_per_token"):
        NetConfig(request_bytes_per_token=-1.0)
    with pytest.raises(ValueError, match="topology_args"):
        NetConfig(topology_args=("not-a-pair",))


# ----------------------------------------------------------------------
# link faults must target graph edges
# ----------------------------------------------------------------------
def test_link_faults_on_a_non_edge_pair_are_rejected():
    network = _network(topology="backbone")
    route_edges = "'us' -> 'wan/north-america', 'wan/north-america' -> 'wan/europe'"
    with pytest.raises(ValueError, match=f"'us' -> 'eu'.*{route_edges}"):
        network.add_link_extra_latency("us", "eu", 0.5)
    with pytest.raises(ValueError, match="'us' -> 'eu'"):
        network.add_link_degrade("us", "eu", loss_probability=1.0)
    with pytest.raises(ValueError, match="'us' -> 'mars'"):
        network.check_link("us", "mars")
    assert not network._extra_latency and not network._link_loss
    # Graph edges and same-region pairs still take faults.
    network.add_link_extra_latency("us", "wan/north-america", 0.5)
    network.add_link_degrade("us", "us", extra_jitter_fraction=0.5)
    # On the default mesh every region pair is an edge.
    _network().add_link_extra_latency("us", "eu", 0.5)


@pytest.mark.parametrize(
    "fault",
    [
        LinkLatencySpike(a="us", b="eu", extra_s=0.5),
        LinkDegrade(a="us", b="eu", loss_probability=1.0),
    ],
)
def test_backbone_run_with_a_non_edge_link_fault_raises(fault):
    workload = build_tot_workload(scale=0.02, seed=2)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=TINY_TEST_PROFILE,
            network=NetConfig(topology="backbone"),
        ),
        duration_s=5.0,
        seed=1,
        faults=FaultSchedule.single(1.0, fault),
    )
    with pytest.raises(ValueError, match="not an edge of the WAN graph"):
        run_experiment(config, workload)
    # The injector rejects it at construction, before the simulation runs.
    network = _network(topology="backbone")
    with pytest.raises(ValueError, match="'us' -> 'eu'"):
        FaultInjector(
            network.env,
            FaultSchedule.single(1.0, fault),
            network=network,
            deployment=None,
            frontend=None,
            balancers=[],
        )
