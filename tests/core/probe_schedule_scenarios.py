"""Probe-schedule scenarios behind the golden fixture.

Each scenario builds a SkyWalker mesh through the system registry (as the
experiment runner does), drives it with seeded open-loop clients and a few
control actions, and records every probe result the availability monitors
store, in the order they store it.  It also records the probe counters and
the next draw of the network's jitter RNG at the horizon, so a probe loop
that samples its round trips in a different order shows even when the
recorded snapshots happen to agree.

The committed fixture was recorded with one generator process per monitor;
the probe clock must reproduce it bit for bit (JSON round-trips floats
exactly).  Regenerate it (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.core.probe_schedule_scenarios \\
        tests/core/data/probe_schedule_golden.json
"""

from __future__ import annotations

import json
import random
import sys
from typing import Dict, List

from repro.cluster import Deployment, Frontend, OpenLoopClient, ReplicaSpec, RequestTracker
from repro.experiments.runner import build_system
from repro.experiments.systems import SkyWalkerConfig
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment
from repro.workloads.request import Request

_BASE = dict(
    replicas={"us": 2, "eu": 2, "asia": 2},
    intervals={},
    pushing="SP-P",
    rate=150.0,
    requests=300,
    actions=[],
    horizon=2.5,
    seed=1,
)

#: name -> scenario settings.  ``intervals`` overrides a region's probe
#: interval; ``actions`` are ``(time, verb, arguments)``.
SCENARIOS: Dict[str, dict] = {
    "lockstep": dict(_BASE),
    # Asia's 70 ms cycle falls due apart from the other two monitors.
    "off-interval": dict(_BASE, intervals={"asia": 0.07}, seed=2),
    # The EU monitor probes no replicas; its balancer waits on changes while
    # it has nothing to forward to.  A listener also waits on the EU
    # monitor's changes and draws from the network RNG at each wake-up, so
    # the draw lands between the peer probes of the monitors before it
    # (Asia's, its own) and after it (the US's) -- or the fixture shows it.
    "zero-replicas": dict(
        _BASE, replicas={"us": 1, "eu": 0, "asia": 1}, rate=80.0, listen="eu", seed=3
    ),
    # The wan-contended layout: the empty US monitor comes last.
    "zero-replicas-bp": dict(
        _BASE, replicas={"us": 0, "eu": 1, "asia": 1}, pushing="BP", rate=80.0, seed=4
    ),
    # The US drops the EU peer while a probe to it is in flight, then re-adds it.
    "peer-churn": dict(
        _BASE, actions=[(0.83, "remove_peer", ("us", "eu")), (1.57, "add_peer", ("us", "eu"))],
        seed=5,
    ),
    "balancer-fail": dict(
        _BASE, actions=[(0.91, "fail", ("eu",)), (1.63, "recover", ("eu",))], seed=6
    ),
    # Partition the US from Asia: probes across it come back unhealthy.
    "partition": dict(
        _BASE, actions=[(0.7, "block", ("us", "asia")), (1.9, "unblock", ("us", "asia"))],
        seed=7,
    ),
}


class _Recorder(dict):
    """A probe table that logs every store into it."""

    def __init__(self, table, log: List[list], region: str) -> None:
        super().__init__(table)
        self._log = log
        self._region = region

    def __setitem__(self, key, probe) -> None:
        # A snapshot carries its target's name and its probe time.
        self._log.append([self._region, *probe])
        super().__setitem__(key, probe)


def _requests(region: str, count: int, rng: random.Random) -> List[Request]:
    return [
        Request(
            prompt_tokens=tuple(rng.randrange(50_000) for _ in range(rng.randint(8, 40))),
            output_len=rng.randint(20, 400),
            user_id=f"{region}-user-{rng.randrange(6)}",
            session_id=f"{region}-session-{index}",
            region=region,
        )
        for index in range(count)
    ]


def run_scenario(name: str) -> dict:
    settings = SCENARIOS[name]
    env = Environment()
    topology = default_topology()
    network = Network(env, topology, jitter_fraction=0.05, seed=settings["seed"])
    regions = list(settings["replicas"])
    deployment = Deployment(
        env,
        [
            ReplicaSpec(region=region, count=count, profile=TINY_TEST_PROFILE)
            for region, count in settings["replicas"].items()
            if count
        ],
        topology=topology,
        network=network,
    )
    tracker = RequestTracker(env)
    for replica in deployment.replicas:
        replica.add_completion_listener(tracker.complete)
    frontend = Frontend(env, network)
    balancers = build_system(
        SkyWalkerConfig(kind="skywalker", pushing=settings["pushing"]),
        env,
        network,
        deployment,
        frontend,
        client_regions=regions,
        hash_key="user",
    )
    by_region = {balancer.region: balancer for balancer in balancers}
    log: List[list] = []
    for balancer in balancers:
        monitor = balancer.monitor
        monitor.probe_interval_s = settings["intervals"].get(balancer.region, 0.1)
        monitor.replica_probes = _Recorder(monitor.replica_probes, log, balancer.region)
        monitor.balancer_probes = _Recorder(monitor.balancer_probes, log, balancer.region)
    rng = random.Random(settings["seed"])
    for region in regions:
        OpenLoopClient(
            env,
            f"{region}/client",
            region,
            frontend,
            tracker,
            _requests(region, settings["requests"], rng),
            rate_per_s=settings["rate"],
            seed=rng.randrange(1 << 30),
        )

    def act(env):
        for when, verb, args in settings["actions"]:
            yield env.timeout(when - env.now)
            if verb == "remove_peer":
                by_region[args[0]].remove_peer(by_region[args[1]].name)
            elif verb == "add_peer":
                by_region[args[0]].add_peer(by_region[args[1]])
            elif verb == "fail":
                by_region[args[0]].fail()
            elif verb == "recover":
                by_region[args[0]].recover()
            elif verb == "block":
                network.set_link_blocked(*args)
            elif verb == "unblock":
                network.set_link_blocked(*args, blocked=False)
            else:  # pragma: no cover - a typo in SCENARIOS
                raise ValueError(verb)

    wakes: List[list] = []

    def listen(env, monitor):
        while True:
            yield monitor.wait_for_change()
            wakes.append([env.now, network.sample_one_way(monitor.region, monitor.region)])

    if "listen" in settings:
        env.process(listen(env, by_region[settings["listen"]].monitor))
    env.process(act(env))
    env.run(until=settings["horizon"])
    return {
        "probes": log,
        "wakes": wakes,
        "probe_count": network.probe_count,
        "messages_sent": network.messages_sent,
        "dropped_messages": network.dropped_messages,
        "balancers": {
            balancer.region: [
                balancer.local_dispatches,
                balancer.remote_forwards,
                balancer.received_forwards,
                balancer.queue_wait_events,
            ]
            for balancer in balancers
        },
        "completed": len(tracker.completed),
        "next_draw": network._rng.random(),
    }


def build_fixture() -> dict:
    return {name: run_scenario(name) for name in SCENARIOS}


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        json.dump(build_fixture(), handle, sort_keys=True)
        handle.write("\n")
