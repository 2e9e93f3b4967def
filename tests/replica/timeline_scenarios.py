"""Replica timeline scenarios behind the golden fixture.

Each scenario drives one :class:`ReplicaServer` through seeded arrivals and
control actions (crash and recovery, degrade and restore), while a prober
reads the load signals at seeded times.  The result records every request's
timeline, the replica's step counters and the probe log, with floats kept
exactly (JSON round-trips ``repr``).

The committed fixture was produced by per-token stepping; decode spans must
reproduce it bit for bit.  Regenerate it (only for an intended behaviour
change) with::

    PYTHONPATH=src python -m tests.replica.timeline_scenarios \\
        tests/replica/data/replica_timeline_golden.json
"""

from __future__ import annotations

import json
import random
import sys
from typing import Dict, List

from repro.replica import TINY_TEST_PROFILE, ModelProfile, ReplicaServer
from repro.sim import Environment
from repro.workloads.request import Request

#: A 600-token KV budget: a handful of running sequences exhaust it, so the
#: batch preempts mid-decode.
TINY_KV_PROFILE = ModelProfile(
    name="tiny-kv",
    prefill_base_s=0.001,
    prefill_per_token_s=0.0001,
    decode_base_s=0.002,
    decode_per_seq_s=0.0001,
    decode_per_kilotoken_s=0.0001,
    kv_bytes_per_token=1,
    gpu_memory_bytes=1_600,
    weight_memory_bytes=1_000,
    max_batch_size=8,
    kv_memory_fraction=1.0,
    admission_output_reserve=8,
)

#: name -> scenario settings.  ``actions`` are ``(time, verb, argument)``.
SCENARIOS: Dict[str, dict] = {
    "preemption": dict(
        profile=TINY_KV_PROFILE, requests=40, gap=0.02, prompt=(20, 80), output=(10, 120),
        actions=[], record_utilization=True, read_stats=False, horizon=1.5, seed=1,
    ),
    "crash-recover": dict(
        # The crash lands 13 steps into a 26-step decode span.
        profile=TINY_TEST_PROFILE, requests=40, gap=0.03, prompt=(10, 60), output=(20, 200),
        actions=[(0.2297, "fail", None), (0.3073, "recover", None)],
        record_utilization=False, read_stats=True, horizon=1.2, seed=2,
    ),
    # The first degrade lands 18 steps into a 95-step decode span.
    "degrade-restore": dict(
        profile=TINY_TEST_PROFILE, requests=30, gap=0.015, prompt=(10, 60), output=(30, 300),
        actions=[
            (0.0871, "degrade", 0.5),
            (0.2049, "restore", None),
            (0.3127, "degrade", "thermal-throttle"),
            (0.4511, "restore", None),
        ],
        record_utilization=True, read_stats=False, horizon=1.0, seed=3,
    ),
    "sparse-arrivals": dict(
        profile=TINY_TEST_PROFILE, requests=25, gap=0.06, prompt=(5, 40), output=(50, 400),
        actions=[], record_utilization=True, read_stats=True, horizon=2.5, seed=4,
    ),
}


def _requests(rng: random.Random, config: dict) -> List[Request]:
    shared = tuple(range(10_000, 10_030))
    requests = []
    for index in range(config["requests"]):
        prompt_len = rng.randint(*config["prompt"])
        fresh = tuple(range(100_000 * (index + 1), 100_000 * (index + 1) + prompt_len))
        prefix = shared[: rng.randint(0, len(shared))] if rng.random() < 0.5 else ()
        requests.append(
            Request(prompt_tokens=prefix + fresh, output_len=rng.randint(*config["output"]))
        )
    return requests


def run_scenario(name: str) -> dict:
    """Run one scenario and return its exact, JSON-ready outputs."""
    config = SCENARIOS[name]
    rng = random.Random(config["seed"])
    env = Environment()
    replica = ReplicaServer(
        env, "us/r0", "us", config["profile"], record_utilization=config["record_utilization"]
    )
    requests = _requests(rng, config)
    gaps = [rng.expovariate(1.0 / config["gap"]) for _ in requests]
    probe_gaps = [rng.uniform(0.001, 0.03) for _ in range(2000)]
    probes: List[list] = []
    tokens: Dict[str, int] = {}

    def feeder():
        for index, (request, gap) in enumerate(zip(requests, gaps)):
            yield env.timeout(gap)
            if not replica.healthy:
                continue
            request.sent_time = request.lb_arrival_time = env.now
            # Alternate the two ways work reaches a replica.
            if index % 2:
                replica.submit(request)
            else:
                replica.inbox.put(request)

    def prober():
        for gap in probe_gaps:
            yield env.timeout(gap)
            row = [
                env.now,
                replica.num_pending,
                replica.num_running,
                replica.num_outstanding,
                replica.memory_utilization,
            ]
            if config["read_stats"]:
                row.append(replica.stats.busy_time)
            probes.append(row)

    def control(when, verb, argument):
        yield env.timeout(when)
        if verb == "fail":
            replica.fail()
        elif verb == "recover":
            replica.recover()
        elif verb == "degrade":
            tokens["degrade"] = replica.set_performance_level(argument)
        else:
            replica.restore_performance(tokens.get("degrade"))

    env.process(feeder())
    env.process(prober())
    for action in config["actions"]:
        env.process(control(*action))
    env.run(until=config["horizon"])

    stats = replica.stats
    batcher = replica.batcher
    return {
        "requests": [
            [
                request.status,
                request.replica_arrival_time,
                request.schedule_time,
                request.first_token_time,
                request.finish_time,
                request.generated_tokens,
            ]
            for request in requests
        ],
        "stats": {
            "busy_time": stats.busy_time,
            "prefill_time": stats.prefill_time,
            "decode_time": stats.decode_time,
            "steps": stats.steps,
            "utilization_samples": [list(sample) for sample in stats.utilization_samples],
        },
        "batcher": {
            "total_generated_tokens": batcher.total_generated_tokens,
            "total_finished": batcher.total_finished,
            "total_preemptions": batcher.total_preemptions,
            "total_preempted_tokens": batcher.total_preempted_tokens,
            "used_tokens": batcher.memory.used_tokens,
        },
        "probes": probes,
    }


def build_fixture() -> dict:
    return {name: run_scenario(name) for name in SCENARIOS}


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        json.dump(build_fixture(), handle, sort_keys=True)
        handle.write("\n")
