"""Decode spans: bit-identical to per-token stepping, and the tie rule.

The golden fixture (``data/replica_timeline_golden.json``) was recorded by
per-token stepping; see :mod:`tests.replica.timeline_scenarios`.
"""

import json
from pathlib import Path

import pytest

from repro.perf.anatomy import count_events
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Environment
from repro.workloads.request import Request

from .timeline_scenarios import SCENARIOS, run_scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "replica_timeline_golden.json").read_text()
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timeline_matches_per_token_golden(name):
    result = json.loads(json.dumps(run_scenario(name)))
    golden = GOLDEN[name]
    assert result["requests"] == golden["requests"]
    assert result["stats"] == golden["stats"]
    assert result["batcher"] == golden["batcher"]
    assert result["probes"] == golden["probes"]


def test_golden_scenarios_exercise_preemption_and_crash():
    assert GOLDEN["preemption"]["batcher"]["total_preemptions"] > 0
    statuses = {row[0] for row in GOLDEN["crash-recover"]["requests"]}
    assert "failed" in statuses and "finished" in statuses


def _request(first_token: int, output_len: int) -> Request:
    prompt = tuple(range(first_token, first_token + 20))
    return Request(prompt_tokens=prompt, output_len=output_len)


def _span_times(env: Environment, replica: ReplicaServer):
    """Run into the first decode span and return its boundary times."""
    replica.submit(_request(1, 40))
    # Prefill of 20 tokens takes 3 ms; stop inside the first decode step.
    env.run(until=0.004)
    return list(replica._span.times)


def test_one_event_per_span():
    env = Environment()
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    with count_events() as counts:
        replica.submit(_request(1, 40))
        env.run()
    assert counts["Event:ReplicaServer._run"] == 1  # 39 decode steps, one span
    assert replica.stats.steps == 40


def test_arrival_on_an_interior_boundary_is_drained_at_the_next():
    """Tie rule: an interior boundary has elapsed once the clock reaches it."""
    env = Environment()
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    times = _span_times(env, replica)
    second = _request(1_000, 5)
    seen = {}

    def arrive(_event):
        # Five decode steps have elapsed: 20 prompt + 1 + 5 output tokens.
        seen["utilization"] = replica.memory_utilization
        replica.inbox.put(second)

    env.timeout_at(times[4]).callbacks.append(arrive)
    env.run()
    assert seen["utilization"] == 26 / 2000
    assert second.replica_arrival_time == times[5]


def test_arrival_on_the_last_boundary_follows_event_order():
    """The last boundary is a real event: an arrival scheduled before the
    span started runs first and is drained at that boundary."""
    probe_env = Environment()
    last = _span_times(probe_env, ReplicaServer(probe_env, "us/r0", "us", TINY_TEST_PROFILE))[-1]

    env = Environment()
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    second = _request(1_000, 5)
    env.timeout_at(last).callbacks.append(lambda _event: replica.inbox.put(second))
    replica.submit(_request(1, 40))
    env.run()
    assert second.replica_arrival_time == last


def test_crash_applies_elapsed_steps_first():
    env = Environment()
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    times = _span_times(env, replica)
    request = replica._batcher.running[0].request
    env.run(until=(times[9] + times[10]) / 2)
    assert replica.fail() == [request]
    # Prefill's token plus ten decode steps.
    assert request.generated_tokens == 11
    assert replica.stats.steps == 11


def test_degrade_cuts_the_span_at_the_next_boundary():
    env = Environment()
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE, record_utilization=True)
    times = _span_times(env, replica)
    env.run(until=(times[2] + times[3]) / 2)
    replica.set_performance_level(0.5)
    env.run()
    sample_times = [t for t, _ in replica.stats.utilization_samples]
    # Prefill, then the step in flight keeps its nominal duration; the step
    # planned at the cut (context 20 prompt + 5 output tokens) is stretched.
    assert sample_times[:5] == [0.003] + times[:4]
    assert sample_times[5] == times[3] + TINY_TEST_PROFILE.decode_step_time(1, 25) / 0.5
