"""The probe clock reproduces the per-monitor probe loop exactly.

The golden fixture (``data/probe_schedule_golden.json``) was recorded with
one generator process per availability monitor, each starting one event
per peer probe.  The clock runs the monitors that fall due together in one
cycle event and sends their peer probes in one event, so every recorded
probe snapshot, the probe counters and the network RNG's next draw at the
horizon must match bit for bit.  Scenarios live in
``probe_schedule_scenarios.py``.
"""

import json
from pathlib import Path

import pytest

from repro.perf.anatomy import count_events

from .probe_schedule_scenarios import SCENARIOS, run_scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "probe_schedule_golden.json").read_text()
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_probe_schedule_matches_golden(name):
    result = json.loads(json.dumps(run_scenario(name)))
    golden = GOLDEN[name]
    assert result["probes"] == golden["probes"]
    assert result == golden


def test_golden_scenarios_exercise_what_they_claim():
    # Asia's 70 ms cycles land apart from the others' 100 ms cycles.
    off = GOLDEN["off-interval"]["probes"]
    asia_times = {row[-1] for row in off if row[0] == "asia" and row[1].startswith("asia/")}
    us_times = {row[-1] for row in off if row[0] == "us" and row[1].startswith("us/")}
    assert len(asia_times) > len(us_times)
    # The empty region waits on changes and forwards.
    for name, region in (("zero-replicas", "eu"), ("zero-replicas-bp", "us")):
        _local, forwards, _received, waits = GOLDEN[name]["balancers"][region]
        assert forwards > 0 and waits > 0
    # The partition makes the US record Asia unhealthy for a while.
    assert any(
        row[0] == "us" and row[1] == "skywalker@asia" and row[2] is False
        for row in GOLDEN["partition"]["probes"]
    )


def test_lockstep_monitors_share_one_cycle_event():
    with count_events() as counts:
        result = run_scenario("lockstep")
    # 2.5 s of 100 ms cycles: one cycle and one send event each, not one
    # of each per monitor.
    assert counts["Event:ProbeClock._cycle"] == 25
    assert counts["Timeout:ProbeClock._probe_peers"] == 25
    assert result["probe_count"] == GOLDEN["lockstep"]["probe_count"]
