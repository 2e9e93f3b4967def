"""Unit tests for the Environment: clock, scheduling and run() semantics."""

import pytest

from repro.sim import EmptySchedule, Environment


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_step_on_empty_queue_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time(env):
    assert env.peek() == float("inf")
    env.timeout(5)
    assert env.peek() == 5.0


def test_run_until_time_stops_clock_exactly(env):
    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_is_rejected():
    env = Environment(initial_time=100.0)
    with pytest.raises(ValueError):
        env.run(until=50.0)


def test_run_until_event_returns_its_value(env):
    def worker(env):
        yield env.timeout(3)
        return "result"

    process = env.process(worker(env))
    assert env.run(until=process) == "result"
    assert env.now == 3.0


def test_run_until_never_triggered_event_raises(env):
    orphan = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError):
        env.run(until=orphan)


def test_run_until_already_processed_event(env):
    def worker(env):
        yield env.timeout(1)
        return 7

    process = env.process(worker(env))
    env.run()
    assert env.run(until=process) == 7


def test_run_without_until_drains_queue(env):
    seen = []

    def worker(env):
        yield env.timeout(2)
        seen.append(env.now)

    env.process(worker(env))
    env.run()
    assert seen == [2.0]
    assert env.peek() == float("inf")


def test_events_at_same_time_preserve_insertion_order(env):
    order = []

    def waiter(env, label):
        yield env.timeout(1)
        order.append(label)

    for label in "abcd":
        env.process(waiter(env, label))
    env.run()
    assert order == list("abcd")


def test_active_process_is_none_outside_steps(env):
    def worker(env):
        assert env.active_process is not None
        yield env.timeout(1)

    env.process(worker(env))
    env.run()
    assert env.active_process is None


def test_nested_process_spawning(env):
    results = []

    def child(env, n):
        yield env.timeout(n)
        return n * 10

    def parent(env):
        first = yield env.process(child(env, 1))
        second = yield env.process(child(env, 2))
        results.append(first + second)

    env.process(parent(env))
    env.run()
    assert results == [30]
    assert env.now == 3.0


def test_timeout_at_fires_at_the_exact_absolute_time(env):
    # A chained float: timeout_at keeps it exactly, where
    # timeout(when - now) may round it on the way back.
    when = 0.1 + 0.2
    env.run(until=0.1)
    event = env.timeout_at(when, value="late")
    assert env.run(until=event) == "late"
    assert env.now == when


def test_timeout_at_now_is_allowed(env):
    env.run(until=1.5)
    event = env.timeout_at(1.5)
    env.run(until=event)
    assert env.now == 1.5


def test_timeout_at_in_the_past_names_the_time(env):
    env.run(until=2.0)
    with pytest.raises(ValueError, match=r"when=1\.25 lies in the past"):
        env.timeout_at(1.25)


def test_timeout_at_orders_ties_by_insertion(env):
    log = []
    env.timeout(1.0).callbacks.append(lambda _e: log.append("relative"))
    env.timeout_at(1.0).callbacks.append(lambda _e: log.append("absolute"))
    env.run()
    assert log == ["relative", "absolute"]
