"""Unit tests for generator-driven processes: results, failures, interrupts."""

import pytest

from repro.sim import Environment, Interrupt, InvalidYield


def test_process_is_alive_until_generator_returns(env):
    def worker(env):
        yield env.timeout(5)

    process = env.process(worker(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_process_return_value_becomes_event_value(env):
    def worker(env):
        yield env.timeout(1)
        return {"answer": 42}

    process = env.process(worker(env))
    env.run()
    assert process.value == {"answer": 42}


def test_process_requires_a_generator(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_is_an_error(env):
    def worker(env):
        yield 5

    env.process(worker(env))
    with pytest.raises(InvalidYield):
        env.run()


def test_exception_in_process_propagates_to_waiter(env):
    def failing(env):
        yield env.timeout(1)
        raise ValueError("inner failure")

    caught = []

    def parent(env):
        try:
            yield env.process(failing(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["inner failure"]


def test_unwaited_process_exception_surfaces_in_run(env):
    def failing(env):
        yield env.timeout(1)
        raise RuntimeError("unobserved")

    env.process(failing(env))
    with pytest.raises(RuntimeError, match="unobserved"):
        env.run()


def test_interrupt_delivers_cause(env):
    causes = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append((interrupt.cause, env.now))

    def attacker(env, process):
        yield env.timeout(2)
        process.interrupt("because")

    process = env.process(victim(env))
    env.process(attacker(env, process))
    env.run()
    # The interrupt arrives at t=2, long before the 100 s timeout would fire.
    assert causes == [("because", 2.0)]
    assert not process.is_alive


def test_interrupted_process_can_keep_running(env):
    milestones = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            milestones.append(("interrupted", env.now))
        yield env.timeout(5)
        milestones.append(("done", env.now))

    def attacker(env, process):
        yield env.timeout(1)
        process.interrupt()

    process = env.process(victim(env))
    env.process(attacker(env, process))
    env.run()
    assert milestones == [("interrupted", 1.0), ("done", 6.0)]


def test_interrupting_dead_process_raises(env):
    def quick(env):
        yield env.timeout(1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_old_target_does_not_resume_interrupted_process_twice(env):
    resumes = []

    def victim(env):
        try:
            yield env.timeout(3)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
        yield env.timeout(10)
        resumes.append("after")

    def attacker(env, process):
        yield env.timeout(1)
        process.interrupt()

    process = env.process(victim(env))
    env.process(attacker(env, process))
    env.run()
    # The original timeout at t=3 must not wake the process a second time.
    assert resumes == ["interrupt", "after"]


def test_process_waiting_on_already_processed_event(env):
    def worker(env):
        timeout = env.timeout(1)
        yield env.timeout(2)
        value = yield timeout  # already processed by now
        return value

    def parent(env):
        result = yield env.process(worker(env))
        return result

    process = env.process(parent(env))
    env.run()
    assert not process.is_alive


def test_retarget_moves_the_wait_to_an_earlier_event(env):
    log = []

    def sleeper(env):
        value = yield env.timeout(10.0, value="late")
        log.append((env.now, value))
        yield env.timeout(1.0)
        log.append((env.now, "after"))

    proc = env.process(sleeper(env))
    env.run(until=1.0)
    proc.retarget(env.timeout(2.0, value="early"))
    env.run()
    # The abandoned 10 s timeout still pops, but resumes nobody.
    assert log == [(3.0, "early"), (4.0, "after")]
    assert env.now == 10.0


def test_interrupt_after_retarget_detaches_from_the_new_target(env):
    log = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            log.append(("interrupted", env.now))

    proc = env.process(sleeper(env))
    env.run(until=1.0)
    proc.retarget(env.timeout(2.0))
    proc.interrupt()
    env.run()
    assert log == [("interrupted", 1.0)]
    assert not proc.is_alive


def test_retarget_requires_a_waiting_process(env):
    def sleeper(env):
        yield env.timeout(1.0)

    proc = env.process(sleeper(env))
    with pytest.raises(RuntimeError):
        proc.retarget(env.event())
