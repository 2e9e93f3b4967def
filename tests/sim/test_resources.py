"""Unit tests for Store, PriorityStore and Resource."""

import pytest

from repro.sim import PriorityStore, Resource, Store


def test_store_is_fifo(env):
    store = Store(env)
    received = []

    def producer(env, store):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_item_available(env):
    store = Store(env)
    times = []

    def consumer(env, store):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env, store):
        yield env.timeout(4)
        yield store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [(4.0, "late")]


def test_store_capacity_blocks_put(env):
    store = Store(env, capacity=1)
    progress = []

    def producer(env, store):
        yield store.put("first")
        progress.append(("put-first", env.now))
        yield store.put("second")
        progress.append(("put-second", env.now))

    def consumer(env, store):
        yield env.timeout(5)
        item = yield store.get()
        progress.append(("got", item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert ("put-first", 0.0) in progress
    # The second put can only complete after the consumer frees a slot at t=5.
    assert ("put-second", 5.0) in progress


def test_store_invalid_capacity(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len_reflects_items(env):
    store = Store(env)
    store.put("x")
    store.put("y")
    env.run()
    assert len(store) == 2


def test_priority_store_returns_smallest_first(env):
    store = PriorityStore(env)
    received = []

    def producer(env, store):
        for item in [(3, "low"), (1, "high"), (2, "mid")]:
            yield store.put(item)

    def consumer(env, store):
        # Start after every item has been enqueued so ordering is observable.
        yield env.timeout(1)
        for _ in range(3):
            item = yield store.get()
            received.append(item[1])

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["high", "mid", "low"]


def test_resource_limits_concurrency(env):
    resource = Resource(env, capacity=2)
    active = []
    max_active = []

    def worker(env, resource, duration):
        request = resource.request()
        yield request
        active.append(1)
        max_active.append(len(active))
        yield env.timeout(duration)
        active.pop()
        resource.release(request)

    for _ in range(5):
        env.process(worker(env, resource, 3))
    env.run()
    assert max(max_active) == 2


def test_resource_context_manager_releases(env):
    resource = Resource(env, capacity=1)
    order = []

    def worker(env, resource, label):
        with resource.request() as request:
            yield request
            order.append((label, env.now))
            yield env.timeout(2)

    env.process(worker(env, resource, "first"))
    env.process(worker(env, resource, "second"))
    env.run()
    assert order == [("first", 0.0), ("second", 2.0)]
    assert resource.count == 0


def test_resource_invalid_capacity(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_store_cancel_withdraws_an_abandoned_get(env):
    store = Store(env)
    getter = store.get()
    assert store.cancel(getter) is True
    # The queued item must go to a *live* getter, not the cancelled one.
    store.put("item")
    live = store.get()
    env.run()
    assert live.value == "item"
    assert not getter.triggered


def test_store_cancel_is_a_noop_for_foreign_or_triggered_events(env):
    store = Store(env)
    other = Store(env)
    getter = other.get()
    assert store.cancel(getter) is False  # belongs to another store
    assert store.cancel(env.timeout(1)) is False  # not a store event at all
    put = store.put("x")
    env.run()
    assert store.cancel(put) is False  # already triggered and dequeued


# ----------------------------------------------------------------------
# post: the event-free put
# ----------------------------------------------------------------------
def test_post_hands_items_to_waiting_getters_in_fifo_order(env):
    store = Store(env)
    received = []

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    def producer(env, store):
        yield env.timeout(1)
        store.post("a")
        yield env.timeout(1)
        store.post("b")
        store.post("c")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert received == [(1.0, "a"), (2.0, "b"), (2.0, "c")]


def test_post_to_a_full_store_waits_for_room(env):
    store = Store(env, capacity=1)
    store.post("first")
    store.post("second")
    assert list(store.items) == ["first"]
    received = []

    def consumer(env, store):
        yield env.timeout(5)
        for _ in range(2):
            item = yield store.get()
            received.append((env.now, item))

    env.process(consumer(env, store))
    env.run()
    assert received == [(5.0, "first"), (5.0, "second")]
    assert len(store) == 0


def test_post_queues_behind_a_blocked_put(env):
    store = Store(env, capacity=1)
    store.put("first")
    store.put("second")  # blocked: the store is full
    store.post("third")
    received = []

    def consumer(env, store):
        for _ in range(3):
            received.append((yield store.get()))

    env.process(consumer(env, store))
    env.run()
    assert received == ["first", "second", "third"]


def test_post_into_a_priority_store_orders_by_item(env):
    store = PriorityStore(env)
    for item in (3, 1, 2):
        store.post(item)
    received = []

    def consumer(env, store):
        for _ in range(3):
            received.append((yield store.get()))

    env.process(consumer(env, store))
    env.run()
    assert received == [1, 2, 3]


def test_post_schedules_no_event(env):
    from repro.perf.anatomy import count_events

    store = Store(env)
    with count_events() as counts:
        store.post("x")
        env.run()
    assert list(store.items) == ["x"]
    assert sum(counts.values()) == 0


def test_post_into_a_replica_inbox_fires_its_hook(env, make_tiny_replica):
    replica = make_tiny_replica("us")
    cuts = []
    replica.inbox._on_put = lambda: cuts.append(env.now)
    replica.inbox.post("request")
    assert cuts == [0.0]
    assert list(replica.inbox.items) == ["request"]
