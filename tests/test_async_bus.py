"""Tests for the deterministic event loop and the async message bus.

Covers the :class:`~repro.oran.loop.VirtualTimeLoop` scheduling
contract (FIFO canon, virtual time, seeded interleaving, deadlock and
livelock detection), mailbox backpressure policies, the async bus
publish/consume pipeline, and the two property-based invariants of
``docs/CONTROL_PLANE.md``:

* no backpressure policy ever loses the *newest* E2 indication;
* mailbox counters reconcile with published counts once the loop is
  idle (``puts == delivered + dropped + coalesced + queued +
  blocked_waiting``).
"""

import gc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oran.bus import MAILBOX_POLICIES, AsyncMessageBus, Mailbox, post
from repro.oran.loop import VirtualTimeLoop, sleep
from repro.oran.messages import E2Indication, E2IndicationBatch
from repro.telemetry import spans


# -- the virtual-time loop ----------------------------------------------


class TestVirtualTimeLoop:
    def test_fifo_canonical_order(self):
        loop = VirtualTimeLoop()
        order = []

        async def job(tag):
            order.append(tag)

        for tag in "abc":
            loop.create_task(job(tag))
        loop.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_virtual_time_only_advances_on_timers(self):
        loop = VirtualTimeLoop()
        stamps = []

        async def sleeper(delay):
            await sleep(delay)
            stamps.append((delay, loop.now))

        loop.create_task(sleeper(2.0))
        loop.create_task(sleeper(1.0))
        loop.run_until_idle()
        # Timers fire in deadline order and set virtual time exactly.
        assert stamps == [(1.0, 1.0), (2.0, 2.0)]

    def test_sleep_zero_yields_behind_ready_tasks(self):
        loop = VirtualTimeLoop()
        order = []

        async def yielder():
            order.append("first-half")
            await sleep(0)
            order.append("second-half")

        async def other():
            order.append("other")

        loop.create_task(yielder())
        loop.create_task(other())
        loop.run_until_idle()
        assert order == ["first-half", "other", "second-half"]
        assert loop.now == 0.0

    def test_future_handoff_and_await_task(self):
        loop = VirtualTimeLoop()
        gate = loop.future()

        async def producer():
            gate.set_result(41)
            return "produced"

        async def consumer():
            value = await gate
            return value + 1

        consumer_task = loop.create_task(consumer())

        async def main():
            await loop.create_task(producer())
            return await consumer_task

        assert loop.run_until_complete(main()) == 42

    def test_deadlock_detected(self):
        loop = VirtualTimeLoop()

        async def waits_forever():
            await loop.future()

        with pytest.raises(RuntimeError, match="deadlock"):
            loop.run_until_complete(waits_forever())

    def test_livelock_budget(self):
        loop = VirtualTimeLoop()

        async def spinner():
            while True:
                await sleep(0)

        loop.create_task(spinner())
        with pytest.raises(RuntimeError, match="steps without going idle"):
            loop.run_until_idle(max_steps=50)

    def test_seeded_interleaving_is_reproducible_and_complete(self):
        def run(seed):
            loop = VirtualTimeLoop(seed=seed)
            order = []

            async def job(tag):
                order.append(tag)
                await sleep(0)
                order.append(tag.upper())

            for tag in "abcdef":
                loop.create_task(job(tag))
            loop.run_until_idle()
            return order

        assert run(3) == run(3)                   # same seed, same schedule
        assert sorted(run(3)) == sorted(run(4))   # nothing lost
        runs = {tuple(run(seed)) for seed in range(8)}
        assert len(runs) > 1, "seeded scheduling never varied the order"

    def test_span_context_propagates_into_tasks(self):
        loop = VirtualTimeLoop()
        parents = []

        async def job():
            parents.append(spans.current_span())

        with spans.Span("outer") as outer:
            loop.create_task(job())
        # The task runs after `outer` closed on the main stack, yet its
        # captured context still nests it under the spawning span.
        loop.run_until_idle()
        assert parents == [outer]


# -- mailboxes -----------------------------------------------------------


def _fill(loop, box, items):
    """Publish ``items`` into ``box`` as one task per put."""
    for item in items:
        loop.create_task(box.put(item), name=f"put:{item}")
    loop.run_until_idle()


class TestMailbox:
    def test_block_policy_parks_publisher_until_get(self):
        loop = VirtualTimeLoop()
        box = Mailbox(loop, capacity=1, policy="block")
        _fill(loop, box, ["m0", "m1"])
        assert len(box) == 1 and box.blocked_waiting == 1

        got = []

        async def take():
            got.append(await box.get())

        loop.create_task(take())
        loop.run_until_idle()
        # The blocked put's message moved into the freed slot.
        assert got == ["m0"] and len(box) == 1 and box.blocked_waiting == 0
        loop.create_task(take())
        loop.run_until_idle()
        assert got == ["m0", "m1"]

    def test_drop_oldest_evicts_head(self):
        loop = VirtualTimeLoop()
        box = Mailbox(loop, capacity=2, policy="drop-oldest")
        _fill(loop, box, ["m0", "m1", "m2"])
        assert list(box._queue) == ["m1", "m2"]
        assert box.dropped == 1

    def test_coalesce_keeps_only_newest(self):
        loop = VirtualTimeLoop()
        box = Mailbox(loop, capacity=2, policy="coalesce")
        _fill(loop, box, ["m0", "m1", "m2"])
        assert list(box._queue) == ["m2"]
        assert box.coalesced == 2

    def test_rejects_bad_configuration(self):
        loop = VirtualTimeLoop()
        with pytest.raises(ValueError, match="capacity"):
            Mailbox(loop, capacity=0)
        with pytest.raises(ValueError, match="policy"):
            Mailbox(loop, policy="backoff")


# -- the async bus -------------------------------------------------------


class TestAsyncMessageBus:
    def test_publish_subscribe_via_drain(self, new_bus):
        bus = new_bus()
        seen = []
        bus.subscribe("t", seen.append)
        post(bus, "t", "hello")
        assert seen == []                 # nothing delivered until drain
        bus.drain()
        assert seen == ["hello"]
        assert bus.history("t") == ["hello"]

    def test_multiple_subscribers_fan_out_per_mailbox_order(self, new_bus):
        bus = new_bus()
        log = []
        bus.subscribe("t", lambda m: log.append(("a", m)))
        bus.subscribe("t", lambda m: log.append(("b", m)))
        post(bus, "t", 1)
        post(bus, "t", 2)
        bus.drain()
        # Each subscriber's mailbox preserves publish order; the
        # interleaving *between* subscribers is per-consumer (each
        # consumer drains its queue) — ordering is a per-mailbox
        # contract.
        assert [m for tag, m in log if tag == "a"] == [1, 2]
        assert [m for tag, m in log if tag == "b"] == [1, 2]
        assert len(log) == 4

    def test_unsubscribe_stops_delivery(self, new_bus):
        bus = new_bus()
        seen = []
        bus.subscribe("t", seen.append)
        bus.unsubscribe("t", seen.append)
        post(bus, "t", 1)
        bus.drain()
        assert seen == []

    def test_async_handlers_are_awaited(self, new_bus):
        bus = new_bus()
        seen = []

        async def handler(message):
            await sleep(0)
            seen.append(message)

        bus.subscribe("t", handler)
        post(bus, "t", "x")
        bus.drain()
        assert seen == ["x"]

    def test_topic_configuration_applies_to_new_subscriptions(self, new_bus):
        bus = new_bus()
        bus.configure_topic("kpi", capacity=1, policy="coalesce")
        seen = []
        bus.subscribe("kpi", seen.append)
        stats = bus.mailbox_stats()["kpi"][0]
        assert stats["capacity"] == 1 and stats["policy"] == "coalesce"

    def test_mailbox_stats_for_one_topic(self, new_bus):
        bus = new_bus()
        bus.subscribe("a", lambda message: None)
        bus.subscribe("b", lambda message: None)
        bus.subscribe("b", lambda message: None)
        post(bus, "b", "x")
        bus.drain()
        everything = bus.mailbox_stats()
        assert bus.mailbox_stats("b") == {"b": everything["b"]}
        assert bus.mailbox_stats("unknown") == {}
        assert "unknown" not in bus.mailbox_stats()  # no entry created

    def test_close_ends_consumers_and_refuses_traffic(self):
        bus = AsyncMessageBus()
        seen = []
        bus.subscribe("t", seen.append)
        post(bus, "t", "x")
        bus.drain()
        bus.subscribe("u", seen.append)  # its consumer never started
        bus.close()
        bus.close()  # a no-op
        assert bus.history("t") == ["x"]
        assert bus.mailbox_stats("t")["t"][0]["delivered"] == 1
        with pytest.raises(RuntimeError, match="closed"):
            bus.subscribe("t", seen.append)
        with pytest.raises(RuntimeError, match="closed"):
            bus.loop.run_until_complete(bus.publish("t", "y"))
        assert bus.drain() == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del bus
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_handler_exception_fails_fast_at_drain(self, new_bus):
        bus = new_bus()

        def handler(message):
            raise ValueError("boom")

        bus.subscribe("t", handler)
        post(bus, "t", 1)
        with pytest.raises(ValueError, match="boom"):
            bus.drain()


# -- property tests (docs/CONTROL_PLANE.md invariants) -------------------


@st.composite
def _mailbox_workload(draw):
    """(policy, capacity, messages, interleaved get count)."""
    policy = draw(st.sampled_from(MAILBOX_POLICIES))
    capacity = draw(st.integers(min_value=1, max_value=8))
    n_messages = draw(st.integers(min_value=1, max_value=40))
    gets = draw(st.integers(min_value=0, max_value=n_messages))
    return policy, capacity, n_messages, gets


@given(_mailbox_workload())
@settings(max_examples=120, deadline=None)
def test_backpressure_never_loses_newest_indication(workload):
    """Whatever the policy, the last-published E2 indication survives.

    ``block`` keeps everything, ``drop-oldest`` evicts from the head,
    ``coalesce`` clears all *but* the newcomer — so the newest message
    must always be queued, in a parked publisher, or already delivered.
    """
    policy, capacity, n_messages, gets = workload
    loop = VirtualTimeLoop()
    box = Mailbox(loop, capacity=capacity, policy=policy)
    indications = [
        E2Indication(node_id="enb", kpis={"bs_power_w": float(i)}, period=i)
        for i in range(n_messages)
    ]
    delivered = []

    async def consumer(count):
        for _ in range(count):
            delivered.append(await box.get())

    loop.create_task(consumer(gets), name="consumer")
    for indication in indications:
        loop.create_task(box.put(indication))
    loop.run_until_idle()

    newest = indications[-1]
    surviving = (
        delivered
        + list(box._queue)
        + [message for _gate, message in box._putters]
    )
    assert newest in surviving, (
        f"policy {policy!r} (capacity {capacity}) lost the newest "
        f"indication: {gets} gets over {n_messages} puts"
    )
    # Delivery preserves publish order for what it does deliver.
    periods = [i.period for i in delivered]
    assert periods == sorted(periods)


@given(_mailbox_workload())
@settings(max_examples=120, deadline=None)
def test_mailbox_counters_reconcile(workload):
    """Once idle: puts == delivered + dropped + coalesced + queued
    + blocked_waiting — no message unaccounted for."""
    policy, capacity, n_messages, gets = workload
    loop = VirtualTimeLoop()
    box = Mailbox(loop, capacity=capacity, policy=policy)
    for i in range(n_messages):
        loop.create_task(box.put(i))

    async def consumer(count):
        for _ in range(count):
            await box.get()

    loop.create_task(consumer(gets), name="consumer")
    loop.run_until_idle()

    stats = box.stats()
    assert stats["puts"] == n_messages
    assert stats["puts"] == (
        stats["delivered"] + stats["dropped"] + stats["coalesced"]
        + stats["queued"] + stats["blocked_waiting"]
    ), f"counters do not reconcile: {stats}"


@given(
    policy=st.sampled_from(MAILBOX_POLICIES),
    capacity=st.integers(min_value=1, max_value=4),
    n_messages=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bus_counters_reconcile_with_published(policy, capacity, n_messages,
                                               seed):
    """Bus-level law under adversarial seeded interleaving: every
    accepted publish is enqueued to every subscriber's mailbox, and each
    mailbox reconciles its counters after the drain barrier."""
    bus = AsyncMessageBus(seed=seed, default_capacity=capacity,
                          default_policy=policy)
    seen = []
    bus.subscribe("e2.indication", seen.append)
    bus.subscribe("e2.indication", lambda m: None)
    for i in range(n_messages):
        post(bus, "e2.indication", i)
    bus.drain()
    bus.close()  # history and counters stay readable

    history = bus.history("e2.indication")
    assert len(history) == n_messages
    assert sorted(history) == list(range(n_messages))
    # The seeded scheduler may run publish tasks in any order (history
    # records the fan-out order chosen) and may let publishers outrun
    # the consumer, so lossy policies can drop — but delivery must be
    # an order-preserving subsequence of history and the newest message
    # must always arrive.
    it = iter(history)
    assert all(m in it for m in seen), "delivery reordered vs history"
    assert seen[-1] == history[-1], "newest message lost"
    for stats in bus.mailbox_stats()["e2.indication"]:
        assert stats["puts"] == n_messages
        assert stats["blocked_waiting"] == 0, "drain left a parked publisher"
        assert stats["queued"] == 0, "drain left an unconsumed message"
        assert stats["puts"] == (
            stats["delivered"] + stats["dropped"] + stats["coalesced"]
        )


# -- E2 indication batching ---------------------------------------------


class TestE2Batching:
    def test_batch_dataclass_rejects_empty(self):
        with pytest.raises(ValueError, match="must not be empty"):
            E2IndicationBatch(node_id="enb", indications=(), period=0)

    def test_batching_flushes_at_size_and_on_demand(self, new_bus):
        from repro.oran.e2 import E2Node, E2Termination

        bus = new_bus()
        term = E2Termination(bus)
        node = E2Node(node_id="enb", bus=bus, batch_size=3)
        bus.drain()
        seen = []
        term.subscribe_kpis(subscriber="kpi", kpi_names=("bs_power_w",))
        term.register_indication_handler(seen.append)
        bus.drain()

        for i in range(4):
            node.report_kpis({"bs_power_w": float(i)})
        bus.drain()
        # One full batch of 3 fanned out; the 4th is still pending.
        assert [i.kpis["bs_power_w"] for i in seen] == [0.0, 1.0, 2.0]
        assert node.pending_indications == 1
        batches = bus.history("e2.indication")
        assert len(batches) == 1 and len(batches[0].indications) == 3

        node.flush()
        bus.drain()
        assert [i.kpis["bs_power_w"] for i in seen] == [0.0, 1.0, 2.0, 3.0]
        assert node.pending_indications == 0
