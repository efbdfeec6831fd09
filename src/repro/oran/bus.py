"""Topic-based message transport on the deterministic event loop.

The O-RAN interfaces are transported over an in-process bus: components
publish to named topics ("a1.request", "e2.control", "o1.report", ...)
and subscribers consume them.  In :class:`AsyncMessageBus` each
subscriber owns a bounded :class:`Mailbox` drained by a consumer task
on a :class:`~repro.oran.loop.VirtualTimeLoop`.  Publishing enqueues;
delivery happens when the loop runs.  Backpressure is explicit and
per-subscriber: ``block`` (publisher waits for space), ``drop-oldest``
(evict the oldest queued message) or ``coalesce`` (keep only the
newest).  See ``docs/CONTROL_PLANE.md`` for the policy table and the
determinism contract.

:func:`post` schedules a publish from synchronous call sites.

When a fault plan with ``bus`` specs is installed (see
``docs/ROBUSTNESS.md``), publishes may be dropped (mode ``loss``) or
held back and delivered before a later publish on the same topic (mode
``delay``) — modelling a lossy/reordering O-RAN transport.  Fault
decisions are drawn once per publish, in publish order, so a faulted
run is as reproducible as a clean one.
"""

from __future__ import annotations

from collections import defaultdict, deque
from types import CoroutineType

from repro.faults import make_injector
from repro.oran.loop import Future, VirtualTimeLoop
from repro.telemetry import runtime as telemetry
from repro.telemetry import spans

__all__ = [
    "AsyncMessageBus",
    "Mailbox",
    "MAILBOX_POLICIES",
    "post",
]


#: Backpressure policies a :class:`Mailbox` supports when full.
MAILBOX_POLICIES = ("block", "drop-oldest", "coalesce")

#: Sentinel closing a subscriber's consumer task.
_CLOSE = object()


class Mailbox:
    """Bounded per-subscriber queue with an explicit overflow policy.

    Policies when a ``put`` finds the queue at capacity:

    ``block``
        The publisher task parks until the consumer frees a slot —
        lossless, propagates backpressure upstream.
    ``drop-oldest``
        The oldest queued message is evicted to admit the new one —
        bounded loss, keeps the freshest window.
    ``coalesce``
        The whole queue is replaced by the new message — for topics
        where only the latest value matters (KPI gauges, alerts).

    Every policy preserves the *newest* message (property-tested in
    ``tests/test_async_bus.py``).  Counters reconcile as::

        puts == delivered + dropped + coalesced + queued + blocked_waiting

    once the loop is idle.
    """

    def __init__(self, loop: VirtualTimeLoop, capacity: int = 64,
                 policy: str = "block", name: str = "mailbox") -> None:
        """Create an empty mailbox on ``loop`` with the given policy."""
        if capacity < 1:
            raise ValueError(f"mailbox capacity must be >= 1, got {capacity}")
        if policy not in MAILBOX_POLICIES:
            raise ValueError(
                f"unknown mailbox policy {policy!r} "
                f"(expected one of {MAILBOX_POLICIES})"
            )
        self._loop = loop
        self.capacity = int(capacity)
        self.policy = policy
        self.name = name
        self._queue: deque = deque()
        self._getters: deque[Future] = deque()
        self._putters: deque[tuple[Future, object]] = deque()
        #: Counters (see class docstring for the reconciliation law).
        self.puts = 0
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0
        self.blocked = 0

    def __len__(self) -> int:
        """Messages currently queued (excludes blocked publishers)."""
        return len(self._queue)

    @property
    def blocked_waiting(self) -> int:
        """Publishers currently parked by the ``block`` policy."""
        return len(self._putters)

    async def put(self, message: object) -> None:
        """Enqueue ``message``, applying the overflow policy when full."""
        self.puts += 1
        if self._getters:
            # A consumer is parked on an empty queue: hand off directly.
            self._getters.popleft().set_result(message)
            return
        if len(self._queue) < self.capacity:
            self._queue.append(message)
            return
        if self.policy == "drop-oldest":
            self._queue.popleft()
            self.dropped += 1
            telemetry.inc("oran.mailbox.dropped")
            self._queue.append(message)
            return
        if self.policy == "coalesce":
            self.coalesced += len(self._queue)
            telemetry.inc("oran.mailbox.coalesced", len(self._queue))
            self._queue.clear()
            self._queue.append(message)
            return
        # block: park this publisher until the consumer makes room.
        self.blocked += 1
        telemetry.inc("oran.mailbox.blocked")
        gate = Future(self._loop)
        self._putters.append((gate, message))
        await gate

    async def get(self) -> object:
        """Dequeue the next message, parking while the queue is empty."""
        if self._queue:
            message = self._queue.popleft()
            if self._putters:
                gate, held = self._putters.popleft()
                self._queue.append(held)
                gate.set_result(None)
            self.delivered += 1
            return message
        gate = Future(self._loop)
        self._getters.append(gate)
        message = await gate
        self.delivered += 1
        return message

    def stats(self) -> dict:
        """Counter snapshot (plus live queue/blocked occupancy)."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "policy": self.policy,
            "puts": self.puts,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "coalesced": self.coalesced,
            "blocked": self.blocked,
            "queued": len(self._queue),
            "blocked_waiting": len(self._putters),
        }


class _TracedMessage:
    """Envelope carrying the publisher's span context with a message.

    Created by :meth:`AsyncMessageBus._fan_out` only while telemetry is
    recording *and* the publishing task has a span open; the consumer
    unwraps it before the handler runs, so handlers never see the
    envelope.  This is what stitches one fleet round into a single span
    tree across bus hops (see :mod:`repro.fleetobs.tracing`).
    """

    __slots__ = ("message", "context")

    def __init__(self, message: object, context: list) -> None:
        self.message = message
        self.context = context


class _Subscriber:
    """One subscription: handler + mailbox + its consumer task."""

    __slots__ = ("handler", "mailbox", "task", "closed", "topic")

    def __init__(self, handler, mailbox: Mailbox, topic: str = "") -> None:
        self.handler = handler
        self.mailbox = mailbox
        self.task = None
        self.closed = False
        self.topic = topic


class AsyncMessageBus:
    """Event-loop pub/sub transport with per-subscriber mailboxes.

    Publishing appends to every subscriber's mailbox (awaiting space
    under the ``block`` policy); each subscriber's consumer task drains
    its mailbox in order and invokes the handler (sync handlers are
    called, coroutine-returning handlers are awaited).  Nothing is
    delivered until the loop runs — :meth:`drain` is the quiescence
    barrier callers synchronise on.

    History records messages in *fan-out* order (the moment a message
    is accepted and enqueued to subscribers), which for delayed-fault
    messages is their release point — i.e. history order is delivery
    order.

    Parameters
    ----------
    loop:
        The scheduler to run on (a fresh FIFO loop by default).
    history_limit:
        Messages retained per topic for inspection.
    default_capacity, default_policy:
        Mailbox bounds for topics without explicit configuration
        (:meth:`configure_topic` / per-``subscribe`` overrides).
    seed:
        Convenience: seeds a newly created loop's tie-breaking (ignored
        when ``loop`` is given).
    """

    def __init__(self, loop: VirtualTimeLoop | None = None,
                 history_limit: int = 1000, default_capacity: int = 64,
                 default_policy: str = "block", seed=None) -> None:
        if history_limit < 1:
            raise ValueError(f"history_limit must be >= 1, got {history_limit}")
        if default_capacity < 1:
            raise ValueError(
                f"default_capacity must be >= 1, got {default_capacity}"
            )
        if default_policy not in MAILBOX_POLICIES:
            raise ValueError(
                f"unknown mailbox policy {default_policy!r} "
                f"(expected one of {MAILBOX_POLICIES})"
            )
        self.loop = loop if loop is not None else VirtualTimeLoop(seed=seed)
        self.default_capacity = int(default_capacity)
        self.default_policy = default_policy
        self._topic_config: dict[str, tuple[int | None, str | None]] = {}
        self._subscribers: dict[str, list[_Subscriber]] = defaultdict(list)
        self._history: dict[str, deque] = defaultdict(
            lambda: deque(maxlen=history_limit)
        )
        self._bus_faults = make_injector("bus")
        self._delayed: dict[str, list[list]] = defaultdict(list)
        self._closed = False

    # -- configuration ---------------------------------------------------

    def configure_topic(self, topic: str, capacity: int | None = None,
                        policy: str | None = None) -> None:
        """Set mailbox bounds for *future* subscriptions on ``topic``."""
        if not topic:
            raise ValueError("topic must be non-empty")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy is not None and policy not in MAILBOX_POLICIES:
            raise ValueError(
                f"unknown mailbox policy {policy!r} "
                f"(expected one of {MAILBOX_POLICIES})"
            )
        self._topic_config[topic] = (capacity, policy)

    def subscribe(self, topic: str, handler, capacity: int | None = None,
                  policy: str | None = None) -> None:
        """Register ``handler`` with its own mailbox and consumer task.

        Mailbox bounds resolve: explicit arguments, then
        :meth:`configure_topic`, then the bus defaults.
        """
        if not topic:
            raise ValueError("topic must be non-empty")
        if not callable(handler):
            raise TypeError("handler must be callable")
        if self._closed:
            raise RuntimeError("the bus is closed")
        topic_capacity, topic_policy = self._topic_config.get(topic, (None, None))
        capacity = capacity if capacity is not None else topic_capacity
        policy = policy if policy is not None else topic_policy
        mailbox = Mailbox(
            self.loop,
            capacity=capacity if capacity is not None else self.default_capacity,
            policy=policy if policy is not None else self.default_policy,
            name=f"{topic}#{len(self._subscribers[topic])}",
        )
        subscriber = _Subscriber(handler, mailbox, topic=topic)
        subscriber.task = self.loop.create_task(
            self._consume(subscriber), name=f"consume:{mailbox.name}"
        )
        self._subscribers[topic].append(subscriber)

    def unsubscribe(self, topic: str, handler) -> None:
        """Remove a subscription; its consumer exits at the next drain."""
        for subscriber in list(self._subscribers.get(topic, [])):
            # Equality, not identity: bound methods (``seen.append``)
            # are fresh objects per access yet compare equal.
            if subscriber.handler == handler and not subscriber.closed:
                subscriber.closed = True
                self._subscribers[topic].remove(subscriber)
                self.loop.create_task(
                    subscriber.mailbox.put(_CLOSE),
                    name=f"close:{subscriber.mailbox.name}",
                )
                return

    # -- publish path ----------------------------------------------------

    async def publish(self, topic: str, message: object) -> int:
        """Enqueue ``message`` to every subscriber of ``topic``.

        Returns the number of subscribers the message was enqueued to
        (delivery to handlers completes when the loop drains).  Under an
        installed fault plan a publish may be dropped (``loss``,
        ``oran.bus.lost``, returns 0) or held back for ``magnitude``
        subsequent publishes on the topic (``delay``,
        ``oran.bus.delayed`` — fanned out, late and out of order, ahead
        of the publish that releases it).
        """
        if not topic:
            raise ValueError("topic must be non-empty")
        if self._closed:
            raise RuntimeError("the bus is closed")
        if self._bus_faults is not None:
            spec = self._bus_faults.bus_decision(topic)
            if spec is not None and spec.mode == "loss":
                telemetry.inc("oran.bus.lost")
                return 0
            await self._release_due(topic)
            if spec is not None and spec.mode == "delay":
                hold = max(1, int(spec.magnitude))
                self._delayed[topic].append([hold, message])
                telemetry.inc("oran.bus.delayed")
                return 0
        return await self._fan_out(topic, message)

    async def _release_due(self, topic: str) -> None:
        """Age held-back messages by one publish; fan out any now due.

        Due entries are removed from the held queue and the new held
        state committed *before* any message is fanned out: a publish
        that interleaves on the same topic re-enters this method and
        must observe the post-release state, or it would age the same
        entries twice and deliver duplicates out of history order.
        """
        held = self._delayed[topic]
        if not held:
            return
        due: list[list] = []
        still_held: list[list] = []
        for entry in held:
            entry[0] -= 1
            (due if entry[0] <= 0 else still_held).append(entry)
        self._delayed[topic] = still_held
        for entry in due:
            await self._fan_out(topic, entry[1])

    async def _fan_out(self, topic: str, message: object) -> int:
        """Record ``message`` and enqueue it to every subscriber.

        While telemetry is recording and the publishing task has a span
        open, the mailboxes receive a :class:`_TracedMessage` envelope
        carrying the publisher's span context (history keeps the bare
        message either way) — causal tracing adds no messages, tasks or
        counter increments, so traced runs stay bit-identical.
        """
        self._history[topic].append(message)
        telemetry.inc("oran.bus.published")
        subscribers = [
            s for s in self._subscribers.get(topic, []) if not s.closed
        ]
        payload = message
        if telemetry.enabled():
            context = spans.get_context()
            if context:
                payload = _TracedMessage(message, list(context))
        for subscriber in subscribers:
            await subscriber.mailbox.put(payload)
        return len(subscribers)

    async def _consume(self, subscriber: _Subscriber):
        """Consumer task: drain the mailbox, invoking the handler.

        A traced envelope restores the publisher's span context around
        the handler under a ``bus.deliver`` span, so spans opened by
        the handler (and messages it publishes in turn) parent under
        the span that published this message.
        """
        while True:
            message = await subscriber.mailbox.get()
            if message is _CLOSE:
                return
            telemetry.inc("oran.bus.delivered")
            if type(message) is _TracedMessage:
                saved = spans.set_context(list(message.context))
                try:
                    with telemetry.span(
                        "bus.deliver", topic=subscriber.topic
                    ):
                        result = subscriber.handler(message.message)
                        if isinstance(result, CoroutineType):
                            await result
                finally:
                    spans.set_context(saved)
                continue
            result = subscriber.handler(message)
            if isinstance(result, CoroutineType):
                await result

    # -- synchronisation & inspection ------------------------------------

    def close(self) -> None:
        """Close every consumer coroutine; the bus takes no more traffic.

        Consumers park on their empty mailboxes for good, so without a
        close they are finalised by the garbage collector, in whatever
        order it picks — a coroutine finalised before its task reports
        "never awaited".  Call it once the bus is drained for the last
        time; publishing or subscribing afterwards raises
        ``RuntimeError``.  History and mailbox counters stay readable.
        Closing twice is a no-op.
        """
        self._closed = True
        for subscribers in self._subscribers.values():
            for subscriber in subscribers:
                subscriber.closed = True
                subscriber.task.close()

    def drain(self) -> int:
        """Run the loop until quiescent; returns task steps executed.

        After ``drain`` every accepted publish has been handled (or is
        held back by a delay fault) and every consumer is parked on an
        empty mailbox — the barrier a period's stages synchronise on.
        """
        return self.loop.run_until_idle()

    def history(self, topic: str) -> list:
        """Messages fanned out on ``topic`` (delivery order, bounded)."""
        return list(self._history.get(topic, []))

    def topics(self) -> list[str]:
        """Topics that have seen at least one subscriber or message."""
        return sorted(set(self._subscribers) | set(self._history))

    def mailbox_stats(self, topic: str | None = None) -> dict[str, list[dict]]:
        """Per-topic list of subscriber mailbox counter snapshots.

        With ``topic``, only that topic's entry (if it has subscribers):
        a per-cell poll then costs that topic's mailboxes, not the bus's.
        """
        topics = self._subscribers if topic is None else (topic,)
        return {
            name: [s.mailbox.stats() for s in subs]
            for name in topics
            if (subs := self._subscribers.get(name))
        }


def post(bus: AsyncMessageBus, topic: str, message: object):
    """Schedule a publish on ``bus`` from synchronous code.

    The publish runs as a loop task (so backpressure applies inside the
    task); the :class:`~repro.oran.loop.Task` handle is returned and
    delivery completes at the next :meth:`AsyncMessageBus.drain`.
    """
    return bus.loop.create_task(bus.publish(topic, message), name=f"post:{topic}")
