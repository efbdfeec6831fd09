"""Deterministic seeded virtual-time event loop for the O-RAN runtime.

The control plane must preserve two invariants that a scheduler with
any nondeterminism would break:

* **bit-identity** — a single-cell run through the bus must produce
  the same RunLog rows and decision-trace records on every run at the
  same seed (pinned by committed digests in ``tests/test_fleet.py``);
* **``--jobs 1 ≡ --jobs N``** — sweep determinism must survive, so no
  wall-clock time or OS scheduling may leak into results.

``asyncio``'s default loop satisfies neither (its ready queue order
depends on timers and I/O readiness, and ``loop.time()`` is the
monotonic clock), so this module implements a minimal cooperative
scheduler over plain coroutines instead:

* time is *virtual* — :attr:`VirtualTimeLoop.now` only advances when
  the ready queue empties and the earliest timer fires;
* the ready queue is FIFO by default, giving one canonical execution
  order; passing ``seed=`` enables *deterministic adversarial
  interleaving* — ready tasks are picked by a seeded RNG, so tests can
  explore schedules reproducibly (same seed, same schedule);
* :meth:`VirtualTimeLoop.run_until_idle` is the quiescence barrier the
  control plane synchronises on: it steps tasks until none is runnable
  and no timer is pending (tasks parked on a :class:`Future` count as
  idle), which is what makes a drained period's outcome independent
  of how its tasks interleaved.

Telemetry spans propagate across tasks: each task carries its own span
stack (:func:`repro.telemetry.spans.get_context` /
``set_context``), seeded from the stack open at ``create_task`` time,
so a span opened inside a task nests under the spawning span rather
than under whichever span is open when the scheduler resumes it.

Coroutines may only await :class:`Future`, :func:`sleep` results and
other tasks (a :class:`Task` is awaitable through its completion
future).  Exceptions raised inside a task propagate out of the loop's
run methods — the control plane fails fast: a handler exception
reaches whoever drains the bus.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from repro.telemetry import spans
from repro.utils.rng import ensure_rng

__all__ = ["Future", "Task", "VirtualTimeLoop", "sleep"]


class Future:
    """A one-shot result container tasks can await.

    Created against a loop; :meth:`set_result` marks it done and
    reschedules every awaiting task with the value.  Awaiting an
    already-done future resumes immediately (well-defined order: the
    awaiting task re-enters the ready queue).
    """

    __slots__ = ("_loop", "_value", "_done", "_waiters")

    def __init__(self, loop: "VirtualTimeLoop") -> None:
        """Bind the future to ``loop`` (which resumes its waiters)."""
        self._loop = loop
        self._value = None
        self._done = False
        self._waiters: list[Task] = []

    def done(self) -> bool:
        """Whether :meth:`set_result` has been called."""
        return self._done

    def result(self):
        """The value set, raising if the future is not done yet."""
        if not self._done:
            raise RuntimeError("future result is not set yet")
        return self._value

    def set_result(self, value=None) -> None:
        """Resolve with ``value`` and reschedule all awaiting tasks."""
        if self._done:
            raise RuntimeError("future result already set")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self._loop._resume(task, value)

    def __await__(self):
        """Suspend the awaiting task until resolved; yields the value."""
        if not self._done:
            yield self
        if not self._done:
            raise RuntimeError("future-parked task resumed without a result")
        return self._value


class _Sleep:
    """Awaitable marker scheduling a virtual-time timer."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        self.delay = float(delay)

    def __await__(self):
        """Park the task on the loop's timer heap for ``delay``."""
        yield self
        return None


def sleep(delay: float) -> _Sleep:
    """Awaitable advancing the task by ``delay`` units of virtual time.

    ``sleep(0)`` yields the scheduler once (the task re-queues at the
    current virtual time, behind already-ready tasks).
    """
    if delay < 0:
        raise ValueError(f"sleep delay must be non-negative, got {delay}")
    return _Sleep(delay)


class Task:
    """One coroutine driven by the loop.

    ``result`` holds the coroutine's return value once ``done``;
    awaiting a task awaits its completion future.
    """

    __slots__ = ("coro", "name", "done", "result", "_context", "_completion")

    def __init__(self, coro, name: str, loop: "VirtualTimeLoop") -> None:
        """Wrap ``coro``; the spawning span context is captured here."""
        self.coro = coro
        self.name = name
        self.done = False
        self.result = None
        # Tasks inherit a *copy* of the creator's span stack: pops
        # inside the task must not disturb the creator's open spans.
        self._context: list = list(spans.get_context())
        self._completion = Future(loop)

    def __await__(self):
        """Await the task's completion; yields its return value."""
        return self._completion.__await__()

    def close(self) -> None:
        """Close the task's coroutine and mark the task done.

        For long-lived service tasks (bus consumers parked on empty
        mailboxes), which never complete on their own.  A closed task
        still waiting on the ready queue is skipped.
        """
        if not self.done:
            self.done = True
            self.coro.close()

    def __del__(self):
        """Close an unfinished coroutine quietly at collection time.

        Only a safety net: when the garbage collector finalises the
        coroutine before its task, the coroutine still warns that it
        was never awaited, so owners close their service tasks
        themselves (:meth:`close`).
        """
        if not self.done:
            try:
                self.coro.close()
            except Exception:
                pass

    def __repr__(self) -> str:
        """Debug rendering with name and completion state."""
        state = "done" if self.done else "pending"
        return f"Task({self.name!r}, {state})"


class VirtualTimeLoop:
    """Single-threaded deterministic coroutine scheduler (see module doc).

    Parameters
    ----------
    seed:
        ``None`` (default) runs the ready queue strictly FIFO — the
        canonical order the bit-identity contract is stated for.  Any
        seed enables reproducible pseudo-random selection among ready
        tasks, for schedule-robustness tests.
    """

    #: Step budget guarding :meth:`run_until_idle` against livelock.
    MAX_STEPS = 1_000_000

    def __init__(self, seed=None) -> None:
        """Create an empty loop at virtual time zero."""
        self.now = 0.0
        self.steps = 0
        self._ready: deque[tuple[Task, object]] = deque()
        self._timers: list[tuple[float, int, Task]] = []
        self._seq = itertools.count()
        self._rng = None if seed is None else ensure_rng(seed)
        self._current: Task | None = None

    # -- task management -------------------------------------------------

    def create_task(self, coro, name: str | None = None) -> Task:
        """Schedule ``coro`` to run; returns its :class:`Task` handle."""
        if not hasattr(coro, "send"):
            raise TypeError(f"create_task needs a coroutine, got {coro!r}")
        task = Task(coro, name or getattr(coro, "__name__", "task"), self)
        self._ready.append((task, None))
        return task

    def future(self) -> Future:
        """A fresh unresolved :class:`Future` bound to this loop."""
        return Future(self)

    def _resume(self, task: Task, value) -> None:
        """Put a parked task back on the ready queue with ``value``."""
        self._ready.append((task, value))

    # -- scheduling ------------------------------------------------------

    def _pop_ready(self) -> tuple[Task, object]:
        """Next ready entry: FIFO, or seeded choice when jittered."""
        if self._rng is not None and len(self._ready) > 1:
            index = int(self._rng.integers(len(self._ready)))
            self._ready.rotate(-index)
            entry = self._ready.popleft()
            self._ready.rotate(index)
            return entry
        return self._ready.popleft()

    def _step(self, task: Task, value) -> None:
        """Advance one task by one suspension point."""
        if task.done:  # closed while it was ready
            return
        self.steps += 1
        saved = spans.set_context(task._context)
        self._current = task
        try:
            try:
                yielded = task.coro.send(value)
            except StopIteration as stop:
                task.done = True
                task.result = stop.value
                task._completion.set_result(stop.value)
                return
        finally:
            task._context = spans.set_context(saved)
            self._current = None
        if isinstance(yielded, Future):
            if yielded.done():
                self._ready.append((task, yielded.result()))
            else:
                yielded._waiters.append(task)
        elif isinstance(yielded, _Sleep):
            heapq.heappush(
                self._timers, (self.now + yielded.delay, next(self._seq), task)
            )
        else:
            raise RuntimeError(
                f"task {task.name!r} awaited unsupported {yielded!r} "
                "(only Future, sleep() and Task are awaitable on this loop)"
            )

    def run_until_idle(self, max_steps: int | None = None) -> int:
        """Run until no task is runnable and no timer pending.

        Tasks parked on unresolved futures (e.g. bus consumers waiting
        on empty mailboxes) count as idle.  Virtual time advances to
        each timer deadline as the ready queue empties.  Returns the
        number of task steps executed; raises ``RuntimeError`` if the
        step budget is exhausted (livelock guard).
        """
        budget = self.MAX_STEPS if max_steps is None else int(max_steps)
        executed = 0
        while self._ready or self._timers:
            if not self._ready:
                deadline, _, task = heapq.heappop(self._timers)
                if deadline > self.now:
                    self.now = deadline
                self._ready.append((task, None))
            task, value = self._pop_ready()
            self._step(task, value)
            executed += 1
            if executed > budget:
                raise RuntimeError(
                    f"event loop exceeded {budget} steps without going idle "
                    "(livelock? raise max_steps if the workload is real)"
                )
        return executed

    def run_until_complete(self, coro):
        """Drive ``coro`` (plus anything it spawns) to completion."""
        task = self.create_task(coro, name="run_until_complete")
        self.run_until_idle()
        if not task.done:
            raise RuntimeError(
                f"task {task.name!r} did not complete: it is parked on a "
                "future no remaining task can resolve (deadlock)"
            )
        return task.result
