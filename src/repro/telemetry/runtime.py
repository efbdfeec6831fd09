"""Telemetry runtime: the one record stream of the process.

This module is the single import instrumented code needs::

    from repro.telemetry import runtime as telemetry

    with telemetry.span("engine.posterior") as sp:
        ...
        if sp:
            sp.set("points", n_points)
    telemetry.inc("core.gp.add")
    if telemetry.has_sinks():
        telemetry.emit_record({"type": "kpi", "cell": "cell000", ...})

One process-wide sink list receives everything.  Two gates decide what
reaches it:

* **timing** — spans and counters/gauges/histograms record only while
  :func:`enabled`; while disabled :func:`span` returns the shared
  :data:`~repro.telemetry.spans.NULL_SPAN` singleton and the metric
  helpers return after one flag check;
* **records** — every other record type (``decision``, ``kpi``,
  ``alert``, supervision events, ``metrics`` snapshots) goes through
  :func:`emit_record`, which fans out whenever at least one sink is
  attached.  Producers guard record *construction* with
  :func:`has_sinks`, so with no sink attached no record is built
  (pinned by ``tests/test_telemetry.py``).

:func:`scope` stamps a ``cell`` label on records that carry none (sweep
cells), and :func:`suppress` drops records — never spans — emitted
inside it (crash-recovery replay of periods already emitted).

Recording a run is one context manager::

    with telemetry.record("results/trace.jsonl"):
        run_agent(env, agent, 200)

which attaches a JSONL sink, enables timing, appends a final metrics
snapshot and restores the previous state on exit.  ``python -m repro
report results/trace.jsonl`` renders every record type the file holds.

The same state holds the run's fault plan (read by
:func:`repro.faults.make_injector`) and GP numerics config (read by
:func:`repro.core.numerics.active_numerics`), installed by
:func:`configure`.  :func:`context` freezes it all into the one
:class:`RunContext` a sweep cell receives; :func:`cell` enters it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.telemetry.export import InMemorySink, JsonlSink
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS_S, MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, Span, current_span

if TYPE_CHECKING:  # both import this module at load time
    from repro.core.numerics import NumericsConfig
    from repro.faults.plan import FaultPlan

__all__ = [
    "enabled", "enable", "disable", "add_sink", "remove_sink", "attach",
    "capture", "has_sinks", "get_registry", "reset_metrics",
    "metrics_snapshot", "span", "trace", "current_span", "inc", "observe",
    "set_gauge", "record", "emit_record", "emit_metrics", "scope",
    "suppress", "RunContext", "context", "configure", "cell",
    "next_fault_key",
]


class _Runtime:
    """Mutable process-local telemetry state (one instance per process).

    ``sinks`` is replaced, never mutated, so emitters iterate a
    snapshot without taking the lock.
    """

    __slots__ = ("enabled", "registry", "sinks", "lock", "label",
                 "suppressed", "plan", "seed_path", "instances", "numerics")

    def __init__(self) -> None:
        """Start disabled and fault-free, with no sinks."""
        self.enabled = False
        self.registry = MetricsRegistry()
        self.sinks: tuple = ()
        self.lock = threading.Lock()
        self.label: str | None = None
        self.suppressed = False
        self.plan: FaultPlan | None = None
        self.seed_path: tuple[int, ...] = ()
        self.instances: dict[str, int] = {}
        self.numerics: NumericsConfig | None = None


_STATE = _Runtime()


@dataclass(frozen=True)
class RunContext:
    """A frozen, picklable snapshot of the process state for one cell.

    The installed fault ``plan``, the GP ``numerics`` config (``None``:
    dense), whether ``timing`` is on, and which records the run keeps:
    ``collect`` is ``"none"``, ``"decision"`` or ``"all"``.
    """

    plan: FaultPlan | None = None
    numerics: NumericsConfig | None = None
    timing: bool = False
    collect: str = "none"


def context() -> RunContext:
    """Freeze the current process state into a :class:`RunContext`."""
    collect = ("none" if not _STATE.sinks
               else "all" if has_sinks("span") else "decision")
    return RunContext(_STATE.plan, _STATE.numerics, _STATE.enabled, collect)


def _install(*config) -> tuple:
    """Swap in ``(plan, seed_path, instances, numerics)``; return the old."""
    previous = (_STATE.plan, _STATE.seed_path, _STATE.instances,
                _STATE.numerics)
    (_STATE.plan, _STATE.seed_path, _STATE.instances,
     _STATE.numerics) = config
    return previous


@contextmanager
def configure(*, plan: FaultPlan | None = None,
              numerics: NumericsConfig | None = None):
    """Install a fault plan and/or a numerics config for the block.

    The run-level scope (the CLI's ``--faults``, ``--numerics``,
    ``--gp-budget``): ``None`` keeps what is installed, a new plan
    starts with fresh injector counters, and exit restores it all.
    """
    kept = (_STATE.plan, _STATE.seed_path, _STATE.instances)
    previous = _install(*(kept if plan is None else (plan, (), {})),
                        numerics or _STATE.numerics)
    try:
        yield
    finally:
        _install(*previous)


@contextmanager
def cell(ctx: RunContext, label: str, seed_path: tuple[int, ...] = ()):
    """Enter ``ctx`` for one sweep cell; yields its capture sink or ``None``.

    The plan is installed at ``seed_path`` (the cell's spawn key) with
    fresh injector counters, so fault streams are per-cell reproducible
    in any process.  A timed context whose process is not timing yet
    (a pool worker) times the cell over a fresh registry.  A collecting
    context runs the cell under its own :func:`capture`, keeping only
    decision records when ``collect`` is ``"decision"``, with
    label-less records stamped ``cell: <label>``.  Exit restores it all.
    """
    previous = _install(ctx.plan, tuple(int(k) for k in seed_path), {},
                        ctx.numerics)
    timed = ctx.timing and not _STATE.enabled
    if timed:
        reset_metrics()
        _STATE.enabled = True
    try:
        if ctx.collect == "none":
            yield None
        else:
            types = ("decision",) if ctx.collect == "decision" else None
            with capture(types) as sink, scope(label):
                yield sink
    finally:
        if timed:
            _STATE.enabled = False
        _install(*previous)


def next_fault_key(kind: str) -> tuple[int, ...]:
    """Claim the next ``kind`` injector's spawn-key tail under the plan:
    ``(*seed_path, instance)``, advancing the kind's counter."""
    instance = _STATE.instances.get(kind, 0)
    _STATE.instances[kind] = instance + 1
    return (*_STATE.seed_path, instance)


# -- switching ----------------------------------------------------------


def enabled() -> bool:
    """Whether spans and metrics are currently recording."""
    return _STATE.enabled


def enable(*sinks) -> None:
    """Turn timing on, optionally attaching ``sinks`` first."""
    for sink in sinks:
        add_sink(sink)
    _STATE.enabled = True


def disable() -> None:
    """Turn timing off (sinks and metrics are left in place)."""
    _STATE.enabled = False


def has_sinks(record_type: str | None = None) -> bool:
    """Whether a sink is attached that keeps ``record_type`` records.

    With no type, whether any sink is attached.  Producers ask for
    their own type before building a record, so a cell that collects
    only decisions builds no span or KPI record.
    """
    sinks = _STATE.sinks
    if record_type is None:
        return bool(sinks)
    return any(
        getattr(sink, "types", None) is None or record_type in sink.types
        for sink in sinks
    )


def add_sink(sink) -> None:
    """Attach a sink (an object with ``emit(record)``)."""
    if not hasattr(sink, "emit"):
        raise TypeError(f"sink must expose emit(record), got {sink!r}")
    with _STATE.lock:
        if sink not in _STATE.sinks:
            _STATE.sinks = _STATE.sinks + (sink,)


def remove_sink(sink) -> None:
    """Detach a sink (no-op if absent)."""
    with _STATE.lock:
        _STATE.sinks = tuple(s for s in _STATE.sinks if s is not sink)


@contextmanager
def attach(sink):
    """Attach ``sink`` for the duration of the block; yields it.

    Sinks attached by an outer scope stay attached and keep receiving
    every record; the caller owns (and closes) ``sink``.
    """
    add_sink(sink)
    try:
        yield sink
    finally:
        remove_sink(sink)


@contextmanager
def capture(types=None):
    """Route the block's spans and records to one fresh in-memory sink.

    The yielded :class:`~repro.telemetry.export.InMemorySink` (keeping
    only ``types`` records when given) is the *only* sink inside the
    block; the previous sinks are reattached on exit.  Sweep cells run
    under it so each cell's records are collected once, whether the
    cell runs in this process or in a forked worker that inherited the
    parent's sinks.
    """
    sink = InMemorySink(types)
    with _STATE.lock:
        previous, _STATE.sinks = _STATE.sinks, (sink,)
    try:
        yield sink
    finally:
        with _STATE.lock:
            _STATE.sinks = previous


# -- metrics ------------------------------------------------------------


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry (live, always usable)."""
    return _STATE.registry


def reset_metrics() -> None:
    """Clear every metric in the process registry."""
    _STATE.registry.reset()


def metrics_snapshot() -> dict:
    """Plain-dict snapshot of all counters/gauges/histograms."""
    return _STATE.registry.snapshot()


def inc(name: str, value: int = 1) -> None:
    """Increment counter ``name`` — no-op while disabled."""
    if not _STATE.enabled:
        return
    _STATE.registry.counter(name).inc(value)


def observe(name: str, value: float,
            upper_bounds: tuple[float, ...] = DEFAULT_TIME_BUCKETS_S) -> None:
    """Record ``value`` in histogram ``name`` — no-op while disabled."""
    if not _STATE.enabled:
        return
    _STATE.registry.histogram(name, upper_bounds).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` — no-op while disabled."""
    if not _STATE.enabled:
        return
    _STATE.registry.gauge(name).set(value)


# -- spans and records ---------------------------------------------------


def _emit_span(completed: Span) -> None:
    """Fan one finished span's record out to every sink."""
    record = completed.to_record()
    for sink in _STATE.sinks:
        sink.emit(record)


def emit_record(record: dict) -> None:
    """Fan one non-span record out to every attached sink.

    The one entry for ``decision``, ``kpi``, ``alert``, supervision
    event and ``metrics`` records: a no-op with no sink attached or
    inside :func:`suppress`; inside :func:`scope` a record without a
    ``cell`` field gains the scope's label (right after ``type``).
    Readers skip record types they do not know.
    """
    sinks = _STATE.sinks
    if not sinks or _STATE.suppressed:
        return
    label = _STATE.label
    if label is not None and "cell" not in record:
        record = {"type": record.get("type"), "cell": label, **record}
    for sink in sinks:
        sink.emit(record)


@contextmanager
def scope(label: str):
    """Stamp ``label`` as ``cell`` on label-less records in the block.

    Sweep cells run under their cell id, so merged traces keep each
    record's provenance; a record's own ``cell`` is never overwritten.
    """
    previous = _STATE.label
    _STATE.label = str(label)
    try:
        yield
    finally:
        _STATE.label = previous


@contextmanager
def suppress():
    """Drop the records emitted inside the block; spans still flow.

    The fleet supervisor wraps crash-recovery replay of periods the
    run already emitted: the replay does real work (timed as usual)
    and its tracer state must advance, but its records would be
    duplicates.
    """
    previous = _STATE.suppressed
    _STATE.suppressed = True
    try:
        yield
    finally:
        _STATE.suppressed = previous


def span(name: str, **attrs) -> "Span":
    """A context manager timing ``name`` — :data:`NULL_SPAN` when disabled.

    The flag is checked before any allocation; keyword arguments become
    span attributes.  Hot paths should pass no kwargs and instead set
    attributes under an ``if sp:`` guard so attribute computation is
    also skipped while disabled.
    """
    if not _STATE.enabled:
        return NULL_SPAN
    return Span(name, attrs, emit=_emit_span)


#: Alias of :func:`span` — ``with telemetry.trace("env.step"): ...``.
trace = span


def emit_metrics(extra: dict | None = None) -> dict:
    """Stream one metrics-snapshot record (:func:`emit_record`); returns it."""
    record = {"type": "metrics", **metrics_snapshot()}
    if extra:
        record.update(extra)
    emit_record(record)
    return record


# -- one-shot recording -------------------------------------------------


@contextmanager
def record(path: "str | None" = None, reset: bool = True):
    """Record everything inside the block to a JSONL file (or memory).

    Parameters
    ----------
    path:
        Destination JSONL file; ``None`` buffers records in an
        :class:`~repro.telemetry.export.InMemorySink` instead (the
        sink is the value yielded either way).
    reset:
        Clear the metrics registry on entry so the final snapshot
        covers exactly this block (default true).

    The previous enabled state is restored on exit, a final metrics
    snapshot is appended, and the sink is detached and closed.
    """
    sink = InMemorySink() if path is None else JsonlSink(path)
    was_enabled = _STATE.enabled
    if reset:
        reset_metrics()
    add_sink(sink)
    enable()
    try:
        yield sink
    finally:
        emit_metrics()
        _STATE.enabled = was_enabled
        remove_sink(sink)
        sink.close()
