"""Per-cell fleet supervision: checkpoints, restarts, circuit breaking.

:class:`FleetSupervisor` sits beside :class:`~repro.oran.runtime.FleetRuntime`
and gives the fleet crash-recovery semantics on the shared event loop:

* **Periodic checkpoints** — every ``snapshot_every`` periods each live
  cell's agent, environment, decision tracer and run log are serialised
  through :mod:`repro.core.state` into a checksum-framed blob; a small
  ring of recent snapshots (plus the ``t = 0`` anchor) is retained.
* **Failure detection** — cell-task crashes are observed directly
  (the ``cell``/``crash`` fault kind); *stalls* (``loop``/``stall``)
  are silent, so the supervisor watches per-cell heartbeats and
  declares a cell failed once it has made no progress for
  ``stall_timeout`` periods.
* **Restart policy** — the first restart of a failure burst is
  immediate; subsequent restarts within ``restart_window`` back off
  exponentially (``backoff_base * backoff_factor**k``, capped at
  ``max_backoff`` periods).  More than ``max_restarts`` restarts inside
  the window escalates the cell to *quarantine*: it is taken out of
  service permanently and reported as a partial cell.
* **Warm restore + replay** — recovery restores the newest intact
  snapshot (corrupt ones are detected by checksum and skipped, falling
  back to older checkpoints) and replays the missed periods through the
  normal per-cell control path.  Periods the uninterrupted run already
  emitted are replayed under :func:`repro.telemetry.runtime.suppress` so
  the record stream gains no duplicates; the replay itself is
  **bit-identical** to the uninterrupted run at the same seed because
  every RNG stream position was snapshotted (``tests/test_supervisor.py``
  asserts RunLog-row and decision-trace equality per recovered cell).
* **Mailbox circuit breaker** — per-cell overload counters (dropped +
  coalesced + blocked on the cell's ``e2.indication`` topic) are
  sampled each period; a delta of at least ``breaker_threshold``
  opens the breaker for ``breaker_cooldown`` periods, during which the
  cell is *shed* to the S0 degraded-service path (no bus traffic, no
  A1 round trip) instead of blocking the loop.

Fault injection (the ``cell``/``loop``/``snapshot``/``mailbox`` kinds of
:mod:`repro.faults`) is consulted whether or not supervision is enabled
— faults are environmental, supervision is the response — so an
unsupervised fleet under the same plan shows the cost of *not* having
the subsystem (dead cells, partial logs).  All firing decisions are
seeded, so fleet chaos runs replay bit-identically.

Tuning notes live in ``docs/ROBUSTNESS.md`` ("Fleet resilience").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import state as snapshots
from repro.faults import runtime as faults
from repro.telemetry import runtime as telemetry

__all__ = ["FleetSupervisor", "SupervisorPolicy"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables of the fleet supervisor (see module docstring).

    Attributes
    ----------
    snapshot_every:
        Periods between checkpoints of each live cell (the ``t = 0``
        anchor snapshot is always taken).
    snapshot_ring:
        Recent checkpoints retained per cell, in addition to the
        anchor — older snapshots give the corruption fallback depth.
    backoff_base, backoff_factor, max_backoff:
        Restart backoff in *periods*: the first restart of a burst is
        immediate, the k-th subsequent one waits
        ``min(backoff_base * backoff_factor**(k-1), max_backoff)``.
    max_restarts, restart_window:
        More than ``max_restarts`` completed restarts within the last
        ``restart_window`` periods escalates the cell to quarantine.
    stall_timeout:
        Heartbeat tolerance: a cell that has made no progress for more
        than this many periods is declared failed.
    breaker_threshold:
        Per-period overload delta (dropped + coalesced + blocked
        indications) that opens the mailbox circuit breaker.
    breaker_cooldown:
        Periods the breaker stays open (the cell runs S0 degraded
        service off the bus) before normal service resumes.
    """

    snapshot_every: int = 10
    snapshot_ring: int = 3
    backoff_base: int = 1
    backoff_factor: float = 2.0
    max_backoff: int = 8
    max_restarts: int = 3
    restart_window: int = 50
    stall_timeout: int = 2
    breaker_threshold: int = 16
    breaker_cooldown: int = 5

    def __post_init__(self) -> None:
        """Validate every tunable."""
        for name in ("snapshot_every", "snapshot_ring", "backoff_base",
                     "max_backoff", "max_restarts", "restart_window",
                     "stall_timeout", "breaker_threshold",
                     "breaker_cooldown"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )


@dataclass
class _CellBooks:
    """Supervision bookkeeping for one cell (internal)."""

    snapshots: list = field(default_factory=list)  # [(t, blob)], oldest first
    snapshots_taken: int = 0
    corrupt_detected: int = 0
    restart_t: list = field(default_factory=list)  # periods restarts completed
    crashes: int = 0
    stalls: int = 0
    down_reason: str | None = None
    down_since: int | None = None  # first period with no row yet
    restart_at: int | None = None
    stalled_since: int | None = None  # hung but not yet detected
    last_progress: int = -1
    quarantined: str | None = None
    breaker_open: bool = False
    breaker_open_until: int = -1
    breaker_trips: int = 0
    shed_periods: int = 0
    overload_total: int = 0


class FleetSupervisor:
    """Supervises the cells of one :class:`~repro.oran.runtime.FleetRuntime`.

    Parameters
    ----------
    runtime:
        The fleet runtime whose cells are supervised.  The runtime
        constructs its supervisor unconditionally; with
        ``enabled=False`` faults still fire (dead cells stay dead) but
        no snapshots are taken and no restarts happen.
    policy:
        :class:`SupervisorPolicy` tunables (defaults when ``None``).
    enabled:
        Whether checkpointing, restarts and the circuit breaker are
        active.
    """

    def __init__(self, runtime, policy: SupervisorPolicy | None = None,
                 enabled: bool = False) -> None:
        """Bind to ``runtime`` and draw the fleet fault injectors."""
        self._runtime = runtime
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.enabled = bool(enabled)
        self._books = [_CellBooks() for _ in runtime.cells]
        self._cell_faults = faults.make_injector("cell")
        self._loop_faults = faults.make_injector("loop")
        self._snapshot_faults = faults.make_injector("snapshot")
        self._mailbox_faults = faults.make_injector("mailbox")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Baseline the overload counters; take the ``t = 0`` anchors."""
        for cell, books in zip(self._runtime.cells, self._books):
            books.overload_total = self._overload_total(cell)
            if self.enabled:
                self._checkpoint(cell, books, 0)

    def begin_period(self, t: int) -> tuple[list, list]:
        """Open period ``t``: returns ``(active, shed)`` cell lists.

        In cell-index order: due restarts are executed (restore +
        replay happens *here*, before the fleet's batched stages, so
        recovered cells rejoin the normal stage order), silent stalls
        whose heartbeat is older than ``stall_timeout`` are declared
        failed, fresh ``cell``/``crash`` and ``loop``/``stall`` fault
        decisions are drawn for healthy cells, and open circuit
        breakers route their cells to the shed list.
        """
        active: list = []
        shed: list = []
        for cell, books in zip(self._runtime.cells, self._books):
            if books.quarantined is not None:
                continue
            if books.stalled_since is not None and books.down_reason is None:
                if t - books.last_progress > self.policy.stall_timeout:
                    self._emit("cell_stall", t, cell,
                               stalled_since=books.stalled_since)
                    self._fail(cell, books, t, reason="stall",
                               down_since=books.stalled_since)
                else:
                    continue  # still silently hung
            if books.down_reason is not None:
                due = (self.enabled and books.restart_at is not None
                       and t >= books.restart_at)
                if not (due and self._recover(cell, books, t)):
                    continue
            if self._cell_faults is not None:
                spec = self._cell_faults.supervisor_decision(
                    cell.cell_id, opportunity=t
                )
                if spec is not None:
                    books.crashes += 1
                    self._emit("cell_crash", t, cell)
                    self._fail(cell, books, t, reason="crash", down_since=t)
                    warm = (self.enabled and books.quarantined is None
                            and books.restart_at == t)
                    if not (warm and self._recover(cell, books, t)):
                        continue
            if self._loop_faults is not None:
                spec = self._loop_faults.supervisor_decision(
                    cell.cell_id, opportunity=t
                )
                if spec is not None:
                    books.stalled_since = t
                    books.stalls += 1
                    continue  # hung: no progress this period
            if books.breaker_open:
                if t < books.breaker_open_until:
                    books.shed_periods += 1
                    shed.append(cell)
                    continue
                books.breaker_open = False
                books.overload_total = self._overload_total(cell)
                self._emit("breaker_close", t, cell)
            active.append(cell)
        return active, shed

    def heartbeat(self, cell, t: int) -> None:
        """Record that ``cell`` completed period ``t`` (stall detector)."""
        self._books[cell.index].last_progress = t

    def maybe_flood(self, cell, t: int) -> None:
        """Fire any ``mailbox``/``overflow`` fault due for ``cell`` at ``t``.

        A firing posts ``magnitude`` junk KPI indications ahead of the
        cell's real report — with the default ``block`` policy the
        excess parks publisher tasks (counted as overload) and delivery
        order keeps the real report last, so the flood costs loop work
        and trips the breaker without corrupting the measured KPI.
        """
        if self._mailbox_faults is None:
            return
        spec = self._mailbox_faults.supervisor_decision(
            cell.cell_id, opportunity=t
        )
        if spec is None:
            return
        for _ in range(max(1, int(spec.magnitude))):
            cell.e2_node.report_kpis({"bs_power_w": 0.0})

    def end_period(self, t: int) -> None:
        """Close period ``t``: breaker evaluation and due checkpoints."""
        if not self.enabled:
            return
        for cell, books in zip(self._runtime.cells, self._books):
            if (books.quarantined is not None
                    or books.down_reason is not None
                    or books.stalled_since is not None):
                continue
            if not books.breaker_open:
                total = self._overload_total(cell)
                delta = total - books.overload_total
                books.overload_total = total
                if delta >= self.policy.breaker_threshold:
                    books.breaker_open = True
                    books.breaker_open_until = t + 1 + self.policy.breaker_cooldown
                    books.breaker_trips += 1
                    self._emit("breaker_open", t, cell, overload=int(delta))
                    telemetry.inc("fleet.breaker_trips")
            if (t + 1) % self.policy.snapshot_every == 0:
                self._checkpoint(cell, books, t + 1)

    def finish(self, n_periods: int) -> None:
        """Drain the backlog at end of run: recover every down cell.

        Undetected stalls are declared failed, and (when supervision is
        enabled) every non-quarantined down cell is restored and
        replayed through period ``n_periods - 1`` regardless of its
        backoff deadline — this is what makes "zero lost rows" hold for
        crashes near the horizon.  Unsupervised fleets leave the cells
        down; they surface as partial cells instead.
        """
        for cell, books in zip(self._runtime.cells, self._books):
            if books.quarantined is not None:
                continue
            if books.stalled_since is not None and books.down_reason is None:
                # Even inside the heartbeat tolerance: the run is over,
                # so an undetected hang is declared now.
                self._emit("cell_stall", n_periods, cell,
                           stalled_since=books.stalled_since)
                self._fail(cell, books, n_periods, reason="stall",
                           down_since=books.stalled_since)
            if books.down_reason is not None and self.enabled \
                    and books.quarantined is None:
                self._recover(cell, books, n_periods)

    # -- results -----------------------------------------------------------

    def partial_cells(self, n_periods: int) -> dict:
        """Cells whose logs are short: ``{cell_id: {rows, missed, reason}}``.

        Only cells with a *known* failure (quarantined, or down without
        recovery) are listed — a healthy cell with a short log is an
        accounting bug, which :meth:`FleetRuntime.run` turns into a
        ``RuntimeError`` rather than a silently partial result.
        """
        partial: dict = {}
        for cell, books in zip(self._runtime.cells, self._books):
            reason = books.quarantined or books.down_reason
            if reason is None:
                continue
            rows = len(cell.log)
            partial[cell.cell_id] = {
                "rows": rows,
                "missed": n_periods - rows,
                "reason": reason,
            }
        return partial

    def report(self) -> dict:
        """Per-cell supervision summary for :class:`FleetResult.recovery`."""
        out: dict = {}
        for cell, books in zip(self._runtime.cells, self._books):
            out[cell.cell_id] = {
                "restarts": len(books.restart_t),
                "recovered": bool(books.restart_t),
                "crashes": int(books.crashes),
                "stalls": int(books.stalls),
                "snapshots": int(books.snapshots_taken),
                "snapshot_corrupt": int(books.corrupt_detected),
                "breaker_trips": int(books.breaker_trips),
                "shed_periods": int(books.shed_periods),
                "quarantined": books.quarantined,
            }
        return out

    # -- internals ---------------------------------------------------------

    def _fail(self, cell, books, t: int, reason: str,
              down_since: int) -> None:
        """Mark ``cell`` failed at ``t``; schedule or escalate."""
        books.down_reason = reason
        books.down_since = down_since
        books.stalled_since = None
        telemetry.inc(f"fleet.cell_{reason}")
        if not self.enabled:
            books.restart_at = None
            return
        recent = [r for r in books.restart_t
                  if t - r < self.policy.restart_window]
        if len(recent) >= self.policy.max_restarts:
            self._quarantine(
                cell, books, t,
                f"{len(recent)} restarts within the last "
                f"{self.policy.restart_window} periods",
            )
            return
        if recent:
            delay = min(
                int(self.policy.backoff_base
                    * self.policy.backoff_factor ** (len(recent) - 1)),
                self.policy.max_backoff,
            )
        else:
            delay = 0
        books.restart_at = t + delay

    def _quarantine(self, cell, books, t: int, reason: str) -> None:
        """Escalate ``cell`` out of service permanently."""
        books.quarantined = reason
        books.restart_at = None
        self._emit("quarantine", t, cell, reason=reason)
        telemetry.inc("fleet.quarantined_cells")

    def _recover(self, cell, books, t: int) -> bool:
        """Warm-restore ``cell`` at period ``t`` and replay the gap.

        Restores the newest intact snapshot (checksum, framing and
        format-tag failures fall back to older checkpoints; none intact
        quarantines the cell),
        then replays every period from the snapshot horizon to ``t``
        through :meth:`FleetRuntime.cell_period` — suppressed for
        periods the run already emitted, fresh for missed ones.
        Returns True when the cell is back in service.
        """
        payload = None
        for snap_t, blob in reversed(books.snapshots):
            try:
                candidate = snapshots.decode_snapshot(blob)
            except snapshots.SnapshotCorruptionError:
                candidate = None
            if (candidate is not None
                    and candidate.get("format") == snapshots.SNAPSHOT_FORMAT):
                payload = candidate
                break
            books.corrupt_detected += 1
            self._emit("snapshot_corrupt", t, cell, snapshot_t=snap_t)
        if payload is None:
            self._quarantine(cell, books, t, "no intact snapshot")
            return False
        snap_t = int(payload["t"])
        snapshots.restore_agent_state(cell.agent, payload["agent"])
        snapshots.restore_env_state(cell.env, payload["env"])
        tracer = cell.agent._tracer
        if tracer is not None and payload["tracer"] is not None:
            snapshots.restore_tracer_state(tracer, payload["tracer"])
        snapshots.restore_runlog_state(cell.log, payload["log"])
        runtime = self._runtime
        down_since = books.down_since if books.down_since is not None else t
        replayed = caught_up = 0
        for p in range(snap_t, t):
            runtime._set_cell_load(cell, p)
            if p < down_since:
                with telemetry.suppress():
                    runtime.cell_period(cell, p, fresh=False)
                replayed += 1
            else:
                runtime.cell_period(cell, p, fresh=True)
                caught_up += 1
        runtime._set_cell_load(cell, t)
        books.down_reason = None
        books.down_since = None
        books.restart_at = None
        books.restart_t.append(t)
        books.last_progress = t - 1
        books.overload_total = self._overload_total(cell)
        self._emit("recovery", t, cell, snapshot_t=snap_t,
                   replayed=replayed, caught_up=caught_up,
                   restarts=len(books.restart_t))
        telemetry.inc("fleet.recoveries")
        return True

    def _checkpoint(self, cell, books, horizon: int) -> None:
        """Snapshot ``cell`` as of period boundary ``horizon``.

        A firing ``snapshot``/``corrupt`` fault flips one byte of the
        stored blob *silently* — detection is the restore path's job.
        The ring keeps the ``t = 0`` anchor plus the newest
        ``snapshot_ring`` checkpoints.
        """
        tracer = cell.agent._tracer
        payload = {
            "format": snapshots.SNAPSHOT_FORMAT,
            "cell": cell.cell_id,
            "t": int(horizon),
            "agent": snapshots.agent_state(cell.agent),
            "env": snapshots.env_state(cell.env),
            "tracer": None if tracer is None else snapshots.tracer_state(tracer),
            "log": snapshots.runlog_state(cell.log),
        }
        blob = snapshots.encode_snapshot(payload)
        if self._snapshot_faults is not None:
            spec = self._snapshot_faults.supervisor_decision(cell.cell_id)
            if spec is not None:
                blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        books.snapshots.append((int(horizon), blob))
        books.snapshots_taken += 1
        telemetry.inc("fleet.snapshots")
        while len(books.snapshots) > 1 + self.policy.snapshot_ring:
            del books.snapshots[1]  # keep the anchor as the last resort

    def _overload_total(self, cell) -> int:
        """Cumulative overload count on ``cell``'s indication topic."""
        topic = f"{cell.prefix}e2.indication"
        stats = self._runtime.bus.mailbox_stats(topic).get(topic, ())
        return sum(
            int(s.get("dropped", 0)) + int(s.get("coalesced", 0))
            + int(s.get("blocked", 0))
            for s in stats
        )

    def _emit(self, event: str, t: int, cell, **extra) -> None:
        """Stream one supervision event: a ``decision`` record + ``event``."""
        if telemetry.has_sinks():
            telemetry.emit_record({
                "type": "decision", "event": event, "t": int(t),
                "agent": cell.cell_id, **extra,
            })
