"""In-memory span tracer that wraps the layers' public functions.

Spans are recorded only from the benchmark's side: :func:`install`
replaces each layer entry point named in :data:`LAYERS` by a timing
wrapper at class or module level and restores the originals on exit,
so nothing inside ``src/`` changes and a traced run computes exactly
what an untraced one does (the wrappers never touch an RNG or an
argument).  Spans live in memory until :meth:`Tracer.dump` writes them
out after the measurement.

Every span records its id, its parent's id, the period it belongs to,
its name, start and end (``perf_counter_ns``) and its self time: its
duration minus the time covered by its direct children.  Spans are only
taken inside a period root, so work outside the measured periods
(set-up, the correctness check) stays out of the budget.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Period root span; its self time is what no layer span covers.
ROOT = "period"

#: Span name -> (module, owner attribute path, function name).  An owner
#: of ``None`` patches the module global the callers look up.
LAYERS = {
    "edgebol.select": ("repro.core.edgebol", "EdgeBOL", "select"),
    "engine.posterior": ("repro.core.posterior", "SurrogateEngine", "posterior"),
    "safeset.safe_mask": ("repro.core.safeset", "SafeSetEstimator", "safe_mask"),
    "acquisition.safe_lcb": ("repro.core.edgebol", None,
                             "safe_lcb_index_from_posterior"),
    "edgebol.observe": ("repro.core.edgebol", "EdgeBOL", "observe"),
    "gp.add": ("repro.core.gp", "GaussianProcess", "add"),
    "env.step": ("repro.testbed.env", "EdgeAIEnvironment", "step"),
    "service.steady_state": ("repro.service.pipeline", "ServiceModel",
                             "steady_state"),
    "queueing.solve": ("repro.service.pipeline", None, "solve_exact_mva"),
    "queueing.solve.schweitzer": ("repro.service.pipeline", None,
                                  "solve_schweitzer"),
    "mac.allocate": ("repro.ran.mac", "RoundRobinScheduler", "allocate"),
    "bus.drain": ("repro.oran.bus", "AsyncMessageBus", "drain"),
    "state.agent_state": ("repro.core.state", None, "agent_state"),
    "state.encode_snapshot": ("repro.core.state", None, "encode_snapshot"),
}

#: Spans reported under one name (both MVA solvers are ``queueing.solve``).
ALIASES = {"queueing.solve.schweitzer": "queueing.solve"}

#: Reported span names, in budget order.
SPANS = tuple(dict.fromkeys(ALIASES.get(name, name) for name in LAYERS))


class Tracer:
    """Collects nested spans of the periods run while it is installed."""

    def __init__(self) -> None:
        #: ``(id, parent_id, period, name, start_ns, end_ns, self_ns)``.
        self.spans: list[tuple] = []
        #: Open frames: ``[id, child_ns]``.
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._period = -1
        #: Encoded snapshot sizes, bytes, one per traced blob.
        self.snapshot_bytes: list[int] = []

    def _close(self, span_id: int, name: str, start: int, child_ns: int) -> None:
        end = time.perf_counter_ns()
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append(
            (span_id, parent, self._period, name, start, end,
             end - start - child_ns)
        )

    @contextmanager
    def period(self):
        """Root span of one orchestration period."""
        self._period += 1
        span_id = next(self._ids)
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self._close(span_id, ROOT, start, frame[1])

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call made inside a period."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [next(self._ids), 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(frame[0], name, start, frame[1])
            if name == "state.encode_snapshot":
                self.snapshot_bytes.append(len(result))
            return result

        return traced

    def summary(self) -> dict:
        """Per-span ``ms_p50`` / ``calls`` / ``share`` of the period wall.

        ``share`` is the span's total self time over the summed period
        root durations, so the shares of all spans plus the root's own
        self time add up to one.
        """
        wall_ns = sum(s[5] - s[4] for s in self.spans if s[3] == ROOT)
        by_name: dict[str, tuple[list, list]] = {}
        for _, _, _, name, start, end, self_ns in self.spans:
            durations, selves = by_name.setdefault(
                ALIASES.get(name, name), ([], []))
            durations.append(end - start)
            selves.append(self_ns)
        out = {}
        for name in (ROOT, *SPANS):
            durations, selves = by_name.get(name, ([], []))
            out[name] = {
                "ms_p50": float(np.median(durations)) / 1e6 if durations else 0.0,
                "calls": len(durations),
                "share": sum(selves) / wall_ns if wall_ns else 0.0,
            }
        return out

    def period_self_check(self) -> bool:
        """Whether every period's summed span self time fits its wall."""
        wall: dict[int, int] = {}
        selves: dict[int, int] = {}
        for _, _, period, name, start, end, self_ns in self.spans:
            if self_ns < 0:
                return False
            selves[period] = selves.get(period, 0) + self_ns
            if name == ROOT:
                wall[period] = end - start
        return all(selves[p] <= wall.get(p, -1) for p in selves)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one array per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _owner(module: str, owner: str | None):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


@contextmanager
def install(tracer: Tracer):
    """Wrap every entry point in :data:`LAYERS`; restore them on exit."""
    saved = []
    try:
        for name, (module, owner, attr) in LAYERS.items():
            target = _owner(module, owner)
            original = vars(target)[attr]
            saved.append((target, attr, original))
            setattr(target, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
