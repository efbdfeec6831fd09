"""Seedable, deterministic fault injection for chaos testing.

The subsystem has three parts:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the typed, JSON-serialisable description of *what* to inject
  (KPI sensor corruption, GP numerical failure, O-RAN bus loss/delay,
  sweep-worker crash/hang, fleet cell crash/stall, snapshot corruption,
  mailbox overflow) and *when* it fires;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the seeded
  per-layer decision engine with telemetry counters, and
  :func:`make_injector`, the hook every instrumented layer consults at
  construction time.

The plan itself lives in the run's one process state
(:mod:`repro.telemetry.runtime`): ``configure(plan=...)`` installs it
for a run, and every sweep cell enters it with its own seed path.
Every experiment CLI accepts ``--faults plan.json``; the degradation
paths the faults exercise are documented in ``docs/ROBUSTNESS.md``.
"""

from repro.faults.injector import (
    FaultInjector,
    InjectedWorkerCrash,
    make_injector,
)
from repro.faults.plan import KINDS, MODES, FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "InjectedWorkerCrash",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "MODES",
    "make_injector",
]
