"""Deterministic fault injection against one layer of the stack.

A :class:`FaultInjector` owns the specs of a single fault *kind* plus a
dedicated RNG stream: firing decisions never touch the experiment's
KPI-noise generators, so a run with a fault plan installed differs from
the fault-free run only by the injected faults themselves.  Every
firing increments both a local ``counts`` dict (assertable without
telemetry) and the ``faults.<kind>.<mode>`` telemetry counters.

Injectors are handed out by :func:`make_injector`, which seeds them
from the installed plan's seed, the consuming layer and (inside sweep
cells) the cell's seed-tree spawn key — the same SeedSequence
discipline as :func:`repro.utils.rng.seed_tree`, so chaos runs are
bit-identical for a given seed.  The plan is installed in the run's
process state (:func:`repro.telemetry.runtime.configure` for a run,
:func:`repro.telemetry.runtime.cell` for a sweep cell).
"""

from __future__ import annotations

import numpy as np

from repro.core.numerics import MAX_JITTER_RETRIES
from repro.faults.plan import KINDS, FaultSpec
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng

__all__ = ["FaultInjector", "InjectedWorkerCrash", "make_injector"]


def make_injector(kind: str) -> "FaultInjector | None":
    """An injector for one layer, or ``None`` when no fault applies.

    Consumers call this once at construction; with no plan installed,
    or none of ``kind``, the fault-free path stays allocation-free.
    Seeded from ``SeedSequence(plan.seed, spawn_key=(kind_id,
    *seed_path, instance))``: the cell's spawn key, then how many
    ``kind`` injectors the plan's scope handed out before this one.
    """
    if kind not in KINDS:
        raise ValueError(f"fault kind must be one of {KINDS}, got {kind!r}")
    plan = telemetry.context().plan
    if plan is None:
        return None
    specs = plan.for_kind(kind)
    if not specs:
        return None
    seed = np.random.SeedSequence(
        plan.seed,
        spawn_key=(KINDS.index(kind), *telemetry.next_fault_key(kind)),
    )
    return FaultInjector(specs, rng=np.random.default_rng(seed), kind=kind)


class InjectedWorkerCrash(RuntimeError):
    """A sweep-worker crash forced by the fault plan.

    Raised inside the worker before the cell body runs; the sweep
    engine's retry path treats it like any other cell failure (it is
    picklable, so it survives the process boundary intact).
    """


class FaultInjector:
    """Decides, deterministically, whether each fault opportunity fires.

    Parameters
    ----------
    specs:
        The fault specs of one kind (see :class:`repro.faults.plan.FaultSpec`).
    rng:
        Seed or generator for the probabilistic firing decisions.
    kind:
        The fault kind this injector serves (labels its counters).
    """

    def __init__(self, specs, rng=None, kind: str = "") -> None:
        self._specs: tuple[FaultSpec, ...] = tuple(specs)
        self._rng = ensure_rng(rng)
        self.kind = kind
        self._opportunities = [0] * len(self._specs)
        self._fired = [0] * len(self._specs)
        #: Firing counts keyed ``"<kind>.<mode>"`` (live, test-assertable).
        self.counts: dict[str, int] = {}
        self._gp_raise_budget = 0

    @property
    def fired_total(self) -> int:
        """Total faults injected so far, across all specs."""
        return sum(self._fired)

    def _decide(self, index: int, spec: FaultSpec,
                opportunity: int | None = None) -> bool:
        """One opportunity of ``spec``: fire or not (records the firing).

        ``opportunity`` overrides the spec's internal opportunity
        counter (worker faults index opportunities by cell, not call).
        Probability draws happen only for probabilistic specs so adding
        an ``at``-based spec never shifts another spec's RNG stream.
        """
        if opportunity is None:
            opportunity = self._opportunities[index]
            self._opportunities[index] += 1
        if spec.max_events is not None and self._fired[index] >= spec.max_events:
            return False
        fire = opportunity in spec.at
        if not fire and spec.probability > 0.0:
            fire = bool(self._rng.random() < spec.probability)
        if fire:
            self._fired[index] += 1
            key = f"{spec.kind}.{spec.mode}"
            self.counts[key] = self.counts.get(key, 0) + 1
            telemetry.inc(f"faults.{key}")
            telemetry.inc("faults.injected")
        return fire

    # -- sensor faults ---------------------------------------------------

    def corrupt_reading(self, target: str, value: float) -> float:
        """Pass one noisy KPI reading through the sensor fault specs.

        ``target`` names the reading (``server_power``, ``bs_power``,
        ``delay``, ``map``); a spec with an empty target matches the two
        power readings (the paper's GPM-8213 meter).  Modes: ``nan``
        (garbage sample), ``dropout`` (sample lost — reads 0.0),
        ``spike`` (outlier, value × magnitude).
        """
        for index, spec in enumerate(self._specs):
            matches = (
                spec.target == target
                or (spec.target == "" and target in ("server_power", "bs_power"))
            )
            if not matches:
                continue
            if not self._decide(index, spec):
                continue
            if spec.mode == "nan":
                return float("nan")
            if spec.mode == "dropout":
                return 0.0
            return float(value) * spec.magnitude  # spike
        return float(value)

    # -- GP numerical faults ---------------------------------------------

    def gp_hook(self, site: str, attempt: int) -> None:
        """Fault hook for the GP factorisation degradation ladder.

        Called before every Cholesky attempt (sites ``"rank1"``,
        ``"refactorize"``, ``"likelihood"``).  Opportunity index = new
        factorisation *event* (an ``attempt == 0`` call).  A firing
        ``transient`` spec fails only the bare attempt, so jitter
        escalation (or the rank-1 → refactorize fallback) recovers; a
        ``persistent`` spec arms a raise budget covering exactly one
        full ladder — including the refactorize a failed rank-1 chains
        into — so ``NumericalInstabilityError`` propagates, after which
        the fault clears and a recovery refit can succeed.
        """
        if self._gp_raise_budget > 0:
            self._gp_raise_budget -= 1
            raise np.linalg.LinAlgError(
                f"injected GP fault at site '{site}' (attempt {attempt})"
            )
        if attempt != 0:
            return
        for index, spec in enumerate(self._specs):
            if spec.target and spec.target != site:
                continue
            if not self._decide(index, spec):
                continue
            ladder = MAX_JITTER_RETRIES + 1
            if spec.mode == "persistent":
                budget = ladder + (1 if site == "rank1" else 0)
            else:
                budget = 1
            self._gp_raise_budget = budget - 1  # this raise consumes one
            raise np.linalg.LinAlgError(
                f"injected GP fault ({spec.mode}) at site '{site}'"
            )

    # -- O-RAN bus faults ------------------------------------------------

    def bus_decision(self, topic: str) -> FaultSpec | None:
        """Fate of one published bus message: ``None`` delivers it.

        Returns the firing spec — mode ``loss`` drops the message, mode
        ``delay`` holds it for ``magnitude`` subsequent publishes on the
        topic.  A spec with an empty target matches every topic.
        """
        for index, spec in enumerate(self._specs):
            if spec.target and spec.target != topic:
                continue
            if self._decide(index, spec):
                return spec
        return None

    # -- sweep-worker faults ---------------------------------------------

    def worker_decision(self, cell_index: int, attempt: int) -> FaultSpec | None:
        """Fault for one sweep cell execution (``None`` = run normally).

        Opportunity index is the *cell index* so ``at`` entries name
        cells directly.  Faults fire only on the first attempt
        (``attempt == 0``) — the whole point of the retry ladder is that
        a re-run of the cell succeeds.
        """
        if attempt != 0:
            return None
        for index, spec in enumerate(self._specs):
            if self._decide(index, spec, opportunity=cell_index):
                return spec
        return None

    # -- fleet supervision faults ----------------------------------------

    def supervisor_decision(self, target: str,
                            opportunity: int | None = None) -> FaultSpec | None:
        """Fault for one supervised fleet opportunity (``None`` = healthy).

        Serves the ``cell``/``loop``/``mailbox`` kinds, where ``target``
        is the cell id and ``opportunity`` the period index (so ``at``
        entries name periods directly), and the ``snapshot`` kind, where
        ``opportunity`` is left ``None`` and each checkpoint write
        advances the spec's internal counter.  A spec with an empty
        target matches every cell.
        """
        for index, spec in enumerate(self._specs):
            if spec.target and spec.target != target:
                continue
            if self._decide(index, spec, opportunity=opportunity):
                return spec
        return None
