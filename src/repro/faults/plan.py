"""Typed fault specifications and the JSON-serialisable fault plan.

A :class:`FaultPlan` is a seed plus an ordered list of
:class:`FaultSpec` entries.  Each spec names a fault *kind* (which layer
it strikes), a kind-specific *mode*, and when it fires: either
deterministically at given opportunity indices (``at``) or as a
Bernoulli draw per opportunity (``probability``), optionally bounded by
``max_events``.  Plans are plain data — they serialise to/from JSON so
one committed file drives the CLI (``--faults plan.json``), the chaos
test suite and worker processes identically.

Fault taxonomy (see ``docs/ROBUSTNESS.md`` for the full contract):

======== ============================== ========================================
kind     modes                          opportunity
======== ============================== ========================================
sensor   ``nan``/``dropout``/``spike``  one noisy KPI reading (per target)
gp       ``transient``/``persistent``   one Cholesky factorisation event
bus      ``loss``/``delay``             one published O-RAN bus message
worker   ``crash``/``hang``             one sweep cell (opportunity = cell index)
cell     ``crash``                      one fleet cell-period (opportunity = t)
loop     ``stall``                      one fleet cell-period (opportunity = t)
snapshot ``corrupt``                    one supervisor checkpoint write
mailbox  ``overflow``                   one fleet cell-period (opportunity = t)
======== ============================== ========================================

The four fleet kinds (``cell``/``loop``/``snapshot``/``mailbox``) are
consumed by the fleet supervisor (:mod:`repro.oran.supervisor`); their
``target`` field names a cell (``cell003``, empty = every cell).  New
kinds are appended to :data:`KINDS` — the per-kind SeedSequence spawn
key is the kind's *index*, so appending preserves every existing plan's
firing streams bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.utils.validation import check_non_negative, check_probability

__all__ = ["FaultSpec", "FaultPlan", "KINDS", "MODES"]

#: Recognised fault kinds, by the layer they strike.  Append-only: the
#: kind's index seeds its injector stream (:func:`repro.faults.make_injector`).
KINDS = ("sensor", "gp", "bus", "worker", "cell", "loop", "snapshot",
         "mailbox")

#: Kind-specific modes.
MODES = {
    "sensor": ("nan", "dropout", "spike"),
    "gp": ("transient", "persistent"),
    "bus": ("loss", "delay"),
    "worker": ("crash", "hang"),
    "cell": ("crash",),
    "loop": ("stall",),
    "snapshot": ("corrupt",),
    "mailbox": ("overflow",),
}

#: Sensor targets the testbed environment can corrupt ('' = any power).
SENSOR_TARGETS = ("", "server_power", "bs_power", "delay", "map")


@dataclass(frozen=True)
class FaultSpec:
    """One typed fault: what to inject, where, and when.

    Attributes
    ----------
    kind:
        Layer the fault strikes — one of :data:`KINDS`.
    mode:
        Kind-specific failure mode — see :data:`MODES`.
    target:
        Scope filter: a sensor reading name (``server_power``,
        ``bs_power``, ``delay``, ``map``), a bus topic, or empty for
        "any opportunity of this kind".
    probability:
        Per-opportunity Bernoulli firing probability in [0, 1].
    at:
        Deterministic opportunity indices that always fire (0-based;
        for ``worker`` faults the opportunity index is the cell index).
    magnitude:
        Mode parameter: spike multiplier (``sensor``/``spike``),
        publishes to hold a delayed message (``bus``/``delay``),
        seconds to sleep (``worker``/``hang``), flood messages to post
        (``mailbox``/``overflow``).
    max_events:
        Cap on total firings of this spec (``None`` = unbounded).
    """

    kind: str
    mode: str
    target: str = ""
    probability: float = 0.0
    at: tuple[int, ...] = ()
    magnitude: float = 8.0
    max_events: int | None = None

    def __post_init__(self) -> None:
        """Validate the kind/mode pair and the firing parameters."""
        if self.kind not in KINDS:
            raise ValueError(
                f"fault kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.mode not in MODES[self.kind]:
            raise ValueError(
                f"fault mode for kind '{self.kind}' must be one of "
                f"{MODES[self.kind]}, got {self.mode!r}"
            )
        check_probability(self.probability, "probability")
        check_non_negative(self.magnitude, "magnitude")
        object.__setattr__(
            self, "at", tuple(sorted(int(i) for i in self.at))
        )
        for index in self.at:
            if index < 0:
                raise ValueError(f"'at' indices must be >= 0, got {index}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(
                f"max_events must be >= 1 when set, got {self.max_events}"
            )
        if self.kind == "sensor" and self.target not in SENSOR_TARGETS:
            raise ValueError(
                f"sensor target must be one of {SENSOR_TARGETS}, "
                f"got {self.target!r}"
            )
        if self.probability == 0.0 and not self.at:
            raise ValueError(
                f"fault ({self.kind}/{self.mode}) never fires: give a "
                "probability > 0 or explicit 'at' indices"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (plan file / process-boundary layout)."""
        spec = {
            "kind": self.kind,
            "mode": self.mode,
            "target": self.target,
            "probability": self.probability,
            "at": list(self.at),
            "magnitude": self.magnitude,
        }
        if self.max_events is not None:
            spec["max_events"] = self.max_events
        return spec

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultSpec":
        """Build a spec from its :meth:`to_dict` form, validating keys."""
        known = {
            "kind", "mode", "target", "probability", "at", "magnitude",
            "max_events",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown fault-spec field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        if "kind" not in raw or "mode" not in raw:
            raise ValueError("fault spec requires 'kind' and 'mode'")
        return cls(
            kind=raw["kind"],
            mode=raw["mode"],
            target=raw.get("target", ""),
            probability=float(raw.get("probability", 0.0)),
            at=tuple(raw.get("at", ())),
            magnitude=float(raw.get("magnitude", 8.0)),
            max_events=raw.get("max_events"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the ordered fault specs of one chaos scenario.

    The ``seed`` roots the plan's own SeedSequence tree (combined with
    the per-cell spawn key inside sweep workers), so every probabilistic
    firing decision is reproducible from the plan file alone and
    independent of the experiment's KPI-noise streams.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        """Normalise the spec container to a tuple."""
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def for_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        """Specs of one fault kind, in plan order."""
        if kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, got {kind!r}")
        return tuple(s for s in self.specs if s.kind == kind)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON round trip / process boundary)."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        if not isinstance(raw, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(raw)}")
        unknown = set(raw) - {"seed", "faults"}
        if unknown:
            raise ValueError(
                f"unknown fault-plan field(s) {sorted(unknown)}; "
                "known: ['faults', 'seed']"
            )
        specs = tuple(
            FaultSpec.from_dict(entry) for entry in raw.get("faults", ())
        )
        return cls(specs=specs, seed=int(raw.get("seed", 0)))

    def to_json(self, path: "str | Path") -> Path:
        """Write the plan as an indented JSON file; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path: "str | Path") -> "FaultPlan":
        """Load a plan from a ``--faults`` JSON file."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise FileNotFoundError(f"fault plan not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)
