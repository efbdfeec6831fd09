"""Declarative experiment specs and the process-wide registry.

Every experiment of the reproduction is described by one
:class:`ExperimentSpec`: a name, typed parameter declarations, a
*cell* function that executes one independent point of the sweep, and a
report renderer that turns the merged cell rows back into the tables /
charts / CSV artifacts of the paper figure.  Specs are plain data — the
CLI generates one subcommand per registered spec (flags derived from
the :class:`ParamSpec` declarations) and the sweep engine
(:mod:`repro.experiments.parallel`) expands, schedules and checkpoints
the cells, so adding a scenario is ~30 lines of spec instead of a new
``cmd_*`` handler plus a hand-rolled for-loop.

Cell contract
-------------

``run_cell(params, seed)`` receives the fully-resolved parameter dict
for one cell (every sweep axis collapsed to a scalar) plus one node of
the sweep's :class:`numpy.random.SeedSequence` spawn tree, and returns
a list of JSON-serialisable row dicts.  Cells must be top-level
functions (they are dispatched to worker processes) and must derive
*all* randomness from the seed node so that ``--jobs 1`` and
``--jobs N`` produce identical results.

``report(rows, params, out)`` runs in the parent only: it renders the
experiment's text output and writes its CSV artifacts under ``out``,
returning the text to print.  ``artifacts(params)`` declares the CSV
file names the report writes, so smoke tests can assert them.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "register",
    "get",
    "names",
    "all_specs",
    "load_all",
    "cell_id",
]


@dataclass(frozen=True)
class ParamSpec:
    """One typed, documented experiment parameter.

    ``sweep=True`` declares a *sweep axis*: the parameter's value is a
    sequence and the engine runs one independent cell per value (CLI
    flag becomes ``nargs='+'``).  Scalar parameters apply to every cell.
    """

    name: str
    type: Callable = float
    default: object = None
    help: str = ""
    sweep: bool = False
    choices: tuple | None = None
    required: bool = False

    def __post_init__(self) -> None:
        """Normalise sweep defaults to tuples."""
        if self.sweep and self.default is not None:
            object.__setattr__(self, "default", tuple(self.default))

    def add_argument(self, parser) -> None:
        """Register this parameter as an argparse flag on ``parser``."""
        kwargs: dict = {"help": self.help or None, "default": self.default}
        if self.choices is not None:
            kwargs["choices"] = self.choices
        if self.required:
            kwargs["required"] = True
        if self.sweep:
            kwargs["nargs"] = "+"
        parser.add_argument(f"--{self.name}", type=self.type, **kwargs)

    def parse_values(self, raw: "str | Sequence[str]") -> tuple:
        """Coerce ``--sweep name=a,b,c`` raw strings with this type."""
        if isinstance(raw, str):
            raw = [v for v in raw.split(",") if v]
        if not raw:
            raise ValueError(f"parameter '{self.name}': empty value list")
        values = tuple(self.type(v) for v in raw)
        if self.choices is not None:
            bad = [v for v in values if v not in self.choices]
            if bad:
                raise ValueError(
                    f"parameter '{self.name}': {bad[0]!r} not in {self.choices}"
                )
        return values


def _default_expand(spec: "ExperimentSpec", params: Mapping) -> list[dict]:
    """Cartesian product over the declared sweep parameters."""
    sweep_params = [p for p in spec.params if p.sweep]
    if not sweep_params:
        return [{}]
    axes = [[(p.name, v) for v in params[p.name]] for p in sweep_params]
    return [dict(combo) for combo in itertools.product(*axes)]


def cell_id(axis: Mapping) -> str:
    """Stable identifier of one cell from its axis coordinates."""
    if not axis:
        return "all"
    parts = []
    for key, value in axis.items():
        text = f"{value:g}" if isinstance(value, float) else str(value)
        parts.append(f"{key}={text}")
    return "/".join(parts)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment (see module docstring).

    Attributes
    ----------
    name, help:
        CLI subcommand name and help text.
    params:
        Typed parameter declarations; sweep params expand into cells.
    run_cell:
        ``(cell_params, seed_sequence) -> list[dict]`` — one cell.
        Must be a picklable top-level function.
    report:
        ``(rows, params, out_dir) -> str`` — renders text output and
        writes the CSV artifacts from the merged cell rows.
    expand:
        Optional override producing the list of axis dicts for a
        resolved parameter set (defaults to the product of sweep
        params).  Use it to add non-flag axes such as the constraint
        settings of Figs. 10-11 or repetition indices.
    artifacts:
        ``(params) -> tuple[str, ...]`` of CSV file names the report
        writes (defaults to ``('<name>.csv',)``).
    """

    name: str
    help: str
    params: tuple[ParamSpec, ...]
    run_cell: Callable[[Mapping, object], list]
    report: Callable[[list, Mapping, Path], str]
    expand: Callable[[Mapping], list] | None = None
    artifacts: Callable[[Mapping], tuple] | None = None

    def param(self, name: str) -> ParamSpec:
        """Look up one declared parameter, raising a helpful error."""
        for p in self.params:
            if p.name == name:
                return p
        known = ", ".join(p.name for p in self.params) or "(none)"
        raise KeyError(
            f"experiment '{self.name}' has no parameter '{name}' (known: {known})"
        )

    def defaults(self) -> dict:
        """Default value of every declared parameter."""
        return {p.name: p.default for p in self.params}

    def resolve(self, overrides: Mapping | None = None) -> dict:
        """Merge ``overrides`` into the defaults, validating names."""
        params = self.defaults()
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            p = self.param(key)
            params[key] = tuple(value) if p.sweep else value
        missing = [p.name for p in self.params if p.required and params[p.name] is None]
        if missing:
            raise ValueError(
                f"experiment '{self.name}': missing required parameter(s) "
                + ", ".join(missing)
            )
        return params

    def cells(
        self, params: Mapping, sweep_overrides: Mapping | None = None
    ) -> list[tuple[str, dict]]:
        """``(cell_id, cell_params)`` for every cell of the sweep.

        ``sweep_overrides`` maps parameter names to value sequences
        (the CLI's ``--sweep key=a,b,c``): declared sweep axes have
        their values replaced, scalar parameters are promoted to extra
        axes crossed with the base expansion.
        """
        params = dict(params)
        extra: dict[str, tuple] = {}
        for key, values in (sweep_overrides or {}).items():
            p = self.param(key)
            values = tuple(values)
            if p.sweep:
                params[key] = values
            else:
                extra[key] = values
        axes = (
            self.expand(params) if self.expand is not None
            else _default_expand(self, params)
        )
        for key, values in extra.items():
            axes = [{**axis, key: v} for axis in axes for v in values]
        return [(cell_id(axis), {**params, **axis}) for axis in axes]

    def artifact_names(self, params: Mapping) -> tuple[str, ...]:
        """CSV file names the report writes for ``params``."""
        if self.artifacts is not None:
            return tuple(self.artifacts(params))
        return (f"{self.name}.csv",)


# -- registry -----------------------------------------------------------

_REGISTRY: dict[str, ExperimentSpec] = {}

#: Subcommand names the CLI reserves for itself.
RESERVED_NAMES = ("list", "run", "report", "results")


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (idempotent per name); returns it."""
    if spec.name in RESERVED_NAMES:
        raise ValueError(f"'{spec.name}' is a reserved CLI command name")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """Fetch a registered spec by name, loading the registry if empty."""
    if name not in _REGISTRY:
        load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no experiment spec named '{name}' (registered: {', '.join(names())})"
        ) from None


def names() -> tuple[str, ...]:
    """Registered spec names in registration order."""
    return tuple(_REGISTRY)


def all_specs() -> tuple[ExperimentSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


def load_all() -> None:
    """Import every experiment module so its spec registers itself.

    Worker processes call this before executing a dispatched cell, so
    the registry is populated regardless of multiprocessing start
    method.
    """
    import repro.experiments  # noqa: F401  (import side effect)
