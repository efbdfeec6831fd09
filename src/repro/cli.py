"""Command-line interface: a thin shell over the experiment registry.

Every subcommand is generated from a registered
:class:`~repro.experiments.spec.ExperimentSpec` — its flags come from
the spec's parameter declarations, its execution goes through the
shared sweep engine (:mod:`repro.experiments.parallel`).  Usage::

    python -m repro list
    python -m repro profile --figure 1 --out results/
    python -m repro convergence --delta2 1 8 64 --periods 150
    python -m repro static --delta2 1 4 16 64 --jobs 4
    python -m repro run static --sweep delta2=1,8,64 --jobs 4
    python -m repro static --telemetry results/static_trace.jsonl
    python -m repro report results/static_trace.jsonl
    python -m repro regret --trace-decisions
    python -m repro report results/regret_decisions.jsonl
    python -m repro run static --sweep delta2=1,8 --store ~/.repro-store
    python -m repro results list --store ~/.repro-store

Every experiment prints the series the corresponding paper figure
plots and writes CSV artifacts (default under ``results/``).  Common
flags on every experiment: ``--out`` / ``--seed`` / ``--jobs N``
(process-parallel cells) / ``--telemetry JSONL`` (record a full
trace of spans + metrics, see ``docs/OBSERVABILITY.md``) /
``--trace-decisions [JSONL]`` (record one decision record per BO
round — safe set, margins, calibration, drift, regret — merged across
sweep cells) / ``--faults plan.json`` (install a deterministic
fault-injection plan for the run, see ``docs/ROBUSTNESS.md``) /
``--numerics MODE`` + ``--gp-budget N`` (GP numerics mode: dense, or
a sparse observation budget, installed for the run and carried to
every sweep cell — see ``docs/NUMERICS.md``) / ``--store DIR`` +
``--no-store`` (the content-addressed experiment store, by default
``<out>/store``: each completed cell is stored as it finishes, and
cells whose exact configuration was already computed are served from
the store instead of re-run, so an interrupted sweep resumes; see
``docs/STORE.md``); ``report`` renders any record file (or a directory
of them) with one view per record type it holds: the span tree and
metrics, the decision dashboard with anomaly flags, and the fleet SLO
burn-rate and energy-savings view; ``results`` queries the experiment
store (list/show/gc/verify).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.numerics import NumericsConfig, active_numerics
from repro.experiments import parallel
from repro.experiments import spec as spec_registry
from repro.faults import FaultPlan
from repro.store import ENV_STORE, resolve_store_dir
from repro.store.results_cli import add_results_command
from repro.telemetry import runtime as telemetry
from repro.utils.ascii import render_table


#: Sentinel for ``--trace-decisions`` used without a path: the real
#: default depends on ``--out`` and the spec name, resolved at run time.
_DEFAULT_DECISIONS = Path("<default>")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory for CSV files")
    parser.add_argument("--seed", type=int, default=0,
                        help="root of the sweep's SeedSequence tree")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep cells (1 = serial)")
    parser.add_argument(
        "--telemetry", type=Path, default=None, metavar="JSONL",
        help="record a telemetry trace (spans + metrics) to this JSONL file",
    )
    parser.add_argument(
        "--trace-decisions", type=Path, nargs="?", metavar="JSONL",
        default=None, const=_DEFAULT_DECISIONS,
        help="record one decision record per BO round to this JSONL file "
             "(default <out>/<spec>_decisions.jsonl; render with "
             "'repro report')",
    )
    parser.add_argument(
        "--faults", type=Path, default=None, metavar="PLAN.JSON",
        help="install a deterministic fault-injection plan for the run "
             "(see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--numerics", default=None,
        choices=("dense", "sparse"),
        help="GP numerics mode: dense (default, bit-identical reference) "
             "or sparse (bounded observation budget, flat per-period "
             "cost; see docs/NUMERICS.md)",
    )
    parser.add_argument(
        "--gp-budget", type=int, default=None, metavar="N",
        help="sparse-mode observation budget per GP head (default 256)",
    )
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="content-addressed experiment store: serve cells already "
             f"computed for this exact configuration (default ${ENV_STORE}, "
             "else <out>/store; see docs/STORE.md)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="disable the experiment store and recompute every cell",
    )


def _load_fault_plan(path: "Path | None") -> "FaultPlan | None":
    """Parse a ``--faults plan.json`` argument (SystemExit on bad input)."""
    if path is None:
        return None
    try:
        return FaultPlan.from_json(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"repro: cannot load fault plan {path}: {exc}") from None


def _numerics(mode: "str | None",
              budget: "int | None") -> "NumericsConfig | None":
    """The ``--numerics``/``--gp-budget`` config (``None``: no flag).

    An unset flag keeps the installed config's value.
    """
    if mode is None and budget is None:
        return None
    installed = active_numerics()
    try:
        config = replace(installed, sparse_budget=budget) if mode is None \
            else NumericsConfig.from_mode(mode, sparse_budget=(
                installed.sparse_budget if budget is None else budget))
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from None
    print(f"numerics mode: {config.mode}")
    return config


def resolve_decision_path(trace_decisions, spec, out: Path) -> "Path | None":
    """Resolve the ``--trace-decisions`` value to a concrete path.

    ``None`` means untraced; the bare-flag sentinel becomes
    ``<out>/<spec>_decisions.jsonl``.
    """
    if trace_decisions is None:
        return None
    if trace_decisions == _DEFAULT_DECISIONS:
        return Path(out) / f"{spec.name}_decisions.jsonl"
    return Path(trace_decisions)


def run_spec(spec, params, *, out: Path, seed: int = 0, jobs: int = 1,
             sweep_overrides=None,
             decision_path: "Path | None" = None,
             store: "Path | None" = None) -> int:
    """Execute one spec through the sweep engine and print its report."""
    result = parallel.run_sweep(
        spec, params, seed=seed, jobs=jobs,
        sweep_overrides=sweep_overrides, decision_path=decision_path,
        store=store,
    )
    print(spec.report(result.rows, params, out))
    if decision_path is not None:
        n_records = sum(len(c.decisions or ()) for c in result.cells)
        print(f"wrote decision trace {decision_path} ({n_records} records; "
              f"render with 'repro report {decision_path}')")
    if result.store_hits:
        print(f"store hits: {result.store_hits}/{len(result.cells)} cells "
              f"served from {result.store_path} "
              f"(query with 'repro results list --store "
              f"{result.store_path}')")
    if jobs > 1:
        pids = result.pids
        print(f"ran {len(result.cells) - result.store_hits} cells on "
              f"{len(pids)} process(es) (jobs={jobs})")
    if result.retries:
        print(f"retried {result.retries} failing cell attempt(s)")
    for cell in result.quarantined:
        print(f"quarantined cell '{cell.cell_id}' after {cell.attempts} "
              f"attempts: {cell.error}")
    return 0


def _cmd_spec(args) -> int:
    """Generated handler: run the spec bound to this subcommand."""
    spec = args.spec
    overrides = {
        p.name: getattr(args, p.name.replace("-", "_")) for p in spec.params
    }
    params = spec.resolve(overrides)
    return run_spec(
        spec, params, out=args.out, seed=args.seed, jobs=args.jobs,
        decision_path=resolve_decision_path(
            args.trace_decisions, spec, args.out
        ),
        store=resolve_store_dir(args.store, args.no_store, out=args.out),
    )


def _cmd_list(args) -> int:
    """``repro list``: one row per registered experiment spec."""
    rows = []
    for spec in spec_registry.all_specs():
        sweeps = ", ".join(p.name for p in spec.params if p.sweep) or "-"
        flags = " ".join(f"--{p.name}" for p in spec.params) or "-"
        rows.append([spec.name, sweeps, flags, spec.help])
    print(render_table(["experiment", "sweep axes", "flags", "description"],
                       rows))
    return 0


def _parse_sweep_entries(spec, entries) -> dict:
    """``--sweep key=a,b,c`` strings to typed value tuples."""
    overrides = {}
    for entry in entries or ():
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro run: --sweep expects key=v1,v2,... got '{entry}'"
            )
        try:
            overrides[key] = spec.param(key).parse_values(raw)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"repro run: {exc}") from None
    return overrides


def _cmd_run(args) -> int:
    """``repro run <spec>``: sweep any experiment with axis overrides."""
    try:
        spec = spec_registry.get(args.experiment)
    except KeyError as exc:
        raise SystemExit(f"repro run: {exc}") from None
    overrides = {}
    for entry in args.set or ():
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro run: --set expects key=value, got '{entry}'"
            )
        try:
            p = spec.param(key)
            overrides[key] = (
                p.parse_values(raw) if p.sweep else p.type(raw)
            )
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"repro run: {exc}") from None
    try:
        params = spec.resolve(overrides)
    except ValueError as exc:
        raise SystemExit(f"repro run: {exc}") from None
    sweep_overrides = _parse_sweep_entries(spec, args.sweep)
    return run_spec(
        spec, params, out=args.out, seed=args.seed, jobs=args.jobs,
        sweep_overrides=sweep_overrides,
        decision_path=resolve_decision_path(
            args.trace_decisions, spec, args.out
        ),
        store=resolve_store_dir(args.store, args.no_store, out=args.out),
    )


def _report_file(file: Path, records: list):
    """The views one file's records hold: ``(views, anomalies, fleet)``.

    Span and metrics records get the span tree and metrics tables,
    decision records (supervision events included) the dashboard and
    anomaly flags, KPI records the fleet SLO/energy view over a
    :class:`~repro.fleetobs.MetricStore` fed every record of the file.
    """
    from repro.fleetobs import MetricStore, render_status, status_payload
    from repro.obs.diagnose import detect_anomalies, render_dashboard
    from repro.telemetry.report import render_report

    by_type: dict = {}
    for record in records:
        by_type.setdefault(record.get("type"), []).append(record)
    views, anomalies, fleet = [], [], None
    spans, metrics = by_type.get("span", []), by_type.get("metrics", [])
    if spans or metrics:
        views.append(render_report(spans, metrics, title=str(file)))
    decisions = by_type.get("decision")
    if decisions:
        anomalies = detect_anomalies(decisions)
        views.append(render_dashboard(decisions, anomalies=anomalies))
    if "kpi" in by_type:
        store = MetricStore()
        for record in records:
            store.ingest(record)
        views.append(render_status(store))
        fleet = status_payload(store)
    return views, anomalies, fleet


def _cmd_report(args) -> int:
    """``repro report PATH``: every view the records of PATH hold.

    PATH is one record file, or a directory whose ``*.jsonl`` files are
    reported in sorted order, each anomaly flag naming its ``source``
    file.  Every file is read once, by
    :func:`repro.telemetry.export.read_records`.
    """
    import json
    from collections import Counter

    from repro.telemetry.export import read_records

    path = args.path
    is_dir = path.is_dir()
    try:
        files = sorted(path.glob("*.jsonl")) if is_dir else [path]
        if not files:
            raise ValueError(f"{path}: no *.jsonl record files found")
        loaded = [(file, read_records(file)) for file in files]
    except OSError as exc:
        raise SystemExit(
            f"repro report: {exc.filename or path}: {exc.strerror}"
        ) from None
    except ValueError as exc:
        raise SystemExit(f"repro report: {exc}") from None
    counts: Counter = Counter()
    anomalies, fleets, sections = [], {}, []
    for file, records in loaded:
        kinds = Counter(str(record.get("type")) for record in records)
        counts.update(kinds)
        try:
            views, flags, fleet = _report_file(file, records)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            # A JSON object whose fields do not fit its record type
            # (e.g. a string span duration, or spans that are each
            # other's parents).
            raise SystemExit(f"repro report: {file}: record the views "
                             f"cannot render: {exc!r}") from None
        if is_dir:
            for flag in flags:
                flag["source"] = file.name
        anomalies.extend(flags)
        if fleet is not None:
            fleets[file.name] = fleet
        header = ", ".join(f"{kind}={n}" for kind, n in sorted(kinds.items()))
        sections += [f"{file}: {header or 'no records'}", *views]
    if args.json:
        payload = {"records": dict(sorted(counts.items())),
                   "anomalies": anomalies}
        if fleets:
            payload["fleet"] = fleets if is_dir else fleets[path.name]
        print(json.dumps(payload, indent=2))
    else:
        print("\n\n".join(sections))
    if args.fail_on_anomaly and anomalies:
        print(f"repro report: {len(anomalies)} anomaly flag(s) raised",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: registry-generated experiment subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EdgeBOL reproduction: regenerate the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for spec in spec_registry.all_specs():
        p = sub.add_parser(spec.name, help=spec.help)
        for param in spec.params:
            param.add_argument(p)
        _add_common(p)
        p.set_defaults(fn=_cmd_spec, spec=spec)

    p = sub.add_parser("list", help="list every registered experiment spec")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser(
        "run",
        help="sweep any registered experiment with axis overrides",
    )
    p.add_argument("experiment", help="registered spec name (see 'list')")
    p.add_argument("--sweep", action="append", metavar="KEY=V1,V2,...",
                   help="replace a sweep axis' values, or promote a scalar "
                        "parameter to an extra axis (repeatable)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a scalar parameter (repeatable)")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "report",
        help="render a record file (--telemetry, --trace-decisions or "
             "--set metrics=DIR output) or a directory of them: span tree, "
             "decision dashboard with anomaly flags, fleet SLO/energy view",
    )
    p.add_argument("path", type=Path,
                   help="JSONL record file, or a directory of *.jsonl files")
    p.add_argument("--json", action="store_true",
                   help="print record counts, anomaly flags and the fleet "
                        "payload as one JSON object")
    p.add_argument("--fail-on-anomaly", action="store_true",
                   help="exit non-zero when any anomaly flag is raised")
    p.set_defaults(fn=_cmd_report)

    add_results_command(sub)

    return parser


def main(argv=None) -> int:
    """Entry point (also exposed as ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    plan = _load_fault_plan(getattr(args, "faults", None))
    numerics = _numerics(getattr(args, "numerics", None),
                         getattr(args, "gp_budget", None))
    with telemetry.configure(plan=plan, numerics=numerics):
        trace_path = getattr(args, "telemetry", None)
        if trace_path is not None:
            with telemetry.record(trace_path):
                status = args.fn(args)
            print(f"wrote telemetry trace {trace_path}")
            return status
        return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
