"""The ``repro results`` subcommand: query the experiment store.

Thin, pycomex-style console layer over :class:`ExperimentStore`::

    repro results list   [--store DIR] [--spec S] [--param k=v] [--seed N]
    repro results show   KEY-PREFIX [--json]
    repro results verify [--store DIR]
    repro results gc     [--store DIR]

``list`` renders one table row per stored cell (filterable), ``show``
prints one result in full, ``verify`` checks every blob against its
indexed checksum, and ``gc`` compacts the index and deletes
unreferenced blobs and results of other code.  The store directory is ``--store DIR``, else
``REPRO_STORE`` (an experiment's default ``<out>/store`` must be named
with ``--store``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.store.store import ENV_STORE, ExperimentStore, resolve_store_dir
from repro.utils.ascii import render_table

__all__ = ["add_results_command"]


def _open_store(args) -> ExperimentStore:
    """Resolve and open the store named by the args (SystemExit if none)."""
    root = resolve_store_dir(args.store)
    if root is None:
        raise SystemExit(
            "repro results: no store configured — pass --store DIR or set "
            f"the {ENV_STORE} environment variable"
        )
    return ExperimentStore(root)


def _parse_param_filters(entries) -> dict:
    """``--param key=value`` strings to a filter dict (values as JSON)."""
    filters: dict = {}
    for entry in entries or ():
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro results: --param expects key=value, got '{entry}'"
            )
        try:
            filters[key] = json.loads(raw)
        except json.JSONDecodeError:
            filters[key] = raw
    return filters


def _fmt_created(created) -> str:
    """Index timestamp as a local-time string (``?`` when absent)."""
    if not isinstance(created, (int, float)):
        return "?"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))


def _fmt_params(params) -> str:
    """Compact one-line rendering of a stored parameter dict."""
    if not isinstance(params, dict) or not params:
        return "-"
    parts = []
    for key, value in params.items():
        text = f"{value:g}" if isinstance(value, float) else str(value)
        parts.append(f"{key}={text}")
    return " ".join(parts)


def _cmd_list(args) -> int:
    """``repro results list``: one table row per stored cell."""
    store = _open_store(args)
    matches = store.find(
        spec=args.spec,
        seed=args.seed,
        params=_parse_param_filters(args.param),
        key_prefix=args.key_prefix,
    )
    if not matches:
        print(f"no stored results match (store: {store.root})")
        return 0
    rows = [
        [
            record["key"][:12],
            record.get("spec") or "?",
            record.get("cell_id") or "?",
            (record.get("seed") or {}).get("entropy", "?"),
            _fmt_params(record.get("params")),
            record.get("rows") if record.get("rows") is not None else "?",
            "yes" if record.get("decisions") else "-",
            _fmt_created(record.get("created")),
        ]
        for record in matches
    ]
    print(render_table(
        ["key", "spec", "cell", "seed", "params", "rows", "traced",
         "created"],
        rows,
    ))
    print(f"{len(matches)} stored result(s) in {store.root}")
    return 0


def _resolve_key(store: ExperimentStore, prefix: str) -> str:
    """Expand a unique key prefix (SystemExit on none or ambiguity)."""
    matches = store.find(key_prefix=prefix)
    if not matches:
        raise SystemExit(
            f"repro results: no stored result with key prefix '{prefix}'"
        )
    keys = sorted({record["key"] for record in matches})
    if len(keys) > 1:
        listing = ", ".join(k[:12] for k in keys[:8])
        raise SystemExit(
            f"repro results: key prefix '{prefix}' is ambiguous "
            f"({len(keys)} matches: {listing}...)"
        )
    return keys[0]


def _cmd_show(args) -> int:
    """``repro results show``: print one stored result in full."""
    store = _open_store(args)
    key = _resolve_key(store, args.key)
    blob = store.get(key)
    if blob is None:
        raise SystemExit(
            f"repro results: blob for key {key[:12]}... is missing or "
            f"corrupt (run 'repro results verify')"
        )
    if args.json:
        print(json.dumps(blob, indent=2))
        return 0
    meta = blob.get("meta") or {}
    result = blob.get("result") or {}
    rows = result.get("rows") or []
    decisions = result.get("decisions") or []
    pairs = [
        ("key", key),
        ("spec", meta.get("spec", "?")),
        ("cell", meta.get("cell_id", "?")),
        ("seed", json.dumps(meta.get("seed")) if meta.get("seed") else "?"),
        ("params", _fmt_params(meta.get("params"))),
        ("numerics", meta.get("numerics_mode", "?")),
        ("code", str(meta.get("code", "?"))[:16]),
        ("created", _fmt_created(meta.get("created"))),
        ("rows", len(rows)),
        ("decision records", len(decisions)),
    ]
    width = max(len(label) for label, _ in pairs)
    for label, value in pairs:
        print(f"{label.rjust(width)}  {value}")
    if rows:
        print(f"\nfirst row: {json.dumps(rows[0])}")
        print("(use --json for the full blob)")
    return 0


def _cmd_verify(args) -> int:
    """``repro results verify``: checksum every indexed blob."""
    store = _open_store(args)
    report = store.verify()
    print(render_table(
        ["entries", "ok", "missing", "corrupt", "mismatched", "orphans",
         "bad index lines"],
        [[
            report["entries"],
            report["ok"],
            len(report["missing"]),
            len(report["corrupt"]),
            len(report["mismatched"]),
            len(report["orphans"]),
            report["corrupt_index_lines"],
        ]],
    ))
    problems = (
        report["missing"] + report["corrupt"] + report["mismatched"]
    )
    for key in problems:
        print(f"  problem blob: {key[:16]}...", file=sys.stderr)
    for path in report["orphans"]:
        print(f"  orphan blob: {path}", file=sys.stderr)
    # One-line machine-greppable summary, printed on success AND
    # failure so CI logs always carry the counts next to the exit code.
    print(
        f"verify: {report['entries']} entr(ies), ok {report['ok']}, "
        f"missing {len(report['missing'])}, corrupt {len(report['corrupt'])}, "
        f"mismatched {len(report['mismatched'])}, "
        f"orphans {len(report['orphans'])}, "
        f"bad index lines {report['corrupt_index_lines']}"
    )
    if problems or report["orphans"] or report["corrupt_index_lines"]:
        print("store verification FAILED (run 'repro results gc' to drop "
              "dangling state)", file=sys.stderr)
        return 1
    print(f"store {store.root} verified: {report['ok']} result(s) intact")
    return 0


def _cmd_gc(args) -> int:
    """``repro results gc``: compact the index, delete unusable blobs."""
    store = _open_store(args)
    stats = store.gc()
    print(
        f"compacted index: kept {stats['kept']} entr(ies), dropped "
        f"{stats['dropped_entries']}; deleted {stats['deleted_blobs']} "
        f"unreferenced blob(s), reclaimed {stats['reclaimed_bytes']} bytes"
    )
    return 0


def add_results_command(sub) -> None:
    """Register ``repro results`` and its subcommands on ``sub``."""
    results = sub.add_parser(
        "results",
        help="query the content-addressed experiment store "
             "(see docs/STORE.md)",
    )
    nested = results.add_subparsers(dest="results_command", required=True)

    def _common(parser) -> None:
        parser.add_argument(
            "--store", type=Path, default=None, metavar="DIR",
            help=f"store directory (default: ${ENV_STORE})",
        )

    p = nested.add_parser("list", help="list stored results (filterable)")
    _common(p)
    p.add_argument("--spec", default=None, help="filter by experiment spec")
    p.add_argument("--seed", type=int, default=None,
                   help="filter by sweep root seed (entropy)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="filter by a cell parameter value (repeatable)")
    p.add_argument("--key-prefix", default=None, metavar="HEX",
                   help="filter by content-key prefix")
    p.set_defaults(fn=_cmd_list)

    p = nested.add_parser("show", help="print one stored result")
    _common(p)
    p.add_argument("key", help="content key (any unambiguous prefix)")
    p.add_argument("--json", action="store_true",
                   help="print the raw blob JSON instead of the summary")
    p.set_defaults(fn=_cmd_show)

    p = nested.add_parser("verify",
                          help="checksum every stored blob against the index")
    _common(p)
    p.set_defaults(fn=_cmd_verify)

    p = nested.add_parser(
        "gc",
        help="compact the index and delete unreferenced blobs and "
             "results computed by other code",
    )
    _common(p)
    p.set_defaults(fn=_cmd_gc)
