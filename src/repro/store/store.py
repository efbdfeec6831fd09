"""Content-addressed on-disk store of completed experiment cells.

Layout (everything under one root directory)::

    <root>/
      index.jsonl              # one record per stored cell, append-only
      objects/<k[:2]>/<k>.json # immutable result blob, k = 64-hex key

A *blob* holds the full result of one sweep cell — the RunLog rows, the
merged telemetry metrics snapshot and any decision-trace records —
wrapped with the metadata that produced it (spec, cell id, params,
seed node, numerics mode, code fingerprint).  Blobs are written
atomically (temp file + ``os.replace``) and never mutated in place, so
readers can only ever observe a complete blob or none.  The *index* is
a JSONL file of one summary record per ``put`` — key, spec, cell id,
params, payload checksum — appended in one flushed write; duplicate
keys are resolved last-wins at read time and squashed by
:meth:`ExperimentStore.gc` compaction.

Store resolution: ``--no-store`` disables the store, else an explicit
CLI path (``--store DIR``) wins, then the ``REPRO_STORE`` environment
variable, then ``<out>/store`` under the experiment's output directory
— so the store is the sweep engine's one result cache, and a repeated
or interrupted sweep in the same ``--out`` is served from it.  See
``docs/STORE.md`` for the key definition, the cache-hit guarantees and
the invalidation semantics.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.store.key import code_fingerprint

__all__ = ["ExperimentStore", "resolve_store_dir", "ENV_STORE", "INDEX_NAME"]

#: Environment variable naming the default store directory.
ENV_STORE = "REPRO_STORE"

#: Name of the JSONL index file under the store root.
INDEX_NAME = "index.jsonl"


def resolve_store_dir(store: "Path | str | None" = None,
                      no_store: bool = False,
                      out: "Path | str | None" = None,
                      environ=None) -> "Path | None":
    """Resolve the store directory.

    ``no_store`` (off) > ``store`` (``--store DIR``) > ``REPRO_STORE``
    env > ``<out>/store``; ``None`` means "no store".
    """
    if no_store:
        return None
    if store is not None:
        return Path(store)
    environ = os.environ if environ is None else environ
    named = environ.get(ENV_STORE)
    if named:
        return Path(named)
    return Path(out) / "store" if out is not None else None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ExperimentStore:
    """Content-addressed experiment results under one root directory.

    Keys are the canonical configuration hashes of
    :func:`repro.store.key.cell_key`; the store itself is
    key-agnostic — any 64-char hex string works — so it can also hold
    results from custom runners.
    """

    def __init__(self, root: "Path | str") -> None:
        """Bind the store to ``root`` (created lazily on first write)."""
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        """Path of the append-only JSONL index."""
        return self.root / INDEX_NAME

    def blob_path(self, key: str) -> Path:
        """Immutable blob location for ``key`` (two-level fan-out)."""
        key = str(key)
        return self.root / "objects" / key[:2] / f"{key}.json"

    # -- blob I/O --------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a blob exists for ``key`` (no content validation)."""
        return self.blob_path(key).exists()

    def get(self, key: str) -> "dict | None":
        """The full blob dict for ``key``, or ``None`` on any failure.

        A missing, unreadable or corrupt blob is a cache *miss*, never
        an error — the caller recomputes and overwrites it.
        """
        try:
            text = self.blob_path(key).read_text()
        except OSError:
            return None
        try:
            blob = json.loads(text)
        except json.JSONDecodeError:
            return None
        return blob if isinstance(blob, dict) else None

    def put(self, key: str, result: dict, meta: "dict | None" = None) -> Path:
        """Store ``result`` under ``key``, atomically, and index it.

        ``result`` must be JSON-serialisable (the sweep engine passes
        rows/metrics/decisions already coerced to plain JSON types).
        An existing blob for ``key`` is replaced — the canonical key
        guarantees any replacement describes the same computation, so
        replacement can only refresh (e.g. add decision records), never
        corrupt.  The index gains one summary record per call, on a
        line of its own even after a torn last line.
        """
        path = self.blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {**dict(meta or {}), "created": time.time()}
        blob = {"key": str(key), "meta": meta, "result": result}
        text = json.dumps(blob)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, path)
        rows = result.get("rows") if isinstance(result, dict) else None
        record = {
            "key": str(key),
            **{k: blob["meta"].get(k) for k in
               ("spec", "cell_id", "params", "seed", "numerics_mode", "code")
               if k in blob["meta"]},
            "rows": len(rows) if isinstance(rows, list) else None,
            "decisions": bool(result.get("decisions"))
            if isinstance(result, dict) else False,
            "sha256": _sha256(text),
            "bytes": len(text),
            "created": meta["created"],
        }
        line = (json.dumps(record) + "\n").encode()
        with self.index_path.open("a+b") as handle:
            # A torn last line (crash mid-append) must not swallow this one.
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
        return path

    # -- index queries ---------------------------------------------------

    def _read_index(self) -> "tuple[list[dict], int]":
        """All intact index records (file order) plus a corrupt count."""
        try:
            lines = self.index_path.read_text().splitlines()
        except OSError:
            return [], 0
        records: list[dict] = []
        corrupt = 0
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if isinstance(record, dict) and record.get("key"):
                records.append(record)
            else:
                corrupt += 1
        return records, corrupt

    def entries(self) -> "list[dict]":
        """Index records deduplicated by key (last ``put`` wins)."""
        records, _ = self._read_index()
        by_key = {record["key"]: record for record in records}
        return list(by_key.values())

    def find(self, *, spec: "str | None" = None, seed: "int | None" = None,
             params: "dict | None" = None,
             key_prefix: "str | None" = None) -> "list[dict]":
        """Index entries matching every given filter, oldest first.

        ``params`` entries match when the stored parameter equals the
        filter value, or when their string forms agree (so CLI filters
        like ``--param delta2=8`` match the stored float ``8.0``).
        """
        matches = []
        for record in self.entries():
            if spec is not None and record.get("spec") != spec:
                continue
            if key_prefix is not None \
                    and not record["key"].startswith(key_prefix):
                continue
            if seed is not None:
                stored = (record.get("seed") or {}).get("entropy")
                if stored != seed:
                    continue
            if params:
                stored = record.get("params") or {}
                if not all(_param_match(stored.get(k), v)
                           for k, v in params.items()):
                    continue
            matches.append(record)
        matches.sort(key=lambda r: (r.get("created") or 0.0, r["key"]))
        return matches

    # -- maintenance -----------------------------------------------------

    def _disk_blobs(self) -> "list[Path]":
        """Every ``*.json`` blob currently under ``objects/``."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.rglob("*.json"))

    def verify(self) -> dict:
        """Integrity report over the whole store (read-only).

        Checks every index entry's blob for existence, checksum match
        and key agreement, and reports blobs on disk that no index
        entry references.  Returns a dict with ``entries``, ``ok``,
        ``missing``, ``corrupt``, ``mismatched``, ``orphans`` and
        ``corrupt_index_lines``; the store is healthy iff the last
        five are all empty/zero.
        """
        records, corrupt_lines = self._read_index()
        by_key = {record["key"]: record for record in records}
        missing: list[str] = []
        corrupt: list[str] = []
        mismatched: list[str] = []
        ok = 0
        for key, record in by_key.items():
            path = self.blob_path(key)
            try:
                text = path.read_text()
            except OSError:
                missing.append(key)
                continue
            try:
                blob = json.loads(text)
            except json.JSONDecodeError:
                corrupt.append(key)
                continue
            expected = record.get("sha256")
            if expected is not None and _sha256(text) != expected:
                mismatched.append(key)
                continue
            if not isinstance(blob, dict) or blob.get("key") != key:
                mismatched.append(key)
                continue
            ok += 1
        indexed = set(by_key)
        orphans = [
            str(path) for path in self._disk_blobs()
            if path.stem not in indexed
        ]
        return {
            "entries": len(by_key),
            "ok": ok,
            "missing": sorted(missing),
            "corrupt": sorted(corrupt),
            "mismatched": sorted(mismatched),
            "orphans": orphans,
            "corrupt_index_lines": corrupt_lines,
        }

    def gc(self) -> dict:
        """Compact the index and delete unreferenced and stale blobs.

        Keeps the newest index record per key whose blob still exists
        and whose ``code`` fingerprint is the running code's
        (:func:`~repro.store.key.code_fingerprint`; a record without
        one is kept) — a cell computed by other code can never be
        served again.  Rewrites the index atomically, and removes every
        blob no kept record references (and stray ``.tmp*`` files from
        interrupted writes).  Returns ``kept`` / ``dropped_entries`` /
        ``deleted_blobs`` / ``reclaimed_bytes``.
        """
        records, corrupt_lines = self._read_index()
        by_key = {record["key"]: record for record in records}
        code = code_fingerprint()
        kept = [
            record for record in by_key.values()
            if record.get("code") in (None, code)
            and self.blob_path(record["key"]).exists()
        ]
        kept.sort(key=lambda r: (r.get("created") or 0.0, r["key"]))
        dropped = len(records) + corrupt_lines - len(kept)
        if self.index_path.exists() or kept:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.index_path.with_name(
                f"{INDEX_NAME}.tmp{os.getpid()}"
            )
            tmp.write_text(
                "".join(json.dumps(record) + "\n" for record in kept)
            )
            os.replace(tmp, self.index_path)
        indexed = {record["key"] for record in kept}
        deleted = 0
        reclaimed = 0
        objects = self.root / "objects"
        strays: list[Path] = []
        if objects.is_dir():
            strays = [p for p in objects.rglob("*.json.tmp*") if p.is_file()]
        for path in self._disk_blobs() + strays:
            if path.suffix == ".json" and path.stem in indexed:
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            deleted += 1
            reclaimed += size
        return {
            "kept": len(kept),
            "dropped_entries": dropped,
            "deleted_blobs": deleted,
            "reclaimed_bytes": reclaimed,
        }


def _param_match(stored, wanted) -> bool:
    """Filter equality tolerant of int/float/string spelling."""
    if stored == wanted:
        return True
    if isinstance(stored, (int, float)) and not isinstance(stored, bool):
        try:
            return float(stored) == float(wanted)
        except (TypeError, ValueError):
            return False
    return str(stored) == str(wanted)
