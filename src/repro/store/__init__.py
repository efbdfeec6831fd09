"""Content-addressed experiment store: never recompute a sweep cell.

Public surface:

* :func:`~repro.store.key.cell_key` /
  :func:`~repro.store.key.code_fingerprint` /
  :func:`~repro.store.key.canonical_json` — canonical configuration
  hashing (spec + params + seed node + fault plan + numerics + code);
* :class:`~repro.store.store.ExperimentStore` — immutable result
  blobs plus a JSONL index with atomic append, ``verify`` and ``gc``
  compaction;
* :func:`~repro.store.store.resolve_store_dir` — ``--no-store`` /
  ``--store DIR`` / ``REPRO_STORE`` / ``<out>/store`` resolution.

The store is the sweep engine's one result cache
(:mod:`repro.experiments.parallel`): it is consulted before a cell is
dispatched and each completed cell is written through;
``repro results`` queries historical results.  See ``docs/STORE.md``.
"""

from repro.store.key import (
    ENV_FINGERPRINT,
    canonical_json,
    cell_key,
    code_fingerprint,
)
from repro.store.store import (
    ENV_STORE,
    ExperimentStore,
    resolve_store_dir,
)

__all__ = [
    "ENV_FINGERPRINT",
    "ENV_STORE",
    "ExperimentStore",
    "canonical_json",
    "cell_key",
    "code_fingerprint",
    "resolve_store_dir",
]
