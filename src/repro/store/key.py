"""Canonical configuration hashing for the experiment store.

A sweep cell is uniquely determined by six ingredients: the spec name,
the fully-resolved cell parameters, the cell's seed-tree node (root
entropy + spawn key), the installed fault plan, the active
:class:`~repro.core.numerics.NumericsConfig`, and a fingerprint of the
code that will execute it.  :func:`cell_key` folds all six into one
SHA-256 hex digest through :func:`canonical_json` — a deterministic
serialisation (sorted keys, tuples as lists, numpy scalars coerced,
NaN rejected) so that semantically equal configurations always hash
identically regardless of dict insertion order or numpy dtypes.

The code fingerprint (:func:`code_fingerprint`) hashes every ``*.py``
file of the installed ``repro`` package — path and content — so any
source change invalidates every cached result computed by the old
code.  ``REPRO_CODE_FINGERPRINT`` overrides it, which is how tests
simulate a code change and how a deployment can pin a release tag
instead of re-hashing the tree.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.numerics import NumericsConfig, active_numerics

__all__ = [
    "canonical_json",
    "code_fingerprint",
    "cell_key",
    "ENV_FINGERPRINT",
]

#: Environment variable overriding the computed code fingerprint.
ENV_FINGERPRINT = "REPRO_CODE_FINGERPRINT"

#: Cached tree fingerprints by package root (hashing the tree once per
#: process is enough — the code cannot change under a running sweep).
_FINGERPRINTS: dict[Path, str] = {}


def _canon(value):
    """Recursively normalise ``value`` for canonical serialisation."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canon(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def canonical_json(value) -> str:
    """Deterministic JSON of ``value``: sorted keys, compact, no NaN.

    Two structurally equal values — regardless of dict ordering,
    tuple-vs-list spelling or numpy scalar types — produce the same
    string, so hashing it yields a stable content address.  Non-finite
    floats are rejected: a NaN parameter cannot be meaningfully
    compared for equality, so it must not silently produce a key.
    """
    try:
        return json.dumps(
            _canon(value), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
    except ValueError as exc:
        raise ValueError(
            f"configuration is not canonically serialisable "
            f"(non-finite float?): {exc}"
        ) from None


def code_fingerprint(root: "Path | str | None" = None,
                     environ=None) -> str:
    """SHA-256 fingerprint of the executing code tree.

    Hashes the relative path and content of every ``*.py`` file under
    ``root`` (default: the installed ``repro`` package directory) in
    sorted order; any edit, addition, rename or deletion changes the
    digest and therefore every cell key derived from it.  The
    ``REPRO_CODE_FINGERPRINT`` environment variable short-circuits the
    walk with an explicit value (release tag pinning, test isolation).
    """
    environ = os.environ if environ is None else environ
    override = environ.get(ENV_FINGERPRINT)
    if override:
        return override
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root).resolve()
    cached = _FINGERPRINTS.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[root] = fingerprint
    return fingerprint


def cell_key(
    spec_name: str,
    params: dict,
    *,
    entropy: int,
    spawn_key: "tuple[int, ...]",
    fault_plan: "dict | None" = None,
    numerics: "NumericsConfig | dict | None" = None,
    code: "str | None" = None,
) -> str:
    """Content address of one sweep cell (64-char SHA-256 hex digest).

    Parameters
    ----------
    spec_name:
        Registered experiment spec name.
    params:
        The cell's fully-resolved parameter dict (every sweep axis
        collapsed to a scalar).
    entropy, spawn_key:
        The cell's node of the sweep's SeedSequence spawn tree.
    fault_plan:
        The installed fault plan as a plain dict (``FaultPlan.to_dict``)
        or ``None`` for a fault-free run — a chaos run never shares a
        key with a clean one.  ``worker`` faults are left out: they
        crash or hang a cell's dispatch, and the cell is re-run from
        its own seed node or quarantined, so they never reach its rows.
    numerics:
        The active numerics configuration (every field participates:
        conservative invalidation — a sparse run is keyed apart from
        the dense reference even where results are proven equal).
        Defaults to :func:`repro.core.numerics.active_numerics`.
    code:
        Code fingerprint; defaults to :func:`code_fingerprint`.
    """
    if numerics is None:
        numerics = active_numerics()
    if isinstance(numerics, NumericsConfig):
        numerics = asdict(numerics)
    if fault_plan is not None:
        in_cell = [f for f in fault_plan["faults"] if f["kind"] != "worker"]
        fault_plan = {**fault_plan, "faults": in_cell} if in_cell else None
    payload = {
        "spec": str(spec_name),
        "params": params,
        "seed": {
            "entropy": int(entropy),
            "spawn_key": [int(k) for k in spawn_key],
        },
        "faults": fault_plan,
        "numerics": numerics,
        "code": code if code is not None else code_fingerprint(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
