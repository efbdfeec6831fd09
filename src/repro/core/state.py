"""Deterministic snapshot/restore for EdgeBOL agents and their worlds.

The fleet supervisor (:mod:`repro.oran.supervisor`) checkpoints each
cell periodically and, after a crash, restores the cell from the last
intact checkpoint and *replays* the periods since.  That only yields
zero-loss recovery if the restored state is **bit-identical** to the
live state at checkpoint time — close is not good enough, because the
GP Cholesky factor built by rank-1 extensions differs in the last bits
from a fresh full factorisation over the same data, and those bits
compound through the safe set and the acquisition.

The contract of this module, asserted by ``tests/test_state.py``:

* every array is serialised **verbatim** (its raw little-endian
  bytes, never a decimal rendering);
* RNG stream positions are captured via
  ``Generator.bit_generator.state`` and restored exactly;
* GP internals (the factor ``_chol``, the whitened residual ``_w`` and
  ``_factor_version``) are restored as-is — *never* recomputed — and
  only their live ``[:n]`` blocks travel, never the capacity of the
  buffers behind them;
* the agent's :class:`~repro.core.posterior.SurrogateEngine` *cache*
  is part of the snapshot (:func:`engine_state`): its incrementally
  extended solves and running moments differ in the last float bits
  from a cold rebuild over the same factor, and those bits decide
  near-tie argmins when a context repeats.  Its ``N x M`` solved rows
  are *replayed*, not stored: the snapshot carries each entry's
  extension schedule, and the restore repeats the same rebuild and
  extension calls, with the same shapes, against the restored factor.
  Replay is bit-identical on the same BLAS build and thread count —
  which replaying periods after a restore already needs;
* the safe set itself needs no dedicated state: eq. 8 is a pure
  function of the delay/mAP surrogates and the constraints, both of
  which are snapshotted.

Snapshot *payloads* are JSON-able dicts whose arrays hold their raw
bytes (:func:`_encode_array`).  :func:`encode_snapshot` frames one as a
binary blob::

    frame = b"SNAP6:" + <SHA-256 hex digest of body> + newline + body
    body  = <u64 LE header length> + <compact JSON header> + <array bytes>

The JSON header carries every scalar, and each array's bytes become a
``{"$buf": [offset, nbytes]}`` reference into the concatenated buffer
section.  Arrays travel outside the JSON because they are nearly all
of a warm agent's snapshot (the GP factors and the engine's running
moments): as text (base64) they would be a third larger, and the JSON
encoder would scan them character by character, while raw bytes are
only copied and hashed.
The digest covers every byte of the body — header and buffers — so
:func:`decode_snapshot` detects corruption
(:class:`SnapshotCorruptionError`) before parsing anything instead of
restoring garbage; the supervisor then falls back to an older
checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import deque

import numpy as np

from repro.core.posterior import _Step
from repro.ran.channel import GaussMarkovChannel, SnrTrace
from repro.testbed.config import CostWeights, ServiceConstraints

__all__ = [
    "SnapshotError",
    "SnapshotCorruptionError",
    "SNAPSHOT_FORMAT",
    "rng_state",
    "set_rng_state",
    "gp_state",
    "restore_gp_state",
    "injector_state",
    "restore_injector_state",
    "engine_state",
    "restore_engine_state",
    "agent_state",
    "restore_agent_state",
    "env_state",
    "restore_env_state",
    "tracer_state",
    "restore_tracer_state",
    "runlog_state",
    "restore_runlog_state",
    "encode_snapshot",
    "decode_snapshot",
]

#: Format tag stamped on framed snapshots (bump on layout changes).
SNAPSHOT_FORMAT = "edgebol-snapshot-v6"

#: Framing magic of :func:`encode_snapshot`.
_MAGIC = b"SNAP6:"

#: Length prefix of the JSON header inside a frame body.
_HEADER_LEN = struct.Struct("<Q")

#: Offset of the body in a frame: magic, hex digest, newline.
_BODY_AT = len(_MAGIC) + 2 * hashlib.sha256().digest_size + 1

#: RunLog per-period series, in schema order (``safe_set_size`` is int).
_RUNLOG_FIELDS = (
    "cost", "delay_s", "map_score", "server_power_w", "bs_power_w",
    "safe_set_size", "snr_db", "resolution", "airtime", "gpu_speed",
    "mcs_fraction", "d_max_s", "rho_min",
)


class SnapshotError(RuntimeError):
    """A snapshot could not be taken or restored."""


class SnapshotCorruptionError(SnapshotError):
    """A framed snapshot failed its checksum or structural validation."""


# -- primitives -----------------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    """Bit-exact form of one array: dtype, shape and a copy of its bytes.

    The copy is required — the live buffers keep changing after the
    checkpoint.  :func:`encode_snapshot` moves ``data`` out of the JSON.
    """
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": arr.tobytes(),
    }


def _array_view(payload: dict) -> np.ndarray:
    """Zero-copy array over an :func:`_encode_array` payload's bytes."""
    arr = np.frombuffer(payload["data"], dtype=np.dtype(payload["dtype"]))
    return arr.reshape(tuple(payload["shape"]))


def _decode_array(payload: dict) -> np.ndarray:
    """Rebuild an array from :func:`_encode_array` output, verbatim."""
    return _array_view(payload).copy()


def _maybe_encode(arr) -> "dict | None":
    return None if arr is None else _encode_array(arr)


def _maybe_decode(payload) -> "np.ndarray | None":
    return None if payload is None else _decode_array(payload)


def rng_state(generator: np.random.Generator) -> dict:
    """JSON-able position of one ``numpy`` Generator stream."""
    return generator.bit_generator.state


def set_rng_state(generator: np.random.Generator, state: dict) -> None:
    """Restore a Generator to a :func:`rng_state` position."""
    generator.bit_generator.state = state


# -- Gaussian processes ---------------------------------------------------


def gp_state(gp) -> dict:
    """Full mutable state of one :class:`~repro.core.gp.GaussianProcess`.

    Captures the observations, the *exact* Cholesky factor (and its
    memory order, which picks the LAPACK branch of its solves) and
    whitened residual ``w`` (a restored factor must match the live
    rank-1 lineage bit for bit), the factor version, the
    degradation-ladder counters and the kernel hyperparameters.  Only
    the live ``[:n]`` views are encoded, so the GP's buffer capacity
    never reaches a snapshot.
    """
    kernel, chol = gp.kernel, gp._chol
    kernel_payload = {
        "lengthscales": _encode_array(kernel.lengthscales),
        "output_scale": float(kernel.output_scale),
    }
    if hasattr(kernel, "nu"):
        kernel_payload["nu"] = float(kernel.nu)
    return {
        "kernel": kernel_payload,
        "noise_variance": float(gp.noise_variance),
        "prior_mean": float(gp.prior_mean),
        "x": _maybe_encode(gp._x),
        "y": _maybe_encode(gp._y),
        "chol": _maybe_encode(chol),
        # A factor fresh from a refactorisation is Fortran-ordered, and
        # solve_triangular rounds its solves differently (docs/NUMERICS.md).
        "chol_fortran": chol is not None and bool(chol.flags.f_contiguous),
        "w": _maybe_encode(gp._w),
        "factor_version": int(gp._factor_version),
        "jitter_retries": int(gp._jitter_retries),
        "rank1_fallbacks": int(gp._rank1_fallbacks),
        "last_jitter": float(gp._last_jitter),
        "evictions": int(gp._evictions),
    }


def restore_gp_state(gp, state: dict) -> None:
    """Restore a GP to a :func:`gp_state` snapshot, bit-identically.

    Bypasses the ``kernel``/``noise_variance`` property setters and
    :meth:`~repro.core.gp.GaussianProcess.set_prior_mean` — each would
    bump ``_factor_version`` or recompute ``_w``, breaking the
    verbatim-restore guarantee.  Hyperparameters are written onto the
    *existing* kernel object so engine/estimator references stay valid;
    the GP's scaled inputs are then rebuilt from the restored
    lengthscales (the kernel object is mutated in place, so nothing
    else would invalidate them).
    """
    kernel_payload = state["kernel"]
    gp._kernel.lengthscales = _decode_array(kernel_payload["lengthscales"])
    gp._kernel.output_scale = float(kernel_payload["output_scale"])
    if "nu" in kernel_payload:
        gp._kernel.nu = float(kernel_payload["nu"])
    gp._noise_variance = float(state["noise_variance"])
    gp.prior_mean = float(state["prior_mean"])
    gp._restore(
        *(None if state[key] is None else _array_view(state[key])
          for key in ("x", "y", "chol", "w")),
        fortran=bool(state["chol_fortran"]),
    )
    gp._factor_version = int(state["factor_version"])
    gp._jitter_retries = int(state["jitter_retries"])
    gp._rank1_fallbacks = int(state["rank1_fallbacks"])
    gp._last_jitter = float(state["last_jitter"])
    gp._evictions = int(state["evictions"])


# -- fault injectors ------------------------------------------------------


def injector_state(injector) -> dict:
    """Mutable state of one :class:`~repro.faults.injector.FaultInjector`.

    The injector's RNG position and opportunity counters are part of a
    cell's causal state: a replayed period must see the same firing
    decisions the uninterrupted run saw.
    """
    return {
        "rng": rng_state(injector._rng),
        "opportunities": [int(n) for n in injector._opportunities],
        "fired": [int(n) for n in injector._fired],
        "counts": {key: int(n) for key, n in injector.counts.items()},
        "gp_raise_budget": int(injector._gp_raise_budget),
    }


def restore_injector_state(injector, state: dict) -> None:
    """Restore an injector to an :func:`injector_state` snapshot."""
    set_rng_state(injector._rng, state["rng"])
    injector._opportunities = [int(n) for n in state["opportunities"]]
    injector._fired = [int(n) for n in state["fired"]]
    injector.counts = {key: int(n) for key, n in state["counts"].items()}
    injector._gp_raise_budget = int(state["gp_raise_budget"])


# -- the posterior engine cache -------------------------------------------


def engine_state(engine) -> dict:
    """Warm posterior cache of a SurrogateEngine, as its build schedule.

    The cache is *causal* state, not just a speed-up: a cached entry's
    ``v`` rows and running moments (``sumsq``, ``mean_acc``) were built
    by incremental blocked extensions (:meth:`SurrogateEngine.
    posterior`), which differ in the last float bits from the single
    full triangular solve a cold rebuild performs over the same factor.
    Dropping the cache on restore and rebuilding would therefore perturb
    posteriors by ~1e-13 — enough to flip a near-tie ``argmin`` when a
    context repeats (the static scenario repeats its context every
    period).

    The ``N x M`` ``v`` rows are *not* stored: they are a deterministic
    function of the GP factor and inputs (already in :func:`gp_state`)
    and of the order the engine solved them in.  Each head carries that
    order instead — ``row_ends``, the row count of its last rebuild and
    the end row of every extension block since, as one int64 array — and
    :func:`restore_engine_state` replays it.
    ``sumsq``, ``mean_acc`` and ``mean_prior`` travel verbatim:
    ``mean_acc`` depends on the history of ``w`` under
    :meth:`~repro.core.gp.GaussianProcess.set_prior_mean`, which the
    schedule does not record.  Entries are serialised in LRU order; the
    joint grids, their scaled copies and the prior variances are pure
    functions of context, control grid and kernel, and are recomputed.
    """
    entries = []
    for key, (joint, states) in engine._cache.items():
        heads = {}
        for name, head_state in states.items():
            heads[name] = {
                "n": int(head_state.n),
                "factor_version": int(head_state.factor_version),
                "row_ends": _encode_array(
                    np.array(head_state.row_ends, dtype=np.int64)
                ),
                "sumsq": _encode_array(head_state.sumsq),
                "mean_acc": _encode_array(head_state.mean_acc),
                "mean_prior": float(head_state.mean_prior),
            }
        entries.append({
            "context": _encode_array(
                np.frombuffer(key, dtype=float)
            ),
            "heads": heads,
        })
    return {"entries": entries}


def _check_row_ends(name: str, row_ends: np.ndarray, n: int) -> None:
    """Reject a malformed build schedule of one snapshotted head."""
    if row_ends.ndim != 1 or row_ends.dtype != np.int64:
        raise SnapshotError(
            f"head {name!r}: row_ends must be a 1-D int64 array, got "
            f"{row_ends.dtype} of shape {row_ends.shape}"
        )
    if row_ends.size and row_ends[0] < 1:
        raise SnapshotError(
            f"head {name!r}: row_ends starts at {row_ends[0]}, below 1"
        )
    if np.any(np.diff(row_ends) <= 0):
        raise SnapshotError(
            f"head {name!r}: row_ends {row_ends.tolist()} is not strictly "
            "increasing"
        )
    last = int(row_ends[-1]) if row_ends.size else 0
    if last != n:
        raise SnapshotError(
            f"head {name!r}: row_ends ends at {last}, but the entry has "
            f"n = {n} rows"
        )


def _replay(engine, heads: list[tuple]) -> None:
    """Rebuild the ``v`` rows of one entry's heads by repeating their builds.

    ``heads`` holds ``(head_state, gp, row_ends)`` triples.  Block ``i``
    of every schedule is filled and solved as the live sweep did: heads
    of one correlation key whose block has byte-equal inputs share one
    kernel fill (:meth:`SurrogateEngine._fill`), and each head's solve
    repeats the live call's shapes against the restored factor, whose
    leading blocks are the factors the live calls saw.  Each buffer is
    reserved once, for the final row count, so no replayed block
    regrows it.  The replay's kernel entries are not counted in the
    engine's stats.
    """
    for head_state, _, row_ends in heads:
        head_state.rows(0, row_ends[-1])
    for block in range(max(len(row_ends) for _, _, row_ends in heads)):
        steps = [
            _Step(gp, head_state, row_ends[block - 1] if block else 0,
                  row_ends[block])
            for head_state, gp, row_ends in heads if block < len(row_ends)
        ]
        engine._fill(steps)
        for step in steps:
            step.state.solve(step.gp._chol, step.k0, step.n, engine._scratch)


def restore_engine_state(engine, state: dict) -> None:
    """Restore a SurrogateEngine cache to an :func:`engine_state` snapshot.

    Must run *after* the per-head GP restores: the replay solves against
    the restored factors, the entries' ``factor_version`` stamps must
    describe them, and each scaled joint grid (one per correlation key
    and entry, shared by the heads that have it) and prior variance is
    recomputed from the *restored* kernel (:func:`restore_gp_state`
    rewrites the kernel in place, with no version bump, so a grid
    scaled before the restore may be stale).  Only entries stamped with
    their GP's current ``factor_version`` are replayed; a stale one is
    never read before the rebuild its stamp forces, so its schedule,
    moments and stamp are restored as they are, without ``v`` rows.

    Replay repeats the live sweep's BLAS calls with the same shapes, so
    it needs the same BLAS build and thread count as the live run — as
    replaying periods after a restore already does.  Raises
    :class:`SnapshotError` on a head unknown to the engine or a
    malformed schedule.
    """
    engine._cache.clear()
    for entry in state["entries"]:
        context = _decode_array(entry["context"])
        joint, states = engine._entry(context)
        scaled = {}
        replays = []
        for name, payload in entry["heads"].items():
            if name not in engine._heads:
                raise SnapshotError(
                    f"snapshot engine cache names head {name!r} unknown "
                    f"to the engine ({sorted(engine._heads)})"
                )
            gp = engine._heads[name]
            n = int(payload["n"])
            row_ends = _array_view(payload["row_ends"])
            _check_row_ends(name, row_ends, n)
            row_ends = row_ends.tolist()
            factor_version = int(payload["factor_version"])
            head_state = engine._state_for(name, joint, states)
            head_state.scaled = engine._scaled_grid(gp.kernel, joint, scaled)
            if factor_version == gp.factor_version and n:
                if n > gp.n_observations:
                    raise SnapshotError(
                        f"head {name!r}: the cache entry has {n} rows, but "
                        f"the restored GP has {gp.n_observations} "
                        "observations"
                    )
                if gp._chol is None:
                    raise SnapshotError(
                        f"head {name!r}: the cache entry is current, but "
                        "the restored GP has no factor to replay it against"
                    )
                replays.append((head_state, gp, row_ends))
            else:
                head_state.n = n
                head_state.row_ends = row_ends
            head_state.sumsq = _decode_array(payload["sumsq"])
            head_state.mean_acc = _decode_array(payload["mean_acc"])
            head_state.mean_prior = float(payload["mean_prior"])
            head_state.factor_version = factor_version
        if replays:
            _replay(engine, replays)


# -- the EdgeBOL agent ----------------------------------------------------


def _gp_injector_of(agent):
    """The agent's GP fault injector, or None (no plan installed)."""
    hook = getattr(agent, "_gp_fault_hook", None)
    return None if hook is None else hook.__self__


def agent_state(agent) -> dict:
    """Full mutable state of one :class:`~repro.core.edgebol.EdgeBOL`.

    Heads (including the decoupled-power extension's, when enabled),
    constraints and cost weights, robustness counters, the spike-gate
    history and — when a fault plan is installed — the GP injector's
    stream position.
    """
    state = {
        "heads": {
            name: gp_state(gp)
            for name, gp in agent.head_surrogates().items()
        },
        "constraints": {
            "d_max_s": float(agent.constraints.d_max_s),
            "rho_min": float(agent.constraints.rho_min),
        },
        "cost_weights": {
            "delta1": float(agent.cost_weights.delta1),
            "delta2": float(agent.cost_weights.delta2),
        },
        "quarantined": int(agent._quarantined),
        "degraded_periods": int(agent._degraded_periods),
        "surrogate_failures": int(agent._surrogate_failures),
        "recoveries": int(agent._recoveries),
        "surrogate_down": bool(agent._surrogate_down),
        "recent_costs": [float(c) for c in agent._recent_costs],
        "last_safe_size": (
            None if agent._last_safe_size is None
            else int(agent._last_safe_size)
        ),
        "engine": engine_state(agent._engine),
        "gp_injector": None,
    }
    injector = _gp_injector_of(agent)
    if injector is not None:
        state["gp_injector"] = injector_state(injector)
    return state


def restore_agent_state(agent, state: dict) -> None:
    """Restore an agent to an :func:`agent_state` snapshot.

    Order matters: constraints first (so ``_sync_delay_pessimism``
    derives ``_delay_clip``), then the verbatim per-head GP states
    (overwriting the prior-mean recomputation the sync just did), then
    the counters, and the engine cache **last**: it is reset — its
    incremental caches are keyed on factor versions that the restore
    may have rolled backwards — and replayed against the restored
    factors.
    """
    agent.constraints = ServiceConstraints(**state["constraints"])
    agent.cost_weights = CostWeights(**state["cost_weights"])
    agent._sync_delay_pessimism()
    heads = agent.head_surrogates()
    snapped = state["heads"]
    if set(snapped) != set(heads):
        raise SnapshotError(
            f"snapshot heads {sorted(snapped)} do not match the agent's "
            f"{sorted(heads)} — was the agent built with the same config?"
        )
    for name, gp in heads.items():
        restore_gp_state(gp, snapped[name])
    agent._quarantined = int(state["quarantined"])
    agent._degraded_periods = int(state["degraded_periods"])
    agent._surrogate_failures = int(state["surrogate_failures"])
    agent._recoveries = int(state["recoveries"])
    agent._surrogate_down = bool(state["surrogate_down"])
    agent._recent_costs = deque(
        (float(c) for c in state["recent_costs"]),
        maxlen=agent._recent_costs.maxlen,
    )
    agent._last_safe_size = (
        None if state["last_safe_size"] is None
        else int(state["last_safe_size"])
    )
    injector = _gp_injector_of(agent)
    if injector is not None and state["gp_injector"] is not None:
        restore_injector_state(injector, state["gp_injector"])
    # The warm cache is restored by replaying its schedule, never by a
    # cold rebuild: incremental and from-scratch solves differ in the
    # last float bits, and those bits decide near-tie argmins.
    # reset_cache() first so stale post-snapshot entries cannot survive
    # the rollback.
    agent._engine.reset_cache()
    restore_engine_state(agent._engine, state["engine"])


# -- the testbed environment ----------------------------------------------


def _channel_state(channel) -> dict:
    if isinstance(channel, GaussMarkovChannel):
        return {
            "type": "gauss_markov",
            "current": float(channel._current),
            "mean_snr_db": float(channel.mean_snr_db),
            "rng": rng_state(channel._rng),
        }
    if isinstance(channel, SnrTrace):
        return {"type": "trace", "index": int(channel._index)}
    raise SnapshotError(
        f"cannot snapshot channel of type {type(channel).__name__}"
    )


def _restore_channel_state(channel, state: dict) -> None:
    if state["type"] == "gauss_markov":
        channel._current = float(state["current"])
        channel.mean_snr_db = float(state["mean_snr_db"])
        set_rng_state(channel._rng, state["rng"])
    elif state["type"] == "trace":
        channel._index = int(state["index"])
    else:
        raise SnapshotError(f"unknown channel state type {state['type']!r}")


def env_state(env) -> dict:
    """Full stochastic state of an :class:`EdgeAIEnvironment`.

    Per-channel process state, the four measurement RNG streams, the
    SNRs already drawn for the upcoming period, the load multiplier and
    (when a plan is installed) the sensor fault injector.
    """
    state = {
        "channels": [_channel_state(ch) for ch in env.channels],
        "noise_rng": rng_state(env._noise._rng),
        "meter_rng": rng_state(env._meter._rng),
        "detector_rng": rng_state(env._detector._rng),
        "dataset_rng": rng_state(env._dataset._rng),
        "current_snrs": [float(s) for s in env._current_snrs],
        "load_multiplier": float(env.service_model.load_multiplier),
        "sensor_faults": None,
    }
    if env._sensor_faults is not None:
        state["sensor_faults"] = injector_state(env._sensor_faults)
    return state


def restore_env_state(env, state: dict) -> None:
    """Restore an environment to an :func:`env_state` snapshot."""
    channels = state["channels"]
    if len(channels) != len(env.channels):
        raise SnapshotError(
            f"snapshot covers {len(channels)} channels but the environment "
            f"has {len(env.channels)}"
        )
    for channel, payload in zip(env.channels, channels):
        _restore_channel_state(channel, payload)
    set_rng_state(env._noise._rng, state["noise_rng"])
    set_rng_state(env._meter._rng, state["meter_rng"])
    set_rng_state(env._detector._rng, state["detector_rng"])
    set_rng_state(env._dataset._rng, state["dataset_rng"])
    env._current_snrs = [float(s) for s in state["current_snrs"]]
    env.set_load_multiplier(float(state["load_multiplier"]))
    if env._sensor_faults is not None and state["sensor_faults"] is not None:
        restore_injector_state(env._sensor_faults, state["sensor_faults"])


# -- the decision tracer --------------------------------------------------


def tracer_state(tracer) -> dict:
    """Streaming state of a :class:`~repro.obs.decision.DecisionTracer`.

    Only legal at a period boundary: an open ``on_select`` record
    (``_pending``) captures numpy posteriors mid-flight and cannot be
    serialised faithfully, so the supervisor checkpoints between
    periods only.
    """
    if tracer._pending is not None:
        raise SnapshotError(
            "tracer has an open period (_pending is set); snapshots are "
            "only taken at period boundaries"
        )
    drift = tracer.drift
    return {
        "calibration": {
            head: {
                "z": float(cal.z),
                "n": int(cal.n),
                "within": int(cal.within),
                "error_sum": float(cal.error_sum),
                "error_sq_sum": float(cal.error_sq_sum),
            }
            for head, cal in tracer.calibration.items()
        },
        "drift": {
            "contexts": [
                [float(v) for v in ctx] for ctx in drift._contexts
            ],
            "episodes": int(drift._episodes),
            "in_episode": bool(drift._in_episode),
        },
        "t": int(tracer._t),
        "cumulative_regret": float(tracer._cumulative_regret),
        "emitted": int(tracer._emitted),
        "violations": int(tracer._violations),
        "quarantined_rounds": int(tracer._quarantined_rounds),
        "degraded_rounds": int(tracer._degraded_rounds),
    }


def restore_tracer_state(tracer, state: dict) -> None:
    """Restore a tracer to a :func:`tracer_state` snapshot."""
    snapped = state["calibration"]
    if set(snapped) != set(tracer.calibration):
        raise SnapshotError(
            f"snapshot calibration heads {sorted(snapped)} do not match "
            f"the tracer's {sorted(tracer.calibration)}"
        )
    for head, cal in tracer.calibration.items():
        payload = snapped[head]
        cal.z = float(payload["z"])
        cal.n = int(payload["n"])
        cal.within = int(payload["within"])
        cal.error_sum = float(payload["error_sum"])
        cal.error_sq_sum = float(payload["error_sq_sum"])
    drift = tracer.drift
    drift._contexts = deque(
        (np.asarray(ctx, dtype=float) for ctx in state["drift"]["contexts"]),
        maxlen=drift.window,
    )
    drift._episodes = int(state["drift"]["episodes"])
    drift._in_episode = bool(state["drift"]["in_episode"])
    tracer._t = int(state["t"])
    tracer._pending = None
    tracer._cumulative_regret = float(state["cumulative_regret"])
    tracer._emitted = int(state["emitted"])
    tracer._violations = int(state["violations"])
    tracer._quarantined_rounds = int(state["quarantined_rounds"])
    tracer._degraded_rounds = int(state["degraded_rounds"])


# -- run logs -------------------------------------------------------------


def runlog_state(log) -> dict:
    """Per-period series of a RunLog, each serialised bit-exactly."""
    state = {}
    for name in _RUNLOG_FIELDS:
        dtype = np.int64 if name == "safe_set_size" else np.float64
        state[name] = _encode_array(
            np.asarray(getattr(log, name), dtype=dtype)
        )
    return state


def restore_runlog_state(log, state: dict) -> None:
    """Restore a RunLog's series (end-of-run extras are left alone)."""
    for name in _RUNLOG_FIELDS:
        setattr(log, name, _decode_array(state[name]).tolist())


# -- framing --------------------------------------------------------------


def encode_snapshot(payload: dict) -> bytes:
    """Frame a snapshot payload: magic, SHA-256 hex, newline, body.

    The body is the length-prefixed compact JSON header followed by the
    raw bytes of every array in the payload, concatenated; in the
    header each ``bytes`` value becomes ``{"$buf": [offset, nbytes]}``
    into that buffer section.  The digest covers the whole body.
    """
    buffers = []
    offset = 0

    def move_out(value):
        nonlocal offset
        if not isinstance(value, bytes):
            raise TypeError(
                f"snapshot payloads hold JSON values and bytes, not "
                f"{type(value).__name__}"
            )
        ref = {"$buf": [offset, len(value)]}
        buffers.append(value)
        offset += len(value)
        return ref

    header = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=move_out
    ).encode("utf-8")
    chunks = [_HEADER_LEN.pack(len(header)), header, *buffers]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return b"".join(
        [_MAGIC, digest.hexdigest().encode("ascii"), b"\n", *chunks]
    )


def decode_snapshot(blob: bytes) -> dict:
    """Verify and parse a framed snapshot.

    The digest is checked over the whole body before anything is
    parsed.  Array ``data`` comes back as zero-copy ``memoryview``
    slices of ``blob`` (:func:`_decode_array` copies them out).  Raises
    :class:`SnapshotCorruptionError` on any framing, checksum, JSON or
    structural failure — the caller (the supervisor) treats that as
    "this checkpoint is unusable, try an older one".
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise SnapshotCorruptionError(
            f"snapshot must be bytes, got {type(blob).__name__}"
        )
    if not blob.startswith(_MAGIC):
        if blob.startswith(b"SNAP"):
            raise SnapshotCorruptionError(
                f"stale snapshot format {bytes(blob[:len(_MAGIC)])!r}; "
                f"this build reads {_MAGIC!r}"
            )
        raise SnapshotCorruptionError("snapshot magic missing")
    if blob[_BODY_AT - 1:_BODY_AT] != b"\n":
        raise SnapshotCorruptionError("snapshot header is unterminated")
    body = memoryview(blob)[_BODY_AT:]
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    if blob[len(_MAGIC):_BODY_AT - 1] != digest:
        raise SnapshotCorruptionError(
            "snapshot checksum mismatch — the blob was corrupted"
        )
    if len(body) < _HEADER_LEN.size:
        raise SnapshotCorruptionError("snapshot body has no header length")
    (header_len,) = _HEADER_LEN.unpack_from(body)
    buffers_at = _HEADER_LEN.size + header_len
    if buffers_at > len(body):
        raise SnapshotCorruptionError(
            f"snapshot header length {header_len} runs past the body"
        )
    buffers = body[buffers_at:]

    def resolve(obj: dict):
        ref = obj.get("$buf")
        if ref is not None:
            if (not isinstance(ref, list) or len(ref) != 2
                    or not all(type(v) is int and v >= 0 for v in ref)
                    or ref[0] + ref[1] > len(buffers)):
                raise SnapshotCorruptionError(
                    f"snapshot buffer reference {ref!r} is out of range"
                )
            return buffers[ref[0]:ref[0] + ref[1]]
        if isinstance(obj.get("data"), memoryview):
            try:
                _array_view(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotCorruptionError(
                    f"snapshot array does not match its buffer: {exc}"
                ) from exc
        return obj

    try:
        payload = json.loads(
            bytes(body[_HEADER_LEN.size:buffers_at]), object_hook=resolve
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"snapshot header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise SnapshotCorruptionError("snapshot payload must be an object")
    return payload
