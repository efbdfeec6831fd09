"""EdgeBOL checkpointing.

Saves and restores a complete learner state — control grid, problem
definition, hyperparameters and every GP's observation buffer — as a
single ``.npz`` archive (no pickling).  Lets a converged agent be
warm-started on the next deployment of the same slice, or shipped
alongside a released profiling dataset.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core.edgebol import EdgeBOL, EdgeBOLConfig
from repro.core.numerics import NumericsConfig
from repro.testbed.config import CostWeights, ServiceConstraints

#: Format marker for forward compatibility.  Version 2 shrank the
#: numerics config to the sparse-budget fields of ``NumericsConfig``.
_FORMAT_VERSION = 2

#: GP slots serialised, in order.
_GP_SLOTS = ("cost", "delay", "map")
_POWER_SLOTS = ("server_power", "bs_power")


def _config_to_json(config: EdgeBOLConfig) -> str:
    # dataclasses.asdict recurses into the nested NumericsConfig,
    # leaving a plain JSON-serialisable dict (rebuilt on load).
    payload = dataclasses.asdict(config)
    if payload.get("lengthscales") is not None:
        payload["lengthscales"] = [float(v) for v in payload["lengthscales"]]
    return json.dumps(payload)


def _config_from_json(raw: str) -> EdgeBOLConfig:
    payload = json.loads(raw)
    if payload.get("lengthscales") is not None:
        payload["lengthscales"] = np.asarray(payload["lengthscales"], dtype=float)
    numerics = payload.get("numerics")
    if numerics is not None:
        known = {f.name for f in dataclasses.fields(NumericsConfig)}
        unknown = sorted(set(numerics) - known)
        if unknown:
            raise ValueError(
                f"checkpoint numerics config has unknown key(s) "
                f"{', '.join(map(repr, unknown))} (known: "
                f"{', '.join(sorted(known))})"
            )
        payload["numerics"] = NumericsConfig(**numerics)
    return EdgeBOLConfig(**payload)


def save_edgebol(agent: EdgeBOL, path: "str | Path") -> Path:
    """Serialise an agent (problem + hyperparameters + GP buffers)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array([_FORMAT_VERSION]),
        "control_grid": agent.control_grid,
        "constraints": np.array(
            [agent.constraints.d_max_s, agent.constraints.rho_min]
        ),
        "cost_weights": np.array(
            [agent.cost_weights.delta1, agent.cost_weights.delta2]
        ),
        "meta": np.array([agent.context_dim, agent.max_users]),
        "config_json": np.array([_config_to_json(agent.config)]),
    }
    gps = list(zip(_GP_SLOTS, agent.gps))
    if agent._power_gps is not None:
        gps.extend(zip(_POWER_SLOTS, agent._power_gps))
    for name, gp in gps:
        arrays[f"gp_{name}_x"] = gp.inputs
        arrays[f"gp_{name}_y"] = gp.targets
        arrays[f"gp_{name}_lengthscales"] = gp.kernel.lengthscales
        arrays[f"gp_{name}_meta"] = np.array(
            [gp.kernel.output_scale, gp.noise_variance, gp.prior_mean,
             getattr(gp.kernel, "nu", 1.5)]
        )
    np.savez_compressed(path, **arrays)
    return path


def load_edgebol(path: "str | Path") -> EdgeBOL:
    """Reconstruct an agent saved by :func:`save_edgebol`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {version} (expected "
                f"{_FORMAT_VERSION})"
            )
        config = _config_from_json(str(archive["config_json"][0]))
        d_max_s, rho_min = archive["constraints"]
        delta1, delta2 = archive["cost_weights"]
        context_dim, max_users = (int(v) for v in archive["meta"])
        agent = EdgeBOL(
            archive["control_grid"],
            ServiceConstraints(float(d_max_s), float(rho_min)),
            CostWeights(float(delta1), float(delta2)),
            config=config,
            context_dim=context_dim,
            max_users=max_users,
        )
        gps = list(zip(_GP_SLOTS, agent.gps))
        if agent._power_gps is not None:
            gps.extend(zip(_POWER_SLOTS, agent._power_gps))
        for name, gp in gps:
            key = f"gp_{name}_x"
            if key not in archive:
                raise ValueError(f"checkpoint missing GP state for {name!r}")
            output_scale, noise, prior_mean, nu = archive[f"gp_{name}_meta"]
            gp.kernel = type(gp.kernel)(
                lengthscales=archive[f"gp_{name}_lengthscales"],
                output_scale=float(output_scale),
                nu=float(nu),
            )
            gp.noise_variance = float(noise)
            gp.set_prior_mean(float(prior_mean))
            x = archive[key]
            y = archive[f"gp_{name}_y"]
            if y.size:
                gp.fit(x, y)
    # Re-apply the constraint-dependent pessimism on the restored GPs.
    agent.set_constraints(agent.constraints)
    return agent
