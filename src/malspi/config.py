"""Strict JSON experiment configuration.

One document describes a full experiment: the coupling topology (a named
example or explicit edge lists), team-wide dynamics overrides (one
``a_self``/``b_self`` block shared by every agent, and the coupling
scales), cost parameters, noise levels, learning knobs, the architectures
to run, and the seed list.  Unknown keys are rejected at every level so
typos in sweep definitions fail loudly.  Parsing and serialization
round-trip to a canonical form.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .examples import build_example_system, generate_example1, generate_example2
from .graphs import CouplingGraphs, build_coupling_graphs
from .policy_iteration import Architecture, MalspiConfig
from .system import MultiAgentSystem


class ConfigError(ValueError):
    """Raised for malformed experiment configuration documents."""


_EXAMPLES = {"example1": generate_example1, "example2": generate_example2}


def _reject_unknown(section: str, data: Mapping[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {unknown}")


def _get(data: Mapping[str, Any], key: str, default):
    value = data.get(key, default)
    return default if value is None and default is not None else value


def _cast(key: str, cast: type, value: Any):
    """``cast(value)``, or a ConfigError naming ``key``.

    A JSON boolean is not a number, and an integer key takes no number with
    a fractional part: neither is silently converted.
    """
    kind = "an integer" if cast is int else "a number"
    fractional = cast is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fractional:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {kind}, got {value!r}") from None


def _list(key: str, value: Any) -> Sequence:
    """A JSON list, or a ConfigError naming ``key``; a string is not a list."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _block(key: str, value: Any) -> Optional[tuple[tuple[float, ...], ...]]:
    """A matrix given as a list of rows of numbers, or None."""
    if value is None:
        return None
    return tuple(tuple(_cast(key, float, v) for v in _list(key, row)) for row in _list(key, value))


def _flag(key: str, value: Any) -> bool:
    """A JSON boolean, or a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class DynamicsConfig:
    a_self: Optional[tuple[tuple[float, ...], ...]] = None
    b_self: Optional[tuple[tuple[float, ...], ...]] = None
    coupling_scale: float = 0.01
    b_coupling_scale: float = 0.0

    @classmethod
    def parse(cls, data: Mapping[str, Any]) -> "DynamicsConfig":
        _reject_unknown(
            "dynamics", data, ["a_self", "b_self", "coupling_scale", "b_coupling_scale"]
        )
        return cls(
            a_self=_block("dynamics.a_self", data.get("a_self")),
            b_self=_block("dynamics.b_self", data.get("b_self")),
            coupling_scale=_cast(
                "dynamics.coupling_scale", float, _get(data, "coupling_scale", 0.01)
            ),
            b_coupling_scale=_cast(
                "dynamics.b_coupling_scale", float, _get(data, "b_coupling_scale", 0.0)
            ),
        )

    def to_json_dict(self) -> dict:
        return {
            "a_self": None if self.a_self is None else [list(r) for r in self.a_self],
            "b_self": None if self.b_self is None else [list(r) for r in self.b_self],
            "coupling_scale": self.coupling_scale,
            "b_coupling_scale": self.b_coupling_scale,
        }


@dataclass(frozen=True)
class CostConfig:
    s_diag: float = 200.0
    s_off: float = -10.0

    @classmethod
    def parse(cls, data: Mapping[str, Any]) -> "CostConfig":
        _reject_unknown("cost", data, ["s_diag", "s_off"])
        return cls(
            s_diag=_cast("cost.s_diag", float, _get(data, "s_diag", 200.0)),
            s_off=_cast("cost.s_off", float, _get(data, "s_off", -10.0)),
        )

    def to_json_dict(self) -> dict:
        return {"s_diag": self.s_diag, "s_off": self.s_off}


@dataclass(frozen=True)
class GraphConfig:
    edges_s: tuple[tuple[int, int], ...]
    edges_o: tuple[tuple[int, int], ...]
    edges_c: tuple[tuple[int, int], ...]

    @classmethod
    def parse(cls, data: Mapping[str, Any]) -> "GraphConfig":
        _reject_unknown("graphs", data, ["edges_s", "edges_o", "edges_c"])
        def edges(key: str) -> tuple[tuple[int, int], ...]:
            if key not in data:
                raise ConfigError(f"graphs section is missing {key}")
            name = f"graphs.{key}"
            pairs = []
            for edge in _list(name, data[key]):
                if len(_list(name, edge)) != 2:
                    raise ConfigError(f"{name}: edge {edge!r} is not a (from, to) pair")
                pairs.append((_cast(name, int, edge[0]), _cast(name, int, edge[1])))
            return tuple(sorted(pairs))
        return cls(edges("edges_s"), edges("edges_o"), edges("edges_c"))

    def to_json_dict(self) -> dict:
        return {
            "edges_s": [list(e) for e in self.edges_s],
            "edges_o": [list(e) for e in self.edges_o],
            "edges_c": [list(e) for e in self.edges_c],
        }


_TOP_LEVEL_KEYS = [
    "n_agents",
    "example",
    "graphs",
    "n_x",
    "n_u",
    "dynamics",
    "cost",
    "sigma_w",
    "sigma_eta",
    "t_rollout",
    "t_eval",
    "n_iterations",
    "alpha",
    "zeta",
    "sigma0",
    "architectures",
    "seeds",
    "output_dir",
    "force_full_sets",
    "oracle_diagnostics",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, canonical experiment description."""

    n_agents: int
    example: Optional[str] = "example1"
    graphs: Optional[GraphConfig] = None
    n_x: int = 3
    n_u: int = 3
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    cost: CostConfig = field(default_factory=CostConfig)
    sigma_w: float = 1.0
    sigma_eta: float = 1.0
    t_rollout: int = 500
    t_eval: int = 500
    n_iterations: int = 15
    alpha: float = 1e-3
    zeta: float = 1e-6
    sigma0: float = 1.0
    architectures: tuple[str, ...] = ("indirect", "direct", "undecomposed_direct", "centralized")
    seeds: tuple[int, ...] = (0,)
    output_dir: Optional[str] = None
    force_full_sets: bool = False
    oracle_diagnostics: bool = False

    def __post_init__(self):
        if (self.example is None) == (self.graphs is None):
            raise ConfigError("exactly one of 'example' or 'graphs' must be set")
        if self.example is not None and self.example not in _EXAMPLES:
            raise ConfigError(
                f"unknown example {self.example!r}; expected one of {sorted(_EXAMPLES)}"
            )
        if not self.architectures:
            raise ConfigError("at least one architecture is required")
        for name in self.architectures:
            try:
                Architecture.parse(name)
            except ValueError as exc:
                raise ConfigError(f"architectures: {exc}") from None
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(self.seeds)}")
        for key, values in (("architectures", self.architectures), ("seeds", self.seeds)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{key} lists {repeated} more than once")
        if self.n_agents < 1:
            raise ConfigError(f"n_agents must be positive, got {self.n_agents}")
        for key, value in self._numbers():
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for key in ("n_iterations", "sigma_w", "sigma_eta", "sigma0", "zeta"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative, got {getattr(self, key)!r}")
        for key in ("n_x", "n_u", "t_rollout", "t_eval"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)!r}")
        for key, block, cols in (("dynamics.a_self", self.dynamics.a_self, self.n_x),
                                 ("dynamics.b_self", self.dynamics.b_self, self.n_u)):
            lengths = [len(row) for row in block or ()]
            if block is not None and lengths != [cols] * self.n_x:
                raise ConfigError(f"{key} must be {self.n_x}x{cols}, got rows of lengths {lengths}")
        # Fail early on out-of-range explicit edges and too few agents for an example.
        try:
            self.build_graphs()
        except ValueError as exc:
            raise ConfigError(f"{'graphs' if self.example is None else 'n_agents'}: {exc}") from None

    def _numbers(self) -> list[tuple[str, float]]:
        """Every real-valued setting, keyed as in the configuration document."""
        numbers = [
            (key, getattr(self, key)) for key in ("sigma_w", "sigma_eta", "alpha", "zeta", "sigma0")
        ]
        dyn = self.dynamics
        numbers += [
            ("dynamics.coupling_scale", dyn.coupling_scale),
            ("dynamics.b_coupling_scale", dyn.b_coupling_scale),
            ("cost.s_diag", self.cost.s_diag),
            ("cost.s_off", self.cost.s_off),
        ]
        for key, block in (("dynamics.a_self", dyn.a_self), ("dynamics.b_self", dyn.b_self)):
            numbers += [(key, v) for row in block or () for v in row]
        return numbers

    def build_graphs(self) -> CouplingGraphs:
        if self.example is not None:
            return _EXAMPLES[self.example](self.n_agents)
        assert self.graphs is not None
        return build_coupling_graphs(
            self.n_agents, self.graphs.edges_s, self.graphs.edges_o, self.graphs.edges_c
        )

    def build_system(self) -> MultiAgentSystem:
        try:
            return build_example_system(
                self.build_graphs(),
                n_x=self.n_x,
                n_u=self.n_u,
                a_self=None if self.dynamics.a_self is None else np.array(self.dynamics.a_self),
                b_self=None if self.dynamics.b_self is None else np.array(self.dynamics.b_self),
                coupling_scale=self.dynamics.coupling_scale,
                b_coupling_scale=self.dynamics.b_coupling_scale,
                s_diag=self.cost.s_diag,
                s_off=self.cost.s_off,
                sigma_w=self.sigma_w,
            )
        except ValueError as exc:
            raise ConfigError(f"cost: {exc}") from None

    def malspi_config(self, seed: int) -> MalspiConfig:
        return MalspiConfig(
            n_iterations=self.n_iterations,
            t_rollout=self.t_rollout,
            t_eval=self.t_eval,
            sigma_eta=self.sigma_eta,
            alpha=self.alpha,
            zeta=self.zeta,
            seed=seed,
            sigma0=self.sigma0,
            force_full_sets=self.force_full_sets,
            oracle_diagnostics=self.oracle_diagnostics,
        )

    def to_json_dict(self) -> dict:
        return {
            "n_agents": self.n_agents,
            "example": self.example,
            "graphs": None if self.graphs is None else self.graphs.to_json_dict(),
            "n_x": self.n_x,
            "n_u": self.n_u,
            "dynamics": self.dynamics.to_json_dict(),
            "cost": self.cost.to_json_dict(),
            "sigma_w": self.sigma_w,
            "sigma_eta": self.sigma_eta,
            "t_rollout": self.t_rollout,
            "t_eval": self.t_eval,
            "n_iterations": self.n_iterations,
            "alpha": self.alpha,
            "zeta": self.zeta,
            "sigma0": self.sigma0,
            "architectures": list(self.architectures),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "force_full_sets": self.force_full_sets,
            "oracle_diagnostics": self.oracle_diagnostics,
        }


def parse_config(data: Mapping[str, Any]) -> ExperimentConfig:
    """Parse and validate a configuration mapping; unknown keys are errors."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"configuration must be a mapping, got {type(data).__name__}")
    _reject_unknown("configuration", data, _TOP_LEVEL_KEYS)
    if "n_agents" not in data:
        raise ConfigError("configuration is missing n_agents")
    graphs = data.get("graphs")
    example = data.get("example")
    if graphs is None and example is None:
        example = "example1"
    return ExperimentConfig(
        n_agents=_cast("n_agents", int, data["n_agents"]),
        example=example,
        graphs=None if graphs is None else GraphConfig.parse(graphs),
        n_x=_cast("n_x", int, _get(data, "n_x", 3)),
        n_u=_cast("n_u", int, _get(data, "n_u", 3)),
        dynamics=DynamicsConfig.parse(data.get("dynamics") or {}),
        cost=CostConfig.parse(data.get("cost") or {}),
        sigma_w=_cast("sigma_w", float, _get(data, "sigma_w", 1.0)),
        sigma_eta=_cast("sigma_eta", float, _get(data, "sigma_eta", 1.0)),
        t_rollout=_cast("t_rollout", int, _get(data, "t_rollout", 500)),
        t_eval=_cast("t_eval", int, _get(data, "t_eval", 500)),
        n_iterations=_cast("n_iterations", int, _get(data, "n_iterations", 15)),
        alpha=_cast("alpha", float, _get(data, "alpha", 1e-3)),
        zeta=_cast("zeta", float, _get(data, "zeta", 1e-6)),
        sigma0=_cast("sigma0", float, _get(data, "sigma0", 1.0)),
        architectures=tuple(
            str(a) for a in _list("architectures", _get(data, "architectures", ExperimentConfig.architectures))
        ),
        seeds=tuple(_cast("seeds", int, s) for s in _list("seeds", _get(data, "seeds", [0]))),
        output_dir=data.get("output_dir"),
        force_full_sets=_flag("force_full_sets", _get(data, "force_full_sets", False)),
        oracle_diagnostics=_flag("oracle_diagnostics", _get(data, "oracle_diagnostics", False)),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def dump_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write the canonical JSON form of a configuration."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_json_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")
