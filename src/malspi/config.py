"""Strict JSON experiment configuration.

One document describes a full experiment: the coupling topology (a named
example or explicit edge lists), team-wide dynamics overrides, cost
parameters, noise levels, learning knobs, the architectures to run, and the
seed list.  Each section is a frozen dataclass whose fields are the only
statement of its keys, types and defaults: ``ExperimentConfig`` (top level),
``GraphConfig`` (explicit graphs), and ``DynamicsConfig`` and ``CostConfig``
(in :mod:`.examples`, which builds the plant from them).  The learning knobs
default to ``MalspiConfig``'s values.  ``_section`` reads every section from
its class's fields by their annotations: JSON null means the default, a
field without one is required, and unknown keys are rejected at every level
so typos in sweep definitions fail loudly.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, get_args, get_type_hints

from .examples import CostConfig, DynamicsConfig, build_example_system
from .examples import generate_example1, generate_example2
from .graphs import CouplingGraphs, build_coupling_graphs
from .policy_iteration import Architecture, MalspiConfig
from .system import MultiAgentSystem


class ConfigError(ValueError):
    """Raised for malformed experiment configuration documents."""


_EXAMPLES = {"example1": generate_example1, "example2": generate_example2}


def _cast(key: str, cast: type, value: Any):
    """``cast(value)``, or a ConfigError naming ``key``.

    A JSON boolean is not a number, an integer key takes no number with a
    fractional part, and a real number must be finite.
    """
    kind = "an integer" if cast is int else "a number"
    fractional = cast is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fractional:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    try:
        result = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind}, got {value!r}") from None
    if cast is float and not math.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {result!r}")
    return result


def _list(key: str, value: Any) -> Sequence:
    """A JSON list, or a ConfigError naming ``key``; a string is not a list."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _text(key: str, value: Any) -> Optional[str]:
    """A JSON string or null, or a ConfigError naming ``key``."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a string or null, got {value!r}")
    return value


def _flag(key: str, value: Any) -> bool:
    """A JSON boolean, or a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


@cache
def _keys(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """Each field of ``cls`` as (name, resolved annotation, required)."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _value(key: str, hint: Any, value: Any) -> Any:
    """A non-null JSON ``value`` read as the annotation ``hint``."""
    if hint is int or hint is float:
        return _cast(key, hint, value)
    if hint is bool:
        return _flag(key, value)
    if hint == Optional[str]:
        return _text(key, value)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    if is_dataclass(hint):
        return _section(hint, key, value)
    args = get_args(hint)
    if type(None) in args:
        return _value(key, args[0], value)
    items = _list(key, value)
    if args[-1] is Ellipsis:
        return tuple(_value(key, args[0], item) for item in items)
    if len(items) != len(args):
        raise ConfigError(f"{key}: edge {value!r} is not a (from, to) pair")
    return tuple(_value(key, arg, item) for arg, item in zip(args, items))


def _section(cls: type, name: str, data: Any):
    """Parse the JSON object ``data`` into ``cls``; ``name`` is "" at the top level."""
    section = name or "configuration"
    if not isinstance(data, Mapping):
        raise ConfigError(f"{section} must be an object, got {data!r}")
    keys = _keys(cls)
    unknown = sorted(set(data) - {key for key, _, _ in keys})
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {unknown}")
    values = {}
    for key, hint, required in keys:
        value = data.get(key)
        if value is not None:
            values[key] = _value(f"{name}.{key}" if name else key, hint, value)
        elif required:
            raise ConfigError(f"{section} is missing {key}")
    return cls(**values)


@dataclass(frozen=True)
class GraphConfig:
    """Explicit edge lists, each sorted; see ``build_coupling_graphs``."""

    edges_s: tuple[tuple[int, int], ...]
    edges_o: tuple[tuple[int, int], ...]
    edges_c: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(sorted(getattr(self, f.name))))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, canonical experiment description.

    ``parse_config`` sets ``example`` to "example1" when neither it nor
    ``graphs`` is given.
    """

    n_agents: int
    example: Optional[str] = None
    graphs: Optional[GraphConfig] = None
    n_x: int = 3
    n_u: int = 3
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    cost: CostConfig = field(default_factory=CostConfig)
    sigma_w: float = 1.0
    sigma_eta: float = MalspiConfig.sigma_eta
    t_rollout: int = MalspiConfig.t_rollout
    t_eval: int = MalspiConfig.t_eval
    n_iterations: int = MalspiConfig.n_iterations
    alpha: float = MalspiConfig.alpha
    zeta: float = MalspiConfig.zeta
    sigma0: float = MalspiConfig.sigma0
    architectures: tuple[str, ...] = ("indirect", "direct", "centralized")
    seeds: tuple[int, ...] = (0,)
    output_dir: Optional[str] = None
    oracle_diagnostics: bool = MalspiConfig.oracle_diagnostics

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
        for key in ("n_iterations", "sigma_w", "sigma_eta", "sigma0", "alpha", "zeta"):
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
                self.build_graphs(), n_x=self.n_x, n_u=self.n_u,
                dynamics=self.dynamics, cost=self.cost, sigma_w=self.sigma_w,
            )
        except ValueError as exc:
            raise ConfigError(f"cost: {exc}") from None

    def malspi_config(self, seed: int) -> MalspiConfig:
        return MalspiConfig(seed=seed, **{key: getattr(self, key) for key in _SHARED_KNOBS})


# The learning knobs an experiment passes through to every run.
_SHARED_KNOBS = tuple(
    f.name for f in fields(MalspiConfig) if f.name in ExperimentConfig.__dataclass_fields__
)


def parse_config(data: Mapping[str, Any]) -> ExperimentConfig:
    """Parse and validate a configuration mapping; unknown keys are errors."""
    if isinstance(data, Mapping) and data.get("graphs") is None and data.get("example") is None:
        data = {**data, "example": "example1"}
    return _section(ExperimentConfig, "", data)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(data)
