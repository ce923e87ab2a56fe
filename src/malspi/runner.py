"""Experiment execution: architecture sweeps, CSV artifacts, timing benchmarks.

``run_experiment`` runs every (architecture, seed) cell of a configuration,
writes one per-agent CSV per run under seed-scoped directories, and returns
(and writes) the learning-curve and timing tables.  ``timing_benchmark``
calls ``run_experiment`` once per agent count, with warm-up iterations
excluded from the timing and oversized architectures skipped as explicit
NA rows.

A table of ``CurveRow``, ``TimingRow`` or ``AgentRow`` rows is written by
``write_table`` and read back by ``read_table``: the row dataclass's field
names are the CSV header and its annotations say how each field is parsed.
"""
from __future__ import annotations

import logging
import statistics
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from .config import ConfigError, ExperimentConfig
from .io import read_rows_csv, write_rows_csv
from .linalg import svec_dim
from .policy_iteration import Architecture, IterationRecord, run_malspi

logger = logging.getLogger(__name__)

# flags of an agent update whose gain was carried forward unchanged
_FROZEN_FLAGS = ("singular", "underdetermined")


@dataclass(frozen=True)
class CurveRow:
    architecture: str
    seed: int
    iteration: int
    eval_cost: float
    diverged: bool


@dataclass(frozen=True)
class TimingRow:
    """One (architecture, N) cell over its measured iterations, unless ``skipped``.

    ``attempted_updates`` counts the agent updates not flagged
    ``empty_gradient_set``; ``frozen_updates`` counts those flagged
    ``singular`` or ``underdetermined``.
    """

    architecture: str
    n_agents: int
    t_rollout: Optional[int]
    mean_iteration_s: Optional[float]
    median_iteration_s: Optional[float]
    n_measured: int
    skipped: bool = False
    ratio_vs_indirect: Optional[float] = None
    frozen_updates: int = 0
    diverged_evals: int = 0
    attempted_updates: int = 0


@dataclass(frozen=True)
class AgentRow:
    """One agent's update in one iteration of one run."""

    iteration: int
    agent: int
    eval_cost: float
    q_err_if_oracle_known: Optional[float]
    rcond: Optional[float]
    wall_ms_eval: float
    wall_ms_update: float
    flags: str


@dataclass(frozen=True)
class ResultTable:
    """Learning curves per (architecture, seed, iteration) and per-architecture timing."""

    curves: tuple[CurveRow, ...]
    timing: tuple[TimingRow, ...]

    def final_costs(self, architecture: str) -> list[float]:
        last = max(r.iteration for r in self.curves)
        return [
            r.eval_cost
            for r in self.curves
            if r.architecture == architecture and r.iteration == last
        ]

    def mean_cost_at(self, architecture: str, iteration: int) -> float:
        values = [
            r.eval_cost
            for r in self.curves
            if r.architecture == architecture and r.iteration == iteration
        ]
        if not values:
            raise KeyError(f"no rows for {architecture} at iteration {iteration}")
        return sum(values) / len(values)


Row = TypeVar("Row")


def write_table(path: str | Path, row_type: type, rows: Iterable) -> None:
    """Write dataclass rows under a header of ``row_type``'s field names."""
    names = [f.name for f in fields(row_type)]
    write_rows_csv(path, names, ([getattr(row, name) for name in names] for row in rows))


def _parser(annotation) -> Callable[[str], Any]:
    """Parse one field's text: ``""`` is None for an Optional field, a bool is 0 or 1."""
    args = typing.get_args(annotation)
    if type(None) in args:
        parse = _parser(next(a for a in args if a is not type(None)))
        return lambda text: None if text == "" else parse(text)
    if annotation is bool:
        return lambda text: bool(int(text))
    return annotation


def read_table(path: str | Path, row_type: type[Row]) -> tuple[Row, ...]:
    """The rows ``write_table`` wrote; a wrong header or field count is a ValueError."""
    lines = read_rows_csv(path)
    names = [f.name for f in fields(row_type)]
    if not lines or lines[0] != names:
        got = lines[0] if lines else "an empty file"
        raise ValueError(
            f"{path}: line 1: expected the {row_type.__name__} header {names}, got {got}"
        )
    for number, row in enumerate(lines[1:], start=2):
        if len(row) != len(names):
            raise ValueError(f"{path}: line {number}: expected {len(names)} fields, got {len(row)}")
    hints = typing.get_type_hints(row_type)
    parsers = [_parser(hints[name]) for name in names]
    return tuple(row_type(*(parse(text) for parse, text in zip(parsers, row))) for row in lines[1:])


def read_curves_csv(path: str | Path) -> tuple[CurveRow, ...]:
    return read_table(path, CurveRow)


def read_timing_csv(path: str | Path) -> tuple[TimingRow, ...]:
    return read_table(path, TimingRow)


def _timing_row(
    name: str, config: ExperimentConfig, runs: Sequence[Sequence[IterationRecord]], warmup: int
) -> TimingRow:
    """Statistics over the iterations after the first ``warmup`` updates of each run."""
    measured = [r for records in runs for r in [r for r in records if r.iteration > 0][warmup:]]
    seconds = [r.wall_eval_s + r.wall_update_s for r in measured]
    updates = [diag.flags for r in measured for diag in r.agents
               if "empty_gradient_set" not in diag.flags]
    return TimingRow(
        name, config.n_agents, config.t_rollout,
        statistics.fmean(seconds) if seconds else None,
        statistics.median(seconds) if seconds else None,
        len(seconds),
        frozen_updates=sum(any(flag in _FROZEN_FLAGS for flag in flags) for flags in updates),
        diverged_evals=sum(r.eval_diverged for r in measured),
        attempted_updates=len(updates),
    )


def _with_ratios(rows: Sequence[TimingRow]) -> tuple[TimingRow, ...]:
    """The rows with ``ratio_vs_indirect`` set to each mean over the ``indirect`` row's mean.

    The ratio is None where either mean is missing or the indirect mean is 0.
    """
    base = next(
        (r.mean_iteration_s for r in rows if r.architecture == Architecture.INDIRECT.value), None
    )
    return tuple(
        replace(r, ratio_vs_indirect=(
            r.mean_iteration_s / base if base and r.mean_iteration_s is not None else None
        ))
        for r in rows
    )


def run_experiment(
    config: ExperimentConfig, output_root: Optional[str | Path] = None, *, warmup: int = 0
) -> ResultTable:
    """Run all (architecture, seed) cells and emit CSV artifacts.

    Artifacts under the output root: ``curves.csv``, ``timing.csv``, and
    ``<architecture>/seed_<seed>/agents.csv`` per architecture and seed.
    The timing table leaves out the first ``warmup`` updates of each run.
    When no output location is configured, no files are written and the
    tables are only returned.
    """
    system = config.build_system()
    out_dir: Optional[Path] = None
    target = output_root if output_root is not None else config.output_dir
    if target is not None:
        out_dir = Path(target)
        out_dir.mkdir(parents=True, exist_ok=True)

    curves: list[CurveRow] = []
    timing: list[TimingRow] = []
    for arch_name in config.architectures:
        architecture = Architecture.parse(arch_name)
        arch_runs = []
        for seed in config.seeds:
            logger.info("running %s seed %d", arch_name, seed)
            records = run_malspi(system, architecture, config.malspi_config(seed))
            arch_runs.append(records)
            curves.extend(
                CurveRow(arch_name, seed, r.iteration, r.eval_cost, r.eval_diverged)
                for r in records
            )
            if out_dir is not None:
                run_dir = out_dir / arch_name / f"seed_{seed}"
                run_dir.mkdir(parents=True, exist_ok=True)
                write_table(run_dir / "agents.csv", AgentRow, (
                    AgentRow(r.iteration, diag.agent, r.eval_cost, diag.q_error, diag.rcond,
                             r.wall_eval_s * 1e3, r.wall_update_s * 1e3, "|".join(diag.flags))
                    for r in records for diag in r.agents
                ))
        timing.append(_timing_row(arch_name, config, arch_runs, warmup))

    table = ResultTable(curves=tuple(curves), timing=_with_ratios(timing))
    if out_dir is not None:
        write_table(out_dir / "curves.csv", CurveRow, table.curves)
        write_table(out_dir / "timing.csv", TimingRow, table.timing)
    return table


def full_set_feature_dim(config: ExperimentConfig) -> int:
    """Feature dimension of a full-agent-set regression under the config."""
    return svec_dim((config.n_x + config.n_u) * config.n_agents)


def timing_benchmark(
    config: ExperimentConfig,
    n_list: Sequence[int],
    *,
    architectures: Optional[Sequence[str]] = None,
    warmup: int = 1,
    measured: int = 2,
    t_mode: str = "fixed",
    centralized_max_n: int = 20,
) -> list[TimingRow]:
    """Per-iteration wall time across agent counts, one row per (arch, N).

    Each agent count is one file-less ``run_experiment`` on the first seed
    that leaves out the first ``warmup`` updates.  The full-dimension
    architecture, ``centralized``, is skipped (NA row) above
    ``centralized_max_n``.
    ``t_mode="auto"`` raises the rollout length at an agent count to keep
    every regression there determined (feature dimension plus margin), for
    all its architectures alike; ``"fixed"`` keeps the config's length.
    """
    if t_mode not in ("fixed", "auto"):
        raise ValueError(f"t_mode must be 'fixed' or 'auto', got {t_mode!r}")
    if warmup < 0 or measured < 1:
        raise ValueError(f"need warmup >= 0 and measured >= 1, got {warmup} and {measured}")
    archs = tuple(architectures) if architectures is not None else config.architectures
    full_dim = Architecture.CENTRALIZED.value

    # Every agent count is checked before the first one runs.
    if config.graphs is not None and any(n != config.n_agents for n in n_list):
        raise ConfigError("explicit graphs cannot be rescaled; use a named example for benchmarks")
    repeated = sorted({n for n in n_list if n_list.count(n) > 1})
    if repeated:
        raise ConfigError(f"agent counts {repeated} are listed more than once")
    configs = [replace(config, n_agents=int(n), architectures=archs, seeds=config.seeds[:1],
                       n_iterations=warmup + measured, output_dir=None, oracle_diagnostics=False)
               for n in n_list]

    rows: list[TimingRow] = []
    for cfg_n in configs:
        n = cfg_n.n_agents
        active = tuple(a for a in archs if not (a == full_dim and n > centralized_max_n))
        t_run = cfg_n.t_rollout
        if t_mode == "auto" and full_dim in active:
            t_run = max(t_run, full_set_feature_dim(cfg_n) + 50)
        timed = {}
        if active:
            run_config = replace(cfg_n, architectures=active, t_rollout=t_run)
            timed = {r.architecture: r for r in run_experiment(run_config, warmup=warmup).timing}
        rows.extend(timed.get(a) or TimingRow(a, n, None, None, None, 0, skipped=True)
                    for a in archs)
    return rows
