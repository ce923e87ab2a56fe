"""Experiment execution: architecture sweeps, CSV artifacts, timing benchmarks.

``run_experiment`` runs every (architecture, seed) cell of a configuration,
writes one per-agent CSV per run under seed-scoped directories, and returns
(and writes) the learning-curve and timing tables.  ``timing_benchmark``
measures mean and median per-iteration wall time across agent counts, with
a warm-up iteration excluded and oversized architectures skipped as
explicit NA rows.
"""
from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .config import ExperimentConfig, parse_config
from .io import read_rows_csv, write_rows_csv
from .linalg import svec_dim
from .policy_iteration import Architecture, IterationRecord, run_malspi

logger = logging.getLogger(__name__)

# flags of an agent update whose gain was carried forward unchanged
_FROZEN_FLAGS = ("singular", "underdetermined")

CURVE_HEADER = ["architecture", "seed", "iteration", "eval_cost", "diverged"]
TIMING_HEADER = [
    "architecture",
    "n_agents",
    "mean_iteration_s",
    "median_iteration_s",
    "n_measured",
    "ratio_vs_indirect",
]
AGENT_HEADER = [
    "iteration",
    "agent",
    "eval_cost",
    "q_err_if_oracle_known",
    "rcond",
    "wall_ms_eval",
    "wall_ms_update",
    "flags",
]


@dataclass(frozen=True)
class CurveRow:
    architecture: str
    seed: int
    iteration: int
    eval_cost: float
    diverged: bool


@dataclass(frozen=True)
class TimingRow:
    architecture: str
    n_agents: int
    mean_iteration_s: Optional[float]
    median_iteration_s: Optional[float]
    n_measured: int
    ratio_vs_indirect: Optional[float]


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


def _iteration_seconds(records: Sequence[IterationRecord]) -> list[float]:
    return [r.wall_eval_s + r.wall_update_s for r in records if r.iteration > 0]


def _agent_rows(records: Sequence[IterationRecord]):
    for record in records:
        for diag in record.agents:
            yield [
                record.iteration,
                diag.agent,
                record.eval_cost,
                diag.q_error,
                diag.rcond,
                record.wall_eval_s * 1e3,
                record.wall_update_s * 1e3,
                "|".join(diag.flags),
            ]


def run_experiment(
    config: ExperimentConfig, output_root: Optional[str | Path] = None
) -> ResultTable:
    """Run all (architecture, seed) cells and emit CSV artifacts.

    Artifacts under the output root: ``curves.csv``, ``timing.csv``, and
    ``<architecture>/seed_<seed>/agents.csv`` per configured name and seed.
    Names that parse to the same architecture (``undecomposed_direct`` and
    ``centralized``) share one run per seed, reported under each name.
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
    seconds_by_arch: dict[str, list[float]] = {}
    runs: dict[tuple[Architecture, int], list[IterationRecord]] = {}
    for arch_name in config.architectures:
        architecture = Architecture.parse(arch_name)
        seconds_by_arch[arch_name] = []
        for seed in config.seeds:
            if (architecture, seed) not in runs:
                logger.info("running %s seed %d", arch_name, seed)
                runs[architecture, seed] = run_malspi(
                    system, architecture, config.malspi_config(seed)
                )
            records = runs[architecture, seed]
            seconds_by_arch[arch_name].extend(_iteration_seconds(records))
            for record in records:
                curves.append(
                    CurveRow(
                        architecture=arch_name,
                        seed=seed,
                        iteration=record.iteration,
                        eval_cost=record.eval_cost,
                        diverged=record.eval_diverged,
                    )
                )
            if out_dir is not None:
                run_dir = out_dir / arch_name / f"seed_{seed}"
                run_dir.mkdir(parents=True, exist_ok=True)
                write_rows_csv(run_dir / "agents.csv", AGENT_HEADER, _agent_rows(records))

    timing = _timing_rows(config.n_agents, seconds_by_arch)
    table = ResultTable(curves=tuple(curves), timing=tuple(timing))
    if out_dir is not None:
        write_curves_csv(out_dir / "curves.csv", table.curves)
        write_timing_csv(out_dir / "timing.csv", table.timing)
    return table


def _timing_rows(
    n_agents: int, seconds_by_arch: dict[str, list[float]]
) -> list[TimingRow]:
    means = {
        arch: (statistics.fmean(vals) if vals else None)
        for arch, vals in seconds_by_arch.items()
    }
    base = means.get(Architecture.INDIRECT.value)
    rows = []
    for arch, vals in seconds_by_arch.items():
        mean = means[arch]
        rows.append(
            TimingRow(
                architecture=arch,
                n_agents=n_agents,
                mean_iteration_s=mean,
                median_iteration_s=statistics.median(vals) if vals else None,
                n_measured=len(vals),
                ratio_vs_indirect=(
                    mean / base if (mean is not None and base is not None and base > 0) else None
                ),
            )
        )
    return rows


def write_curves_csv(path: str | Path, curves: Sequence[CurveRow]) -> None:
    write_rows_csv(
        path,
        CURVE_HEADER,
        (
            [r.architecture, r.seed, r.iteration, r.eval_cost, int(r.diverged)]
            for r in curves
        ),
    )


def read_curves_csv(path: str | Path) -> tuple[CurveRow, ...]:
    header, rows = read_rows_csv(path)
    if header != CURVE_HEADER:
        raise ValueError(f"unexpected curve header {header}")
    return tuple(
        CurveRow(
            architecture=row[0],
            seed=int(row[1]),
            iteration=int(row[2]),
            eval_cost=float(row[3]),
            diverged=bool(int(row[4])),
        )
        for row in rows
    )


def write_timing_csv(path: str | Path, timing: Sequence[TimingRow]) -> None:
    write_rows_csv(
        path,
        TIMING_HEADER,
        (
            [
                r.architecture,
                r.n_agents,
                r.mean_iteration_s,
                r.median_iteration_s,
                r.n_measured,
                r.ratio_vs_indirect,
            ]
            for r in timing
        ),
    )


def read_timing_csv(path: str | Path) -> tuple[TimingRow, ...]:
    header, rows = read_rows_csv(path)
    if header != TIMING_HEADER:
        raise ValueError(f"unexpected timing header {header}")
    out = []
    for row in rows:
        out.append(
            TimingRow(
                architecture=row[0],
                n_agents=int(row[1]),
                mean_iteration_s=None if row[2] == "" else float(row[2]),
                median_iteration_s=None if row[3] == "" else float(row[3]),
                n_measured=int(row[4]),
                ratio_vs_indirect=None if row[5] == "" else float(row[5]),
            )
        )
    return tuple(out)


def full_set_feature_dim(config: ExperimentConfig) -> int:
    """Feature dimension of a full-agent-set regression under the config."""
    return svec_dim((config.n_x + config.n_u) * config.n_agents)


@dataclass(frozen=True)
class BenchCell:
    """Timing of one (architecture, N) cell over its measured iterations.

    ``frozen_updates`` counts agent updates flagged ``singular`` or
    ``underdetermined`` (gain carried forward unchanged) and
    ``diverged_evals`` the evaluation rollouts that diverged, both over the
    measured iterations only.
    """

    architecture: str
    n_agents: int
    t_rollout: Optional[int]
    mean_iteration_s: Optional[float]
    median_iteration_s: Optional[float]
    n_measured: int
    skipped: bool
    ratio_vs_indirect: Optional[float] = None
    frozen_updates: int = 0
    diverged_evals: int = 0


def timing_benchmark(
    config: ExperimentConfig,
    n_list: Sequence[int],
    *,
    architectures: Optional[Sequence[str]] = None,
    warmup: int = 1,
    measured: int = 2,
    t_mode: str = "fixed",
    centralized_max_n: int = 20,
) -> list[BenchCell]:
    """Per-iteration wall time across agent counts, one row per (arch, N).

    The first ``warmup`` iterations are excluded from the statistics.  The
    full-dimension architectures are skipped (NA row) above
    ``centralized_max_n``.  With ``t_mode="auto"`` the rollout length is
    raised to keep every requested regression determined (feature dimension
    plus margin), applied uniformly to all architectures at that agent
    count so the comparison is ratio-fair; ``"fixed"`` keeps the config's
    rollout length everywhere.
    """
    if t_mode not in ("fixed", "auto"):
        raise ValueError(f"t_mode must be 'fixed' or 'auto', got {t_mode!r}")
    archs = tuple(architectures) if architectures is not None else config.architectures
    parsed = {name: Architecture.parse(name) for name in archs}
    full_dim_archs = {name for name, a in parsed.items() if a is Architecture.CENTRALIZED}

    cells: list[BenchCell] = []
    for n in n_list:
        cfg_n = _with_overrides(config, n, archs, warmup + measured)
        active = [a for a in archs if not (a in full_dim_archs and n > centralized_max_n)]
        t_run = cfg_n.t_rollout
        if t_mode == "auto" and any(a in full_dim_archs for a in active):
            t_run = max(t_run, full_set_feature_dim(cfg_n) + 50)
        system = cfg_n.build_system()
        row_cells: list[BenchCell] = []
        for arch_name in archs:
            if arch_name not in active:
                row_cells.append(
                    BenchCell(arch_name, int(n), None, None, None, 0, skipped=True)
                )
                continue
            logger.info("benchmark %s at N=%d (T=%d)", arch_name, n, t_run)
            mcfg = replace(cfg_n.malspi_config(cfg_n.seeds[0]), t_rollout=int(t_run))
            records = run_malspi(system, parsed[arch_name], mcfg)
            measured_records = [r for r in records if r.iteration > 0][warmup:]
            secs = _iteration_seconds(measured_records)
            row_cells.append(
                BenchCell(
                    architecture=arch_name,
                    n_agents=int(n),
                    t_rollout=t_run,
                    mean_iteration_s=statistics.fmean(secs) if secs else None,
                    median_iteration_s=statistics.median(secs) if secs else None,
                    n_measured=len(secs),
                    skipped=False,
                    frozen_updates=sum(
                        any(flag in _FROZEN_FLAGS for flag in diag.flags)
                        for r in measured_records
                        for diag in r.agents
                    ),
                    diverged_evals=sum(r.eval_diverged for r in measured_records),
                )
            )
        base = next(
            (c.mean_iteration_s for c in row_cells
             if c.architecture == Architecture.INDIRECT.value and c.mean_iteration_s),
            None,
        )
        if base:
            row_cells = [
                replace(c, ratio_vs_indirect=(None if c.mean_iteration_s is None
                                              else c.mean_iteration_s / base))
                for c in row_cells
            ]
        cells.extend(row_cells)
    return cells


def _with_overrides(
    config: ExperimentConfig, n_agents: int, archs: Sequence[str], n_iterations: int
) -> ExperimentConfig:
    data = config.to_json_dict()
    data["n_agents"] = int(n_agents)
    data["architectures"] = list(archs)
    data["n_iterations"] = int(n_iterations)
    data["oracle_diagnostics"] = False
    if data["graphs"] is not None and config.n_agents != n_agents:
        raise ValueError("explicit graphs cannot be rescaled; use a named example for benchmarks")
    return parse_config(data)


BENCH_HEADER = [
    "architecture",
    "n_agents",
    "t_rollout",
    "mean_iteration_s",
    "median_iteration_s",
    "n_measured",
    "skipped",
    "ratio_vs_indirect",
    "frozen_updates",
    "diverged_evals",
]


def write_bench_csv(path: str | Path, cells: Sequence[BenchCell]) -> None:
    write_rows_csv(
        path,
        BENCH_HEADER,
        (
            [
                c.architecture,
                c.n_agents,
                c.t_rollout,
                c.mean_iteration_s,
                c.median_iteration_s,
                c.n_measured,
                int(c.skipped),
                c.ratio_vs_indirect,
                c.frozen_updates,
                c.diverged_evals,
            ]
            for c in cells
        ),
    )


def read_bench_csv(path: str | Path) -> tuple[BenchCell, ...]:
    header, rows = read_rows_csv(path)
    if header != BENCH_HEADER:
        raise ValueError(f"unexpected benchmark header {header}")
    return tuple(
        BenchCell(
            architecture=row[0],
            n_agents=int(row[1]),
            t_rollout=None if row[2] == "" else int(row[2]),
            mean_iteration_s=None if row[3] == "" else float(row[3]),
            median_iteration_s=None if row[4] == "" else float(row[4]),
            n_measured=int(row[5]),
            skipped=bool(int(row[6])),
            ratio_vs_indirect=None if row[7] == "" else float(row[7]),
            frozen_updates=int(row[8]),
            diverged_evals=int(row[9]),
        )
        for row in rows
    )
