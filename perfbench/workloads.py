"""The benchmark's workloads: inputs made from a seed, one timed unit, checks.

A workload repeats one unit of work (a *rep*) on identical inputs, so every
rep must produce bitwise-identical results; that is one of its checks.
Each workload is sized so one candidate layer dominates it and the others
stay idle (see README.md for the layer map).  Results are post-processed
and checked outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from click.testing import CliRunner

from malspi import cli, runner, verify
from malspi import config as config_mod
from malspi import policy_iteration as pi
from malspi.linalg import svec_dim
from tracing import patched

# Criterion-6 plant: 2x2 chain with 0.85 on the diagonal, small step size.
PLANT = {"a_self": [[0.85, 0.01], [0.01, 0.85]]}
FROZEN_FLAGS = ("singular", "underdetermined")


def criterion6_config(
    example: str,
    n_agents: int,
    t_rollout: int,
    n_iterations: int,
    architectures: Iterable[str],
    seeds: Iterable[int],
) -> dict:
    return {
        "n_agents": n_agents,
        "example": example,
        "n_x": 2,
        "n_u": 2,
        "dynamics": dict(PLANT),
        "sigma_w": 1.0,
        "sigma_eta": 1.0,
        "t_rollout": t_rollout,
        "t_eval": 500,
        "n_iterations": n_iterations,
        "alpha": 4e-7,
        "zeta": 1e-6,
        "seeds": list(seeds),
        "architectures": list(architectures),
    }


def full_set_dim(n_agents: int) -> int:
    """Feature dimension d of a full-agent-set regression on the n_x=n_u=2 plant."""
    return svec_dim(4 * n_agents)


@dataclass
class Ops:
    """Operations attempted and failed: agent updates, evaluation rollouts, bound reports."""

    updates: int = 0
    frozen: int = 0
    evals: int = 0
    diverged: int = 0
    reports: int = 0
    bad_reports: int = 0

    @property
    def attempted(self) -> int:
        return self.updates + self.evals + self.reports

    @property
    def failed(self) -> int:
        return self.frozen + self.diverged + self.bad_reports

    def add_update(self, flags: Iterable[str]) -> None:
        flags = tuple(flags)
        if "empty_gradient_set" in flags:
            return
        self.updates += 1
        self.frozen += int(any(f in FROZEN_FLAGS for f in flags))

    def add_eval(self, diverged: bool) -> None:
        self.evals += 1
        self.diverged += int(diverged)


@dataclass
class Rep:
    """One timed unit of work and what it produced."""

    wall_s: float
    digest: str
    ops: Ops
    cell_iter_s: list[tuple[str, float]] = field(default_factory=list)
    final_costs: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def bitwise_repeat_check(reps: list[Rep], what: str) -> Check:
    distinct = len({rep.digest for rep in reps})
    return Check(
        "bitwise_repeat",
        distinct == 1,
        f"{len(reps)} reps with the same seed, {distinct} distinct {what}",
    )


class Workload:
    name: str
    summary: str
    # Spans whose self time should dominate the traced rep.
    predicted: tuple[str, ...]

    def configs(self) -> list[dict]:
        """Config documents the set-up probe parses and builds."""
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def checks(self, reps: list[Rep]) -> list[Check]:
        raise NotImplementedError


class Experiment(Workload):
    """``run_experiment`` on one config, writing CSVs; each cell timed from outside."""

    def __init__(self, name: str, summary: str, data: dict, out_dir: Path,
                 predicted: tuple[str, ...], *, require_all_updates: bool = False):
        self.name = name
        self.summary = summary
        self.data = data
        self.out_dir = out_dir
        self.predicted = predicted
        self.require_all_updates = require_all_updates
        self._last_table = None

    def configs(self) -> list[dict]:
        return [self.data]

    def rep(self) -> Rep:
        cells: list[tuple[str, float, list]] = []

        def timed(run_malspi: Callable) -> Callable:
            def run(system, architecture, mconfig):
                t0 = time.perf_counter()
                records = run_malspi(system, architecture, mconfig)
                cells.append((architecture.value, (time.perf_counter() - t0) / mconfig.n_iterations,
                              records))
                return records
            return run

        with patched("malspi.runner", "run_malspi", timed):
            start = time.perf_counter()
            config = config_mod.parse_config(self.data)
            table = runner.run_experiment(config, self.out_dir)
            wall = time.perf_counter() - start

        self._last_table = table
        ops = Ops()
        digest = hashlib.sha256()
        for _, _, records in cells:
            for record in records:
                ops.add_eval(record.eval_diverged)
                for diag in record.agents:
                    ops.add_update(diag.flags)
            digest.update(records[-1].gain.tobytes())
            digest.update(np.array([r.eval_cost for r in records]).tobytes())
        return Rep(
            wall_s=wall,
            digest=digest.hexdigest(),
            ops=ops,
            cell_iter_s=[(arch, per_iter) for arch, per_iter, _ in cells],
            final_costs=[records[-1].eval_cost for _, _, records in cells],
        )

    def checks(self, reps: list[Rep]) -> list[Check]:
        out = [bitwise_repeat_check(reps, "final gains and cost curves")]
        table = self._last_table
        curves_ok = runner.read_curves_csv(self.out_dir / "curves.csv") == table.curves
        timing_ok = runner.read_timing_csv(self.out_dir / "timing.csv") == table.timing
        n_agent_files = len(list(self.out_dir.glob("*/seed_*/agents.csv")))
        expected = len(self.data["architectures"]) * len(self.data["seeds"])
        out.append(Check(
            "csv_roundtrip",
            curves_ok and timing_ok and n_agent_files == expected,
            f"curves.csv {'==' if curves_ok else '!='} table, timing.csv "
            f"{'==' if timing_ok else '!='} table, {n_agent_files}/{expected} agents.csv",
        ))
        if self.require_all_updates:
            frozen = sum(rep.ops.frozen for rep in reps)
            updates = sum(rep.ops.updates for rep in reps)
            out.append(Check("no_frozen_updates", frozen == 0, f"{frozen} of {updates} updates frozen"))
        return out


class Oracle(Workload):
    """The ``malspi bounds`` CLI path on one config file."""

    def __init__(self, name: str, summary: str, data: dict, config_path: Path,
                 predicted: tuple[str, ...]):
        self.name = name
        self.summary = summary
        self.data = data
        self.config_path = config_path
        self.predicted = predicted
        config_path.write_text(json.dumps(data), encoding="utf-8")
        self._leader: dict = {}

    def configs(self) -> list[dict]:
        return [self.data]

    def rep(self) -> Rep:
        largest: dict = {}

        def capture(lyapunov_solve: Callable) -> Callable:
            # Keep the largest solve (the leader's whole-team set) for the oracle check.
            def solve(x, y):
                p = lyapunov_solve(x, y)
                if x.shape[0] > largest.get("n", -1):
                    largest.update(n=x.shape[0], x=x, y=y, p=p)
                return p
            return solve

        with patched("malspi.bounds", "lyapunov_solve", capture):
            start = time.perf_counter()
            result = CliRunner().invoke(cli.main, ["bounds", str(self.config_path)])
            wall = time.perf_counter() - start

        self._leader = largest
        n_agents = self.data["n_agents"]
        report = json.loads(result.output) if result.exit_code == 0 else {}
        ops = Ops(reports=n_agents, bad_reports=sum(
            not _finite_bound_report(report.get(str(i))) for i in range(1, n_agents + 1)))
        digest = hashlib.sha256(f"{result.exit_code}\n{result.output}".encode()).hexdigest()
        return Rep(wall_s=wall, digest=digest, ops=ops)

    def checks(self, reps: list[Rep]) -> list[Check]:
        out = [bitwise_repeat_check(reps, "CLI outputs")]
        leader = self._leader
        team_dim = self.data["n_agents"] * self.data.get("n_x", 3)
        if leader.get("n") != team_dim:
            out.append(Check("leader_lyapunov_oracle", False,
                             f"largest Lyapunov solve has n={leader.get('n')}, expected {team_dim}"))
            return out
        reference = verify.lyapunov_iteration_oracle(leader["x"], leader["y"])
        scale = max(1.0, float(np.max(np.abs(reference))))
        gap = float(np.max(np.abs(leader["p"] - reference))) / scale
        out.append(Check("leader_lyapunov_oracle", gap < 1e-9,
                         f"n={team_dim}: relative gap {gap:.3g} to fixed-point iteration"))
        return out


def _finite_bound_report(entry) -> bool:
    if not isinstance(entry, dict):
        return False
    if "note" in entry:
        return True
    values = [entry.get(kind, {}).get(key) for kind in ("direct", "indirect")
              for key in ("t_min", "err_coefficient")]
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values)


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    """Build workload ``name`` with inputs derived from ``seed``."""
    if name == "decomposed":
        return Experiment(
            name,
            "run_experiment on example1 N=40 n_x=n_u=2 T=500, direct and indirect, "
            "2 iterations per cell, CSVs written",
            criterion6_config("example1", 40, 500, 2, ["direct", "indirect"], [seed]),
            work_dir / name,
            predicted=("lstdq.LstdqOperator",),
        )
    if name == "full_set":
        # The determined length `bench --t-mode auto` uses: T = d + 50.
        t_rollout = full_set_dim(12) + 50
        return Experiment(
            name,
            f"run_experiment on example1 N=12 n_x=n_u=2 T={t_rollout}, centralized, "
            f"2 iterations, CSVs written",
            criterion6_config("example1", 12, t_rollout, 2, ["centralized"], [seed]),
            work_dir / name,
            predicted=("lstdq.LstdqOperator",),
            require_all_updates=True,
        )
    if name == "oracle":
        return Oracle(
            name,
            "malspi bounds on example2 N=24 n_x=n_u=3 (default plant), every agent",
            {"n_agents": 24, "example": "example2"},
            work_dir / "oracle.json",
            predicted=("linalg.lyapunov_solve", "system.true_q_matrix"),
        )
    raise ValueError(f"unknown workload {name!r}")
