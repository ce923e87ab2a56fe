"""Command-line entry points for experiments, diagnostics, and verification.

Subcommands:

* ``run``     execute an experiment config and write CSV artifacts
* ``graphs``  print dependency sets and coupling-condition reports as JSON
* ``bounds``  print the sample-complexity calculators as JSON
* ``verify``  run the brute-force oracle suite, one pass/fail line per check
* ``bench``   per-iteration timing across agent counts

The output root is the ``--output`` option, else the config's
``output_dir``, else $MALSPI_OUTPUT_ROOT, else ``./results``.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from .bounds import bound_inputs_from_subsystem, sample_bound_direct, sample_bound_indirect
from .config import ConfigError, ExperimentConfig, load_config
from .config import parse_config  # noqa: F401  unused; a perfbench span rebinds this name
from .graphs import CouplingGraphs, dependency_sets, graphical_conditions
from .policy_iteration import Architecture
from .linalg import InstabilityError
from .runner import TimingRow, run_experiment, timing_benchmark, write_table
from .system import extract_subsystem, zero_policy
from .verify import run_all_checks

ENV_OUTPUT_ROOT = "MALSPI_OUTPUT_ROOT"


def _resolve_output(config: ExperimentConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    if config.output_dir:
        return Path(config.output_dir)
    env = os.environ.get(ENV_OUTPUT_ROOT)
    return Path(env) if env else Path("results")


def _apply_overrides(config: ExperimentConfig, seeds, archs, n_agents) -> ExperimentConfig:
    changes = {}
    if seeds:
        changes["seeds"] = tuple(seeds)
    if archs:
        changes["architectures"] = tuple(archs)
    if n_agents is not None:
        if config.graphs is not None:
            raise click.ClickException("--n-agents cannot override a config with explicit graphs")
        changes["n_agents"] = n_agents
    # replace re-runs the configuration's validation
    return replace(config, **changes)


def _selected_agents(graphs: CouplingGraphs, agent: int | None) -> list[int]:
    if agent is None:
        return list(graphs.agents)
    if agent not in graphs.agents:
        raise click.BadParameter(
            f"agent {agent} is outside 1..{graphs.n_agents}", param_hint="'--agent'"
        )
    return [agent]


class _Main(click.Group):
    """Command group that reports a bad configuration or an unstable plant as a one-line error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfigError, InstabilityError) as exc:
            raise click.ClickException(str(exc)) from None


def _echo(message: str) -> None:
    # Without ``file=``, click.echo caches a wrapper for sys.stdout in a
    # WeakKeyDictionary whose value is the stream itself, so every stream
    # it is handed (one per in-process invocation) stays alive for good.
    # get_text_stream resolves the stream per call and caches nothing.
    click.echo(message, file=click.get_text_stream("stdout"))


def _echo_timing(row: TimingRow) -> None:
    if row.skipped:
        _echo(f"  {row.architecture:>20} N={row.n_agents}: NA (skipped)")
        return
    mean, median = (
        "NA" if s is None else f"{s:.4f}s" for s in (row.mean_iteration_s, row.median_iteration_s)
    )
    ratio = (
        "" if row.ratio_vs_indirect is None else f" ratio_vs_indirect {row.ratio_vs_indirect:.2f}"
    )
    _echo(
        f"  {row.architecture:>20} N={row.n_agents}: mean {mean} median {median} "
        f"(T={row.t_rollout}){ratio}; frozen updates {row.frozen_updates} of "
        f"{row.attempted_updates}, diverged evals {row.diverged_evals}"
    )


@click.group(cls=_Main)
@click.option("--verbose", is_flag=True, help="Log per-run progress.")
@click.pass_context
def main(ctx: click.Context, verbose: bool) -> None:
    # Each invocation logs to its own stderr at its own level and undoes
    # both when it ends; logging.basicConfig would keep the first
    # invocation's stream and level for the rest of the process.
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(message)s"))
    previous_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO if verbose else logging.WARNING)

    def restore() -> None:
        root.removeHandler(handler)
        root.setLevel(previous_level)

    ctx.call_on_close(restore)


_seed_opt = click.option("--seed", "seeds", multiple=True, type=int, help="Override config seeds.")
_arch_opt = click.option(
    "--arch",
    "archs",
    multiple=True,
    type=click.Choice([a.value for a in Architecture]),
    help="Override config architectures.",
)
_n_opt = click.option("--n-agents", type=int, default=None, help="Override agent count.")
_positive = click.FloatRange(min=0, min_open=True)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(file_okay=False), default=None)
@_seed_opt
@_arch_opt
@_n_opt
def run(config_path: str, output: str | None, seeds, archs, n_agents) -> None:
    """Run the experiment described by CONFIG_PATH."""
    config = _apply_overrides(load_config(config_path), seeds, archs, n_agents)
    out_dir = _resolve_output(config, output)
    table = run_experiment(config, out_dir)
    _echo(f"wrote {len(table.curves)} curve rows to {out_dir}")
    for row in table.timing:
        _echo_timing(row)


@main.command("graphs")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--agent", type=int, default=None, help="Restrict the report to one agent.")
@_n_opt
def graphs_cmd(config_path: str, agent: int | None, n_agents) -> None:
    """Print dependency sets and coupling-condition reports as JSON."""
    config = _apply_overrides(load_config(config_path), (), (), n_agents)
    graphs = config.build_graphs()
    agents = _selected_agents(graphs, agent)
    deps = dependency_sets(graphs)
    conditions = graphical_conditions(graphs)
    report = {"n_agents": graphs.n_agents, "agents": {}}
    for i in agents:
        cond = conditions[i]
        report["agents"][str(i)] = {
            "reachability": list(deps.reach[i]),
            "value_set": list(deps.value[i]),
            "gradient_set": list(deps.gradient[i]),
            "direct_set": list(deps.direct[i]),
            "cond_a": cond.cond_a,
            "direct_set_proper": cond.direct_set_proper,
            "partners": {
                str(j): {"cond_b": cond_b, "value_set_strictly_contained": strict}
                for j, (cond_b, strict) in cond.partners.items()
            },
        }
    _echo(json.dumps(report, indent=2))


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--agent", type=int, default=None, help="Restrict the report to one agent.")
@click.option("--epsilon", type=_positive, default=None, help="Target accuracy for sample counts.")
@click.option("--o-tilde", type=_positive, default=1.0, show_default=True,
              help="Multiplier standing in for the unidentified absolute constant.")
@_n_opt
def bounds(config_path: str, agent: int | None, epsilon: float | None, o_tilde: float, n_agents) -> None:
    """Print the direct/indirect sample-complexity calculators as JSON."""
    config = _apply_overrides(load_config(config_path), (), (), n_agents)
    if not 0 < config.sigma_eta <= config.sigma_w:
        raise ConfigError(
            f"bounds needs 0 < sigma_eta <= sigma_w, got sigma_eta {config.sigma_eta!r} "
            f"and sigma_w {config.sigma_w!r}"
        )
    system = config.build_system()
    graphs = system.graphs
    agents = _selected_agents(graphs, agent)
    deps = dependency_sets(graphs)
    policy = zero_policy(graphs, system.n_x, system.n_u)
    # Each (agent set, owners) pair is extracted once and its subsystem
    # measured at most once: a value set recurs in every gradient set that
    # contains its owner, and identical agents restrict to identical
    # matrices.  The noise levels, sigma0, o_tilde and the policy are fixed
    # for this invocation, so the restricted matrices decide the
    # measurement; they are compared byte for byte.
    measured = {}

    @functools.cache
    def inputs(agent_set, cost_owners):
        sub = extract_subsystem(system, policy, agent_set, cost_owners)
        key = tuple((m.shape, m.tobytes()) for m in (sub.a, sub.b, sub.k, sub.s, sub.r))
        if key not in measured:
            measured[key] = bound_inputs_from_subsystem(
                sub, sigma_eta=config.sigma_eta, norm_sigma0=config.sigma0, o_tilde=o_tilde
            )
        return measured[key]

    report = {}
    for i in agents:
        grad_set = deps.gradient[i]
        if not grad_set:
            report[str(i)] = {"note": "empty gradient set; nothing to estimate"}
            continue
        direct_inputs = inputs(deps.direct[i], grad_set)
        member_inputs = [inputs(deps.value[j], (j,)) for j in grad_set]
        report[str(i)] = {
            "direct_set": list(deps.direct[i]),
            "gradient_set": list(grad_set),
            "direct": sample_bound_direct(direct_inputs, epsilon=epsilon).to_dict(),
            "indirect": sample_bound_indirect(member_inputs, epsilon=epsilon).to_dict(),
        }
    _echo(json.dumps(report, indent=2))


@main.command()
def verify() -> None:
    """Run the brute-force oracle suite; exits non-zero on any failure."""
    results = run_all_checks()
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failed += 1
        _echo(f"[{status}] {result.name}: {result.detail}")
    if failed:
        raise SystemExit(1)
    _echo(f"all {len(results)} checks passed")


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-agents", "n_list", multiple=True, type=int, required=True,
              help="Agent counts to benchmark (repeatable).")
@_arch_opt
@click.option("--warmup", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--measured", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--t-mode", type=click.Choice(["fixed", "auto"]), default="fixed", show_default=True,
              help="'auto' raises the rollout length so full-set regressions stay determined.")
@click.option("--centralized-max-n", type=int, default=20, show_default=True)
@click.option("--output", type=click.Path(file_okay=False), default=None)
def bench(config_path: str, n_list, archs, warmup: int, measured: int, t_mode: str,
          centralized_max_n: int, output: str | None) -> None:
    """Measure per-iteration wall time across agent counts."""
    config = load_config(config_path)
    rows = timing_benchmark(
        config,
        list(n_list),
        architectures=list(archs) or None,
        warmup=warmup,
        measured=measured,
        t_mode=t_mode,
        centralized_max_n=centralized_max_n,
    )
    out_dir = _resolve_output(config, output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "bench.csv", TimingRow, rows)
    for row in rows:
        _echo_timing(row)
    _echo(f"wrote {out_dir / 'bench.csv'}")


if __name__ == "__main__":
    main()
