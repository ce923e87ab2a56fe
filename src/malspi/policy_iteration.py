"""Least-squares policy iteration over the coupling-graph architectures.

Each iteration rolls out a fresh trajectory under the fixed play policy,
evaluates quadratic Q-functions per agent by restricted LSTDQ, and performs
one gradient step on every agent's structured gain.

The architectures differ only in where each cost owner's Q-function is
estimated:

* ``direct``       on the agent's direct dependence set
* ``indirect``     on each owner's own value dependence set
* ``centralized``  on the full agent set

Each iteration factorizes one regression per estimation set and solves it
once for every cost owner estimated there (one multi-right-hand-side
solve).  An agent's update sums the owners' Q matrices over its gradient
dependence set, embedded into its update set, floors the sum's
eigenvalues, and descends the resulting quadratic; the new rows of every
agent are assembled into one policy.  Estimation sets and step layouts
are checked and laid out once per run: only the weights change between
iterations.  With every dependence set equal to the full agent set,
every architecture is therefore the identical computation.  Solves are
shared across agents that use the same estimation set, which never
changes any agent's result.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

import numpy as np

from .graphs import DependencySets, dependency_sets
from .linalg import InstabilityError, psd_project, smat, spectral_radius
from .lstdq import (
    LstdqOperator,
    SingularOperatorError,
    UnderdeterminedError,
    build_regression,
)
from .system import (
    EstimationSet,
    MultiAgentSystem,
    StructuredPolicy,
    TrajectoryBatch,
    average_cost,
    estimation_set,
    extract_subsystem,
    rollout,
    true_q_matrix,
    u_coords,
    x_coords,
    z_embedding_indices,
    zero_policy,
)
from .system import embed_quadratic  # noqa: F401  unused; a perfbench span rebinds this name

AgentSet = tuple[int, ...]


class Architecture(str, Enum):
    CENTRALIZED = "centralized"
    DIRECT = "direct"
    INDIRECT = "indirect"

    @classmethod
    def parse(cls, name: str) -> "Architecture":
        """The architecture a configured name runs."""
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown architecture {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class AgentPlan:
    """Estimation and update layout of one agent under one architecture.

    ``terms`` lists (estimation set, cost owner) pairs whose solutions are
    embedded into ``update_set`` coordinates and summed before the gradient
    step.  ``own_set`` is the set on which the agent's own estimation task
    runs, recorded for diagnostics.
    """

    agent: int
    terms: tuple[tuple[AgentSet, int], ...]
    update_set: AgentSet
    own_set: AgentSet


def architecture_plans(
    architecture: Architecture, deps: DependencySets, n_agents: int
) -> dict[int, AgentPlan]:
    """Per-agent estimation/update layout for the chosen architecture."""
    everyone = tuple(range(1, n_agents + 1))
    plans: dict[int, AgentPlan] = {}
    for i in everyone:
        grad_set = deps.gradient[i]
        if architecture is Architecture.DIRECT:
            est_for = {j: deps.direct[i] for j in grad_set}
            update_set = deps.direct[i]
            own = deps.direct[i]
        elif architecture is Architecture.INDIRECT:
            est_for = {j: deps.value[j] for j in grad_set}
            update_set = deps.direct[i]
            own = deps.value[i]
        else:  # centralized evaluates on everything
            est_for = {j: everyone for j in grad_set}
            update_set = everyone
            own = everyone
        terms = tuple((est_for[j], j) for j in grad_set)
        plans[i] = AgentPlan(agent=i, terms=terms, update_set=update_set, own_set=own)
    return plans


def estimation_sets(
    system: MultiAgentSystem, plans: Mapping[int, AgentPlan]
) -> tuple[EstimationSet, ...]:
    """Every estimation set of the plans, with the owners estimated on it.

    Each set is checked and laid out once (``estimation_set``), in ascending
    order of its agents; a run reuses them on every iteration.
    """
    owner_sets: dict[AgentSet, set[int]] = {}
    for plan in plans.values():
        for est_set, owner in plan.terms:
            owner_sets.setdefault(est_set, set()).add(owner)
    return tuple(estimation_set(system, s, owner_sets[s]) for s in sorted(owner_sets))


@dataclass(frozen=True)
class StepLayout:
    """One agent's improvement step, laid out once per run by ``step_layouts``.

    The update set's samples are z_t = [x(t)[xs]; u(t)[us]]; ``term_cells[c]``
    is where the plan's term c goes in the update-set aggregate; ``u_cols``
    are the agent's columns of z and ``cells`` its ``row_cells``.
    """

    plan: AgentPlan
    xs: np.ndarray
    us: np.ndarray
    term_cells: tuple
    u_cols: np.ndarray
    cells: tuple[slice, np.ndarray]


def step_layouts(policy: StructuredPolicy, plans: Mapping[int, AgentPlan]) -> dict[int, StepLayout]:
    """The layout of each agent whose plan has terms, keyed by agent, agents
    sharing an update set adjacent.  Reads only the policy's graphs and sizes.
    Raises ValueError when an agent or one it observes is outside its update set.
    """
    n_x, n_u = policy.n_x, policy.n_u
    groups: dict[AgentSet, list[StepLayout]] = {}
    for plan in (p for p in plans.values() if p.terms):
        agent, update_set = plan.agent, plan.update_set
        if agent not in update_set:
            raise ValueError(f"agent {agent} is not in the estimate's index set {update_set}")
        outside = [j for j in policy.graphs.observation_in_neighbors(agent) if j not in update_set]
        if outside:
            raise ValueError(f"agent {agent} observes {outside} outside the estimate's index "
                             f"set {update_set}")
        term_cells = tuple(  # all of the aggregate, or the term's np.ix_ block of it
            ... if s == update_set else np.ix_(*[z_embedding_indices(s, update_set, n_x, n_u)] * 2)
            for s, _ in plan.terms)
        groups.setdefault(update_set, []).append(StepLayout(
            plan, x_coords(update_set, n_x), u_coords(update_set, n_u), term_cells,
            z_embedding_indices((agent,), update_set, n_x, n_u)[n_x:], policy.row_cells(agent)))
    return {layout.plan.agent: layout for group in groups.values() for layout in group}


def policy_gradient_update(
    policy: StructuredPolicy,
    steps: Iterable[tuple[StepLayout, np.ndarray]],
    batch: TrajectoryBatch,
    alpha: float,
) -> StructuredPolicy:
    """One gradient step on each listed agent's gain from an estimated quadratic.

    ``steps`` pairs an agent's ``StepLayout`` with Q, a quadratic form on
    its update set's stacked (x, u) coordinates.  Agent i's step is
    K_i <- K_i - 2 alpha * mean_t [ (Q z_t)_{u_i rows} x_O(t)' ] with z_t
    the batch's stacked state/control on the update set, formed once per
    run of adjacent agents sharing it (as ``step_layouts`` orders them);
    the new rows are written through each layout's cells into one copy of
    the gain.  Only the blocks over each agent's observation in-neighbors
    change, so the pattern is preserved.
    """
    t_length = batch.length
    gain = policy.gain.copy()
    z_set = None
    for layout, q in steps:
        if layout.plan.update_set != z_set:  # one T x m sample matrix per update set
            z_set = layout.plan.update_set
            z = np.hstack([batch.x[:t_length, layout.xs], batch.u[:, layout.us]])
        x_obs = batch.x[:t_length, layout.cells[1]]
        grad = ((z @ q[:, layout.u_cols]).T @ x_obs) / t_length
        gain[layout.cells] -= 2.0 * alpha * grad
    gain.flags.writeable = False
    return StructuredPolicy(policy.graphs, policy.n_x, policy.n_u, gain)


@dataclass(frozen=True)
class MalspiConfig:
    """Tuning and determinism knobs of one policy-iteration run."""

    n_iterations: int = 15
    t_rollout: int = 500
    t_eval: int = 500
    sigma_eta: float = 1.0
    alpha: float = 1e-3
    zeta: float = 1e-6
    seed: int = 0
    sigma0: float = 1.0
    k0: Optional[StructuredPolicy] = None
    oracle_diagnostics: bool = False


@dataclass(frozen=True)
class AgentDiagnostics:
    """Per-agent evaluation record of one iteration.

    ``rcond`` is the reciprocal 1-norm condition estimate of the operator
    on the agent's own estimation set (the failing estimate when that set
    is flagged ``singular``), None when the set was not factorized.
    """

    agent: int
    rcond: Optional[float]
    flags: tuple[str, ...]
    q_error: Optional[float]


@dataclass(frozen=True)
class IterationRecord:
    """One policy iterate: the updated gain, its cost, and diagnostics.

    Record 0 holds the initial policy and its evaluation; records l >= 1
    hold post-update iterates.
    """

    iteration: int
    gain: np.ndarray
    eval_cost: float
    eval_diverged: bool
    agents: tuple[AgentDiagnostics, ...]
    wall_eval_s: float
    wall_update_s: float


def _oracle_error(
    system: MultiAgentSystem,
    eval_policy: StructuredPolicy,
    update_set: AgentSet,
    owners: Iterable[int],
    q_aggregate: np.ndarray,
) -> tuple[Optional[float], tuple[str, ...]]:
    try:
        sub = extract_subsystem(system, eval_policy, update_set, cost_owners=owners)
        q_true = true_q_matrix(sub)
    except InstabilityError:
        return None, ("oracle_unstable",)
    return float(np.linalg.norm(q_aggregate - q_true)), ()


def _evaluate_set(
    batch: TrajectoryBatch,
    est_set: EstimationSet,
    policy: StructuredPolicy,
    system: MultiAgentSystem,
) -> tuple[tuple[str, ...], Optional[float], Optional[np.ndarray]]:
    """Flags, rcond and the d x k packed solution of one estimation set.

    Column j of the solution belongs to ``est_set.cost_owners[j]``; it is
    None when the set is flagged ``underdetermined`` or ``singular``.  The
    regression and its LU are local to this call, so they are released
    before the caller builds the next set's.
    """
    try:
        bundle = build_regression(batch, est_set, policy, system)
    except UnderdeterminedError:
        return ("underdetermined",), None, None
    try:
        op = LstdqOperator(bundle)
    except SingularOperatorError as err:
        return ("singular",), err.rcond, None
    return (), op.rcond, op.solve_cost()


def run_malspi(
    system: MultiAgentSystem,
    architecture: Architecture,
    config: MalspiConfig,
) -> list[IterationRecord]:
    """Run the full policy-iteration loop and record every iterate.

    A fresh trajectory is collected every iteration under the fixed play
    policy K0 with exploration noise; evaluation inside the temporal-
    difference features uses the current iterate.  A singular or
    underdetermined regression flags the affected agents for that iteration
    and carries their gains forward unchanged.  Deterministic given the
    config seed, regardless of how per-agent work is scheduled.

    Every estimation set is checked and laid out once, before the first
    iteration (``estimation_sets``); an iteration's evaluation gathers only
    its samples, the iterate's gain blocks and the owners' costs.
    Estimation sets are evaluated one at a time and each set's regression
    and factorization are released before the next set's are built, so the
    evaluation step holds at most one set's T x m samples and
    (d^2 + 2 r d + d k) * 8 bytes: its LU, the two r x d slabs it is
    streamed through and its k owners' right-hand sides (``LstdqOperator``;
    r = 256 at d >= 1024), with d the largest set's feature dimension:
    16.0 MB at d=1176, 453 MB at d=7260.  Each agent's step is checked and
    laid out once too (``step_layouts``); its owner terms are added into
    one zeroed aggregate through the layout's cells.
    """
    graphs = system.graphs
    n = graphs.n_agents
    k0 = config.k0 if config.k0 is not None else zero_policy(graphs, system.n_x, system.n_u)
    # The step layouts read the agents' gain cells from k0's graphs.
    if (k0.graphs, k0.n_x, k0.n_u) != (graphs, system.n_x, system.n_u):
        raise ValueError(
            f"k0 (n_x={k0.n_x}, n_u={k0.n_u}) is not built on the system's coupling graphs "
            f"and agent sizes (n_x={system.n_x}, n_u={system.n_u})"
        )
    rho0 = spectral_radius(system.a + system.b @ k0.gain)
    if rho0 >= 1.0:
        raise InstabilityError("initial policy does not stabilize the system", rho0)

    plans = architecture_plans(architecture, dependency_sets(graphs), n)
    sets = estimation_sets(system, plans)
    layouts = step_layouts(k0, plans)

    seed_children = np.random.SeedSequence(config.seed).spawn(2 * config.n_iterations + 1)
    policy = k0
    records: list[IterationRecord] = []

    cost0 = average_cost(
        system, policy, config.t_eval, seed_children[0], sigma0=config.sigma0
    )
    records.append(
        IterationRecord(
            iteration=0,
            gain=policy.gain,
            eval_cost=cost0.value,
            eval_diverged=cost0.diverged,
            agents=(),
            wall_eval_s=0.0,
            wall_update_s=0.0,
        )
    )

    for it in range(1, config.n_iterations + 1):
        batch = rollout(
            system,
            k0,
            config.t_rollout,
            config.sigma_eta,
            seed_children[2 * it - 1],
            sigma0=config.sigma0,
        )

        # --- policy evaluation: one factorization and one solve per estimation set
        t0 = time.perf_counter()
        solutions: dict[tuple[AgentSet, int], np.ndarray] = {}
        set_flags: dict[AgentSet, tuple[str, ...]] = {}
        set_rcond: dict[AgentSet, Optional[float]] = {}
        for est_set in sets:
            agents = est_set.agents
            set_flags[agents], set_rcond[agents], packed = _evaluate_set(
                batch, est_set, policy, system
            )
            if packed is not None:
                for col, owner in enumerate(est_set.cost_owners):
                    solutions[(agents, owner)] = smat(packed[:, col])
        wall_eval = time.perf_counter() - t0

        # --- policy improvement: aggregate, floor eigenvalues, one gradient step
        t1 = time.perf_counter()
        estimates: dict[int, np.ndarray] = {}
        diags: list[AgentDiagnostics] = []
        for i in graphs.agents:
            plan = plans[i]
            flags = tuple(dict.fromkeys(f for s, _ in plan.terms for f in set_flags[s]))
            q_error = None
            if not plan.terms:
                flags = ("empty_gradient_set",)
            elif not flags:
                m_update = (system.n_x + system.n_u) * len(plan.update_set)
                aggregate = np.zeros((m_update, m_update))
                for term, cells in zip(plan.terms, layouts[i].term_cells):
                    aggregate[cells] += solutions[term]
                if config.oracle_diagnostics:
                    owners = tuple(owner for _, owner in plan.terms)
                    q_error, flags = _oracle_error(
                        system, policy, plan.update_set, owners, aggregate
                    )
                estimates[i] = psd_project(aggregate, config.zeta)
            diags.append(
                AgentDiagnostics(
                    agent=i,
                    rcond=set_rcond.get(plan.own_set) if plan.terms else None,
                    flags=flags,
                    q_error=q_error,
                )
            )
        steps = [(layout, estimates[i]) for i, layout in layouts.items() if i in estimates]
        policy = policy_gradient_update(policy, steps, batch, config.alpha)
        wall_update = time.perf_counter() - t1

        cost = average_cost(
            system, policy, config.t_eval, seed_children[2 * it], sigma0=config.sigma0
        )
        records.append(
            IterationRecord(
                iteration=it,
                gain=policy.gain,
                eval_cost=cost.value,
                eval_diverged=cost.diverged,
                agents=tuple(diags),
                wall_eval_s=wall_eval,
                wall_update_s=wall_update,
            )
        )
    return records
