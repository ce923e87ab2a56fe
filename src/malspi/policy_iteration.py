"""Least-squares policy iteration over the coupling-graph architectures.

Each iteration rolls out a fresh trajectory under the fixed play policy,
evaluates quadratic Q-functions per agent by restricted LSTDQ, and performs
one gradient step on every agent's structured gain.

The architectures differ only in where each cost owner's Q-function is
estimated:

* ``direct``       on the agent's direct dependence set
* ``indirect``     on each owner's own value dependence set
* ``centralized``  on the full agent set

``undecomposed_direct`` (the direct estimator without the decomposition)
also estimates every owner's Q-function on the full agent set, so it is a
second name for ``centralized``: ``Architecture.parse`` maps it there and
the experiment runner runs the pair once.

Each iteration factorizes one regression per estimation set and solves it
once for every cost owner estimated there (one multi-right-hand-side
solve).  An agent's update sums the owners' Q matrices over its gradient
dependence set, embedded into its update set, floors the sum's
eigenvalues, and descends the resulting quadratic; the new rows of every
agent are assembled into one policy.  Forcing every dependence set to the
full agent set therefore collapses every architecture onto the identical
computation.  Solves are shared across agents that use the same
estimation set, which never changes any agent's result.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

import numpy as np

from .graphs import DependencySets, dependency_sets
from .linalg import InstabilityError, psd_project, smat, spectral_radius, svec_dim
from .lstdq import (
    LstdqOperator,
    SingularOperatorError,
    UnderdeterminedError,
    build_regression,
)
from .system import (
    MultiAgentSystem,
    StructuredPolicy,
    TrajectoryBatch,
    average_cost,
    embed_quadratic,
    extract_subsystem,
    rollout,
    true_q_matrix,
    x_coords,
    zero_policy,
)

AgentSet = tuple[int, ...]


class Architecture(str, Enum):
    CENTRALIZED = "centralized"
    DIRECT = "direct"
    INDIRECT = "indirect"

    @classmethod
    def parse(cls, name: str) -> "Architecture":
        """The architecture a configured name runs; aliases resolve here."""
        try:
            return ARCHITECTURE_NAMES[name]
        except KeyError:
            valid = ", ".join(ARCHITECTURE_NAMES)
            raise ValueError(f"unknown architecture {name!r}; expected one of: {valid}") from None


# Every accepted architecture name and the architecture it runs.
ARCHITECTURE_NAMES: dict[str, Architecture] = {
    **{a.value: a for a in Architecture},
    "undecomposed_direct": Architecture.CENTRALIZED,
}


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


def policy_gradient_update(
    policy: StructuredPolicy,
    estimates: Mapping[int, tuple[AgentSet, np.ndarray]],
    batch: TrajectoryBatch,
    alpha: float,
) -> StructuredPolicy:
    """One gradient step on each listed agent's gain from an estimated quadratic.

    ``estimates[i] = (index_set, Q)`` with Q a quadratic form on the index
    set's stacked (x, u) coordinates.  Agent i's step is
    K_i <- K_i - 2 alpha * mean_t [ (Q z_t)_{u_i rows} x_O(t)' ] with z_t
    the batch's stacked state/control restricted to the index set, formed
    once per distinct index set; the new rows are assembled into one
    policy.  Only the blocks over each agent's observation in-neighbors
    change, so the sparsity pattern is preserved.
    Raises ValueError when an agent or an agent it observes lies outside
    its index set.
    """
    t_length = batch.length
    by_set: dict[AgentSet, list[tuple[int, AgentSet, np.ndarray]]] = {}
    for agent, (agent_set, q) in estimates.items():
        if agent not in agent_set:
            raise ValueError(f"agent {agent} is not in the estimate's index set {agent_set}")
        observed = policy.graphs.observation_in_neighbors(agent)
        outside = [j for j in observed if j not in agent_set]
        if outside:
            raise ValueError(
                f"agent {agent} observes {outside} outside the estimate's index set {agent_set}"
            )
        if observed:
            by_set.setdefault(tuple(agent_set), []).append((agent, observed, q))
    rows: dict[int, np.ndarray] = {}
    for agent_set, members in by_set.items():
        # One T x m sample matrix per distinct index set, shared by its agents.
        z = np.hstack([batch.states(agent_set)[:t_length], batch.controls(agent_set)])
        for agent, observed, q in members:
            pos = sorted(agent_set).index(agent)
            cols = policy.n_x * len(agent_set) + pos * policy.n_u + np.arange(policy.n_u)
            x_obs = batch.x[:t_length, x_coords(observed, policy.n_x)]
            grad = ((z @ q[:, cols]).T @ x_obs) / t_length
            rows[agent] = policy.row_gain(agent) - 2.0 * alpha * grad
    return policy.with_row_gains(rows) if rows else policy


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
    x0: Optional[np.ndarray] = None
    sigma0: float = 1.0
    k0: Optional[StructuredPolicy] = None
    force_full_sets: bool = False
    oracle_diagnostics: bool = False


@dataclass(frozen=True)
class AgentDiagnostics:
    """Per-agent evaluation record of one iteration.

    ``rcond`` is the reciprocal 1-norm condition estimate of the operator
    on the agent's own estimation set (the failing estimate when that set
    is flagged ``singular``), None when the set was not factorized.
    """

    agent: int
    set_size: int
    feature_dim: int
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
    est_set: AgentSet,
    policy: StructuredPolicy,
    owners: AgentSet,
    system: MultiAgentSystem,
) -> tuple[tuple[str, ...], Optional[float], Optional[np.ndarray]]:
    """Flags, rcond and the d x k packed solution of one estimation set.

    The packed solution is None when the set is flagged ``underdetermined``
    or ``singular``.  The regression and its LU are local to this call, so
    they are released before the caller builds the next set's.
    """
    try:
        bundle = build_regression(batch, est_set, policy, owners, system)
    except UnderdeterminedError:
        return ("underdetermined",), None, None
    try:
        op = LstdqOperator(bundle)
    except SingularOperatorError as err:
        return ("singular",), err.rcond, None
    return (), op.rcond, op.solve_cost(bundle.owner_costs)


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

    Estimation sets are evaluated one at a time and each set's regression
    and factorization are released before the next set's are built, so the
    evaluation step holds at most one set's (T d + d^2 + T w) * 8 bytes:
    its features, its LU and one regressor block of w columns
    (``LstdqOperator``), with d the largest set's feature dimension.
    """
    graphs = system.graphs
    n = graphs.n_agents
    n_x, n_u = system.n_x, system.n_u
    k0 = config.k0 if config.k0 is not None else zero_policy(graphs, n_x, n_u)
    rho0 = spectral_radius(system.a + system.b @ k0.gain)
    if rho0 >= 1.0:
        raise InstabilityError("initial policy does not stabilize the system", rho0)

    deps = DependencySets.full(n) if config.force_full_sets else dependency_sets(graphs)
    plans = architecture_plans(architecture, deps, n)
    owner_sets: dict[AgentSet, set[int]] = {}
    for plan in plans.values():
        for est_set, owner in plan.terms:
            owner_sets.setdefault(est_set, set()).add(owner)
    owners_by_set = {s: tuple(sorted(owner_sets[s])) for s in sorted(owner_sets)}

    seed_children = np.random.SeedSequence(config.seed).spawn(2 * config.n_iterations + 1)
    policy = k0
    records: list[IterationRecord] = []

    cost0 = average_cost(
        system, policy, config.t_eval, seed_children[0], x0=config.x0, sigma0=config.sigma0
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
            x0=config.x0,
            sigma0=config.sigma0,
        )

        # --- policy evaluation: one factorization and one solve per estimation set
        t0 = time.perf_counter()
        solutions: dict[tuple[AgentSet, int], np.ndarray] = {}
        set_flags: dict[AgentSet, tuple[str, ...]] = {}
        set_rcond: dict[AgentSet, Optional[float]] = {}
        for est_set, owners in owners_by_set.items():
            set_flags[est_set], set_rcond[est_set], packed = _evaluate_set(
                batch, est_set, policy, owners, system
            )
            if packed is not None:
                for col, owner in enumerate(owners):
                    solutions[(est_set, owner)] = smat(packed[:, col])
        wall_eval = time.perf_counter() - t0

        # --- policy improvement: aggregate, floor eigenvalues, one gradient step
        t1 = time.perf_counter()
        estimates: dict[int, tuple[AgentSet, np.ndarray]] = {}
        diags: list[AgentDiagnostics] = []
        for i in graphs.agents:
            plan = plans[i]
            flags = tuple(dict.fromkeys(f for s, _ in plan.terms for f in set_flags[s]))
            q_error = None
            if not plan.terms:
                flags = ("empty_gradient_set",)
            elif not flags:
                aggregate = sum(
                    embed_quadratic(solutions[term], term[0], plan.update_set, n_x, n_u)
                    for term in plan.terms
                )
                if config.oracle_diagnostics:
                    owners = tuple(owner for _, owner in plan.terms)
                    q_error, flags = _oracle_error(
                        system, policy, plan.update_set, owners, aggregate
                    )
                estimates[i] = (plan.update_set, psd_project(aggregate, config.zeta))
            diags.append(
                AgentDiagnostics(
                    agent=i,
                    set_size=len(plan.own_set),
                    feature_dim=svec_dim((n_x + n_u) * len(plan.own_set)),
                    rcond=set_rcond.get(plan.own_set) if plan.terms else None,
                    flags=flags,
                    q_error=q_error,
                )
            )
        policy = policy_gradient_update(policy, estimates, batch, config.alpha)
        wall_update = time.perf_counter() - t1

        cost = average_cost(
            system, policy, config.t_eval, seed_children[2 * it], x0=config.x0, sigma0=config.sigma0
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
