"""Policy gradient updates and the full iteration loop."""
import dataclasses
import math
import weakref

import numpy as np
import pytest

from malspi import lstdq, policy_iteration
from malspi import system as system_mod
from malspi.graphs import DependencySets, build_coupling_graphs, dependency_sets
from malspi.examples import build_example_system, generate_example1, generate_example2
from malspi.linalg import InstabilityError, psd_project, smat
from malspi.policy_iteration import (
    AgentPlan,
    Architecture,
    MalspiConfig,
    architecture_plans,
    estimation_sets,
    policy_gradient_update,
    run_malspi,
    step_layouts,
)
from malspi.system import (
    average_cost,
    build_system,
    embed_quadratic,
    extract_subsystem,
    policy_from_global_gain,
    rollout,
    structured_policy_from_blocks,
    true_q_matrix,
    zero_policy,
)
from malspi.verify import random_stabilizing_policy, random_system


def scalar_system(a=0.9, b=1.0, s=1.0, r=1.0, sigma_w=1.0):
    loops = [(1, 1)]
    g = build_coupling_graphs(1, loops, loops, loops)
    return build_system(g, 1, 1, {(1, 1): [[a]]}, {(1, 1): [[b]]},
                        {1: [[s]]}, {1: [[r]]}, sigma_w)


def riccati_optimal_gain(a, b, s, r):
    """Scalar discrete Riccati fixed point by value iteration."""
    p = s
    for _ in range(100_000):
        p_next = s + a * p * a - (a * p * b) ** 2 / (r + b * p * b)
        if abs(p_next - p) < 1e-14:
            break
        p = p_next
    return -(b * p * a) / (r + b * p * b)


def own_plan(agent, update_set):
    """A plan in which the agent steps on its own cost, estimated on its update set."""
    return AgentPlan(agent=agent, terms=((update_set, agent),), update_set=update_set,
                     own_set=update_set)


def one_step(policy, agent, update_set, q):
    """The (layout, Q) pair of one agent stepping on Q over its update set."""
    return step_layouts(policy, {agent: own_plan(agent, update_set)})[agent], q


def test_zero_learning_rate_leaves_policy_unchanged():
    system = scalar_system()
    policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.4]]})
    batch = rollout(system, policy, 50, 1.0, seed=0)
    sub = extract_subsystem(system, policy, (1,), cost_owners=(1,))
    step = one_step(policy, 1, (1,), true_q_matrix(sub))
    updated = policy_gradient_update(policy, [step], batch, alpha=0.0)
    assert np.array_equal(updated.gain, policy.gain)


def test_update_vanishes_at_riccati_optimum():
    a, b, s, r = 0.9, 1.0, 1.0, 1.0
    k_star = riccati_optimal_gain(a, b, s, r)
    system = scalar_system(a, b, s, r)
    policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[k_star]]})
    batch = rollout(system, policy, 10_000, 1.0, seed=1)
    sub = extract_subsystem(system, policy, (1,), cost_owners=(1,))
    step = one_step(policy, 1, (1,), true_q_matrix(sub))
    updated = policy_gradient_update(policy, [step], batch, alpha=1e-3)
    assert abs(updated.gain[0, 0] - k_star) <= 1e-2 * abs(k_star)


def test_update_preserves_sparsity_and_only_touches_agent_row():
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    policy = zero_policy(g, 1, 1)
    deps = dependency_sets(g)
    batch = rollout(system, policy, 100, 1.0, seed=2)
    agent = 1
    agent_set = deps.direct[agent]
    sub = extract_subsystem(system, policy, agent_set, cost_owners=deps.gradient[agent])
    step = one_step(policy, agent, agent_set, true_q_matrix(sub))
    updated = policy_gradient_update(policy, [step], batch, alpha=1e-4)
    policy_from_global_gain(g, 1, 1, updated.gain)  # raises on any off-pattern entry
    changed = np.argwhere(updated.gain != policy.gain)
    assert changed.size > 0
    assert set(changed[:, 0]) == {agent - 1}


def test_update_rejects_set_missing_observed_agents():
    g = build_coupling_graphs(2, [(1, 1), (2, 2)], [(1, 1), (2, 2), (2, 1)],
                              [(1, 1), (2, 2)])
    system = build_system(g, 1, 1, {(1, 1): [[0.5]], (2, 2): [[0.5]]},
                          {(1, 1): [[1.0]], (2, 2): [[1.0]]},
                          {1: [[1.0]], 2: [[1.0]]}, {1: [[1.0]], 2: [[1.0]]}, 1.0)
    policy = zero_policy(g, 1, 1)
    with pytest.raises(ValueError, match=r"agent 1 observes \[2\] outside"):
        step_layouts(policy, {1: own_plan(1, (1,))})
    with pytest.raises(ValueError, match=r"agent 1 is not in the estimate's index set \(2,\)"):
        step_layouts(policy, {1: own_plan(1, (2,))})
    assert 1 in step_layouts(policy, {1: own_plan(1, (1, 2))})


def test_update_direction_matches_empirical_finite_differences():
    g = build_coupling_graphs(
        2,
        [(1, 1), (2, 2), (1, 2)],
        [(1, 1), (2, 2), (2, 1)],
        [(1, 1), (2, 2), (2, 1)],
    )
    rng = np.random.default_rng(4)
    system = random_system(rng, g, 1, 1, sigma_w=1.0)
    policy = random_stabilizing_policy(rng, system)
    agent = 1
    deps = dependency_sets(g)
    t_len = 100_000

    batch = rollout(system, policy, t_len, 0.3, seed=5)
    everyone = tuple(g.agents)
    sub = extract_subsystem(system, policy, everyone, cost_owners=deps.gradient[agent])
    step = one_step(policy, agent, everyone, true_q_matrix(sub))
    updated = policy_gradient_update(policy, [step], batch, alpha=1.0)
    direction = (policy.row_gain(agent) - updated.row_gain(agent)).ravel()

    eps = 1e-4
    base_row = policy.row_gain(agent)
    fd = np.zeros(base_row.size)
    for idx in range(base_row.size):
        for sign in (+1.0, -1.0):
            row = base_row.copy().ravel()
            row[idx] += sign * eps
            perturbed = policy.with_row_gains({agent: row.reshape(base_row.shape)})
            value = average_cost(system, perturbed, t_len, seed=6).value
            fd[idx] += sign * value / (2.0 * eps)

    cosine = float(direction @ fd) / (np.linalg.norm(direction) * np.linalg.norm(fd))
    assert math.degrees(math.acos(np.clip(cosine, -1.0, 1.0))) <= 10.0


def test_run_rejects_unstable_initial_policy():
    system = scalar_system(a=1.2)
    with pytest.raises(InstabilityError) as err:
        run_malspi(system, Architecture.DIRECT, MalspiConfig(n_iterations=1, t_rollout=20))
    assert err.value.rho == pytest.approx(1.2)


def test_zero_iterations_reports_initial_cost_only():
    system = scalar_system()
    records = run_malspi(system, Architecture.INDIRECT,
                         MalspiConfig(n_iterations=0, t_rollout=50, t_eval=200, seed=1))
    assert len(records) == 1
    assert records[0].iteration == 0
    assert np.isfinite(records[0].eval_cost)


def test_degenerate_cost_keeps_policy_near_initial():
    loops = [(1, 1), (2, 2)]
    g = build_coupling_graphs(2, loops, loops, loops)
    system = build_system(g, 1, 1, {(1, 1): [[0.5]], (2, 2): [[0.4]]},
                          {(1, 1): [[1.0]], (2, 2): [[1.0]]},
                          {1: [[0.0]], 2: [[0.0]]},
                          {1: [[1e-6]], 2: [[1e-6]]}, 1.0)
    records = run_malspi(system, Architecture.DIRECT,
                         MalspiConfig(n_iterations=5, t_rollout=200, t_eval=50,
                                      alpha=1e-3, seed=2))
    assert np.max(np.abs(records[-1].gain)) <= 1e-5


def test_underdetermined_iterations_flag_and_freeze():
    system = scalar_system()
    records = run_malspi(system, Architecture.DIRECT,
                         MalspiConfig(n_iterations=2, t_rollout=2, t_eval=50, seed=3))
    for record in records[1:]:
        assert all("underdetermined" in d.flags for d in record.agents)
        assert np.array_equal(record.gain, records[0].gain)


def test_empty_gradient_set_yields_empty_plan():
    # an agent outside every value set gets no estimation terms and no update;
    # unreachable for valid systems (its control cost would be zero) but the
    # plan layer must stay well defined
    from malspi.graphs import DependencySets

    deps = DependencySets(
        n_agents=2,
        reach={1: (1,), 2: (2,)},
        value={1: (1,), 2: (2,)},
        gradient={1: (1,), 2: ()},
        direct={1: (1,), 2: ()},
    )
    plans = architecture_plans(Architecture.INDIRECT, deps, 2)
    assert plans[2].terms == ()


def test_decoupled_agents_match_single_agent_reference():
    loops = [(1, 1), (2, 2)]
    g = build_coupling_graphs(2, loops, loops, loops)
    dynamics = {1: (0.7, 1.0), 2: (0.5, 0.8)}
    costs = {1: (1.0, 1.0), 2: (2.0, 0.5)}
    system = build_system(
        g, 1, 1,
        {(i, i): [[dynamics[i][0]]] for i in (1, 2)},
        {(i, i): [[dynamics[i][1]]] for i in (1, 2)},
        {i: [[costs[i][0]]] for i in (1, 2)},
        {i: [[costs[i][1]]] for i in (1, 2)},
        1.0,
    )
    n_iter, t_len, sigma_eta, alpha, zeta, seed = 4, 120, 1.0, 1e-3, 1e-6, 7

    def reference_gains(agent):
        """Independent scalar LSPI on the agent's restricted data."""
        s_cost, r_cost = costs[agent]
        children = np.random.SeedSequence(seed).spawn(2 * n_iter + 1)
        k = 0.0
        gains = []
        for it in range(1, n_iter + 1):
            batch = rollout(system, zero_policy(g, 1, 1), t_len, sigma_eta,
                            children[2 * it - 1])
            col = agent - 1
            x = batch.x[:, col]
            u = batch.u[:, col]
            phi = np.stack([x[:-1] ** 2, math.sqrt(2) * x[:-1] * u, u**2], axis=1)
            xp = x[1:]
            psi = np.stack([xp**2, math.sqrt(2) * k * xp**2, (k * xp) ** 2], axis=1)
            f = np.array([1.0, math.sqrt(2) * k, k * k])
            cost = s_cost * x[:-1] ** 2 + r_cost * u**2
            mat = phi.T @ (phi - psi + f[None, :])
            q_vec = np.linalg.solve(mat, phi.T @ cost)
            q = np.array([[q_vec[0], q_vec[1] / math.sqrt(2)],
                          [q_vec[1] / math.sqrt(2), q_vec[2]]])
            q = psd_project(q, zeta)
            grad = np.mean((q[1, 0] * x[:-1] + q[1, 1] * u) * x[:-1])
            k = k - 2 * alpha * grad
            gains.append(k)
        return gains

    cfg = MalspiConfig(n_iterations=n_iter, t_rollout=t_len, t_eval=40,
                       sigma_eta=sigma_eta, alpha=alpha, zeta=zeta, seed=seed)
    for arch in (Architecture.DIRECT, Architecture.INDIRECT):
        records = run_malspi(system, arch, cfg)
        for agent in (1, 2):
            expected = reference_gains(agent)
            got = [r.gain[agent - 1, agent - 1] for r in records[1:]]
            np.testing.assert_allclose(got, expected, rtol=1e-8)


def test_iterations_preserve_observation_sparsity():
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    records = run_malspi(system, Architecture.INDIRECT,
                         MalspiConfig(n_iterations=4, t_rollout=150, t_eval=50,
                                      alpha=1e-6, seed=8))
    for record in records:
        policy_from_global_gain(g, 1, 1, record.gain)  # raises on violation


def test_runs_are_bitwise_deterministic():
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    cfg = MalspiConfig(n_iterations=3, t_rollout=150, t_eval=60, alpha=1e-6, seed=9)
    r1 = run_malspi(system, Architecture.DIRECT, cfg)
    r2 = run_malspi(system, Architecture.DIRECT, cfg)
    for a, b in zip(r1, r2):
        assert a.gain.tobytes() == b.gain.tobytes()
        assert a.eval_cost == b.eval_cost


def test_forced_full_sets_collapse_architectures_bitwise(monkeypatch):
    g = generate_example1(3)
    system = build_example_system(g, n_x=1, n_u=1)
    monkeypatch.setattr(policy_iteration, "dependency_sets",
                        lambda graphs: DependencySets.full(graphs.n_agents))
    cfg = MalspiConfig(n_iterations=3, t_rollout=120, t_eval=50, alpha=1e-6, seed=10)
    runs = {arch: run_malspi(system, arch, cfg) for arch in Architecture}
    reference = runs[Architecture.DIRECT]
    for arch, records in runs.items():
        for got, want in zip(records, reference):
            assert got.gain.tobytes() == want.gain.tobytes()
            assert got.eval_cost == want.eval_cost


def test_in_place_aggregate_is_bitwise_the_sum_of_embedded_terms(monkeypatch):
    # example2's leader sums one owner term per agent; every aggregate
    # run_malspi floors must equal the sum of embed_quadratic's zero-padded
    # terms, also where a term's set is the update set (every direct term),
    # which the step layout adds without indexing
    g = generate_example2(5)
    system = build_example_system(g, n_x=1, n_u=1)
    cfg = MalspiConfig(n_iterations=2, t_rollout=150, t_eval=50, alpha=1e-4, seed=13,
                       k0=zero_policy(g, 1, 1))
    solutions, checked = {}, []
    real_evaluate, real_project = policy_iteration._evaluate_set, policy_iteration.psd_project

    def recorded_evaluate(batch, est_set, policy, system):
        result = real_evaluate(batch, est_set, policy, system)
        for col, owner in enumerate(est_set.cost_owners):
            solutions[(est_set.agents, owner)] = smat(result[2][:, col])
        return result

    def checked_project(aggregate, zeta):
        plan = plans[len(checked) % 5 + 1]  # aggregates are floored in agent order
        terms = [(embed_quadratic(solutions[term], term[0], plan.update_set, 1, 1),
                  term[0] == plan.update_set) for term in plan.terms]
        assert aggregate.tobytes() == sum(q for q, _ in terms).tobytes()
        checked.append((len(terms), sum(whole for _, whole in terms)))
        return real_project(aggregate, zeta)

    monkeypatch.setattr(policy_iteration, "_evaluate_set", recorded_evaluate)
    monkeypatch.setattr(policy_iteration, "psd_project", checked_project)
    for arch in (Architecture.INDIRECT, Architecture.DIRECT):
        plans = architecture_plans(arch, dependency_sets(g), 5)
        checked.clear()
        run_malspi(system, arch, cfg)
        assert len(checked) == 2 * 5 and max(n for n, _ in checked) == 5
        n_terms, n_whole = map(sum, zip(*checked))
        # every direct term is on its update set; the indirect leader's are not
        assert n_whole == n_terms if arch is Architecture.DIRECT else n_whole < n_terms


def test_architecture_plan_layouts():
    g = generate_example1(4)
    deps = dependency_sets(g)
    plans_direct = architecture_plans(Architecture.DIRECT, deps, 4)
    plans_indirect = architecture_plans(Architecture.INDIRECT, deps, 4)
    plans_central = architecture_plans(Architecture.CENTRALIZED, deps, 4)
    for i in g.agents:
        assert plans_direct[i].update_set == deps.direct[i]
        assert all(est == deps.direct[i] for est, _ in plans_direct[i].terms)
        assert [o for _, o in plans_indirect[i].terms] == list(deps.gradient[i])
        assert all(est == deps.value[j] for est, j in plans_indirect[i].terms)
        assert plans_central[i].update_set == (1, 2, 3, 4)


def test_oracle_diagnostics_record_estimation_error():
    system = scalar_system()
    records = run_malspi(system, Architecture.DIRECT,
                         MalspiConfig(n_iterations=2, t_rollout=400, t_eval=50,
                                      alpha=1e-4, seed=11, oracle_diagnostics=True))
    errs = [d.q_error for r in records[1:] for d in r.agents]
    assert all(e is not None and e >= 0.0 for e in errs)


@pytest.mark.parametrize("arch", list(Architecture))
def test_one_solve_per_estimation_set_and_one_rebuild_per_iteration(monkeypatch, arch):
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    plans = architecture_plans(arch, dependency_sets(g), 4)
    owners_by_set = {s.agents: s.cost_owners for s in estimation_sets(system, plans)}
    n_iter = 3
    cfg = MalspiConfig(n_iterations=n_iter, t_rollout=150, t_eval=50, alpha=1e-4, seed=12,
                       k0=zero_policy(g, 1, 1))

    factorized, solves, rebuilds = [], [], []
    real_solve = lstdq.LstdqOperator.solve_cost
    real_rebuild = policy_iteration.StructuredPolicy

    class CountedOperator(lstdq.LstdqOperator):
        def __init__(self, bundle, **kwargs):
            super().__init__(bundle, **kwargs)
            factorized.append(bundle.index_set)

    def counted_solve(self):
        solves.append((self.bundle.index_set, self.bundle.owner_costs.shape))
        return real_solve(self)

    def counted_rebuild(*args, **kwargs):
        rebuilds.append(1)
        return real_rebuild(*args, **kwargs)

    monkeypatch.setattr(policy_iteration, "LstdqOperator", CountedOperator)
    monkeypatch.setattr(lstdq.LstdqOperator, "solve_cost", counted_solve)
    monkeypatch.setattr(policy_iteration, "StructuredPolicy", counted_rebuild)
    records = run_malspi(system, arch, cfg)

    assert all(not d.flags for r in records[1:] for d in r.agents)
    assert sorted(factorized) == sorted(list(owners_by_set) * n_iter)
    assert [s for s, _ in solves] == factorized
    for est_set, shape in solves:
        assert shape == (150, len(owners_by_set[est_set]))
    assert len(rebuilds) == n_iter
    assert any(not np.array_equal(r.gain, records[0].gain) for r in records[1:])


@pytest.mark.parametrize("arch", list(Architecture))
def test_sets_are_checked_once_per_run_and_never_extracted(monkeypatch, arch):
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    n_sets = len(estimation_sets(system, architecture_plans(arch, dependency_sets(g), 4)))
    real_missing = system_mod.missing_closure_agent
    checks = []

    def counted_missing(graphs, agents):
        checks.append(agents)
        return real_missing(graphs, agents)

    def no_extraction(*args, **kwargs):
        raise AssertionError("an iteration extracted a subsystem")

    real_embedding, real_block_coords = system_mod.z_embedding_indices, system_mod._block_coords
    embeddings, block_coords = [], []

    def counted_embedding(*args, **kwargs):
        embeddings.append(args)
        return real_embedding(*args, **kwargs)

    def counted_block_coords(*args, **kwargs):
        block_coords.append(args)
        return real_block_coords(*args, **kwargs)

    monkeypatch.setattr(system_mod, "missing_closure_agent", counted_missing)
    monkeypatch.setattr(lstdq, "extract_subsystem", no_extraction)
    monkeypatch.setattr(system_mod, "_block_coords", counted_block_coords)
    for module in (system_mod, policy_iteration):
        monkeypatch.setattr(module, "z_embedding_indices", counted_embedding)
    per_run = []
    for n_iter in (2, 4):
        checks.clear()
        embeddings.clear()
        block_coords.clear()
        records = run_malspi(system, arch, MalspiConfig(n_iterations=n_iter, t_rollout=150,
                                                        t_eval=50, alpha=1e-4, seed=12))
        assert len(records) == n_iter + 1
        assert all(not d.flags for r in records[1:] for d in r.agents)
        assert len(checks) == n_sets
        per_run.append((len(embeddings), len(block_coords)))
    # the step layouts are built once per run (one embedding per agent at
    # least), and no iteration derives coordinates again
    assert per_run[0] == per_run[1] and per_run[0][0] >= 4


def test_invalid_step_plan_raises_before_the_first_rollout(monkeypatch):
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    real_plans, real_rollout = policy_iteration.architecture_plans, policy_iteration.rollout
    rollouts = []

    def narrowed_plans(architecture, deps, n_agents):
        # agent 2 observes agents 1 and 3, outside its own singleton
        plans = real_plans(architecture, deps, n_agents)
        return {**plans, 2: dataclasses.replace(plans[2], update_set=(2,))}

    def counted_rollout(*args, **kwargs):
        rollouts.append(1)
        return real_rollout(*args, **kwargs)

    monkeypatch.setattr(policy_iteration, "architecture_plans", narrowed_plans)
    monkeypatch.setattr(policy_iteration, "rollout", counted_rollout)
    with pytest.raises(ValueError, match=r"agent 2 observes \[1, 3\] outside"):
        run_malspi(system, Architecture.DIRECT, MalspiConfig(n_iterations=2, t_rollout=150))
    assert not rollouts


@pytest.mark.parametrize("n_x, k0", [
    # example2's agent 3 observes agent 1; example1's does not
    (1, structured_policy_from_blocks(generate_example2(4), 1, 1, {(3, 1): [[-0.01]]})),
    (2, zero_policy(generate_example1(4), 1, 1)),
], ids=["other-graphs", "other-n_x"])
def test_initial_policy_on_other_graphs_or_sizes_raises_before_the_first_rollout(
        monkeypatch, n_x, k0):
    system = build_example_system(generate_example1(4), n_x=n_x, n_u=1)
    rollouts = []
    real_rollout = policy_iteration.rollout

    def counted_rollout(*args, **kwargs):
        rollouts.append(1)
        return real_rollout(*args, **kwargs)

    monkeypatch.setattr(policy_iteration, "rollout", counted_rollout)
    with pytest.raises(ValueError, match="not built on the system's coupling graphs"):
        run_malspi(system, Architecture.DIRECT,
                   MalspiConfig(n_iterations=2, t_rollout=200, k0=k0))
    assert not rollouts


@pytest.mark.parametrize(
    "arch, sigma_eta",
    [(arch, 1.0) for arch in Architecture] + [(Architecture.INDIRECT, 0.0)],
    ids=[arch.value for arch in Architecture] + ["indirect-singular"],
)
def test_one_estimation_set_alive_at_a_time(monkeypatch, arch, sigma_eta):
    # every regression and factorization is released before the next set's
    # is built; with no exploration noise every set is flagged singular
    g = generate_example1(4)
    system = build_example_system(g, n_x=1, n_u=1)
    cfg = MalspiConfig(n_iterations=2, t_rollout=150, t_eval=50, alpha=1e-4, seed=12,
                       sigma_eta=sigma_eta, k0=zero_policy(g, 1, 1))
    built, factorized = [], []
    real_build = policy_iteration.build_regression
    real_operator = policy_iteration.LstdqOperator

    def earlier_alive(current=None):
        live = (ref() for ref in built + factorized)
        return [obj for obj in live if obj is not None and obj is not current]

    def tracked_build(*args, **kwargs):
        assert not earlier_alive()
        bundle = real_build(*args, **kwargs)
        built.append(weakref.ref(bundle))
        return bundle

    def tracked_operator(bundle, **kwargs):
        assert not earlier_alive(current=bundle)
        op = real_operator(bundle, **kwargs)
        factorized.append(weakref.ref(op))
        return op

    monkeypatch.setattr(policy_iteration, "build_regression", tracked_build)
    monkeypatch.setattr(policy_iteration, "LstdqOperator", tracked_operator)
    records = run_malspi(system, arch, cfg)

    flags = {d.flags for r in records[1:] for d in r.agents}
    if sigma_eta == 0.0:
        assert flags == {("singular",)} and not factorized
    else:
        assert flags == {()} and len(factorized) == len(built)
    assert len(built) >= cfg.n_iterations
