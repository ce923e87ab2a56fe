"""System assembly, subsystem extraction, exact Q matrices, rollouts, costs."""
import math
import warnings

import numpy as np
import pytest

from malspi.graphs import GraphValidationError, build_coupling_graphs, dependency_sets
from malspi.config import parse_config
from malspi.examples import build_example_system, generate_example1
from malspi.linalg import InstabilityError, lyapunov_solve
from malspi.system import (
    ClosureError,
    average_cost,
    bellman_offset,
    bellman_residual,
    build_system,
    estimation_set,
    extract_subsystem,
    policy_from_global_gain,
    rollout,
    structured_policy_from_blocks,
    true_q_matrix,
    x_coords,
    u_coords,
    zero_policy,
)
from malspi.verify import (
    lyapunov_iteration_oracle,
    random_graphs,
    random_stabilizing_policy,
    random_system,
)


def scalar_system(a, b, s, r, sigma_w):
    loops = [(1, 1)]
    g = build_coupling_graphs(1, loops, loops, loops)
    return build_system(
        g, 1, 1,
        {(1, 1): np.array([[a]])},
        {(1, 1): np.array([[b]])},
        {1: np.array([[s]])},
        {1: np.array([[r]])},
        sigma_w,
    )


def decoupled_pair(a1=0.5, a2=0.3):
    loops = [(1, 1), (2, 2)]
    g = build_coupling_graphs(2, loops, loops, loops)
    return build_system(
        g, 1, 1,
        {(1, 1): [[a1]], (2, 2): [[a2]]},
        {(1, 1): [[1.0]], (2, 2): [[1.0]]},
        {1: [[1.0]], 2: [[2.0]]},
        {1: [[1.0]], 2: [[1.0]]},
        1.0,
    )


def test_global_assembly_zero_fills_off_pattern():
    sys2 = decoupled_pair()
    assert sys2.a[0, 1] == 0.0 and sys2.a[1, 0] == 0.0
    np.testing.assert_allclose(np.diag(sys2.a), [0.5, 0.3])
    # 1/N averaging folded into the global cost
    np.testing.assert_allclose(np.diag(sys2.s), [0.5, 1.0])


def test_build_rejects_block_outside_state_graph():
    loops = [(1, 1), (2, 2)]
    g = build_coupling_graphs(2, loops, loops, loops)
    with pytest.raises(GraphValidationError):
        build_system(g, 1, 1, {(1, 2): [[0.1]]}, {}, {1: [[1.0]], 2: [[1.0]]},
                     {1: [[1.0]], 2: [[1.0]]}, 1.0)


def test_build_rejects_indefinite_cost():
    with pytest.raises(ValueError):
        scalar_system(0.5, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scalar_system(0.5, 1.0, 1.0, 0.0, 1.0)


def test_policy_sparsity_validation():
    loops = [(1, 1), (2, 2)]
    g = build_coupling_graphs(2, loops, loops, loops)
    with pytest.raises(GraphValidationError):
        structured_policy_from_blocks(g, 1, 1, {(1, 2): np.array([[0.5]])})
    bad = np.array([[0.0, 0.3], [0.0, 0.1]])
    with pytest.raises(GraphValidationError):
        policy_from_global_gain(g, 1, 1, bad)
    # a non-finite entry raises whether it lies off the pattern or on it
    for bad, block in (([[0.3, np.nan], [0.0, 0.1]], r"\(1, 2\)"),
                       ([[np.inf, 0.0], [0.0, 0.1]], r"\(1, 1\)")):
        with pytest.raises(ValueError, match=rf"block {block} is not finite"):
            policy_from_global_gain(g, 1, 1, np.array(bad))


def test_with_row_gains_replaces_listed_rows_only():
    g = generate_example1(4)
    system = build_example_system(g, n_x=2, n_u=1)
    policy = random_stabilizing_policy(np.random.default_rng(7), system)
    new_row = np.arange(policy.row_gain(2).size, dtype=float).reshape(policy.row_gain(2).shape)
    updated = policy.with_row_gains({2: new_row})
    np.testing.assert_array_equal(updated.row_gain(2), new_row)
    for i in (1, 3, 4):
        np.testing.assert_array_equal(updated.row_gain(i), policy.row_gain(i))
    policy_from_global_gain(g, 2, 1, updated.gain)  # raises on any off-pattern entry

    wrong = np.zeros((1, policy.row_gain(1).shape[1] + 1))
    with pytest.raises(ValueError, match="row gain for agent 1 must have shape"):
        policy.with_row_gains({2: new_row, 1: wrong})


# (seed, n_x, n_u) of the random policies that pin the single gain representation.
REPRESENTATION_CASES = [(0, 1, 1), (1, 2, 1), (2, 1, 3), (3, 3, 2)]


def _graphs_with_a_blind_agent(rng, n_agents=5):
    """Random coupling graphs in which agent 1 observes no one, itself included."""
    g = random_graphs(rng, n_agents, edge_prob=0.5)
    edges_o = [(j, i) for j, i in g.edges_o if i != 1]
    return build_coupling_graphs(n_agents, g.edges_s, edges_o, g.edges_c)


def _observed_cells(g, n_x, n_u, agents):
    """Mask of the listed agents' observation blocks in the global gain."""
    mask = np.zeros((g.n_agents * n_u, g.n_agents * n_x), dtype=bool)
    for i in agents:
        for j in g.observation_in_neighbors(i):
            mask[(i - 1) * n_u : i * n_u, (j - 1) * n_x : j * n_x] = True
    return mask


def _random_blocks(rng, g, n_x, n_u):
    return {(i, j): rng.normal(size=(n_u, n_x))
            for i in g.agents for j in g.observation_in_neighbors(i)}


@pytest.mark.parametrize("seed, n_x, n_u", REPRESENTATION_CASES)
def test_row_gain_is_the_blocks_in_neighbor_order(seed, n_x, n_u):
    rng = np.random.default_rng(seed)
    g = _graphs_with_a_blind_agent(rng)
    blocks = _random_blocks(rng, g, n_x, n_u)
    policy = structured_policy_from_blocks(g, n_x, n_u, blocks)
    assert g.observation_in_neighbors(1) == ()
    for i in g.agents:
        expected = np.hstack([np.zeros((n_u, 0))]
                             + [blocks[(i, j)] for j in g.observation_in_neighbors(i)])
        np.testing.assert_array_equal(policy.row_gain(i), expected)
        np.testing.assert_array_equal(policy.row_gain(np.int64(i)), expected)


@pytest.mark.parametrize("seed, n_x, n_u", REPRESENTATION_CASES)
def test_with_row_gains_writes_only_the_listed_cells(seed, n_x, n_u):
    rng = np.random.default_rng(seed)
    g = _graphs_with_a_blind_agent(rng)
    policy = structured_policy_from_blocks(g, n_x, n_u, _random_blocks(rng, g, n_x, n_u))
    listed = (1, *sorted(rng.choice(np.arange(2, 6), size=2, replace=False).tolist()))
    rows = {i: rng.normal(size=policy.row_gain(i).shape) for i in listed}
    updated = policy.with_row_gains(rows)

    for i in listed:
        np.testing.assert_array_equal(updated.row_gain(i), rows[i])
    kept = ~_observed_cells(g, n_x, n_u, listed)
    assert updated.gain[kept].tobytes() == policy.gain[kept].tobytes()
    assert not updated.gain[~_observed_cells(g, n_x, n_u, g.agents)].any()
    assert not updated.gain.flags.writeable


@pytest.mark.parametrize("seed, n_x, n_u", REPRESENTATION_CASES)
def test_policy_from_global_gain_drops_small_off_pattern_entries_and_names_large_ones(
    seed, n_x, n_u
):
    rng = np.random.default_rng(seed)
    g = _graphs_with_a_blind_agent(rng)
    pattern = _observed_cells(g, n_x, n_u, g.agents)
    atol = 1e-3
    gain = rng.normal(size=pattern.shape)
    noisy = np.where(pattern, gain, rng.uniform(-atol, atol, size=gain.shape))
    off_pattern = np.argwhere(~pattern)
    r, c = off_pattern[rng.integers(len(off_pattern))]
    noisy[r, c] = -atol  # at the tolerance: still dropped
    policy = policy_from_global_gain(g, n_x, n_u, noisy, atol=atol)
    np.testing.assert_array_equal(policy.gain, np.where(pattern, gain, 0.0))

    noisy[r, c] = 2.0 * atol
    with pytest.raises(GraphValidationError,
                       match=rf"block \({r // n_u + 1}, {c // n_x + 1}\) lies outside"):
        policy_from_global_gain(g, n_x, n_u, noisy, atol=atol)


def test_extract_subsystem_takes_numpy_integers_and_rejects_other_indices():
    g = generate_example1(4)
    system = build_example_system(g, n_x=2, n_u=1)
    policy = random_stabilizing_policy(np.random.default_rng(3), system)
    ref = extract_subsystem(system, policy, [1, 2, 3, 4], cost_owners=[2])
    sub = extract_subsystem(system, policy, np.arange(1, 5), cost_owners=[np.int64(2)])
    assert sub.agents == ref.agents and all(type(a) is int for a in sub.agents)
    for name in ("a", "b", "s", "r", "k"):
        assert getattr(sub, name).tobytes() == getattr(ref, name).tobytes()
    for index_set, owners in (([1.7, 2, 3, 4], [2]), ([1, 2, 3, 4], [2.9]),
                              ([True, 2, 3, 4], [2]), ([1, 2, 3, 4], [True])):
        with pytest.raises(GraphValidationError, match="is not an integer"):
            extract_subsystem(system, policy, index_set, cost_owners=owners)


def test_full_index_set_subsystem_equals_global():
    rng = np.random.default_rng(0)
    g = random_graphs(rng, 4, edge_prob=0.4, cost_self_loops=True)
    system = random_system(rng, g, 2, 1)
    policy = random_stabilizing_policy(rng, system)
    sub = extract_subsystem(system, policy, g.agents, cost_owners=g.agents, average=True)
    np.testing.assert_allclose(sub.a, system.a)
    np.testing.assert_allclose(sub.b, system.b)
    np.testing.assert_allclose(sub.s, system.s)
    np.testing.assert_allclose(sub.r, system.r)
    np.testing.assert_allclose(sub.k, policy.gain)


def test_decoupled_extraction_picks_agent_blocks():
    sys2 = decoupled_pair()
    policy = zero_policy(sys2.graphs, 1, 1)
    sub = extract_subsystem(sys2, policy, (1,), cost_owners=(1,))
    np.testing.assert_allclose(sub.a, [[0.5]])
    np.testing.assert_allclose(sub.b, [[1.0]])
    np.testing.assert_allclose(sub.s, [[1.0]])


def test_extraction_rejects_open_set():
    g = build_coupling_graphs(2, [(1, 1), (2, 2), (1, 2)], [(1, 1), (2, 2)],
                              [(1, 1), (2, 2)])
    system = build_system(
        g, 1, 1,
        {(1, 1): [[0.5]], (2, 2): [[0.5]], (2, 1): [[0.1]]},
        {(1, 1): [[1.0]], (2, 2): [[1.0]]},
        {1: [[1.0]], 2: [[1.0]]},
        {1: [[1.0]], 2: [[1.0]]},
        1.0,
    )
    policy = zero_policy(g, 1, 1)
    with pytest.raises(ClosureError, match="agent 1"):
        extract_subsystem(system, policy, (2,))


def _set_check_system():
    # agent 1 drives agent 2, and agent 1's cost depends on agent 2
    g = build_coupling_graphs(2, [(1, 1), (2, 2), (1, 2)], [(1, 1), (2, 2)],
                              [(1, 1), (2, 2), (2, 1)])
    return build_system(g, 1, 1, {(1, 1): [[0.5]], (2, 2): [[0.5]], (2, 1): [[0.1]]},
                        {(1, 1): [[1.0]], (2, 2): [[1.0]]},
                        {1: np.eye(2), 2: [[1.0]]}, {1: np.eye(2), 2: [[1.0]]}, 1.0)


@pytest.mark.parametrize("build", ["estimation_set", "extract_subsystem"])
@pytest.mark.parametrize("index_set, owners, error, message", [
    ((2,), (), ClosureError, r"index set \(2,\) is not closed: agent 1 reaches it"),
    ((1,), (1,), ClosureError,
     r"cost owner 1 depends on agents \[2\] outside the index set \(1,\)"),
    ((), (), ValueError, "must contain at least one agent"),
    ((True,), (), GraphValidationError, "is not an integer"),
    ((1.0,), (), GraphValidationError, "is not an integer"),
], ids=["open", "owner-cost-outside", "empty", "bool", "float"])
def test_estimation_set_and_extract_subsystem_share_one_set_check(
    build, index_set, owners, error, message
):
    system = _set_check_system()
    policy = zero_policy(system.graphs, 1, 1)
    assert estimation_set(system, (1, 2), (1, 2)).agents == (1, 2)
    with pytest.raises(error, match=message):
        if build == "estimation_set":
            estimation_set(system, index_set, owners)
        else:
            extract_subsystem(system, policy, index_set, owners)


def test_restricted_subsystem_reproduces_global_trajectory():
    g = generate_example1(8)
    system = build_example_system(g, n_x=2, n_u=2)
    rng = np.random.default_rng(1)
    play = random_stabilizing_policy(rng, system)
    deps = dependency_sets(g)
    agent_set = deps.direct[3]
    batch = rollout(system, play, 50, 0.5, seed=42)
    sub = extract_subsystem(system, play, agent_set)
    xs = batch.x[:, x_coords(agent_set, system.n_x)]
    us = batch.u[:, u_coords(agent_set, system.n_u)]
    # process noise recovered from the global trajectory, restricted
    w_full = batch.x[1:] - batch.x[:-1] @ system.a.T - batch.u @ system.b.T
    w_sub = w_full[:, x_coords(agent_set, system.n_x)]
    x_sim = xs[0]
    for t in range(50):
        x_sim = sub.a @ x_sim + sub.b @ us[t] + w_sub[t]
        np.testing.assert_allclose(x_sim, xs[t + 1], atol=1e-10)


def test_true_q_scalar_static_dynamics():
    system = scalar_system(0.0, 1.0, 1.0, 1.0, 1.0)
    sub = extract_subsystem(system, zero_policy(system.graphs, 1, 1), (1,), cost_owners=(1,))
    np.testing.assert_allclose(true_q_matrix(sub), [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)


def test_true_q_scalar_geometric():
    system = scalar_system(0.5, 1.0, 1.0, 1.0, 1.0)
    sub = extract_subsystem(system, zero_policy(system.graphs, 1, 1), (1,), cost_owners=(1,))
    expected = np.array([[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 7.0 / 3.0]])
    np.testing.assert_allclose(true_q_matrix(sub), expected, rtol=1e-12)


def test_true_q_rejects_unstable_closed_loop():
    system = scalar_system(1.1, 0.0, 1.0, 1.0, 1.0)
    sub = extract_subsystem(system, zero_policy(system.graphs, 1, 1), (1,), cost_owners=(1,))
    with pytest.raises(InstabilityError):
        true_q_matrix(sub)


def test_true_q_matches_monte_carlo_value_differences():
    rng = np.random.default_rng(2)
    g = random_graphs(rng, 2, edge_prob=0.6, cost_self_loops=True)
    system = random_system(rng, g, 1, 1, sigma_w=0.3)
    policy = random_stabilizing_policy(rng, system)
    everyone = tuple(g.agents)
    sub = extract_subsystem(system, policy, everyone, cost_owners=everyone)
    q = true_q_matrix(sub)
    lam = bellman_offset(sub, q)

    def mc_return(x0, u0, noise):
        x, u = np.array(x0), np.array(u0)
        acc = 0.0
        for w in noise:
            acc += sub.stage_cost(x, u) - lam
            x = sub.a @ x + sub.b @ u + sub.sigma_w * w
            u = sub.k @ x
        return acc

    za = (np.array([3.0, -2.0]), np.array([2.0, 1.0]))
    zb = (np.array([-0.3, 0.8]), np.array([-0.1, 0.4]))
    horizon, reps = 125, 400
    mc_rng = np.random.default_rng(3)
    # common random numbers across the two starting points
    diff_mc = 0.0
    for _ in range(reps):
        noise = mc_rng.standard_normal((horizon, sub.nx))
        diff_mc += mc_return(*za, noise) - mc_return(*zb, noise)
    diff_mc /= reps
    qa = np.concatenate(za) @ q @ np.concatenate(za)
    qb = np.concatenate(zb) @ q @ np.concatenate(zb)
    assert diff_mc == pytest.approx(qa - qb, rel=0.02)


def test_bellman_residual_vanishes_for_exact_q():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_graphs(rng, int(rng.integers(2, 5)), edge_prob=0.4, cost_self_loops=True)
        system = random_system(rng, g, 1, 2)
        policy = random_stabilizing_policy(rng, system)
        everyone = tuple(g.agents)
        sub = extract_subsystem(system, policy, everyone, cost_owners=everyone)
        q = true_q_matrix(sub)
        lam = bellman_offset(sub, q)
        for _ in range(20):
            x = rng.normal(size=sub.nx)
            u = rng.normal(size=sub.nu)
            assert abs(bellman_residual(sub, q, lam, x, u)) < 1e-9


def test_rollout_all_zero_without_noise():
    system = scalar_system(0.5, 1.0, 1.0, 1.0, 0.0)
    batch = rollout(system, zero_policy(system.graphs, 1, 1), 10, 0.0, seed=0,
                    x0=np.zeros(1), sigma0=0.0)
    assert np.all(batch.x == 0.0)
    assert np.all(batch.u == 0.0)


def test_rollout_pure_exploration_propagation():
    system = scalar_system(0.0, 1.0, 1.0, 1.0, 0.0)
    batch = rollout(system, zero_policy(system.graphs, 1, 1), 25, 1.0, seed=1,
                    x0=np.zeros(1), sigma0=0.0)
    np.testing.assert_allclose(batch.x[1:, 0], batch.u[:, 0], atol=1e-14)


def test_rollout_deterministic_given_seed():
    sys2 = decoupled_pair()
    p = zero_policy(sys2.graphs, 1, 1)
    b1 = rollout(sys2, p, 40, 0.7, seed=123)
    b2 = rollout(sys2, p, 40, 0.7, seed=123)
    assert b1.x.tobytes() == b2.x.tobytes()
    assert b1.u.tobytes() == b2.u.tobytes()


def _random_closed_loop(seed, n_agents=3, n_x=2, n_u=2):
    rng = np.random.default_rng(seed)
    g = random_graphs(rng, n_agents, edge_prob=0.5, cost_self_loops=True)
    system = random_system(rng, g, n_x, n_u, sigma_w=0.6)
    return system, random_stabilizing_policy(rng, system)


def test_rollout_satisfies_the_dynamics_with_the_seeds_noise():
    system, play = _random_closed_loop(11)
    t_length, sigma_eta, seed = 300, 0.7, 12
    batch = rollout(system, play, t_length, sigma_eta, seed=seed)
    # The seed's draws, in rollout's order: initial state, exploration, process noise.
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(system.nx_total)
    etas = sigma_eta * rng.standard_normal((t_length, system.nu_total))
    noises = system.sigma_w * rng.standard_normal((t_length, system.nx_total))
    x, u = batch.x, batch.u
    assert x.shape == (t_length + 1, system.nx_total) and u.shape == (t_length, system.nu_total)
    assert x[0].tobytes() == x0.tobytes()

    def rel_gap(value, reference):
        return np.max(np.abs(value - reference)) / np.max(np.abs(reference))

    assert rel_gap(u, x[:-1] @ play.gain.T + etas) < 1e-12
    assert rel_gap(x[1:], x[:-1] @ system.a.T + u @ system.b.T + noises) < 1e-12


def _reference_average_cost(system, policy, t_eval, seed, x0=None, sigma0=1.0):
    """Per-step evaluation: stage cost x'Sx + u'Ru, then a divergence test per step."""
    rng = np.random.default_rng(seed)
    nx = system.nx_total
    mean = np.zeros(nx) if x0 is None else np.asarray(x0, dtype=float)
    x = mean + math.sqrt(sigma0) * rng.standard_normal(nx)
    noises = system.sigma_w * rng.standard_normal((t_eval, nx))
    total = 0.0
    for t in range(t_eval):
        u = policy.gain @ x
        total += float(x @ system.s @ x) + float(u @ system.r @ u)
        x = system.a @ x + system.b @ u + noises[t]
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e12:
            return math.inf, True
    return total / t_eval, False


def test_average_cost_matches_a_per_step_reference():
    for seed in (21, 22, 23):
        system, policy = _random_closed_loop(seed)
        result = average_cost(system, policy, 400, seed=seed + 100)
        value, diverged = _reference_average_cost(system, policy, 400, seed + 100)
        assert not result.diverged and not diverged
        assert result.value == pytest.approx(value, rel=1e-12, abs=0.0)


def test_average_cost_deterministic_given_seed():
    system, policy = _random_closed_loop(31)
    first = average_cost(system, policy, 250, seed=np.random.SeedSequence(5))
    second = average_cost(system, policy, 250, seed=np.random.SeedSequence(5))
    assert np.float64(first.value).tobytes() == np.float64(second.value).tobytes()
    assert first.diverged == second.diverged


def _deterministic(a_blocks, n_agents, x0):
    """Noise-free plant with zero input map and gain: x_t = A^t x0 exactly."""
    loops = [(i, i) for i in range(1, n_agents + 1)]
    edges = [(i, j) for i in range(1, n_agents + 1) for j in range(1, n_agents + 1)]
    g = build_coupling_graphs(n_agents, edges, loops, loops)
    system = build_system(
        g, 1, 1, a_blocks, {}, {i: [[1.0]] for i, _ in loops}, {i: [[1.0]] for i, _ in loops}, 0.0
    )
    policy = zero_policy(g, 1, 1)
    return system, policy, np.asarray(x0, dtype=float)


@pytest.mark.parametrize(
    "a_blocks, n_agents, x0, t_eval, diverged",
    [
        # Doubling from 1 first exceeds 1e12 at step 40 (2^39 < 1e12 < 2^40).
        ({(1, 1): [[2.0]], (2, 2): [[0.5]]}, 2, [1.0, 1.0], 39, False),
        ({(1, 1): [[2.0]], (2, 2): [[0.5]]}, 2, [1.0, 1.0], 40, True),
        # Held still at the limit: |x| = 1e12 is not beyond it, one ulp more is.
        ({(1, 1): [[1.0]]}, 1, [np.nextafter(1e12, 0.0)], 30, False),
        ({(1, 1): [[1.0]]}, 1, [1e12], 30, False),
        ({(1, 1): [[1.0]]}, 1, [np.nextafter(1e12, math.inf)], 30, True),
        # Overflows to inf at step 2, and inf - inf gives NaN at step 3.
        ({(1, 1): [[1e160]], (1, 2): [[-1e160]], (2, 1): [[1e160]], (2, 2): [[1e160]]},
         2, [1.0, 2.0], 50, True),
    ],
)
def test_average_cost_divergence_matches_the_per_step_rule(
    a_blocks, n_agents, x0, t_eval, diverged
):
    system, policy, x0 = _deterministic(a_blocks, n_agents, x0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = average_cost(system, policy, t_eval, seed=0, x0=x0, sigma0=0.0)
        value, ref_diverged = _reference_average_cost(system, policy, t_eval, 0, x0, 0.0)
    assert result.diverged == ref_diverged == diverged
    if diverged:
        assert result.value == math.inf
    else:
        assert result.value == pytest.approx(value, rel=1e-12, abs=0.0)


def test_rollout_matches_stationary_covariance():
    rng = np.random.default_rng(5)
    g = random_graphs(rng, 2, edge_prob=0.5, cost_self_loops=True)
    system = random_system(rng, g, 2, 1)
    play = random_stabilizing_policy(rng, system)
    sigma_eta = 0.8
    batch = rollout(system, play, 10_000, sigma_eta, seed=6)
    closed = system.a + system.b @ play.gain
    target = lyapunov_solve(
        closed,
        system.sigma_w**2 * np.eye(system.nx_total)
        + sigma_eta**2 * (system.b @ system.b.T),
    )
    xs = batch.x[500:]
    empirical = (xs.T @ xs) / xs.shape[0]
    assert np.linalg.norm(empirical - target) / np.linalg.norm(target) < 0.10


def test_leader_set_solves_match_iteration_oracle_at_scale(monkeypatch):
    # example2 N=24: the leader's direct set is the whole team, n = 72.
    config = parse_config({"n_agents": 24, "example": "example2"})
    system = config.build_system()
    deps = dependency_sets(system.graphs)
    policy = zero_policy(system.graphs, system.n_x, system.n_u)
    sub = extract_subsystem(system, policy, deps.direct[1], cost_owners=deps.gradient[1])
    assert sub.nx == 72
    closed = sub.closed_loop()
    y = system.sigma_w**2 * np.eye(sub.nx) + config.sigma_eta**2 * (sub.b @ sub.b.T)

    def rel_gap(value, reference):
        return np.max(np.abs(value - reference)) / max(1.0, np.max(np.abs(reference)))

    assert rel_gap(lyapunov_solve(closed, y), lyapunov_iteration_oracle(closed, y)) < 1e-9
    q = true_q_matrix(sub)
    monkeypatch.setattr("malspi.system.lyapunov_solve", lyapunov_iteration_oracle)
    assert rel_gap(q, true_q_matrix(sub)) < 1e-9


def test_average_cost_zero_without_noise():
    system = scalar_system(0.5, 1.0, 1.0, 1.0, 0.0)
    result = average_cost(system, zero_policy(system.graphs, 1, 1), 50, seed=0,
                          x0=np.zeros(1), sigma0=0.0)
    assert result.value == 0.0 and not result.diverged


def test_average_cost_scalar_analytic():
    system = scalar_system(0.0, 1.0, 1.0, 1.0, 1.0)
    result = average_cost(system, zero_policy(system.graphs, 1, 1), 100_000, seed=7)
    assert not result.diverged
    assert result.value == pytest.approx(1.0, rel=0.05)


def test_average_cost_matches_lyapunov_trace():
    rng = np.random.default_rng(8)
    g = random_graphs(rng, 2, edge_prob=0.5, cost_self_loops=True)
    system = random_system(rng, g, 1, 1)
    policy = random_stabilizing_policy(rng, system)
    closed = system.a + system.b @ policy.gain
    cov = lyapunov_solve(closed, system.sigma_w**2 * np.eye(system.nx_total))
    expected = float(np.trace(cov @ (system.s + policy.gain.T @ system.r @ policy.gain)))
    result = average_cost(system, policy, 100_000, seed=9)
    assert result.value == pytest.approx(expected, rel=0.03)


def test_average_cost_flags_divergence():
    system = scalar_system(1.3, 0.0, 1.0, 1.0, 1.0)
    result = average_cost(system, zero_policy(system.graphs, 1, 1), 2_000, seed=10)
    assert result.diverged and result.value == np.inf


def test_coordinate_helpers():
    np.testing.assert_array_equal(x_coords((1, 3), 2), [0, 1, 4, 5])
    np.testing.assert_array_equal(u_coords((2,), 3), [3, 4, 5])
