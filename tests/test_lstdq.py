"""Error-in-variables policy evaluation on restricted trajectories."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from malspi import lstdq
from malspi.graphs import build_coupling_graphs, dependency_sets
from malspi.examples import build_example_system, generate_example1
from malspi.linalg import svec, svec_dim
from malspi.lstdq import (
    LstdqOperator,
    SingularOperatorError,
    UnderdeterminedError,
    build_regression,
    lstdq_solve,
)
from malspi.system import (
    build_system,
    extract_subsystem,
    rollout,
    structured_policy_from_blocks,
    true_q_matrix,
    zero_policy,
)
from malspi.verify import build_noise_free_variant, random_stabilizing_policy, random_system


def _svec_samples(z):
    """svec(z_t z_t') of every row z_t: the upper triangle row by row, the
    off-diagonal entries scaled by sqrt(2) as (sqrt(2) z_j) z_i."""
    rows, cols = np.triu_indices(z.shape[1])
    weights = np.where(rows == cols, 1.0, math.sqrt(2.0))
    return (z[:, cols] * weights) * z[:, rows]


def _regressor_rows(bundle):
    """The regressor rows Phi - Psi_plus + F the operator multiplies, whole."""
    return bundle.phi - _svec_samples(bundle.z_next) + bundle.f_row


def scalar_system(a=0.5, b=1.0, s=1.0, r=1.0, sigma_w=1.0):
    loops = [(1, 1)]
    g = build_coupling_graphs(1, loops, loops, loops)
    return build_system(g, 1, 1, {(1, 1): [[a]]}, {(1, 1): [[b]]},
                        {1: [[s]]}, {1: [[r]]}, sigma_w)


def test_feature_rows_hand_checked_smallest_instance():
    system = scalar_system(sigma_w=0.0)
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 3, 1.0, seed=0)
    bundle = build_regression(batch, (1,), policy, (1,), system)
    assert bundle.d == 3
    for t in range(3):
        x, u = batch.x[t, 0], batch.u[t, 0]
        np.testing.assert_allclose(
            bundle.phi[t], [x * x, math.sqrt(2.0) * x * u, u * u], atol=1e-14
        )
        # the zero gain's next action is 0, and f_row is 0 without noise
        xp = batch.x[t + 1, 0]
        np.testing.assert_array_equal(bundle.z_next[t], [xp, 0.0])
        np.testing.assert_allclose(
            _regressor_rows(bundle)[t], [x * x - xp * xp, math.sqrt(2.0) * x * u, u * u],
            atol=1e-14,
        )
    np.testing.assert_allclose(bundle.f_row, 0.0)
    np.testing.assert_allclose(bundle.c_hat, batch.x[:3, 0] ** 2 + batch.u[:, 0] ** 2)


def test_noise_row_value():
    system = scalar_system(sigma_w=0.8)
    policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.2]]})
    batch = rollout(system, policy, 10, 1.0, seed=1)
    bundle = build_regression(batch, (1,), policy, (1,), system)
    g = np.array([[1.0], [-0.2]])
    expected = 0.8**2 * (g @ g.T)
    np.testing.assert_allclose(
        bundle.f_row,
        [expected[0, 0], math.sqrt(2) * expected[0, 1], expected[1, 1]],
        atol=1e-14,
    )


def test_empty_cost_owner_set_gives_zero_solution():
    system = scalar_system()
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 50, 1.0, seed=2)
    bundle = build_regression(batch, (1,), policy, (), system)
    np.testing.assert_allclose(bundle.c_hat, 0.0)
    estimate = lstdq_solve(bundle)
    np.testing.assert_allclose(estimate.q, 0.0, atol=1e-12)


def test_aggregated_cost_matches_raw_recomputation():
    g = generate_example1(8)
    system = build_example_system(g, n_x=2, n_u=1)
    policy = zero_policy(g, 2, 1)
    deps = dependency_sets(g)
    batch = rollout(system, policy, 40, 1.0, seed=3)
    owners = deps.gradient[1]
    bundle = build_regression(batch, deps.direct[1], policy, owners, system,
                              allow_underdetermined=True)
    expected = np.zeros(40)
    for t in range(40):
        for j in owners:
            expected[t] += system.agent_stage_cost(j, batch.x[t], batch.u[t])
    np.testing.assert_allclose(bundle.c_hat, expected, rtol=1e-12)


def test_underdetermined_error_reports_required_length():
    system = scalar_system()
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 2, 1.0, seed=4)
    with pytest.raises(UnderdeterminedError) as err:
        build_regression(batch, (1,), policy, (1,), system)
    assert err.value.required == 3


def test_singular_operator_raises_with_advice():
    system = scalar_system(sigma_w=0.0)
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 20, 0.0, seed=5, x0=np.zeros(1), sigma0=0.0)
    bundle = build_regression(batch, (1,), policy, (1,), system)
    with pytest.raises(SingularOperatorError, match="longer trajectory"):
        lstdq_solve(bundle)


def test_nan_operator_raises_singular():
    system = scalar_system()
    policy = zero_policy(system.graphs, 1, 1)
    bundle = build_regression(rollout(system, policy, 20, 1.0, seed=5), (1,), policy, (1,), system)
    bundle = replace(bundle, phi=np.full_like(bundle.phi, np.nan))
    with pytest.raises(SingularOperatorError) as err:
        LstdqOperator(bundle)
    assert math.isnan(err.value.rcond)


def test_rank_deficient_nonzero_operator_raises_singular():
    # no exploration under the zero policy: u = 0, so the x*u and u*u
    # feature columns vanish while the x*x block stays nonzero
    system = scalar_system(sigma_w=1.0)
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 50, 0.0, seed=11)
    bundle = build_regression(batch, (1,), policy, (1,), system)
    assert np.any(bundle.phi != 0.0)
    with pytest.raises(SingularOperatorError, match="longer trajectory"):
        lstdq_solve(bundle)


def test_nearly_dependent_columns_fail_the_condition_estimate():
    # two feature columns equal to 1e-14 relative leave no exactly zero LU
    # pivot; only the condition estimate can flag the operator.  The swapped
    # Phi also enters the regressor columns Phi - Psi_plus + F, so the
    # evaluated gain is nonzero: its Psi_plus columns x'u' and u'^2 differ,
    # and the two regressor columns do not collapse together as well.
    system = scalar_system()
    play = zero_policy(system.graphs, 1, 1)
    policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.5]]})
    bundle = build_regression(rollout(system, play, 200, 1.0, seed=12), (1,), policy, (1,), system)
    phi = bundle.phi.copy()
    phi[:, 2] = phi[:, 1] * (1.0 + 1e-14)
    with pytest.raises(SingularOperatorError, match="condition estimate") as err:
        LstdqOperator(replace(bundle, phi=phi))
    assert 0.0 <= err.value.rcond <= 1e-10


def test_lu_solve_matches_least_squares_reference():
    rng = np.random.default_rng(13)
    g = generate_example1(2)
    system = random_system(rng, g, 1, 1)
    policy = random_stabilizing_policy(rng, system)
    batch = rollout(system, zero_policy(g, 1, 1), 2000, 1.0, seed=14)
    bundle = build_regression(batch, (1, 2), policy, (1, 2), system)
    op = LstdqOperator(bundle)
    operator = bundle.phi.T @ _regressor_rows(bundle)
    assert op.diagnostics.rcond > 1e-6
    for cost in [bundle.c_hat, *bundle.owner_costs.T]:
        reference = scipy.linalg.lstsq(operator, bundle.phi.T @ cost)[0]
        np.testing.assert_allclose(op.solve_cost(cost), reference, rtol=1e-10, atol=0.0)


def test_solve_cost_block_matches_single_column_solves():
    rng = np.random.default_rng(17)
    g = generate_example1(4)
    system = random_system(rng, g, 1, 1)
    policy = random_stabilizing_policy(rng, system)
    deps = dependency_sets(g)
    batch = rollout(system, zero_policy(g, 1, 1), 400, 1.0, seed=18)
    bundle = build_regression(batch, deps.direct[1], policy, deps.gradient[1], system)
    assert bundle.owner_costs.shape == (400, len(deps.gradient[1])) and len(deps.gradient[1]) > 1
    np.testing.assert_allclose(bundle.c_hat, bundle.owner_costs.sum(axis=1))
    op = LstdqOperator(bundle)
    block = op.solve_cost(bundle.owner_costs)
    assert block.shape == (bundle.d, len(bundle.cost_owners))
    for col, cost in enumerate(bundle.owner_costs.T):
        single = op.solve_cost(cost)
        assert np.linalg.norm(block[:, col] - single) <= 1e-12 * np.linalg.norm(single)


def test_feature_and_regressor_rows_match_per_sample_svec():
    rng = np.random.default_rng(21)
    g = generate_example1(3)
    system = random_system(rng, g, 2, 1)
    policy = random_stabilizing_policy(rng, system)
    batch = rollout(system, zero_policy(g, 2, 1), 60, 1.0, seed=22)
    agents = (1, 2, 3)
    bundle = build_regression(batch, agents, policy, agents, system)
    assert bundle.phi.flags.f_contiguous and bundle.z_next.flags.f_contiguous
    xs, us = batch.states(agents), batch.controls(agents)
    k = extract_subsystem(system, policy, agents).k
    psi = _svec_samples(bundle.z_next)
    for t in range(batch.length):
        z = np.concatenate([xs[t], us[t]])
        z_next = np.concatenate([xs[t + 1], k @ xs[t + 1]])
        phi = svec(np.outer(z, z))
        np.testing.assert_allclose(bundle.phi[t], phi, rtol=1e-15, atol=0.0)
        # K x(t+1) is one product over all samples here and per sample above
        np.testing.assert_allclose(
            bundle.z_next[t], z_next, rtol=1e-13, atol=1e-13 * np.abs(z_next).max()
        )
        np.testing.assert_allclose(
            psi[t], svec(np.outer(z_next, z_next)), rtol=1e-13, atol=1e-13 * np.abs(psi).max()
        )
    # the operator's blocks of Psi_plus columns are whole svec rows, bit for bit
    m = bundle.z_next.shape[1]
    np.testing.assert_array_equal(lstdq._svec_rows(bundle.z_next), psi)
    for first, stop, c0, c1 in [(0, 1, 0, m), (2, 5, 2 * m - 1, 5 * m - 10), (m - 1, m, bundle.d - 1, bundle.d)]:
        np.testing.assert_array_equal(lstdq._svec_rows(bundle.z_next, first, stop), psi[:, c0:c1])


def _greedy_row_blocks(m, width):
    """Column ranges of consecutive whole svec rows, each grouped until it is
    at least ``width`` wide; the rest forms the last range."""
    blocks, c0, c1 = [], 0, 0
    for i in range(m):
        c1 += m - i
        if c1 - c0 >= width or i == m - 1:
            blocks.append((c0, c1))
            c0 = c1
    return blocks


def _reference_solve(bundle, operator):
    lu, piv, info = scipy.linalg.lapack.dgetrf(operator)
    assert info == 0
    rhs = scipy.linalg.blas.dgemm(1.0, bundle.phi, bundle.owner_costs, trans_a=True)
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


@pytest.mark.parametrize(
    "n_agents,n_x,n_u,width",
    [
        (2, 2, 1, None),  # d = 21, below one block: one product, as before blocking
        (4, 4, 2, None),  # d = 300 in blocks of 264 and 36 at the module's width
        (4, 2, 1, 23),  # d = 78 in blocks of exactly 23, then 27, 25 and 3
        (4, 2, 1, 40),  # d = 78 in blocks of 42 and 36
    ],
)
def test_blocked_operator_matches_a_reference_from_per_sample_rows(
    monkeypatch, n_agents, n_x, n_u, width
):
    if width is not None:
        monkeypatch.setattr(lstdq, "_BLOCK_COLUMNS", width)
    width = lstdq._BLOCK_COLUMNS
    rng = np.random.default_rng(23)
    g = generate_example1(n_agents)
    system = random_system(rng, g, n_x, n_u)
    policy = random_stabilizing_policy(rng, system)
    agents = tuple(g.agents)
    m = (n_x + n_u) * n_agents
    batch = rollout(system, zero_policy(g, n_x, n_u), svec_dim(m) + 40, 1.0, seed=24)
    bundle = build_regression(batch, agents, policy, agents, system)
    regressors = _regressor_rows(bundle)
    one_product = scipy.linalg.blas.dgemm(1.0, bundle.phi, regressors, trans_a=True)
    blocks = _greedy_row_blocks(m, width)
    assert (len(blocks) == 1) == (bundle.d <= width) and blocks[-1][1] == bundle.d
    by_block = np.empty((bundle.d, bundle.d), order="F")
    for c0, c1 in blocks:
        by_block[:, c0:c1] = scipy.linalg.blas.dgemm(
            1.0, bundle.phi, np.asfortranarray(regressors[:, c0:c1]), trans_a=True
        )
    q = LstdqOperator(bundle).solve_cost(bundle.owner_costs)
    # Bit for bit against the same column blocks of the whole regressor rows;
    # with one block that is the one product itself.
    np.testing.assert_array_equal(q, _reference_solve(bundle, by_block))
    if len(blocks) == 1:
        np.testing.assert_array_equal(by_block, one_product)
    # BLAS may sum a column in another order when it is computed in a
    # narrower product, so against the one product only to rounding.
    reference = _reference_solve(bundle, one_product)
    assert np.linalg.norm(q - reference) <= 1e-9 * np.linalg.norm(reference)


def test_operator_holds_one_regressor_block_not_the_rows():
    # The full_set size: example1, N=12, n_x=n_u=2, all agents, T = d + 50.
    g = generate_example1(12)
    system = build_example_system(g, n_x=2, n_u=2)
    policy = zero_policy(g, 2, 2)
    agents = tuple(g.agents)
    m, d = 48, svec_dim(48)
    batch = rollout(system, policy, d + 50, 1.0, seed=25)
    t = batch.length
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bundle = build_regression(batch, agents, policy, agents, system)
        LstdqOperator(bundle).solve_cost(bundle.owner_costs)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert bundle.d == d
    # Phi, the operator and one block of whole svec rows, the widest of which
    # passes the block width by less than one row of m columns.
    block = t * (lstdq._BLOCK_COLUMNS + m - 1) * 8
    limit = (t * d + d * d) * 8 + block + 2**20
    assert peak < limit, f"peak {peak / 2**20:.1f} MiB >= {limit / 2**20:.1f} MiB"


def test_diagnostics_carry_condition_estimate_and_exact_sigma_on_request():
    rng = np.random.default_rng(15)
    g = generate_example1(2)
    system = random_system(rng, g, 1, 1)
    policy = zero_policy(g, 1, 1)
    bundle = build_regression(rollout(system, policy, 500, 1.0, seed=16), (1, 2), policy,
                              (1, 2), system)
    operator = bundle.phi.T @ _regressor_rows(bundle)
    diag = lstdq_solve(bundle).diagnostics
    assert diag.threshold == 1e-10
    assert diag.sigma_min == pytest.approx(scipy.linalg.svdvals(operator)[-1], rel=1e-8)
    # the Hager/Higham estimate bounds the true reciprocal 1-norm condition from above
    true_rcond = 1.0 / np.linalg.cond(operator, 1)
    assert true_rcond * (1 - 1e-8) <= diag.rcond <= 10.0 * true_rcond
    assert LstdqOperator(bundle).diagnostics.sigma_min is None


def test_noise_free_recovery_is_exact_scalar():
    system = scalar_system(sigma_w=0.0)
    eval_policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.3]]})
    play = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, play, 60, 1.0, seed=6)
    bundle = build_regression(batch, (1,), eval_policy, (1,), system)
    estimate = lstdq_solve(bundle)
    sub = extract_subsystem(system, eval_policy, (1,), cost_owners=(1,))
    np.testing.assert_allclose(estimate.matrix, true_q_matrix(sub), atol=1e-6)
    assert estimate.diagnostics.sigma_min is not None


def test_noise_free_recovery_direct_and_per_owner_sets():
    rng = np.random.default_rng(7)
    g = generate_example1(4)
    system = build_noise_free_variant(random_system(rng, g, 1, 1))
    eval_policy = random_stabilizing_policy(rng, system)
    play = zero_policy(g, 1, 1)
    deps = dependency_sets(g)
    batch = rollout(system, play, 500, 1.0, seed=8)
    for i in g.agents:
        # aggregated evaluation on the direct set
        bundle = build_regression(batch, deps.direct[i], eval_policy, deps.gradient[i], system)
        sub = extract_subsystem(system, eval_policy, deps.direct[i],
                                cost_owners=deps.gradient[i])
        np.testing.assert_allclose(lstdq_solve(bundle).matrix, true_q_matrix(sub), atol=1e-6)
        # per-owner evaluation on the owner's value set
        own = build_regression(batch, deps.value[i], eval_policy, (i,), system)
        sub_own = extract_subsystem(system, eval_policy, deps.value[i], cost_owners=(i,))
        np.testing.assert_allclose(lstdq_solve(own).matrix, true_q_matrix(sub_own), atol=1e-6)


def test_off_policy_consistency_noise_free():
    system = scalar_system(sigma_w=0.0)
    eval_policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.4]]})
    sub = extract_subsystem(system, eval_policy, (1,), cost_owners=(1,))
    q_true = true_q_matrix(sub)
    for k_play in (0.0, -0.6):
        play = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[k_play]]})
        batch = rollout(system, play, 80, 1.0, seed=9)
        estimate = lstdq_solve(build_regression(batch, (1,), eval_policy, (1,), system))
        np.testing.assert_allclose(estimate.matrix, q_true, atol=1e-6)


def test_longer_trajectories_reduce_error_on_paired_seeds():
    system = scalar_system(a=0.8, sigma_w=1.0)
    policy = zero_policy(system.graphs, 1, 1)
    sub = extract_subsystem(system, policy, (1,), cost_owners=(1,))
    q_exact = true_q_matrix(sub)
    improved = 0
    for seed in range(20):
        errors = {}
        for k, t_len in enumerate((500, 8000)):
            batch = rollout(system, policy, t_len, 1.0, seed=1000 * seed + k)
            est = lstdq_solve(build_regression(batch, (1,), policy, (1,), system))
            errors[t_len] = np.linalg.norm(est.matrix - q_exact)
        if errors[8000] < errors[500]:
            improved += 1
    assert improved >= 18


def test_exact_parameter_empirical_residual_shrinks_like_inverse_sqrt():
    # c_hat - (phi - psi_plus + f) q_true, the residual on the regressor
    # rows, has zero conditional mean (the average-cost offset is folded
    # into f); its empirical mean over one trajectory decays roughly as
    # 1/sqrt(T)
    system = scalar_system(a=0.7, sigma_w=1.0)
    policy = zero_policy(system.graphs, 1, 1)
    sub = extract_subsystem(system, policy, (1,), cost_owners=(1,))
    from malspi.linalg import svec

    q_vec = svec(true_q_matrix(sub))
    t_grid = (400, 1600, 6400, 25600)
    means = []
    for t_len in t_grid:
        residuals = []
        for seed in range(12):
            batch = rollout(system, policy, t_len, 1.0, seed=70_000 + 13 * seed + t_len)
            bundle = build_regression(batch, (1,), policy, (1,), system)
            residuals.append(abs(np.mean(bundle.c_hat - _regressor_rows(bundle) @ q_vec)))
        means.append(np.median(residuals))
    slope = np.polyfit(np.log(t_grid), np.log(means), 1)[0]
    assert -0.8 <= slope <= -0.25


def test_projection_floors_eigenvalues():
    system = scalar_system()
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 200, 1.0, seed=10)
    estimate = lstdq_solve(build_regression(batch, (1,), policy, (1,), system))
    projected = estimate.project(1e-6)
    assert projected.zeta == 1e-6
    assert np.linalg.eigvalsh(projected.matrix).min() >= 1e-6 - 1e-12
    np.testing.assert_allclose(projected.q, projected.project(1e-6).q, atol=1e-12)
