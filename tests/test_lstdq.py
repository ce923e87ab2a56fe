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
from malspi.linalg import smat, svec, svec_dim
from malspi.lstdq import (
    LstdqOperator,
    SingularOperatorError,
    UnderdeterminedError,
    build_regression,
)
from malspi.system import (
    build_system,
    estimation_set,
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


def _features(bundle):
    """The T x d features Phi, whole, from the bundle's samples."""
    return _svec_samples(bundle.z_now)


def _regressor_rows(bundle):
    """The regressor rows Phi - Psi_plus + F the operator multiplies, whole."""
    return _features(bundle) - _svec_samples(bundle.z_next) + bundle.f_row


def _traced_peak(work):
    """``work()`` and the peak bytes traced while it ran above those held before."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = work()
        return result, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _q_matrix(bundle):
    """The estimated Q matrix for the bundle's aggregated cost."""
    return smat(LstdqOperator(bundle).solve_cost().sum(axis=1))


def scalar_system(a=0.5, b=1.0, s=1.0, r=1.0, sigma_w=1.0):
    loops = [(1, 1)]
    g = build_coupling_graphs(1, loops, loops, loops)
    return build_system(g, 1, 1, {(1, 1): [[a]]}, {(1, 1): [[b]]},
                        {1: [[s]]}, {1: [[r]]}, sigma_w)


def test_feature_rows_hand_checked_smallest_instance():
    system = scalar_system(sigma_w=0.0)
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 3, 1.0, seed=0)
    bundle = build_regression(batch, estimation_set(system, (1,), (1,)), policy, system)
    assert bundle.d == 3
    phi = _features(bundle)
    for t in range(3):
        x, u = batch.x[t, 0], batch.u[t, 0]
        np.testing.assert_array_equal(bundle.z_now[t], [x, u])
        np.testing.assert_allclose(phi[t], [x * x, math.sqrt(2.0) * x * u, u * u], atol=1e-14)
        # the zero gain's next action is 0, and f_row is 0 without noise
        xp = batch.x[t + 1, 0]
        np.testing.assert_array_equal(bundle.z_next[t], [xp, 0.0])
        np.testing.assert_allclose(
            _regressor_rows(bundle)[t], [x * x - xp * xp, math.sqrt(2.0) * x * u, u * u],
            atol=1e-14,
        )
    np.testing.assert_allclose(bundle.f_row, 0.0)
    np.testing.assert_allclose(bundle.owner_costs[:, 0], batch.x[:3, 0] ** 2 + batch.u[:, 0] ** 2)


def test_noise_row_value():
    system = scalar_system(sigma_w=0.8)
    policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.2]]})
    batch = rollout(system, policy, 10, 1.0, seed=1)
    bundle = build_regression(batch, estimation_set(system, (1,), (1,)), policy, system)
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
    bundle = build_regression(batch, estimation_set(system, (1,), ()), policy, system)
    assert bundle.owner_costs.shape == (50, 0)
    q = LstdqOperator(bundle).solve_cost()
    assert q.shape == (bundle.d, 0)
    np.testing.assert_array_equal(q.sum(axis=1), 0.0)


def test_aggregated_cost_matches_raw_recomputation():
    g = generate_example1(8)
    system = build_example_system(g, n_x=2, n_u=1)
    policy = zero_policy(g, 2, 1)
    deps = dependency_sets(g)
    agents, owners = deps.direct[1], deps.gradient[1]
    t_length = svec_dim(3 * len(agents))
    batch = rollout(system, policy, t_length, 1.0, seed=3)
    bundle = build_regression(batch, estimation_set(system, agents, owners), policy, system)
    sub = extract_subsystem(system, policy, agents, cost_owners=owners)
    xs, us = batch.states(agents), batch.controls(agents)
    expected = [sub.stage_cost(xs[t], us[t]) for t in range(t_length)]
    np.testing.assert_allclose(bundle.owner_costs.sum(axis=1), expected, rtol=1e-12)


def test_underdetermined_error_reports_required_length():
    system = scalar_system()
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 2, 1.0, seed=4)
    with pytest.raises(UnderdeterminedError) as err:
        build_regression(batch, estimation_set(system, (1,), (1,)), policy, system)
    assert err.value.required == 3


def test_singular_operator_raises_with_advice():
    system = scalar_system(sigma_w=0.0)
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 20, 0.0, seed=5, x0=np.zeros(1), sigma0=0.0)
    bundle = build_regression(batch, estimation_set(system, (1,), (1,)), policy, system)
    with pytest.raises(SingularOperatorError, match="longer trajectory"):
        LstdqOperator(bundle)


def test_nan_operator_raises_singular():
    system = scalar_system()
    policy = zero_policy(system.graphs, 1, 1)
    bundle = build_regression(rollout(system, policy, 20, 1.0, seed=5),
                              estimation_set(system, (1,), (1,)), policy, system)
    bundle = replace(bundle, z_now=np.full_like(bundle.z_now, np.nan))
    with pytest.raises(SingularOperatorError, match="1-norm nan") as err:
        LstdqOperator(bundle)
    assert math.isnan(err.value.rcond)


def test_rank_deficient_nonzero_operator_raises_singular():
    # no exploration under the zero policy: u = 0, so the x*u and u*u
    # feature columns vanish while the x*x block stays nonzero
    system = scalar_system(sigma_w=1.0)
    policy = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, policy, 50, 0.0, seed=11)
    bundle = build_regression(batch, estimation_set(system, (1,), (1,)), policy, system)
    assert np.any(_features(bundle) != 0.0)
    with pytest.raises(SingularOperatorError, match="longer trajectory"):
        LstdqOperator(bundle)


def test_nearly_dependent_columns_fail_the_condition_estimate():
    # x2 = +-(1 + 1e-14) and u2 = 1 make the feature columns x2^2 and u2^2
    # equal to 1e-13 relative while x2 u2 keeps random signs; that leaves no
    # exactly zero LU pivot, so only the condition estimate can flag the
    # operator.  The changed Phi also enters the regressor columns
    # Phi - Psi_plus + F; the evaluated gain is nonzero, so their Psi_plus
    # columns x2'^2 and u2'^2 differ and do not collapse together as well.
    rng = np.random.default_rng(12)
    g = generate_example1(2)
    system = random_system(rng, g, 1, 1)
    policy = random_stabilizing_policy(rng, system)
    batch = rollout(system, zero_policy(g, 1, 1), 200, 1.0, seed=12)
    bundle = build_regression(batch, estimation_set(system, (1, 2), (1, 2)), policy, system)
    z_now = bundle.z_now.copy(order="F")  # columns x1, x2, u1, u2
    z_now[:, 1] = np.sign(z_now[:, 1]) * (1.0 + 1e-14)
    z_now[:, 3] = 1.0
    phi = _features(replace(bundle, z_now=z_now))  # x2^2 is column 4, u2^2 column 9
    np.testing.assert_allclose(phi[:, 4], phi[:, 9], rtol=1e-13)
    with pytest.raises(SingularOperatorError, match="condition estimate") as err:
        LstdqOperator(replace(bundle, z_now=z_now))
    assert 0.0 <= err.value.rcond <= 1e-10


def test_lu_solve_matches_least_squares_reference():
    rng = np.random.default_rng(13)
    g = generate_example1(2)
    system = random_system(rng, g, 1, 1)
    policy = random_stabilizing_policy(rng, system)
    batch = rollout(system, zero_policy(g, 1, 1), 2000, 1.0, seed=14)
    bundle = build_regression(batch, estimation_set(system, (1, 2), (1, 2)), policy, system)
    op = LstdqOperator(bundle)
    phi = _features(bundle)
    operator = phi.T @ _regressor_rows(bundle)
    assert op.rcond > 1e-6
    q = op.solve_cost()
    assert bundle.cost_owners == (1, 2) and q.shape == (bundle.d, 2)
    for col, cost in enumerate(bundle.owner_costs.T):
        reference = scipy.linalg.lstsq(operator, phi.T @ cost)[0]
        np.testing.assert_allclose(q[:, col], reference, rtol=1e-10, atol=0.0)


def test_solve_cost_columns_match_single_owner_solves():
    rng = np.random.default_rng(17)
    g = generate_example1(4)
    system = random_system(rng, g, 1, 1)
    policy = random_stabilizing_policy(rng, system)
    deps = dependency_sets(g)
    batch = rollout(system, zero_policy(g, 1, 1), 400, 1.0, seed=18)
    agents, owners = deps.direct[1], deps.gradient[1]
    bundle = build_regression(batch, estimation_set(system, agents, owners), policy, system)
    assert bundle.owner_costs.shape == (400, len(owners)) and len(owners) > 1
    block = LstdqOperator(bundle).solve_cost()
    assert block.shape == (bundle.d, len(owners))
    for col, owner in enumerate(bundle.cost_owners):
        own = build_regression(batch, estimation_set(system, agents, (owner,)), policy, system)
        np.testing.assert_array_equal(own.owner_costs[:, 0], bundle.owner_costs[:, col])
        single = LstdqOperator(own).solve_cost()
        assert single.shape == (bundle.d, 1)
        assert np.linalg.norm(block[:, col] - single[:, 0]) <= 1e-12 * np.linalg.norm(single)


def test_feature_and_regressor_rows_match_per_sample_svec():
    rng = np.random.default_rng(21)
    g = generate_example1(3)
    system = random_system(rng, g, 2, 1)
    policy = random_stabilizing_policy(rng, system)
    batch = rollout(system, zero_policy(g, 2, 1), 60, 1.0, seed=22)
    agents = (1, 2, 3)
    bundle = build_regression(batch, estimation_set(system, agents, agents), policy, system)
    assert bundle.z_now.flags.f_contiguous and bundle.z_next.flags.f_contiguous
    xs, us = batch.states(agents), batch.controls(agents)
    k = extract_subsystem(system, policy, agents).k
    phi, psi = _features(bundle), _svec_samples(bundle.z_next)
    for t in range(batch.length):
        z = np.concatenate([xs[t], us[t]])
        z_next = np.concatenate([xs[t + 1], k @ xs[t + 1]])
        np.testing.assert_array_equal(bundle.z_now[t], z)
        np.testing.assert_allclose(phi[t], svec(np.outer(z, z)), rtol=1e-15, atol=0.0)
        # K x(t+1) is one product over all samples here and per sample above
        np.testing.assert_allclose(
            bundle.z_next[t], z_next, rtol=1e-13, atol=1e-13 * np.abs(z_next).max()
        )
        np.testing.assert_allclose(
            psi[t], svec(np.outer(z_next, z_next)), rtol=1e-13, atol=1e-13 * np.abs(psi).max()
        )
    # the operator's slab writer gives the same rows bit for bit, whole or
    # for any slab of samples
    for z, rows in [(bundle.z_now, phi), (bundle.z_next, psi)]:
        for t0, t1 in [(0, 60), (0, 1), (17, 43)]:
            out = np.empty((t1 - t0, bundle.d), order="F")
            np.testing.assert_array_equal(lstdq._svec_rows(z[t0:t1], out), rows[t0:t1])


def _slab_reference(bundle, slab):
    """Operator and owners' right-hand sides summed over slabs of ``slab``
    samples cut from the whole feature and regressor rows, each slab one
    GEMM with beta = 1, in 64-byte-aligned storage like the operator's."""
    dgemm = scipy.linalg.blas.dgemm
    phi, regressors = _features(bundle), _regressor_rows(bundle)
    operator = lstdq._aligned_zeros(bundle.d, bundle.d)
    rhs = np.zeros((bundle.d, bundle.owner_costs.shape[1]), order="F")
    for t0 in range(0, bundle.t_length, slab):
        rows = slice(t0, t0 + slab)
        phi_slab = np.asfortranarray(phi[rows])
        dgemm(1.0, phi_slab, np.asfortranarray(regressors[rows]), beta=1.0, c=operator,
              trans_a=True, overwrite_c=True)
        dgemm(1.0, phi_slab, np.asfortranarray(bundle.owner_costs[rows]), beta=1.0, c=rhs,
              trans_a=True, overwrite_c=True)
    return operator, rhs


def _reference_solve(operator, rhs):
    lu, piv, info = scipy.linalg.lapack.dgetrf(operator)
    assert info == 0
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


@pytest.mark.parametrize(
    "n_agents,n_x,n_u,slab",
    [
        (2, 2, 1, None),  # d = 21, T = 61 within the module's slab: one product
        (4, 4, 2, None),  # d = 300, T = 340 within the module's slab: one product
        (4, 2, 1, 118),  # d = 78, T = 118 in one slab of every sample
        (4, 2, 1, 59),  # two slabs of 59
        (4, 2, 1, 40),  # uneven slabs: 40, 40 and 38
        (4, 2, 1, 23),  # uneven slabs: five of 23, then 3
        (4, 2, 1, 1),  # one sample per slab
    ],
)
def test_blocked_operator_matches_a_reference_from_per_sample_rows(
    monkeypatch, n_agents, n_x, n_u, slab
):
    if slab is not None:
        monkeypatch.setattr(lstdq, "_SLAB_BYTES", 0)
        monkeypatch.setattr(lstdq, "_SLAB_MIN_ROWS", slab)
    rng = np.random.default_rng(23)
    g = generate_example1(n_agents)
    system = random_system(rng, g, n_x, n_u)
    policy = random_stabilizing_policy(rng, system)
    agents = tuple(g.agents)
    m = (n_x + n_u) * n_agents
    batch = rollout(system, zero_policy(g, n_x, n_u), svec_dim(m) + 40, 1.0, seed=24)
    bundle = build_regression(batch, estimation_set(system, agents, agents), policy, system)
    t_length = bundle.t_length
    slab = t_length if slab is None else slab
    assert min(t_length, max(lstdq._SLAB_MIN_ROWS, lstdq._SLAB_BYTES // (16 * bundle.d))) == slab
    q = LstdqOperator(bundle).solve_cost()
    # Bit for bit against the same slabs of the whole rows.
    operator, rhs = _slab_reference(bundle, slab)
    np.testing.assert_array_equal(q, _reference_solve(operator, rhs))
    phi = _features(bundle)
    one_operator = scipy.linalg.blas.dgemm(1.0, phi, _regressor_rows(bundle), trans_a=True)
    one_rhs = scipy.linalg.blas.dgemm(1.0, phi, bundle.owner_costs, trans_a=True)
    if slab >= t_length:  # one slab is the one product itself
        np.testing.assert_array_equal(operator, one_operator)
        np.testing.assert_array_equal(rhs, one_rhs)
    # BLAS sums a column in another order when T is cut into slabs, so
    # against the one product only to rounding.
    reference = _reference_solve(one_operator, one_rhs)
    assert np.linalg.norm(q - reference) <= 1e-9 * np.linalg.norm(reference)


def _full_set_regression(n_agents, t_extra=50, t_scale=1):
    """example1 with n_x = n_u = 2, every agent, T = t_scale * (d + t_extra)."""
    g = generate_example1(n_agents)
    system = build_example_system(g, n_x=2, n_u=2)
    policy = zero_policy(g, 2, 2)
    agents = tuple(g.agents)
    t_length = t_scale * (svec_dim(4 * n_agents) + t_extra)
    batch = rollout(system, policy, t_length, 1.0, seed=25)
    return batch, agents, policy, system


def test_operator_holds_one_regressor_block_not_the_rows():
    # The full_set size: example1, N=12, n_x=n_u=2, all agents, T = d + 50.
    batch, agents, policy, system = _full_set_regression(12)
    bundle = build_regression(batch, estimation_set(system, agents, agents), policy, system)
    d = bundle.d
    r = lstdq._SLAB_MIN_ROWS
    assert d == 1176 and lstdq._SLAB_BYTES // (16 * d) < r < bundle.t_length
    _, peak = _traced_peak(lambda: LstdqOperator(bundle).solve_cost())
    # the operator and one Phi slab and one regressor slab of r rows
    limit = (d * d + 2 * r * d) * 8 + 2**20
    assert peak < limit, f"peak {peak / 2**20:.1f} MiB >= {limit / 2**20:.1f} MiB"


def test_regression_peak_grows_with_t_only_by_the_samples():
    # d = 666 streams in slabs of r = 393 < T rows, so a 4x longer
    # trajectory adds only the longer T x m samples and T x k costs.
    peaks, sample_bytes = [], []
    for t_scale in (1, 4):
        batch, agents, policy, system = _full_set_regression(9, t_scale=t_scale)

        def regression():
            bundle = build_regression(batch, estimation_set(system, agents, agents), policy,
                                      system)
            LstdqOperator(bundle).solve_cost()
            return bundle

        bundle, peak = _traced_peak(regression)
        assert lstdq._SLAB_BYTES // (16 * bundle.d) < bundle.t_length
        peaks.append(peak)
        sample_bytes.append(bundle.z_now.nbytes + bundle.z_next.nbytes + bundle.owner_costs.nbytes)
    growth = peaks[1] - peaks[0]
    limit = sample_bytes[1] - sample_bytes[0] + 2**20
    assert growth <= limit, f"growth {growth / 2**20:.2f} MiB > {limit / 2**20:.2f} MiB"


def test_operator_keeps_the_condition_estimate():
    rng = np.random.default_rng(15)
    g = generate_example1(2)
    system = random_system(rng, g, 1, 1)
    policy = zero_policy(g, 1, 1)
    bundle = build_regression(rollout(system, policy, 500, 1.0, seed=16),
                              estimation_set(system, (1, 2), (1, 2)), policy, system)
    operator = _features(bundle).T @ _regressor_rows(bundle)
    # the Hager/Higham estimate bounds the true reciprocal 1-norm condition from above
    true_rcond = 1.0 / np.linalg.cond(operator, 1)
    assert true_rcond * (1 - 1e-8) <= LstdqOperator(bundle).rcond <= 10.0 * true_rcond


def test_noise_free_recovery_is_exact_scalar():
    system = scalar_system(sigma_w=0.0)
    eval_policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.3]]})
    play = zero_policy(system.graphs, 1, 1)
    batch = rollout(system, play, 60, 1.0, seed=6)
    bundle = build_regression(batch, estimation_set(system, (1,), (1,)), eval_policy, system)
    sub = extract_subsystem(system, eval_policy, (1,), cost_owners=(1,))
    np.testing.assert_allclose(_q_matrix(bundle), true_q_matrix(sub), atol=1e-6)


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
        bundle = build_regression(batch, estimation_set(system, deps.direct[i], deps.gradient[i]),
                                  eval_policy, system)
        sub = extract_subsystem(system, eval_policy, deps.direct[i],
                                cost_owners=deps.gradient[i])
        np.testing.assert_allclose(_q_matrix(bundle), true_q_matrix(sub), atol=1e-6)
        # per-owner evaluation on the owner's value set
        own = build_regression(batch, estimation_set(system, deps.value[i], (i,)), eval_policy,
                               system)
        sub_own = extract_subsystem(system, eval_policy, deps.value[i], cost_owners=(i,))
        np.testing.assert_allclose(_q_matrix(own), true_q_matrix(sub_own), atol=1e-6)


def test_off_policy_consistency_noise_free():
    system = scalar_system(sigma_w=0.0)
    eval_policy = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[-0.4]]})
    sub = extract_subsystem(system, eval_policy, (1,), cost_owners=(1,))
    q_true = true_q_matrix(sub)
    for k_play in (0.0, -0.6):
        play = structured_policy_from_blocks(system.graphs, 1, 1, {(1, 1): [[k_play]]})
        batch = rollout(system, play, 80, 1.0, seed=9)
        estimate = _q_matrix(build_regression(batch, estimation_set(system, (1,), (1,)),
                                              eval_policy, system))
        np.testing.assert_allclose(estimate, q_true, atol=1e-6)


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
            est = _q_matrix(build_regression(batch, estimation_set(system, (1,), (1,)), policy,
                                             system))
            errors[t_len] = np.linalg.norm(est - q_exact)
        if errors[8000] < errors[500]:
            improved += 1
    assert improved >= 18


def test_exact_parameter_empirical_residual_shrinks_like_inverse_sqrt():
    # c - (phi - psi_plus + f) q_true, the residual on the regressor
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
            bundle = build_regression(batch, estimation_set(system, (1,), (1,)), policy, system)
            cost = bundle.owner_costs[:, 0]
            residuals.append(abs(np.mean(cost - _regressor_rows(bundle) @ q_vec)))
        means.append(np.median(residuals))
    slope = np.polyfit(np.log(t_grid), np.log(means), 1)[0]
    assert -0.8 <= slope <= -0.25

