"""Sample-complexity calculators."""
import math

import numpy as np
import pytest

from malspi.bounds import (
    BoundInputs,
    bound_inputs_from_subsystem,
    norm_proportional_weights,
    sample_bound_direct,
    sample_bound_indirect,
)
from malspi.examples import build_example_system, generate_example1
from malspi.graphs import dependency_sets
from malspi.system import extract_subsystem, zero_policy
from malspi.verify import random_graphs, random_stabilizing_policy, random_system


def make_inputs(**overrides) -> BoundInputs:
    base = dict(
        n_x_set=4,
        n_u_set=2,
        tau=1.5,
        rho=0.9,
        sigma_w=1.0,
        sigma_eta=0.5,
        norm_a=1.2,
        norm_b=0.8,
        norm_k=0.4,
        norm_k_play=0.0,
        norm_sigma0=1.0,
        norm_p_inf=3.0,
        q_true_frobenius=10.0,
        o_tilde=1.0,
    )
    base.update(overrides)
    return BoundInputs(**base)


def test_error_envelope_has_exact_inverse_sqrt_dependence():
    report = sample_bound_direct(make_inputs())
    ratio = report.err_at(2000.0) / report.err_at(1000.0)
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 1e-12


def test_t_min_strictly_increases_with_set_dimensions():
    small = sample_bound_direct(make_inputs(n_x_set=4, n_u_set=2))
    big = sample_bound_direct(make_inputs(n_x_set=6, n_u_set=3))
    assert big.t_min > small.t_min
    assert big.err_at(1000.0) > small.err_at(1000.0)


def _measured(system, policy, agent_set, cost_owners, sigma_eta):
    """Bound inputs of one (agent set, cost owners) pair, measured as ``malspi bounds`` does."""
    sub = extract_subsystem(system, policy, agent_set, cost_owners)
    return bound_inputs_from_subsystem(sub, sigma_eta=sigma_eta)


def test_concrete_ring_instance_direct_below_centralized():
    g = generate_example1(8)
    system = build_example_system(g, n_x=1, n_u=1)
    policy = zero_policy(g, 1, 1)
    deps = dependency_sets(g)
    assert len(deps.direct[1]) == 5
    for i in g.agents:
        grad_set = deps.gradient[i]
        direct = sample_bound_direct(
            _measured(system, policy, deps.direct[i], grad_set, 1.0), epsilon=0.1
        )
        central = sample_bound_direct(
            _measured(system, policy, g.agents, grad_set, 1.0), epsilon=0.1
        )
        assert direct.t_min < central.t_min, i
        assert direct.t_epsilon < central.t_epsilon, i


def test_indirect_epsilon_count_can_exceed_direct():
    """The default norm-proportional split does not keep the indirect
    epsilon count at or below the direct one."""
    rng = np.random.default_rng(0)
    n = int(rng.integers(3, 9))
    g = random_graphs(rng, n, 0.1, cost_self_loops=True)
    system = random_system(rng, g, 2, 1)
    policy = random_stabilizing_policy(rng, system)
    deps = dependency_sets(g)
    assert n == 8
    grad_set = deps.gradient[1]
    assert grad_set == (1, 2, 3)
    direct = sample_bound_direct(
        _measured(system, policy, deps.direct[1], grad_set, 0.5), epsilon=0.1
    )
    indirect = sample_bound_indirect(
        [_measured(system, policy, deps.value[j], (j,), 0.5) for j in grad_set], epsilon=0.1
    )
    assert indirect.t_epsilon / direct.t_epsilon == pytest.approx(1.027, abs=1e-3)


def test_single_member_indirect_equals_direct():
    inputs = make_inputs()
    direct = sample_bound_direct(inputs, epsilon=0.1)
    indirect = sample_bound_indirect([inputs], weights=[1.0], epsilon=0.1)
    assert indirect.t_min == direct.t_min
    assert indirect.err_coefficient == direct.err_coefficient
    assert indirect.t_epsilon == direct.t_epsilon


def test_smaller_value_sets_give_smaller_indirect_t_min():
    direct = sample_bound_direct(make_inputs(n_x_set=8, n_u_set=4))
    members = [make_inputs(n_x_set=4, n_u_set=2), make_inputs(n_x_set=6, n_u_set=3)]
    indirect = sample_bound_indirect(members)
    assert indirect.t_min < direct.t_min


def test_norm_proportional_weights_never_worse_in_epsilon_count():
    members = [
        make_inputs(q_true_frobenius=q) for q in (12.0, 3.0, 1.0)
    ]
    proportional = norm_proportional_weights(members)
    assert sum(proportional) == pytest.approx(1.0)
    t_prop = sample_bound_indirect(members, weights=proportional, epsilon=0.05).t_epsilon
    t_unif = sample_bound_indirect(members, weights=[1 / 3] * 3, epsilon=0.05).t_epsilon
    assert t_prop <= t_unif + 1e-9


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        sample_bound_indirect([make_inputs(), make_inputs()], weights=[0.4, 0.4])


def test_exploration_noise_precondition():
    with pytest.raises(ValueError, match="must not exceed"):
        make_inputs(sigma_eta=2.0, sigma_w=1.0)


def test_stability_certificate_validation():
    with pytest.raises(ValueError):
        make_inputs(rho=1.0)
    with pytest.raises(ValueError):
        make_inputs(tau=0.5)


FLOAT_FIELDS = ("tau", "rho", "sigma_w", "sigma_eta", "norm_a", "norm_b", "norm_k",
                "norm_k_play", "norm_sigma0", "norm_p_inf", "q_true_frobenius", "o_tilde")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_inputs_must_be_finite(field, value):
    # max() and every range check pass NaN through: tau=nan gave t_min 16
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_inputs(**{field: value})


@pytest.mark.parametrize("field", ["norm_a", "norm_p_inf", "q_true_frobenius"])
def test_norms_must_be_nonnegative(field):
    with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
        make_inputs(**{field: -1.0})


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_epsilon_must_be_finite(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        sample_bound_direct(make_inputs(), epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        sample_bound_indirect([make_inputs()], epsilon=epsilon)


@pytest.mark.parametrize("weights", [[math.nan, 0.5], [math.nan, math.nan], [math.inf, 0.5]])
def test_weights_must_be_finite(weights):
    with pytest.raises(ValueError, match=r"weights must lie in \(0, 1\]"):
        sample_bound_indirect([make_inputs(), make_inputs()], weights=weights, epsilon=0.1)


def test_report_serialization_round_trip_fields():
    report = sample_bound_direct(make_inputs(), epsilon=0.2)
    data = report.to_dict()
    assert set(data) == {"t_min", "err_coefficient", "err_form", "t_epsilon"}
    indirect = sample_bound_indirect([make_inputs()], epsilon=0.2)
    nested = indirect.to_dict()
    assert nested["weights"] == [1.0]
    assert nested["members"][0]["t_min"] == pytest.approx(report.t_min)


# The calculators written out factor by factor: the reference that the
# counts built from the one excitation factor are compared against.
def _plus(value):
    return max(1.0, float(value))


def _written_out_w_factor(inputs):
    return (
        _plus(inputs.norm_k_play) ** 2
        * inputs.sigma_w
        * inputs.sigma_bar
        * inputs.tau**2
        * _plus(inputs.norm_k) ** 4
        * (inputs.norm_a**2 + inputs.norm_b**2)
        / (inputs.rho**2 * (1.0 - inputs.rho**2))
    )


def _written_out_direct(inputs):
    nx, nu = float(inputs.n_x_set), float(inputs.n_u_set)
    dims = nx + nu
    sbar = inputs.sigma_bar
    stability_factor = (
        inputs.tau**4
        * _plus(inputs.norm_k) ** 8
        * (inputs.norm_a**2 + inputs.norm_b**2) ** 2
        / (inputs.rho**4 * (1.0 - inputs.rho**2) ** 2)
    )
    burn_in = dims**2
    excitation = (
        nx**2
        * dims**2
        * _plus(inputs.norm_k_play) ** 4
        / inputs.sigma_eta**4
        * inputs.sigma_w**2
        * sbar**2
        * stability_factor
    )
    t_min = inputs.o_tilde * max(burn_in, excitation)

    err_coefficient = (
        inputs.o_tilde
        * dims
        * _plus(inputs.norm_k_play) ** 2
        / inputs.sigma_eta**2
        * inputs.sigma_w
        * sbar
        * inputs.q_true_frobenius
        * inputs.tau**2
        * _plus(inputs.norm_k) ** 4
        * (inputs.norm_a**2 + inputs.norm_b**2)
        / (inputs.rho**2 * (1.0 - inputs.rho**2))
    )
    return t_min, err_coefficient


def _written_out_t_epsilon(inputs, epsilon, weight=1.0):
    nx, nu = float(inputs.n_x_set), float(inputs.n_u_set)
    dims = nx + nu
    w = _written_out_w_factor(inputs)
    return max(
        inputs.o_tilde**2
        * w**2
        * dims**3
        * inputs.q_true_frobenius**2
        / (inputs.sigma_eta**4 * weight**2 * epsilon**2),
        inputs.o_tilde * w**2 * nx**2 * dims**2 / inputs.sigma_eta**4,
    )


def _random_inputs(rng):
    sigma_w = float(rng.uniform(0.5, 3.0))
    return BoundInputs(
        n_x_set=int(rng.integers(1, 40)),
        n_u_set=int(rng.integers(1, 30)),
        tau=float(1.0 + rng.exponential(2.0)),
        rho=float(rng.uniform(0.05, 0.99)),
        sigma_w=sigma_w,
        sigma_eta=sigma_w * float(rng.uniform(0.05, 1.0)),
        norm_a=float(rng.uniform(0.0, 3.0)),
        norm_b=float(rng.uniform(0.0, 3.0)),
        norm_k=float(rng.uniform(0.0, 3.0)),
        norm_k_play=float(rng.uniform(0.0, 3.0)),
        norm_sigma0=float(rng.uniform(0.0, 5.0)),
        norm_p_inf=float(rng.uniform(0.0, 50.0)),
        q_true_frobenius=float(rng.uniform(0.1, 100.0)),
        o_tilde=float(np.exp(rng.uniform(-3.0, 3.0))),
    )


def test_counts_match_written_out_expressions():
    rng = np.random.default_rng(20261021)
    close = dict(rel_tol=1e-13, abs_tol=0.0)
    drawn = []
    for _ in range(200):
        members = [_random_inputs(rng) for _ in range(int(rng.integers(2, 5)))]
        weights = rng.dirichlet(np.ones(len(members)))
        epsilon = float(np.exp(rng.uniform(-5.0, 0.0)))
        for inputs in members:
            direct = sample_bound_direct(inputs, epsilon=epsilon)
            t_min, err_coefficient = _written_out_direct(inputs)
            assert math.isclose(direct.t_min, t_min, **close)
            assert math.isclose(direct.err_coefficient, err_coefficient, **close)
            assert math.isclose(direct.t_epsilon, _written_out_t_epsilon(inputs, epsilon), **close)
        indirect = sample_bound_indirect(members, weights=weights, epsilon=epsilon)
        expected = max(_written_out_t_epsilon(m, epsilon, w) for m, w in zip(members, weights))
        assert math.isclose(indirect.t_epsilon, expected, **close)
        drawn += members
    assert all(m.norm_k_play != m.norm_k and m.o_tilde != 1.0 for m in drawn)
    for norm in ("norm_k", "norm_k_play"):
        assert any(getattr(m, norm) < 1.0 for m in drawn)
        assert any(getattr(m, norm) > 1.0 for m in drawn)
