"""Sample-complexity calculators."""
import dataclasses
import math

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


def test_concrete_ring_instance_direct_below_centralized():
    g = generate_example1(8)
    system = build_example_system(g, n_x=1, n_u=1)
    policy = zero_policy(g, 1, 1)
    deps = dependency_sets(g)
    agent = 1
    assert len(deps.direct[agent]) == 5
    sub = extract_subsystem(system, policy, deps.direct[agent], deps.gradient[agent])
    inputs = bound_inputs_from_subsystem(sub, sigma_eta=1.0)
    report_direct = sample_bound_direct(inputs)
    centralized_dims = dataclasses.replace(
        inputs, n_x_set=8 * system.n_x, n_u_set=8 * system.n_u
    )
    report_central = sample_bound_direct(centralized_dims)
    assert report_direct.t_min < report_central.t_min


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


def test_report_serialization_round_trip_fields():
    report = sample_bound_direct(make_inputs(), epsilon=0.2)
    data = report.to_dict()
    assert set(data) == {"t_min", "err_coefficient", "err_form", "t_epsilon"}
    indirect = sample_bound_indirect([make_inputs()], epsilon=0.2)
    nested = indirect.to_dict()
    assert nested["weights"] == [1.0]
    assert nested["members"][0]["t_min"] == pytest.approx(report.t_min)
