"""Microbenchmarks of the policy-improvement step (pytest-benchmark).

Each benchmark times ``policy_gradient_update`` for every agent of one
``run_malspi`` iteration, reading each agent's row with ``row_gain`` and
writing all of them back with one ``with_row_gains``:

* the ``full_set`` benchmark workload's step: example1 with N=12 agents and
  the 2x2 criterion-6 plant, ``centralized`` (every agent updates on the
  whole team, m=48), T=1226;
* example2 with N=400 agents on the same plant under ``indirect``, T=500:
  the leader's update set is the whole team (m=1600), and each follower's
  is itself and the leader.

The estimates are fixed positive semi-definite matrices, one per distinct
update set, since the step's cost does not depend on their values.  The
file name keeps it out of the default test collection; run it with

    PYTHONPATH=src python -m pytest tests/bench_step.py

and pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) for numbers
comparable with the benchmark's.
"""
import numpy as np
import pytest

from malspi.config import parse_config
from malspi.graphs import dependency_sets
from malspi.linalg import svec_dim
from malspi.policy_iteration import Architecture, architecture_plans, policy_gradient_update
from malspi.system import rollout, zero_policy

PLANT = {"a_self": [[0.85, 0.01], [0.01, 0.85]]}


def _step_inputs(example: str, n_agents: int, architecture: Architecture, t_rollout: int):
    system = parse_config({"n_agents": n_agents, "example": example, "n_x": 2, "n_u": 2,
                           "dynamics": dict(PLANT)}).build_system()
    policy = zero_policy(system.graphs, system.n_x, system.n_u)
    batch = rollout(system, policy, t_rollout, 1.0, 0)
    plans = architecture_plans(architecture, dependency_sets(system.graphs), n_agents)
    rng = np.random.default_rng(0)
    q_by_set = {}
    for plan in plans.values():
        if plan.update_set not in q_by_set:
            m = (system.n_x + system.n_u) * len(plan.update_set)
            g = rng.normal(size=(m, m))
            q_by_set[plan.update_set] = g.T @ g / m
    estimates = {i: (plan.update_set, q_by_set[plan.update_set]) for i, plan in plans.items()}
    return policy, estimates, batch


@pytest.fixture(scope="module")
def full_set_step():
    return _step_inputs("example1", 12, Architecture.CENTRALIZED, svec_dim(4 * 12) + 50)


@pytest.fixture(scope="module")
def example2_n400_indirect_step():
    return _step_inputs("example2", 400, Architecture.INDIRECT, 500)


def test_step_full_set(benchmark, full_set_step):
    policy, estimates, batch = full_set_step
    updated = benchmark(policy_gradient_update, policy, estimates, batch, 1e-3)
    assert updated.gain.shape == policy.gain.shape and updated.gain.any()


def test_step_example2_n400_indirect(benchmark, example2_n400_indirect_step):
    policy, estimates, batch = example2_n400_indirect_step
    assert max(len(s) for s, _ in estimates.values()) == 400
    updated = benchmark(policy_gradient_update, policy, estimates, batch, 1e-3)
    assert updated.gain.shape == policy.gain.shape and updated.gain.any()
