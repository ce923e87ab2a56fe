"""Microbenchmarks of one LSTDQ regression (pytest-benchmark).

Each benchmark times ``build_regression``, ``LstdqOperator`` (the streamed
operator, its LU and the condition estimate) and the owners' ``solve_cost``,
the per-set work of one ``run_malspi`` iteration; the estimation set is
checked and laid out once, outside the timed call, as a run does:

* the ``full_set`` benchmark workload's regression: example1 with N=12
  agents and the 2x2 criterion-6 plant, every agent, d=1176, T=1226;
* one criterion-7 ``indirect`` set: example1 with N=8 agents and the
  default n_x=n_u=3 plant at that test's N=8 rollout length T=1226, agent
  1's value dependence set with agent 1 as its one cost owner.

The file name keeps it out of the default test collection; run it with

    PYTHONPATH=src python -m pytest tests/bench_lstdq.py

and pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) for numbers
comparable with the benchmark's.
"""
import pytest

from malspi.config import parse_config
from malspi.graphs import dependency_sets
from malspi.linalg import svec_dim
from malspi.lstdq import LstdqOperator, build_regression
from malspi.system import estimation_set, rollout, zero_policy


def _regression_inputs(data: dict, t_rollout: int, est_set=None, owners=None):
    system = parse_config(data).build_system()
    policy = zero_policy(system.graphs, system.n_x, system.n_u)
    batch = rollout(system, policy, t_rollout, 1.0, 0)
    agents = tuple(system.graphs.agents)
    return batch, estimation_set(system, est_set or agents, owners or agents), policy, system


def _regression(batch, est_set, policy, system):
    bundle = build_regression(batch, est_set, policy, system)
    op = LstdqOperator(bundle)
    return bundle.d, op.solve_cost()


@pytest.fixture(scope="module")
def full_set():
    data = {"n_agents": 12, "example": "example1", "n_x": 2, "n_u": 2,
            "dynamics": {"a_self": [[0.85, 0.01], [0.01, 0.85]]}}
    return _regression_inputs(data, svec_dim(4 * 12) + 50)


@pytest.fixture(scope="module")
def criterion7_indirect_set():
    data = {"n_agents": 8, "example": "example1"}
    system = parse_config(data).build_system()
    value_set = dependency_sets(system.graphs).value[1]
    return _regression_inputs(data, svec_dim(6 * 8) + 50, value_set, (1,))


def test_regression_full_set(benchmark, full_set):
    d, q = benchmark(_regression, *full_set)
    assert d == 1176 and q.shape == (d, 12)


def test_regression_criterion7_indirect_set(benchmark, criterion7_indirect_set):
    d, q = benchmark(_regression, *criterion7_indirect_set)
    assert q.shape == (d, 1)
