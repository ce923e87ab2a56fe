"""Microbenchmarks of the closed-loop simulation kernels (pytest-benchmark).

The sizes are those of the ``full_set`` benchmark workload: example1 with
N=12 agents and the 2x2 criterion-6 plant, a T=1226 exploration rollout
and a T=500 evaluation rollout.  The file name keeps it out of the default
test collection; run it with

    PYTHONPATH=src python -m pytest tests/bench_simulation.py

and pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) for numbers
comparable with the benchmark's.
"""
import pytest

from malspi.config import parse_config
from malspi.linalg import svec_dim
from malspi.system import average_cost, rollout, zero_policy

N_AGENTS = 12
T_ROLLOUT = svec_dim(4 * N_AGENTS) + 50
T_EVAL = 500


@pytest.fixture(scope="module")
def full_set_system():
    config = parse_config({
        "n_agents": N_AGENTS,
        "example": "example1",
        "n_x": 2,
        "n_u": 2,
        "dynamics": {"a_self": [[0.85, 0.01], [0.01, 0.85]]},
    })
    system = config.build_system()
    return system, zero_policy(system.graphs, system.n_x, system.n_u)


def test_rollout_full_set(benchmark, full_set_system):
    system, policy = full_set_system
    batch = benchmark(rollout, system, policy, T_ROLLOUT, 1.0, 0)
    assert batch.length == T_ROLLOUT


def test_average_cost_full_set(benchmark, full_set_system):
    system, policy = full_set_system
    result = benchmark(average_cost, system, policy, T_EVAL, 0)
    assert not result.diverged
