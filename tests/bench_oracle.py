"""Microbenchmarks of the exact-oracle stability certificate (pytest-benchmark).

The block-structured case is the ``oracle`` benchmark workload's largest
certificate: the leader's 72x72 closed loop in example2 with N=24 agents
and n_x=n_u=3 under the zero policy, 24 identical 3x3 blocks.  The dense
random 72x72 case has one coupling component and is measured whole.  The
file name keeps it out of the default test collection; run it with

    PYTHONPATH=src python -m pytest tests/bench_oracle.py

and pin the BLAS thread count (``OPENBLAS_NUM_THREADS=1``) for numbers
comparable with the benchmark's.
"""
import math

import numpy as np
import pytest

from malspi.config import parse_config
from malspi.graphs import dependency_sets
from malspi.linalg import stability_report
from malspi.system import extract_subsystem, zero_policy

N_AGENTS = 24


@pytest.fixture(scope="module")
def leader_closed_loop():
    system = parse_config({"n_agents": N_AGENTS, "example": "example2"}).build_system()
    deps = dependency_sets(system.graphs)
    policy = zero_policy(system.graphs, system.n_x, system.n_u)
    sub = extract_subsystem(system, policy, deps.direct[1], deps.gradient[1])
    return sub.closed_loop()


def test_stability_report_leader_closed_loop(benchmark, leader_closed_loop):
    assert leader_closed_loop.shape == (3 * N_AGENTS, 3 * N_AGENTS)
    report = benchmark(stability_report, leader_closed_loop)
    assert 0.0 < report.rho < 1.0 and report.tau >= 1.0


def test_stability_report_dense_random(benchmark):
    m = np.random.default_rng(7).normal(size=(72, 72)) / math.sqrt(72)
    report = benchmark(stability_report, m)
    assert report.tau >= 1.0
