"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Exact structural claims are checked at tight tolerances against brute-force
oracles; the learning-curve and timing criteria are qualitative replications
(orderings and trends, never absolute costs or absolute times).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The learning-curve criterion runs the two 8-agent benchmark
topologies end to end (20 seeds, four architecture names each) and is the slow
part of the suite.
"""
import math
import time

import numpy as np

from malspi.config import parse_config
from malspi.examples import build_example_system, generate_example1
from malspi.graphs import dependency_sets
from malspi.linalg import svec
from malspi.lstdq import LstdqOperator, build_regression
from malspi.policy_iteration import Architecture, MalspiConfig, run_malspi
from malspi.runner import run_experiment, timing_benchmark
from malspi.system import extract_subsystem, rollout, true_q_matrix, zero_policy
from malspi.verify import (
    build_noise_free_variant,
    check_bellman_residual,
    check_example_structure,
    check_gradient_decomposition,
    check_graph_suite,
    check_noise_free_lstdq,
    check_value_decomposition,
    random_graphs,
    random_points,
    random_stabilizing_policy,
    random_system,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def _random_instance(rng, max_agents, max_dim):
    n = int(rng.integers(2, max_agents + 1))
    dim = int(rng.integers(1, max_dim + 1))
    graphs = random_graphs(rng, n, edge_prob=float(rng.uniform(0.15, 0.45)),
                           cost_self_loops=True)
    system = random_system(rng, graphs, dim, dim)
    policy = random_stabilizing_policy(rng, system)
    return system, policy


def test_criterion_1_value_decomposition_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    result = check_value_decomposition(
        (_random_instance(rng, max_agents=6, max_dim=2) for _ in range(50)), tol=1e-9
    )
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 60.0
    report(1, ok, f"{result.detail} in {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_2_gradient_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    result = check_gradient_decomposition(
        (_random_instance(rng, max_agents=4, max_dim=2) for _ in range(20)), rtol=1e-4
    )
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 120.0
    report(2, ok, f"{result.detail} in {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 120.0


def test_criterion_3_fixed_point_residual():
    rng = np.random.default_rng(303)

    def cases():
        # each instance's points are drawn from the shared rng before the next instance
        for _ in range(20):
            system, policy = _random_instance(rng, max_agents=6, max_dim=2)
            yield system, policy, random_points(rng, system, 100)

    result = check_bellman_residual(cases())
    worst = result.detail.removeprefix("worst ")
    report(3, result.passed, f"worst residual {worst} over 20 systems x 100 points")
    assert result.passed, result.detail


def test_criterion_4_lstdq_exactness_and_rate():
    start = time.perf_counter()
    # exact recovery without process noise
    rng = np.random.default_rng(404)
    g4 = generate_example1(4)
    clean = build_noise_free_variant(random_system(rng, g4, 1, 1))
    eval_policy = random_stabilizing_policy(rng, clean)
    batch = rollout(clean, zero_policy(g4, 1, 1), 500, 1.0, seed=405)
    exact = check_noise_free_lstdq([(clean, eval_policy, batch)])

    # inverse-sqrt error rate with unit process and exploration noise
    g2 = generate_example1(2)
    system = build_example_system(g2, n_x=1, n_u=1, sigma_w=1.0)
    policy = zero_policy(g2, 1, 1)
    deps2 = dependency_sets(g2)
    agent_set = deps2.direct[1]
    owners = deps2.gradient[1]
    q_true = svec(true_q_matrix(extract_subsystem(system, policy, agent_set,
                                                  cost_owners=owners)))
    t_grid = (500, 2000, 8000, 32000)
    medians = []
    for t_len in t_grid:
        errors = []
        for seed in range(20):
            roll = rollout(system, policy, t_len, 1.0, seed=10_000 + 31 * seed + t_len)
            bundle = build_regression(roll, agent_set, policy, owners, system)
            q = LstdqOperator(bundle).solve_cost(bundle.c_hat)
            errors.append(float(np.linalg.norm(q - q_true)))
        medians.append(float(np.median(errors)))
    slope = float(np.polyfit(np.log(t_grid), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - start
    ok = exact.passed and abs(slope + 0.5) <= 0.15 and elapsed < 600.0
    report(4, ok, f"noise-free error {exact.detail.removeprefix('worst ')}, error-rate slope "
                  f"{slope:.3f} (target -0.5 +/- 0.15) in {elapsed:.1f}s")
    assert exact.passed, exact.detail
    assert abs(slope + 0.5) <= 0.15
    assert elapsed < 600.0


def test_criterion_5_graph_suite():
    start = time.perf_counter()
    suite = check_graph_suite(seed=505, n_graphs=200)
    layouts = check_example_structure(ns=(8, 20, 40))
    elapsed = time.perf_counter() - start
    ok = suite.passed and layouts.passed and elapsed < 60.0
    report(5, ok, f"200 random graphs plus benchmark layouts in {elapsed:.1f}s")
    assert suite.passed, suite.detail
    assert layouts.passed, layouts.detail
    assert elapsed < 60.0


BENCH_DYNAMICS = {"a_self": [[0.85, 0.01], [0.01, 0.85]]}


def _benchmark_config(example: str) -> dict:
    return {
        "n_agents": 8,
        "example": example,
        "n_x": 2,
        "n_u": 2,
        "dynamics": dict(BENCH_DYNAMICS),
        "sigma_w": 1.0,
        "sigma_eta": 1.0,
        "t_rollout": 500,
        "t_eval": 500,
        "n_iterations": 20,
        "alpha": 4e-7,
        "zeta": 1e-6,
        "seeds": list(range(20)),
        "architectures": ["indirect", "direct", "undecomposed_direct", "centralized"],
    }


def test_criterion_6_learning_curve_replication(tmp_path):
    start = time.perf_counter()
    results = {}
    for example in ("example1", "example2"):
        config = parse_config(_benchmark_config(example))
        results[example] = run_experiment(config, tmp_path / example)

    orderings_ok = True
    details = []
    gaps = {}
    for example, table in results.items():
        finals = {
            arch: float(np.mean(table.final_costs(arch)))
            for arch in ("indirect", "direct", "undecomposed_direct", "centralized")
        }
        last = max(r.iteration for r in table.curves)
        ordered = (
            finals["indirect"] <= finals["direct"]
            <= min(finals["undecomposed_direct"], finals["centralized"])
        )
        finite = math.isfinite(finals["indirect"]) and math.isfinite(finals["direct"])
        orderings_ok = orderings_ok and ordered and finite
        gaps[example] = table.mean_cost_at("direct", 5) - table.mean_cost_at("indirect", 5)
        details.append(
            f"{example}: ind {finals['indirect']:.0f} <= dir {finals['direct']:.0f} "
            f"<= min(und {finals['undecomposed_direct']:.0f}, "
            f"cen {finals['centralized']:.0f}) at iter {last}"
        )
    gap_ok = gaps["example2"] > gaps["example1"]
    elapsed = time.perf_counter() - start
    ok = orderings_ok and gap_ok and elapsed < 1800.0
    report(6, ok, "; ".join(details) + f"; iter-5 gaps ex1 {gaps['example1']:.0f} "
                  f"< ex2 {gaps['example2']:.0f}; {elapsed:.0f}s")
    assert orderings_ok
    assert gap_ok
    assert elapsed < 1800.0


def test_criterion_7_timing_trends():
    base = parse_config(
        {
            "n_agents": 8,
            "example": "example1",
            "t_rollout": 500,
            "t_eval": 100,
            "seeds": [0],
            "architectures": ["indirect"],
        }
    )
    # full-dimension vs decomposed evaluation cost; rollout length raised so
    # the full-set regression is determined and actually solved
    ratio_cells = timing_benchmark(
        base, [8, 20], architectures=["centralized", "indirect"],
        warmup=1, measured=2, t_mode="auto", centralized_max_n=20,
    )
    times = {(c.architecture, c.n_agents): c.mean_iteration_s for c in ratio_cells}
    ratio8 = times[("centralized", 8)] / times[("indirect", 8)]
    ratio20 = times[("centralized", 20)] / times[("indirect", 20)]

    growth_cells = timing_benchmark(
        base, [8, 20, 40], architectures=["direct", "indirect"],
        warmup=1, measured=2, t_mode="fixed",
    )
    gtimes = {(c.architecture, c.n_agents): c.mean_iteration_s for c in growth_cells}
    sub_exponential = {}
    for arch in ("direct", "indirect"):
        r1 = gtimes[(arch, 20)] / gtimes[(arch, 8)]
        r2 = gtimes[(arch, 40)] / gtimes[(arch, 20)]
        # exponential growth would continue as r2 = r1**(20/12)
        sub_exponential[arch] = (r1, r2, r2 < r1 ** (20.0 / 12.0))

    ok = (
        ratio8 >= 5.0
        and ratio20 > ratio8
        and all(v[2] for v in sub_exponential.values())
    )
    detail = (
        f"centralized/indirect ratio {ratio8:.1f} at N=8, {ratio20:.1f} at N=20; "
        + "; ".join(
            f"{arch} growth ratios {v[0]:.2f} then {v[1]:.2f} (exp. bound {v[0] ** (20/12):.2f})"
            for arch, v in sub_exponential.items()
        )
        + "; frozen updates / diverged evals over measured iterations: "
        + ", ".join(
            f"{c.architecture} N={c.n_agents} (T={c.t_rollout}) "
            f"{c.frozen_updates}/{c.diverged_evals}"
            for c in (*ratio_cells, *growth_cells)
        )
    )
    report(7, ok, detail)
    assert ratio8 >= 5.0
    assert ratio20 > ratio8
    for arch, (r1, r2, good) in sub_exponential.items():
        assert good, f"{arch} per-iteration time grows at least exponentially: {r1} -> {r2}"


def test_criterion_8_architecture_collapse():
    g = generate_example1(3)
    system = build_example_system(g, n_x=1, n_u=1)
    cfg = MalspiConfig(n_iterations=4, t_rollout=150, t_eval=60, sigma_eta=1.0,
                       alpha=1e-6, zeta=1e-6, seed=808, force_full_sets=True)
    runs = {arch: run_malspi(system, arch, cfg) for arch in Architecture}
    reference = runs[Architecture.DIRECT]
    identical = True
    for records in runs.values():
        for got, want in zip(records, reference):
            identical = identical and got.gain.tobytes() == want.gain.tobytes()
            identical = identical and got.eval_cost == want.eval_cost
    report(8, identical, "every architecture bitwise identical with full index sets")
    assert identical
