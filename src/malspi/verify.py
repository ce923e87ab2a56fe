"""Brute-force oracles and desk-scale verification checks.

Every structural claim the library relies on is re-derivable here by an
independent route: reachability by boolean matrix powering instead of
traversal, Lyapunov solutions by fixed-point iteration and by the dense
Kronecker-vectorized linear system, Q-function supports by inspecting the
exact global Q matrices, and gradients by central finite differences on the
analytic objective.  The ``verify`` CLI subcommand runs these checks and
prints one pass/fail line each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphs import (
    CouplingGraphs,
    build_coupling_graphs,
    dependency_sets,
    graphical_conditions,
    value_dependency_edges,
)
from .examples import generate_example1, generate_example2
from .linalg import (
    LYAPUNOV_RESIDUAL_GATE,
    lyapunov_residual,
    lyapunov_solve,
    psd_project,
    smat,
    spectral_radius,
    svec,
)
from .lstdq import LstdqOperator, build_regression
from .system import (
    MultiAgentSystem,
    StructuredPolicy,
    build_system,
    bellman_offset,
    bellman_residual,
    extract_subsystem,
    rollout,
    structured_policy_from_blocks,
    true_q_matrix,
    u_coords,
    x_coords,
    z_embedding_indices,
    zero_policy,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# random instances


def random_graphs(
    rng: np.random.Generator,
    n_agents: int,
    edge_prob: float = 0.3,
    *,
    cost_self_loops: bool = False,
) -> CouplingGraphs:
    """Independent random digraphs for the three coupling relations."""

    def sample() -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, n_agents + 1)
            for j in range(1, n_agents + 1)
            if rng.random() < edge_prob
        ]

    edges_c = sample()
    if cost_self_loops:
        edges_c += [(i, i) for i in range(1, n_agents + 1)]
    return build_coupling_graphs(n_agents, sample(), sample(), edges_c)


def random_system(
    rng: np.random.Generator,
    graphs: CouplingGraphs,
    n_x: int,
    n_u: int,
    *,
    sigma_w: float = 1.0,
    spectral_target: float = 0.7,
) -> MultiAgentSystem:
    """Random blocks on the graph sparsity pattern, rescaled to be open-loop stable."""
    n = graphs.n_agents
    a_blocks = {}
    b_blocks = {}
    for i in graphs.agents:
        for j in graphs.state_in_neighbors(i):
            a_blocks[(i, j)] = rng.normal(scale=1.0, size=(n_x, n_x))
            b_blocks[(i, j)] = rng.normal(scale=1.0, size=(n_x, n_u))
    if a_blocks:
        a_probe = np.zeros((n * n_x, n * n_x))
        for (i, j), blk in a_blocks.items():
            a_probe[(i - 1) * n_x : i * n_x, (j - 1) * n_x : j * n_x] = blk
        rho = spectral_radius(a_probe)
        if rho > spectral_target:
            scale = spectral_target / rho
            a_blocks = {k: v * scale for k, v in a_blocks.items()}
    s_blocks = {}
    r_blocks = {}
    for i in graphs.agents:
        k = len(graphs.cost_in_neighbors(i))
        if k == 0:
            s_blocks[i] = np.zeros((0, 0))
            r_blocks[i] = np.zeros((0, 0))
            continue
        c = rng.normal(size=(k * n_x, k * n_x))
        s_blocks[i] = c.T @ c / (k * n_x)
        d = rng.normal(size=(k * n_u, k * n_u))
        r_blocks[i] = d.T @ d / (k * n_u) + 0.5 * np.eye(k * n_u)
    return build_system(graphs, n_x, n_u, a_blocks, b_blocks, s_blocks, r_blocks, sigma_w)


def random_stabilizing_policy(
    rng: np.random.Generator,
    system: MultiAgentSystem,
    *,
    margin: float = 0.95,
    scale: float = 0.3,
) -> StructuredPolicy:
    """Random structured gain shrunk until the closed loop is stable."""
    graphs = system.graphs
    blocks = {
        (i, j): rng.normal(scale=scale, size=(system.n_u, system.n_x))
        for i in graphs.agents
        for j in graphs.observation_in_neighbors(i)
    }
    for _ in range(60):
        policy = structured_policy_from_blocks(graphs, system.n_x, system.n_u, blocks)
        if spectral_radius(system.a + system.b @ policy.gain) < margin:
            return policy
        blocks = {k: 0.5 * v for k, v in blocks.items()}
    return zero_policy(graphs, system.n_x, system.n_u)


def random_stable_matrix(
    rng: np.random.Generator, n: int, rho: float, *, normal: bool
) -> np.ndarray:
    """Random n x n matrix with spectral radius rho.

    Orthogonally similar to a real triangular Schur form with eigenvalues
    in [-rho, rho]; its strict upper part is zero (a normal matrix) or
    Gaussian (a non-normal one, whose powers grow before they decay).
    """
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = rng.uniform(-1.0, 1.0, size=n)
    eig *= rho / np.max(np.abs(eig))
    schur = np.diag(eig)
    if not normal:
        schur += np.triu(rng.normal(scale=0.5, size=(n, n)), 1)
    return q @ schur @ q.T


# ---------------------------------------------------------------------------
# independent oracles


def reachability_closure_oracle(graphs: CouplingGraphs) -> np.ndarray:
    """Boolean reachability matrix over all path lengths, by matrix powering.

    Entry [j-1, i-1] is True when j reaches i in the combined
    state/observation graph or j == i.
    """
    n = graphs.n_agents
    adj = np.eye(n, dtype=bool)
    step = np.zeros((n, n), dtype=bool)
    for a, b in graphs.edges_s | graphs.edges_o:
        step[a - 1, b - 1] = True
    closure = adj.copy()
    power = adj.copy()
    for _ in range(n):
        power = power @ step
        closure |= power
    return closure


def value_set_oracle(graphs: CouplingGraphs, i: int) -> tuple[int, ...]:
    closure = reachability_closure_oracle(graphs)
    members: set[int] = set()
    for k in graphs.cost_in_neighbors(i):
        members |= {j + 1 for j in np.flatnonzero(closure[:, k - 1])}
    return tuple(sorted(members))


def lyapunov_iteration_oracle(x: np.ndarray, y: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
    p = np.zeros_like(y)
    for _ in range(100_000):
        nxt = x @ p @ x.T + y
        if np.max(np.abs(nxt - p)) < tol:
            return nxt
        p = nxt
    return p


def lyapunov_kronecker_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve P = X P X^T + Y as the linear system (I - X kron X) vec(P) = vec(Y).

    One dense LU factorization of an n^2 x n^2 matrix: O(n^4) memory and
    O(n^6) time, so desk-scale dimensions only.
    """
    xm = np.asarray(x, dtype=float)
    ym = np.asarray(y, dtype=float)
    ym = 0.5 * (ym + ym.T)
    n = xm.shape[0]
    sol = np.linalg.solve(np.eye(n * n) - np.kron(xm, xm), ym.reshape(-1))
    p = sol.reshape(n, n)
    return 0.5 * (p + p.T)


def analytic_average_cost(system: MultiAgentSystem, gain: np.ndarray) -> float:
    """Stationary averaged cost tr(Sigma (S + K'RK)) under process noise."""
    closed = system.a + system.b @ gain
    cov = lyapunov_solve(closed, system.sigma_w**2 * np.eye(system.nx_total))
    return float(np.trace(cov @ (system.s + gain.T @ system.r @ gain)))


def analytic_owner_gradient(
    system: MultiAgentSystem, gain: np.ndarray, owner: int
) -> np.ndarray:
    """Gradient of owner's unaveraged stationary cost with respect to the full gain."""
    closed = system.a + system.b @ gain
    cov = lyapunov_solve(closed, system.sigma_w**2 * np.eye(system.nx_total))
    nx = system.nx_total
    s_emb = np.zeros((nx, nx))
    r_emb = np.zeros((system.nu_total, system.nu_total))
    owners = system.graphs.cost_in_neighbors(owner)
    if owners:
        xs = x_coords(owners, system.n_x)
        us = u_coords(owners, system.n_u)
        s_emb[np.ix_(xs, xs)] = system.s_blocks[owner]
        r_emb[np.ix_(us, us)] = system.r_blocks[owner]
    p = lyapunov_solve(closed.T, s_emb + gain.T @ r_emb @ gain)
    return 2.0 * ((r_emb + system.b.T @ p @ system.b) @ gain + system.b.T @ p @ system.a) @ cov


def decomposed_policy_gradient(
    system: MultiAgentSystem, policy: StructuredPolicy, agent: int
) -> np.ndarray:
    """Gradient of the averaged objective w.r.t. agent's observed blocks,
    assembled from its gradient-dependence owners only."""
    deps = dependency_sets(system.graphs)
    total = np.zeros_like(policy.gain)
    for j in deps.gradient[agent]:
        total += analytic_owner_gradient(system, policy.gain, j)
    total /= system.n_agents
    rows = u_coords((agent,), system.n_u)
    cols = x_coords(system.graphs.observation_in_neighbors(agent), system.n_x)
    return total[np.ix_(rows, cols)]


def finite_difference_policy_gradient(
    system: MultiAgentSystem, policy: StructuredPolicy, agent: int, *, step: float = 1e-6
) -> np.ndarray:
    """Central finite differences of the analytic averaged objective in agent's blocks."""
    observed = system.graphs.observation_in_neighbors(agent)
    base = policy.row_gain(agent)
    grad = np.zeros_like(base)
    for r in range(base.shape[0]):
        for c in range(base.shape[1]):
            plus = base.copy()
            plus[r, c] += step
            minus = base.copy()
            minus[r, c] -= step
            j_plus = analytic_average_cost(system, policy.with_row_gains({agent: plus}).gain)
            j_minus = analytic_average_cost(system, policy.with_row_gains({agent: minus}).gain)
            grad[r, c] = (j_plus - j_minus) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# checks


def check_svec_isometry(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        v = svec(m)
        worst = max(worst, abs(float(v @ v) - np.linalg.norm(m, "fro") ** 2))
        worst = max(worst, float(np.max(np.abs(smat(v) - m))))
    return CheckResult("svec/smat isometry and round-trip", worst < 1e-10, f"worst error {worst:.3g}")


def check_lyapunov_oracle(seed: int = 0) -> CheckResult:
    """``lyapunov_solve`` against fixed-point iteration and the Kronecker solve.

    The iteration comparison uses generic X at spectral radius 0.8.  The
    Kronecker stress set covers normal and non-normal X with 1 <= n <= 11
    at spectral radius 0.9, 0.99 and 0.999; every case whose Kronecker
    solution passes the residual gate must also be solved by
    ``lyapunov_solve``, to 1e-8 relative to the solution's largest entry.
    """
    rng = np.random.default_rng(seed)
    worst_iter = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(n, n))
        x *= 0.8 / max(spectral_radius(x), 1e-9)
        y = rng.normal(size=(n, n))
        y = y.T @ y
        worst_iter = max(
            worst_iter,
            float(np.max(np.abs(lyapunov_solve(x, y) - lyapunov_iteration_oracle(x, y)))),
        )
    worst_kron = 0.0
    compared = 0
    skipped = 0
    unsolved = 0
    for rho in (0.9, 0.99, 0.999):
        for normal in (True, False):
            for _ in range(8):
                n = int(rng.integers(1, 12))
                x = random_stable_matrix(rng, n, rho, normal=normal)
                c = rng.normal(size=(n, n))
                y = c @ c.T
                reference = lyapunov_kronecker_oracle(x, y)
                if lyapunov_residual(x, y, reference) > LYAPUNOV_RESIDUAL_GATE:
                    skipped += 1
                    continue
                compared += 1
                try:
                    p = lyapunov_solve(x, y)
                except RuntimeError:
                    unsolved += 1
                    continue
                scale = max(1.0, float(np.max(np.abs(reference))))
                worst_kron = max(worst_kron, float(np.max(np.abs(p - reference))) / scale)
    passed = worst_iter < 1e-8 and worst_kron < 1e-8 and unsolved == 0
    return CheckResult(
        "Lyapunov solve vs fixed-point iteration and Kronecker solve",
        passed,
        f"iteration gap {worst_iter:.3g}; Kronecker rel gap {worst_kron:.3g} over "
        f"{compared} cases, {unsolved} unsolved, {skipped} beyond the oracle's own gate",
    )


def check_graph_suite(seed: int = 0, n_graphs: int = 60) -> CheckResult:
    rng = np.random.default_rng(seed)
    for trial in range(n_graphs):
        n = int(rng.integers(2, 9))
        graphs = random_graphs(rng, n, edge_prob=float(rng.uniform(0.05, 0.5)))
        deps = dependency_sets(graphs)
        closure = reachability_closure_oracle(graphs)
        for i in graphs.agents:
            oracle_reach = tuple(sorted(j + 1 for j in np.flatnonzero(closure[:, i - 1])))
            if deps.reach[i] != oracle_reach:
                return CheckResult("graph dependency suite", False, f"reach mismatch at {i}")
            if i not in deps.reach[i]:
                return CheckResult("graph dependency suite", False, f"self-inclusion fails at {i}")
            if deps.value[i] != value_set_oracle(graphs, i):
                return CheckResult("graph dependency suite", False, f"value mismatch at {i}")
            for j in deps.value[i]:
                if not set(deps.reach[j]) <= set(deps.value[i]):
                    return CheckResult("graph dependency suite", False, f"closure fails at ({i},{j})")
            for j in graphs.agents:
                if (j in deps.gradient[i]) != (i in deps.value[j]):
                    return CheckResult("graph dependency suite", False, f"duality fails at ({i},{j})")
        for i, report in graphical_conditions(graphs).items():
            if report.cond_a != report.direct_set_proper:
                return CheckResult(
                    "graph dependency suite", False, f"condition (a) mismatch at agent {i}"
                )
            for j, (cond_b, strict) in report.partners.items():
                if cond_b != strict:
                    return CheckResult(
                        "graph dependency suite", False, f"condition (b) mismatch at ({i},{j})"
                    )
    return CheckResult("graph dependency suite", True, f"{n_graphs} random graphs")


def check_example_structure(ns: Sequence[int] = (8, 20)) -> CheckResult:
    """Value graphs and set-size gaps of the two benchmark layouts.

    Example 1 (ring) at every N in ``ns``: E_Q = E_O and a direct-minus-value
    gap of 4.  Example 2 (leader-follower) at N = 8: E_Q = E_C and the
    leader's direct set is the whole team.
    """
    for n in ns:
        g1 = generate_example1(n)
        if value_dependency_edges(g1) != g1.edges_o:
            return CheckResult("example structure", False, f"example 1 N={n}: E_Q != E_O")
        deps = dependency_sets(g1)
        gap = max(len(deps.direct[i]) - len(deps.value[i]) for i in g1.agents)
        if gap != 4:
            return CheckResult("example structure", False, f"example 1 N={n}: gap {gap} != 4")
    g2 = generate_example2(8)
    if value_dependency_edges(g2) != g2.edges_c:
        return CheckResult("example structure", False, "example 2: E_Q != E_C")
    deps2 = dependency_sets(g2)
    if deps2.direct[1] != tuple(range(1, 9)):
        return CheckResult("example structure", False, "example 2: leader direct set not full")
    return CheckResult("example structure", True, "ring and leader-follower layouts")


Instance = tuple[MultiAgentSystem, StructuredPolicy]


def _random_closed_loop(seed: int, max_agents: int = 6, max_dim: int = 2) -> Instance:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_agents + 1))
    n_x = int(rng.integers(1, max_dim + 1))
    n_u = int(rng.integers(1, max_dim + 1))
    graphs = random_graphs(rng, n, edge_prob=0.3, cost_self_loops=True)
    system = random_system(rng, graphs, n_x, n_u)
    policy = random_stabilizing_policy(rng, system)
    return system, policy


def check_value_decomposition(
    instances: Optional[Iterable[Instance]] = None, tol: float = 1e-9
) -> CheckResult:
    """Exact per-owner Q supports, sum and restriction on (system, policy) instances.

    Owner i's global Q vanishes outside its value set, equals its Q on the
    value set there, and the owners' Qs average to the global Q.
    ``instances`` defaults to ten random closed loops.
    """
    if instances is None:
        instances = (_random_closed_loop(trial) for trial in range(10))
    worst_outside = 0.0
    worst_sum = 0.0
    worst_restrict = 0.0
    count = 0
    for system, policy in instances:
        count += 1
        graphs = system.graphs
        deps = dependency_sets(graphs)
        everyone = tuple(graphs.agents)
        q_total = np.zeros(((system.n_x + system.n_u) * graphs.n_agents,) * 2)
        for i in graphs.agents:
            sub_global = extract_subsystem(system, policy, everyone, cost_owners=(i,))
            q_i = true_q_matrix(sub_global)
            q_total += q_i
            inside = z_embedding_indices(deps.value[i], everyone, system.n_x, system.n_u)
            mask = np.ones(q_i.shape[0], dtype=bool)
            mask[inside] = False
            worst_outside = max(worst_outside, float(np.max(np.abs(q_i[mask, :]), initial=0.0)))
            worst_outside = max(worst_outside, float(np.max(np.abs(q_i[:, mask]), initial=0.0)))
            if deps.value[i]:
                sub_small = extract_subsystem(system, policy, deps.value[i], cost_owners=(i,))
                q_small = true_q_matrix(sub_small)
                worst_restrict = max(
                    worst_restrict,
                    float(np.max(np.abs(q_small - q_i[np.ix_(inside, inside)]))),
                )
        q_avg = true_q_matrix(
            extract_subsystem(system, policy, everyone, cost_owners=everyone, average=True)
        )
        worst_sum = max(worst_sum, float(np.max(np.abs(q_total / graphs.n_agents - q_avg))))
    passed = max(worst_outside, worst_sum, worst_restrict) < tol
    return CheckResult(
        "value decomposition (support, consistency, restriction)",
        passed,
        f"support leak {worst_outside:.2e}, sum defect {worst_sum:.2e}, "
        f"restriction defect {worst_restrict:.2e}, {count} systems",
    )


def random_points(rng: np.random.Generator, system: MultiAgentSystem, n_points: int) -> Iterator:
    """Standard normal global (x, u) pairs, each drawn when it is consumed."""
    for _ in range(n_points):
        yield rng.normal(size=system.nx_total), rng.normal(size=system.nu_total)


def check_bellman_residual(cases: Optional[Iterable] = None) -> CheckResult:
    """Fixed-point residual of the exact team Q on (system, policy, points) cases.

    ``cases`` defaults to five random closed loops with 50 points each.
    """
    if cases is None:
        rng = np.random.default_rng(999)
        cases = (
            (system, policy, random_points(rng, system, 50))
            for system, policy in (_random_closed_loop(trial) for trial in range(5))
        )
    worst = 0.0
    for system, policy, points in cases:
        everyone = tuple(system.graphs.agents)
        sub = extract_subsystem(system, policy, everyone, cost_owners=everyone)
        q = true_q_matrix(sub)
        lam = bellman_offset(sub, q)
        for x, u in points:
            worst = max(worst, abs(bellman_residual(sub, q, lam, x, u)))
    return CheckResult("fixed-point residual of the exact Q", worst < 1e-9, f"worst {worst:.2e}")


def check_noise_free_lstdq(cases: Optional[Iterable] = None) -> CheckResult:
    """Exact LSTDQ recovery on every direct set of (system, eval policy, batch) cases.

    The systems carry no process noise.  ``cases`` defaults to one
    four-agent ring played by the zero policy.
    """
    if cases is None:
        rng = np.random.default_rng(0)
        graphs = generate_example1(4)
        system = build_noise_free_variant(random_system(rng, graphs, 1, 1, sigma_w=1.0))
        policy = random_stabilizing_policy(rng, system)
        play = zero_policy(graphs, 1, 1)
        cases = [(system, policy, rollout(system, play, 400, 1.0, rng.integers(2**32)))]
    worst = 0.0
    for system, policy, batch in cases:
        deps = dependency_sets(system.graphs)
        for i in system.graphs.agents:
            owners = deps.gradient[i]
            bundle = build_regression(batch, deps.direct[i], policy, owners, system)
            estimate = smat(LstdqOperator(bundle).solve_cost(bundle.c_hat))
            sub = extract_subsystem(system, policy, deps.direct[i], cost_owners=owners)
            worst = max(worst, float(np.max(np.abs(estimate - true_q_matrix(sub)))))
    return CheckResult("noise-free LSTDQ exactness", worst < 1e-6, f"worst {worst:.2e}")


def build_noise_free_variant(system: MultiAgentSystem) -> MultiAgentSystem:
    """Same system with the process noise removed."""
    return build_system(
        system.graphs,
        system.n_x,
        system.n_u,
        dict(system.a_blocks),
        dict(system.b_blocks),
        dict(system.s_blocks),
        dict(system.r_blocks),
        0.0,
    )


def check_psd_projection(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        zeta = float(rng.uniform(0.0, 0.5))
        out = psd_project(m, zeta)
        eigvals, eigvecs = np.linalg.eigh(m)
        oracle = (eigvecs * np.maximum(eigvals, zeta)) @ eigvecs.T
        worst = max(worst, float(np.max(np.abs(out - oracle))))
        worst = max(worst, max(0.0, zeta - float(np.linalg.eigvalsh(out).min())))
        worst = max(worst, float(np.max(np.abs(psd_project(out, zeta) - out))))
    return CheckResult("eigenvalue-floor projection oracle", worst < 1e-9, f"worst {worst:.2e}")


def check_gradient_decomposition(
    instances: Optional[Iterable[Instance]] = None, rtol: float = 1e-4
) -> CheckResult:
    """Decomposed analytic gradients against finite differences of the objective.

    Every agent that observes someone is checked, relative to the
    finite-difference gradient's norm.  ``instances`` defaults to three
    random closed loops of at most four agents.
    """
    if instances is None:
        instances = (
            _random_closed_loop(17 * trial, max_agents=4, max_dim=2) for trial in range(3)
        )
    worst = 0.0
    checked = 0
    for system, policy in instances:
        for i in system.graphs.agents:
            if not system.graphs.observation_in_neighbors(i):
                continue
            fd = finite_difference_policy_gradient(system, policy, i)
            dec = decomposed_policy_gradient(system, policy, i)
            scale = max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, float(np.linalg.norm(fd - dec)) / scale)
            checked += 1
    return CheckResult(
        "gradient decomposition vs finite differences",
        worst < rtol,
        f"worst relative gradient error {worst:.2e} over {checked} agents",
    )


ALL_CHECKS: Sequence[Callable[[], CheckResult]] = (
    check_svec_isometry,
    check_lyapunov_oracle,
    check_graph_suite,
    check_example_structure,
    check_value_decomposition,
    check_bellman_residual,
    check_noise_free_lstdq,
    check_psd_projection,
    check_gradient_decomposition,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
