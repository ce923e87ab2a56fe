"""Block-structured multi-agent linear systems and exact LQR machinery.

A system of N agents, each with an n_x-dimensional state and n_u-dimensional
control, evolves as

    x_i(t+1) = sum_j A_ij x_j(t) + sum_j B_ij u_j(t) + w_i(t)

with the sums running over agent i's state in-neighbors and Gaussian process
noise of standard deviation sigma_w per coordinate.  Agent i pays the stage
cost x_C' S_i x_C + u_C' R_i u_C over the coordinates of its cost
in-neighbors, and the global cost averages the per-agent costs.  Control is
a static structured gain: agent i applies K_i to the stacked states of its
observation in-neighbors.

``extract_subsystem`` restricts everything to an agent subset.  When the
subset is closed under the state/observation reachability relation, the
restriction is exact: the subsystem reproduces the corresponding coordinates
of the global trajectory under identical noise.  ``true_q_matrix`` builds
the exact quadratic Q-function of a (sub)system in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np
import scipy.linalg

from .graphs import CouplingGraphs, GraphValidationError, missing_closure_agent
from .linalg import InstabilityError, lyapunov_solve, spectral_radius

AgentSet = tuple[int, ...]


class ClosureError(ValueError):
    """Raised when exact extraction is requested on a non-closed agent set."""


def x_coords(agent_set: Iterable[int], n_x: int) -> np.ndarray:
    """Global state-vector coordinates of the agents in the set (sorted order)."""
    agents = sorted(agent_set)
    if not agents:
        return np.zeros(0, dtype=int)
    return np.concatenate([(a - 1) * n_x + np.arange(n_x) for a in agents])


def u_coords(agent_set: Iterable[int], n_u: int) -> np.ndarray:
    """Global control-vector coordinates of the agents in the set (sorted order)."""
    agents = sorted(agent_set)
    if not agents:
        return np.zeros(0, dtype=int)
    return np.concatenate([(a - 1) * n_u + np.arange(n_u) for a in agents])


def z_embedding_indices(
    small_set: Iterable[int], big_set: Iterable[int], n_x: int, n_u: int
) -> np.ndarray:
    """Positions of the small set's stacked (x, u) coordinates inside the big set's.

    Both stacked vectors are laid out as [x of all agents; u of all agents],
    agents in ascending order.  Raises ValueError when the small set is not
    contained in the big set.
    """
    small = sorted(small_set)
    big = sorted(big_set)
    pos = {a: k for k, a in enumerate(big)}
    missing = [a for a in small if a not in pos]
    if missing:
        raise ValueError(f"agents {missing} not contained in target set {big}")
    nxb = len(big) * n_x
    xs = [pos[a] * n_x + d for a in small for d in range(n_x)]
    us = [nxb + pos[a] * n_u + d for a in small for d in range(n_u)]
    return np.array(xs + us, dtype=int)


def embed_quadratic(
    q_small: np.ndarray, small_set: Iterable[int], big_set: Iterable[int], n_x: int, n_u: int
) -> np.ndarray:
    """Zero-pad a quadratic form on the small set's (x, u) coordinates to the big set's."""
    idx = z_embedding_indices(small_set, big_set, n_x, n_u)
    m_big = (n_x + n_u) * len(set(big_set))
    out = np.zeros((m_big, m_big))
    out[np.ix_(idx, idx)] = q_small
    return out


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StructuredPolicy:
    """Static linear gain with sparsity constrained by the observation graph.

    ``blocks[(i, j)]`` is the n_u x n_x gain applied by agent i to agent j's
    state, present only for j among agent i's observation in-neighbors.
    ``gain`` is the assembled global matrix with zeros elsewhere.
    """

    graphs: CouplingGraphs
    n_x: int
    n_u: int
    blocks: Mapping[tuple[int, int], np.ndarray]
    gain: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.graphs.n_agents

    def row_gain(self, i: int) -> np.ndarray:
        """Agent i's gain over its sorted observation in-neighbors, n_u x n_x*|I_O|."""
        neighbors = self.graphs.observation_in_neighbors(i)
        if not neighbors:
            return np.zeros((self.n_u, 0))
        return np.hstack([np.asarray(self.blocks[(i, j)]) for j in neighbors])

    def with_row_gains(self, rows: Mapping[int, np.ndarray]) -> "StructuredPolicy":
        """New policy with each listed agent's observation blocks replaced.

        ``rows[i]`` is laid out as ``row_gain(i)`` returns it; agents not
        listed keep their blocks.  The policy is assembled once.
        """
        blocks = dict(self.blocks)
        for i, row in rows.items():
            neighbors = self.graphs.observation_in_neighbors(i)
            row = np.asarray(row, dtype=float)
            expected = (self.n_u, self.n_x * len(neighbors))
            if row.shape != expected:
                raise ValueError(
                    f"row gain for agent {i} must have shape {expected}, got {row.shape}"
                )
            for k, j in enumerate(neighbors):
                blocks[(i, j)] = row[:, k * self.n_x : (k + 1) * self.n_x]
        return structured_policy_from_blocks(self.graphs, self.n_x, self.n_u, blocks)


def structured_policy_from_blocks(
    graphs: CouplingGraphs,
    n_x: int,
    n_u: int,
    blocks: Mapping[tuple[int, int], np.ndarray],
) -> StructuredPolicy:
    """Assemble a StructuredPolicy, validating block keys against the observation graph."""
    n = graphs.n_agents
    gain = np.zeros((n * n_u, n * n_x))
    clean: dict[tuple[int, int], np.ndarray] = {}
    for (i, j), block in blocks.items():
        if (j, i) not in graphs.edges_o:
            raise GraphValidationError(
                f"gain block ({i}, {j}) violates the observation graph: "
                f"agent {j} is not observed by agent {i}"
            )
        arr = np.asarray(block, dtype=float)
        if arr.shape != (n_u, n_x):
            raise ValueError(f"gain block ({i}, {j}) must be {n_u}x{n_x}, got {arr.shape}")
        clean[(i, j)] = _as_readonly(arr)
        gain[(i - 1) * n_u : i * n_u, (j - 1) * n_x : j * n_x] = arr
    return StructuredPolicy(graphs=graphs, n_x=n_x, n_u=n_u, blocks=clean, gain=_as_readonly(gain))


def zero_policy(graphs: CouplingGraphs, n_x: int, n_u: int) -> StructuredPolicy:
    """All-zero structured gain (blocks present for every observation edge)."""
    blocks = {
        (i, j): np.zeros((n_u, n_x))
        for i in graphs.agents
        for j in graphs.observation_in_neighbors(i)
    }
    return structured_policy_from_blocks(graphs, n_x, n_u, blocks)


def policy_from_global_gain(
    graphs: CouplingGraphs, n_x: int, n_u: int, gain: np.ndarray, *, atol: float = 0.0
) -> StructuredPolicy:
    """Split a global gain into structured blocks, checking forbidden entries.

    Entries outside the observation pattern larger than ``atol`` raise.
    """
    gain = np.asarray(gain, dtype=float)
    n = graphs.n_agents
    if gain.shape != (n * n_u, n * n_x):
        raise ValueError(f"global gain must be {n * n_u}x{n * n_x}, got {gain.shape}")
    blocks = {}
    for i in graphs.agents:
        observed = set(graphs.observation_in_neighbors(i))
        for j in graphs.agents:
            block = gain[(i - 1) * n_u : i * n_u, (j - 1) * n_x : j * n_x]
            if j in observed:
                blocks[(i, j)] = block
            elif np.max(np.abs(block), initial=0.0) > atol:
                raise GraphValidationError(
                    f"global gain has nonzero block ({i}, {j}) outside the observation graph"
                )
    return structured_policy_from_blocks(graphs, n_x, n_u, blocks)


@dataclass(frozen=True)
class MultiAgentSystem:
    """Block-structured global dynamics and costs of N coupled agents.

    ``a_blocks[(i, j)]`` / ``b_blocks[(i, j)]`` give agent j's influence on
    agent i's next state; keys are restricted to the state graph.  Cost
    blocks ``s_blocks[i]`` / ``r_blocks[i]`` act on the stacked coordinates
    of agent i's sorted cost in-neighbors.  ``s`` and ``r`` are the global
    cost matrices with the 1/N averaging folded in; per-agent stage costs
    remain unaveraged.
    """

    graphs: CouplingGraphs
    n_x: int
    n_u: int
    a_blocks: Mapping[tuple[int, int], np.ndarray]
    b_blocks: Mapping[tuple[int, int], np.ndarray]
    s_blocks: Mapping[int, np.ndarray]
    r_blocks: Mapping[int, np.ndarray]
    sigma_w: float
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    r: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.graphs.n_agents

    @property
    def nx_total(self) -> int:
        return self.n_agents * self.n_x

    @property
    def nu_total(self) -> int:
        return self.n_agents * self.n_u


def _check_psd(name: str, mat: np.ndarray, *, strict: bool) -> None:
    if mat.size == 0:
        if strict:
            raise ValueError(f"{name} is empty but must be positive definite")
        return
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if strict:
        if eigs.min() <= 1e-12 * scale:
            raise ValueError(f"{name} must be positive definite (min eig {eigs.min():.3g})")
    elif eigs.min() < -1e-9 * scale:
        raise ValueError(f"{name} must be positive semi-definite (min eig {eigs.min():.3g})")


def build_system(
    graphs: CouplingGraphs,
    n_x: int,
    n_u: int,
    a_blocks: Mapping[tuple[int, int], np.ndarray],
    b_blocks: Mapping[tuple[int, int], np.ndarray],
    s_blocks: Mapping[int, np.ndarray],
    r_blocks: Mapping[int, np.ndarray],
    sigma_w: float,
) -> MultiAgentSystem:
    """Validate blocks against the coupling graphs and assemble global matrices.

    Missing dynamics blocks default to zero; blocks outside the state graph
    raise.  Per-agent S must be positive semi-definite and R positive
    definite; the assembled global R must also be positive definite, which
    requires every agent's control to enter at least one cost.
    """
    n = graphs.n_agents
    if n_x < 1 or n_u < 1:
        raise ValueError("per-agent state and control dimensions must be positive")
    if not sigma_w >= 0.0:
        raise ValueError(f"sigma_w must be nonnegative, got {sigma_w}")

    a_global = np.zeros((n * n_x, n * n_x))
    b_global = np.zeros((n * n_x, n * n_u))
    clean_a: dict[tuple[int, int], np.ndarray] = {}
    clean_b: dict[tuple[int, int], np.ndarray] = {}
    for (blocks, clean, cols, label) in (
        (a_blocks, clean_a, n_x, "A"),
        (b_blocks, clean_b, n_u, "B"),
    ):
        for (i, j), block in blocks.items():
            if (j, i) not in graphs.edges_s:
                raise GraphValidationError(
                    f"{label} block ({i}, {j}) violates the state graph: "
                    f"agent {j} does not influence agent {i}"
                )
            arr = np.asarray(block, dtype=float)
            if arr.shape != (n_x, cols):
                raise ValueError(
                    f"{label} block ({i}, {j}) must be {n_x}x{cols}, got {arr.shape}"
                )
            clean[(i, j)] = _as_readonly(arr)
            target = a_global if label == "A" else b_global
            target[(i - 1) * n_x : i * n_x, (j - 1) * cols : j * cols] = arr

    s_global = np.zeros((n * n_x, n * n_x))
    r_global = np.zeros((n * n_u, n * n_u))
    clean_s: dict[int, np.ndarray] = {}
    clean_r: dict[int, np.ndarray] = {}
    for i in graphs.agents:
        owners = graphs.cost_in_neighbors(i)
        dim_s = n_x * len(owners)
        dim_r = n_u * len(owners)
        s_i = np.asarray(s_blocks.get(i, np.zeros((dim_s, dim_s))), dtype=float)
        r_i = np.asarray(r_blocks.get(i, np.zeros((dim_r, dim_r))), dtype=float)
        if s_i.shape != (dim_s, dim_s):
            raise ValueError(f"S block for agent {i} must be {dim_s}x{dim_s}, got {s_i.shape}")
        if r_i.shape != (dim_r, dim_r):
            raise ValueError(f"R block for agent {i} must be {dim_r}x{dim_r}, got {r_i.shape}")
        _check_psd(f"S block of agent {i}", s_i, strict=False)
        if owners:
            _check_psd(f"R block of agent {i}", r_i, strict=True)
        clean_s[i] = _as_readonly(s_i)
        clean_r[i] = _as_readonly(r_i)
        xs = x_coords(owners, n_x)
        us = u_coords(owners, n_u)
        if owners:
            s_global[np.ix_(xs, xs)] += s_i / n
            r_global[np.ix_(us, us)] += r_i / n

    _check_psd("global state cost", s_global, strict=False)
    _check_psd("global control cost", r_global, strict=True)

    return MultiAgentSystem(
        graphs=graphs,
        n_x=n_x,
        n_u=n_u,
        a_blocks=clean_a,
        b_blocks=clean_b,
        s_blocks=clean_s,
        r_blocks=clean_r,
        sigma_w=float(sigma_w),
        a=_as_readonly(a_global),
        b=_as_readonly(b_global),
        s=_as_readonly(s_global),
        r=_as_readonly(r_global),
    )


@dataclass(frozen=True)
class Subsystem:
    """A system restricted to an agent subset's coordinates.

    ``s`` and ``r`` hold the requested cost aggregate (sum of the chosen
    owners' cost blocks, optionally 1/N-averaged) expressed on the subset's
    stacked coordinates.  Extraction is exact when the subset is closed
    under the state/observation reachability relation.
    """

    agents: AgentSet
    n_x: int
    n_u: int
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    r: np.ndarray
    k: np.ndarray
    sigma_w: float
    cost_owners: AgentSet

    @property
    def nx(self) -> int:
        return self.n_x * len(self.agents)

    @property
    def nu(self) -> int:
        return self.n_u * len(self.agents)

    @property
    def m(self) -> int:
        """Stacked state-plus-control dimension."""
        return self.nx + self.nu

    def closed_loop(self) -> np.ndarray:
        return self.a + self.b @ self.k

    def stage_cost(self, x: np.ndarray, u: np.ndarray) -> float:
        return float(x @ self.s @ x + u @ self.r @ u)


def extract_subsystem(
    system: MultiAgentSystem,
    policy: StructuredPolicy,
    index_set: Iterable[int],
    cost_owners: Iterable[int] = (),
    *,
    average: bool = False,
) -> Subsystem:
    """Restrict dynamics, gain, and an owner-aggregated cost to an agent subset.

    The subset must be closed under the state/observation reachability
    relation, and each cost owner's in-neighbor set must lie inside it.
    ``average=True`` folds in the 1/N global averaging; otherwise owner
    costs are summed raw.
    """
    agents = tuple(sorted(set(int(a) for a in index_set)))
    for a in agents:
        system.graphs.require_valid_agent(a)
    if not agents:
        raise ValueError("index_set must contain at least one agent")
    missing = missing_closure_agent(system.graphs, agents)
    if missing is not None:
        raise ClosureError(
            f"index set {agents} is not closed: agent {missing} reaches it "
            "through the state/observation graph"
        )
    owners = tuple(sorted(set(int(a) for a in cost_owners)))
    xs = x_coords(agents, system.n_x)
    us = u_coords(agents, system.n_u)
    a_sub = system.a[np.ix_(xs, xs)]
    b_sub = system.b[np.ix_(xs, us)]
    k_sub = policy.gain[np.ix_(us, xs)]

    dim_x = len(xs)
    dim_u = len(us)
    s_sub = np.zeros((dim_x, dim_x))
    r_sub = np.zeros((dim_u, dim_u))
    member_set = set(agents)
    scale = 1.0 / system.n_agents if average else 1.0
    pos = {a: k for k, a in enumerate(agents)}
    for j in owners:
        cost_set = system.graphs.cost_in_neighbors(j)
        outside = [c for c in cost_set if c not in member_set]
        if outside:
            raise ClosureError(
                f"cost owner {j} depends on agents {outside} outside the index set {agents}"
            )
        if not cost_set:
            continue
        x_idx = np.concatenate(
            [pos[c] * system.n_x + np.arange(system.n_x) for c in cost_set]
        )
        u_idx = np.concatenate(
            [pos[c] * system.n_u + np.arange(system.n_u) for c in cost_set]
        )
        s_sub[np.ix_(x_idx, x_idx)] += scale * system.s_blocks[j]
        r_sub[np.ix_(u_idx, u_idx)] += scale * system.r_blocks[j]

    return Subsystem(
        agents=agents,
        n_x=system.n_x,
        n_u=system.n_u,
        a=_as_readonly(a_sub),
        b=_as_readonly(b_sub),
        s=_as_readonly(s_sub),
        r=_as_readonly(r_sub),
        k=_as_readonly(k_sub),
        sigma_w=system.sigma_w,
        cost_owners=owners,
    )


def true_q_matrix(sub: Subsystem) -> np.ndarray:
    """Exact quadratic Q-function matrix of the subsystem under its gain.

    Q = blkdiag(S, R) + [A B]' P [A B] with P solving the value-function
    Lyapunov equation P = (A + BK)' P (A + BK) + S + K'RK.  Requires the
    closed loop to be stable.  Symmetric and positive semi-definite.
    """
    l_cl = sub.closed_loop()
    rho = spectral_radius(l_cl)
    if rho >= 1.0:
        raise InstabilityError("closed loop unstable; Q-function undefined", rho)
    cost = sub.s + sub.k.T @ sub.r @ sub.k
    p = lyapunov_solve(l_cl.T, 0.5 * (cost + cost.T))
    ab = np.hstack([sub.a, sub.b])
    q = np.zeros((sub.m, sub.m))
    q[: sub.nx, : sub.nx] = sub.s
    q[sub.nx :, sub.nx :] = sub.r
    q += ab.T @ p @ ab
    return 0.5 * (q + q.T)


def bellman_offset(sub: Subsystem, q: np.ndarray) -> float:
    """Average-cost rate making the fixed-point equation hold: <Q, sigma_w^2 GG'>."""
    g = np.vstack([np.eye(sub.nx), sub.k])
    return float(sub.sigma_w**2 * np.trace(g.T @ q @ g))


def bellman_residual(
    sub: Subsystem, q: np.ndarray, offset: float, x: np.ndarray, u: np.ndarray
) -> float:
    """Fixed-point residual at one state/control pair, expectation in closed form.

    Residual = offset + Q(x,u) - cost(x,u) - E[Q(x+, K x+)], where the
    expectation over process noise is expanded analytically.
    """
    z = np.concatenate([x, u])
    g = np.vstack([np.eye(sub.nx), sub.k])
    mean_next = sub.a @ x + sub.b @ u
    zp = g @ mean_next
    expected_next = float(zp @ q @ zp) + sub.sigma_w**2 * float(np.trace(g.T @ q @ g))
    return offset + float(z @ q @ z) - sub.stage_cost(x, u) - expected_next


@dataclass(frozen=True)
class TrajectoryBatch:
    """One rollout {x(t), u(t), x(t+1)} of length T under a play policy.

    ``x`` has T+1 rows, ``u`` has T rows.  Immutable; safe to share
    read-only across per-agent workers.
    """

    x: np.ndarray
    u: np.ndarray
    n_x: int
    n_u: int

    @property
    def length(self) -> int:
        return self.u.shape[0]

    def states(self, agent_set: Iterable[int]) -> np.ndarray:
        """State columns of the agents in the set, all T+1 rows."""
        return self.x[:, x_coords(agent_set, self.n_x)]

    def controls(self, agent_set: Iterable[int]) -> np.ndarray:
        """Control columns of the agents in the set, T rows."""
        return self.u[:, u_coords(agent_set, self.n_u)]


def _initial_state(
    rng: np.random.Generator, dim: int, x0: Optional[np.ndarray], sigma0
) -> np.ndarray:
    mean = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    if mean.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {mean.shape}")
    z = rng.standard_normal(dim)
    if sigma0 is None:
        return mean + z
    sig = np.asarray(sigma0, dtype=float)
    if sig.ndim == 0:
        if not sig >= 0:
            raise ValueError("initial covariance scale must be nonnegative")
        return mean + math.sqrt(float(sig)) * z
    if sig.ndim == 1:
        return mean + np.sqrt(sig) * z
    eigvals, eigvecs = np.linalg.eigh(0.5 * (sig + sig.T))
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return mean + root @ z


def _times_transposed(
    rows: np.ndarray, mat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``rows @ mat.T`` as a C-ordered array, computed by SciPy's BLAS.

    With ``out`` (C-ordered, rows.shape[0] x mat.shape[0]) the product is
    added into it in place and ``out`` is returned.  The LSTDQ products and
    LU run on SciPy's BLAS too: NumPy links a second OpenBLAS, and waking
    its thread pool with a product this size leaves it competing with
    SciPy's for the cores.  ``rows.T`` and ``out.T`` are Fortran-ordered,
    and the Fortran-ordered product mat @ rows.T is the C-ordered result's
    transpose, so nothing is copied.
    """
    if out is None:
        return scipy.linalg.blas.dgemm(1.0, mat, rows.T).T
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-ordered")
    scipy.linalg.blas.dgemm(1.0, mat, rows.T, beta=1.0, c=out.T, overwrite_c=True)
    return out


def _simulate(
    system: MultiAgentSystem, gain: np.ndarray, x: np.ndarray, drive: np.ndarray
) -> None:
    """Fill x[1:] with x[t+1] = (A + B K) x[t] + drive[t], given x[0]."""
    closed = system.a + _times_transposed(system.b, gain.T)
    for current, following, step_drive in zip(x[:-1], x[1:], drive):
        np.dot(closed, current, out=following)
        following += step_drive


def rollout(
    system: MultiAgentSystem,
    play_policy: StructuredPolicy,
    t_length: int,
    sigma_eta: float,
    seed,
    *,
    x0: Optional[np.ndarray] = None,
    sigma0=1.0,
) -> TrajectoryBatch:
    """Simulate T steps of u = K_play x + eta with process noise; seeded.

    The initial state is drawn from N(x0, sigma0) (scalar sigma0 scales the
    identity; a vector gives a diagonal covariance).  Fully deterministic
    given the seed.
    """
    if t_length < 1:
        raise ValueError(f"rollout length must be >= 1, got {t_length}")
    if not sigma_eta >= 0.0:
        raise ValueError(f"sigma_eta must be nonnegative, got {sigma_eta}")
    rng = np.random.default_rng(seed)
    nx, nu = system.nx_total, system.nu_total
    gain = play_policy.gain
    x = np.empty((t_length + 1, nx))
    x[0] = _initial_state(rng, nx, x0, sigma0)
    etas = rng.standard_normal((t_length, nu))
    etas *= sigma_eta
    drive = rng.standard_normal((t_length, nx))
    drive *= system.sigma_w
    _times_transposed(etas, system.b, out=drive)  # B eta_t + w_t
    _simulate(system, gain, x, drive)
    u = _times_transposed(x[:t_length], gain, out=etas)  # K x_t + eta_t, over eta
    return TrajectoryBatch(x=_as_readonly(x), u=_as_readonly(u), n_x=system.n_x, n_u=system.n_u)


@dataclass(frozen=True)
class CostEvaluation:
    """Time-averaged closed-loop cost; ``diverged`` flags numerical blow-up."""

    value: float
    diverged: bool


_DIVERGENCE_LIMIT = 1e12


def average_cost(
    system: MultiAgentSystem,
    policy: StructuredPolicy,
    t_eval: int,
    seed,
    *,
    x0: Optional[np.ndarray] = None,
    sigma0=1.0,
) -> CostEvaluation:
    """Average of the global stage cost over a T-step closed-loop rollout.

    Uses u = Kx with process noise only: the cost averages x_t'S x_t +
    u_t'R u_t over t = 0..T-1.  An unstable closed loop is flagged rather
    than raised: when any of x_1..x_T is non-finite or exceeds
    ``_DIVERGENCE_LIMIT`` in magnitude, the result carries value = inf.
    """
    if t_eval < 1:
        raise ValueError(f"t_eval must be >= 1, got {t_eval}")
    rng = np.random.default_rng(seed)
    nx = system.nx_total
    gain = policy.gain
    x = np.empty((t_eval + 1, nx))
    x[0] = _initial_state(rng, nx, x0, sigma0)
    noises = rng.standard_normal((t_eval, nx))
    noises *= system.sigma_w
    with np.errstate(over="ignore", invalid="ignore"):
        _simulate(system, gain, x, noises)
        # NaN propagates through max and fails the comparison, so this one
        # test also catches every non-finite state.
        if not np.max(np.abs(x[1:])) <= _DIVERGENCE_LIMIT:
            return CostEvaluation(value=math.inf, diverged=True)
    states = x[:t_eval]
    controls = _times_transposed(states, gain)
    total = 0.0
    for rows, weight in ((states, system.s), (controls, system.r)):
        # sum_t rows_t' W rows_t
        weighted = _times_transposed(rows, weight.T)
        weighted *= rows
        total += float(weighted.sum())
    return CostEvaluation(value=total / t_eval, diverged=False)
