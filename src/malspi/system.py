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

``estimation_set`` is the one check and layout of an agent subset and its
cost owners; the LSTDQ regressions read its coordinates, and
``extract_subsystem`` restricts everything to the subset through them.
When the subset is closed under the state/observation reachability
relation, the restriction is exact: the subsystem reproduces the
corresponding coordinates of the global trajectory under identical noise.
``true_q_matrix`` builds the exact quadratic Q-function of a (sub)system in
closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .graphs import CouplingGraphs, GraphValidationError, missing_closure_agent
from .linalg import lyapunov_solve

AgentSet = tuple[int, ...]


class ClosureError(ValueError):
    """Raised when exact extraction is requested on a non-closed agent set."""


def _block_coords(agent_set: Iterable[int], size: int) -> np.ndarray:
    """Coordinates of the agents' blocks of ``size`` in a stacked vector (sorted order)."""
    agents = np.array(sorted(agent_set), dtype=int)
    return ((agents[:, None] - 1) * size + np.arange(size)).ravel()


def x_coords(agent_set: Iterable[int], n_x: int) -> np.ndarray:
    """Global state-vector coordinates of the agents in the set (sorted order)."""
    return _block_coords(agent_set, n_x)


def u_coords(agent_set: Iterable[int], n_u: int) -> np.ndarray:
    """Global control-vector coordinates of the agents in the set (sorted order)."""
    return _block_coords(agent_set, n_u)


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
    out[np.ix_(idx, idx)] += q_small
    return out


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StructuredPolicy:
    """Static linear gain with sparsity constrained by the observation graph.

    ``gain`` is the global N*n_u x N*n_x matrix and the only stored form.
    Agent i's entries are the cells ``row_cells(i)``: its n_u rows against
    the state columns of its observation in-neighbors.  Every other entry
    is zero.
    """

    graphs: CouplingGraphs
    n_x: int
    n_u: int
    gain: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.graphs.n_agents

    def row_cells(self, i: int) -> tuple[slice, np.ndarray]:
        """Agent i's row slice of ``gain`` and its observed columns (sorted neighbors)."""
        i = self.graphs.require_valid_agent(i)
        rows = slice((i - 1) * self.n_u, i * self.n_u)
        return rows, x_coords(self.graphs.observation_in_neighbors(i), self.n_x)

    def row_gain(self, i: int) -> np.ndarray:
        """Agent i's gain over its sorted observation in-neighbors, n_u x n_x*|I_O|."""
        return self.gain[self.row_cells(i)]

    def with_row_gains(self, rows: Mapping[int, np.ndarray]) -> "StructuredPolicy":
        """New policy with each listed agent's cells replaced.

        ``rows[i]`` is laid out as ``row_gain(i)`` returns it; every other
        entry is copied unchanged.
        """
        gain = self.gain.copy()
        for i, row in rows.items():
            cells = self.row_cells(i)
            row = np.asarray(row, dtype=float)
            expected = (self.n_u, len(cells[1]))
            if row.shape != expected:
                raise ValueError(
                    f"row gain for agent {i} must have shape {expected}, got {row.shape}"
                )
            gain[cells] = row
        return StructuredPolicy(self.graphs, self.n_x, self.n_u, _as_readonly(gain))


def structured_policy_from_blocks(
    graphs: CouplingGraphs,
    n_x: int,
    n_u: int,
    blocks: Mapping[tuple[int, int], np.ndarray],
) -> StructuredPolicy:
    """Assemble a StructuredPolicy from ``blocks[(i, j)]``, agent i's n_u x n_x gain
    on agent j's state, validating block keys against the observation graph."""
    n = graphs.n_agents
    gain = np.zeros((n * n_u, n * n_x))
    for (i, j), block in blocks.items():
        if (j, i) not in graphs.edges_o:
            raise GraphValidationError(
                f"gain block ({i}, {j}) violates the observation graph: "
                f"agent {j} is not observed by agent {i}"
            )
        arr = np.asarray(block, dtype=float)
        if arr.shape != (n_u, n_x):
            raise ValueError(f"gain block ({i}, {j}) must be {n_u}x{n_x}, got {arr.shape}")
        gain[(i - 1) * n_u : i * n_u, (j - 1) * n_x : j * n_x] = arr
    return StructuredPolicy(graphs, n_x, n_u, _as_readonly(gain))


def zero_policy(graphs: CouplingGraphs, n_x: int, n_u: int) -> StructuredPolicy:
    """All-zero structured gain."""
    n = graphs.n_agents
    return StructuredPolicy(graphs, n_x, n_u, _as_readonly(np.zeros((n * n_u, n * n_x))))


def policy_from_global_gain(
    graphs: CouplingGraphs, n_x: int, n_u: int, gain: np.ndarray, *, atol: float = 0.0
) -> StructuredPolicy:
    """The structured policy holding ``gain``'s entries on the observation pattern.

    Entries outside the pattern are dropped when their magnitude is at most
    ``atol``; a larger one raises, naming the block (i, j) of the largest.
    A non-finite entry, on the pattern or off it, raises ValueError naming
    its block.
    """
    gain = np.asarray(gain, dtype=float)
    n = graphs.n_agents
    if gain.shape != (n * n_u, n * n_x):
        raise ValueError(f"global gain must be {n * n_u}x{n * n_x}, got {gain.shape}")
    non_finite = np.argwhere(~np.isfinite(gain))
    if non_finite.size:
        r, c = non_finite[0]
        raise ValueError(f"global gain entry {gain[r, c]} in block "
                         f"({r // n_u + 1}, {c // n_x + 1}) is not finite")
    policy = zero_policy(graphs, n_x, n_u)
    policy = policy.with_row_gains({i: gain[policy.row_cells(i)] for i in graphs.agents})
    outside = np.abs(gain - policy.gain)  # what is left outside the pattern
    outside[outside <= atol] = 0.0
    if outside.any():
        r, c = np.unravel_index(np.argmax(outside), outside.shape)
        raise GraphValidationError(
            f"global gain entry {gain[r, c]:.3g} in block ({r // n_u + 1}, {c // n_x + 1}) "
            f"lies outside the observation graph (atol {atol:g})"
        )
    return policy


@dataclass(frozen=True)
class MultiAgentSystem:
    """Global dynamics and costs of N coupled agents.

    ``a`` and ``b`` are the global dynamics; agent j's block in agent i's
    rows is nonzero only when j influences i in the state graph.  Cost
    blocks ``s_blocks[i]`` / ``r_blocks[i]`` act on the stacked coordinates
    of agent i's sorted cost in-neighbors.  ``s`` and ``r`` are the global
    cost matrices with the 1/N averaging folded in; per-agent stage costs
    remain unaveraged.
    """

    graphs: CouplingGraphs
    n_x: int
    n_u: int
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
    for (blocks, target, cols, label) in (
        (a_blocks, a_global, n_x, "A"),
        (b_blocks, b_global, n_u, "B"),
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

    ``a``, ``b`` and ``k`` are the global matrices restricted to the
    subset's coordinates.  ``s`` and ``r`` hold the requested cost
    aggregate (sum of the chosen owners' cost blocks, optionally
    1/N-averaged) on the subset's stacked coordinates.  Extraction is exact
    when the subset is closed under the state/observation reachability
    relation.
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


@dataclass(frozen=True)
class EstimationSet:
    """The fixed layout of one agent set's restricted LSTDQ regression.

    ``agents`` and ``cost_owners`` are sorted; ``xs`` and ``us`` are the
    set's global state and control coordinates; ``owner_coords[c]`` holds
    the global (x, u) coordinates of ``cost_owners[c]``'s cost in-neighbors.
    ``estimation_set`` builds one as it checks the set; nothing in it
    depends on the policy or the samples, so one serves a whole run.
    """

    agents: AgentSet
    cost_owners: AgentSet
    xs: np.ndarray
    us: np.ndarray
    owner_coords: tuple[tuple[np.ndarray, np.ndarray], ...]


def estimation_set(
    system: MultiAgentSystem, index_set: Iterable[int], cost_owners: Iterable[int]
) -> EstimationSet:
    """Check an agent set and its cost owners for exact restriction and lay them out.

    Raises GraphValidationError on an index that is not an agent, ValueError
    on an empty set, and ClosureError when the set is not closed under the
    state/observation reachability relation or an owner's cost in-neighbors
    leave it.
    """
    graphs, n_x, n_u = system.graphs, system.n_x, system.n_u
    agents = tuple(sorted({graphs.require_valid_agent(a) for a in index_set}))
    if not agents:
        raise ValueError("index_set must contain at least one agent")
    missing = missing_closure_agent(graphs, agents)
    if missing is not None:
        raise ClosureError(
            f"index set {agents} is not closed: agent {missing} reaches it "
            "through the state/observation graph"
        )
    owners = tuple(sorted({graphs.require_valid_agent(j) for j in cost_owners}))
    owner_coords = []
    for j in owners:
        cost_set = graphs.cost_in_neighbors(j)
        outside = [c for c in cost_set if c not in agents]
        if outside:
            raise ClosureError(
                f"cost owner {j} depends on agents {outside} outside the index set {agents}"
            )
        owner_coords.append((x_coords(cost_set, n_x), u_coords(cost_set, n_u)))
    return EstimationSet(agents, owners, x_coords(agents, n_x), u_coords(agents, n_u),
                         tuple(owner_coords))


def extract_subsystem(
    system: MultiAgentSystem,
    policy: StructuredPolicy,
    index_set: Iterable[int],
    cost_owners: Iterable[int] = (),
    *,
    average: bool = False,
) -> Subsystem:
    """Restrict dynamics, gain, and an owner-aggregated cost to an agent subset.

    The set is checked and laid out by ``estimation_set``: it must be closed
    under the state/observation reachability relation, and each cost
    owner's in-neighbor set must lie inside it.  ``average=True`` folds in
    the 1/N global averaging; otherwise owner costs are summed raw.
    """
    est = estimation_set(system, index_set, cost_owners)
    xs, us = est.xs, est.us
    s_sub = np.zeros((len(xs), len(xs)))
    r_sub = np.zeros((len(us), len(us)))
    scale = 1.0 / system.n_agents if average else 1.0
    for j, (owner_xs, owner_us) in zip(est.cost_owners, est.owner_coords):
        # Both coordinate lists are sorted, so each owner coordinate's
        # position in the set's is its rank there.
        x_idx = np.searchsorted(xs, owner_xs)
        u_idx = np.searchsorted(us, owner_us)
        s_sub[np.ix_(x_idx, x_idx)] += scale * system.s_blocks[j]
        r_sub[np.ix_(u_idx, u_idx)] += scale * system.r_blocks[j]

    return Subsystem(
        agents=est.agents,
        n_x=system.n_x,
        n_u=system.n_u,
        a=_as_readonly(system.a[xs[:, None], xs]),
        b=_as_readonly(system.b[xs[:, None], us]),
        s=_as_readonly(s_sub),
        r=_as_readonly(r_sub),
        k=_as_readonly(policy.gain[us[:, None], xs]),
        sigma_w=system.sigma_w,
    )


def true_q_matrix(sub: Subsystem) -> np.ndarray:
    """Exact quadratic Q-function matrix of the subsystem under its gain.

    Q = blkdiag(S, R) + [A B]' P [A B] with P solving the value-function
    Lyapunov equation P = (A + BK)' P (A + BK) + S + K'RK.  Requires the
    closed loop to be stable: ``lyapunov_solve`` raises InstabilityError
    otherwise.  Symmetric and positive semi-definite.
    """
    l_cl = sub.closed_loop()
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

    @property
    def length(self) -> int:
        return self.u.shape[0]


def _initial_state(
    rng: np.random.Generator, dim: int, x0: Optional[np.ndarray], sigma0: float
) -> np.ndarray:
    mean = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    if mean.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {mean.shape}")
    z = rng.standard_normal(dim)
    if not sigma0 >= 0:
        raise ValueError("initial covariance scale must be nonnegative")
    return mean + math.sqrt(sigma0) * z


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
    transpose, so nothing is copied.  SciPy is imported here, at the first
    rollout product, not with the module: building a system, its
    dependency sets and its bounds needs NumPy only.
    """
    import scipy.linalg
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
    sigma0: float = 1.0,
) -> TrajectoryBatch:
    """Simulate T steps of u = K_play x + eta with process noise; seeded.

    The initial state is drawn from N(x0, sigma0 I).  Fully deterministic
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
    return TrajectoryBatch(x=_as_readonly(x), u=_as_readonly(u))


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
    sigma0: float = 1.0,
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
