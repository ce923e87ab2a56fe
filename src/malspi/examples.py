"""Benchmark coupling topologies and their default dynamics and costs.

Two families of graphs over N agents:

* Example 1: costs are purely local (self-loops only) while every odd agent
  influences and observes its two ring neighbors, with a wrap-around edge
  from agent 1 to agent N (and from N to 1 when N is odd).  The induced
  value dependency graph coincides with the observation graph, and the gap
  between direct and value dependence sets is 4 for even N >= 6.

* Example 2: a leader-follower star.  Dynamics are decoupled; every agent
  observes the leader and shares cost with it.  The value dependency graph
  coincides with the cost graph, and the leader's direct dependence set is
  the full agent set.

Per-agent dynamics default to a weakly coupled marginally stable 3-state
chain (diagonal 0.95, super/sub-diagonal 0.01, identity input map).  These
defaults are stand-ins chosen to be open-loop stable at any N; a
``DynamicsConfig`` (an experiment config's ``dynamics`` section) overrides
them to study other plants.

Cost blocks follow the benchmark recipe: for an agent whose cost couples k
agents, the state block is (``CostConfig.s_diag``/k on the diagonal,
``s_off``/k off it) per agent pair, expanded by Kronecker product with the
per-agent identity, and the control block is the identity.  The control block is expanded with the
control dimension's identity so the quadratic form is well defined when
n_u differs from n_x.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import CouplingGraphs, build_coupling_graphs
from .system import MultiAgentSystem, build_system


@dataclass(frozen=True)
class DynamicsConfig:
    """Team-wide plant overrides: one self block per agent and the coupling scales.

    ``a_self`` (n_x x n_x) and ``b_self`` (n_x x n_u) default to the
    marginally stable chain and the identity input map; cross blocks within
    the state graph are ``coupling_scale`` and ``b_coupling_scale`` times the
    identity.
    """

    a_self: Optional[tuple[tuple[float, ...], ...]] = None
    b_self: Optional[tuple[tuple[float, ...], ...]] = None
    coupling_scale: float = 0.01
    b_coupling_scale: float = 0.0


@dataclass(frozen=True)
class CostConfig:
    """Per-agent-pair cost entries, divided by the cost-neighborhood size."""

    s_diag: float = 200.0
    s_off: float = -10.0


def generate_example1(n_agents: int) -> CouplingGraphs:
    """Ring-paired state/observation couplings with local costs."""
    if n_agents < 2:
        raise ValueError(f"example 1 needs at least 2 agents, got {n_agents}")
    loops = [(i, i) for i in range(1, n_agents + 1)]
    edges = set(loops)
    for j in range(1, n_agents + 1, 2):
        if j - 1 >= 1:
            edges.add((j, j - 1))
        if j + 1 <= n_agents:
            edges.add((j, j + 1))
    edges.add((1, n_agents))
    if n_agents % 2 == 1:
        edges.add((n_agents, 1))
    return build_coupling_graphs(n_agents, edges, edges, loops)


def generate_example2(n_agents: int) -> CouplingGraphs:
    """Leader-follower star: decoupled dynamics, leader-shared observation and cost."""
    if n_agents < 2:
        raise ValueError(f"example 2 needs at least 2 agents, got {n_agents}")
    loops = [(i, i) for i in range(1, n_agents + 1)]
    star = set(loops) | {(1, j) for j in range(1, n_agents + 1)}
    return build_coupling_graphs(n_agents, loops, star, star)


def build_cost_blocks(
    graphs: CouplingGraphs,
    n_x: int,
    n_u: int,
    cost: CostConfig = CostConfig(),
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per-agent cost blocks over each agent's cost in-neighbors.

    Raises when the per-agent state block loses positive semi-definiteness,
    which happens only for pathologically large cost neighborhoods.
    """
    s_blocks: dict[int, np.ndarray] = {}
    r_blocks: dict[int, np.ndarray] = {}
    for i in graphs.agents:
        k = len(graphs.cost_in_neighbors(i))
        if k == 0:
            s_blocks[i] = np.zeros((0, 0))
            r_blocks[i] = np.zeros((0, 0))
            continue
        small = np.full((k, k), cost.s_off / k)
        np.fill_diagonal(small, cost.s_diag / k)
        eigs = np.linalg.eigvalsh(small)
        if eigs.min() < -1e-9 * max(1.0, abs(eigs).max()):
            raise ValueError(
                f"s_diag {cost.s_diag!r} and s_off {cost.s_off!r} leave the cost block of "
                f"agent {i} not positive semi-definite (cost neighborhood size {k}, "
                f"min eig {eigs.min():.3g})"
            )
        s_blocks[i] = np.kron(small, np.eye(n_x))
        r_blocks[i] = np.eye(k * n_u)
    return s_blocks, r_blocks


def default_state_block(n_x: int, *, diagonal: float = 0.95, off: float = 0.01) -> np.ndarray:
    """Marginally stable chain: constant diagonal with weak nearest-neighbor terms."""
    a = diagonal * np.eye(n_x)
    idx = np.arange(n_x - 1)
    a[idx, idx + 1] = off
    a[idx + 1, idx] = off
    return a


def build_example_system(
    graphs: CouplingGraphs,
    *,
    n_x: int = 3,
    n_u: int = 3,
    dynamics: DynamicsConfig = DynamicsConfig(),
    cost: CostConfig = CostConfig(),
    sigma_w: float = 1.0,
) -> MultiAgentSystem:
    """Assemble a system on the given graphs from ``dynamics`` and ``cost``."""
    dyn = dynamics
    a_self = default_state_block(n_x) if dyn.a_self is None else np.asarray(dyn.a_self, dtype=float)
    b_self = np.eye(n_x, n_u) if dyn.b_self is None else np.asarray(dyn.b_self, dtype=float)

    a_blocks, b_blocks = {}, {}
    for i in graphs.agents:
        for j in graphs.state_in_neighbors(i):
            a_blocks[(i, j)] = a_self if i == j else dyn.coupling_scale * np.eye(n_x)
            b_blocks[(i, j)] = b_self if i == j else dyn.b_coupling_scale * np.eye(n_x, n_u)

    s_blocks, r_blocks = build_cost_blocks(graphs, n_x, n_u, cost)
    return build_system(graphs, n_x, n_u, a_blocks, b_blocks, s_blocks, r_blocks, sigma_w)
