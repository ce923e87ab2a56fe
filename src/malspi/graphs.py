"""Directed coupling graphs over agents and the dependency sets they induce.

Three directed graphs over agents 1..N describe which agents enter each
agent's dynamics (state graph), observations (observation graph), and stage
cost (cost graph).  An edge (i, j) means agent i appears in agent j's index
set.  Everything downstream (subsystem extraction, per-agent Q-function
supports, gradient aggregation) is driven by reachability closures over the
union of the state and observation graphs, computed for every agent at once
by ``dependency_sets``:

* ``reach[i]``     agents with a directed path to i, plus i
* ``value[i]``     union of reachability sets over i's cost in-neighbors;
                   the exact support of agent i's local Q-function
* ``gradient[i]``  transpose relation: agents whose local Q depends on i
* ``direct[i]``    union of value sets over the gradient set; the support
                   of the aggregated Q used by the direct learning
                   architecture

``graphical_conditions`` evaluates the necessary-and-sufficient coupling
conditions for every agent from forward closures and cost successors, a
route independent of the sets it is checked against.  The neighbour maps of
each graph are built once per ``CouplingGraphs``.  All operations are pure
functions of immutable inputs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

Edge = tuple[int, int]
AgentSet = tuple[int, ...]
Adjacency = dict[int, AgentSet]


class GraphValidationError(ValueError):
    """Raised for out-of-range endpoints or an invalid agent count."""


def _validate_edges(name: str, edges: Iterable[Iterable[int]], n_agents: int) -> frozenset[Edge]:
    out = set()
    for edge in edges:
        pair = tuple(int(v) for v in edge)
        if len(pair) != 2:
            raise GraphValidationError(f"{name}: edge {pair!r} is not a (from, to) pair")
        a, b = pair
        if not (1 <= a <= n_agents and 1 <= b <= n_agents):
            raise GraphValidationError(
                f"{name}: edge ({a}, {b}) has an endpoint outside 1..{n_agents}"
            )
        out.add((a, b))
    return frozenset(out)


def _adjacency(edges: frozenset[Edge], n_agents: int, *, forward: bool) -> Adjacency:
    """Sorted out-neighbours (``forward``) or in-neighbours of every agent."""
    members: dict[int, set[int]] = {i: set() for i in range(1, n_agents + 1)}
    for a, b in edges:
        if forward:
            members[a].add(b)
        else:
            members[b].add(a)
    return {i: tuple(sorted(m)) for i, m in members.items()}


@dataclass(frozen=True)
class CouplingGraphs:
    """State, observation, and cost coupling graphs over agents 1..n_agents.

    Edge (i, j) in ``edges_s`` means agent i's state/control enters agent j's
    dynamics; analogously for ``edges_o`` (observation) and ``edges_c``
    (cost).  Self-loops are not inserted automatically: the edge sets are
    taken verbatim.
    """

    n_agents: int
    edges_s: frozenset[Edge]
    edges_o: frozenset[Edge]
    edges_c: frozenset[Edge]

    @property
    def agents(self) -> range:
        """All agent indices, 1-indexed."""
        return range(1, self.n_agents + 1)

    @cached_property
    def _maps(self) -> dict[str, Adjacency]:
        # Built on first use and kept: every neighbour query is a lookup.
        n = self.n_agents
        so = self.edges_s | self.edges_o
        return {
            "state_in": _adjacency(self.edges_s, n, forward=False),
            "observation_in": _adjacency(self.edges_o, n, forward=False),
            "cost_in": _adjacency(self.edges_c, n, forward=False),
            "cost_out": _adjacency(self.edges_c, n, forward=True),
            "so_in": _adjacency(so, n, forward=False),
            "so_out": _adjacency(so, n, forward=True),
        }

    def _neighbors(self, kind: str, i: int) -> AgentSet:
        return self._maps[kind][self.require_valid_agent(i)]

    def state_in_neighbors(self, i: int) -> AgentSet:
        """Agents whose state/control enters agent i's dynamics."""
        return self._neighbors("state_in", i)

    def observation_in_neighbors(self, i: int) -> AgentSet:
        """Agents whose state agent i observes."""
        return self._neighbors("observation_in", i)

    def cost_in_neighbors(self, i: int) -> AgentSet:
        """Agents whose state/control enters agent i's stage cost."""
        return self._neighbors("cost_in", i)

    def cost_out_neighbors(self, i: int) -> AgentSet:
        """Agents whose stage cost depends on agent i."""
        return self._neighbors("cost_out", i)

    def require_valid_agent(self, i: int) -> int:
        """``i`` as an int; raises unless it is an integer in 1..N (not a bool; 1.7 raises)."""
        try:
            if isinstance(i, bool):
                raise TypeError
            index = operator.index(i)
        except TypeError:
            raise GraphValidationError(f"agent index {i!r} is not an integer") from None
        if not 1 <= index <= self.n_agents:
            raise GraphValidationError(f"agent index {i!r} outside 1..{self.n_agents}")
        return index


def build_coupling_graphs(
    n_agents: int,
    edges_s: Iterable[Iterable[int]],
    edges_o: Iterable[Iterable[int]],
    edges_c: Iterable[Iterable[int]],
) -> CouplingGraphs:
    """Validate and deduplicate the three edge lists into a CouplingGraphs.

    Raises GraphValidationError for n_agents < 1 or any endpoint outside
    1..n_agents, naming the offending edge.
    """
    if int(n_agents) < 1:
        raise GraphValidationError(f"n_agents must be positive, got {n_agents}")
    n = int(n_agents)
    return CouplingGraphs(
        n_agents=n,
        edges_s=_validate_edges("edges_s", edges_s, n),
        edges_o=_validate_edges("edges_o", edges_o, n),
        edges_c=_validate_edges("edges_c", edges_c, n),
    )


def _closure(adjacency: Adjacency, start: int) -> set[int]:
    """``start`` and every agent reachable from it along ``adjacency``."""
    seen = {start}
    pending = [start]
    while pending:
        node = pending.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                pending.append(nxt)
    return seen


@dataclass(frozen=True)
class DependencySets:
    """Per-agent dependency sets, all computed once from the graphs.

    ``reach[i]`` is the reachability set, ``value[i]`` the local Q support,
    ``gradient[i]`` the set of agents whose Q depends on i, and
    ``direct[i]`` the union of value sets over ``gradient[i]``.
    """

    n_agents: int
    reach: dict[int, AgentSet]
    value: dict[int, AgentSet]
    gradient: dict[int, AgentSet]
    direct: dict[int, AgentSet]

    @classmethod
    def full(cls, n_agents: int) -> "DependencySets":
        """Sets forced to the full agent set (collapses all architectures)."""
        everyone = tuple(range(1, n_agents + 1))
        full_map = {i: everyone for i in everyone}
        return cls(
            n_agents=n_agents,
            reach=dict(full_map),
            value=dict(full_map),
            gradient=dict(full_map),
            direct=dict(full_map),
        )


def dependency_sets(graphs: CouplingGraphs) -> DependencySets:
    """Compute reachability, value, gradient, and direct sets for all agents.

    One traversal of the reversed state/observation graph per agent, O(N + |E|)
    each; the other sets are unions over the reachability sets.
    """
    so_in = graphs._maps["so_in"]
    reach = {i: tuple(sorted(_closure(so_in, i))) for i in graphs.agents}
    value: dict[int, AgentSet] = {}
    for i in graphs.agents:
        members: set[int] = set()
        for k in graphs.cost_in_neighbors(i):
            members.update(reach[k])
        value[i] = tuple(sorted(members))
    gradient = {
        i: tuple(sorted(j for j in graphs.agents if i in value[j]))
        for i in graphs.agents
    }
    direct = {}
    for i in graphs.agents:
        members = set()
        for j in gradient[i]:
            members.update(value[j])
        direct[i] = tuple(sorted(members))
    return DependencySets(
        n_agents=graphs.n_agents, reach=reach, value=value, gradient=gradient, direct=direct
    )


def value_dependency_edges(graphs: CouplingGraphs) -> frozenset[Edge]:
    """Edges (j, i) of the value dependency graph: j in agent i's Q support."""
    deps = dependency_sets(graphs)
    return frozenset((j, i) for i in graphs.agents for j in deps.value[i])


def missing_closure_agent(graphs: CouplingGraphs, agent_set: Iterable[int]) -> Optional[int]:
    """An agent that violates closure of the set, or None when closed."""
    members = set(agent_set)
    so_in = graphs._maps["so_in"]
    for j in sorted(members):
        for pred in so_in.get(j, ()):
            if pred not in members:
                return pred
    return None


def _forward_closure(graphs: CouplingGraphs, i: int) -> set[int]:
    """Agents reachable from i through the state/observation graph, plus i."""
    return _closure(graphs._maps["so_out"], i)


@dataclass(frozen=True)
class GraphicalConditionReport:
    """Outcome of the necessary-and-sufficient coupling conditions for one agent.

    ``cond_a`` evaluates whether some agent stays outside the agent's direct
    dependence set, via the forward-reachability / cost-successor
    intersection test; ``direct_set_proper`` is the direct cardinality check
    it must match.  ``partners`` maps every j in the agent's gradient set to
    ``(cond_b, value_set_strictly_contained)``: condition (b) for j, and the
    direct check of strict containment of j's value set in the agent's
    direct set that it must match.
    """

    agent: int
    cond_a: bool
    direct_set_proper: bool
    partners: dict[int, tuple[bool, bool]]


def graphical_conditions(graphs: CouplingGraphs) -> dict[int, GraphicalConditionReport]:
    """Evaluate the graphical sample-efficiency conditions for every agent.

    Agents a and b *share a cost successor* when some agent forward-reachable
    from a and some agent forward-reachable from b have a common cost
    out-neighbour, i.e. when the cost successors reached from a and from b
    intersect.  Each forward closure is computed once.

    Condition (a) for agent i: some agent k does not share a cost successor
    with i.  Equivalent to i's direct dependence set being a proper subset
    of all agents.

    Condition (b), for j in agent i's gradient set: some agent k outside j's
    value set shares a cost successor with i.  Equivalent to j's value set
    being strictly contained in i's direct set.  Any shared cost successor
    found this way necessarily lies in i's gradient set.
    """
    deps = dependency_sets(graphs)
    reached_cost = {
        a: frozenset(c for m in _forward_closure(graphs, a) for c in graphs.cost_out_neighbors(m))
        for a in graphs.agents
    }

    def shares_cost_successor(a: int, b: int) -> bool:
        return not reached_cost[a].isdisjoint(reached_cost[b])

    reports = {}
    for i in graphs.agents:
        partners = {}
        for j in deps.gradient[i]:
            outside = [k for k in graphs.agents if k not in deps.value[j]]
            partners[j] = (
                any(shares_cost_successor(i, k) for k in outside),
                set(deps.value[j]) < set(deps.direct[i]),
            )
        reports[i] = GraphicalConditionReport(
            agent=i,
            cond_a=any(not shares_cost_successor(i, k) for k in graphs.agents),
            direct_set_proper=len(deps.direct[i]) < graphs.n_agents,
            partners=partners,
        )
    return reports
