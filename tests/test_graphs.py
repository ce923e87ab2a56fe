"""Coupling graphs, dependency sets, and the graphical conditions."""
import numpy as np
import pytest

from malspi.graphs import (
    GraphValidationError,
    _forward_closure,
    build_coupling_graphs,
    dependency_sets,
    graphical_conditions,
    value_dependency_edges,
)
from malspi.examples import generate_example1
from malspi.verify import random_graphs, reachability_closure_oracle, value_set_oracle

SELF2 = [(1, 1), (2, 2)]


def test_build_decoupled_two_agents():
    g = build_coupling_graphs(2, SELF2, SELF2, SELF2)
    assert g.state_in_neighbors(1) == (1,)
    assert g.cost_in_neighbors(2) == (2,)


def test_build_deduplicates_edges():
    g = build_coupling_graphs(2, SELF2 + SELF2, SELF2, SELF2)
    assert len(g.edges_s) == 2


def test_build_rejects_out_of_range_edge():
    with pytest.raises(GraphValidationError, match=r"\(9, 1\)"):
        build_coupling_graphs(8, [(9, 1)], [], [])


def test_build_rejects_zero_agents():
    with pytest.raises(GraphValidationError):
        build_coupling_graphs(0, [], [], [])


def test_example1_edge_count_with_self_loops():
    from malspi.examples import generate_example1

    g = generate_example1(8)
    assert len(g.edges_s) == 16
    assert g.edges_s == g.edges_o


def test_reachability_linear_chain():
    g = build_coupling_graphs(3, [(1, 2), (2, 3)], [], [])
    assert dependency_sets(g).reach[3] == (1, 2, 3)


def test_reachability_self_inclusion_without_edges():
    g = build_coupling_graphs(5, [], [], [])
    assert dependency_sets(g).reach[5] == (5,)


def test_reachability_matches_matrix_power_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_graphs(rng, 6, edge_prob=float(rng.uniform(0.1, 0.5)))
        closure = reachability_closure_oracle(g)
        deps = dependency_sets(g)
        for i in g.agents:
            expected = tuple(sorted(j + 1 for j in np.flatnonzero(closure[:, i - 1])))
            assert deps.reach[i] == expected


def test_neighbor_accessors_reject_bad_agent():
    g = build_coupling_graphs(3, [], [], [])
    for accessor in (g.state_in_neighbors, g.observation_in_neighbors,
                     g.cost_in_neighbors, g.cost_out_neighbors):
        for bad in (0, 4):
            with pytest.raises(GraphValidationError, match=r"outside 1\.\.3"):
                accessor(bad)


def test_neighbor_accessors_take_any_integer_index_but_bool():
    g = generate_example1(4)
    for accessor in (g.state_in_neighbors, g.observation_in_neighbors,
                     g.cost_in_neighbors, g.cost_out_neighbors):
        for i in g.agents:
            assert accessor(np.int64(i)) == accessor(np.int32(i)) == accessor(i)
        for bad in (True, False, np.bool_(True), 1.7, 2.0, np.float64(2.0), "2", None):
            with pytest.raises(GraphValidationError, match="is not an integer"):
                accessor(bad)


def test_value_set_decoupled_is_self():
    g = build_coupling_graphs(3, [(i, i) for i in (1, 2, 3)],
                              [(i, i) for i in (1, 2, 3)], [(i, i) for i in (1, 2, 3)])
    deps = dependency_sets(g)
    for i in g.agents:
        assert deps.value[i] == (i,)


def test_value_set_matches_oracle_on_random_digraphs():
    rng = np.random.default_rng(21)
    for _ in range(40):
        g = random_graphs(rng, int(rng.integers(2, 8)), edge_prob=0.3)
        deps = dependency_sets(g)
        for i in g.agents:
            assert deps.value[i] == value_set_oracle(g, i)


def test_value_sets_satisfy_closure():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = random_graphs(rng, int(rng.integers(2, 13)), edge_prob=0.25)
        deps = dependency_sets(g)
        for i in g.agents:
            for j in deps.value[i]:
                assert set(deps.reach[j]) <= set(deps.value[i])


def test_gradient_set_is_transpose_of_value_sets():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graphs(rng, int(rng.integers(2, 9)), edge_prob=0.3)
        deps = dependency_sets(g)
        for i in g.agents:
            for j in g.agents:
                assert (j in deps.gradient[i]) == (i in deps.value[j])


def test_direct_set_is_union_over_gradient_set():
    rng = np.random.default_rng(9)
    for _ in range(30):
        g = random_graphs(rng, int(rng.integers(2, 9)), edge_prob=0.3)
        deps = dependency_sets(g)
        for i in g.agents:
            expected = set()
            for j in deps.gradient[i]:
                expected |= set(deps.value[j])
            assert deps.direct[i] == tuple(sorted(expected))
            if i in deps.gradient[i]:
                assert set(deps.value[i]) <= set(deps.direct[i])


def test_sets_grow_monotonically_with_added_edges():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        g = random_graphs(rng, n, edge_prob=0.2)
        deps = dependency_sets(g)
        extra = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
        grown = build_coupling_graphs(
            n, g.edges_s | {extra}, g.edges_o | {extra}, g.edges_c
        )
        deps2 = dependency_sets(grown)
        for i in g.agents:
            assert set(deps.reach[i]) <= set(deps2.reach[i])
            assert set(deps.value[i]) <= set(deps2.value[i])
            assert set(deps.direct[i]) <= set(deps2.direct[i])


def test_forward_reachability_includes_self():
    g = build_coupling_graphs(4, [(1, 2)], [(2, 3)], [])
    assert _forward_closure(g, 1) == {1, 2, 3}
    assert _forward_closure(g, 4) == {4}


def test_condition_a_decoupled_true_for_all():
    loops = [(i, i) for i in range(1, 4)]
    g = build_coupling_graphs(3, loops, loops, loops)
    for report in graphical_conditions(g).values():
        assert report.cond_a is True
        assert report.direct_set_proper is True


def test_condition_a_complete_cost_graph_false():
    n = 4
    complete = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    loops = [(i, i) for i in range(1, n + 1)]
    g = build_coupling_graphs(n, loops, loops, complete)
    for report in graphical_conditions(g).values():
        assert report.cond_a is False
        assert report.direct_set_proper is False


def test_conditions_match_set_computations_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_graphs(rng, int(rng.integers(2, 9)), edge_prob=float(rng.uniform(0.1, 0.5)))
        deps = dependency_sets(g)
        reports = graphical_conditions(g)
        assert sorted(reports) == list(g.agents)
        for i, report in reports.items():
            assert report.agent == i
            assert report.cond_a == report.direct_set_proper
            assert tuple(report.partners) == deps.gradient[i]
            for cond_b, strict in report.partners.values():
                assert cond_b == strict


def test_value_dependency_edges_example2():
    from malspi.examples import generate_example2

    g = generate_example2(8)
    assert value_dependency_edges(g) == g.edges_c
