"""Example generators, configuration, experiment runner, CSV artifacts."""
import json

import numpy as np
import pytest

from malspi.config import ConfigError, dump_config, load_config, parse_config
from malspi.examples import build_cost_blocks, generate_example1, generate_example2
from malspi.graphs import build_coupling_graphs, dependency_sets, value_dependency_edges
from malspi import runner
from malspi.policy_iteration import Architecture
from malspi.runner import (
    BenchCell,
    full_set_feature_dim,
    read_bench_csv,
    read_curves_csv,
    read_timing_csv,
    run_experiment,
    timing_benchmark,
    write_bench_csv,
)


RING_CROSS_EDGES = {(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 8), (1, 8)}


def test_example1_matches_hand_enumerated_eight_agent_layout():
    g = generate_example1(8)
    loops = {(i, i) for i in range(1, 9)}
    assert g.edges_s == frozenset(RING_CROSS_EDGES | loops)
    assert g.edges_o == g.edges_s
    assert g.edges_c == frozenset(loops)


def test_example1_value_graph_equals_observation_graph():
    for n in (8, 20):
        g = generate_example1(n)
        assert value_dependency_edges(g) == g.edges_o


@pytest.mark.parametrize("n", [8, 20, 40])
def test_example1_direct_minus_value_gap_is_four(n):
    deps = dependency_sets(generate_example1(n))
    gap = max(len(deps.direct[i]) - len(deps.value[i]) for i in deps.value)
    assert gap == 4


def test_example1_odd_n_wraps_both_ends():
    g = generate_example1(7)
    assert (1, 7) in g.edges_s and (7, 1) in g.edges_s


def test_example2_leader_and_followers():
    g = generate_example2(8)
    deps = dependency_sets(g)
    assert deps.direct[1] == tuple(range(1, 9))
    assert deps.gradient[1] == tuple(range(1, 9))  # every agent's Q depends on the leader
    for i in range(2, 9):
        assert deps.value[i] == (1, i)
        assert deps.gradient[i] == (i,)


def test_example2_smallest_case_observations():
    g = generate_example2(2)
    assert g.observation_in_neighbors(2) == (1, 2)
    assert g.observation_in_neighbors(1) == (1,)


@pytest.mark.parametrize("gen", [generate_example1, generate_example2])
def test_generators_reject_single_agent(gen):
    with pytest.raises(ValueError):
        gen(1)


def test_cost_blocks_single_owner():
    g = generate_example1(8)
    s_blocks, r_blocks = build_cost_blocks(g, 3, 3)
    np.testing.assert_allclose(s_blocks[1], 200.0 * np.eye(3))
    np.testing.assert_allclose(r_blocks[1], np.eye(3))


def test_cost_blocks_two_owner_structure():
    g = generate_example2(8)
    s_blocks, r_blocks = build_cost_blocks(g, 1, 1)
    np.testing.assert_allclose(s_blocks[2], [[100.0, -5.0], [-5.0, 100.0]])
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(s_blocks[2])), [95.0, 105.0])


def test_cost_blocks_control_dimension_differs_from_state():
    g = generate_example2(4)
    s_blocks, r_blocks = build_cost_blocks(g, 3, 2)
    assert s_blocks[2].shape == (6, 6)
    assert r_blocks[2].shape == (4, 4)


def test_cost_blocks_reject_pathological_neighborhood():
    n = 23
    star = [(j, 1) for j in range(1, n + 1)] + [(i, i) for i in range(1, n + 1)]
    loops = [(i, i) for i in range(1, n + 1)]
    g = build_coupling_graphs(n, loops, loops, star)
    with pytest.raises(ValueError, match="positive semi-definite"):
        build_cost_blocks(g, 1, 1)


# --- configuration ---------------------------------------------------------


def test_config_defaults_and_round_trip(tmp_path):
    cfg = parse_config({"n_agents": 8})
    assert cfg.example == "example1"
    assert cfg.t_rollout == 500 and cfg.n_x == 3
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    assert parse_config(json.loads(path.read_text())) == cfg
    assert load_config(path) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"n_agents": 4, "t_rollout_len": 100})
    with pytest.raises(ConfigError, match="unknown keys in dynamics"):
        parse_config({"n_agents": 4, "dynamics": {"a_diag": 0.9}})


def test_config_requires_exactly_one_topology_source():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(
            {
                "n_agents": 2,
                "example": "example1",
                "graphs": {"edges_s": [[1, 1]], "edges_o": [[1, 1]], "edges_c": [[1, 1]]},
            }
        )


def test_config_rejects_unknown_example_and_architecture():
    with pytest.raises(ConfigError, match="unknown example"):
        parse_config({"n_agents": 4, "example": "example9"})
    with pytest.raises(ValueError, match="unknown architecture"):
        parse_config({"n_agents": 4, "architectures": ["direct", "mystery"]})


def test_config_rejects_repeated_architectures_and_seeds():
    with pytest.raises(ConfigError, match=r"architectures lists \['direct'\]"):
        parse_config({"n_agents": 4, "architectures": ["direct", "direct"]})
    with pytest.raises(ConfigError, match=r"seeds lists \[0\]"):
        parse_config({"n_agents": 4, "seeds": [0, 1, 0]})
    # an alias is a different name for the same architecture, not a repeat
    cfg = parse_config({"n_agents": 4, "architectures": ["centralized", "undecomposed_direct"]})
    assert cfg.architectures == ("centralized", "undecomposed_direct")


def test_config_with_explicit_graphs_builds_system():
    loops = [[i, i] for i in (1, 2)]
    cfg = parse_config(
        {
            "n_agents": 2,
            "example": None,
            "graphs": {"edges_s": loops, "edges_o": loops, "edges_c": loops},
            "n_x": 1,
            "n_u": 1,
        }
    )
    system = cfg.build_system()
    assert system.nx_total == 2
    round_tripped = parse_config(cfg.to_json_dict())
    assert round_tripped == cfg


def test_config_rejects_out_of_range_graph_edges():
    with pytest.raises(Exception):
        parse_config(
            {
                "n_agents": 2,
                "example": None,
                "graphs": {"edges_s": [[3, 1]], "edges_o": [], "edges_c": []},
            }
        )


# --- runner and artifacts --------------------------------------------------


def small_config(**overrides):
    data = {
        "n_agents": 4,
        "example": "example1",
        "n_x": 1,
        "n_u": 1,
        "t_rollout": 150,
        "t_eval": 60,
        "n_iterations": 2,
        "alpha": 1e-6,
        "seeds": [0, 1],
        "architectures": ["indirect", "direct"],
    }
    data.update(overrides)
    return parse_config(data)


def test_zero_iteration_experiment_reports_initial_cost(tmp_path):
    table = run_experiment(small_config(n_iterations=0, seeds=[1]), tmp_path)
    assert len(table.curves) == 2  # one row per architecture
    for row in table.curves:
        assert row.iteration == 0 and np.isfinite(row.eval_cost)


def test_experiment_artifacts_round_trip_exactly(tmp_path):
    cfg = small_config()
    table = run_experiment(cfg, tmp_path)
    assert read_curves_csv(tmp_path / "curves.csv") == table.curves
    assert read_timing_csv(tmp_path / "timing.csv") == table.timing
    agents_csv = tmp_path / "indirect" / "seed_0" / "agents.csv"
    header = agents_csv.read_text().splitlines()[0].split(",")
    assert header == [
        "iteration",
        "agent",
        "eval_cost",
        "q_err_if_oracle_known",
        "rcond",
        "wall_ms_eval",
        "wall_ms_update",
        "flags",
    ]
    rows = [row.split(",") for row in agents_csv.read_text().splitlines()[1:]]
    assert rows and all(0.0 < float(row[4]) <= 1.0 for row in rows if row[-1] == "")


def test_experiment_without_oracle_marks_q_err_empty(tmp_path):
    run_experiment(small_config(seeds=[0]), tmp_path)
    rows = (tmp_path / "direct" / "seed_0" / "agents.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[3] == "" for row in rows)


def test_alias_pair_runs_once_per_seed_and_reports_under_both_names(tmp_path, monkeypatch):
    calls = []
    real_run = runner.run_malspi

    def counted(system, architecture, mconfig):
        calls.append((architecture, mconfig.seed))
        return real_run(system, architecture, mconfig)

    monkeypatch.setattr(runner, "run_malspi", counted)
    cfg = small_config(architectures=["undecomposed_direct", "indirect", "centralized"])
    table = run_experiment(cfg, tmp_path)
    assert calls == [
        (Architecture.CENTRALIZED, 0),
        (Architecture.CENTRALIZED, 1),
        (Architecture.INDIRECT, 0),
        (Architecture.INDIRECT, 1),
    ]
    alias = [r for r in table.curves if r.architecture == "undecomposed_direct"]
    central = [r for r in table.curves if r.architecture == "centralized"]
    assert len(alias) == len(central) == 2 * 3  # two seeds, iterations 0..2
    assert [(r.seed, r.iteration, r.eval_cost) for r in alias] == [
        (r.seed, r.iteration, r.eval_cost) for r in central
    ]
    assert [r.architecture for r in table.timing] == list(cfg.architectures)
    assert table.timing[0].mean_iteration_s == table.timing[2].mean_iteration_s
    assert read_curves_csv(tmp_path / "curves.csv") == table.curves
    for seed in (0, 1):
        same = [(tmp_path / name / f"seed_{seed}" / "agents.csv").read_text()
                for name in ("undecomposed_direct", "centralized")]
        assert same[0] == same[1]


def test_curves_identical_across_reruns(tmp_path):
    cfg = small_config(seeds=[3])
    t1 = run_experiment(cfg, tmp_path / "a")
    t2 = run_experiment(cfg, tmp_path / "b")
    assert t1.curves == t2.curves


def test_timing_benchmark_skips_oversized_centralized(tmp_path):
    cfg = small_config(architectures=["centralized", "indirect"], seeds=[0])
    cells = timing_benchmark(cfg, [4, 6], warmup=1, measured=1, centralized_max_n=4)
    by_key = {(c.architecture, c.n_agents): c for c in cells}
    assert by_key[("centralized", 6)].skipped
    assert by_key[("centralized", 6)].mean_iteration_s is None
    assert not by_key[("centralized", 4)].skipped
    path = tmp_path / "bench.csv"
    write_bench_csv(path, cells)
    assert read_bench_csv(path) == tuple(cells)


def test_bench_csv_round_trips_frozen_and_diverged_counts(tmp_path):
    # at T=10 every full-set regression (d=36) is underdetermined, so each of
    # the 4 agents is frozen in each of the 2 measured iterations
    cfg = small_config(architectures=["centralized"], seeds=[0], t_rollout=10)
    cells = timing_benchmark(cfg, [4], warmup=1, measured=2)
    assert cells[0].frozen_updates == 4 * 2
    assert cells[0].diverged_evals == 0
    cells.append(BenchCell("direct", 4, 10, 0.5, 0.25, 2, False, 1.5,
                           frozen_updates=3, diverged_evals=2))
    path = tmp_path / "bench.csv"
    write_bench_csv(path, cells)
    assert read_bench_csv(path) == tuple(cells)


@pytest.mark.parametrize("warmup,measured", [(-1, 1), (0, 0)])
def test_timing_benchmark_rejects_bad_iteration_counts(warmup, measured):
    with pytest.raises(ValueError, match="warmup >= 0 and measured >= 1"):
        timing_benchmark(small_config(), [4], warmup=warmup, measured=measured)


def test_timing_benchmark_auto_mode_keeps_regressions_determined():
    cfg = small_config(architectures=["centralized"], seeds=[0], t_rollout=10)
    cells = timing_benchmark(cfg, [4], warmup=0, measured=1, t_mode="auto")
    cell = cells[0]
    assert cell.t_rollout >= full_set_feature_dim(small_config()) + 50
    assert cell.n_measured == 1
