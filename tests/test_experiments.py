"""Example generators, configuration, experiment runner, CSV artifacts."""
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import malspi
from malspi.config import ConfigError, ExperimentConfig, load_config, parse_config
from malspi.examples import (
    CostConfig,
    DynamicsConfig,
    build_cost_blocks,
    generate_example1,
    generate_example2,
)
from malspi.graphs import build_coupling_graphs, dependency_sets, value_dependency_edges
from malspi import runner
from malspi.policy_iteration import MalspiConfig
from malspi.runner import (
    AgentRow,
    CurveRow,
    TimingRow,
    full_set_feature_dim,
    read_curves_csv,
    read_table,
    read_timing_csv,
    run_experiment,
    timing_benchmark,
    write_table,
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
    path.write_text('{"n_agents": 8, "example": "example1", "seeds": [0], "output_dir": null}')
    assert load_config(path) == cfg


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_readme_config_block_states_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    document = json.loads(re.sub(r"//[^\n]*", "", block))
    assert parse_config(document) == parse_config({"n_agents": 8})
    assert set(document) == _names(ExperimentConfig)
    assert set(document["dynamics"]) == _names(DynamicsConfig)
    assert set(document["cost"]) == _names(CostConfig)


def test_every_key_parses_to_its_value_and_reaches_the_run():
    document = {
        "n_agents": 5, "example": "example2", "n_x": 2, "n_u": 1,
        "dynamics": {"a_self": [[0.5, 0.1], [0.0, 0.4]], "b_self": [[1.0], [0.5]],
                     "coupling_scale": 0.02, "b_coupling_scale": 0.1},
        "cost": {"s_diag": 150.0, "s_off": -5.0}, "sigma_w": 0.5, "sigma_eta": 0.7,
        "t_rollout": 300, "t_eval": 200, "n_iterations": 4, "alpha": 2e-4, "zeta": 1e-5,
        "sigma0": 0.3, "architectures": ["direct", "centralized"], "seeds": [3, 1],
        "output_dir": "out", "oracle_diagnostics": True,
    }
    expected = ExperimentConfig(
        n_agents=5, example="example2", n_x=2, n_u=1,
        dynamics=DynamicsConfig(((0.5, 0.1), (0.0, 0.4)), ((1.0,), (0.5,)), 0.02, 0.1),
        cost=CostConfig(150.0, -5.0), sigma_w=0.5, sigma_eta=0.7, t_rollout=300, t_eval=200,
        n_iterations=4, alpha=2e-4, zeta=1e-5, sigma0=0.3,
        architectures=("direct", "centralized"), seeds=(3, 1), output_dir="out",
        oracle_diagnostics=True,
    )
    assert parse_config(document) == expected
    default = parse_config({"n_agents": 8})
    for section, reference, names in (
        (expected, default, _names(ExperimentConfig) - {"graphs"}),
        (expected.dynamics, default.dynamics, _names(DynamicsConfig)),
        (expected.cost, default.cost, _names(CostConfig)),
    ):
        assert [n for n in names if getattr(section, n) == getattr(reference, n)] == []
    shared = _names(MalspiConfig) & _names(ExperimentConfig)
    assert shared == {"n_iterations", "t_rollout", "t_eval", "sigma_eta", "alpha", "zeta",
                      "sigma0", "oracle_diagnostics"}
    run = expected.malspi_config(7)
    assert run.seed == 7
    assert all(getattr(run, key) == getattr(expected, key) for key in shared)
    # the learning knobs default to the run's defaults
    assert all(getattr(default, key) == getattr(MalspiConfig(), key) for key in shared)


def test_config_rejects_a_number_too_large_for_a_float():
    with pytest.raises(ConfigError, match=r"^alpha must be a number, got 1000"):
        parse_config({"n_agents": 2, "alpha": 10**400})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"n_agents": 4, "t_rollout_len": 100})
    with pytest.raises(ConfigError, match="unknown keys in dynamics"):
        parse_config({"n_agents": 4, "dynamics": {"a_diag": 0.9}})


def test_config_requires_exactly_one_topology_source():
    graphs = {"edges_s": [[1, 1]], "edges_o": [[1, 1]], "edges_c": [[1, 1]]}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({"n_agents": 2, "example": "example1", "graphs": graphs})
    # example1 is the default only when no graphs are given
    for example in ({}, {"example": None}):
        assert parse_config({"n_agents": 1, "graphs": graphs, **example}).example is None
        assert parse_config({"n_agents": 2, "graphs": None, **example}).example == "example1"


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
    rows = read_table(tmp_path / "indirect" / "seed_0" / "agents.csv", AgentRow)
    assert rows and all(0.0 < row.rcond <= 1.0 for row in rows if row.flags == "")


def test_experiment_without_oracle_marks_q_err_empty(tmp_path):
    run_experiment(small_config(seeds=[0]), tmp_path)
    rows = read_table(tmp_path / "direct" / "seed_0" / "agents.csv", AgentRow)
    assert rows and all(row.q_err_if_oracle_known is None for row in rows)


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
    write_table(path, TimingRow, cells)
    assert read_table(path, TimingRow) == tuple(cells)


def test_bench_csv_round_trips_frozen_and_diverged_counts(tmp_path):
    # at T=10 every full-set regression (d=36) is underdetermined, so each of
    # the 4 agents is frozen in each of the 2 measured iterations
    cfg = small_config(architectures=["centralized"], seeds=[0], t_rollout=10)
    cells = timing_benchmark(cfg, [4], warmup=1, measured=2)
    assert cells[0].frozen_updates == cells[0].attempted_updates == 4 * 2
    assert cells[0].diverged_evals == 0
    # run_experiment counts them over every iteration of every seed
    table = run_experiment(replace(cfg, seeds=(0, 1)), tmp_path)
    assert table.timing[0].frozen_updates == 4 * cfg.n_iterations * 2
    assert read_timing_csv(tmp_path / "timing.csv") == table.timing
    cells.append(TimingRow("direct", 4, 10, 0.5, 0.25, 2, False, 1.5,
                           frozen_updates=3, diverged_evals=2, attempted_updates=5))
    path = tmp_path / "bench.csv"
    write_table(path, TimingRow, cells)
    assert read_table(path, TimingRow) == tuple(cells)


@pytest.mark.parametrize("row_type,row,edit,message", [
    # a bench.csv row without its last two fields
    (TimingRow, TimingRow("direct", 4, 10, 0.5, 0.25, 2, frozen_updates=3),
     lambda lines: [lines[0], lines[1].rsplit(",", 2)[0]], "line 2: expected 11 fields, got 9"),
    # a curves.csv row with two extra fields, after two good ones
    (CurveRow, CurveRow("direct", 0, 0, 1.5, False),
     lambda lines: [*lines, lines[1], lines[1] + ",1,2"], "line 4: expected 5 fields, got 7"),
    (TimingRow, None, lambda lines: [], "line 1: expected the TimingRow header"),
])
def test_read_table_rejects_a_malformed_file(tmp_path, row_type, row, edit, message):
    path = tmp_path / "table.csv"
    write_table(path, row_type, [row] if row else [])
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
        read_table(path, row_type)


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


# Header lines of the tables, as documented under "Artifacts" in README.md.
HEADERS = {
    CurveRow: "architecture,seed,iteration,eval_cost,diverged",
    TimingRow: "architecture,n_agents,t_rollout,mean_iteration_s,median_iteration_s,"
               "n_measured,skipped,ratio_vs_indirect,frozen_updates,diverged_evals,"
               "attempted_updates",
    AgentRow: "iteration,agent,eval_cost,q_err_if_oracle_known,rcond,wall_ms_eval,"
              "wall_ms_update,flags",
}


def test_table_headers_are_pinned_and_checked_on_read(tmp_path):
    run_experiment(small_config(seeds=[0]), tmp_path)
    cells = timing_benchmark(small_config(seeds=[0]), [4], warmup=0, measured=1)
    write_table(tmp_path / "bench.csv", TimingRow, cells)
    tables = (("curves", CurveRow), ("timing", TimingRow), ("bench", TimingRow),
              ("indirect/seed_0/agents", AgentRow))
    for name, row_type in tables:
        path = tmp_path / f"{name}.csv"
        assert path.read_text().splitlines()[0] == HEADERS[row_type]
        assert read_table(path, row_type)
        for other in set(HEADERS) - {row_type}:
            with pytest.raises(ValueError, match=f"expected the {other.__name__} header"):
                read_table(path, other)


def test_experiment_writes_every_csv_through_one_call_site(tmp_path, monkeypatch):
    written = []
    real_write = runner.write_rows_csv

    def counted(path, header, rows):
        written.append(Path(path).relative_to(tmp_path).as_posix())
        return real_write(path, header, rows)

    monkeypatch.setattr(runner, "write_rows_csv", counted)
    cfg = small_config(architectures=["indirect", "centralized"])
    run_experiment(cfg, tmp_path)
    cells = [f"{a}/seed_{s}/agents.csv" for a in cfg.architectures for s in cfg.seeds]
    assert written == [*cells, "curves.csv", "timing.csv"]


# One run_experiment cell in a fresh interpreter, after holding a number of
# small arrays that moves every later heap allocation.
_CELL_SCRIPT = """
import json, sys
import numpy as np
held = [np.empty(n) for n in range(int(sys.argv[2]))]
from malspi.config import parse_config
from malspi.runner import run_experiment
run_experiment(parse_config(json.loads(sys.argv[3])), sys.argv[1])
"""


def test_recorded_rcond_is_byte_equal_across_processes(tmp_path):
    # centralized example1 N=8, n_x=n_u=2: one d=528 set, whose condition
    # estimate moved in its last bit with the LAPACK workspace's address
    config = {"n_agents": 8, "example": "example1", "n_x": 2, "n_u": 2,
              "dynamics": {"a_self": [[0.85, 0.01], [0.01, 0.85]]}, "t_rollout": 578,
              "t_eval": 100, "n_iterations": 3, "alpha": 4e-7, "seeds": [0],
              "architectures": ["centralized"]}
    src = str(Path(malspi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    columns = []
    for held in (0, 301):
        out = tmp_path / f"held_{held}"
        subprocess.run([sys.executable, "-c", _CELL_SCRIPT, str(out), str(held),
                        json.dumps(config)], check=True, env=env, timeout=300)
        with open(out / "centralized" / "seed_0" / "agents.csv", newline="") as fh:
            columns.append([row["rcond"] for row in csv.DictReader(fh)])
    assert len(columns[0]) == 24 and all(columns[0])
    assert columns[0] == columns[1]
