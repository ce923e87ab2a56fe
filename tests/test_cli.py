"""Command-line interface surfaces."""
import gc
import json
import tracemalloc
from collections import Counter

import click
import pytest
from click.testing import CliRunner

from malspi import bounds as bounds_mod
from malspi import cli, examples, linalg
from malspi.cli import main
from malspi.config import load_config, parse_config
from malspi.graphs import dependency_sets
from malspi.runner import read_timing_csv
from malspi.system import extract_subsystem, zero_policy


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "n_agents": 4,
                "example": "example2",
                "n_x": 1,
                "n_u": 1,
                "t_rollout": 120,
                "t_eval": 50,
                "n_iterations": 1,
                "alpha": 1e-6,
                "seeds": [0],
                "architectures": ["indirect"],
            }
        )
    )
    return path


def test_graphs_subcommand_reports_sets_and_conditions(config_file):
    result = CliRunner().invoke(main, ["graphs", str(config_file)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["n_agents"] == 4
    leader = report["agents"]["1"]
    assert leader["direct_set"] == [1, 2, 3, 4]
    assert leader["cond_a"] is False
    follower = report["agents"]["2"]
    assert follower["value_set"] == [1, 2]
    assert follower["partners"]["2"]["cond_b"] is False


def test_bounds_subcommand_emits_calculators(config_file):
    result = CliRunner().invoke(
        main, ["bounds", str(config_file), "--agent", "2", "--epsilon", "0.5"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    entry = report["2"]
    assert entry["direct"]["t_min"] > 0
    assert entry["indirect"]["t_epsilon"] > 0
    # follower's value set equals its direct set, so the bounds coincide
    assert entry["indirect"]["t_min"] == pytest.approx(entry["direct"]["t_min"])


def _restricted_bytes(sub):
    """The restricted matrices a bound measurement reads, as comparable bytes."""
    return tuple((m.shape, m.tobytes()) for m in (sub.a, sub.b, sub.k, sub.s, sub.r))


def _bounds_with_counts(path):
    """Run ``malspi bounds --epsilon 0.1`` on ``path``, counting measurements.

    Checks the JSON against a reference measured per (agent set, owners)
    pair without any sharing.  Returns each pair the report needs mapped to
    its restricted system, the restricted systems the CLI measured, the
    number of stability certificates it took, and the pairs it extracted.
    ``malspi.bounds`` may not extract: it measures the CLI's extraction.
    """
    config = load_config(path)
    system = config.build_system()
    deps = dependency_sets(system.graphs)
    policy = zero_policy(system.graphs, system.n_x, system.n_u)

    def measure(agent_set, owners):
        return bounds_mod.bound_inputs_from_subsystem(
            extract_subsystem(system, policy, agent_set, owners),
            sigma_eta=config.sigma_eta, norm_sigma0=config.sigma0,
        )

    reference = {}
    pairs = set()
    for i in system.graphs.agents:
        grad_set = deps.gradient[i]
        members = [(deps.value[j], (j,)) for j in grad_set]
        pairs.update([(deps.direct[i], grad_set), *members])
        reference[str(i)] = {
            "direct_set": list(deps.direct[i]),
            "gradient_set": list(grad_set),
            "direct": bounds_mod.sample_bound_direct(
                measure(deps.direct[i], grad_set), epsilon=0.1).to_dict(),
            "indirect": bounds_mod.sample_bound_indirect(
                [measure(*m) for m in members], epsilon=0.1).to_dict(),
        }
    systems = {pair: _restricted_bytes(extract_subsystem(system, policy, *pair))
               for pair in pairs}
    measured = []
    certified = []
    extracted = []

    def counted_extract(system, policy, agent_set, owners=(), **kwargs):
        extracted.append((tuple(agent_set), tuple(owners)))
        return extract_subsystem(system, policy, agent_set, owners, **kwargs)

    def counted_inputs(sub, **kwargs):
        measured.append(_restricted_bytes(sub))
        return bounds_mod.bound_inputs_from_subsystem(sub, **kwargs)

    def counted_report(mat):
        certified.append(mat.shape[0])
        return linalg.stability_report(mat)

    def no_extraction(*args, **kwargs):
        raise AssertionError("malspi.bounds extracted a subsystem")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "bound_inputs_from_subsystem", counted_inputs)
        patch.setattr(cli, "extract_subsystem", counted_extract)
        patch.setattr(bounds_mod, "extract_subsystem", no_extraction)
        patch.setattr(bounds_mod, "stability_report", counted_report)
        result = CliRunner().invoke(main, ["bounds", str(path), "--epsilon", "0.1"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == json.loads(json.dumps(reference))
    return systems, measured, len(certified), extracted


def test_bounds_measures_each_distinct_set_once(tmp_path):
    for example, n_agents, n_pairs, n_systems in [("example2", 6, 7, 3), ("example1", 8, 12, 6)]:
        path = tmp_path / f"{example}.json"
        path.write_text(json.dumps({"n_agents": n_agents, "example": example}))
        systems, measured, certified, extracted = _bounds_with_counts(path)
        # Identical agents restrict many pairs to the same matrices.
        assert (len(systems), len(set(systems.values()))) == (n_pairs, n_systems)
        # Each pair is extracted once, and its subsystem is what is measured.
        assert sorted(extracted) == sorted(systems)
        # One measurement per distinct restricted system, whichever pair
        # reaches it first, with one stability certificate each.
        assert Counter(measured) == Counter(set(systems.values()))
        assert certified == n_systems


def test_bounds_never_shares_a_measurement_between_different_matrices(tmp_path, monkeypatch):
    odd = 4
    build_cost_blocks = examples.build_cost_blocks

    def cost_blocks_with_odd_follower(*args, **kwargs):
        s_blocks, r_blocks = build_cost_blocks(*args, **kwargs)
        return {**s_blocks, odd: 2.0 * s_blocks[odd]}, r_blocks

    monkeypatch.setattr(examples, "build_cost_blocks", cost_blocks_with_odd_follower)
    path = tmp_path / "example2.json"
    path.write_text(json.dumps({"n_agents": 6, "example": "example2"}))
    systems, measured, _, _ = _bounds_with_counts(path)
    # Followers 2, 3, 5, 6 still share one system; follower 4 has its own
    # measurement, and _bounds_with_counts checked its numbers against the
    # uncached reference.
    followers = {systems[((1, j), (j,))] for j in (2, 3, 5, 6)}
    assert len(followers) == 1 and systems[((1, odd), (odd,))] not in followers
    assert set(measured) == set(systems.values())
    assert len(set(systems.values())) == 4


def test_bounds_invocations_keep_no_output_alive(tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(json.dumps({"n_agents": 24, "example": "example2"}))
    runner = CliRunner()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        # Traced warm-up invocations fill the caches and free lists that
        # first calls allocate (NumPy keeps freed small buffers), so the
        # baseline already holds them.
        for _ in range(5):
            first = runner.invoke(main, ["bounds", str(path)])
            assert first.exit_code == 0, first.output
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            result = runner.invoke(main, ["bounds", str(path)])
            assert result.output == first.output
        del result
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert growth < len(first.output), f"20 invocations kept {growth} bytes alive"


def test_verbose_applies_to_each_invocation(config_file, tmp_path):
    runner = CliRunner()
    plain = runner.invoke(main, ["graphs", str(config_file)])
    assert plain.exit_code == 0, plain.output
    verbose = runner.invoke(
        main, ["--verbose", "run", str(config_file), "--output", str(tmp_path / "a")])
    assert verbose.exit_code == 0, verbose.output
    assert "running indirect seed 0" in verbose.stderr
    quiet = runner.invoke(main, ["run", str(config_file), "--output", str(tmp_path / "b")])
    assert quiet.exit_code == 0, quiet.output
    assert "running" not in quiet.stderr


@pytest.mark.parametrize("command", ["graphs", "bounds"])
@pytest.mark.parametrize("agent", ["0", "9"])
def test_out_of_range_agent_is_a_usage_error(config_file, command, agent):
    result = CliRunner().invoke(main, [command, str(config_file), "--agent", agent])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback
    assert f"agent {agent} is outside 1..4" in result.output
    assert "--agent" in result.output


def test_run_subcommand_writes_artifacts(config_file, tmp_path):
    out = tmp_path / "results"
    result = CliRunner().invoke(main, ["run", str(config_file), "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "curves.csv").exists()
    assert (out / "timing.csv").exists()
    assert (out / "indirect" / "seed_0" / "agents.csv").exists()


def test_run_prints_update_counts_for_each_architecture(config_file, tmp_path):
    result = CliRunner().invoke(
        main, ["run", str(config_file), "--output", str(tmp_path), "--arch", "indirect",
               "--arch", "centralized"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()[1:]
    assert [line.split()[0] for line in lines] == ["indirect", "centralized"]
    assert all("frozen updates 0 of 4, diverged evals 0" in line for line in lines)


def test_run_prints_frozen_updates_of_those_attempted(config_file, tmp_path):
    # at T=20 every full-set regression (d=36) is underdetermined: each
    # centralized update is frozen, and the direct leader's, whose direct set
    # is the whole team
    document = json.loads(config_file.read_text())
    config_file.write_text(json.dumps({**document, "t_rollout": 20, "n_iterations": 2}))
    result = CliRunner().invoke(
        main, ["run", str(config_file), "--output", str(tmp_path), "--arch", "indirect",
               "--arch", "centralized", "--arch", "direct"]
    )
    assert result.exit_code == 0, result.output
    counts = [line.split("; ")[1] for line in result.output.splitlines()[1:]]
    assert counts == [f"frozen updates {frozen} of 8, diverged evals 0" for frozen in (0, 8, 2)]
    timing = read_timing_csv(tmp_path / "timing.csv")
    assert [(r.frozen_updates, r.attempted_updates) for r in timing] == [(0, 8), (8, 8), (2, 8)]


def test_run_respects_environment_output_root(config_file, tmp_path):
    env_root = tmp_path / "from_env"
    result = CliRunner().invoke(
        main, ["run", str(config_file)], env={"MALSPI_OUTPUT_ROOT": str(env_root)}
    )
    assert result.exit_code == 0, result.output
    assert (env_root / "curves.csv").exists()


def test_run_overrides_seed_and_architecture(config_file, tmp_path):
    out = tmp_path / "override"
    result = CliRunner().invoke(
        main,
        ["run", str(config_file), "--output", str(out), "--seed", "7",
         "--arch", "direct", "--n-agents", "3"],
    )
    assert result.exit_code == 0, result.output
    assert (out / "direct" / "seed_7" / "agents.csv").exists()
    assert not (out / "indirect").exists()


def test_bench_subcommand_writes_table(config_file, tmp_path):
    out = tmp_path / "bench_out"
    result = CliRunner().invoke(
        main,
        ["bench", str(config_file), "--n-agents", "3", "--warmup", "0",
         "--measured", "1", "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "bench.csv").exists()
    assert "N=3" in result.output


@pytest.mark.parametrize("option,value", [("--warmup", "-1"), ("--measured", "0")])
def test_bench_rejects_bad_iteration_counts_before_running(config_file, tmp_path, option, value):
    out = tmp_path / "bench_out"
    result = CliRunner().invoke(
        main, ["bench", str(config_file), "--n-agents", "3", option, value, "--output", str(out)]
    )
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert not out.exists()


def test_bad_config_fails_loudly(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_agents": 2, "mystery_key": 1}))
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code != 0


def _explicit_graphs(**edges):
    return {"n_agents": 2, "example": None,
            "graphs": {"edges_s": [], "edges_o": [], "edges_c": [[1, 1], [2, 2]], **edges}}


# The one-line error for an unstable plant, per command; bench runs it at 3 agents.
UNSTABLE = {
    "run": "initial policy does not stabilize the system (spectral radius 1.5)",
    "bench": "initial policy does not stabilize the system (spectral radius 1.51)",
    "bounds": "Lyapunov equation has no bounded solution (spectral radius 1.5)",
}


@pytest.mark.parametrize("command", [["run"], ["graphs"], ["bounds"], ["bench", "--n-agents", "3"]])
def test_config_error_is_a_one_line_cli_error(tmp_path, command):
    path = tmp_path / "bad.json"
    for config, message in [
        ({"n_agents": 2, "mystery": 1}, "unknown keys in configuration: ['mystery']"),
        ({"n_agents": 2, "architectures": ["foo"]}, "architectures: unknown architecture 'foo'; "
         "expected one of: centralized, direct, indirect"),
        ({"n_agents": 2, "architectures": ["undecomposed_direct"]},
         "architectures: unknown architecture 'undecomposed_direct'; "
         "expected one of: centralized, direct, indirect"),
        ({"n_agents": "x"}, "n_agents must be an integer, got 'x'"),
        ({"n_agents": 2.7}, "n_agents must be an integer, got 2.7"),
        ({"n_agents": 2, "seeds": [0.9, 1.2]}, "seeds must be an integer, got 0.9"),
        ({"n_agents": 2, "t_rollout": True}, "t_rollout must be an integer, got True"),
        ({"n_agents": 2, "alpha": False}, "alpha must be a number, got False"),
        ({"n_agents": 2, "force_full_sets": True},
         "unknown keys in configuration: ['force_full_sets']"),
        ({"n_agents": 2, "oracle_diagnostics": "false"},
         "oracle_diagnostics must be true or false, got 'false'"),
        ({"n_agents": 2, "sigma_eta": float("nan")}, "sigma_eta must be finite, got nan"),
        ({"n_agents": 2, "alpha": float("inf")}, "alpha must be finite, got inf"),
        ({"n_agents": 2, "dynamics": {"coupling_scale": float("-inf")}},
         "dynamics.coupling_scale must be finite, got -inf"),
        ({"n_agents": 2, "t_eval": 0}, "t_eval must be at least 1, got 0"),
        ({"n_agents": 2, "t_rollout": 0}, "t_rollout must be at least 1, got 0"),
        ({"n_agents": 2, "sigma_w": -1}, "sigma_w must be nonnegative, got -1.0"),
        ({"n_agents": 2, "sigma0": -1}, "sigma0 must be nonnegative, got -1.0"),
        ({"n_agents": 2, "zeta": -1}, "zeta must be nonnegative, got -1.0"),
        ({"n_agents": 2, "alpha": -1.0}, "alpha must be nonnegative, got -1.0"),
        ({"n_agents": 2, "n_iterations": -1}, "n_iterations must be nonnegative, got -1"),
        ({"n_agents": 2, "n_x": 0}, "n_x must be at least 1, got 0"),
        (_explicit_graphs(edges_s=[["a", 1]]), "graphs.edges_s must be an integer, got 'a'"),
        (_explicit_graphs(edges_o=[[1, 2, 3]]),
         "graphs.edges_o: edge [1, 2, 3] is not a (from, to) pair"),
        (_explicit_graphs(edges_c=5), "graphs.edges_c must be a list, got 5"),
        (_explicit_graphs(edges_s=[[1, 5]]),
         "graphs: edges_s: edge (1, 5) has an endpoint outside 1..2"),
        ({"n_agents": 2, "n_x": 2, "dynamics": {"a_self": [[1, "x"], [0, 1]]}},
         "dynamics.a_self must be a number, got 'x'"),
        ({"n_agents": 2, "n_x": 2, "dynamics": {"a_self": [[1, True], [0, 1]]}},
         "dynamics.a_self must be a number, got True"),
        ({"n_agents": 2, "n_x": 2, "dynamics": {"a_self": [[1, 0]]}},
         "dynamics.a_self must be 2x2, got rows of lengths [2]"),
        ({"n_agents": 2, "n_x": 2, "n_u": 1, "dynamics": {"b_self": [[1, 0], [0, 1]]}},
         "dynamics.b_self must be 2x1, got rows of lengths [2, 2]"),
        ({"n_agents": 2, "seeds": 5}, "seeds must be a list, got 5"),
        ({"n_agents": 2, "seeds": [-1]}, "seeds must be nonnegative, got -1"),
        ({"n_agents": 2, "architectures": "direct"}, "architectures must be a list, got 'direct'"),
        ({"n_agents": 1}, "n_agents: example 1 needs at least 2 agents, got 1"),
        ({"n_agents": 1, "example": "example2"},
         "n_agents: example 2 needs at least 2 agents, got 1"),
        ({"n_agents": 2, "output_dir": 5}, "output_dir must be a string or null, got 5"),
        # a section must be an object and a name a string
        ({"n_agents": 2, "dynamics": 5}, "dynamics must be an object, got 5"),
        ({"n_agents": 2, "dynamics": []}, "dynamics must be an object, got []"),
        ({"n_agents": 2, "cost": "x"}, "cost must be an object, got 'x'"),
        ({"n_agents": 2, "graphs": 5}, "graphs must be an object, got 5"),
        ({"n_agents": 2, "example": ["example1"]},
         "example must be a string or null, got ['example1']"),
        ({"n_agents": 2, "architectures": [["direct"]]},
         "architectures must be a string, got ['direct']"),
    ] + ([] if command[0] == "graphs" else [
        # only the commands that build the system need a valid cost and a stable plant
        ({"n_agents": 2, "cost": {"s_diag": -5}},
         "cost: s_diag -5.0 and s_off -10.0 leave the cost block of agent 1 not positive "
         "semi-definite (cost neighborhood size 1, min eig -5)"),
        ({"n_agents": 2, "n_x": 1, "dynamics": {"a_self": [[1.5]]}}, UNSTABLE[command[0]]),
    ]) + ([] if command[0] != "bounds" else [
        ({"n_agents": 2, "sigma_eta": 0},
         "bounds needs 0 < sigma_eta <= sigma_w, got sigma_eta 0.0 and sigma_w 1.0"),
        ({"n_agents": 2, "sigma_eta": 2, "sigma_w": 1.5},
         "bounds needs 0 < sigma_eta <= sigma_w, got sigma_eta 2.0 and sigma_w 1.5"),
        # the bounds divide by the closed-loop spectral radius, here 0 and
        # 1e-100, neither above the floor at which stability_report measures tau
        ({"n_agents": 4, "example": "example2", "n_x": 1, "n_u": 1,
          "dynamics": {"a_self": [[0.0]], "coupling_scale": 0.0}},
         "the bounds for agent set [1, 2, 3, 4] divide by rho (spectral radius 0)"),
        ({"n_agents": 4, "example": "example2", "n_x": 1, "n_u": 1,
          "dynamics": {"a_self": [[1e-100]], "coupling_scale": 0.0}},
         "the bounds for agent set [1, 2, 3, 4] divide by rho (spectral radius 1e-100)"),
    ]):
        path.write_text(json.dumps(config))
        result = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not a traceback
        assert result.output == f"Error: {message}\n"


@pytest.mark.parametrize("document,n_list,message", [
    (_explicit_graphs(), ["2", "3"],
     "explicit graphs cannot be rescaled; use a named example for benchmarks"),
    ({"n_agents": 2}, ["4", "4"], "agent counts [4] are listed more than once"),
    ({"n_agents": 2}, ["4", "1"], "n_agents: example 1 needs at least 2 agents, got 1"),
], ids=["explicit_graphs", "repeated", "too_few_agents"])
def test_bench_checks_every_agent_count_before_running(tmp_path, monkeypatch, document, n_list,
                                                       message):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(document))
    runs = []
    monkeypatch.setattr("malspi.runner.run_malspi", lambda *args: runs.append(args))
    out = tmp_path / "bench_out"
    options = [opt for n in n_list for opt in ("--n-agents", n)]
    result = CliRunner().invoke(main, ["bench", str(path), *options, "--output", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # reported, not a traceback
    assert result.output == f"Error: {message}\n"
    assert runs == [] and not out.exists()


def test_config_that_is_not_utf8_is_a_one_line_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {path} is not UTF-8 text: ")
    assert result.output.count("\n") == 1


def test_repeated_seed_override_is_a_cli_error(config_file, tmp_path):
    result = CliRunner().invoke(
        main, ["run", str(config_file), "--seed", "0", "--seed", "0",
               "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: seeds lists [0] more than once\n"


@pytest.mark.parametrize("option", ["--epsilon", "--o-tilde"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bounds_rejects_nonpositive_options(config_file, option, value):
    result = CliRunner().invoke(main, ["bounds", str(config_file), option, value])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback
    assert f"Invalid value for '{option}': {float(value)} is not in the range x>0." in result.output


@pytest.mark.parametrize("option", ["--epsilon", "--o-tilde"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bounds_rejects_nonfinite_options(config_file, option, value):
    # FloatRange alone let NaN through, and the report printed "t_min": NaN
    result = CliRunner().invoke(main, ["bounds", str(config_file), option, value])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == (
        f"Error: Invalid value for '{option}': {value} is not a finite number."
    )


@pytest.mark.parametrize("options,message", [
    (["--seed", "-1"], "seeds must be nonnegative, got -1"),
    (["--n-agents", "1"], "n_agents: example 2 needs at least 2 agents, got 1"),
])
def test_overrides_are_validated_like_the_config(config_file, tmp_path, options, message):
    result = CliRunner().invoke(
        main, ["run", str(config_file), *options, "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {message}\n"


def test_overrides_match_a_reparsed_document(config_file, tmp_path):
    config = load_config(config_file)
    document = json.loads(config_file.read_text())
    data = {**document, "seeds": [7, 3], "architectures": ["direct"], "n_agents": 6}
    assert cli._apply_overrides(config, (7, 3), ("direct",), 6) == parse_config(data)
    explicit = parse_config({**data, "example": None, "graphs": {
        "edges_s": [[1, 1]], "edges_o": [[1, 1]], "edges_c": [[1, 1]]}, "n_agents": 1})
    with pytest.raises(click.ClickException, match="explicit graphs"):
        cli._apply_overrides(explicit, (), (), 2)
