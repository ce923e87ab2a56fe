"""What a fresh interpreter loads, and that each module imports on its own.

The package root imports nothing, so set-up (``perfbench/setup_probe.py``'s
sequence: parse a config, build the system, derive the dependency sets and
each architecture's plans) loads only the malspi modules it uses, and
never SciPy's linear algebra: the functions that call SciPy's BLAS/LAPACK
import it themselves.  A fresh interpreter runs that sequence, then
``malspi graphs`` and ``malspi bounds``, noting which modules are loaded
after each, then one ``run_malspi`` iteration per architecture, whose
records must equal, bit for bit, the same runs made here.  Each module is
also imported alone in a fresh interpreter, so that no import cycle hides
behind another module's import order.
"""
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from malspi.config import parse_config
from malspi.policy_iteration import Architecture, run_malspi

TESTS = Path(__file__).resolve().parent
MODULES = sorted(p.stem for p in (TESTS.parent / "src" / "malspi").glob("*.py")
                 if p.stem != "__init__")
# Not bounds, cli, io, runner or verify.
SETUP_MODULES = [f"malspi.{m}" for m in (
    "config", "examples", "graphs", "linalg", "lstdq", "policy_iteration", "system")]

CONFIG = {
    "n_agents": 4,
    "example": "example2",
    "n_x": 1,
    "n_u": 1,
    "t_rollout": 120,
    "t_eval": 50,
    "n_iterations": 1,
    "alpha": 1e-6,
    "seeds": [0],
    "architectures": ["centralized", "direct", "indirect"],
}

# Arguments: the config file, the file the runs' records are pickled to.
_SCRIPT = """
import json, pickle, sys
from malspi.config import parse_config
from malspi.graphs import dependency_sets
from malspi.policy_iteration import Architecture, architecture_plans, run_malspi

path = sys.argv[1]
with open(path) as f:
    config = parse_config(json.load(f))
system = config.build_system()
deps = dependency_sets(system.graphs)
for name in config.architectures:
    architecture_plans(Architecture.parse(name), deps, config.n_agents)
loaded = {"setup": "scipy.linalg" in sys.modules,
          "setup_modules": sorted(m for m in sys.modules if m.startswith("malspi."))}

from click.testing import CliRunner
from malspi.cli import main
for args in (["graphs", path], ["bounds", path, "--epsilon", "0.5"]):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
loaded["graphs_and_bounds"] = "scipy.linalg" in sys.modules

runs = {name: run_malspi(system, Architecture.parse(name), config.malspi_config(0))
        for name in config.architectures}
loaded["run"] = "scipy.linalg" in sys.modules
with open(sys.argv[2], "wb") as f:
    pickle.dump(runs, f)
print(json.dumps(loaded))
"""


def _bits(records):
    """Each iterate's gain bytes and cost, and each agent's rcond and flags, exactly."""
    def exact(value):
        return None if value is None else float.hex(value)

    return [(r.gain.tobytes(), exact(r.eval_cost),
             [(d.agent, exact(d.rcond), d.flags) for d in r.agents]) for r in records]


def _fresh_python(*args):
    """Run ``python -c`` in a fresh interpreter that imports malspi from this checkout."""
    env = dict(os.environ)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", *args],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return done


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    _fresh_python(f"import malspi.{module}")


def test_scipy_linalg_is_loaded_by_the_first_run_only(tmp_path):
    # and set-up loads exactly SETUP_MODULES
    config_path, runs_path = tmp_path / "config.json", tmp_path / "runs.pickle"
    config_path.write_text(json.dumps(CONFIG))
    done = _fresh_python(_SCRIPT, str(config_path), str(runs_path))
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"setup": False, "setup_modules": SETUP_MODULES,
                      "graphs_and_bounds": False, "run": True}

    fresh = pickle.loads(runs_path.read_bytes())
    config = parse_config(CONFIG)
    system = config.build_system()
    for name in config.architectures:
        here = run_malspi(system, Architecture.parse(name), config.malspi_config(0))
        assert _bits(fresh[name]) == _bits(here), name
