"""The microbenchmarks in ``tests/bench_*.py`` still run.

Their file names keep them out of the default test collection, so an API
change could break them without failing any collected test.  This runs
each benchmark body once, untimed.
"""
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_microbenchmarks_run_once():
    files = sorted(str(p) for p in TESTS.glob("bench_*.py"))
    assert files
    env = dict(os.environ)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--benchmark-disable", "-p", "no:cacheprovider",
         *files],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
