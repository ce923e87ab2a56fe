"""The names the benchmark in ``perfbench/`` hooks into must exist.

The benchmark times the library by rebinding call-site attributes
(``perfbench/tracing.SPANS``) and imports a few names in its set-up probe.
Deleting or renaming one of them would break ``perfbench/run.py --trace 1``
without failing any other test.  These tests only read ``perfbench/``.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

from malspi.config import parse_config
from malspi.policy_iteration import Architecture

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _resolve(module: str, attr_path: str):
    owner = importlib.import_module(module)
    for name in attr_path.split("."):
        owner = getattr(owner, name)
    return owner


def _traced_sites() -> list[tuple[str, str]]:
    # SPANS is a literal, so it is read without running the benchmark's code.
    for node in _parse("tracing.py").body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "SPANS":
            spans = ast.literal_eval(node.value)
            return sorted({site for sites in spans.values() for site in sites})
    raise AssertionError("perfbench/tracing.py defines no SPANS literal")


SITES = _traced_sites()


@pytest.mark.parametrize("module,attr_path", SITES, ids=[f"{m}:{a}" for m, a in SITES])
def test_every_traced_call_site_resolves(module, attr_path):
    assert callable(_resolve(module, attr_path))


def test_setup_probe_imports_resolve():
    tree = _parse("setup_probe.py")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("malspi")
        for alias in node.names
    ]
    assert ("malspi.graphs", "dependency_sets") in imported
    assert ("malspi.policy_iteration", "architecture_plans") in imported
    for module, name in imported:
        assert callable(_resolve(module, name)), f"{module}.{name}"
    assert callable(_resolve("malspi.policy_iteration", "Architecture.parse"))


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name}")


def test_lstdq_operator_counter_reads_bundle_properties():
    bundle_type = _resolve("malspi.lstdq", "RegressionBundle")
    counter = _function(_parse("tracing.py"), "_lstdq_operator_counts")
    read = {
        node.attr
        for node in ast.walk(counter)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "bundle"
    }
    assert {"d", "t_length"} <= read
    for attr in read:
        assert isinstance(getattr(bundle_type, attr, None), property), attr


def _workload_names() -> set[tuple[str, str]]:
    """Every malspi name workloads.py imports, or reaches as ``alias.name``."""
    tree = _parse("workloads.py")
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("malspi"):
            for alias in node.names:
                if node.module == "malspi":
                    modules[alias.asname or alias.name] = f"malspi.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.add((modules[node.value.id], node.attr))
    return names


def test_workload_names_resolve():
    names = _workload_names()
    assert {
        ("malspi.runner", "run_experiment"),
        ("malspi.runner", "read_curves_csv"),
        ("malspi.runner", "read_timing_csv"),
        ("malspi.config", "parse_config"),
        ("malspi.cli", "main"),
        ("malspi.verify", "lyapunov_iteration_oracle"),
        ("malspi.linalg", "svec_dim"),
    } <= names
    for module, name in sorted(names):
        assert callable(_resolve(module, name)), f"{module}.{name}"


def test_workload_configs_parse(tmp_path, monkeypatch):
    # A workload's config documents are the benchmark's input: each must
    # still parse once a name or key is deleted from the library.
    files = sorted(PERFBENCH.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = [name for name in ("workloads", "tracing") if name not in sys.modules]
    try:
        workloads = importlib.import_module("workloads")
        for name in ("full_set", "oracle", "decomposed"):
            for data in workloads.make_workload(name, 0, tmp_path).configs():
                config = parse_config(data)
                for architecture in config.architectures:
                    Architecture.parse(architecture)
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert sorted(PERFBENCH.rglob("*")) == files
