"""Layer spans recorded around calls into malspi's modules.

The benchmark leaves the library untouched.  A span is installed by
rebinding a function at the module (or class) attribute its callers look
it up under, so calls made from inside ``run_malspi``, ``run_experiment``
or the CLI go through a timing wrapper; leaving the ``ExitStack`` restores
every original.

Spans nest on one stack.  A span's ``s`` is its total duration and its
``self_s`` that duration minus the time covered by the spans it called,
so the ``self_s`` of all spans plus the time outside every span adds up
to the wall time of the traced region.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator


@contextmanager
def patched(module: str, attr_path: str, make_wrapper: Callable) -> Iterator[None]:
    """Rebind ``module.attr_path`` (``Class.method`` allowed) to a wrapper of it."""
    owner = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _lstdq_operator_counts(tracer: "Tracer", args, kwargs) -> None:
    bundle = args[0] if args else kwargs["bundle"]
    d, t = bundle.d, bundle.t_length
    tracer.add("computed.lstdq.feature_dim_sum", d)
    # Operator GEMM Phi' (Phi - Psi + F) plus one dense factorization.
    tracer.add("computed.lstdq.operator_flops", 2 * t * d * d + (4 * d**3) // 3)
    # Phi and Psi_plus, T x d float64 each.
    tracer.add("computed.lstdq.feature_bytes", 2 * t * d * 8)


def _lyapunov_counts(tracer: "Tracer", args, kwargs) -> None:
    x = args[0] if args else kwargs["x"]
    n = x.shape[0]
    # I - X kron X is an n^2 x n^2 float64 matrix.
    tracer.add("computed.linalg.kron_bytes", 8 * n**4)
    tracer.peak("computed.linalg.kron_bytes_max", 8 * n**4)


# Span name -> the (module, attribute) call sites that reach it.  A call site
# is the name a caller looks up at call time: the benchmark's own calls go
# through the defining module, library calls through the importing module.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "config.parse_config": (("malspi.config", "parse_config"), ("malspi.cli", "parse_config")),
    "config.ExperimentConfig.build_system": (("malspi.config", "ExperimentConfig.build_system"),),
    "graphs.dependency_sets": (
        ("malspi.policy_iteration", "dependency_sets"),
        ("malspi.cli", "dependency_sets"),
    ),
    "policy_iteration.architecture_plans": (("malspi.policy_iteration", "architecture_plans"),),
    "policy_iteration.run_malspi": (
        ("malspi.policy_iteration", "run_malspi"),
        ("malspi.runner", "run_malspi"),
    ),
    "system.rollout": (("malspi.policy_iteration", "rollout"),),
    "system.average_cost": (("malspi.policy_iteration", "average_cost"),),
    "lstdq.build_regression": (("malspi.policy_iteration", "build_regression"),),
    "lstdq.LstdqOperator": (("malspi.policy_iteration", "LstdqOperator"),),
    "lstdq.LstdqOperator.solve_cost": (("malspi.lstdq", "LstdqOperator.solve_cost"),),
    "policy_iteration.policy_gradient_update": (
        ("malspi.policy_iteration", "policy_gradient_update"),
    ),
    "system.embed_quadratic": (("malspi.policy_iteration", "embed_quadratic"),),
    "linalg.psd_project": (("malspi.policy_iteration", "psd_project"), ("malspi.lstdq", "psd_project")),
    "runner.run_experiment": (("malspi.runner", "run_experiment"),),
    "io.write_rows_csv": (("malspi.runner", "write_rows_csv"),),
    "cli.bounds": (("malspi.cli", "bounds.callback"),),
    "bounds.bound_inputs_from_subsystem": (("malspi.cli", "bound_inputs_from_subsystem"),),
    "system.extract_subsystem": (
        ("malspi.lstdq", "extract_subsystem"),
        ("malspi.bounds", "extract_subsystem"),
        ("malspi.policy_iteration", "extract_subsystem"),
    ),
    "linalg.stability_report": (("malspi.bounds", "stability_report"),),
    "linalg.lyapunov_solve": (("malspi.bounds", "lyapunov_solve"), ("malspi.system", "lyapunov_solve")),
    "system.true_q_matrix": (("malspi.bounds", "true_q_matrix"), ("malspi.policy_iteration", "true_q_matrix")),
}

COUNT_HOOKS = {
    "lstdq.LstdqOperator": _lstdq_operator_counts,
    "linalg.lyapunov_solve": _lyapunov_counts,
}

# Exceptions raised through a span that the program turns into a frozen update.
FAILURE_COUNTERS = {
    ("lstdq.build_regression", "UnderdeterminedError"): "lstdq.underdetermined",
    ("lstdq.LstdqOperator", "SingularOperatorError"): "lstdq.singular",
}

# Counter name -> unit.
COUNTERS = {
    "lstdq.singular": "count",
    "lstdq.underdetermined": "count",
    "computed.lstdq.feature_dim_sum": "count",
    "computed.lstdq.operator_flops": "flop",
    "computed.lstdq.feature_bytes": "B",
    "computed.linalg.kron_bytes": "B",
    "computed.linalg.kron_bytes_max": "B",
}


class Tracer:
    """Aggregated spans (calls, total and self seconds) and counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self._children: list[float] = []

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] += value

    def peak(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters[counter], value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counter = FAILURE_COUNTERS.get((name, type(exc).__name__))
                if counter is not None:
                    self.counters[counter] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                record = self.spans[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child

        return traced

    def install(self, stack: ExitStack) -> None:
        """Install every span; they are removed when ``stack`` closes."""
        for name, sites in SPANS.items():
            for module, attr_path in sites:
                stack.enter_context(
                    patched(module, attr_path, lambda fn, name=name: self._wrap(name, fn))
                )

    def snapshot(self) -> dict[str, float]:
        """Flat ``<span>.{calls,s,self_s}`` and counter values since the last reset."""
        out: dict[str, float] = {}
        for name in SPANS:
            calls, total, own = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        out.update(self.counters)
        return out
