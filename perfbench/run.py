"""malspi benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is full_set, oracle or decomposed (README.md says what each
stresses and why decomposed is not gated), or ``all`` to run every
workload, each in a fresh process.
Run it from anywhere inside a checkout: it imports malspi from ``src/``
next to this directory and writes scratch files only under the checkout.

Each workload runs in its own process with the BLAS thread count pinned to
1 before numpy loads.  It repeats one unit of work (a rep) for S seconds
on inputs made from seed N, then checks the outputs outside the timed
region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times
the first half of the reps untraced and the second half with layer spans,
and reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("full_set", "oracle", "decomposed")
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_REPS = 2
CHILD_TIMEOUT_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_runtime_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (numpy's and scipy's copies)."""
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(mod.__file__), os.pardir, mod.__name__ + ".libs", "*openblas*")
        for path in glob.glob(pattern):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(configs: list[dict]) -> list[dict]:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters (import + build)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(configs)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_reps(rep, seconds: float, min_reps: int) -> list:
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(rep())
    return reps


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name in tracing.COUNTERS:
        return tracing.COUNTERS[name]
    if name.endswith(".calls") or name.startswith("updates."):
        return "count"
    return "s"


def print_common(workload, reps, checks) -> None:
    print(f"reps: {len(reps)}, rep seconds median {statistics.median(r.wall_s for r in reps):.4f} "
          f"(min {min(r.wall_s for r in reps):.4f}, max {max(r.wall_s for r in reps):.4f})")
    for check in checks:
        print(f"check {check.name}: {'PASS' if check.passed else 'FAIL'} ({check.detail})")


def end_to_end(workload, setup, reps) -> dict:
    setup_s = statistics.median(s["import_s"] + s["build_s"] for s in setup)
    run_s = statistics.median(r.wall_s for r in reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(run_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(f"metric setup_s = {setup_s:.4f} s (median of {len(setup)} fresh interpreters: "
          f"import {statistics.median(s['import_s'] for s in setup):.4f} s, "
          f"config to plans {statistics.median(s['build_s'] for s in setup):.4f} s)")
    print(f"metric run_s = {run_s:.4f} s (median of {len(reps)} reps)")
    print(f"metric peak_rss_mb = {peak_rss_mb:.1f} MB")
    cells = [c for r in reps for c in r.cell_iter_s]
    if cells:
        by_arch: dict[str, list[float]] = {}
        for arch, secs in cells:
            by_arch.setdefault(arch, []).append(secs)
        breakdown = ", ".join(f"{a} {statistics.median(v):.4f} s (n={len(v)})" for a, v in by_arch.items())
        print(f"metric iter_s_p50 = {statistics.median(s for _, s in cells):.4f} s "
              f"(median of {len(cells)} cells; {breakdown})")
    else:
        print("metric iter_s_p50 = n/a (no policy iteration in this workload)")
    ops_attempted = sum(r.ops.attempted for r in reps)
    ops_failed = sum(r.ops.failed for r in reps)
    frozen = sum(r.ops.frozen for r in reps)
    diverged = sum(r.ops.diverged for r in reps)
    print(f"metric fail_frac = {ops_failed / max(ops_attempted, 1):.6f} "
          f"({ops_failed} of {ops_attempted} operations before checks: "
          f"{frozen} frozen updates, {diverged} diverged evaluations, "
          f"{sum(r.ops.bad_reports for r in reps)} bad bound reports)")
    finals = reps[0].final_costs
    if finals:
        print(f"metric eval_cost_final = {statistics.fmean(finals)!r} (mean over {len(finals)} cells)")
    else:
        print("metric eval_cost_final = n/a (no policy iteration in this workload)")
    return metrics


def per_layer(workload, setup, untraced, traced, snapshots) -> dict:
    layers: dict[str, float] = {}
    for key in snapshots[0]:
        values = [snap[key] for snap in snapshots]
        layers[key] = max(values) if key.endswith("_max") else statistics.fmean(values)
    layers["updates.attempted"] = statistics.fmean(r.ops.updates for r in traced)
    layers["updates.frozen"] = statistics.fmean(r.ops.frozen for r in traced)
    traced_s = statistics.fmean(r.wall_s for r in traced)
    untraced_s = statistics.fmean(r.wall_s for r in untraced)
    self_sum = sum(layers[f"{name}.self_s"] for name in tracing.SPANS)
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    layers["setup.build_s"] = statistics.median(s["build_s"] for s in setup)
    layers["trace.run_s"] = traced_s
    layers["trace.untraced_run_s"] = untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.unattributed_s"] = traced_s - self_sum

    print(f"traced reps: {len(traced)} (mean {traced_s:.4f} s); untraced reps: {len(untraced)} "
          f"(mean {untraced_s:.4f} s); tracing overhead {traced_s - untraced_s:+.4f} s per rep")
    print("per rep, by self time:  span  calls  s  self_s  share of traced run_s")
    ranked = sorted(tracing.SPANS, key=lambda n: layers[f"{n}.self_s"], reverse=True)
    for name in ranked:
        if layers[f"{name}.calls"]:
            print(f"  {name:42s} {layers[name + '.calls']:8.0f} {layers[name + '.s']:10.4f} "
                  f"{layers[name + '.self_s']:10.4f} {layers[name + '.self_s'] / traced_s:7.1%}")
    print(f"  {'(unattributed)':42s} {'':8s} {'':10s} {layers['trace.unattributed_s']:10.4f} "
          f"{layers['trace.unattributed_s'] / traced_s:7.1%}")
    print(f"  {'sum = traced run_s':42s} {'':8s} {'':10s} {traced_s:10.4f}")
    group = sum(layers[f"{n}.self_s"] for n in workload.predicted)
    print(f"dominant layer: {ranked[0]} ({layers[ranked[0] + '.self_s'] / traced_s:.1%} of traced run_s)")
    print(f"predicted dominant: {' + '.join(workload.predicted)} ({group / traced_s:.1%} of traced run_s)")
    for name in sorted(k for k in layers if not k.endswith((".calls", ".s", ".self_s"))):
        print(f"  {name} = {layers[name]!r}")
    return {name: metric(value, layer_unit(name)) for name, value in layers.items()}


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    print("environment: " + json.dumps(environment(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = workloads.make_workload(args.workload, args.seed, Path(tmp))
        print(f"workload {workload.name}: {workload.summary}; seed {args.seed}")
        setup = measure_setup(workload.configs())
        if args.trace:
            untraced = run_reps(workload.rep, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            snapshots = []

            def traced_rep():
                tracer.reset()
                rep = workload.rep()
                snapshots.append(tracer.snapshot())
                return rep

            with ExitStack() as stack:
                tracer.install(stack)
                traced = run_reps(traced_rep, args.seconds / 2, 1)
            reps = untraced + traced
        else:
            reps = run_reps(workload.rep, args.seconds, MIN_REPS)
        checks = workload.checks(reps)

    print_common(workload, reps, checks)
    if args.trace:
        metrics = per_layer(workload, setup, untraced, traced, snapshots)
    else:
        metrics = end_to_end(workload, setup, reps)
    failed_checks = sum(not c.passed for c in checks)
    result = {
        "correct": failed_checks == 0,
        "attempted": sum(r.ops.attempted for r in reps) + len(checks),
        "failed": sum(r.ops.failed for r in reps) + failed_checks,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; prints each report, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"=== {name} ===", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "malspi" / "__init__.py").is_file():
        print(f"error: malspi sources not found at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Let the scratch directory and set-up probes be cleaned up on termination.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Before numpy loads in this process or any child.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
