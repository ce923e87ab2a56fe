"""CSV serialization of trajectories, estimates, and experiment tables.

Every emitted CSV is re-ingestable: floats are written with ``repr`` so a
read-write cycle reproduces the values exactly, missing values are empty
fields, and infinities round-trip through ``float("inf")``.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .lstdq import QEstimate
from .system import TrajectoryBatch


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_trajectory_csv(batch: TrajectoryBatch, path: str | Path) -> None:
    """Columns t, x_1..x_{N n_x}, u_1..u_{N n_u}; the final row has no controls."""
    nx = batch.x.shape[1]
    nu = batch.u.shape[1]
    header = ["t"] + [f"x_{k+1}" for k in range(nx)] + [f"u_{k+1}" for k in range(nu)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(batch.length + 1):
            row = [str(t)] + [repr(float(v)) for v in batch.x[t]]
            if t < batch.length:
                row += [repr(float(v)) for v in batch.u[t]]
            else:
                row += [""] * nu
            writer.writerow(row)


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read back states (T+1 rows) and controls (T rows) from the export."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        nx = sum(1 for name in header if name.startswith("x_"))
        nu = sum(1 for name in header if name.startswith("u_"))
        xs, us = [], []
        for row in reader:
            xs.append([float(v) for v in row[1 : 1 + nx]])
            tail = row[1 + nx : 1 + nx + nu]
            if any(v != "" for v in tail):
                us.append([float(v) for v in tail])
    return np.array(xs), np.array(us)


def write_q_estimate_csv(estimate: QEstimate, path: str | Path) -> None:
    """Packed parameter vector plus conditioning diagnostics, one value per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["field", "index", "value"])
        writer.writerow(["index_set", "", "|".join(str(a) for a in estimate.index_set)])
        writer.writerow(["zeta", "", _fmt(estimate.zeta)])
        if estimate.diagnostics is not None:
            diag = estimate.diagnostics
            writer.writerow(["feature_dim", "", str(diag.feature_dim)])
            writer.writerow(["t_length", "", str(diag.t_length)])
            writer.writerow(["rcond", "", _fmt(diag.rcond)])
            writer.writerow(["sigma_min", "", _fmt(diag.sigma_min)])
        for k, value in enumerate(estimate.q):
            writer.writerow(["q", str(k), repr(float(value))])


def write_rows_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_rows_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]
