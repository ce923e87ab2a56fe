"""Symmetric-matrix vectorization, Lyapunov solves, and PSD projection.

``svec`` packs the upper triangle of a symmetric matrix with off-diagonal
entries scaled by sqrt(2), the unique diagonal-plus-scaled-upper convention
for which the Euclidean inner product of vectors equals the Frobenius inner
product of matrices.  ``smat`` inverts it exactly.

The discrete Lyapunov equation P = X P X^T + Y is solved by Smith's
doubling iteration, which uses only n x n matrix products: O(n^2) memory
and O(n^3) time per doubling, with about log2 of the decay time of X's
powers in doublings.

Everything here but ``psd_project`` is NumPy; ``psd_project`` imports
SciPy's ``eigh`` when called, so the Lyapunov solves and stability
certificates behind ``malspi bounds`` never load SciPy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
# 2^64 series terms: enough for any spectral radius representable below one.
_MAX_DOUBLINGS = 64
# Largest scaled residual (see ``lyapunov_residual``) a solution may have.
LYAPUNOV_RESIDUAL_GATE = 1e-9
# Highest power of X / rho whose norm ``stability_report`` takes.
_MAX_POWER = 200
# Bytes of matrix powers ``stability_report`` holds at once (at least one power).
_POWER_WINDOW_BYTES = 1 << 20
# Spectral radius at or below which ``stability_report`` measures no tau (it returns 1).
RHO_FLOOR = 1e-14
# Largest entrywise asymmetry |M - M^T| that ``svec`` accepts.
SVEC_SYM_TOL = 1e-10


class InstabilityError(RuntimeError):
    """Raised when a spectral radius makes a computation undefined (>= 1, or tiny for bounds)."""

    def __init__(self, message: str, rho: float):
        super().__init__(f"{message} (spectral radius {rho:.6g})")
        self.rho = rho


def svec(mat: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric n x n matrix into length n(n+1)/2.

    Diagonal entries are copied, strict upper-triangular entries scaled by
    sqrt(2), so <svec(M), svec(N)> equals the Frobenius inner product
    <M, N> exactly.  The input must be symmetric within ``SVEC_SYM_TOL`` and is
    symmetrized internally.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"svec expects a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SVEC_SYM_TOL:
        raise ValueError(f"svec input asymmetry {asym:.3g} exceeds tolerance {SVEC_SYM_TOL:.3g}")
    m = 0.5 * (m + m.T)
    rows, cols, weights = _packing(m.shape[0])
    return m[rows, cols] * weights


def smat(vec: np.ndarray) -> np.ndarray:
    """Invert ``svec``: rebuild the symmetric matrix from its packed vector.

    The vector length must be a triangular number n(n+1)/2.
    """
    v = np.asarray(vec, dtype=float).ravel()
    length = v.size
    n = int(round((math.sqrt(8.0 * length + 1.0) - 1.0) / 2.0))
    if n * (n + 1) // 2 != length:
        raise ValueError(f"smat expects a triangular-number length, got {length}")
    out = np.zeros((n, n))
    rows, cols, weights = _packing(n)
    out[rows, cols] = v * (1.0 / weights)
    out[cols, rows] = out[rows, cols]
    return out


@functools.lru_cache(maxsize=64)
def _packing(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared (read-only) upper-triangle indices and svec weights of size n."""
    rows, cols = np.triu_indices(n)
    return rows, cols, np.where(rows == cols, 1.0, _SQRT2)


def svec_dim(n: int) -> int:
    """Packed length of an n x n symmetric matrix."""
    return n * (n + 1) // 2


def spectral_radius(mat: np.ndarray) -> float:
    m = np.asarray(mat, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _doubling_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_{j >= 0} X^j Y X^jT by Smith's doubling iteration.

    After k doublings P = sum_{j < 2^k} X^j Y X^jT, from P <- P + A P A^T,
    A <- A^2 starting at P = Y, A = X.  Stops once a step no longer
    changes P at working precision.
    """
    p = y.copy()
    a = x
    for _ in range(_MAX_DOUBLINGS):
        step = a @ p @ a.T
        p += step
        if np.linalg.norm(step, ord="fro") <= _EPS * np.linalg.norm(p, ord="fro"):
            break
        a = a @ a
    return p


def lyapunov_solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve the discrete Lyapunov equation P = X P X^T + Y.

    Requires spectral radius of X below one.  Solved by Smith's doubling
    iteration plus one step of iterative refinement, using only n x n
    matrix products; the result must pass a residual gate.
    """
    xm = np.asarray(x, dtype=float)
    ym = np.asarray(y, dtype=float)
    if xm.ndim != 2 or xm.shape[0] != xm.shape[1]:
        raise ValueError(f"lyapunov_solve expects square X, got shape {xm.shape}")
    if ym.shape != xm.shape:
        raise ValueError(f"Y shape {ym.shape} does not match X shape {xm.shape}")
    rho = spectral_radius(xm)
    if rho >= 1.0:
        raise InstabilityError("Lyapunov equation has no bounded solution", rho)
    n = xm.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    ym = 0.5 * (ym + ym.T)
    p = _doubling_sum(xm, ym)
    # Doubling loses accuracy in proportion to the transient growth of a
    # non-normal X; solving once more for the residual recovers it.
    p += _doubling_sum(xm, ym + xm @ p @ xm.T - p)
    p = 0.5 * (p + p.T)
    residual = lyapunov_residual(xm, ym, p)
    if not residual <= LYAPUNOV_RESIDUAL_GATE:
        raise RuntimeError(
            f"Lyapunov residual {residual:.3g} above tolerance; system badly conditioned"
        )
    return p


def lyapunov_residual(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> float:
    """Scaled residual ||P - X P X^T - Y||_F / (1 + ||Y||_F) of a Lyapunov solution."""
    gap = np.linalg.norm(p - x @ p @ x.T - y, ord="fro")
    return float(gap / (1.0 + np.linalg.norm(y, ord="fro")))


def psd_project(mat: np.ndarray, zeta: float = 0.0) -> np.ndarray:
    """Frobenius-nearest symmetric matrix with eigenvalues >= zeta.

    Eigendecomposes the symmetrized input, clamps eigenvalues from below at
    zeta, and reassembles.  Idempotent.
    """
    if zeta < 0.0:
        raise ValueError(f"eigenvalue floor must be nonnegative, got {zeta}")
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"psd_project expects a square matrix, got shape {m.shape}")
    m = 0.5 * (m + m.T)
    import scipy.linalg
    # SciPy's LAPACK, like the LSTDQ solves (NumPy links a second OpenBLAS)
    eigvals, eigvecs = scipy.linalg.eigh(m, check_finite=False, driver="evd")
    clamped = np.maximum(eigvals, zeta)
    out = (eigvecs * clamped) @ eigvecs.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class StabilityReport:
    """Empirical (tau, rho) certificate: ||X^k|| <= tau * rho^k for k checked."""

    rho: float
    tau: float


def stability_report(mat: np.ndarray) -> StabilityReport:
    """Spectral radius plus an empirical transient-overshoot estimate.

    tau is the maximum of ||(X / rho)^k||_2 over k = 0..``_MAX_POWER``
    (200); for rho <= ``RHO_FLOOR`` (a nilpotent or zero matrix) tau
    defaults to one.
    Powering the normalized matrix keeps every term of order tau, where rho^k alone
    would underflow for small rho.  When the symmetric nonzero pattern of
    X has several connected components, X is a permuted block-diagonal
    matrix, and each power's norm is the largest of its blocks' norms; tau
    is then taken once per distinct diagonal block (same shape and bytes),
    on the block over the global rho.  The powers are formed and their norms
    taken a window at a time, as many powers of a block as fit in
    ``_POWER_WINDOW_BYTES`` (1 MiB, 25 powers at n = 72, all 200 for
    n <= 25), so the working memory is O(window * n^2) whatever
    ``_MAX_POWER`` is.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"stability_report expects a square matrix, got shape {m.shape}")
    rho = spectral_radius(m)
    if rho <= RHO_FLOOR:
        return StabilityReport(rho=rho, tau=1.0)
    blocks = {}
    for members in _components(m):
        block = m[np.ix_(members, members)]
        blocks.setdefault((block.shape, block.tobytes()), block)
    peak = max(_peak_power_norm(block / rho, _MAX_POWER) for block in blocks.values())
    return StabilityReport(rho=rho, tau=max(1.0, peak))


def _components(m: np.ndarray) -> list[np.ndarray]:
    """Sorted index sets of the connected components of m's symmetric nonzero pattern.

    A breadth-first search that reads each row of the pattern once: O(n^2).
    """
    linked = (m != 0) | (m != 0).T
    unseen = np.ones(m.shape[0], dtype=bool)
    components = []
    for seed in range(m.shape[0]):
        if not unseen[seed]:
            continue
        unseen[seed] = False
        frontier, members = [seed], [[seed]]
        while len(frontier):
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
            unseen[frontier] = False
            members.append(frontier)
        components.append(np.sort(np.concatenate(members)))
    return components


def _peak_power_norm(normalized: np.ndarray, max_power: int) -> float:
    """max_k ||normalized^k||_2 over k = 1..max_power, a window of powers at a time."""
    window = max(1, min(max_power, _POWER_WINDOW_BYTES // normalized.nbytes))
    powers = np.empty((window,) + normalized.shape)
    window_peaks = []
    for start in range(0, max_power, window):
        count = min(window, max_power - start)
        for k in range(count):
            if start + k == 0:
                powers[0] = normalized
            else:
                # slot -1 holds the previous (full) window's last power
                np.matmul(powers[k - 1], normalized, out=powers[k])
        window_peaks.append(np.max(np.linalg.svd(powers[:count], compute_uv=False)[:, 0]))
    return float(np.max(window_peaks))
