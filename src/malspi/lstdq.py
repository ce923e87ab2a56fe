"""Least-squares temporal-difference estimation of quadratic Q-functions.

Policy evaluation works off-policy from one trajectory.  For a stacked
sample z_t = [x_set(t); u_set(t)] the feature row is phi_t = svec(z_t z_t'),
the on-policy next-step row psi_{t+1} uses x_set(t+1) with the evaluation
gain's action, and a constant noise row f = svec(sigma_w^2 [I; K][I; K]')
absorbs the average-cost offset.  The packed Q parameters of the cost
owners solve the error-in-variables system

    Q = (Phi' (Phi - Psi_plus + F))^{-1} Phi' C,

column j of the T x k block C being owner j's stage costs, computed through
one partial-pivoting LU factorization, never an explicit inverse.  The
solve is linear in the cost, so an owner set's aggregate is the row sum of
Q.  Operator and right-hand sides are sums over samples, accumulated
as recursive LSTD forms them: each slab of r = max(256, 4 MiB / (16 d))
samples (at most T) adds its Phi rows times its regressor rows
Phi - Psi_plus + F, and times its costs, into the d x d operator and the
d x k right-hand sides, one GEMM each.  No T x d matrix is held: a
regression holds (d^2 + 2 r d + d k) * 8 bytes whatever T is, 16.0 MB at
d=1176 (r=256, k=12) and 453 MB at d=7260 (r=256, k=20).  The LU is gated
on LAPACK's reciprocal 1-norm condition estimate (``gecon``,
Hager/Higham), O(d^2) on top of O(d^3).  With zero process noise the
relation holds pathwise and the recovery is exact up to conditioning.
Every product and factorization runs through SciPy's BLAS/LAPACK, which
``_stream``, ``_dgecon``, ``LstdqOperator`` and ``solve_cost`` import
where they call it: importing this module loads NumPy only.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import psd_project  # noqa: F401  unused; a perfbench span rebinds this name
from .linalg import svec, svec_dim
from .system import EstimationSet, MultiAgentSystem, StructuredPolicy, TrajectoryBatch
from .system import extract_subsystem  # noqa: F401  unused; a perfbench span rebinds this name

AgentSet = tuple[int, ...]

_RCOND_THRESHOLD = 1e-10

# A slab's Phi and regressor rows (two r x d arrays) take about _SLAB_BYTES;
# at least _SLAB_MIN_ROWS samples keep each GEMM's inner dimension long.
_SLAB_BYTES = 4 * 2**20
_SLAB_MIN_ROWS = 256


class UnderdeterminedError(ValueError):
    """Trajectory shorter than the feature dimension."""

    def __init__(self, t_length: int, required: int):
        super().__init__(f"trajectory length {t_length} is below the feature dimension; "
                         f"at least {required} samples are required")
        self.t_length = t_length
        self.required = required


class SingularOperatorError(RuntimeError):
    """Regression operator numerically singular.

    ``rcond`` is the reciprocal condition estimate that failed the gate:
    0.0 for an all-zero operator or an exactly zero pivot, NaN for a
    non-finite operator.
    """

    def __init__(self, detail: str, rcond: float):
        super().__init__(f"LSTDQ operator is singular or ill-conditioned ({detail}); "
                         "collect a longer trajectory or increase the exploration noise")
        self.rcond = rcond


@dataclass(frozen=True)
class RegressionBundle:
    """Samples and costs of one restricted trajectory, (2 m + k) T * 8 bytes.

    The svec rows of the T x m samples ``z_now`` = [x(t); u(t)] are the
    features Phi, those of the on-policy next-step samples ``z_next`` =
    [x(t+1); K x(t+1)] are Psi_plus (both Fortran-ordered); ``f_row`` is
    the constant noise row.  ``LstdqOperator`` writes Phi and the regressor
    rows one slab at a time and stores neither.  Column j of the T x k
    ``owner_costs`` is the stage-cost sequence of ``cost_owners[j]``, so one
    solve serves every owner.
    """

    index_set: AgentSet
    cost_owners: AgentSet
    z_now: np.ndarray
    z_next: np.ndarray
    f_row: np.ndarray
    owner_costs: np.ndarray

    @property
    def m(self) -> int:
        return self.z_now.shape[1]

    @property
    def d(self) -> int:
        return svec_dim(self.m)

    @property
    def t_length(self) -> int:
        return self.z_now.shape[0]


def _svec_rows(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise svec of the outer products z_t z_t', written into ``out``.

    Upper-triangle row i is one block of columns, z_i z_i then
    (sqrt(2) z_j) z_i for j > i, so no T x m x m cube is formed.
    """
    m, start, scaled = z.shape[1], 0, z * math.sqrt(2.0)
    for i in range(m):
        np.multiply(z[:, i], z[:, i], out=out[:, start])
        np.multiply(scaled[:, i + 1 :], z[:, i : i + 1], out=out[:, start + 1 : start + m - i])
        start += m - i
    return out


def _f_view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols entries of a flat buffer as a Fortran-contiguous matrix."""
    return buffer[: rows * cols].reshape((rows, cols), order="F")


def _aligned_zeros(rows: int, cols: int) -> np.ndarray:
    """A zeroed Fortran-ordered matrix whose data starts on a 64-byte boundary:
    OpenBLAS kernels can sum in an order that follows the address."""
    buffer = np.zeros(rows * cols + 8)
    return _f_view(buffer[(-buffer.ctypes.data % 64) // 8 :], rows, cols)


def _stream(bundle: RegressionBundle, operator: np.ndarray) -> np.ndarray:
    """Add Phi' (Phi - Psi_plus + F) into the zeroed d x d ``operator`` and
    return the owners' d x k right-hand sides Phi' owner_costs.  Every GEMM
    operand is Fortran-contiguous, so SciPy's BLAS (the LU's thread pool)
    copies none.
    """
    import scipy.linalg
    dgemm = scipy.linalg.blas.dgemm
    costs = bundle.owner_costs
    t_length, d, k = bundle.t_length, bundle.d, costs.shape[1]
    r = min(t_length, max(_SLAB_MIN_ROWS, _SLAB_BYTES // (16 * d)))
    phi_buffer, regressor_buffer, cost_buffer = np.empty(r * d), np.empty(r * d), np.empty(r * k)
    rhs = np.zeros((d, k), order="F")
    for t0 in range(0, t_length, r):
        rows = slice(t0, min(t0 + r, t_length))
        n = rows.stop - t0
        phi = _svec_rows(bundle.z_now[rows], _f_view(phi_buffer, n, d))
        regressors = _svec_rows(bundle.z_next[rows], _f_view(regressor_buffer, n, d))
        np.subtract(phi, regressors, out=regressors)
        regressors += bundle.f_row
        dgemm(1.0, phi, regressors, beta=1.0, c=operator, trans_a=True, overwrite_c=True)
        if k:  # SciPy's dgemm rejects an empty right-hand side
            cost = _f_view(cost_buffer, n, k)
            cost[...] = costs[rows]
            dgemm(1.0, phi, cost, beta=1.0, c=rhs, trans_a=True, overwrite_c=True)
    return rhs


@functools.cache
def _dgecon() -> ctypes.CFUNCTYPE:
    """SciPy's LAPACK ``dgecon`` taking the caller's workspace: SciPy's Python
    wrapper allocates one per call, and the estimate can move in its last
    bit with that workspace's address.  ``scipy.linalg.cython_lapack`` is
    imported at the first call, the first condition estimate."""
    import scipy.linalg.cython_lapack
    capsule, api = scipy.linalg.cython_lapack.__pyx_capi__["dgecon"], ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 9)(pointer(capsule, name(capsule)))


def _rcond(lu: np.ndarray, anorm: float) -> float:
    """Reciprocal 1-norm condition estimate of a d x d LU, 64-byte-aligned workspace."""
    if not (lu.dtype == np.float64 and lu.flags.f_contiguous and lu.shape[0] == lu.shape[1]):
        raise ValueError("dgecon takes a square Fortran-ordered float64 LU")
    d, info, rcond = ctypes.c_int(lu.shape[0]), ctypes.c_int(), ctypes.c_double()
    work, iwork = _aligned_zeros(4 * d.value, 1), np.empty(d.value, dtype=np.intc)
    ref = ctypes.byref
    _dgecon()(b"1", ref(d), lu.ctypes.data, ref(d), ref(ctypes.c_double(anorm)), ref(rcond),
              work.ctypes.data, iwork.ctypes.data, ref(info))
    return rcond.value


def build_regression(batch: TrajectoryBatch, est_set: EstimationSet,
                     eval_policy: StructuredPolicy, system: MultiAgentSystem) -> RegressionBundle:
    """Assemble the error-in-variables regression of one estimation set.

    ``est_set`` (``system.estimation_set``) was checked and laid out once,
    so this gathers only what changes between iterations: the samples, the
    evaluation gain's block on the set and the owners' stage costs, each
    column the unaveraged cost of one of ``est_set.cost_owners``.  Raises
    UnderdeterminedError when the trajectory is shorter than the feature
    dimension.
    """
    xs_set, us_set = est_set.xs, est_set.us
    t_length, nx = batch.length, len(xs_set)
    m = nx + len(us_set)
    d = svec_dim(m)
    if t_length < d:
        raise UnderdeterminedError(t_length, d)

    # stacked samples [x; u] now and on-policy next, Fortran-ordered; one
    # (T+1)-row state gather serves both
    xs = batch.x[:, xs_set]
    k = eval_policy.gain[us_set[:, None], xs_set]
    z_now = np.empty((t_length, m), order="F")
    z_now[:, :nx] = xs[:t_length]
    z_now[:, nx:] = batch.u[:, us_set]
    z_next = np.empty((t_length, m), order="F")
    z_next[:, :nx] = xs[1 : t_length + 1]
    np.matmul(z_next[:, :nx], k.T, out=z_next[:, nx:])
    g = np.vstack([np.eye(nx), k])
    f_row = svec(system.sigma_w**2 * (g @ g.T))

    owners = est_set.cost_owners
    owner_costs = np.zeros((t_length, len(owners)))
    for col, (j, (xc_set, uc_set)) in enumerate(zip(owners, est_set.owner_coords)):
        if xc_set.size:
            xc, uc = batch.x[:t_length, xc_set], batch.u[:t_length, uc_set]
            owner_costs[:, col] = (np.einsum("ti,ij,tj->t", xc, system.s_blocks[j], xc)
                                   + np.einsum("ti,ij,tj->t", uc, system.r_blocks[j], uc))
    return RegressionBundle(index_set=est_set.agents, cost_owners=owners, z_now=z_now,
                            z_next=z_next, f_row=f_row, owner_costs=owner_costs)


class LstdqOperator:
    """Factorized regression operator Phi' (Phi - Psi_plus + F).

    Factorizes once with partial-pivoting LU and solves it once for every
    cost owner of the bundle.  Raises SingularOperatorError at construction
    when the operator is all zero or not finite, when the LU has an exactly
    zero pivot, or when the reciprocal 1-norm condition estimate is not
    above ``_RCOND_THRESHOLD``; ``rcond`` keeps the estimate that passed.
    One pass over slabs of r = max(256, 4 MiB / (16 d)) samples (at most T)
    writes each slab's Phi and regressor rows into two reusable r x d
    buffers and adds them into the 64-byte-aligned d x d operator and the
    owners' right-hand sides Phi' owner_costs, one GEMM each: (d^2 + 2 r d
    + d k) * 8 bytes whatever T is, 16.0 MB at d=1176 and 453 MB at d=7260.
    """

    def __init__(self, bundle: RegressionBundle):
        self.bundle = bundle
        operator = _aligned_zeros(bundle.d, bundle.d)
        self._owner_rhs = _stream(bundle, operator)
        # factorized in place
        import scipy.linalg
        getrf, lange = scipy.linalg.get_lapack_funcs(("getrf", "lange"), (operator,))
        anorm = float(lange("1", operator))
        if not (0.0 < anorm < math.inf):
            raise SingularOperatorError(f"operator 1-norm {anorm:.3g}",
                                        0.0 if anorm == 0.0 else math.nan)
        lu, piv, info = getrf(operator, overwrite_a=True)
        if info > 0:
            raise SingularOperatorError(f"LU pivot {info} of {bundle.d} is exactly zero", 0.0)
        rcond = _rcond(lu, anorm)
        if not rcond > _RCOND_THRESHOLD:
            raise SingularOperatorError(f"reciprocal condition estimate {rcond:.3g} <= "
                                        f"{_RCOND_THRESHOLD:.3g}", rcond)
        self.rcond, self._lu, self._piv = rcond, lu, piv

    def solve_cost(self) -> np.ndarray:
        """The d x k packed Q parameters, column j for ``bundle.cost_owners[j]``.

        One LU solve of the right-hand sides streamed with the operator
        serves every owner; the owners' aggregate is the row sum.
        """
        import scipy.linalg
        (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (self._lu,))  # lu_solve's checks
        return getrs(self._lu, self._piv, self._owner_rhs)[0]  # cost more than a small set's solve
