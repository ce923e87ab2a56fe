"""Least-squares temporal-difference estimation of quadratic Q-functions.

Policy evaluation works off-policy from one trajectory.  For a stacked
sample z_t = [x_set(t); u_set(t)] the feature row is phi_t = svec(z_t z_t'),
the on-policy next-step row psi_{t+1} uses x_set(t+1) with the evaluation
gain's action, and a constant noise row f = svec(sigma_w^2 [I; K][I; K]')
absorbs the average-cost offset.  The packed Q parameter solves the
error-in-variables system

    q = (Phi' (Phi - Psi_plus + F))^{-1} Phi' c_hat,

computed through one partial-pivoting LU factorization, never an explicit
inverse.  The factorization is gated on LAPACK's reciprocal 1-norm
condition estimate (``gecon``, the Hager/Higham estimator), which costs
O(d^2) on top of the O(d^3) factorization; the exact minimum singular value
is an O(d^3) diagnostic computed only on request.  With zero process noise
the relation holds pathwise and the recovery is exact up to conditioning.
Every product and factorization runs through SciPy's BLAS/LAPACK.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np
import scipy.linalg

from .linalg import psd_project, smat, svec, svec_dim
from .system import (
    MultiAgentSystem,
    StructuredPolicy,
    TrajectoryBatch,
    extract_subsystem,
    u_coords,
    x_coords,
)

AgentSet = tuple[int, ...]

_RCOND_THRESHOLD = 1e-10


class UnderdeterminedError(ValueError):
    """Trajectory shorter than the feature dimension."""

    def __init__(self, t_length: int, required: int):
        super().__init__(
            f"trajectory length {t_length} is below the feature dimension; "
            f"at least {required} samples are required"
        )
        self.t_length = t_length
        self.required = required


class SingularOperatorError(RuntimeError):
    """Regression operator numerically singular.

    ``rcond`` is the reciprocal condition estimate that failed the gate:
    0.0 for an all-zero operator or an exactly zero pivot, NaN for a
    non-finite operator.
    """

    def __init__(self, detail: str, rcond: float):
        super().__init__(
            f"LSTDQ operator is singular or ill-conditioned ({detail}); "
            "collect a longer trajectory or increase the exploration noise"
        )
        self.rcond = rcond


@dataclass(frozen=True)
class SolveDiagnostics:
    """Conditioning record of one LSTDQ factorization.

    ``rcond`` is the reciprocal 1-norm condition estimate the ``singular``
    gate compares against ``threshold``; ``sigma_min`` is the exact minimum
    singular value of the operator, None unless requested.
    """

    feature_dim: int
    t_length: int
    rcond: float
    sigma_min: Optional[float]
    threshold: float


@dataclass(frozen=True)
class QEstimate:
    """Packed and matrix forms of an estimated quadratic Q-function.

    ``zeta`` records the eigenvalue floor when the estimate has been
    projected; None marks a raw least-squares solution.
    """

    q: np.ndarray
    matrix: np.ndarray
    index_set: AgentSet
    diagnostics: Optional[SolveDiagnostics] = None
    zeta: Optional[float] = None

    def project(self, zeta: float) -> "QEstimate":
        """Eigenvalue-floored copy; idempotent for matching zeta."""
        projected = psd_project(self.matrix, zeta)
        return replace(self, q=svec(projected), matrix=projected, zeta=zeta)


@dataclass(frozen=True)
class RegressionBundle:
    """Feature matrices and costs of one restricted trajectory.

    ``phi`` and ``regressors`` = Phi - Psi_plus + F are T x d; the noise
    row ``f_row`` is constant across time.  ``owner_costs`` is T x k:
    column j is the unaggregated stage-cost sequence of ``cost_owners[j]``,
    so one solve serves every owner; ``c_hat`` is their row sum.
    """

    index_set: AgentSet
    cost_owners: AgentSet
    n_x: int
    n_u: int
    phi: np.ndarray
    regressors: np.ndarray
    f_row: np.ndarray
    owner_costs: np.ndarray
    k_eval: np.ndarray
    sigma_w: float

    @property
    def m(self) -> int:
        return (self.n_x + self.n_u) * len(self.index_set)

    @property
    def d(self) -> int:
        return svec_dim(self.m)

    @property
    def t_length(self) -> int:
        return self.phi.shape[0]

    @property
    def c_hat(self) -> np.ndarray:
        """Aggregated cost sequence over every owner."""
        return self.owner_costs.sum(axis=1)


def _svec_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise svec of outer products z_t z_t', a Fortran-ordered T x d array.

    Upper-triangle row i is one block of columns, z_i z_i then sqrt(2) z_i z_j
    for j > i, written in one pass; no T x m x m cube is formed.
    """
    scaled = z * math.sqrt(2.0)
    m = z.shape[1]
    out = np.empty((z.shape[0], svec_dim(m)), order="F")
    start = 0
    for i in range(m):
        np.multiply(z[:, i], z[:, i], out=out[:, start])
        np.multiply(scaled[:, i + 1 :], z[:, i : i + 1], out=out[:, start + 1 : start + m - i])
        start += m - i
    return out


def build_regression(
    batch: TrajectoryBatch,
    index_set: Iterable[int],
    eval_policy: StructuredPolicy,
    cost_owner_set: Iterable[int],
    system: MultiAgentSystem,
    *,
    require_closed: bool = True,
    allow_underdetermined: bool = False,
) -> RegressionBundle:
    """Assemble the error-in-variables regression for one agent subset.

    The evaluation policy is restricted to the subset, which must be closed
    for exactness (override with ``require_closed=False``).  The aggregated
    cost sums the unaveraged stage costs of ``cost_owner_set``; each owner's
    cost in-neighbors must lie inside the subset.  Raises
    UnderdeterminedError when the trajectory is shorter than the feature
    dimension unless explicitly allowed.
    """
    sub = extract_subsystem(
        system,
        eval_policy,
        index_set,
        cost_owners=cost_owner_set,
        require_closed=require_closed,
    )
    agents = sub.agents
    t_length = batch.length
    m = sub.m
    d = svec_dim(m)
    if t_length < d and not allow_underdetermined:
        raise UnderdeterminedError(t_length, d)

    # stacked samples [x; u] now and on-policy next, Fortran-ordered
    xs = batch.states(agents)
    z_now = np.empty((t_length, m), order="F")
    z_now[:, : sub.nx] = xs[:t_length]
    z_now[:, sub.nx :] = batch.controls(agents)
    z_next = np.empty((t_length, m), order="F")
    z_next[:, : sub.nx] = xs[1 : t_length + 1]
    np.matmul(z_next[:, : sub.nx], sub.k.T, out=z_next[:, sub.nx :])
    g = np.vstack([np.eye(sub.nx), sub.k])
    f_row = svec(sub.sigma_w**2 * (g @ g.T))

    owners = tuple(sorted(set(int(a) for a in cost_owner_set)))
    owner_costs = np.zeros((t_length, len(owners)))
    for col, j in enumerate(owners):
        cost_set = system.graphs.cost_in_neighbors(j)
        if cost_set:
            xc = batch.x[:t_length, x_coords(cost_set, system.n_x)]
            uc = batch.u[:t_length, u_coords(cost_set, system.n_u)]
            owner_costs[:, col] = np.einsum(
                "ti,ij,tj->t", xc, system.s_blocks[j], xc
            ) + np.einsum("ti,ij,tj->t", uc, system.r_blocks[j], uc)

    phi = _svec_rows(z_now)
    # Phi - Psi_plus + F, formed in place over Psi_plus
    regressors = _svec_rows(z_next)
    np.subtract(phi, regressors, out=regressors)
    regressors += f_row
    return RegressionBundle(
        index_set=agents,
        cost_owners=owners,
        n_x=system.n_x,
        n_u=system.n_u,
        phi=phi,
        regressors=regressors,
        f_row=f_row,
        owner_costs=owner_costs,
        k_eval=sub.k,
        sigma_w=sub.sigma_w,
    )


class LstdqOperator:
    """Factorized regression operator Phi' (Phi - Psi_plus + F).

    Factorizes once with partial-pivoting LU and solves for any number of
    cost right-hand sides.  Raises SingularOperatorError at construction
    when the operator is all zero or not finite, when the LU has an exactly
    zero pivot, or when the reciprocal 1-norm condition estimate is not
    above ``rcond``.  ``exact_sigma_min=True`` also records the operator's
    exact minimum singular value, an SVD that costs several times the
    factorization.  The operator keeps its bundle, so together they hold
    the set's working set: Phi and the regressor rows (T x d each) and the
    d x d LU, (2 T d + d^2) * 8 bytes.
    """

    def __init__(
        self,
        bundle: RegressionBundle,
        *,
        rcond: float = _RCOND_THRESHOLD,
        exact_sigma_min: bool = False,
    ):
        self.bundle = bundle
        # SciPy's BLAS, like the LU and the solves: NumPy links a second
        # OpenBLAS, and alternating the two thread pools oversubscribes the
        # cores.  The Fortran-ordered product is factorized in place.
        operator = scipy.linalg.blas.dgemm(1.0, bundle.phi, bundle.regressors, trans_a=True)
        getrf, gecon, lange = scipy.linalg.get_lapack_funcs(
            ("getrf", "gecon", "lange"), (operator,)
        )
        anorm = float(lange("1", operator))
        if not (0.0 < anorm < math.inf):
            raise SingularOperatorError(
                f"operator 1-norm {anorm:.3g}", 0.0 if anorm == 0.0 else math.nan
            )
        sigma_min = None
        if exact_sigma_min:
            sigma_min = float(scipy.linalg.svdvals(operator, check_finite=False)[-1])
        lu, piv, info = getrf(operator, overwrite_a=True)
        if info > 0:
            raise SingularOperatorError(f"LU pivot {info} of {bundle.d} is exactly zero", 0.0)
        rcond_est = float(gecon(lu, anorm, norm="1")[0])
        if not rcond_est > rcond:
            raise SingularOperatorError(
                f"reciprocal condition estimate {rcond_est:.3g} <= {rcond:.3g}", rcond_est
            )
        self.diagnostics = SolveDiagnostics(
            feature_dim=bundle.d,
            t_length=bundle.t_length,
            rcond=rcond_est,
            sigma_min=sigma_min,
            threshold=rcond,
        )
        self._lu = lu
        self._piv = piv

    def solve_cost(self, cost: np.ndarray) -> np.ndarray:
        """Packed Q parameters for a length-T cost sequence or a T x k block.

        One product with Phi' and one LU solve serve every column: the
        result is length d for a vector, d x k for a block, with column j
        solving cost column j.
        """
        block = np.asarray(cost, dtype=float).reshape(len(cost), -1)
        rhs = scipy.linalg.blas.dgemm(1.0, self.bundle.phi, block, trans_a=True)
        q = scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)
        return q[:, 0] if np.ndim(cost) == 1 else q


def lstdq_solve(bundle: RegressionBundle, *, rcond: float = _RCOND_THRESHOLD) -> QEstimate:
    """Solve the regression for the bundle's aggregated cost.

    Returns the raw (unprojected) estimate with conditioning diagnostics,
    including the exact minimum singular value; apply ``QEstimate.project``
    for the eigenvalue-floored version.
    """
    op = LstdqOperator(bundle, rcond=rcond, exact_sigma_min=True)
    q = op.solve_cost(bundle.c_hat)
    return QEstimate(
        q=q,
        matrix=smat(q),
        index_set=bundle.index_set,
        diagnostics=op.diagnostics,
    )
