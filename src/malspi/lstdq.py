"""Least-squares temporal-difference estimation of quadratic Q-functions.

Policy evaluation works off-policy from one trajectory.  For a stacked
sample z_t = [x_set(t); u_set(t)] the feature row is phi_t = svec(z_t z_t'),
the on-policy next-step row psi_{t+1} uses x_set(t+1) with the evaluation
gain's action, and a constant noise row f = svec(sigma_w^2 [I; K][I; K]')
absorbs the average-cost offset.  The packed Q parameter solves the
error-in-variables system

    q = (Phi' (Phi - Psi_plus + F))^{-1} Phi' c_hat,

computed through one partial-pivoting LU factorization, never an explicit
inverse.  The T x d regressor rows Phi - Psi_plus + F are never held
whole: the operator is formed one column block at a time from Phi and the
T x m next-step samples, so one regression holds Phi, the d x d operator
and one T x w block, (T d + d^2 + T w) * 8 bytes.  The factorization is
gated on LAPACK's reciprocal 1-norm condition estimate (``gecon``, the
Hager/Higham estimator), which costs O(d^2) on top of the O(d^3)
factorization.  With zero process noise the relation holds pathwise and
the recovery is exact up to conditioning.
Every product and factorization runs through SciPy's BLAS/LAPACK.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
import scipy.linalg

from .linalg import psd_project  # noqa: F401  unused; a perfbench span rebinds this name
from .linalg import svec, svec_dim
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

# Narrowest regressor column block of the operator product, in columns.
# Every GEMM call repacks Phi, so narrower blocks cost time; whole svec rows
# are grouped until a block is at least this wide, and sets with d at most
# this wide form their operator in one product.
_BLOCK_COLUMNS = 256


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
class RegressionBundle:
    """Features, next-step samples and costs of one restricted trajectory.

    ``phi`` is the T x d feature matrix Phi and ``z_next`` the T x m
    on-policy next-step samples [x(t+1); K x(t+1)] whose svec rows are
    Psi_plus; the noise row ``f_row`` is constant across time.  The
    regressor rows Phi - Psi_plus + F are formed block by block inside
    ``LstdqOperator`` and never stored.  ``owner_costs`` is T x k:
    column j is the unaggregated stage-cost sequence of ``cost_owners[j]``,
    so one solve serves every owner; ``c_hat`` is their row sum.
    """

    index_set: AgentSet
    cost_owners: AgentSet
    n_x: int
    n_u: int
    phi: np.ndarray
    z_next: np.ndarray
    f_row: np.ndarray
    owner_costs: np.ndarray

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


def _svec_rows(z: np.ndarray, first: int = 0, stop: Optional[int] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise svec of outer products z_t z_t', upper-triangle rows first..stop-1.

    Upper-triangle row i is one block of columns, z_i z_i then sqrt(2) z_i z_j
    for j > i, written row by row; consecutive rows are consecutive svec
    columns.  Writes into ``out`` (T x width of the rows), else into a new
    Fortran-ordered array; all m rows by default.  No T x m x m cube is
    formed.
    """
    m = z.shape[1]
    stop = m if stop is None else stop
    if out is None:
        out = np.empty((z.shape[0], sum(m - i for i in range(first, stop))), order="F")
    start = 0
    for i in range(first, stop):
        np.multiply(z[:, i], z[:, i], out=out[:, start])
        upper = out[:, start + 1 : start + m - i]
        np.multiply(z[:, i + 1 :], math.sqrt(2.0), out=upper)
        upper *= z[:, i : i + 1]
        start += m - i
    return out


def _row_blocks(m: int) -> list[tuple[int, int, int, int]]:
    """Groups of whole svec rows at least ``_BLOCK_COLUMNS`` wide.

    Returns (first row, stop row, first column, stop column) per group; the
    last group takes what is left and may be narrower.
    """
    blocks = []
    first = c0 = c1 = 0
    for i in range(m):
        c1 += m - i
        if c1 - c0 >= _BLOCK_COLUMNS or i == m - 1:
            blocks.append((first, i + 1, c0, c1))
            first, c0 = i + 1, c1
    return blocks


def build_regression(
    batch: TrajectoryBatch,
    index_set: Iterable[int],
    eval_policy: StructuredPolicy,
    cost_owner_set: Iterable[int],
    system: MultiAgentSystem,
) -> RegressionBundle:
    """Assemble the error-in-variables regression for one agent subset.

    The evaluation policy is restricted to the subset, which must be closed
    for exactness.  The aggregated cost sums the unaveraged stage costs of
    ``cost_owner_set``; each owner's cost in-neighbors must lie inside the
    subset.  Raises UnderdeterminedError when the trajectory is shorter than
    the feature dimension.
    """
    sub = extract_subsystem(system, eval_policy, index_set, cost_owners=cost_owner_set)
    agents = sub.agents
    t_length = batch.length
    m = sub.m
    d = svec_dim(m)
    if t_length < d:
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

    return RegressionBundle(
        index_set=agents,
        cost_owners=owners,
        n_x=system.n_x,
        n_u=system.n_u,
        phi=_svec_rows(z_now),
        z_next=z_next,
        f_row=f_row,
        owner_costs=owner_costs,
    )


class LstdqOperator:
    """Factorized regression operator Phi' (Phi - Psi_plus + F).

    Factorizes once with partial-pivoting LU and solves for any number of
    cost right-hand sides.  Raises SingularOperatorError at construction
    when the operator is all zero or not finite, when the LU has an exactly
    zero pivot, or when the reciprocal 1-norm condition estimate is not
    above ``_RCOND_THRESHOLD``; ``rcond`` keeps the estimate that passed.
    The operator is formed one group of whole svec rows at a time: the
    group's Psi_plus columns are written into one reusable T x w block,
    turned into regressor columns Phi - Psi_plus + F in place, and
    multiplied by Phi' straight into the operator's columns, so the
    T x d regressor rows never exist.  The operator keeps its bundle, so
    together they hold the set's working set: Phi (T x d), the d x d LU
    and, while the operator is formed, one block of w >= ``_BLOCK_COLUMNS``
    columns (or d, if smaller): (T d + d^2 + T w) * 8 bytes.
    """

    def __init__(self, bundle: RegressionBundle):
        self.bundle = bundle
        phi, z_next, f_row = bundle.phi, bundle.z_next, bundle.f_row
        blocks = _row_blocks(z_next.shape[1])
        block = np.empty((bundle.t_length, max(c1 - c0 for *_, c0, c1 in blocks)), order="F")
        operator = np.empty((bundle.d, bundle.d), order="F")
        for first, stop, c0, c1 in blocks:
            # Phi - Psi_plus + F, formed in place over the block's Psi_plus
            regressors = _svec_rows(z_next, first, stop, out=block[:, : c1 - c0])
            np.subtract(phi[:, c0:c1], regressors, out=regressors)
            regressors += f_row[c0:c1]
            # SciPy's BLAS, like the LU and the solves: NumPy links a second
            # OpenBLAS, and alternating the two thread pools oversubscribes
            # the cores.  The product lands in the operator's own columns.
            scipy.linalg.blas.dgemm(
                1.0, phi, regressors, trans_a=True, c=operator[:, c0:c1], overwrite_c=True
            )
        del block, regressors
        # The Fortran-ordered operator is factorized in place.
        getrf, gecon, lange = scipy.linalg.get_lapack_funcs(
            ("getrf", "gecon", "lange"), (operator,)
        )
        anorm = float(lange("1", operator))
        if not (0.0 < anorm < math.inf):
            raise SingularOperatorError(
                f"operator 1-norm {anorm:.3g}", 0.0 if anorm == 0.0 else math.nan
            )
        lu, piv, info = getrf(operator, overwrite_a=True)
        if info > 0:
            raise SingularOperatorError(f"LU pivot {info} of {bundle.d} is exactly zero", 0.0)
        rcond = float(gecon(lu, anorm, norm="1")[0])
        if not rcond > _RCOND_THRESHOLD:
            raise SingularOperatorError(
                f"reciprocal condition estimate {rcond:.3g} <= {_RCOND_THRESHOLD:.3g}", rcond
            )
        self.rcond = rcond
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
