"""Sample-complexity diagnostics for the restricted LSTDQ regressions.

The calculators evaluate, verbatim, the high-probability trajectory-length
requirement and the 1/sqrt(T) parameter-error envelope of the restricted
least-squares temporal-difference estimator, plus the epsilon-accuracy
sample counts used to compare the direct and indirect architectures.  The
absolute constant hidden by the analysis is unidentified; it is exposed as
a single multiplier ``o_tilde`` defaulting to one and all outputs scale
with it.

Norms written ``||.||_+`` clamp the spectral norm from below at one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import RHO_FLOOR, InstabilityError, lyapunov_solve, stability_report
from .system import Subsystem, true_q_matrix
from .system import extract_subsystem  # noqa: F401  unused; a perfbench span rebinds this name


def _plus(value: float) -> float:
    """Norm clamped from below at one."""
    return max(1.0, float(value))


@dataclass(frozen=True)
class BoundInputs:
    """Scalars the bounds depend on, for one estimation set.

    ``n_x_set`` and ``n_u_set`` are the stacked dimensions over the set
    (per-agent dimension times set size).  ``tau`` and ``rho`` certify
    ||L^k|| <= tau rho^k for both the evaluated and the play closed loop.
    Norm fields are spectral norms of the restricted matrices;
    ``q_true_frobenius`` is the Frobenius norm of the exact Q matrix.
    """

    n_x_set: int
    n_u_set: int
    tau: float
    rho: float
    sigma_w: float
    sigma_eta: float
    norm_a: float
    norm_b: float
    norm_k: float
    norm_k_play: float
    norm_sigma0: float
    norm_p_inf: float
    q_true_frobenius: float
    o_tilde: float = 1.0

    def __post_init__(self):
        if self.sigma_eta > self.sigma_w:
            raise ValueError(
                f"exploration noise {self.sigma_eta} must not exceed process noise {self.sigma_w}"
            )
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.tau < 1.0:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.sigma_eta <= 0.0:
            raise ValueError(f"sigma_eta must be positive, got {self.sigma_eta}")
        if self.o_tilde <= 0.0:
            raise ValueError(f"o_tilde must be positive, got {self.o_tilde}")

    @property
    def sigma_bar(self) -> float:
        """Excitation scale sqrt(tau^2 rho^4 ||S0|| + ||P_inf|| + s_w^2 + s_e^2 ||B||^2)."""
        return math.sqrt(
            self.tau**2 * self.rho**4 * self.norm_sigma0
            + self.norm_p_inf
            + self.sigma_w**2
            + self.sigma_eta**2 * self.norm_b**2
        )

    @property
    def w_factor(self) -> float:
        """Shared prefactor of the epsilon-accuracy sample counts."""
        return (
            _plus(self.norm_k_play) ** 2
            * self.sigma_w
            * self.sigma_bar
            * self.tau**2
            * _plus(self.norm_k) ** 4
            * (self.norm_a**2 + self.norm_b**2)
            / (self.rho**2 * (1.0 - self.rho**2))
        )


@dataclass(frozen=True)
class DirectBoundReport:
    """Minimum trajectory length and error envelope of one direct regression.

    The parameter-error bound is err(T) = err_coefficient / sqrt(T); the
    descriptor string records that functional form for serialized reports.
    ``t_epsilon`` is the sample count sufficient for epsilon accuracy when
    an epsilon was supplied.
    """

    t_min: float
    err_coefficient: float
    err_form: str
    t_epsilon: Optional[float]
    inputs: BoundInputs

    def err_at(self, t_length: float) -> float:
        return self.err_coefficient / math.sqrt(t_length)

    def to_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "err_coefficient": self.err_coefficient,
            "err_form": self.err_form,
            "t_epsilon": self.t_epsilon,
        }


def _t_epsilon(inputs: BoundInputs, epsilon: float, weight: float = 1.0) -> float:
    """Samples sufficient for accuracy ``weight * epsilon`` on one estimation set."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    nx, nu = float(inputs.n_x_set), float(inputs.n_u_set)
    dims = nx + nu
    w = inputs.w_factor
    return max(
        inputs.o_tilde**2
        * w**2
        * dims**3
        * inputs.q_true_frobenius**2
        / (inputs.sigma_eta**4 * weight**2 * epsilon**2),
        inputs.o_tilde * w**2 * nx**2 * dims**2 / inputs.sigma_eta**4,
    )


def sample_bound_direct(inputs: BoundInputs, *, epsilon: Optional[float] = None) -> DirectBoundReport:
    """Trajectory-length requirement and error envelope for one regression set."""
    nx, nu = float(inputs.n_x_set), float(inputs.n_u_set)
    dims = nx + nu
    sbar = inputs.sigma_bar
    stability_factor = (
        inputs.tau**4
        * _plus(inputs.norm_k) ** 8
        * (inputs.norm_a**2 + inputs.norm_b**2) ** 2
        / (inputs.rho**4 * (1.0 - inputs.rho**2) ** 2)
    )
    burn_in = dims**2
    excitation = (
        nx**2
        * dims**2
        * _plus(inputs.norm_k_play) ** 4
        / inputs.sigma_eta**4
        * inputs.sigma_w**2
        * sbar**2
        * stability_factor
    )
    t_min = inputs.o_tilde * max(burn_in, excitation)

    err_coefficient = (
        inputs.o_tilde
        * dims
        * _plus(inputs.norm_k_play) ** 2
        / inputs.sigma_eta**2
        * inputs.sigma_w
        * sbar
        * inputs.q_true_frobenius
        * inputs.tau**2
        * _plus(inputs.norm_k) ** 4
        * (inputs.norm_a**2 + inputs.norm_b**2)
        / (inputs.rho**2 * (1.0 - inputs.rho**2))
    )

    return DirectBoundReport(
        t_min=t_min,
        err_coefficient=err_coefficient,
        err_form="err(T) = err_coefficient / sqrt(T)",
        t_epsilon=None if epsilon is None else _t_epsilon(inputs, epsilon),
        inputs=inputs,
    )


@dataclass(frozen=True)
class IndirectBoundReport:
    """Aggregated requirement and error envelope over a gradient set.

    The trajectory must satisfy every member's own requirement, so
    ``t_min`` is their maximum; the error envelope sums the members'
    envelopes.  ``t_epsilon`` splits the target accuracy across members by
    the supplied weights.
    """

    t_min: float
    err_coefficient: float
    err_form: str
    t_epsilon: Optional[float]
    weights: tuple[float, ...]
    members: tuple[DirectBoundReport, ...]

    def err_at(self, t_length: float) -> float:
        return self.err_coefficient / math.sqrt(t_length)

    def to_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "err_coefficient": self.err_coefficient,
            "err_form": self.err_form,
            "t_epsilon": self.t_epsilon,
            "weights": list(self.weights),
            "members": [m.to_dict() for m in self.members],
        }


def norm_proportional_weights(member_inputs: Sequence[BoundInputs]) -> tuple[float, ...]:
    """Accuracy split proportional to each member's true Q-matrix norm."""
    norms = [m.q_true_frobenius for m in member_inputs]
    total = sum(norms)
    if total <= 0.0:
        return tuple(1.0 / len(member_inputs) for _ in member_inputs)
    return tuple(v / total for v in norms)


def sample_bound_indirect(
    member_inputs: Sequence[BoundInputs],
    *,
    weights: Optional[Sequence[float]] = None,
    epsilon: Optional[float] = None,
) -> IndirectBoundReport:
    """Bounds for estimating each gradient-set member on its own value set.

    ``weights`` must be positive and sum to one; they default to the
    norm-proportional split, under which the worst-case epsilon sample
    count never exceeds the direct architecture's.
    """
    if not member_inputs:
        raise ValueError("at least one gradient-set member is required")
    if weights is None:
        w = norm_proportional_weights(member_inputs)
    else:
        w = tuple(float(v) for v in weights)
        if len(w) != len(member_inputs):
            raise ValueError(
                f"got {len(w)} weights for {len(member_inputs)} gradient-set members"
            )
        if any(v <= 0.0 for v in w):
            raise ValueError("weights must be positive")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")

    members = [sample_bound_direct(m) for m in member_inputs]
    t_min = max(m.t_min for m in members)
    err_coefficient = sum(m.err_coefficient for m in members)

    t_epsilon = None
    if epsilon is not None:
        t_epsilon = max(_t_epsilon(m, epsilon, w_j) for m, w_j in zip(member_inputs, w))

    return IndirectBoundReport(
        t_min=t_min,
        err_coefficient=err_coefficient,
        err_form="err(T) = err_coefficient / sqrt(T)",
        t_epsilon=t_epsilon,
        weights=w,
        members=tuple(members),
    )


def bound_inputs_from_subsystem(
    sub: Subsystem,
    *,
    sigma_eta: float,
    norm_sigma0: float = 1.0,
    o_tilde: float = 1.0,
) -> BoundInputs:
    """Measure the bound inputs on a concrete restricted system.

    The subsystem's gain is both the evaluated and the play policy, so one
    (tau, rho) certificate covers both closed loops and ``norm_k_play``
    equals ``norm_k``; the stationary covariance uses that loop with both
    noise sources.  The bounds divide by rho, so a rho that
    ``stability_report`` does not certify (at most ``RHO_FLOOR``) is an
    InstabilityError.
    """
    closed = sub.closed_loop()
    rep = stability_report(closed)
    if rep.rho <= RHO_FLOOR:
        raise InstabilityError(f"the bounds for agent set {list(sub.agents)} divide by rho", rep.rho)
    p_inf = lyapunov_solve(
        closed,
        sub.sigma_w**2 * np.eye(sub.nx) + sigma_eta**2 * (sub.b @ sub.b.T),
    )
    q_true = true_q_matrix(sub)
    norm_k = float(np.linalg.norm(sub.k, ord=2))
    return BoundInputs(
        n_x_set=sub.nx,
        n_u_set=sub.nu,
        tau=rep.tau,
        rho=rep.rho,
        sigma_w=sub.sigma_w,
        sigma_eta=sigma_eta,
        norm_a=float(np.linalg.norm(sub.a, ord=2)),
        norm_b=float(np.linalg.norm(sub.b, ord=2)),
        norm_k=norm_k,
        norm_k_play=norm_k,
        norm_sigma0=norm_sigma0,
        norm_p_inf=float(np.linalg.norm(p_inf, ord=2)),
        q_true_frobenius=float(np.linalg.norm(q_true, ord="fro")),
        o_tilde=o_tilde,
    )
