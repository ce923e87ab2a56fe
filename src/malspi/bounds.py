"""Sample-complexity diagnostics for the restricted LSTDQ regressions.

Each estimation set's counts come from one excitation factor,
a = ``BoundInputs.w_factor`` / sigma_eta^2 (see ``_envelope``).  The
restricted estimate's Q-matrix error obeys err(T) = err_coefficient / sqrt(T)
for T >= t_min, and t_epsilon(weight) suffices for it to reach
weight * epsilon.  A direct count bounds its one regression's error
(weight 1); an indirect count bounds each gradient-set member's error at its
share of epsilon, so the members' errors sum to at most epsilon, and it can
exceed the direct count.  ``o_tilde`` stands in for the unidentified absolute
constant of the analysis (default one); every output grows with it.
``||.||_+`` clamps a spectral norm from below at one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from .linalg import RHO_FLOOR, InstabilityError, lyapunov_solve, stability_report
from .system import Subsystem, true_q_matrix
from .system import extract_subsystem  # noqa: F401  unused; a perfbench span rebinds this name


def _plus(value: float) -> float:
    """Norm clamped from below at one."""
    return max(1.0, float(value))


_NORM_FIELDS = (
    "norm_a", "norm_b", "norm_k", "norm_k_play", "norm_sigma0", "norm_p_inf", "q_true_frobenius",
)


@dataclass(frozen=True)
class BoundInputs:
    """Scalars the bounds depend on, for one estimation set.

    ``n_x_set`` and ``n_u_set`` are the stacked dimensions over the set
    (per-agent dimension times set size).  ``tau`` and ``rho`` certify
    ||L^k|| <= tau rho^k for both the evaluated and the play closed loop.
    Norm fields are spectral norms of the restricted matrices;
    ``q_true_frobenius`` is the Frobenius norm of the exact Q matrix.
    Every field must be finite and every norm nonnegative.
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
        # Checked first: every comparison below is False for NaN.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in _NORM_FIELDS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
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
        """Divided by sigma_eta^2, the excitation factor ``a`` of every count."""
        return (
            _plus(self.norm_k_play) ** 2
            * self.sigma_w
            * self.sigma_bar
            * self.tau**2
            * _plus(self.norm_k) ** 4
            * (self.norm_a**2 + self.norm_b**2)
            / (self.rho**2 * (1.0 - self.rho**2))
        )


def _envelope(inputs: BoundInputs) -> tuple[float, float, float]:
    """dims = n_x_set + n_u_set, err_coefficient = o_tilde dims ||Q||_F a and (n_x_set dims a)^2.

    t_min = o_tilde max(dims^2, (n_x_set dims a)^2); ``_t_epsilon``'s first
    term is dims times the T at which err(T) reaches weight * epsilon.
    """
    dims = float(inputs.n_x_set + inputs.n_u_set)
    a = inputs.w_factor / inputs.sigma_eta**2
    return dims, inputs.o_tilde * dims * inputs.q_true_frobenius * a, (inputs.n_x_set * dims * a) ** 2


def _t_epsilon(inputs: BoundInputs, epsilon: float, weight: float = 1.0) -> float:
    """Samples sufficient for accuracy ``weight * epsilon`` on one estimation set."""
    if not (0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    dims, err_coefficient, excitation = _envelope(inputs)
    return max(dims * (err_coefficient / (weight * epsilon)) ** 2, inputs.o_tilde * excitation)


@dataclass(frozen=True)
class _BoundReport:
    """Minimum trajectory length, error envelope and optional epsilon count.

    The parameter-error bound is err(T) = err_coefficient / sqrt(T);
    ``err_form`` records that functional form for serialized reports.
    ``t_epsilon`` is the sample count sufficient for epsilon accuracy when
    an epsilon was supplied.
    """

    err_form: ClassVar[str] = "err(T) = err_coefficient / sqrt(T)"

    t_min: float
    err_coefficient: float
    t_epsilon: Optional[float]

    def err_at(self, t_length: float) -> float:
        return self.err_coefficient / math.sqrt(t_length)

    def to_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "err_coefficient": self.err_coefficient,
            "err_form": self.err_form,
            "t_epsilon": self.t_epsilon,
        }


@dataclass(frozen=True)
class DirectBoundReport(_BoundReport):
    """Bounds of one direct regression, with the inputs they were computed from."""

    inputs: BoundInputs


def sample_bound_direct(inputs: BoundInputs, *, epsilon: Optional[float] = None) -> DirectBoundReport:
    """Trajectory-length requirement and error envelope for one regression set."""
    dims, err_coefficient, excitation = _envelope(inputs)
    return DirectBoundReport(
        t_min=inputs.o_tilde * max(dims**2, excitation),
        err_coefficient=err_coefficient,
        t_epsilon=None if epsilon is None else _t_epsilon(inputs, epsilon),
        inputs=inputs,
    )


@dataclass(frozen=True)
class IndirectBoundReport(_BoundReport):
    """Aggregated requirement and error envelope over a gradient set.

    The trajectory must satisfy every member's own requirement, so
    ``t_min`` is their maximum; the error envelope sums the members'
    envelopes.  ``t_epsilon`` splits the target accuracy across members by
    the supplied weights.
    """

    weights: tuple[float, ...]
    members: tuple[DirectBoundReport, ...]

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
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
    norm-proportional split.
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
        if not all(0.0 < v <= 1.0 for v in w):
            raise ValueError(f"weights must lie in (0, 1], got {list(w)}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")

    members = tuple(sample_bound_direct(m) for m in member_inputs)
    return IndirectBoundReport(
        t_min=max(m.t_min for m in members),
        err_coefficient=sum(m.err_coefficient for m in members),
        t_epsilon=None if epsilon is None else max(
            _t_epsilon(m, epsilon, w_j) for m, w_j in zip(member_inputs, w)
        ),
        weights=w,
        members=members,
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
