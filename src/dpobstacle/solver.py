"""Damped Newton solver for the penalized obstacle system.

One approximating problem (the obstacle penalty at parameter ``rho``) is
solved by a semismooth Newton iteration with Armijo backtracking on the
squared residual norm; a fixed-point (Picard) direction with frozen diffusion
coefficient serves as fallback when Newton steps are rejected repeatedly.  A
decreasing ``rho`` schedule is handled by warm-started continuation that
co-reduces the gradient regularization and the boundary smoothing.  The
``moreau_yosida`` mode is an alias of ``penalty``, because the lumped envelope
gradient ``w (u - phi)^+ / rho`` is the penalty vector; reports echo the name.

Residuals are measured in the lumped-weight-scaled Euclidean norm
``||r||_* = sqrt(sum_i r_i^2 / w_i)`` (Dirichlet rows enter unscaled), a
computable stand-in for the dual norm of the discrete energy space.

Floating-point accuracy floor: a penalty row at parameter ``rho`` evaluates
``(u_i - phi_i) / rho`` where ``u_i - phi_i`` is quantized at the spacing of
floats near ``phi_i``.  The scaled residual therefore cannot fall below about
``eps_machine * max|phi| / rho`` no matter how accurate the solve; for tiny
``rho`` this floor exceeds tight tolerances.  Convergence is declared at
``max(newton_tol, floor)`` and the effective tolerance is reported.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    ProblemSpec,
    apply_operator,
    assemble_system,
    clarke_directional,
    constraint_set,
)
from .errors import ConfigurationError
from .meshing import DiscreteFunction
from .nonsmooth import plus_part

__all__ = ["SolverConfig", "SolveReport", "TraceEntry", "solve_penalized",
           "stage_configs", "continuation", "vi_residual", "residual_norm"]

MODES = ("penalty", "moreau_yosida", "unconstrained")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budgets and smoothing parameters for one approximate solve."""

    rho: float = 1.0
    mode: str = "penalty"
    newton_tol: float = 1e-10
    max_newton: int = 100
    damping_factor: float = 0.5
    max_halvings: int = 40
    armijo: float = 1e-4
    picard_fallback: bool = True
    delta_boundary: float = 1e-6
    eps_grad: float | None = None  # None: use the problem's value

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown solver mode {self.mode!r}")
        if self.mode != "unconstrained" and not self.rho > 0:
            raise ConfigurationError("approximation parameter rho must be positive")
        if not (0 < self.damping_factor < 1) or self.max_halvings < 0:
            raise ConfigurationError("invalid backtracking parameters")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    residual_norm: float
    step_length: float
    direction: str  # "newton" | "picard"
    note: str = ""


@dataclass
class SolveReport:
    """Outcome of one approximate solve (never raises on non-convergence)."""

    solution: DiscreteFunction
    eta: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    obstacle_violation_sup: float
    obstacle_violation_l1: float
    iteration_trace: list
    effective_tol: float
    mode: str
    rho: float


def residual_norm(mesh, r):
    """Lumped-weight-scaled Euclidean norm; Dirichlet rows enter unscaled."""
    w = np.where(mesh.dirichlet_mask, 1.0, mesh.node_volume_weights)
    return float(np.sqrt(np.sum(r * r / w)))


def _fp_floor(spec, cfg):
    """Attainable scaled-residual accuracy of the penalty rows."""
    if cfg.mode == "unconstrained":
        return 0.0
    phi = spec.obstacle.values
    finite = np.isfinite(phi) & ~spec.mesh.dirichlet_mask
    if not np.any(finite):
        return 0.0
    scale = 1.0 + float(np.max(np.abs(phi[finite])))
    mass = float(np.sum(spec.mesh.node_volume_weights[finite]))
    return 4.0 * np.finfo(float).eps * scale / cfg.rho * np.sqrt(mass)


def _try_spsolve(J, r):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        with np.errstate(all="ignore"):
            try:
                return spla.spsolve(J.tocsc(), -r)
            except RuntimeError:
                return np.full_like(r, np.nan)


def _solve_direction(J, r):
    """Solve J d = -r, regularizing the diagonal once if the solve breaks."""
    d = _try_spsolve(J, r)
    if np.all(np.isfinite(d)):
        return d, ""
    J_reg = J + sp.diags(1e-12 * (1.0 + np.abs(J.diagonal())))
    d = _try_spsolve(J_reg, r)
    if np.all(np.isfinite(d)):
        return d, "regularized"
    return None, "regularized"


def solve_penalized(spec: ProblemSpec, cfg: SolverConfig, initial=None) -> SolveReport:
    """Solve one approximating problem; non-convergence yields a report, not
    an exception.

    The initial state is projected onto the Dirichlet mask.  Newton steps are
    damped by Armijo backtracking on the squared scaled residual norm; after
    five rejected Newton steps the iteration switches to the frozen-coefficient
    fixed-point direction (if enabled), and a totally rejected backtracking
    line search takes one full fixed-point step unconditionally.
    """
    mesh = spec.mesh
    if initial is None:
        u = np.zeros(mesh.n_nodes)
    else:
        u = np.array(initial.values if isinstance(initial, DiscreteFunction)
                     else initial, dtype=float)
    u[mesh.dirichlet_mask] = 0.0

    delta = cfg.delta_boundary
    eff_tol = max(cfg.newton_tol, _fp_floor(spec, cfg))

    def assemble(vals, with_jacobian, frozen=False):
        return assemble_system(
            spec, vals, mode=cfg.mode, rho=cfg.rho, delta=delta,
            eps_grad=cfg.eps_grad, with_jacobian=with_jacobian, frozen=frozen,
        )

    sys0 = assemble(u, with_jacobian=False)
    r, eta = sys0.residual, sys0.eta
    rnorm = residual_norm(mesh, r)
    trace = [TraceEntry(0, rnorm, 0.0, "init")]
    converged = rnorm <= eff_tol
    iterations = 0
    failed_newton = 0
    direction_mode = "newton"

    while not converged and iterations < cfg.max_newton:
        frozen = direction_mode == "picard"
        system = assemble(u, with_jacobian=True, frozen=frozen)
        d, note = _solve_direction(system.jacobian, system.residual)
        if d is not None:
            # keep the Dirichlet values exactly zero (direct-solve roundoff
            # can leak through fill-in)
            d[mesh.dirichlet_mask] = -u[mesh.dirichlet_mask]
        accepted = False
        if d is not None:
            alpha = 1.0
            for _ in range(cfg.max_halvings + 1):
                u_try = u + alpha * d
                sys_try = assemble(u_try, with_jacobian=False)
                rnorm_try = residual_norm(mesh, sys_try.residual)
                if rnorm_try**2 <= (1.0 - 2.0 * cfg.armijo * alpha) * rnorm**2:
                    u, r, eta, rnorm = u_try, sys_try.residual, sys_try.eta, rnorm_try
                    accepted = True
                    break
                alpha *= cfg.damping_factor
            if accepted:
                iterations += 1
                trace.append(TraceEntry(iterations, rnorm, alpha,
                                        direction_mode, note))
                converged = rnorm <= eff_tol
                continue

        # rejected line search (or unsolvable system)
        failed_newton += 1
        if not cfg.picard_fallback:
            trace.append(TraceEntry(iterations, rnorm, 0.0, direction_mode,
                                    "rejected: no fallback"))
            break
        if failed_newton >= 5:
            direction_mode = "picard"
        # one unconditional full fixed-point step
        system = assemble(u, with_jacobian=True, frozen=True)
        d, note2 = _solve_direction(system.jacobian, system.residual)
        if d is None:
            trace.append(TraceEntry(iterations, rnorm, 0.0, "picard",
                                    "fixed-point system unsolvable"))
            break
        d[mesh.dirichlet_mask] = -u[mesh.dirichlet_mask]
        u = u + d
        sys_new = assemble(u, with_jacobian=False)
        r, eta = sys_new.residual, sys_new.eta
        rnorm = residual_norm(mesh, r)
        iterations += 1
        trace.append(TraceEntry(iterations, rnorm, 1.0, "picard",
                                ("forced " + note2).strip()))
        converged = rnorm <= eff_tol

    violation = plus_part(DiscreteFunction(mesh, u), spec.obstacle.values).values
    return SolveReport(
        solution=DiscreteFunction(mesh, u),
        eta=eta,
        residual_norm=rnorm,
        iterations=iterations,
        converged=bool(converged),
        obstacle_violation_sup=float(np.max(violation)) if violation.size else 0.0,
        obstacle_violation_l1=float(np.dot(mesh.node_volume_weights, violation)),
        iteration_trace=trace,
        effective_tol=eff_tol,
        mode=cfg.mode,
        rho=cfg.rho,
    )


def stage_configs(spec: ProblemSpec, schedule, cfg: SolverConfig):
    """One configuration per stage of a nonempty, positive, strictly
    decreasing schedule; the gradient regularization and boundary smoothing
    shrink by the factor ``rho / schedule[0]`` wherever they are positive."""
    schedule = [float(r) for r in schedule]
    if not schedule:
        raise ConfigurationError("empty continuation schedule")
    if any(r <= 0 for r in schedule):
        raise ConfigurationError("continuation schedule must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError("continuation schedule must be strictly decreasing")

    eps0 = spec.eps_grad if cfg.eps_grad is None else cfg.eps_grad
    delta0 = cfg.delta_boundary
    stages = []
    for rho in schedule:
        factor = rho / schedule[0]
        stages.append(replace(cfg, rho=rho,
                              eps_grad=eps0 * factor if eps0 > 0 else eps0,
                              delta_boundary=delta0 * factor if delta0 > 0 else delta0))
    return stages


def continuation(spec: ProblemSpec, schedule, cfg: SolverConfig, initial=None):
    """Warm-started solves along the stages of :func:`stage_configs`.

    A stage that fails to converge aborts the schedule; the partial list
    (ending with the failed report) is returned.
    """
    reports = []
    state = initial
    for stage_cfg in stage_configs(spec, schedule, cfg):
        report = solve_penalized(spec, stage_cfg, initial=state)
        reports.append(report)
        if not report.converged:
            break
        state = report.solution
    return reports


def vi_residual(spec: ProblemSpec, u, eta, probes, tol_membership=1e-12) -> float:
    """Variational-inequality certificate against a finite probe set.

    For each admissible probe ``v`` the value
    ``<A u, v - u> + boundary directional term - <eta, v - u>_w`` is computed;
    the minimum over probes is returned.  A nonnegative minimum (above a small
    negative tolerance chosen by the caller) is a necessary certificate for
    ``u`` solving the obstacle inequality with selection ``eta``.  Probes
    outside the admissible set raise :class:`ConfigurationError`.
    """
    K = constraint_set(spec)
    u_vals = u.values if isinstance(u, DiscreteFunction) else np.asarray(u, float)
    eta = np.asarray(eta, float)
    w = spec.mesh.node_volume_weights
    best = np.inf
    for v in probes:
        v_vals = v.values if isinstance(v, DiscreteFunction) else np.asarray(v, float)
        if not K.contains(v_vals, tol=tol_membership):
            raise ConfigurationError("a probe direction is not admissible")
        dv = v_vals - u_vals
        value = (
            apply_operator(spec, u_vals, dv)
            + clarke_directional(spec, u_vals, dv)
            - float(np.dot(w * eta, dv))
        )
        best = min(best, value)
    if not probes:
        raise ConfigurationError("probe set must be nonempty")
    return float(best)
