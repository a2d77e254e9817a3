"""Damped Newton solver for the penalized obstacle system.

One approximating problem (the obstacle penalty at parameter ``rho``) is
solved by a semismooth Newton iteration with Armijo backtracking on the
squared residual norm (module constants: step factor ``DAMPING_FACTOR`` = 0.5,
at most ``MAX_HALVINGS`` = 40 halvings, Armijo constant ``ARMIJO`` = 1e-4); a
fixed-point (Picard) direction with frozen diffusion coefficient serves as
fallback when Newton steps are rejected repeatedly.  A decreasing ``rho``
schedule is handled by warm-started continuation that co-reduces the
gradient regularization and the boundary smoothing.  The
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

# backtracking: step factor, halvings per line search, Armijo constant
DAMPING_FACTOR = 0.5
MAX_HALVINGS = 40
ARMIJO = 1e-4
# membership tolerance for the probes of :func:`vi_residual`
TOL_MEMBERSHIP = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budgets and smoothing parameters for one approximate solve."""

    rho: float = 1.0
    mode: str = "penalty"
    newton_tol: float = 1e-10
    max_newton: int = 100
    picard_fallback: bool = True
    delta_boundary: float = 1e-6
    eps_grad: float | None = None  # None: use the problem's value

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown solver mode {self.mode!r}")
        if self.mode != "unconstrained" and not self.rho > 0:
            raise ConfigurationError("approximation parameter rho must be positive")


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


def _solve_direction(J, r):
    """Solve J d = -r; if the solve breaks (error or non-finite entries),
    retry once with the diagonal lifted by ``1e-12 (1 + |J_ii|)``."""
    for note in ("", "regularized"):
        if note:
            J = J + sp.diags(1e-12 * (1.0 + np.abs(J.diagonal())))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            with np.errstate(all="ignore"):
                try:
                    d = spla.spsolve(J.tocsc(), -r)
                except RuntimeError:
                    continue
        if np.all(np.isfinite(d)):
            return d, note
    return None, note


def solve_penalized(spec: ProblemSpec, cfg: SolverConfig, initial=None) -> SolveReport:
    """Solve one approximating problem; non-convergence yields a report, not
    an exception.

    The initial state is projected onto the Dirichlet mask.  Every iteration
    solves for a direction and backtracks on the squared scaled residual
    norm: the step length starts at 1 and is multiplied by
    ``DAMPING_FACTOR`` (0.5) at most ``MAX_HALVINGS`` (40) times until the
    Armijo test with ``ARMIJO`` (1e-4) holds.  After five rejected line
    searches the direction switches from Newton to the frozen-coefficient
    fixed point (if ``picard_fallback``); every rejected line search is
    followed by one full fixed-point step, taken unconditionally and traced
    as ``picard`` with a ``forced`` note.
    """
    mesh = spec.mesh
    if initial is None:
        u = np.zeros(mesh.n_nodes)
    else:
        u = np.array(initial.values if isinstance(initial, DiscreteFunction)
                     else initial, dtype=float)
    u[mesh.dirichlet_mask] = 0.0

    eff_tol = max(cfg.newton_tol, _fp_floor(spec, cfg))

    def assemble(vals, with_jacobian, frozen=False):
        return assemble_system(
            spec, vals, mode=cfg.mode, rho=cfg.rho, delta=cfg.delta_boundary,
            eps_grad=cfg.eps_grad, with_jacobian=with_jacobian, frozen=frozen,
        )

    def direction(frozen):
        system = assemble(u, with_jacobian=True, frozen=frozen)
        d, note = _solve_direction(system.jacobian, system.residual)
        if d is not None:
            # keep the Dirichlet values exactly zero (direct-solve roundoff
            # can leak through fill-in)
            d[mesh.dirichlet_mask] = -u[mesh.dirichlet_mask]
        return d, note

    def trial(d, alpha):
        vals = u + alpha * d
        system = assemble(vals, with_jacobian=False)
        return vals, system, residual_norm(mesh, system.residual)

    system = assemble(u, with_jacobian=False)
    eta = system.eta
    rnorm = residual_norm(mesh, system.residual)
    trace = [TraceEntry(0, rnorm, 0.0, "init")]
    iterations = 0
    failed_newton = 0
    direction_mode = "newton"

    while not rnorm <= eff_tol and iterations < cfg.max_newton:
        kind = direction_mode
        d, note = direction(frozen=kind == "picard")
        accepted = False
        if d is not None:
            alpha = 1.0
            for _ in range(MAX_HALVINGS + 1):
                vals, system, rnorm_new = trial(d, alpha)
                if rnorm_new**2 <= (1.0 - 2.0 * ARMIJO * alpha) * rnorm**2:
                    accepted = True
                    break
                alpha *= DAMPING_FACTOR
        if not accepted:
            # rejected line search (or unsolvable system)
            failed_newton += 1
            if not cfg.picard_fallback:
                trace.append(TraceEntry(iterations, rnorm, 0.0, kind,
                                        "rejected: no fallback"))
                break
            if failed_newton >= 5:
                direction_mode = "picard"
            d, note = direction(frozen=True)
            if d is None:
                trace.append(TraceEntry(iterations, rnorm, 0.0, "picard",
                                        "fixed-point system unsolvable"))
                break
            kind, alpha, note = "picard", 1.0, ("forced " + note).strip()
            vals, system, rnorm_new = trial(d, alpha)
        u, eta, rnorm = vals, system.eta, rnorm_new
        iterations += 1
        trace.append(TraceEntry(iterations, rnorm, alpha, kind, note))

    violation = plus_part(DiscreteFunction(mesh, u), spec.obstacle.values).values
    return SolveReport(
        solution=DiscreteFunction(mesh, u),
        eta=eta,
        residual_norm=rnorm,
        iterations=iterations,
        converged=bool(rnorm <= eff_tol),
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


def vi_residual(spec: ProblemSpec, u, eta, probes) -> float:
    """Variational-inequality certificate against a finite probe set.

    For each admissible probe ``v`` the value
    ``<A u, v - u> + boundary directional term - <eta, v - u>_w`` is computed;
    the minimum over probes is returned.  A nonnegative minimum (above a small
    negative tolerance chosen by the caller) is a necessary certificate for
    ``u`` solving the obstacle inequality with selection ``eta``.  Probes
    outside the admissible set (beyond ``TOL_MEMBERSHIP``, 1e-12) raise
    :class:`ConfigurationError`.
    """
    K = constraint_set(spec)
    u_vals = u.values if isinstance(u, DiscreteFunction) else np.asarray(u, float)
    eta = np.asarray(eta, float)
    w = spec.mesh.node_volume_weights
    best = np.inf
    for v in probes:
        v_vals = v.values if isinstance(v, DiscreteFunction) else np.asarray(v, float)
        if not K.contains(v_vals, tol=TOL_MEMBERSHIP):
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
