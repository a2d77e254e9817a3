"""Damped Newton solver for the penalized obstacle system.

One approximating problem (the obstacle penalty at parameter ``rho``) is
solved by a semismooth Newton iteration with Armijo backtracking on the
squared residual norm (module constants: step factor ``DAMPING_FACTOR`` = 0.5,
at most ``MAX_HALVINGS`` = 40 halvings, Armijo constant ``ARMIJO`` = 1e-4); a
fixed-point (Picard) direction with frozen diffusion coefficient serves as
fallback when Newton steps are rejected repeatedly.  A decreasing ``rho``
schedule is handled by warm-started continuation over :func:`stages`: each
stage is a (problem, config) pair whose problem carries its own, co-reduced
gradient regularization and boundary smoothing.  The penalty is also the
Moreau-Yosida approximation: in the lumped metric the envelope gradient of the
constraint-set indicator is the penalty vector ``w (u - phi)^+ / rho``, and it
vanishes on nodes whose obstacle is ``+inf``, so an obstacle-free problem is
solved by the same system.

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

import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    ProblemSpec,
    apply_operator,  # noqa: F401  perfbench/tracing.py wraps solver.apply_operator
    assemble_system,
    operator_coefficient,
)
from .errors import ConfigurationError
from .meshing import DiscreteFunction, nodal_values
from .nonsmooth import plus_part

__all__ = ["SolverConfig", "SolveReport", "TraceEntry", "solve_penalized",
           "check_schedule", "stages", "continuation", "vi_residual",
           "residual_norm"]

# backtracking: step factor, halvings per line search, Armijo constant
DAMPING_FACTOR = 0.5
MAX_HALVINGS = 40
ARMIJO = 1e-4
# membership tolerance for the probes of :func:`vi_residual`, and the number
# of probes it stacks into one batch (bounds the batch arrays to about
# 64 x (n_nodes + n_elements) floats)
TOL_MEMBERSHIP = 1e-12
VI_CHUNK = 64


@dataclass(frozen=True)
class SolverConfig:
    """The penalty and the iteration settings of one approximate solve;
    construction checks each field's rule (a ``ConfigurationError`` whose
    ``param`` names the field)."""

    rho: float = 1.0
    newton_tol: float = 1e-10
    max_newton: int = 100

    def __post_init__(self):
        for param, holds, rule in (
            ("rho", 0 < self.rho < np.inf, "be finite and positive"),
            ("newton_tol", 0 < self.newton_tol < np.inf, "be finite and positive"),
            ("max_newton", isinstance(self.max_newton, numbers.Integral),
             "be an integer"),
            ("max_newton", self.max_newton >= 1, "be >= 1"),
        ):
            if not holds:
                raise ConfigurationError(
                    f"{param} must {rule}, got {getattr(self, param)}", param=param)


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
    rho: float


def residual_norm(mesh, r):
    """Lumped-weight-scaled Euclidean norm; Dirichlet rows enter unscaled."""
    w = np.where(mesh.dirichlet_mask, 1.0, mesh.node_volume_weights)
    return float(np.sqrt(np.sum(r * r / w)))


def _fp_floor(spec, cfg):
    """Attainable scaled-residual accuracy of the penalty rows (0 without a
    finite obstacle on a free node)."""
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
    Armijo test with ``ARMIJO`` (1e-4) holds; a trial whose residual norm is
    not finite is rejected.  After five rejected line searches the direction
    switches from Newton to the frozen-coefficient fixed point; every
    rejected line search is followed by one full fixed-point step, taken
    unconditionally and traced as ``picard`` with a ``forced`` note.
    """
    mesh = spec.mesh
    if initial is None:
        u = np.zeros(mesh.n_nodes)
    else:
        u = nodal_values(initial).copy()
    u[mesh.dirichlet_mask] = 0.0

    eff_tol = max(cfg.newton_tol, _fp_floor(spec, cfg))

    def assemble(vals, with_jacobian, frozen=False):
        return assemble_system(spec, vals, rho=cfg.rho,
                               with_jacobian=with_jacobian, frozen=frozen)

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
                # an overflowed trial norm (inf) would pass against inf
                if (np.isfinite(rnorm_new)
                        and rnorm_new**2 <= (1.0 - 2.0 * ARMIJO * alpha) * rnorm**2):
                    accepted = True
                    break
                alpha *= DAMPING_FACTOR
        if not accepted:
            # rejected line search (or unsolvable system)
            failed_newton += 1
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
        rho=cfg.rho,
    )


def check_schedule(schedule):
    """The schedule as a list of floats; raises :class:`ConfigurationError`
    unless it is nonempty, every entry is finite and positive, and each lies
    below the one before it (written so that NaN passes neither test)."""
    schedule = [float(r) for r in schedule]
    if not schedule:
        raise ConfigurationError("empty continuation schedule")
    if not all(0 < r < np.inf for r in schedule):
        raise ConfigurationError("continuation schedule must be finite and positive")
    if not all(b < a for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError("continuation schedule must be strictly decreasing")
    return schedule


def stages(spec: ProblemSpec, schedule, cfg: SolverConfig):
    """One ``(problem, solver config)`` pair per stage of a schedule that
    passes :func:`check_schedule`.  A stage's config takes its schedule entry
    as ``rho``, and its problem's gradient regularization and boundary
    smoothing are the base problem's scaled by ``rho / schedule[0]``."""
    schedule = check_schedule(schedule)
    pairs = []
    for rho in schedule:
        factor = rho / schedule[0]
        boundary = replace(spec.boundary, delta=spec.boundary.delta * factor)
        pairs.append((replace(spec, eps_grad=spec.eps_grad * factor, boundary=boundary),
                      replace(cfg, rho=rho)))
    return pairs


def continuation(spec: ProblemSpec, schedule, cfg: SolverConfig, initial=None):
    """Warm-started solves of the pairs of :func:`stages`.

    A stage that fails to converge aborts the schedule; the partial list
    (ending with the failed report) is returned.
    """
    reports = []
    state = initial
    for stage_spec, stage_cfg in stages(spec, schedule, cfg):
        report = solve_penalized(stage_spec, stage_cfg, initial=state)
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
    :class:`ConfigurationError`, as does an empty probe set.

    The element gradients of ``u`` and the diffusion coefficient are computed
    once per call, and the probes are certified in stacks of ``VI_CHUNK``
    rows: one membership test, one ``v - u`` and one boundary evaluation per
    stack.  A coordinate probe (``v - u`` nonzero at one node) changes the
    gradient only on that node's element patch; the patches of a stack's
    coordinate probes share one gradient evaluation, O(patch) element work
    per probe instead of O(elements).  Every probe's value is bit-identical
    to its own full-element sum: one nonzero nodal value makes every patch
    gradient an exact product, and the three sums of each probe (operator,
    boundary, selection) are each one ``ddot`` over a full-length contiguous
    row, added in that order.  A batched matrix-vector product, a strided
    view or a patch-only dot would group those sums differently and move the
    last bits.
    """
    mesh = spec.mesh
    K = spec.constraints
    u_vals = nodal_values(u)
    rows = [nodal_values(v) for v in probes]
    if not rows:
        raise ConfigurationError("probe set must be nonempty")
    # everything that depends on u alone, computed once
    grads_u, coef = operator_coefficient(spec, u_vals)
    w_eta = mesh.node_volume_weights * np.asarray(eta, float)
    gamma2 = mesh.gamma2_nodes
    bw = mesh.gamma2_weights[gamma2]
    s = u_vals[gamma2]
    best = np.inf
    for first in range(0, len(rows), VI_CHUNK):
        V = np.array(rows[first:first + VI_CHUNK])
        if not np.all(K.contains(V, tol=TOL_MEMBERSHIP)):
            raise ConfigurationError("a probe direction is not admissible")
        DV = V - u_vals
        support = np.count_nonzero(DV, axis=1)
        # per-element operator terms; rows without support stay zero
        T = np.zeros((len(DV), mesh.n_elements))
        single = np.flatnonzero(support == 1)
        if single.size:
            patches = [mesh.node_patches[i]
                       for i in np.argmax(DV[single] != 0, axis=1)]
            elems = np.concatenate(patches)
            owner = np.repeat(single, [p.size for p in patches])
            grads_v = np.einsum("ekv,ev->ek", mesh.gradient_maps[elems],
                                DV[owner[:, None], mesh.elements[elems]])
            T[owner, elems] = coef[elems] * np.sum(grads_u[elems] * grads_v, axis=1)
        for r in np.flatnonzero(support > 1):
            grads_v = np.einsum("ekv,ev->ek", mesh.gradient_maps,
                                DV[r][mesh.elements])
            T[r] = coef * np.sum(grads_u * grads_v, axis=1)
        # the column selection is laid out column-major, and so is the
        # elementwise j° of it: copy to contiguous rows for the ddot below
        C = np.ascontiguousarray(spec.boundary.clarke_directional(s, DV[:, gamma2]))
        for r in range(len(DV)):
            value = (float(np.dot(mesh.element_volumes, T[r]))
                     + float(np.dot(bw, C[r]))
                     - float(np.dot(w_eta, DV[r])))
            best = min(best, value)
    return float(best)
