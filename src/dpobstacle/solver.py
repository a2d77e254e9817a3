"""Damped Newton solver for the penalized obstacle system.

One approximating problem (the obstacle penalty at parameter ``rho``) is
solved by a semismooth Newton iteration with Armijo backtracking on the
squared residual norm (module constants: step factor ``DAMPING_FACTOR`` = 0.5,
at most ``MAX_HALVINGS`` = 40 halvings, Armijo constant ``ARMIJO`` = 1e-4); a
fixed-point (Picard) direction with frozen diffusion coefficient serves as
fallback when Newton steps are rejected repeatedly.  A decreasing ``rho``
schedule is handled by warm-started continuation over :func:`stages`: each
stage is a (problem, config) pair whose problem carries its own, co-reduced
gradient regularization and boundary smoothing.  The penalty, and the
violation a solve reports, come from the problem's
:class:`~dpobstacle.nonsmooth.ConstraintSet`; both vanish on nodes whose
obstacle is ``+inf``, so an obstacle-free problem is solved by the same
system.

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
    operator_residual,
)
from .errors import ConfigurationError
from .meshing import DiscreteFunction, nodal_values

__all__ = ["SolverConfig", "SolveReport", "TraceEntry", "solve_penalized",
           "check_schedule", "stages", "continuation", "vi_residual",
           "residual_norm"]

# backtracking: step factor, halvings per line search, Armijo constant
DAMPING_FACTOR = 0.5
MAX_HALVINGS = 40
ARMIJO = 1e-4
# membership tolerance for the probes of :func:`vi_residual`
TOL_MEMBERSHIP = 1e-12


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
    """Lumped-weight-scaled Euclidean norm; Dirichlet rows enter unscaled.
    Squares beyond the float range give ``inf``, silently."""
    w = np.where(mesh.dirichlet_mask, 1.0, mesh.node_volume_weights)
    with np.errstate(over="ignore"):
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


def _solve_direction(J, r, order):
    """Solve J d = -r for the free-node Jacobian ``J`` in factor order
    ``order`` (see :class:`~dpobstacle.meshing.FactorLayout`) and the
    residual ``r`` in node order; if the solve breaks (error or non-finite
    entries), retry once with the diagonal lifted by ``1e-12 (1 + |J_ii|)``.

    ``J`` arrives ordered by minimum degree on ``J^T + J`` of the mesh's
    element adjacency, computed once per mesh, so SuperLU factors it as it
    stands (``NATURAL``) instead of ordering every Jacobian; on the 2D meshes
    its factors hold about 40% fewer entries than under the default column
    ordering (COLAMD).  The solution is scattered back to node order, into
    zeros: the direction is +0.0 on the Dirichlet nodes."""
    b = -r[order]
    for note in ("", "regularized"):
        if note:
            J = J + sp.diags(1e-12 * (1.0 + np.abs(J.diagonal())))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            with np.errstate(all="ignore"):
                try:
                    x = spla.spsolve(J, b, permc_spec="NATURAL")
                except RuntimeError:
                    continue
        if np.all(np.isfinite(x)):
            d = np.zeros_like(r)
            d[order] = x
            return d, note
    return None, note


def solve_penalized(spec: ProblemSpec, cfg: SolverConfig, initial=None) -> SolveReport:
    """Solve one approximating problem; non-convergence yields a report, not
    an exception.

    The initial state is projected onto the Dirichlet mask, where every
    direction is +0.0, so every iterate is +0.0 there.  Every iteration
    solves for a direction and backtracks on the squared scaled residual
    norm: the step length starts at 1 and is multiplied by
    ``DAMPING_FACTOR`` (0.5) at most ``MAX_HALVINGS`` (40) times until the
    Armijo test with ``ARMIJO`` (1e-4) holds; a trial whose residual norm is
    not finite is rejected.  After five rejected line searches the direction
    switches from Newton to the frozen-coefficient fixed point; every
    rejected line search is followed by one full fixed-point step, taken
    unconditionally and traced as ``picard`` with a ``forced`` note.

    Each iterate is assembled once, residual only: the start, then each
    accepted trial of the line search (or the forced step).  Its Newton or
    fixed-point Jacobian is built from that system
    (``assemble_system(..., system=...)``), so the residual, the selection and
    the element state are not computed again; the result is bit for bit the
    one a fresh assembly gives.
    """
    mesh = spec.mesh
    if initial is None:
        u = np.zeros(mesh.n_nodes)
    else:
        u = nodal_values(initial).copy()
    u[mesh.dirichlet_mask] = 0.0

    eff_tol = max(cfg.newton_tol, _fp_floor(spec, cfg))

    def assemble(vals, with_jacobian, frozen=False, system=None):
        return assemble_system(spec, vals, rho=cfg.rho, with_jacobian=with_jacobian,
                               frozen=frozen, system=system)

    def direction(frozen):
        # the Jacobian at u from the residual-only system of u
        jacobian = assemble(u, with_jacobian=True, frozen=frozen, system=system).jacobian
        return _solve_direction(jacobian, system.residual,
                                mesh.block_pattern.factor_layout.order)

    def trial(d, alpha):
        vals = u + alpha * d
        system = assemble(vals, with_jacobian=False)
        return vals, system, residual_norm(mesh, system.residual)

    system = assemble(u, with_jacobian=False)
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
                vals, trial_system, rnorm_new = trial(d, alpha)
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
            vals, trial_system, rnorm_new = trial(d, alpha)
        u, system, rnorm = vals, trial_system, rnorm_new
        iterations += 1
        trace.append(TraceEntry(iterations, rnorm, alpha, kind, note))

    violation = spec.constraints.excess(u)
    return SolveReport(
        solution=DiscreteFunction(mesh, u),
        eta=system.eta,
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
    smoothing are the base problem's scaled by ``rho / schedule[0]``; every
    stage problem shares the base problem's ``constraints``."""
    schedule = check_schedule(schedule)
    pairs = []
    for rho in schedule:
        factor = rho / schedule[0]
        boundary = replace(spec.boundary, delta=spec.boundary.delta * factor)
        pairs.append((spec.derive(eps_grad=spec.eps_grad * factor, boundary=boundary),
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


def vi_residual(spec: ProblemSpec, u, eta, probes, bumps=()) -> float:
    """Variational-inequality certificate against a finite probe set.

    For each admissible probe ``v`` the value
    ``F(v) = <A u, v - u> + sum_gamma2 bw_i j°(s_i; v_i - u_i) - <eta, v - u>_w``
    is computed, and the minimum over the probes is returned.  A nonnegative
    minimum (above a small negative tolerance chosen by the caller) is a
    necessary certificate for ``u`` solving the obstacle inequality with
    selection ``eta``.  ``probes`` are explicit states; each state ``b`` of
    ``bumps`` stands for its ``n_nodes`` coordinate probes, ``u`` with node
    ``i`` replaced by ``b_i``.  Probes and bump states outside the admissible
    set (beyond ``TOL_MEMBERSHIP``, 1e-12), and ``u`` there when bump states
    are given, raise :class:`ConfigurationError`, as does an empty probe set.

    ``F`` is a nodal sum: with ``a = operator_residual(u) - w eta``,
    ``<A u, d> - <eta, d>_w = a . d``, and the boundary term is a sum over the
    Gamma_2 nodes.  So ``a`` is computed once, an explicit probe's value is the
    row sum of its nodal terms, and a coordinate probe's value is one entry
    of its bump state's terms (a one-node direction has one nonzero term):
    O(n) per probe and per bump state.  An exactly zero minimum is ``+0.0``.

    Kink: for a potential with a kink, a Gamma_2 trace with
    ``|s| < spec.boundary.delta`` is certified as sitting on the kink
    ``s = 0``.  Inside that band the smoothed gradient that ``u`` solved with
    lies in the Clarke interval at 0.  A limit pinned at the kink carries a
    trace inside the band (for ``abs``, ``delta`` times its flux over
    ``alpha``), which the one-sided ``j°`` at the trace itself would reject.
    The caller passes the problem smoothed as ``u`` was solved (the study:
    its last stage's ``delta``).  For the kinked potentials snapping can
    only raise ``j°``.
    """
    mesh = spec.mesh
    u_vals = nodal_values(u)
    rows = [nodal_values(v) for v in probes]
    n_explicit = len(rows)
    rows += [nodal_values(b) for b in bumps]
    if not rows:
        raise ConfigurationError("probe set must be nonempty")
    K = spec.constraints
    T = np.array(rows)
    inside = np.all(K.contains(T, tol=TOL_MEMBERSHIP))
    if n_explicit < len(rows):  # coordinate probes carry u's other entries
        inside = inside and K.contains(u_vals, tol=TOL_MEMBERSHIP)
    if not inside:
        raise ConfigurationError("a probe direction is not admissible")
    a = operator_residual(spec, u_vals) - mesh.node_volume_weights * np.asarray(eta)
    gamma2 = mesh.gamma2_nodes
    s = u_vals[gamma2]
    if not spec.boundary.smooth:
        s = np.where(np.abs(s) < spec.boundary.delta, 0.0, s)
    # the nodal terms of every direction v - u, computed in place
    T -= u_vals
    boundary = mesh.gamma2_weights[gamma2] * spec.boundary.clarke_directional(
        s, T[:, gamma2])
    T *= a
    T[:, gamma2] += boundary
    best = min(np.min(T[:n_explicit].sum(axis=1), initial=np.inf),
               np.min(T[n_explicit:], initial=np.inf))
    # a * 0.0 is -0.0 where a < 0: report an exactly zero minimum as +0.0
    return float(best) + 0.0
