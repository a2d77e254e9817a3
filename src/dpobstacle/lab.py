"""Solution-set diagnostics along a vanishing approximation schedule.

The approximate problems have (possibly non-singleton) solution sets, and
:func:`kuratowski_study` is the one sampler of them: seeded multi-start solves
crossed with selection rules.  It follows chains along the decreasing
parameter schedule: each chain is one warm-started
:func:`~dpobstacle.solver.continuation` run from one (start, selection rule)
pair, and stage ``n``'s sample is the deduplicated set of the chains'
converged ``n``-th solves, in chain order, so a one-entry schedule samples
one approximate problem.  The study reports the numerical signatures of set
convergence:

* obstacle violations per stage (sup and lumped-L1),
* distances between consecutive chain iterates, and from the next iterate to
  the current sample, in the discrete energy-space norm,
* limit candidates (chains whose step distances contract by a fixed factor
  over a trailing window), deduplicated and then certified, once per
  distinct limit, by a variational-inequality residual against a documented
  finite probe set, as a nodal sum in O(n) per explicit probe and per bump
  state (see :func:`~dpobstacle.solver.vi_residual`),
* nearest-point traces from a limit candidate back through the samples.

A finite multi-start sample is a surrogate for the full solution set and the
finite probe set makes the certificate necessary rather than sufficient; all
thresholds live in the configuration and are echoed in the reports.  Seeds
are fixed per experiment and recorded, so repeated runs are bit-identical,
whatever the number of threads.

For the linear-diffusion convex case the module also carries an independent
quadratic-programming oracle (a primal-dual active-set solve, exact after
finitely many sparse solves) and a checker for the growth/smallness
assumptions, including the embedding constants: exact at p = 2 from one
sparse factor of the stiffness, estimated by gradient ascent otherwise.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ProblemSpec, clarke_directional, operator_jacobian
from .errors import ConfigurationError, EmptySampleError, OracleFailure
from .meshing import DiscreteFunction, element_dots, nodal_values
from .musielak import luxemburg_norm
from .solver import (
    SolverConfig,
    SolveReport,
    check_schedule,
    continuation,
    solve_penalized,  # noqa: F401  perfbench/tracing.py wraps lab.solve_penalized
    stages,
    vi_residual,
)

__all__ = [
    "SampleMember",
    "SolutionSample",
    "LimitCandidate",
    "KuratowskiDiagnostics",
    "HypothesisReport",
    "QPSolution",
    "check_study",
    "selection_variants",
    "kuratowski_study",
    "nearest_point_trace",
    "qp_oracle",
    "validate_hypotheses",
]

# study parameter -> (bound, strict, count): the value must be finite and
# exceed the bound, or reach it when not strict, and a count must be an
# integer; ``vi_tol`` is the tolerance a certificate is read against
STUDY_RULES = {"n_starts": (1, False, True), "cauchy_window": (1, False, True),
               "dedup_tol": (0, True, False), "cauchy_factor": (0, True, False),
               "probe_bump": (0, True, False), "seed": (0, False, True),
               "n_random_probes": (0, False, True), "vi_tol": (0, False, False)}


def check_study(**values):
    """Check the given study parameters against ``STUDY_RULES``; the first
    that breaks its rule raises :class:`ConfigurationError` naming it in
    ``param``.  The test is written so that NaN and ``inf`` fail it."""
    for name, value in values.items():
        bound, strict, count = STUDY_RULES[name]
        if count and not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}",
                                     param=name)
        if not ((value > bound if strict else value >= bound) and value < np.inf):
            finite = "" if count else "finite and "
            raise ConfigurationError(
                f"{name} must be {finite}{'>' if strict else '>='} {bound}, "
                f"got {value}",
                param=name,
            )


# --- samples ----------------------------------------------------------------


@dataclass(frozen=True)
class SampleMember:
    rule: str
    start: int
    report: SolveReport

    @property
    def solution(self) -> DiscreteFunction:
        return self.report.solution

    @property
    def eta(self) -> np.ndarray:
        return self.report.eta


@dataclass
class SolutionSample:
    """Deduplicated converged solutions of one approximate problem."""

    rho: float
    members: list

    def __post_init__(self):
        if not self.members:
            raise EmptySampleError(
                f"no converged solutions sampled at rho={self.rho}"
            )
        for m in self.members:
            if not m.report.converged:
                raise ConfigurationError("sample members must all be converged")


def _lumped_distance(mesh, a, b):
    d = a - b
    return float(np.sqrt(np.dot(mesh.node_volume_weights, d * d)))


def _energy_distance(spec, a, b):
    diff = DiscreteFunction(spec.mesh, a - b)
    return luxemburg_norm(diff, spec.phase, of_gradient=False) + luxemburg_norm(
        diff, spec.phase, of_gradient=True
    )


def selection_variants(react, selection_rules):
    """One ``(label, reaction)`` pair per selection rule: a rule name, or a
    ``(name, weight)`` pair for the blend rule.  A rule that
    :class:`~dpobstacle.catalog.ReactionSpec` rejects raises
    :class:`ConfigurationError` naming ``selection_rules``."""
    variants = []
    for rule in selection_rules:
        try:
            if isinstance(rule, tuple):
                name, blend = rule
                variants.append((f"{name}({blend})",
                                 replace(react, rule=name, blend=float(blend))))
            else:
                variants.append((rule, replace(
                    react, rule=rule, blend=react.blend if rule == "blend" else None)))
        except ConfigurationError as exc:
            raise ConfigurationError(str(exc), param="selection_rules") from exc
    return variants


def _rule_variants(spec, selection_rules):
    if not selection_rules:
        return [(spec.reaction.rule, spec)]
    return [(label, spec.derive(reaction=react))
            for label, react in selection_variants(spec.reaction, selection_rules)]


def _random_starts(spec, n_starts, rng):
    phi = spec.obstacle.values
    finite = np.isfinite(phi)
    bound = (float(np.max(np.abs(phi[finite]))) if np.any(finite) else 1.0) + 1.0
    starts = rng.uniform(-bound, bound, size=(n_starts, spec.mesh.n_nodes))
    starts[:, spec.mesh.dirichlet_mask] = 0.0
    return starts


class _Chain(NamedTuple):
    label: str  # selection rule
    start: int  # index of the seeded start
    spec: ProblemSpec  # the problem under this selection rule
    initial: np.ndarray


def _chains(spec, n_starts, selection_rules, seed):
    """The seeded starts crossed with the selection rules, rules outermost."""
    starts = _random_starts(spec, n_starts, np.random.default_rng(seed))
    return [_Chain(label, k, vspec, starts[k])
            for label, vspec in _rule_variants(spec, selection_rules)
            for k in range(n_starts)]


def _dedup(mesh, items, tol, key=lambda item: item):
    """The items whose ``key(item).solution`` lies farther than ``tol`` (in
    the lumped norm) from every earlier kept one, in order."""
    kept = []
    for item in items:
        vals = key(item).solution.values
        if all(_lumped_distance(mesh, vals, key(k).solution.values) > tol
               for k in kept):
            kept.append(item)
    return kept


# --- set-convergence study --------------------------------------------------


@dataclass(frozen=True)
class LimitCandidate:
    solution: DiscreteFunction
    eta: np.ndarray
    rule: str
    start: int
    step_distances: tuple
    vi_value: float
    probe_count: int


@dataclass
class KuratowskiDiagnostics:
    """Per-stage diagnostics of a warm-started multi-chain study."""

    rhos: list
    samples: list  # SolutionSample per stage
    violation_sup: list
    violation_l1: list
    chain_distances: list  # d(u_{n+1}, sample_n); nan on the last stage
    candidates: list  # LimitCandidate
    thresholds: dict
    seed: int
    spec: ProblemSpec

    def to_json_dict(self):
        return {
            "rhos": list(map(float, self.rhos)),
            "violation_sup": list(map(float, self.violation_sup)),
            "violation_l1": list(map(float, self.violation_l1)),
            "chain_distances": [
                None if np.isnan(d) else float(d) for d in self.chain_distances
            ],
            "sample_sizes": [len(s.members) for s in self.samples],
            "thresholds": {k: (v if isinstance(v, str) else float(v))
                           for k, v in self.thresholds.items()},
            "seed": int(self.seed),
            "candidates": [
                {
                    "rule": c.rule,
                    "start": int(c.start),
                    "vi_value": float(c.vi_value),
                    "probe_count": int(c.probe_count),
                    "step_distances": list(map(float, c.step_distances)),
                    "solution": c.solution.values.tolist(),
                    "eta": c.eta.tolist(),
                }
                for c in self.candidates
            ],
        }

    def csv_rows(self, traces):
        """Rows (rho, violation_sup, violation_l1, chain_distance, vi_residual,
        nearest_point_distance[, clarke_gap]); the boundary column appears only
        when the natural boundary part is nonempty.

        ``traces`` holds :func:`nearest_point_trace` of each candidate, in
        candidate order; the first candidate's trace fills the distance column.
        """
        if self.candidates:
            near = [t[2] for t in traces[0]]
            vi = self.candidates[0].vi_value
        else:
            near = [float("nan")] * len(self.rhos)
            vi = float("nan")
        header = ["rho", "violation_sup", "violation_l1", "chain_distance",
                  "vi_residual", "nearest_point_distance"]
        with_boundary = self.spec.has_gamma2
        if with_boundary:
            header.append("clarke_gap")
        rows = [header]
        for n, rho in enumerate(self.rhos):
            row = [
                rho,
                self.violation_sup[n],
                self.violation_l1[n],
                self.chain_distances[n],
                vi,
                near[n],
            ]
            if with_boundary:
                row.append(self._clarke_gap(n))
            rows.append(row)
        return rows

    def _clarke_gap(self, n):
        if not self.candidates:
            return float("nan")
        u = self.candidates[0].solution
        member = self.samples[n].members[0].solution
        return clarke_directional(self.spec, u.values, member.values - u.values)


def _probe_set(K, u_vals, seed, bump_rel, n_random):
    """Documented probe family of a candidate, as ``(probes, bumps)``.

    ``probes`` holds the projected candidate and ``n_random`` seeded random
    admissible states near it; ``bumps`` holds the two projected states
    ``P(u + scale)`` and ``P(u - scale)``, where ``scale`` is ``bump_rel``
    times the candidate's sup norm (``bump_rel`` itself at a zero
    candidate).  The projection acts node by node, so a bump state holds the
    family's coordinate probes ``P(u +- scale e_i)`` at every node ``i``, as
    :func:`~dpobstacle.solver.vi_residual` reads them: the family has
    ``1 + 2 n + n_random`` probes in ``(3 + n_random) x n`` floats."""
    scale = bump_rel * float(np.max(np.abs(u_vals)))
    if scale == 0.0:
        scale = bump_rel
    rng = np.random.default_rng((seed, 97))
    noise = rng.normal(size=(n_random, u_vals.size)) * scale
    probes = K.project_values(np.vstack([u_vals, u_vals + noise]))
    bumps = K.project_values(np.array([u_vals + scale, u_vals - scale]))
    return probes, bumps


def kuratowski_study(
    spec: ProblemSpec,
    schedule,
    cfg: SolverConfig,
    n_starts: int = 5,
    selection_rules=None,
    seed: int = 0,
    dedup_tol: float = 1e-6,
    cauchy_factor: float = 0.5,
    cauchy_window: int = 3,
    probe_bump: float = 0.01,
    n_random_probes: int = 32,
    threads: int = 1,
) -> KuratowskiDiagnostics:
    """Warm-started chains along the schedule with per-stage set diagnostics.

    Each (selection rule, start) pair defines a chain: one
    :func:`~dpobstacle.solver.continuation` run from the seeded start, which
    stops at its first non-converged stage.  The starts are drawn uniformly
    from the box bounded by the largest finite obstacle value plus one,
    masked on the Dirichlet nodes.  Stage ``n``'s sample holds the chains'
    converged ``n``-th solves, deduplicated in chain order in the lumped
    norm; a stage where no chain converges raises :class:`EmptySampleError`.
    Chain step distances are measured in the discrete energy-space norm.
    Chains whose trailing ``cauchy_window`` step distances contract by
    ``cauchy_factor`` yield limit candidates; these are deduplicated in chain
    order first, and each kept candidate is then certified once, under its
    own chain's selection rule and base (first-stage) problem, smoothed at
    the last stage's boundary ``delta``, by a variational-inequality
    residual over the documented probe set.  With
    ``threads > 1`` whole chains run concurrently; the results do not depend
    on ``threads``, because each solve depends only on its own chain.  Every
    threshold is checked by :func:`check_study`, and the schedule by
    :func:`~dpobstacle.solver.check_schedule`, before any chain runs.
    """
    check_study(n_starts=n_starts, seed=seed, dedup_tol=dedup_tol,
                cauchy_factor=cauchy_factor, cauchy_window=cauchy_window,
                probe_bump=probe_bump, n_random_probes=n_random_probes)
    schedule = check_schedule(schedule)
    chains = _chains(spec, n_starts, selection_rules, seed)

    def run(c):
        return continuation(c.spec, schedule, cfg, initial=c.initial)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run, chains))
    else:
        runs = [run(c) for c in chains]
    # stage n's sample: the chains' converged n-th solves, in chain order
    samples = []
    for n, rho in enumerate(schedule):
        members = [SampleMember(c.label, c.start, r[n])
                   for c, r in zip(chains, runs) if len(r) > n and r[n].converged]
        samples.append(SolutionSample(rho, _dedup(spec.mesh, members, dedup_tol)))
    violation_sup = [max(m.report.obstacle_violation_sup for m in s.members)
                     for s in samples]
    violation_l1 = [max(m.report.obstacle_violation_l1 for m in s.members)
                    for s in samples]

    # chain step distances and limit candidates, deduplicated before the
    # certificate so that each distinct limit is certified once
    states = [[rep.solution.values for rep in run if rep.converged] for run in runs]
    found = []  # (chain, uncertified candidate)
    for c, run, sols in zip(chains, runs, states):
        if len(sols) != len(schedule):
            continue
        steps = tuple(
            _energy_distance(spec, sols[j + 1], sols[j])
            for j in range(len(sols) - 1)
        )
        if len(steps) < cauchy_window:
            continue
        seq = steps[-(cauchy_window + 1):]
        cauchy = all(b <= cauchy_factor * a for a, b in zip(seq[:-1], seq[1:]))
        if cauchy:
            found.append((c, LimitCandidate(
                solution=DiscreteFunction(spec.mesh, sols[-1]),
                eta=run[-1].eta,
                rule=c.label,
                start=c.start,
                step_distances=steps,
                vi_value=float("nan"),
                probe_count=0,
            )))

    def certify(c, cand):
        # the certificate is taken at the projected candidate, probes[0],
        # with the boundary smoothing of the last stage, which solved it
        probes, bumps = _probe_set(spec.constraints, cand.solution.values, seed,
                                   probe_bump, n_random_probes)
        last = stages(c.spec, schedule, cfg)[-1][0]
        vi = vi_residual(c.spec.derive(boundary=last.boundary), probes[0],
                         cand.eta, probes, bumps)
        return replace(cand, vi_value=vi, probe_count=len(probes) + bumps.size)

    candidates = [certify(c, cand) for c, cand in
                  _dedup(spec.mesh, found, dedup_tol, key=lambda f: f[1])]

    # d(u_{n+1}, sample_n) along the principal candidate's chain (which has
    # every stage), or along the first chain that reaches stage n + 1
    followed = states
    if candidates:
        principal = (candidates[0].rule, candidates[0].start)
        followed = [sols for c, sols in zip(chains, states)
                    if (c.label, c.start) == principal]
    chain_distances = [float("nan")] * len(schedule)
    for n in range(len(schedule) - 1):
        nxt = next((sols[n + 1] for sols in followed if len(sols) > n + 1), None)
        if nxt is not None:
            chain_distances[n] = min(
                _energy_distance(spec, nxt, m.solution.values)
                for m in samples[n].members
            )

    return KuratowskiDiagnostics(
        rhos=schedule,
        samples=samples,
        violation_sup=violation_sup,
        violation_l1=violation_l1,
        chain_distances=chain_distances,
        candidates=candidates,
        thresholds={
            "dedup_tol": dedup_tol,
            "cauchy_factor": cauchy_factor,
            "cauchy_window": cauchy_window,
            "probe_bump": probe_bump,
            "n_random_probes": n_random_probes,
        },
        seed=seed,
        spec=spec,
    )


def nearest_point_trace(diagnostics: KuratowskiDiagnostics, u):
    """Per-stage nearest sample member to ``u`` in the energy-space norm.

    Returns a list of ``(rho, member_index, distance)``.  ``u`` must be one of
    the study's limit candidates (up to the dedup tolerance).
    """
    u_vals = nodal_values(u)
    spec = diagnostics.spec
    tol = diagnostics.thresholds["dedup_tol"]
    if not any(
        _lumped_distance(spec.mesh, u_vals, c.solution.values) <= tol
        for c in diagnostics.candidates
    ):
        raise ConfigurationError("trace target is not a limit candidate of the study")
    trace = []
    for rho, sample in zip(diagnostics.rhos, diagnostics.samples):
        dists = [
            _energy_distance(spec, u_vals, m.solution.values)
            for m in sample.members
        ]
        j = int(np.argmin(dists))
        trace.append((float(rho), j, float(dists[j])))
    return trace


# --- QP oracle --------------------------------------------------------------


@dataclass(frozen=True)
class QPSolution:
    values: np.ndarray
    active: np.ndarray
    multipliers: np.ndarray
    iterations: int
    objective: float


def _qp_data(spec):
    """Sparse quadratic model ``(S_ff, b_f)`` on the free nodes (listed in
    ``idx``) for the linear-diffusion case."""
    if spec.phase.p != 2.0 or spec.phase.q != 2.0:
        raise ConfigurationError("the QP oracle requires p = q = 2")
    if spec.reaction.state_dependent:
        raise ConfigurationError(
            "the QP oracle requires a state-independent reaction selection"
        )
    if not spec.boundary.quadratic:
        raise ConfigurationError(
            "the QP oracle requires a quadratic (or zero) boundary potential"
        )
    mesh = spec.mesh
    S = operator_jacobian(spec, np.zeros(mesh.n_nodes))
    if spec.boundary.name == "smooth_quadratic":
        S = S + sp.diags(mesh.gamma2_weights * dict(spec.boundary.params)["alpha"])
    xi = np.zeros((mesh.n_nodes, mesh.dim))
    eta = spec.reaction.select(mesh.nodes, np.zeros(mesh.n_nodes), xi)
    idx = np.flatnonzero(~mesh.dirichlet_mask)
    return S[idx][:, idx], (mesh.node_volume_weights * eta)[idx], idx


def _active_set_solve(S, b, phi):
    """Minimise ``u'Su/2 - b'u`` subject to ``u <= phi`` by the primal-dual
    active-set method (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13
    (2002) 865-888); an infinite ``phi_i`` never binds.

    From the unconstrained solve, each sweep takes the active set
    ``A = {lam + c (u - phi) > 0}`` with ``c = diag S``, fixes ``u_A = phi_A``,
    solves the inactive block and sets ``lam_A = b_A - (S u)_A``.  When the set
    repeats, ``u <= phi`` off ``A`` and ``lam > 0`` on it, so the KKT
    conditions hold with no tolerance.  On an M-matrix the active sets shrink
    monotonically after the first sweep, so more than ``n + 1`` sweeps raise
    :class:`OracleFailure`.  Returns ``(u, lam, active mask, sweeps)``.
    """
    n = b.size
    c = S.diagonal()
    u = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for sweeps in range(n + 2):
        on, off = np.flatnonzero(active), np.flatnonzero(~active)
        u[on] = phi[on]
        if off.size:
            rhs = b[off] - S[off][:, on] @ u[on]
            u[off] = spla.spsolve(S[off][:, off].tocsc(), rhs)
        lam = np.zeros(n)
        lam[on] = b[on] - (S @ u)[on]
        update = lam + c * (u - phi) > 0
        if np.array_equal(update, active):
            return u, lam, active, sweeps
        active = update
    raise OracleFailure(f"active-set method did not settle in {n + 1} sweeps")


def qp_oracle(spec: ProblemSpec) -> QPSolution:
    """Reference solution of the linear-diffusion obstacle problem, exact
    after finitely many sparse solves (see :func:`_active_set_solve`);
    ``iterations`` counts the active-set sweeps.  A mesh without free nodes
    gives the zero state after 0 sweeps."""
    S_ff, b_f, idx = _qp_data(spec)
    u, lam, active, sweeps = _active_set_solve(S_ff, b_f, spec.obstacle.values[idx])
    obj = 0.5 * u @ (S_ff @ u) - b_f @ u
    full = np.zeros(spec.mesh.n_nodes)
    mult = np.zeros(spec.mesh.n_nodes)
    full[idx], mult[idx] = u, lam
    return QPSolution(full, idx[active], mult, sweeps, float(obj))


# --- hypothesis validation --------------------------------------------------


@dataclass
class HypothesisReport:
    lambda1_est: float
    lambda2_est: float
    lambda1_certified: bool
    lambda2_certified: bool
    deltas: dict
    smallness_lhs: float
    passes: bool
    notes: list


def _norms_and_scales(w, powers, p):
    """Per row of the C-ordered ``powers``: the norm ``(w . row) ** (1/p)`` by
    one ``np.dot`` on the contiguous row, so each state keeps its single-state
    sum, and the column of ``norm ** (1 - p)`` (0 at a zero norm), both
    powers Python-float ones."""
    norms = [float(w.dot(row)) ** (1 / p) for row in powers]
    return np.array(norms), np.array([[n ** (1 - p) if n else 0.0] for n in norms])


def _p_norms(weights, U, p):
    """``||u||_{p,weights}`` and its gradient in ``u`` (zero at a zero norm)
    for every state ``u`` of the stack ``U`` ``(k, n_nodes)``: shapes ``(k,)``
    and ``(k, n_nodes)``."""
    norms, scale = _norms_and_scales(weights, np.abs(U) ** p, p)
    return norms, scale * weights * np.abs(U) ** (p - 1) * np.sign(U)


def _p_norm_gradients(mesh, U, p):
    """``||grad u||_p`` and its gradient in ``u`` (zero at a zero norm) for
    every state ``u`` of the stack ``U`` ``(k, n_nodes)``, through one pass of
    each element kernel: shapes ``(k,)`` and ``(k, n_nodes)``."""
    g = mesh.element_gradients(U)
    gn = np.sqrt(element_dots(g, g))
    norms, scale = _norms_and_scales(mesh.element_volumes, gn**p, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(gn > 0, gn ** (p - 2.0), 0.0)
    local = mesh.gradient_pairings(g) * (mesh.element_volumes * coef)[..., None]
    return norms, scale * mesh.scatter_vector(local)


def _ascent_ratio(mesh, free, weights, p, seed, extra=(), iters=250):
    """Largest ``||u||_{p,weights} / ||grad u||_p`` found by projected gradient
    ascent on its logarithm over the free nodes, from ten seeded starts and
    then the ``extra`` ones.

    The starts advance together as one stack, one round per iteration, each
    by its own rules: a start with a zero norm is skipped; a zero ascent
    direction stops it; a trial state with a zero gradient norm halves its
    step; an accepted trial grows the step by 1.1 and a rejected one halves
    it, stopping the start below 1e-10.  Each round evaluates both norms and
    their gradients once for the stack of running starts, and every start
    takes the bits it takes alone."""
    U = np.array([*np.random.default_rng(seed).standard_normal((10, mesh.n_nodes)),
                  *extra])
    U[:, ~free] = 0.0
    (nu, gnu), (du, gdu) = _p_norms(weights, U, p), _p_norm_gradients(mesh, U, p)
    started = (nu != 0.0) & (du != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = nu / du
    step = np.full(len(U), 0.5)
    running = started.copy()
    for _ in range(iters):
        rows = np.flatnonzero(running)
        g = gnu[rows] / nu[rows, None] - gdu[rows] / du[rows, None]
        g[:, ~free] = 0.0
        gn = np.sqrt([row.dot(row) for row in g])  # each row's np.linalg.norm
        moving = gn != 0.0
        running[rows[~moving]] = False
        rows, g, gn = rows[moving], g[moving], gn[moving]
        if rows.size == 0:
            break
        U_try = U[rows] + step[rows, None] * g / gn[:, None]
        (nu_t, gnu_t), (du_t, gdu_t) = (_p_norms(weights, U_try, p),
                                        _p_norm_gradients(mesh, U_try, p))
        with np.errstate(divide="ignore", invalid="ignore"):
            val_t = nu_t / du_t
        rated = du_t != 0.0
        up = rated & (val_t > val[rows])
        acc = rows[up]
        U[acc], val[acc], nu[acc], du[acc] = U_try[up], val_t[up], nu_t[up], du_t[up]
        gnu[acc], gdu[acc] = gnu_t[up], gdu_t[up]
        step[acc] *= 1.1
        step[rows[~up]] *= 0.5
        rej = rows[rated & ~up]
        running[rej[step[rej] < 1e-10]] = False
    return float(max([0.0, *val[started]]))


def _top_ratio(lu, w):
    """Largest ``||u||_{2,w} / ||grad u||_2`` over the free nodes and a state
    attaining it, from the factor ``lu`` of their stiffness ``S``: the squared
    ratio is the top eigenvalue of ``W^(1/2) S^-1 W^(1/2)`` on the support of
    ``w`` (Lanczos from a fixed start), and its eigenvector ``y`` gives the
    state ``S^-1 W^(1/2) y``.  ARPACK needs two dimensions: one support node
    is its own eigenvector, and none gives 0 and the zero state."""
    s = np.flatnonzero(w > 0)
    # W^(1/2) from the support to the free nodes, one entry per column
    E = sp.csc_matrix((np.sqrt(w[s]), (s, np.arange(s.size))), (w.size, s.size))

    def apply(y):
        return E.T @ lu.solve(E @ y)

    y = np.ones(s.size)
    if s.size > 1:
        op = spla.LinearOperator((s.size, s.size), matvec=apply, dtype=float)
        (mu,), y = spla.eigsh(op, k=1, which="LA", tol=0, v0=y)
        y = y[:, 0]
    else:
        mu = y @ apply(y)
    return float(np.sqrt(max(mu, 0.0))), lu.solve(E @ y)


def validate_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Check the growth/smallness assumptions on a concrete instance.

    The embedding constants are exact at p = 2, from one sparse factor of
    the stiffness (:func:`_top_ratio`), and otherwise estimated by projected
    gradient ascent from seeded random starts and the p = 2 maximizer, all
    advanced as one stack (:func:`_ascent_ratio`; flagged non-certified).
    The smallness left-hand side combines the declared reaction/boundary
    growth constants with the indicator ``delta(theta) = 1`` iff ``theta``
    equals the lower exponent.  Failure is reported, never raised.
    """
    mesh = spec.mesh
    p = spec.phase.p
    notes = []
    free = ~mesh.dirichlet_mask
    idx = np.flatnonzero(free)
    S = mesh.scatter_blocks(mesh.element_volumes[:, None, None] * mesh.gradient_gram)
    lu = spla.splu(S[idx][:, idx].tocsc())
    constants = []
    for name, weights, seed in (("lambda1", mesh.node_volume_weights, 20_240_001),
                                ("lambda2", mesh.gamma2_weights, 20_240_002)):
        ratio, state = _top_ratio(lu, weights[idx])
        # 0 when nothing carries a ratio: only the natural-boundary weights
        # vanish, and with no free node K = {0}
        empty = ("natural boundary part empty" if not np.any(weights > 0)
                 else "no free node" if idx.size == 0 else None)
        if empty:
            notes.append(f"{empty}: {name} = 0")
        elif p != 2.0:
            start = np.zeros(mesh.n_nodes)
            start[idx] = state
            ratio = _ascent_ratio(mesh, free, weights, p, seed, [start])
            notes.append(
                f"{name} estimated by multi-start gradient ascent (non-certified)"
            )
        constants.append((ratio, p == 2.0 or empty is not None))
    (lambda1, lambda1_cert), (lambda2, lambda2_cert) = constants

    g = spec.reaction.growth
    bg = spec.boundary.growth
    thetas = {"theta1": bg.theta1, "theta2": g.theta2, "theta3": g.theta3}
    deltas = {k: 1.0 if abs(t - p) <= 1e-12 else 0.0 for k, t in thetas.items()}
    lhs = (g.e_f * deltas["theta2"] + g.g_f * lambda1 * deltas["theta3"]
           + bg.c_j * lambda2 * deltas["theta1"])
    passes = bool(lhs < 1.0)
    for label, theta in thetas.items():
        if theta > p + 1e-12:
            notes.append(
                f"{label} = {theta} exceeds the lower exponent p = {p}: "
                "growth hypothesis violated"
            )
            passes = False
    if lhs >= 1.0:
        notes.append(
            f"smallness condition fails: lhs = {lhs} >= 1 "
            "(reported, not fatal)"
        )
    N = float(mesh.dim)
    if p < N:
        p_star = p * N / (N - p)
        if spec.phase.q >= p_star:
            notes.append(
                f"upper exponent q = {spec.phase.q} is not below the critical "
                f"embedding exponent {p_star}: flagged, not forbidden"
            )
    notes.append("obstacle is admissible (nonnegative where finite)")
    return HypothesisReport(
        lambda1_est=float(lambda1),
        lambda2_est=float(lambda2),
        lambda1_certified=lambda1_cert,
        lambda2_certified=lambda2_cert,
        deltas=deltas,
        smallness_lhs=float(lhs),
        passes=passes,
        notes=notes,
    )
