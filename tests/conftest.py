"""Shared test helpers: spec builders and independent reference oracles.

The reference computations here deliberately avoid the package's own
assembly/quadrature code paths (element geometry is re-derived from node
coordinates, integrals are accumulated in plain Python loops), so that
agreement between package and reference is meaningful evidence.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from dpobstacle import assembly, lab
from dpobstacle.assembly import ProblemSpec
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.errors import ConfigurationError, OracleFailure
from dpobstacle.meshing import (
    BoundaryPartition,
    DiscreteFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    nodal_values,
)
from dpobstacle.musielak import PhaseConfig
from dpobstacle.solver import (SolveReport, TraceEntry, _fp_floor, continuation,
                               residual_norm, solve_penalized)

# --- builders ---------------------------------------------------------------


def interval(n=16, a=0.0, b=1.0, gamma2=()):
    part = (BoundaryPartition.from_sides(gamma2, dim=1)
            if gamma2 else BoundaryPartition())
    return build_interval_mesh(a, b, n, partition=part)


def rectangle(nx=4, ny=4, lx=1.0, ly=1.0, gamma2=()):
    part = (BoundaryPartition.from_sides(gamma2, dim=2)
            if gamma2 else BoundaryPartition())
    return build_rect_mesh(lx, ly, nx, ny, partition=part)


def phase(mesh, p=2.0, q=2.0, mu=0.0):
    return PhaseConfig.for_mesh(mesh, p, q, mu)


def obstacle_fn(mesh, phi):
    """``None`` means unconstrained (+inf at every node)."""
    if phi is None:
        return DiscreteFunction.constant(mesh, np.inf, allow_infinite=True)
    if callable(phi):
        return DiscreteFunction.from_callable(mesh, phi)
    return DiscreteFunction.constant(mesh, float(phi))


def make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=None, react=None, bnd=None,
              eps=0.0):
    return ProblemSpec(
        mesh=mesh,
        phase=phase(mesh, p, q, mu),
        obstacle=obstacle_fn(mesh, phi),
        reaction=react if react is not None else reaction("constant", value=0.0),
        boundary=bnd if bnd is not None else boundary_potential("zero"),
        eps_grad=eps,
    )


def shuffled(mesh, seed):
    """The mesh with its nodes relabelled and its elements reordered."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.n_nodes)
    order = rng.permutation(mesh.n_elements)
    nodes = np.empty_like(mesh.nodes)
    nodes[label] = mesh.nodes
    return Mesh(dim=mesh.dim, nodes=nodes, elements=label[mesh.elements][order],
                boundary_faces=[(tuple(int(label[i]) for i in face), tag)
                                for face, tag in mesh.boundary_faces],
                element_volumes=mesh.element_volumes[order],
                gradient_maps=mesh.gradient_maps[order])


# rows beyond 16 entries (2D interiors), where scipy's per-row sort is not
# stable, and a mesh with relabelled nodes and reordered elements
PATTERN_MESHES = [
    lambda: interval(17, gamma2=("right",)),
    lambda: rectangle(9, 7, gamma2=("right", "top")),
    lambda: shuffled(rectangle(8, 6, gamma2=("left",)), 3),
]


def random_function(mesh, rng, scale=1.0, masked=False):
    vals = rng.uniform(-scale, scale, mesh.n_nodes)
    if masked:
        vals[mesh.dirichlet_mask] = 0.0
    return DiscreteFunction(mesh, vals)


# --- independent reference computations -------------------------------------


def reference_element_gradient(mesh, vals, e):
    """Element gradient re-derived from node coordinates only."""
    conn = mesh.elements[e]
    coords = mesh.nodes[conn]
    if mesh.dim == 1:
        h = coords[1, 0] - coords[0, 0]
        return np.array([(vals[conn[1]] - vals[conn[0]]) / h])
    edges = coords[1:] - coords[0]  # rows: the two edge vectors
    rhs = vals[conn[1:]] - vals[conn[0]]
    return np.linalg.solve(edges, rhs)


def reference_scatter_blocks(mesh, blocks):
    """Dense sum of element blocks, accumulated entry by entry."""
    out = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for e in range(mesh.n_elements):
        conn = [int(i) for i in mesh.elements[e]]
        for a, i in enumerate(conn):
            for b, j in enumerate(conn):
                out[i, j] += blocks[e][a][b]
    return out


def reference_coo_scatter_blocks(mesh, blocks):
    """Element blocks summed by scipy's COO->CSR conversion (duplicates
    added in the order of its per-row sort)."""
    nv = mesh.dim + 1
    elements = mesh.elements.astype(np.int32)
    rows = np.repeat(elements, nv, axis=1).ravel()
    cols = np.tile(elements, (1, nv)).ravel()
    return sp.csr_matrix((np.ravel(blocks), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def reference_nodal_gradient_matrices(mesh):
    """The maps ``D_k`` as products of a row-scaling ``sp.diags`` and the
    COO-summed blocks ``|e| G_e[k, b]``."""
    nv = mesh.dim + 1
    patch_vol = mesh.scatter_vector(np.repeat(mesh.element_volumes, nv))
    mats = []
    for k in range(mesh.dim):
        blocks = np.broadcast_to(
            mesh.element_volumes[:, None, None] * mesh.gradient_maps[:, k, None, :],
            (mesh.n_elements, nv, nv))
        D = sp.diags(1.0 / patch_vol) @ reference_coo_scatter_blocks(mesh, blocks)
        mats.append(D.tocsr())
    return mats


def reference_penalty_term(spec, u, rho):
    """Lumped obstacle penalty vector and its diagonal derivative.

    Infinite obstacle entries deactivate the node; the derivative at the kink
    ``u = phi`` is taken as zero.  Frozen reference for
    ``ConstraintSet.envelope_grad`` on free nodes.
    """
    if not rho > 0:
        raise ConfigurationError(f"penalty parameter must be positive, got {rho}")
    vals = nodal_values(u)
    phi = spec.obstacle.values
    w = spec.mesh.node_volume_weights
    finite = np.isfinite(phi)
    active = finite & (vals > phi)
    vec = np.where(active, w * np.where(finite, vals - phi, 0.0) / rho, 0.0)
    diag = np.where(active, w / rho, 0.0)
    return vec, diag


def reference_plus_part(u: DiscreteFunction, phi) -> DiscreteFunction:
    """Nodal positive part (u - phi)^+; infinite obstacle entries give zero.
    Frozen reference for ``ConstraintSet.excess`` on free nodes."""
    phi_vals = nodal_values(phi)
    excess = u.values - phi_vals
    out = np.where(np.isposinf(phi_vals), 0.0, np.maximum(excess, 0.0))
    return DiscreteFunction(u.mesh, out)


def einsum_element_gradients(mesh, vals):
    """Element gradients as the ``einsum`` the explicit sums of
    ``Mesh.element_gradients`` replaced, frozen here.  The ``einsum`` kernels
    run on a C-ordered copy of the maps, the layout they read before the mesh
    stored the maps component-major."""
    return np.einsum("ekv,ev->ek", np.ascontiguousarray(mesh.gradient_maps),
                     vals[mesh.elements])


def einsum_gradient_pairings(mesh, grads):
    """``G_e^T g_e`` as the ``einsum`` ``Mesh.gradient_pairings`` replaced."""
    return np.einsum("ekv,ek->ev", np.ascontiguousarray(mesh.gradient_maps), grads)


def add_at_scatter_vector(mesh, local):
    """``Mesh.scatter_vector`` as the ``np.add.at`` scatter, frozen here."""
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.elements.ravel(), np.ravel(local))
    return out


def einsum_gradient_state(spec, vals):
    """``grads``, ``ge`` and ``g2`` as the ``einsum`` / ``np.sum`` kernels
    computed them before the element state was assembled once."""
    grads = einsum_element_gradients(spec.mesh, vals)
    g2 = np.sum(grads * grads, axis=1) + spec.eps_grad * spec.eps_grad
    return grads, np.sqrt(g2), g2


def einsum_coef(spec, ge):
    """The diffusion coefficient ``ge^(p-2) + mu ge^(q-2)``, frozen."""
    p, q = spec.phase.p, spec.phase.q
    with np.errstate(divide="ignore"):
        cp = ge ** (p - 2.0)
        cq = ge ** (q - 2.0)
    return cp + spec.phase.mu * cq


def einsum_operator_residual(spec, vals):
    """The operator residual from the frozen kernels above."""
    grads, ge, _ = einsum_gradient_state(spec, vals)
    coef = spec.mesh.element_volumes * einsum_coef(spec, ge)
    local = einsum_gradient_pairings(spec.mesh, grads) * coef[:, None]
    return add_at_scatter_vector(spec.mesh, local)


def reference_assemble_system(spec, u, rho=1.0, with_jacobian=True,
                              frozen=False, keep_columns=False):
    """``assembly.assemble_system`` as scipy matrix algebra on the frozen
    ``einsum`` kernels above: the operator residual scattered by
    ``np.add.at``, the operator blocks summed through COO, ``sp.diags`` for
    the diagonal terms, the reaction Jacobian as a sum of CSR matrices, and
    the Dirichlet rows and columns replaced by
    ``diags(free) @ J @ diags(free) + diags(mask)``.  ``sp.diags`` stores
    no zero entries, so the products multiply stored entries by exact ones
    only: an ``inf`` or ``NaN`` in a Dirichlet row or column drops out
    instead of turning into ``inf * 0 = NaN``.  Every CSR addition and
    product drops exact zeros.  ``keep_columns=True`` gives the Jacobian as
    it was before the Dirichlet columns were zeroed, with the rows replaced
    only: ``diags(free) @ J + diags(mask)``."""
    mesh = spec.mesh
    vals = np.asarray(u.values if isinstance(u, DiscreteFunction) else u, float)
    r = einsum_operator_residual(spec, vals)
    diag_extra = np.zeros_like(r)

    D = reference_nodal_gradient_matrices(mesh)
    xi = np.column_stack([Dk @ vals for Dk in D])
    eta, de_ds, de_dg = spec.reaction.select_with_partials(mesh.nodes, vals, xi)
    w = mesh.node_volume_weights
    r = r + -w * eta
    react_jac = sp.diags(-w * de_ds).tocsr()
    for k, Dk in enumerate(D):
        col = de_dg[:, k]
        if np.any(col != 0.0):
            react_jac = react_jac + sp.diags(-w * col) @ Dk
    react_jac = react_jac.tocsr()

    bnd_vec, bnd_diag = assembly.boundary_term(spec, vals)
    r = r + bnd_vec
    diag_extra += bnd_diag
    pen_vec, pen_diag = reference_penalty_term(spec, vals, rho)
    r = r + pen_vec
    diag_extra += pen_diag

    J = None
    if with_jacobian:
        grads, ge, g2 = einsum_gradient_state(spec, vals)
        p, q, mu = spec.phase.p, spec.phase.q, spec.phase.mu
        coef = einsum_coef(spec, ge)
        blocks = (mesh.element_volumes * coef)[:, None, None] * mesh.gradient_gram
        if not frozen:
            with np.errstate(divide="ignore", invalid="ignore"):
                fac = ((p - 2.0) * ge ** (p - 2.0)
                       + mu * (q - 2.0) * ge ** (q - 2.0)) / g2
            fac = np.where(g2 > 0.0, fac, 0.0)
            Gg = einsum_gradient_pairings(mesh, grads)
            blocks = blocks + (mesh.element_volumes * fac)[:, None, None] * (
                Gg[:, :, None] * Gg[:, None, :])
        J = reference_coo_scatter_blocks(mesh, blocks) + sp.diags(diag_extra)
        if not frozen:
            J = J + react_jac
    mask = mesh.dirichlet_mask
    r = r.copy()
    r[mask] = vals[mask]
    if J is not None:
        free = sp.diags((~mask).astype(float))
        J = free @ J if keep_columns else free @ J @ free
        J = (J + sp.diags(mask.astype(float))).tocsr()
    return assembly.AssembledSystem(residual=r, jacobian=J, eta=eta)


def csr_bytes(J):
    """Dtypes and bytes of a compressed (CSR or CSC) matrix's arrays."""
    return [(a.dtype.str, a.tobytes()) for a in (J.data, J.indices, J.indptr)]


def lifted(J):
    # the regularized retry of solver._solve_direction
    return J + sp.diags(1e-12 * (1.0 + np.abs(J.diagonal())))


def in_factor_order(mesh, J):
    """The free-node block of ``J`` (node order) in the factor order of the
    mesh's layout, by fancy indexing: ``J[p][:, p]`` as CSC."""
    p = mesh.block_pattern.factor_layout.order
    return J[p][:, p].tocsc()


def in_node_order(mesh, J):
    """An assembled Jacobian (free nodes, factor order) scattered back to
    node order, as CSR whose Dirichlet rows and columns are empty."""
    p = mesh.block_pattern.factor_layout.order
    coo = J.tocoo()
    return sp.csr_matrix((coo.data, (p[coo.row], p[coo.col])),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def whole_adjacency_order(mesh):
    """The factor order before the Dirichlet nodes were left out, frozen: a
    permutation of every node, SuperLU's ``MMD_AT_PLUS_A`` order of the
    whole element adjacency (ones with a dominant diagonal)."""
    pattern = mesh.block_pattern
    data = np.ones(pattern.nnz)
    data[pattern.diagonal] = pattern.n
    lu = spla.splu(pattern.matrix(data).tocsc(), permc_spec="MMD_AT_PLUS_A")
    return np.argsort(lu.perm_c)


def assert_same_system(mesh, new, ref):
    """Byte equality of residual, selection and the Jacobian handed to
    ``spsolve``, plain and lifted: the package's free-node block, gathered in
    factor order, against the reference's (node order, identity Dirichlet
    rows) restricted and permuted by fancy indexing, which is lifted before
    it is permuted."""
    assert new.residual.tobytes() == ref.residual.tobytes()
    assert new.eta.tobytes() == ref.eta.tobytes()
    assert (new.jacobian is None) == (ref.jacobian is None)
    if ref.jacobian is not None:
        assert new.jacobian.format == "csc"
        for J, J_ref in ((new.jacobian, ref.jacobian),
                         (lifted(new.jacobian), lifted(ref.jacobian))):
            assert csr_bytes(J) == csr_bytes(in_factor_order(mesh, J_ref))


def reference_scatter_vector(mesh, local):
    """Nodal sum of element vectors, accumulated entry by entry."""
    out = [0.0] * mesh.n_nodes
    for e in range(mesh.n_elements):
        for a, i in enumerate(mesh.elements[e]):
            out[int(i)] += local[e][a]
    return np.array(out)


def reference_energy(spec, vals, eps=None):
    """Two-phase Dirichlet energy sum_e |e| (g^p/p + mu g^q/q), looped."""
    mesh = spec.mesh
    p, q = spec.phase.p, spec.phase.q
    if eps is None:
        eps = spec.eps_grad
    total = 0.0
    for e in range(mesh.n_elements):
        grad = reference_element_gradient(mesh, vals, e)
        g = np.sqrt(float(grad @ grad) + eps * eps)
        total += mesh.element_volumes[e] * (
            g**p / p + spec.phase.mu[e] * g**q / q
        )
    return total


def reference_modular_parts(mesh, cfg, vals):
    """Vertex-lumped modular parts accumulated element by element."""
    nv = mesh.dim + 1
    p_part = 0.0
    q_part = 0.0
    for e in range(mesh.n_elements):
        w = mesh.element_volumes[e] / nv
        for a in range(nv):
            i = mesh.elements[e, a]
            p_part += w * abs(vals[i]) ** cfg.p
            q_part += w * cfg.mu[e] * abs(vals[i]) ** cfg.q
    return p_part, q_part


def reference_gradient_modular(mesh, cfg, vals, pts=1000):
    """Midpoint quadrature of the (elementwise constant) gradient density."""
    total = 0.0
    for e in range(mesh.n_elements):
        grad = reference_element_gradient(mesh, vals, e)
        g = np.sqrt(float(grad @ grad))
        dens = g**cfg.p + cfg.mu[e] * g**cfg.q
        # composite midpoint over the element: the integrand is constant,
        # so any number of sample points integrates it exactly
        t = (np.arange(pts) + 0.5) / pts
        total += mesh.element_volumes[e] * float(np.mean(np.full_like(t, dens)))
    return total


def reference_value_modular_1d(mesh, cfg, vals, pts=1000):
    """Midpoint quadrature of the piecewise-linear interpolant of the
    two-phase density at the nodes (the function the lumped rule integrates
    exactly)."""
    total = 0.0
    for e in range(mesh.n_elements):
        i, j = mesh.elements[e]
        dens_i = abs(vals[i]) ** cfg.p + cfg.mu[e] * abs(vals[i]) ** cfg.q
        dens_j = abs(vals[j]) ** cfg.p + cfg.mu[e] * abs(vals[j]) ** cfg.q
        t = (np.arange(pts) + 0.5) / pts
        total += mesh.element_volumes[e] * float(np.mean(dens_i + t * (dens_j - dens_i)))
    return total


def reference_luxemburg(p_part, q_part, p, q):
    """Root of the scaled-modular equation by an independent root finder."""
    if p_part == 0.0 and q_part == 0.0:
        return 0.0

    def fn(tau):
        return p_part * tau**-p + q_part * tau**-q - 1.0

    lo, hi = 1e-8, 1e8
    assert fn(lo) > 0 and fn(hi) < 0
    return brentq(fn, lo, hi, xtol=1e-14, rtol=8.9e-16)


def lumped_norm(mesh, vals):
    return float(np.sqrt(np.dot(mesh.node_volume_weights, vals * vals)))


def reference_solve_direction(J, r, permc_spec="MMD_AT_PLUS_A", order=None):
    """Solve J d = -r for ``J`` in node order, regularizing the diagonal once
    if the solve breaks.  SuperLU orders the columns by ``permc_spec``; with
    ``order``, the (lifted) system is restricted to the nodes of ``order``
    and permuted by fancy indexing, ``J[order][:, order]`` and
    ``-r[order]``, solved as it stands (``NATURAL``) and the solution
    scattered back into zeros."""

    def attempt(M):
        b, spec = -r, permc_spec
        if order is not None:
            M, b, spec = M[order][:, order], b[order], "NATURAL"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            with np.errstate(all="ignore"):
                try:
                    x = spla.spsolve(M.tocsc(), b, permc_spec=spec)
                except RuntimeError:
                    return np.full_like(r, np.nan)
        if order is None:
            return x
        d = np.zeros_like(r)
        d[order] = x
        return d

    d = attempt(J)
    if np.all(np.isfinite(d)):
        return d, ""
    d = attempt(lifted(J))
    if np.all(np.isfinite(d)):
        return d, "regularized"
    return None, "regularized"


def reference_solve_penalized(spec, cfg, initial=None):
    """The damped Newton / Picard loop as two separate step paths, with the
    backtracking constants (0.5, 40 halvings, Armijo 1e-4) written inline.

    Calls ``assembly.assemble_system`` and ``scipy.sparse.linalg.spsolve``
    through their module attributes, so a test can record the call sequence.
    Each direction solves the free-node block of the Jacobian of
    :func:`reference_assemble_system` (node order) in the mesh's factor
    order, permuted by fancy indexing, and is +0.0 on the Dirichlet nodes.
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
        return assembly.assemble_system(
            spec, vals, rho=cfg.rho,
            with_jacobian=with_jacobian, frozen=frozen,
        )

    def jacobian(vals, frozen):
        return reference_assemble_system(spec, vals, rho=cfg.rho,
                                         frozen=frozen).jacobian

    order = mesh.block_pattern.factor_layout.order
    sys0 = assemble(u, with_jacobian=False)
    eta = sys0.eta
    rnorm = residual_norm(mesh, sys0.residual)
    trace = [TraceEntry(0, rnorm, 0.0, "init")]
    converged = rnorm <= eff_tol
    iterations = 0
    failed_newton = 0
    direction_mode = "newton"

    while not converged and iterations < cfg.max_newton:
        frozen = direction_mode == "picard"
        system = assemble(u, with_jacobian=True, frozen=frozen)
        d, note = reference_solve_direction(jacobian(u, frozen), system.residual,
                                            order=order)
        accepted = False
        if d is not None:
            alpha = 1.0
            for _ in range(40 + 1):
                u_try = u + alpha * d
                sys_try = assemble(u_try, with_jacobian=False)
                rnorm_try = residual_norm(mesh, sys_try.residual)
                if (np.isfinite(rnorm_try)
                        and rnorm_try**2 <= (1.0 - 2.0 * 1e-4 * alpha) * rnorm**2):
                    u, eta, rnorm = u_try, sys_try.eta, rnorm_try
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                iterations += 1
                trace.append(TraceEntry(iterations, rnorm, alpha,
                                        direction_mode, note))
                converged = rnorm <= eff_tol
                continue

        failed_newton += 1
        if failed_newton >= 5:
            direction_mode = "picard"
        system = assemble(u, with_jacobian=True, frozen=True)
        d, note2 = reference_solve_direction(jacobian(u, True), system.residual,
                                             order=order)
        if d is None:
            trace.append(TraceEntry(iterations, rnorm, 0.0, "picard",
                                    "fixed-point system unsolvable"))
            break
        u = u + d
        sys_new = assemble(u, with_jacobian=False)
        eta = sys_new.eta
        rnorm = residual_norm(mesh, sys_new.residual)
        iterations += 1
        trace.append(TraceEntry(iterations, rnorm, 1.0, "picard",
                                ("forced " + note2).strip()))
        converged = rnorm <= eff_tol

    violation = reference_plus_part(DiscreteFunction(mesh, u),
                                    spec.obstacle.values).values
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
        rho=cfg.rho,
    )


def reference_vi_residual(spec, u, eta, probes):
    """The certificate as one full-element pairing per probe: every probe
    recomputes the operator state at ``u`` through ``assembly.apply_operator``
    and the boundary term through ``assembly.clarke_directional``."""
    K = spec.constraints
    u_vals = u.values if isinstance(u, DiscreteFunction) else np.asarray(u, float)
    eta = np.asarray(eta, float)
    w = spec.mesh.node_volume_weights
    best = np.inf
    for v in probes:
        v_vals = v.values if isinstance(v, DiscreteFunction) else np.asarray(v, float)
        if not K.contains(v_vals, tol=1e-12):
            raise ConfigurationError("a probe direction is not admissible")
        dv = v_vals - u_vals
        value = (
            assembly.apply_operator(spec, u_vals, dv)
            + assembly.clarke_directional(spec, u_vals, dv)
            - float(np.dot(w * eta, dv))
        )
        best = min(best, value)
    if not probes:
        raise ConfigurationError("probe set must be nonempty")
    return float(best)


def reference_probe_set(spec, K, u_vals, seed, bump_rel, n_random):
    """The study's probe family as one ``(1 + 2 n + n_random) x n`` array
    (the projected candidate, the coordinate bumps ``+scale`` then ``-scale``
    at every node, the seeded random states), frozen from before the family
    was passed as two bump states: returned as the list of its rows.  The
    in-place projection is written out here."""
    scale = bump_rel * float(np.max(np.abs(u_vals)))
    if scale == 0.0:
        scale = bump_rel
    n = u_vals.size
    probes = np.empty((1 + 2 * n + n_random, n))
    probes[:1 + 2 * n] = u_vals
    nodes = np.arange(n)
    probes[1 + 2 * nodes, nodes] += scale
    probes[2 + 2 * nodes, nodes] += -1.0 * scale
    rng = np.random.default_rng((seed, 97))
    noise = rng.normal(size=(n_random, n)) * scale
    np.add(u_vals, noise, out=probes[1 + 2 * n:])
    np.minimum(probes, K.obstacle, out=probes)
    probes[:, K.dirichlet_mask] = 0.0
    return list(probes)


def reference_clarke_directional(potential, s, t):
    """The generalized directional derivative of a catalog boundary potential
    by the formula each entry once wrote out by hand, frozen here: the
    catalog now derives it from the Clarke interval."""
    p = dict(potential.params)
    s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
    if potential.name == "zero":
        return np.zeros(s.shape)
    if potential.name == "abs":
        a = p["alpha"]
        return np.where(s == 0, a * np.abs(t), a * np.sign(s) * t)
    if potential.name == "smooth_quadratic":
        return p["alpha"] * s * t
    if potential.name == "nonconvex_well":
        a, c = p["alpha"], p["center"]
        return np.where(s == 0, a * c * np.abs(t), a * (s - c * np.sign(s)) * t)
    raise AssertionError(f"no frozen formula for {potential.name!r}")


def reference_sample(spec, schedule, cfg, n_starts, selection_rules=None,
                     seed=0, dedup_tol=1e-6):
    """Stage 0 of ``lab.kuratowski_study`` as the one-problem sampler it
    folded in: one ``solve_penalized`` per chain at ``schedule[0]`` on the
    base problem, in chain order on one thread, then the converged reports
    deduplicated in chain order in the lumped norm."""
    stage_cfg = replace(cfg, rho=float(schedule[0]))
    kept = []
    for c in lab._chains(spec, n_starts, selection_rules, seed):
        report = solve_penalized(c.spec, stage_cfg, initial=c.initial)
        if report.converged and all(
                lumped_norm(spec.mesh, report.solution.values - k.solution.values)
                > dedup_tol for k in kept):
            kept.append(lab.SampleMember(c.label, c.start, report))
    return lab.SolutionSample(stage_cfg.rho, kept)


def reference_study_candidates(spec, schedule, cfg, n_starts, selection_rules,
                               seed, dedup_tol=1e-6, cauchy_factor=0.5,
                               cauchy_window=3, probe_bump=0.01,
                               n_random_probes=32):
    """The limit candidates of ``lab.kuratowski_study`` in certify-then-dedup
    order: every Cauchy chain's limit is certified with
    :func:`reference_vi_residual`, then the list is deduplicated.

    Returns the kept candidates and the number of certificates computed.
    """
    chains = lab._chains(spec, n_starts, selection_rules, seed)
    K = spec.constraints
    candidates = []
    for c in chains:
        run = continuation(c.spec, schedule, cfg, initial=c.initial)
        sols = [rep.solution.values for rep in run if rep.converged]
        if len(sols) != len(schedule):
            continue
        steps = tuple(lab._energy_distance(spec, sols[j + 1], sols[j])
                      for j in range(len(sols) - 1))
        if len(steps) < cauchy_window:
            continue
        seq = steps[-(cauchy_window + 1):]
        if not all(b <= cauchy_factor * a for a, b in zip(seq[:-1], seq[1:])):
            continue
        u_vals = sols[-1]
        probes = reference_probe_set(spec, K, u_vals, seed, probe_bump,
                                     n_random_probes)
        vi = reference_vi_residual(c.spec, K.project_values(u_vals), run[-1].eta,
                                   probes)
        candidates.append(lab.LimitCandidate(
            DiscreteFunction(spec.mesh, u_vals), run[-1].eta, c.label, c.start,
            steps, vi, len(probes)))
    return lab._dedup(spec.mesh, candidates, dedup_tol), len(candidates)


def _reference_p_norm(weights, u, p):
    return float(np.dot(weights, np.abs(u) ** p)) ** (1 / p)


def _reference_grad_p_norm(weights, u, p):
    norm = _reference_p_norm(weights, u, p)
    if norm == 0:
        return np.zeros_like(u)
    return norm ** (1 - p) * weights * np.abs(u) ** (p - 1) * np.sign(u)


def _reference_p_norm_gradient(mesh, u, p):
    g = einsum_element_gradients(mesh, u)
    gn = np.sqrt(np.sum(g * g, axis=1))
    return float(np.dot(mesh.element_volumes, gn**p)) ** (1 / p)


def _reference_grad_p_norm_gradient(mesh, u, p):
    g = einsum_element_gradients(mesh, u)
    gn = np.sqrt(np.sum(g * g, axis=1))
    norm = float(np.dot(mesh.element_volumes, gn**p)) ** (1 / p)
    if norm == 0:
        return np.zeros_like(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(gn > 0, gn ** (p - 2.0), 0.0)
    local = einsum_gradient_pairings(mesh, g)
    local = local * (mesh.element_volumes * coef)[:, None]
    return norm ** (1 - p) * add_at_scatter_vector(mesh, local)


def reference_ascent_ratio(mesh, free, weights, p, seed, extra=(), iters=250):
    """``lab._ascent_ratio`` with separate value and gradient helpers, each
    norm recomputed wherever it is needed (the loop before the fold); the
    ``extra`` starts follow the ten seeded ones."""
    best = 0.0
    for u0 in [*np.random.default_rng(seed).standard_normal((10, mesh.n_nodes)),
               *extra]:
        u = u0.copy()
        u[~free] = 0.0
        nu = _reference_p_norm(weights, u, p)
        du = _reference_p_norm_gradient(mesh, u, p)
        if nu == 0.0 or du == 0.0:
            continue
        val = nu / du
        step = 0.5
        for _ in range(iters):
            g = (_reference_grad_p_norm(weights, u, p) / nu
                 - _reference_grad_p_norm_gradient(mesh, u, p) / du)
            g[~free] = 0.0
            gn = np.linalg.norm(g)
            if gn == 0.0:
                break
            u_try = u + step * g / gn
            nu_t = _reference_p_norm(weights, u_try, p)
            du_t = _reference_p_norm_gradient(mesh, u_try, p)
            if du_t == 0.0:
                step *= 0.5
                continue
            val_t = nu_t / du_t
            if val_t > val:
                u, val, nu, du = u_try, val_t, nu_t, du_t
                step *= 1.1
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        best = max(best, val)
    return best


def reference_p_ratio(mesh, weights, u, p):
    """``||u||_{p,weights} / ||grad u||_p`` by the frozen norm helpers."""
    return _reference_p_norm(weights, u, p) / _reference_p_norm_gradient(mesh, u, p)


def reference_embedding_constants(mesh):
    """``(lambda1, u1), (lambda2, u2)`` at p = 2 by the dense generalized
    ``eigh`` solves that ``validate_hypotheses`` ran before the sparse
    factor: the smallest eigenvalue of ``(S_ff, M_ff)`` gives ``lambda1``
    and the largest of ``(B_ff, S_ff)`` gives ``lambda2``, each with its
    eigenvector on the free nodes (zero elsewhere).  A constant with no free
    node, or no positive weight, is 0 with the zero state."""
    idx = np.flatnonzero(~mesh.dirichlet_mask)
    zero = (0.0, np.zeros(mesh.n_nodes))
    if idx.size == 0:
        return zero, zero
    S = mesh.scatter_blocks(mesh.element_volumes[:, None, None] * mesh.gradient_gram)
    S_ff = S[np.ix_(idx, idx)].toarray()
    M_ff = np.diag(mesh.node_volume_weights[idx])
    sig, vec = scipy.linalg.eigh(S_ff, M_ff, subset_by_index=[0, 0])
    u1 = np.zeros(mesh.n_nodes)
    u1[idx] = vec[:, 0]
    first = (1.0 / np.sqrt(sig[0]), u1)
    bw = mesh.gamma2_weights
    if not np.any(bw > 0):
        return first, zero
    vals, vecs = scipy.linalg.eigh(np.diag(bw[idx]), S_ff)
    u2 = np.zeros(mesh.n_nodes)
    u2[idx] = vecs[:, -1]
    return first, (float(np.sqrt(max(vals[-1], 0.0))), u2)


def reference_enumeration_oracle(spec):
    """The enumeration oracle the active-set solve replaced, as it was but
    for densifying the sparse model itself: every active set of the free
    nodes with finite obstacle (at most 14), keeping the candidates that
    satisfy primal and dual feasibility, the least objective winning."""
    S_ff, b_f, idx = lab._qp_data(spec)
    S_ff = S_ff.toarray()
    phi_f = spec.obstacle.values[idx]
    nf = idx.size
    constrained = np.flatnonzero(np.isfinite(phi_f))
    m = constrained.size
    if m > 14:
        raise ConfigurationError(
            f"enumeration oracle limited to 14 constrained nodes, got {m}"
        )
    scale = max(1.0, float(np.abs(S_ff).max()), float(np.abs(b_f).max()))
    tol = 1e-10 * scale
    best = None
    for bits in range(1 << m):
        active = [constrained[j] for j in range(m) if bits >> j & 1]
        inactive = np.setdiff1d(np.arange(nf), active)
        u = np.empty(nf)
        u[active] = phi_f[active]
        A_ii = S_ff[np.ix_(inactive, inactive)]
        rhs = b_f[inactive]
        if active:
            rhs = rhs - S_ff[np.ix_(inactive, active)] @ phi_f[active]
        try:
            u[inactive] = np.linalg.solve(A_ii, rhs)
        except np.linalg.LinAlgError:
            continue
        lam = np.zeros(nf)
        if active:
            lam[active] = b_f[active] - S_ff[active] @ u
        # feasibility
        viol = u[constrained] - phi_f[constrained]
        if np.any(viol > tol):
            continue
        if np.any(lam[active] < -tol):
            continue
        obj = 0.5 * u @ S_ff @ u - b_f @ u
        if best is None or obj < best[0]:
            best = (obj, u, lam, np.array(sorted(active), dtype=int))
    if best is None:
        raise OracleFailure("active-set enumeration found no KKT point")
    obj, u, lam, active = best
    iterations = 1 << m
    full = np.zeros(spec.mesh.n_nodes)
    mult = np.zeros(spec.mesh.n_nodes)
    full[idx], mult[idx] = u, lam
    return lab.QPSolution(full, idx[active], mult, iterations, float(obj))


def assert_oracle_kkt(spec, values, multipliers):
    """The KKT conditions of the oracle's problem ``min u'Su/2 - b'u``
    subject to ``u <= phi`` on the free nodes of ``spec``: feasibility and
    complementarity exactly, stationarity to 1e-12 of the data's scale; the
    Dirichlet nodes hold zeros."""
    S, b, idx = lab._qp_data(spec)
    phi = spec.obstacle.values[idx]
    u, lam = np.asarray(values)[idx], np.asarray(multipliers)[idx]
    finite = np.isfinite(phi)
    assert np.all(u <= phi)
    assert np.all(lam >= 0.0)
    assert np.all(lam[finite] * (phi[finite] - u[finite]) == 0.0)
    assert np.all(lam[~finite] == 0.0)
    scale = max(1.0, np.abs(S.data).max(initial=0.0), np.abs(b).max(initial=0.0))
    assert np.all(np.abs(S @ u + lam - b) <= 1e-12 * scale)
    fixed = spec.mesh.dirichlet_mask
    assert np.all(np.asarray(values)[fixed] == 0.0)
    assert np.all(np.asarray(multipliers)[fixed] == 0.0)


# --- acceptance-summary reporting -------------------------------------------

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if "test_acceptance.py" not in report.nodeid:
        return
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    import sys

    mod = sys.modules.get("test_acceptance")
    descriptions = getattr(mod, "DESCRIPTIONS", {}) if mod else {}
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        label = "PASS" if outcome == "passed" else "FAIL"
        detail = descriptions.get(name, "")
        terminalreporter.write_line(f"{label}  {name}  {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
