"""Assembly of the discrete double-phase obstacle system.

The leading operator is the two-phase quasilinear diffusion

    u  |->  -div( |grad u|^(p-2) grad u + mu(x) |grad u|^(q-2) grad u ),

discretized with P1 elements: on each element the gradient is constant, so the
pairing, residual and exact Jacobian are elementwise closed forms.  Degenerate
exponents are handled by the regularized gradient magnitude
``g_e = sqrt(|grad u|^2 + eps_grad^2)``; the residual is then the exact
derivative of the regularized energy  ``sum_e |e| (g_e^p / p + mu_e g_e^q / q)``.
Each function reads ``eps_grad`` from the :class:`ProblemSpec` and the boundary
smoothing ``delta`` from its potential: a continuation stage is a spec.

The element state of an iterate (:class:`GradientState`: ``|grad u|^2``,
the two powers, the coefficient and ``G_e^T grad u``) is computed once per
iterate, by the explicit sums of :class:`~dpobstacle.meshing.Mesh` (bit for
bit the ``einsum`` forms they replaced), and an :class:`AssembledSystem`
keeps it.  The residual reads it, and so does the Jacobian at the same
iterate when :func:`assemble_system` is handed that system: the Newton
solver assembles each accepted iterate once, in its line search, and builds
the Jacobian from that trial's system.

Lower-order terms use vertex-lumped quadrature: the obstacle penalty (the
envelope gradient of :class:`~dpobstacle.nonsmooth.ConstraintSet`, which
owns it), the reaction selection evaluated at nodes with a volume-averaged
nodal gradient, and the smoothed boundary flux on the natural boundary part.

The Jacobian is one ``data`` array on the mesh's cached
:class:`~dpobstacle.meshing.BlockPattern`: the operator blocks, plus the
penalty and boundary diagonal, plus the reaction Jacobian (whose unreached
slots are explicit zeros), summed slot by slot in that order.  The Newton
system is the free-node system: the Dirichlet nodes are not unknowns (the
trial space vanishes on gamma1), so the Jacobian is the free-node block of
that sum, whatever the Dirichlet rows and columns held (``inf`` and ``NaN``
included).  It is handed out in factor order: one gather of ``data`` into
the pattern's cached :class:`~dpobstacle.meshing.FactorLayout` gives the
CSC matrix ``J[order][:, order]`` over the free nodes, and
``eliminate_zeros`` drops the exact zeros there, as the sums of scipy
matrices this replaces did; its entries are bit for bit that sum's,
permuted.  The block is structurally symmetric (numerically symmetric too
when the reaction does not read the gradient).  The residual keeps every
node, with ``u`` itself on the Dirichlet ones, where the iterate vanishes.
The fill-reducing order is computed once per mesh, on the whole element
adjacency, so the solver factors every Jacobian without ordering it again.
A residual-only call (``with_jacobian=False``) builds no Jacobian at all,
the reaction's included.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .catalog import BoundaryPotentialSpec, ReactionSpec
from .errors import ConfigurationError
from .meshing import DiscreteFunction, Mesh, element_dots, nodal_values
from .musielak import PhaseConfig
from .nonsmooth import ConstraintSet

__all__ = [
    "ProblemSpec",
    "AssembledSystem",
    "GradientState",
    "operator_energy",
    "apply_operator",
    "operator_residual",
    "operator_jacobian",
    "reaction_term",
    "boundary_term",
    "clarke_directional",
    "assemble_system",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A complete discrete problem instance.

    The obstacle is nodal with ``+inf`` marking unconstrained nodes; its
    rule (nonnegative where finite) belongs to the cached ``constraints``.
    ``eps_grad`` must be finite and >= 0, and ``eps_grad**2`` positive (no
    underflow) whenever an exponent lies below 2, since the diffusion
    coefficient is then singular at vanishing gradients; left out, it is 0
    when both exponents are >= 2, else 1e-8.
    Derived data is cached; a ``replace``-d spec starts empty, and a
    :meth:`derive`-d one shares it.
    """

    mesh: Mesh
    phase: PhaseConfig
    obstacle: DiscreteFunction
    reaction: ReactionSpec
    boundary: BoundaryPotentialSpec
    eps_grad: float | None = None

    def __post_init__(self):
        if self.phase.mesh is not self.mesh:
            raise ConfigurationError("phase config belongs to a different mesh")
        if self.obstacle.mesh is not self.mesh:
            raise ConfigurationError("obstacle belongs to a different mesh")
        self.constraints  # the obstacle rule lives in ConstraintSet
        singular = min(self.phase.p, self.phase.q) < 2.0
        if self.eps_grad is None:
            object.__setattr__(self, "eps_grad", 1e-8 if singular else 0.0)
        if not 0 <= self.eps_grad < np.inf:
            raise ConfigurationError(f"eps_grad must be finite and >= 0, got "
                                     f"{self.eps_grad}", param="eps_grad")
        if singular and not self.eps_grad * self.eps_grad > 0:
            raise ConfigurationError(
                "an exponent below 2 requires a gradient regularization "
                f"eps_grad whose square is positive, got {self.eps_grad}",
                param="eps_grad")

    @cached_property
    def constraints(self) -> ConstraintSet:
        return ConstraintSet.from_problem(self.mesh, self.obstacle.values)

    def derive(self, **changes):
        """This problem with ``changes`` to fields other than the mesh and
        the obstacle, checked as at construction.  Unlike ``replace`` it
        shares this problem's ``constraints``, the one cached entry, which
        depends on the mesh and the obstacle alone."""
        if not changes.keys().isdisjoint({"mesh", "obstacle"}):
            raise ValueError("derive keeps the mesh and the obstacle")
        unknown = changes.keys() - {f.name for f in fields(self)}
        if unknown:
            raise TypeError(f"ProblemSpec has no field {sorted(unknown)[0]!r}")
        spec = object.__new__(ProblemSpec)
        spec.__dict__.update(vars(self), **changes)
        spec.__post_init__()
        return spec

    @property
    def has_gamma2(self):
        return self.mesh.gamma2_nodes.size > 0


@dataclass
class AssembledSystem:
    """Masked residual/Jacobian pair.  The residual is in node order and
    equals ``u`` on Dirichlet nodes; the Jacobian is the ``n_free x n_free``
    free-node block, the CSC matrix in the factor order of the mesh's
    :class:`~dpobstacle.meshing.FactorLayout`, ``J[order][:, order]``, and
    stores no exact zeros.

    The system keeps what its Jacobian reads besides the reaction: the
    :class:`GradientState` of the iterate and ``diagonal``, the penalty and
    boundary Newton diagonal.  ``assemble_system(..., system=s)`` builds the
    Jacobian at ``s``'s iterate from them, without computing the residual,
    the selection or the element state again."""

    residual: np.ndarray
    jacobian: sp.csc_matrix | None
    eta: np.ndarray
    state: GradientState | None = None
    diagonal: np.ndarray | None = None


class GradientState(NamedTuple):
    """The element state of an iterate: what the residual and the Jacobian
    read, each array over the elements.

    ``g2 = |grad u|^2 + eps_grad^2``, the powers ``cp = ge^(p-2)`` and
    ``cq = ge^(q-2)`` of ``ge = sqrt(g2)``, the coefficient
    ``coef = cp + mu cq`` and ``Gg = G_e^T grad u`` (``(n_elements, nv)``).
    The residual reads ``coef`` and ``Gg``; the Jacobian reads those and,
    unless frozen, ``cp``, ``cq`` and ``g2``.  The gradients themselves and
    ``ge`` are not kept: a system holds its state through the linear solve."""

    g2: np.ndarray
    cp: np.ndarray
    cq: np.ndarray
    coef: np.ndarray
    Gg: np.ndarray


def _gradient_state(spec, u, grads=None) -> GradientState:
    """The :class:`GradientState` of ``u`` (``grads``: its element gradients
    when the caller holds them), each entry computed once, bit for bit as
    the ``einsum`` and ``np.sum`` forms it replaced (see
    :meth:`~dpobstacle.meshing.Mesh.element_gradients`).  At ``ge = 0``
    numpy's ``0^0 = 1`` covers p = 2 exactly, and p > 2 gives 0."""
    if grads is None:
        grads = spec.mesh.element_gradients(nodal_values(u))
    p, q = spec.phase.p, spec.phase.q
    g2 = element_dots(grads, grads) + spec.eps_grad * spec.eps_grad
    ge = np.sqrt(g2)
    with np.errstate(divide="ignore"):
        cp = ge ** (p - 2.0)
        cq = ge ** (q - 2.0)
    return GradientState(g2, cp, cq, cp + spec.phase.mu * cq,
                         spec.mesh.gradient_pairings(grads))


def operator_energy(spec: ProblemSpec, u) -> float:
    """Regularized two-phase Dirichlet energy sum_e |e| (g^p/p + mu g^q/q)."""
    ge = np.sqrt(_gradient_state(spec, u).g2)
    p, q = spec.phase.p, spec.phase.q
    dens = ge**p / p + spec.phase.mu * ge**q / q
    return float(np.dot(spec.mesh.element_volumes, dens))


def apply_operator(spec: ProblemSpec, u, v) -> float:
    """Energy pairing of the operator at ``u`` against ``v``."""
    mesh = spec.mesh
    grads_u = mesh.element_gradients(nodal_values(u))
    dots = element_dots(grads_u, mesh.element_gradients(nodal_values(v)))
    coef = _gradient_state(spec, u, grads_u).coef
    return float(np.dot(mesh.element_volumes, coef * dots))


def operator_residual(spec: ProblemSpec, u, state=None) -> np.ndarray:
    """Unmasked residual vector of the leading operator; ``state`` is
    ``u``'s :class:`GradientState` when the caller holds it."""
    if state is None:
        state = _gradient_state(spec, u)
    coef = spec.mesh.element_volumes * state.coef
    # local vector |e| coef G^T grad
    return spec.mesh.scatter_vector(state.Gg * coef[:, None])


def operator_jacobian(spec: ProblemSpec, u, frozen=False, state=None):
    """Exact (or coefficient-frozen) sparse Jacobian of the leading operator;
    ``state`` is ``u``'s :class:`GradientState` when the caller holds it.

    ``frozen=True`` drops the rank-one derivative of the nonlinear
    coefficient, giving the fixed-point (Picard) linearization.  The element
    blocks ``|e| coef G^T G + |e| fac (G^T g)(G^T g)^T`` are built in place,
    the rank-one part one entry ``(a, b)`` at a time over contiguous columns
    of ``G^T g``, each product and sum in the order of the expression.
    """
    mesh = spec.mesh
    if state is None:
        state = _gradient_state(spec, u)
    vol = mesh.element_volumes
    blocks = np.multiply((vol * state.coef)[:, None, None], mesh.gradient_gram)
    if not frozen:
        p, q = spec.phase.p, spec.phase.q
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = ((p - 2.0) * state.cp + spec.phase.mu * (q - 2.0) * state.cq) / state.g2
        scale = vol * np.where(state.g2 > 0.0, fac, 0.0)
        Gg = state.Gg
        for a, b in np.ndindex(blocks.shape[1:]):
            blocks[:, a, b] += scale * (Gg[:, a] * Gg[:, b])
    return mesh.scatter_blocks(blocks)


def reaction_term(spec: ProblemSpec, u, with_jacobian=True):
    """Reaction residual ``-w_i eta_i``, its Jacobian, and the selection.

    The nodal gradient entering the selection is the volume-weighted average
    of the adjacent element gradients, ``xi_k = D_k u``.  The Jacobian is
    returned as the ``data`` array of the mesh's
    :class:`~dpobstacle.meshing.BlockPattern` (``pattern.matrix(data)`` is
    the CSR matrix): ``-w d(eta)/ds`` on the diagonal plus each ``D_k`` with
    row ``i`` scaled by ``-w_i d(eta)/d(xi_k)``, summed in that order; the
    slots that no term reaches hold explicit zeros.  ``with_jacobian=False``
    skips it, returns ``None`` in its place and computes the selection
    alone, forming ``xi`` only for a reaction that reads the gradient.
    """
    mesh = spec.mesh
    vals = nodal_values(u)
    xi = (np.column_stack([Dk @ vals for Dk in mesh.nodal_gradient_matrices])
          if with_jacobian or spec.reaction.reads_gradient else None)
    w = mesh.node_volume_weights
    if not with_jacobian:
        eta = spec.reaction.select(mesh.nodes, vals, xi)
        return -w * eta, None, eta
    eta, de_ds, de_dg = spec.reaction.select_with_partials(mesh.nodes, vals, xi)
    vec = -w * eta
    pattern, D = mesh.block_pattern, mesh.nodal_gradient_matrices
    data = np.zeros(pattern.nnz)
    data[pattern.diagonal] = -w * de_ds
    for Dk, (rows, slots), col in zip(D, mesh.nodal_gradient_slots, de_dg.T):
        if np.any(col != 0.0):
            data[slots] += (-w * col)[rows] * Dk.data
    return vec, data, eta


def boundary_term(spec: ProblemSpec, u):
    """Boundary flux on the natural part, smoothed at the potential's
    ``delta``: vector and diagonal."""
    n = spec.mesh.n_nodes
    vec = np.zeros(n)
    diag = np.zeros(n)
    bw = spec.mesh.gamma2_weights
    idx = spec.mesh.gamma2_nodes
    if idx.size:
        s = nodal_values(u)[idx]
        vec[idx] = bw[idx] * spec.boundary.smoothed_grad(s)
        diag[idx] = bw[idx] * spec.boundary.smoothed_grad_deriv(s)
    return vec, diag


def clarke_directional(spec: ProblemSpec, u, v) -> float:
    """Exact boundary term sum of weights times the generalized directional
    derivative of the potential at the trace of ``u`` in direction ``v``."""
    bw = spec.mesh.gamma2_weights
    idx = spec.mesh.gamma2_nodes
    if not idx.size:
        return 0.0
    s = nodal_values(u)[idx]
    t = nodal_values(v)[idx]
    return float(np.dot(bw[idx], spec.boundary.clarke_directional(s, t)))


def assemble_system(
    spec: ProblemSpec,
    u,
    rho=1.0,
    with_jacobian=True,
    frozen=False,
    system=None,
) -> AssembledSystem:
    """Full masked system of the approximating problem at parameter ``rho``,
    whose obstacle penalty is ``spec.constraints.envelope_grad(u, rho)``
    (see :class:`~dpobstacle.nonsmooth.ConstraintSet`).

    ``system`` is a system that an earlier call returned for this problem,
    ``u`` and ``rho``; its residual, selection, element state and diagonal
    are taken as they are, so only the Jacobian is built (the reaction's
    part of it from a new selection).  Either way the result is bit for bit
    the same."""
    vals = nodal_values(u)
    if system is None:
        state = _gradient_state(spec, vals)
        r = operator_residual(spec, vals, state=state)
        diag_extra = np.zeros_like(r)

        react_vec, _, eta = reaction_term(spec, vals, with_jacobian=False)
        r = r + react_vec
        bnd_vec, bnd_diag = boundary_term(spec, vals)
        r = r + bnd_vec
        diag_extra += bnd_diag

        pen_vec, pen_diag = spec.constraints.envelope_grad(vals, rho)
        r = r + pen_vec
        diag_extra += pen_diag

        mask = spec.mesh.dirichlet_mask
        r[mask] = vals[mask]
        system = AssembledSystem(residual=r, jacobian=None, eta=eta, state=state,
                                 diagonal=diag_extra)
    if not with_jacobian:
        return system
    pattern = spec.mesh.block_pattern
    data = operator_jacobian(spec, vals, frozen=frozen, state=system.state).data
    data[pattern.diagonal] += system.diagonal
    if not frozen:
        # the fixed-point linearization also freezes the selection
        data += reaction_term(spec, vals)[1]
    return replace(system, jacobian=pattern.factor_matrix(data))
