"""Obstacle constraint set, projection, and Moreau-Yosida envelope.

The admissible set collects nodal vectors that stay below the obstacle and
vanish on the Dirichlet boundary part.  Because both constraints act nodewise
and the discrete inner product is the diagonal lumped-weight product, the
metric projection is a nodewise clip followed by zeroing the Dirichlet nodes,
and the Moreau-Yosida envelope of the set indicator
(``ConstraintSet.envelope_value`` and ``envelope_grad``) has the closed form

    env_eps(u) = ||u - proj(u)||_w^2 / (2 eps),
    grad env_eps(u)_i = (w_i / eps) (u_i - proj(u)_i),

with ``||d||_w^2 = sum_i w_i d_i^2``.  Using the lumped-weight metric in place
of the full energy-space norm is a deliberate simplification; the envelope it
induces has the same monotone/limit structure but can select a different
approximating path than the energy-space envelope would.
:class:`ConstraintSet` owns the obstacle term of the solver: the penalty, its
derivative and the reported violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .meshing import Mesh

__all__ = ["ConstraintSet"]


@dataclass(frozen=True)
class ConstraintSet:
    """Nodal vectors below the obstacle and zero on the Dirichlet nodes.

    ``obstacle`` entries may be ``+inf`` (unconstrained node).  The obstacle
    must be >= 0 where finite so that the zero vector belongs to the set, and
    may not be NaN or ``-inf``; errors name ``param`` ``obstacle``.
    :meth:`contains` and :meth:`project_values` act on one nodal vector or
    on a stack of them, row by row, with the same arithmetic per entry.

    The set is the one owner of the obstacle term.  On a free node the
    :meth:`excess` ``u - proj(u)`` is ``(u - phi)^+``, and 0 where the
    obstacle is ``+inf``; so the envelope gradient ``w (u - phi)^+ / eps``
    is the lumped obstacle penalty that the solver assembles at
    ``eps = rho``, and the excess is the violation a solve reports.
    """

    mesh: Mesh
    obstacle: np.ndarray
    dirichlet_mask: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.obstacle, dtype=float)
        mask = np.asarray(self.dirichlet_mask, dtype=bool)
        object.__setattr__(self, "obstacle", obs)
        object.__setattr__(self, "dirichlet_mask", mask)
        if obs.shape != (self.mesh.n_nodes,) or mask.shape != (self.mesh.n_nodes,):
            raise ConfigurationError("obstacle/mask length must match the mesh")
        if np.any(np.isnan(obs)) or np.any(np.isneginf(obs)):
            raise ConfigurationError("obstacle may not be NaN or -inf", param="obstacle")
        if np.any(obs[np.isfinite(obs)] < 0):
            raise ConfigurationError(
                "obstacle must be >= 0 where finite (zero must be admissible)",
                param="obstacle",
            )

    @classmethod
    def from_problem(cls, mesh, obstacle_values):
        return cls(mesh=mesh, obstacle=obstacle_values,
                   dirichlet_mask=mesh.dirichlet_mask)

    def contains(self, values, tol=0.0):
        """Whether ``values`` lies in the set up to ``tol``: a bool for one
        nodal vector, and one bool per row for a stack of them (shape
        ``(..., n_nodes)``)."""
        values = np.asarray(values, dtype=float)
        below = np.all(values <= self.obstacle + tol, axis=-1)
        pinned = np.all(np.abs(values[..., self.dirichlet_mask]) <= tol, axis=-1)
        inside = below & pinned
        return bool(inside) if inside.ndim == 0 else inside

    def project_values(self, values):
        """The projection of one nodal vector, or of each row of a stack."""
        out = np.minimum(np.asarray(values, dtype=float), self.obstacle)
        out[..., self.dirichlet_mask] = 0.0
        return out

    def excess(self, values):
        """``values - proj(values)``, with no negative zero: ``u - proj(u)``
        reads -0.0 at ``u = -0.0`` against ``phi = 0``, and ``+ 0.0`` turns
        that zero positive, as ``(u - phi)^+`` reads it."""
        values = np.asarray(values, dtype=float)
        return values - self.project_values(values) + 0.0

    def envelope_value(self, values, eps):
        """Envelope of the set indicator: squared distance over ``2 eps``."""
        if not eps > 0:
            raise ConfigurationError(
                f"envelope parameter eps must be positive, got {eps}")
        d = self.excess(values)
        w = self.mesh.node_volume_weights
        return float(np.dot(w, d * d) / (2.0 * eps))

    def envelope_grad(self, values, eps):
        """Gradient of the envelope, a monotone map vanishing on the set, and
        its Newton derivative, the diagonal ``w / eps`` where the excess is
        positive and 0 elsewhere (at the kink too; Hintermueller, Ito &
        Kunisch, SIAM J. Optim. 13 (2002) 865-888)."""
        if not eps > 0:
            raise ConfigurationError(
                f"envelope parameter eps must be positive, got {eps}")
        d = self.excess(values)
        w = self.mesh.node_volume_weights
        return w * d / eps, np.where(d > 0.0, w / eps, 0.0)
