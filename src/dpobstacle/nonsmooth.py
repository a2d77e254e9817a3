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

On the free nodes ``u_i - proj(u)_i = (u_i - phi_i)^+``, so the gradient is
the lumped obstacle penalty that the solver assembles: one term serves as
both the penalty and the Moreau-Yosida approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .meshing import DiscreteFunction, Mesh, nodal_values

__all__ = [
    "ConstraintSet",
    "plus_part",
]


@dataclass(frozen=True)
class ConstraintSet:
    """Nodal vectors below the obstacle and zero on the Dirichlet nodes.

    ``obstacle`` entries may be ``+inf`` (unconstrained node).  The obstacle
    must be >= 0 where finite so that the zero vector belongs to the set, and
    may not be NaN or ``-inf``; errors name ``param`` ``obstacle``.
    :meth:`contains` and :meth:`project_values` act on one nodal vector or
    on a stack of them, row by row, with the same arithmetic per entry.
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

    def project_values(self, values, out=None):
        """The projection of one nodal vector, or of each row of a stack;
        ``out=values`` projects in place."""
        out = np.minimum(np.asarray(values, dtype=float), self.obstacle, out=out)
        out[..., self.dirichlet_mask] = 0.0
        return out

    def envelope_value(self, values, eps):
        """Envelope of the set indicator: squared distance over ``2 eps``."""
        if eps <= 0:
            raise ConfigurationError("envelope parameter eps must be positive")
        d = np.asarray(values, dtype=float) - self.project_values(values)
        w = self.mesh.node_volume_weights
        return float(np.dot(w, d * d) / (2.0 * eps))

    def envelope_grad(self, values, eps):
        """Gradient of the envelope, a monotone map vanishing on the set."""
        if eps <= 0:
            raise ConfigurationError("envelope parameter eps must be positive")
        d = np.asarray(values, dtype=float) - self.project_values(values)
        return self.mesh.node_volume_weights * d / eps


def plus_part(u: DiscreteFunction, phi) -> DiscreteFunction:
    """Nodal positive part (u - phi)^+; infinite obstacle entries give zero."""
    phi_vals = nodal_values(phi)
    excess = u.values - phi_vals
    out = np.where(np.isposinf(phi_vals), 0.0, np.maximum(excess, 0.0))
    return DiscreteFunction(u.mesh, out)
