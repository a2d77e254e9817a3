"""Two-exponent modular, Luxemburg norm, and weighted seminorm.

The density ``H(x, t) = t^p + mu(x) t^q`` with exponents ``1 < p <= q`` and a
nonnegative weight ``mu`` induces the modular

    rho(f) = integral of |f|^p + mu(x) |f|^q,

the Luxemburg norm  ``||f|| = inf { tau > 0 : rho(f / tau) <= 1 }``  and the
weight-only seminorm  ``(integral of mu |f|^q)^(1/q)``.

Discretization: the weight is piecewise constant per element (sampled at
barycenters).  The modular of *nodal values* uses vertex-lumped quadrature
(each element spreads its volume equally over its vertices); the modular of
the *gradient* is exact for P1 functions because the integrand is elementwise
constant.  Both modulars scale exactly under ``f -> f / tau``, so the
Luxemburg norm reduces to a scalar root-find of
``p_part * tau^-p + q_part * tau^-q = 1``, solved by bracketing from
``tau = 1`` and bisection to absolute tolerance 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .meshing import DiscreteFunction, Mesh

__all__ = [
    "PhaseConfig",
    "ModularValue",
    "modular",
    "luxemburg_norm",
    "weighted_seminorm",
    "sobolev_norm",
]

_BISECT_TOL = 1e-12
_MAX_EXPANSIONS = 200


@dataclass(frozen=True)
class PhaseConfig:
    """Exponent pair and per-element weight of the two-phase density.

    The lumped nodal weights of the mu-part are computed on first use and
    cached.
    """

    mesh: Mesh
    p: float
    q: float
    mu: np.ndarray  # (n_elements,)

    def __post_init__(self):
        for param, holds in (("p", 1.0 < self.p), ("q", self.p <= self.q < np.inf)):
            if not holds:
                raise ConfigurationError(
                    f"exponents must satisfy 1 < p <= q < inf, got p={self.p}, "
                    f"q={self.q}", param=param)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.shape != (self.mesh.n_elements,):
            raise ConfigurationError(
                f"weight array has shape {mu.shape}, expected "
                f"({self.mesh.n_elements},)"
            )
        if not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ConfigurationError("weight mu must be finite and >= 0")

    @classmethod
    def for_mesh(cls, mesh, p, q, mu=0.0):
        """Build from a constant or a callable ``mu(x)`` / ``mu(x, y)`` sampled
        at element barycenters."""
        if callable(mu):
            bary = mesh.nodes[mesh.elements].mean(axis=1)
            vals = np.asarray(mu(*bary.T), dtype=float)
            vals = np.broadcast_to(vals, (mesh.n_elements,)).copy()
        else:
            vals = np.full(mesh.n_elements, float(mu))
        return cls(mesh=mesh, p=float(p), q=float(q), mu=vals)

    @cached_property
    def mu_node_weights(self):
        """Lumped weights for the mu-part: sum_e (|e|/nverts) mu_e per vertex."""
        mesh = self.mesh
        nv = mesh.dim + 1
        return mesh.scatter_vector(np.repeat(mesh.element_volumes / nv * self.mu, nv))


@dataclass(frozen=True)
class ModularValue:
    """Modular split into its power-p and power-q parts."""

    value: float
    p_part: float
    q_part: float

    def __post_init__(self):
        if not (
            np.isfinite(self.value)
            and self.p_part >= 0
            and self.q_part >= 0
            and abs(self.value - (self.p_part + self.q_part))
            <= 1e-12 * max(1.0, abs(self.value))
        ):
            raise ConfigurationError(
                "modular parts must be nonnegative and sum to the total"
            )


def _check_same_mesh(f, cfg):
    if f.mesh is not cfg.mesh:
        raise ConfigurationError("function and phase config refer to different meshes")


def _modular_parts(f, cfg, of_gradient):
    _check_same_mesh(f, cfg)
    mesh = cfg.mesh
    if of_gradient:
        grads = mesh.element_gradients(f.values)
        g = np.sqrt(np.sum(grads * grads, axis=1))
        p_part = float(np.dot(mesh.element_volumes, g**cfg.p))
        q_part = float(np.dot(mesh.element_volumes * cfg.mu, g**cfg.q))
    else:
        av = np.abs(f.values)
        p_part = float(np.dot(mesh.node_volume_weights, av**cfg.p))
        q_part = float(np.dot(cfg.mu_node_weights, av**cfg.q))
    return p_part, q_part


def modular(f: DiscreteFunction, cfg: PhaseConfig, of_gradient=False) -> ModularValue:
    """Two-phase modular of nodal values (lumped) or of the P1 gradient (exact)."""
    p_part, q_part = _modular_parts(f, cfg, of_gradient)
    return ModularValue(value=p_part + q_part, p_part=p_part, q_part=q_part)


def _luxemburg_from_parts(p_part, q_part, p, q):
    if p_part == 0.0 and q_part == 0.0:
        return 0.0

    def scaled_modular(tau):
        try:
            return p_part * tau**-p + q_part * tau**-q
        except OverflowError:
            return float("inf")

    lo = hi = 1.0
    m = scaled_modular(1.0)
    if m == 1.0:
        return 1.0
    if m > 1.0:
        for _ in range(_MAX_EXPANSIONS):
            hi *= 2.0
            if scaled_modular(hi) <= 1.0:
                break
        else:
            raise ConfigurationError("Luxemburg bracketing failed: modular too large")
    else:
        for _ in range(_MAX_EXPANSIONS):
            lo *= 0.5
            if scaled_modular(lo) >= 1.0:
                break
        else:
            # modular stays below 1 down to 2^-200: the norm is 0 to tolerance
            return 0.0
    # scaled_modular is strictly decreasing; keep the invariant
    # scaled_modular(lo) >= 1 >= scaled_modular(hi)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if scaled_modular(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def luxemburg_norm(f: DiscreteFunction, cfg: PhaseConfig, of_gradient=False) -> float:
    """Luxemburg norm: the tau with unit scaled modular (0 for the zero input)."""
    p_part, q_part = _modular_parts(f, cfg, of_gradient)
    return _luxemburg_from_parts(p_part, q_part, cfg.p, cfg.q)


def weighted_seminorm(f: DiscreteFunction, cfg: PhaseConfig) -> float:
    """Weight-only seminorm (integral of mu |f|^q)^(1/q), lumped quadrature."""
    _check_same_mesh(f, cfg)
    av = np.abs(f.values)
    q_part = float(np.dot(cfg.mu_node_weights, av**cfg.q))
    return q_part ** (1.0 / cfg.q)


def sobolev_norm(f: DiscreteFunction, cfg: PhaseConfig) -> float:
    """Discrete energy-space norm: Luxemburg norm of values plus of gradient."""
    return luxemburg_norm(f, cfg, of_gradient=False) + luxemburg_norm(
        f, cfg, of_gradient=True
    )
