"""Tour of the two-power modular and its induced norms.

A discrete function on a uniform interval mesh is measured three ways: the
modular (the integrated two-power density), the Luxemburg norm (the scaling
that brings the modular to one), and the weighted Sobolev-type norm built
from function values and gradients.  The script prints the classic
relations between modular and norm so they can be seen numerically:

  * the modular of f / ||f|| equals one,
  * modular and norm sit on the same side of one,
  * between the two sit the p-th and q-th powers of the norm.
"""

import numpy as np

from dpobstacle.meshing import BoundaryPartition, DiscreteFunction, build_interval_mesh
from dpobstacle.musielak import PhaseConfig, luxemburg_norm, modular, sobolev_norm, weighted_seminorm

mesh = build_interval_mesh(0.0, 1.0, 64, partition=BoundaryPartition())
cfg = PhaseConfig.for_mesh(mesh, p=2.0, q=3.0, mu=lambda x: 0.5 + 0.5 * x)

f = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x))

print("mesh: 64 elements on (0, 1); powers p=2, q=3; weight mu(x)=0.5+0.5x")
print()

for label, scale in [("small", 0.1), ("unit-ish", 1.0), ("large", 10.0)]:
    g = DiscreteFunction(mesh, scale * f.values)
    rho = modular(g, cfg)
    lam = luxemburg_norm(g, cfg)
    unit = modular(DiscreteFunction(mesh, g.values / lam), cfg)
    print(f"{label:9s} amplitude {scale:5.1f}:")
    print(f"  modular          = {rho.value:.6e}"
          f"  (p-part {rho.p_part:.3e}, q-part {rho.q_part:.3e})")
    print(f"  luxemburg norm   = {lam:.6e}")
    print(f"  modular(f/norm)  = {unit.value:.12f}   (equals 1 by definition)")
    lo, hi = sorted([lam ** cfg.p, lam ** cfg.q])
    print(f"  squeeze          : {lo:.3e} <= {rho.value:.3e} <= {hi:.3e}")
    print()

# Gradient-based quantities: the same machinery applied to the elementwise
# gradients gives the seminorm; the full norm adds the value part.
print("gradient seminorm  =", f"{weighted_seminorm(f, cfg):.6e}")
print("values + gradients =", f"{sobolev_norm(f, cfg):.6e}")
