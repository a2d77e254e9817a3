"""A set-valued boundary condition at a free end of a contact problem.

The right endpoint is left free of Dirichlet data; instead the boundary
flux there must lie in the generalized gradient of the potential
j(s) = 0.1 |s|, i.e. in [-0.1, 0.1] while the trace vanishes and at
+/- 0.1 once it moves.  The obstacle u <= 0.1 is treated by the lumped
penalty term along a vanishing schedule (the lumped Moreau-Yosida envelope
gradient is the same vector, so this is also the Moreau-Yosida limit).  At the
end the recovered boundary flux is checked against the admissible interval.
"""

from dpobstacle.assembly import ProblemSpec, operator_residual, reaction_term
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.meshing import BoundaryPartition, DiscreteFunction, build_interval_mesh
from dpobstacle.musielak import PhaseConfig
from dpobstacle.solver import SolverConfig, continuation

mesh = build_interval_mesh(
    0.0, 1.0, 64, partition=BoundaryPartition.from_sides(("right",), dim=1))
spec = ProblemSpec(
    mesh=mesh,
    phase=PhaseConfig.for_mesh(mesh, p=2.0, q=2.0, mu=0.0),
    obstacle=DiscreteFunction.constant(mesh, 0.1),
    reaction=reaction("constant", value=4.0),
    boundary=boundary_potential("abs", alpha=0.1),
    eps_grad=0.0,
)

schedule = [10.0 ** -k for k in range(9)]
rep = continuation(spec, schedule, SolverConfig())[-1]
assert rep.converged
u = rep.solution.values
print(f"converged at rho={rep.rho:.0e}, max u = {u.max():.6f}, u(1) = {u[-1]:.6f}")

# Recover the boundary flux at the free endpoint from the volume balance:
# whatever the operator and the load do not balance must be carried by the
# boundary term, and it has to sit inside the generalized gradient of j.
trace = u[-1]
residual = operator_residual(spec, u) + reaction_term(spec, u)[0]
flux = -residual[-1]
entry = spec.boundary
lo, hi = entry.clarke_interval(trace)
print(f"\ntrace at the free endpoint     : {trace:.6f}")
print(f"recovered boundary flux        : {flux:+.6f}")
print(f"admissible generalized gradient: [{float(lo):+.2f}, {float(hi):+.2f}]"
      f"  -> inside: {bool(lo - 1e-8 <= flux <= hi + 1e-8)}")
