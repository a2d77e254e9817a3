"""Watching the approximate solution sets settle onto a limit.

For each approximation strength rho the solver is run from several starts
and under several single-valued selections of the (possibly multivalued)
reaction; the converged results form the stage sample.  As rho shrinks the
stage-to-stage movement contracts, and any chain whose trailing steps
contract geometrically yields a limit candidate.  The candidate is then
certified directly against the constrained problem: a variational
inequality residual over a documented probe set, nodewise feasibility, and
its distance to each stage sample.
"""

import numpy as np

from dpobstacle.assembly import ProblemSpec
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.lab import kuratowski_study, nearest_point_trace
from dpobstacle.meshing import BoundaryPartition, DiscreteFunction, build_interval_mesh
from dpobstacle.musielak import PhaseConfig
from dpobstacle.solver import SolverConfig

mesh = build_interval_mesh(0.0, 1.0, 64, partition=BoundaryPartition())
spec = ProblemSpec(
    mesh=mesh,
    phase=PhaseConfig.for_mesh(mesh, p=2.0, q=2.0, mu=0.0),
    obstacle=DiscreteFunction.constant(mesh, 0.5),
    reaction=reaction("interval", lo=7.5, hi=8.5),  # genuinely multivalued load
    boundary=boundary_potential("zero"),
    eps_grad=0.0,
)

schedule = [10.0 ** -k for k in range(11)]
diag = kuratowski_study(
    spec, schedule, SolverConfig(),
    n_starts=2,
    selection_rules=["lower", "midpoint", "upper"],
    seed=0,
)

print("rho        sample  violation_sup  chain_step")
for rho, sample, viol, step in zip(diag.rhos, diag.samples,
                                   diag.violation_sup, diag.chain_distances):
    print(f"{rho:9.1e}  {len(sample.members):6d}  {viol:13.3e}  "
          f"{step:10.3e}" if np.isfinite(step) else
          f"{rho:9.1e}  {len(sample.members):6d}  {viol:13.3e}           -")

print(f"\nlimit candidates found: {len(diag.candidates)}")
for cand in diag.candidates:
    print(f"  selection rule {cand.rule!r:12s}: "
          f"vi residual {cand.vi_value:+.2e} over {cand.probe_count} probes, "
          f"max u = {cand.solution.values.max():.6f}")

# Distance from the best candidate to each stage sample: the candidate is
# (numerically) a limit point of the sets, approached at the rate the
# penalty relaxes.
best = max(diag.candidates, key=lambda c: c.vi_value)
trace = nearest_point_trace(diag, best.solution)
print("\nnearest stage member to the candidate:")
for rho, member, dist in trace[::2]:
    print(f"  rho {rho:9.1e}: member {member}, distance {dist:.3e}")
