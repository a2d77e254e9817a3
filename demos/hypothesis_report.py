"""Checking the structural assumptions before trusting a solve.

Each reaction and boundary entry in the catalog declares growth constants;
existence of solutions additionally needs a smallness condition coupling
those constants to the first Poincare-type constant of the mesh (and its
boundary analogue when a natural boundary part is present).  The validator
estimates the constants, evaluates the condition, and reports pass/fail
with notes; a failing report does not block the solver, it is a warning
that the theory behind the discretization no longer backs the run.
"""

from dpobstacle.assembly import ProblemSpec
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.lab import validate_hypotheses
from dpobstacle.meshing import (BoundaryPartition, DiscreteFunction,
                                build_interval_mesh, build_rect_mesh)
from dpobstacle.musielak import PhaseConfig


def build(react, p=2.0, q=2.0, eps=0.0, mesh=None):
    if mesh is None:
        mesh = build_interval_mesh(0.0, 1.0, 64, partition=BoundaryPartition())
    return ProblemSpec(
        mesh=mesh,
        phase=PhaseConfig.for_mesh(mesh, p=p, q=q, mu=0.0),
        obstacle=DiscreteFunction.constant(mesh, float("inf"), allow_infinite=True),
        reaction=react,
        boundary=boundary_potential("zero"),
        eps_grad=eps,
    )


def show(title, spec):
    rep = validate_hypotheses(spec)
    print(title)
    tag1 = "certified" if rep.lambda1_certified else "estimate"
    print(f"  lambda1 = {rep.lambda1_est:.6f} ({tag1}), "
          f"lambda2 = {rep.lambda2_est:.6f}")
    print(f"  smallness lhs = {rep.smallness_lhs:.4f}  ->  "
          f"{'PASS' if rep.passes else 'FAIL'}")
    for note in rep.notes:
        print(f"  note: {note}")
    print()


# A benign instance: mild constant load, all growth exponents inactive.
show("constant load, linear diffusion:",
     build(reaction("constant", value=1.0)))

# State-dependent reaction at the critical exponent: the smallness sum
# picks up the full coefficient and the condition fails.
show("steep state-dependent band at the critical exponent:",
     build(reaction("sign_band", slope=4.0, offset=0.1)))

# Nonlinear diffusion: the Poincare constant is found by ascent from
# random starts and from the p = 2 maximizer, and reported as an
# estimate, not a certificate.
show("nonlinear diffusion (p=2.5):",
     build(reaction("constant", value=1.0), p=2.5, q=3.0, eps=1e-8))

# A 2D square with a natural boundary part on two sides, 2,401 nodes: both
# constants are exact, read off one sparse factor of the stiffness.
square = build_rect_mesh(1.0, 1.0, 48, 48,
                         partition=BoundaryPartition.from_sides(["right", "top"], 2))
show("2D square, natural boundary on the right and top sides (48 x 48 cells):",
     build(reaction("constant", value=1.0), mesh=square))
