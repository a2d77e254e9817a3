"""Shared test helpers: spec builders and independent reference oracles.

The reference computations here deliberately avoid the package's own
assembly/quadrature code paths (element geometry is re-derived from node
coordinates, integrals are accumulated in plain Python loops), so that
agreement between package and reference is meaningful evidence.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from dpobstacle.assembly import ProblemSpec
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.meshing import (
    BoundaryPartition,
    DiscreteFunction,
    build_interval_mesh,
    build_rect_mesh,
)
from dpobstacle.musielak import PhaseConfig

# --- builders ---------------------------------------------------------------


def interval(n=16, a=0.0, b=1.0, gamma2=()):
    part = (BoundaryPartition.from_sides(gamma2, dim=1)
            if gamma2 else BoundaryPartition.all_dirichlet())
    return build_interval_mesh(a, b, n, partition=part)


def rectangle(nx=4, ny=4, lx=1.0, ly=1.0, gamma2=()):
    part = (BoundaryPartition.from_sides(gamma2, dim=2)
            if gamma2 else BoundaryPartition.all_dirichlet())
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
