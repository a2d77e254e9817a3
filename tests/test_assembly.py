"""Weak-form assembly: operator, penalty, reaction, boundary, masking."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    PATTERN_MESHES,
    assert_same_system,
    interval,
    make_spec,
    obstacle_fn,
    random_function,
    rectangle,
    reference_assemble_system,
    reference_energy,
    reference_penalty_term,
    reference_plus_part,
)
from dpobstacle.assembly import (
    AssembledSystem,
    apply_operator,
    assemble_system,
    boundary_term,
    clarke_directional,
    operator_energy,
    operator_jacobian,
    operator_residual,
    reaction_term,
)
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.errors import ConfigurationError
from dpobstacle.meshing import DiscreteFunction, build_interval_mesh
from dpobstacle.solver import SolverConfig, solve_penalized


class TestOperator:
    def test_linear_ramp_pairing(self):
        # single unit element, u = x, both powers active with unit weight:
        # <A u, u> = 1/1 + 1/1 = 2
        mesh = interval(1)
        spec = make_spec(mesh, p=3.0, q=4.0, mu=1.0)
        u = mesh.nodes[:, 0]
        assert apply_operator(spec, u, u) == pytest.approx(2.0, abs=1e-14)

    def test_harmonic_ramp_annihilates_interior_hats(self):
        # u = x is discretely harmonic for the pure power-2 operator
        mesh = interval(8)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0)
        u = mesh.nodes[:, 0]
        for i in range(1, mesh.n_nodes - 1):
            v = np.zeros(mesh.n_nodes)
            v[i] = 1.0
            assert abs(apply_operator(spec, u, v)) <= 1e-14

    def test_residual_realizes_pairing(self, rng):
        mesh = rectangle(3, 2)
        spec = make_spec(mesh, p=2.4, q=3.2, mu=lambda x, y: x + y,
                         eps=1e-8)
        u = random_function(mesh, rng)
        r = operator_residual(spec, u)
        for _ in range(10):
            v = rng.normal(size=mesh.n_nodes)
            assert np.dot(r, v) == pytest.approx(
                apply_operator(spec, u, v), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("build", [
        lambda: (interval(11),
                 dict(p=2.5, q=3.5, mu=lambda x: 0.5 + 0.3 * np.sin(2 * x))),
        lambda: (rectangle(3, 3),
                 dict(p=2.2, q=2.9, mu=lambda x, y: 0.4 + 0.5 * x * y)),
    ])
    def test_residual_is_energy_gradient(self, rng, build):
        mesh, kw = build()
        spec = make_spec(mesh, eps=1e-8, **kw)
        for _ in range(5):
            u = random_function(mesh, rng).values
            r = operator_residual(spec, u)
            v = rng.normal(size=mesh.n_nodes)
            t = 1e-6
            fd = (reference_energy(spec, u + t * v)
                  - reference_energy(spec, u - t * v)) / (2 * t)
            assert np.dot(r, v) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_energy_matches_loop_reference(self, rng):
        mesh = rectangle(2, 3)
        spec = make_spec(mesh, p=2.3, q=3.1, mu=lambda x, y: x, eps=1e-6)
        u = random_function(mesh, rng).values
        assert operator_energy(spec, u) == pytest.approx(
            reference_energy(spec, u), rel=1e-13)

    def test_jacobian_symmetric(self, rng):
        mesh = rectangle(3, 2)
        spec = make_spec(mesh, p=2.4, q=3.2, mu=lambda x, y: x + y, eps=1e-8)
        u = random_function(mesh, rng)
        J = operator_jacobian(spec, u).toarray()
        assert np.max(np.abs(J - J.T)) <= 1e-12

    @pytest.mark.parametrize("build", [
        lambda: (interval(9), dict(p=2.6, q=3.4, mu=0.7)),
        lambda: (rectangle(2, 2), dict(p=2.2, q=3.0, mu=lambda x, y: y)),
    ])
    def test_jacobian_matches_fd(self, rng, build):
        mesh, kw = build()
        spec = make_spec(mesh, eps=1e-8, **kw)
        u = random_function(mesh, rng).values
        J = operator_jacobian(spec, u).toarray()
        h = 1e-6
        for j in range(mesh.n_nodes):
            up, dn = u.copy(), u.copy()
            up[j] += h
            dn[j] -= h
            col = (operator_residual(spec, up)
                   - operator_residual(spec, dn)) / (2 * h)
            assert np.allclose(J[:, j], col, atol=1e-5)

    def test_power_two_gives_exact_stiffness(self):
        # p = q = 2 with zero weight: the matrix is the classic (1/h)
        # tridiagonal [-1, 2, -1] and the match is exact in floating point
        n = 64
        mesh = interval(n)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0)
        u = np.linspace(-1, 1, mesh.n_nodes) ** 2
        J = operator_jacobian(spec, u).toarray()
        h = 1.0 / n
        T = (np.diag(np.full(mesh.n_nodes, 2.0 / h))
             + np.diag(np.full(mesh.n_nodes - 1, -1.0 / h), 1)
             + np.diag(np.full(mesh.n_nodes - 1, -1.0 / h), -1))
        T[0, 0] = T[-1, -1] = 1.0 / h
        assert np.max(np.abs(J - T)) == 0.0

    def test_operator_monotone(self, rng):
        mesh = interval(10)
        spec = make_spec(mesh, p=2.6, q=3.1, mu=lambda x: x, eps=1e-8)
        for _ in range(50):
            u = rng.uniform(-2, 2, mesh.n_nodes)
            v = rng.uniform(-2, 2, mesh.n_nodes)
            gap = np.dot(operator_residual(spec, u)
                         - operator_residual(spec, v), u - v)
            assert gap >= -1e-12

    def test_degenerate_gradient_needs_regularization(self):
        mesh = interval(4)
        u = np.ones(mesh.n_nodes)  # zero gradient everywhere
        # a floor whose square underflows would leave the coefficient
        # singular, so the problem refuses it at construction
        with pytest.raises(ConfigurationError) as err:
            make_spec(mesh, p=1.5, q=2.5, mu=0.5, eps=1e-200)
        assert err.value.param == "eps_grad"
        # the problem's own stored floor keeps the same call finite
        spec = make_spec(mesh, p=1.5, q=2.5, mu=0.5, eps=1e-8)
        assert np.isfinite(apply_operator(spec, u, u))


class TestPenalty:
    """The penalty is the constraint set's envelope gradient and its
    diagonal derivative, at states that vanish on the Dirichlet nodes."""

    def test_unit_excess_pairing(self):
        # u = 2 over cap 1 on the free nodes of the unit interval at
        # strength 1: pairing against v = 1 integrates the excess over them,
        # 1 - h with the two clamped half cells left out
        mesh = interval(4)
        spec = make_spec(mesh, phi=1.0)
        u = np.where(mesh.dirichlet_mask, 0.0, 2.0)
        vec, diag = spec.constraints.envelope_grad(u, 1.0)
        assert np.dot(vec, np.ones(mesh.n_nodes)) == pytest.approx(
            0.75, abs=1e-14)
        assert np.array_equal(diag > 0, vec > 0)

    def test_inactive_below_cap(self, rng):
        mesh = interval(6)
        spec = make_spec(mesh, phi=0.5)
        u = rng.uniform(-1.0, 0.5, mesh.n_nodes)
        u[mesh.dirichlet_mask] = 0.0
        vec, diag = spec.constraints.envelope_grad(u, 1e-3)
        assert np.all(vec == 0.0) and np.all(diag == 0.0)

    def test_vanishes_exactly_at_contact(self):
        mesh = interval(5)
        spec = make_spec(mesh, phi=0.25)
        u = np.where(mesh.dirichlet_mask, 0.0, 0.25)
        vec, diag = spec.constraints.envelope_grad(u, 1e-6)
        assert np.all(vec == 0.0) and np.all(diag == 0.0)

    def test_monotone_in_state(self, rng):
        mesh = interval(7)
        K = make_spec(mesh, phi=0.3).constraints
        for _ in range(500):
            u = rng.uniform(-1, 1.5, mesh.n_nodes)
            v = rng.uniform(-1, 1.5, mesh.n_nodes)
            pu, _ = K.envelope_grad(u, 0.01)
            pv, _ = K.envelope_grad(v, 0.01)
            assert np.dot(pu - pv, u - v) >= 0.0

    def test_infinite_cap_is_inert(self, rng):
        mesh = interval(5)
        spec = make_spec(mesh, phi=None)
        u = rng.uniform(-5, 5, mesh.n_nodes)
        u[mesh.dirichlet_mask] = 0.0
        vec, diag = spec.constraints.envelope_grad(u, 1e-9)
        assert np.all(vec == 0.0) and np.all(diag == 0.0)

    def test_positive_strength_required(self):
        mesh = interval(4)
        spec = make_spec(mesh, phi=1.0)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ConfigurationError):
                spec.constraints.envelope_grad(np.zeros(mesh.n_nodes), bad)
            with pytest.raises(ConfigurationError):
                assemble_system(spec, np.zeros(mesh.n_nodes), rho=bad)


class TestReaction:
    def test_constant_source(self):
        mesh = interval(4)
        spec = make_spec(mesh, react=reaction("constant", value=2.0))
        vec, jac, eta = reaction_term(spec, np.zeros(mesh.n_nodes))
        jac = mesh.block_pattern.matrix(jac)
        assert np.allclose(vec, -2.0 * mesh.node_volume_weights, atol=1e-15)
        assert np.all(eta == 2.0)
        assert sp.issparse(jac) and abs(jac).sum() == 0.0

    def test_symmetric_band_midpoint_vanishes(self, rng):
        mesh = interval(6)
        spec = make_spec(mesh, react=reaction("sign_band", slope=1.0,
                                              offset=1.0, rule="midpoint"))
        vec, _, eta = reaction_term(spec, rng.normal(size=mesh.n_nodes))
        assert np.all(vec == 0.0) and np.all(eta == 0.0)

    def test_rule_ordering(self, rng):
        mesh = interval(6)
        u = rng.normal(size=mesh.n_nodes)
        lo_spec = make_spec(mesh, react=reaction("interval", lo=-1.0, hi=2.0,
                                                 rule="lower"))
        hi_spec = make_spec(mesh, react=reaction("interval", lo=-1.0, hi=2.0,
                                                 rule="upper"))
        _, _, eta_lo = reaction_term(lo_spec, u)
        _, _, eta_hi = reaction_term(hi_spec, u)
        assert np.all(eta_lo <= eta_hi)

    def test_convective_jacobian_matches_fd(self, rng):
        mesh = interval(9)
        spec = make_spec(
            mesh, react=reaction("convective_linear", c0=1.0, c1=0.5, c2=0.3))
        u = rng.uniform(0.5, 1.5, mesh.n_nodes)  # keep gradients one-signed
        u = np.sort(u)
        vec, jac, _ = reaction_term(spec, u)
        J = mesh.block_pattern.matrix(jac).toarray()
        h = 1e-7
        for j in range(mesh.n_nodes):
            up, dn = u.copy(), u.copy()
            up[j] += h
            dn[j] -= h
            col = (reaction_term(spec, up)[0]
                   - reaction_term(spec, dn)[0]) / (2 * h)
            assert np.allclose(J[:, j], col, atol=1e-6)


class TestBoundary:
    def test_zero_potential_contributes_nothing(self):
        mesh = interval(4, gamma2=("right",))
        spec = make_spec(mesh)
        vec, diag = boundary_term(spec, np.ones(mesh.n_nodes))
        assert np.all(vec == 0.0) and np.all(diag == 0.0)

    def test_abs_flux_on_natural_node(self):
        mesh = interval(4, gamma2=("right",))
        spec = make_spec(mesh, bnd=boundary_potential("abs", alpha=0.3))
        u = np.ones(mesh.n_nodes)  # far from the kink relative to delta
        vec, _ = boundary_term(spec, u)
        (g2,) = mesh.gamma2_nodes
        assert vec[g2] == pytest.approx(0.3, abs=1e-15)
        assert np.count_nonzero(vec) == 1

    def test_all_dirichlet_mesh_short_circuits(self, rng):
        mesh = interval(6)
        loud = make_spec(mesh, bnd=boundary_potential("abs", alpha=5.0))
        quiet = make_spec(mesh)
        u = rng.normal(size=mesh.n_nodes)
        vec, diag = boundary_term(loud, u)
        assert np.all(vec == 0.0) and np.all(diag == 0.0)
        # both obstacles are +inf, so the penalty adds nothing either
        ra = assemble_system(loud, u).residual
        rb = assemble_system(quiet, u).residual
        assert np.array_equal(ra, rb)

    def test_directional_sum(self):
        mesh = interval(2, gamma2=("right",))
        spec = make_spec(mesh, bnd=boundary_potential("abs", alpha=0.5))
        u = np.zeros(mesh.n_nodes)  # sits at the kink
        v = np.full(mesh.n_nodes, 2.0)
        # weight 1 at the endpoint, kink rate alpha |t|
        assert clarke_directional(spec, u, v) == pytest.approx(1.0, abs=1e-14)
        vneg = -v
        assert clarke_directional(spec, u, vneg) == pytest.approx(
            1.0, abs=1e-14)

    def test_directional_bilinear_for_quadratic(self, rng):
        mesh = interval(3, gamma2=("right",))
        spec = make_spec(mesh, bnd=boundary_potential("smooth_quadratic",
                                                      alpha=2.0))
        u = rng.normal(size=mesh.n_nodes)
        v = rng.normal(size=mesh.n_nodes)
        (g2,) = mesh.gamma2_nodes
        assert clarke_directional(spec, u, v) == pytest.approx(
            2.0 * u[g2] * v[g2], rel=1e-12)

    def test_directional_zero_without_natural_part(self, rng):
        mesh = interval(4)
        spec = make_spec(mesh, bnd=boundary_potential("abs"))
        assert clarke_directional(spec, rng.normal(size=mesh.n_nodes),
                                  rng.normal(size=mesh.n_nodes)) == 0.0


class TestAssembleSystem:
    def test_unknown_mode(self):
        # the penalty is the one approximation; there is no mode to choose
        mesh = interval(4)
        spec = make_spec(mesh)
        with pytest.raises(TypeError):
            assemble_system(spec, np.zeros(mesh.n_nodes), mode="penalty")

    def test_dirichlet_rows_become_identity(self, rng):
        mesh = interval(6)
        spec = make_spec(mesh, phi=0.5)
        u = rng.normal(size=mesh.n_nodes)
        out = assemble_system(spec, u, rho=0.1)
        mask = mesh.dirichlet_mask
        assert np.array_equal(out.residual[mask], u[mask])
        J = out.jacobian.toarray()
        for i in np.flatnonzero(mask):
            row = np.zeros(mesh.n_nodes)
            row[i] = 1.0
            assert np.array_equal(J[i], row)

    def test_obstacle_term_matches_frozen_bit_for_bit(self, rng):
        # on free nodes the set's envelope gradient, its diagonal and its
        # excess are the frozen penalty and (u - phi)^+ to the bit, sign
        # included: at u = -0.0 against phi = 0, u - proj(u) reads -0.0
        # unless the excess turns that zero positive
        mesh = rectangle(6, 5, gamma2=("right",))
        free = ~mesh.dirichlet_mask
        for _ in range(6):
            phi = rng.uniform(0.0, 0.5, mesh.n_nodes)
            phi[rng.random(mesh.n_nodes) < 0.3] = 0.0
            phi[rng.random(mesh.n_nodes) < 0.3] = np.inf
            spec = dataclasses.replace(
                make_spec(mesh, react=reaction("constant", value=1.0)),
                obstacle=DiscreteFunction(mesh, phi, allow_infinite=True))
            K = spec.constraints
            u = rng.uniform(-1.0, 1.0, mesh.n_nodes)
            contact = rng.random(mesh.n_nodes) < 0.2
            u[contact] = np.where(np.isinf(phi), 0.0, phi)[contact]
            u[phi == 0.0] = -0.0
            u[mesh.dirichlet_mask] = 0.0
            assert np.any(np.signbit(u[free]) & (u[free] == 0.0))
            assert np.any(np.isinf(phi[free])) and np.any(u[free] > phi[free])
            violation = reference_plus_part(DiscreteFunction(mesh, u),
                                            spec.obstacle).values
            assert K.excess(u)[free].tobytes() == violation[free].tobytes()
            for rho in (1.0, 1e-2, 1e-7):
                vec, diag = K.envelope_grad(u, rho)
                ref_vec, ref_diag = reference_penalty_term(spec, u, rho)
                assert vec[free].tobytes() == ref_vec[free].tobytes()
                assert diag[free].tobytes() == ref_diag[free].tobytes()
                assert_same_system(assemble_system(spec, u, rho=rho),
                                   reference_assemble_system(spec, u, rho=rho))

    def test_without_jacobian(self):
        mesh = interval(4)
        spec = make_spec(mesh, phi=0.5)
        out = assemble_system(spec, np.zeros(mesh.n_nodes),
                              with_jacobian=False)
        assert out.jacobian is None
        assert isinstance(out, AssembledSystem)

    def test_eta_reported(self):
        mesh = interval(4)
        spec = make_spec(mesh, react=reaction("constant", value=3.0))
        out = assemble_system(spec, np.zeros(mesh.n_nodes))
        assert np.all(out.eta == 3.0)


class TestProblemSpecValidation:
    def test_mesh_identity_enforced(self):
        mesh = interval(4)
        other = interval(4)
        from conftest import phase
        from dpobstacle.assembly import ProblemSpec

        with pytest.raises(ConfigurationError):
            ProblemSpec(
                mesh=mesh,
                phase=phase(other, 2.0, 2.0, 0.0),
                obstacle=obstacle_fn(mesh, None),
                reaction=reaction("constant", value=0.0),
                boundary=boundary_potential("zero"),
            )
        with pytest.raises(ConfigurationError):
            ProblemSpec(
                mesh=mesh,
                phase=phase(mesh, 2.0, 2.0, 0.0),
                obstacle=obstacle_fn(other, None),
                reaction=reaction("constant", value=0.0),
                boundary=boundary_potential("zero"),
            )

    def test_obstacle_sign_checked(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            make_spec(mesh, phi=-0.5)

    def test_eps_grad_rules(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            make_spec(mesh, eps=-1e-8)
        # sub-quadratic power without a smoothing floor is rejected
        with pytest.raises(ConfigurationError):
            make_spec(mesh, p=1.5, q=2.5, mu=0.5, eps=0.0)
        spec = make_spec(mesh, p=1.5, q=2.5, mu=0.5, eps=1e-8)
        assert spec.eps_grad == 1e-8
        # left out, it is 1e-8 below exponent 2 and 0 otherwise
        assert dataclasses.replace(spec, eps_grad=None).eps_grad == 1e-8
        smooth = dataclasses.replace(make_spec(mesh, p=2.0, q=3.0), eps_grad=None)
        assert smooth.eps_grad == 0.0

    def test_least_eps_grad_below_exponent_two(self):
        # the square of the floor must not underflow to 0; a subnormal
        # square still keeps the coefficient finite
        mesh = interval(4)
        u = np.ones(mesh.n_nodes)  # zero gradient everywhere
        for eps in (1e-170, 1e-200, 1e-300):
            with pytest.raises(ConfigurationError) as err:
                make_spec(mesh, p=1.5, q=2.5, eps=eps)
            assert err.value.param == "eps_grad"
        spec = make_spec(mesh, p=1.5, q=2.5, eps=1e-160)
        assert 0 < spec.eps_grad * spec.eps_grad < np.finfo(float).tiny
        assert np.isfinite(apply_operator(spec, u, u))

    def test_rules_name_their_parameter(self):
        mesh = interval(4)
        for kwargs, param in ((dict(phi=-0.5), "obstacle"),
                              (dict(eps=-1e-8), "eps_grad"),
                              (dict(eps=float("nan")), "eps_grad"),
                              (dict(eps=float("inf")), "eps_grad"),
                              (dict(p=1.5, q=2.5, eps=float("inf")), "eps_grad"),
                              (dict(p=1.5, q=2.5, eps=0.0), "eps_grad")):
            with pytest.raises(ConfigurationError) as err:
                make_spec(mesh, **kwargs)
            assert err.value.param == param

    def test_constraint_set_is_built_once(self):
        spec = make_spec(interval(4), phi=0.25)
        assert spec.constraints is spec.constraints
        assert np.array_equal(spec.constraints.obstacle, spec.obstacle.values)
        other = dataclasses.replace(spec, obstacle=obstacle_fn(spec.mesh, 0.5))
        assert np.all(other.constraints.obstacle == 0.5)

    def test_replaced_spec_rebuilds_boundary_weights(self):
        # a spec replaced onto another mesh must not keep the boundary
        # weights derived from the old one
        react = reaction("constant", value=4.0)
        bnd = boundary_potential("abs", alpha=10.0)
        old = make_spec(interval(4, gamma2=("right",)), phi=0.1, react=react,
                        bnd=bnd)
        assert old.mesh.gamma2_weights.size == 5
        mesh = interval(8, gamma2=("right",))
        fresh = make_spec(mesh, phi=0.1, react=react, bnd=bnd)
        moved = dataclasses.replace(old, mesh=mesh, phase=fresh.phase,
                                    obstacle=fresh.obstacle)
        assert moved.mesh.gamma2_weights.size == 9
        assert np.array_equal(moved.mesh.gamma2_weights, fresh.mesh.gamma2_weights)
        cfg = SolverConfig(rho=1e-4)
        a, b = solve_penalized(moved, cfg), solve_penalized(fresh, cfg)
        assert a.converged and b.converged
        assert a.iterations == b.iterations
        assert a.solution.values.tobytes() == b.solution.values.tobytes()
        assert a.eta.tobytes() == b.eta.tobytes()


def _gate_spec(mesh, p, react, phi_inf):
    """A two-phase spec with a convective reaction, ``abs`` on gamma2 and an
    obstacle that is ``+inf`` on part of the domain when ``phi_inf``."""
    x = mesh.nodes[:, 0]
    spec = make_spec(mesh, p=p, q=p + 0.7, mu=lambda x, *_: 0.5 + 0.5 * x,
                     phi=0.05, react=react,
                     bnd=boundary_potential("abs", alpha=0.4))
    if phi_inf:
        phi = np.where(x > 0.5, np.inf, 0.05 + 0.1 * x)
        spec = dataclasses.replace(spec, obstacle=DiscreteFunction(
            mesh, phi, allow_infinite=True))
    return spec


class TestFixedPatternAssembly:
    """The cached-pattern assembly is byte for byte the scipy matrix algebra
    of ``conftest.reference_assemble_system``."""

    def test_residual_only_reaction_has_no_jacobian(self):
        mesh = rectangle(4, 3)
        spec = make_spec(mesh, react=reaction("convective_linear", c0=1.0,
                                              c1=0.5, c2=0.3))
        u = np.linspace(0.0, 1.0, mesh.n_nodes)
        vec, jac, eta = reaction_term(spec, u, with_jacobian=False)
        full = reaction_term(spec, u)
        assert jac is None
        assert vec.tobytes() == full[0].tobytes() and eta.tobytes() == full[2].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mesh_fn", PATTERN_MESHES)
    @pytest.mark.parametrize("p", [2.0, 2.5])
    @pytest.mark.parametrize("phi_inf", [False, True])
    @pytest.mark.parametrize("react", [
        reaction("convective_linear", c0=1.0, c1=-3.0, c2=0.7),
        reaction("constant", value=4.0),
    ], ids=["convective", "constant"])
    def test_system_is_the_matrix_algebra(self, mesh_fn, p, phi_inf, react):
        mesh = mesh_fn()
        spec = _gate_spec(mesh, p, react, phi_inf)
        rng = np.random.default_rng(7)
        states = [np.zeros(mesh.n_nodes), 0.3 * np.sin(3.0 * mesh.nodes[:, 0])]
        # the last scale overflows the operator blocks to inf and their sums
        # to NaN, on Dirichlet rows too
        states += [rng.uniform(-s, s, mesh.n_nodes) for s in (0.01, 0.2, 1e3, 1e300)]
        for u in states:
            for rho in (1.0, 1e-6):
                for with_jacobian, frozen in ((False, False), (True, False),
                                              (True, True)):
                    kw = dict(rho=rho, with_jacobian=with_jacobian, frozen=frozen)
                    assert_same_system(assemble_system(spec, u, **kw),
                                       reference_assemble_system(spec, u, **kw))


class TestSymmetricSystem:
    """The Dirichlet columns of the free rows are zeroed with the Dirichlet
    rows: the Jacobian is block diagonal between free and Dirichlet nodes,
    structurally symmetric, and symmetric unless the reaction reads the
    gradient."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mesh_fn", PATTERN_MESHES)
    @pytest.mark.parametrize("react", [
        reaction("constant", value=4.0),
        reaction("sign_band", slope=3.0, offset=0.5),
        reaction("convective_linear", c0=1.0, c1=-3.0, c2=0.7),
    ], ids=["constant", "sign_band", "convective"])
    def test_free_and_dirichlet_nodes_decouple(self, mesh_fn, react):
        mesh = mesh_fn()
        spec = _gate_spec(mesh, 2.5, react, phi_inf=True)
        mask = mesh.dirichlet_mask
        rng = np.random.default_rng(5)
        states = [np.zeros(mesh.n_nodes), 0.3 * np.sin(3.0 * mesh.nodes[:, 0]),
                  rng.uniform(-0.2, 0.2, mesh.n_nodes)]
        symmetric = []
        for u in states:
            for frozen in (False, True):
                J = assemble_system(spec, u, rho=1e-2, frozen=frozen).jacobian
                A = J.toarray()
                assert not np.any(A[np.ix_(~mask, mask)])
                assert np.array_equal(A[mask], np.eye(mesh.n_nodes)[mask])
                stored = J != 0.0
                assert (stored != stored.T).nnz == 0
                symmetric.append(np.array_equal(A, A.T))
        # the exact Jacobian of convective_linear holds its D_k rows, which
        # are not symmetric where the state has a gradient (not at zero)
        gradient = react.name == "convective_linear"
        assert symmetric == [True, True] + [not gradient, True] * (len(states) - 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_dirichlet_columns_are_dropped(self):
        # at this scale the operator blocks overflow to inf and their sums
        # to NaN, in the Dirichlet columns of the free rows too
        mesh = rectangle(9, 7, gamma2=("right",))
        spec = _gate_spec(mesh, 2.5, reaction("constant", value=4.0), False)
        u = np.random.default_rng(7).uniform(-1e300, 1e300, mesh.n_nodes)
        slots = mesh.block_pattern.dirichlet_column_slots
        assert not np.all(np.isfinite(operator_jacobian(spec, u).data[slots]))
        new = assemble_system(spec, u)
        mask = mesh.dirichlet_mask
        assert not np.any(new.jacobian.toarray()[np.ix_(~mask, mask)])
        assert_same_system(new, reference_assemble_system(spec, u))

