"""Feasible-set projection, quadratic envelope, excess over the set."""

import numpy as np
import pytest

from conftest import interval, obstacle_fn
from dpobstacle.errors import ConfigurationError
from dpobstacle.nonsmooth import ConstraintSet


def _free_set(mesh, phi):
    """Constraint set with the given cap and no pinned nodes."""
    return ConstraintSet(mesh, np.asarray(phi, dtype=float),
                         np.zeros(mesh.n_nodes, dtype=bool))


class TestProjection:
    def test_componentwise_clip(self):
        mesh = interval(1)  # two nodes
        K = _free_set(mesh, [1.0, 1.0])
        out = K.project_values(np.array([2.0, 0.5]))
        assert np.array_equal(out, [1.0, 0.5])

    def test_idempotent(self, rng):
        mesh = interval(6)
        K = _free_set(mesh, rng.uniform(0.2, 1.5, mesh.n_nodes))
        u = rng.uniform(-2, 2, mesh.n_nodes)
        once = K.project_values(u)
        assert np.array_equal(K.project_values(once), once)

    def test_members_fixed(self, rng):
        mesh = interval(6)
        phi = rng.uniform(0.2, 1.5, mesh.n_nodes)
        K = _free_set(mesh, phi)
        u = np.minimum(rng.uniform(-2, 2, mesh.n_nodes), phi)
        assert np.array_equal(K.project_values(u), u)
        assert K.contains(u)

    def test_pinned_nodes_forced_to_zero(self):
        mesh = interval(4)  # both endpoints pinned by default
        K = ConstraintSet.from_problem(
            mesh, obstacle_fn(mesh, 0.5).values)
        out = K.project_values(np.full(mesh.n_nodes, 2.0))
        assert out[0] == 0.0 and out[-1] == 0.0
        assert np.all(out[1:-1] == 0.5)

    def test_nearest_point_certificate(self, rng):
        # the clip is the nearest feasible point in the lumped metric:
        # no random feasible competitor comes closer
        mesh = interval(9)
        phi = rng.uniform(0.1, 1.0, mesh.n_nodes)
        K = _free_set(mesh, phi)
        w = mesh.node_volume_weights
        u = rng.uniform(-2, 2, mesh.n_nodes)
        pu = K.project_values(u)
        d0 = np.dot(w, (u - pu) ** 2)
        for _ in range(1000):
            v = K.project_values(rng.uniform(-3, 3, mesh.n_nodes))
            assert np.dot(w, (u - v) ** 2) >= d0 - 1e-15

    def test_projection_is_nonexpansive(self, rng):
        mesh = interval(9)
        K = _free_set(mesh, rng.uniform(0.1, 1.0, mesh.n_nodes))
        w = mesh.node_volume_weights
        for _ in range(200):
            u = rng.uniform(-3, 3, mesh.n_nodes)
            v = rng.uniform(-3, 3, mesh.n_nodes)
            du = np.dot(w, (K.project_values(u) - K.project_values(v)) ** 2)
            assert du <= np.dot(w, (u - v) ** 2) + 1e-15

    def test_infinite_cap_means_no_clipping(self):
        mesh = interval(4)
        K = _free_set(mesh, np.full(mesh.n_nodes, np.inf))
        u = np.linspace(-5, 5, mesh.n_nodes)
        assert np.array_equal(K.project_values(u), u)


class TestContains:
    def test_tolerance_band(self):
        mesh = interval(3)
        K = _free_set(mesh, np.ones(mesh.n_nodes))
        u = np.full(mesh.n_nodes, 1.0 + 1e-9)
        assert not K.contains(u)
        assert K.contains(u, tol=1e-8)

    def test_pinned_nodes_must_vanish(self):
        mesh = interval(3)
        mask = np.zeros(mesh.n_nodes, dtype=bool)
        mask[0] = True
        K = ConstraintSet(mesh, np.full(mesh.n_nodes, np.inf), mask)
        u = np.zeros(mesh.n_nodes)
        assert K.contains(u)
        u[0] = 1e-6
        assert not K.contains(u)


class TestStacks:
    """``contains`` and ``project_values`` on a stack of rows against a loop
    over the rows."""

    def _mixed_set(self, rng):
        # finite and +inf obstacle entries, both endpoints pinned
        mesh = interval(8)
        phi = rng.uniform(0.1, 1.0, mesh.n_nodes)
        phi[[2, 5]] = np.inf
        return ConstraintSet.from_problem(mesh, phi)

    def _stack(self, K, rng, rows=12):
        S = K.project_values(rng.uniform(-2, 2, (rows, K.mesh.n_nodes)))
        S[3, 4] = K.obstacle[4] + 1e-9  # above the cap, inside tol=1e-8
        S[5, 2] = 1e300  # an unconstrained node takes any value
        S[7, 0] = 1e-6  # a pinned node off zero
        S[9, 6] = K.obstacle[6] + 0.5  # above the cap
        return S

    @pytest.mark.parametrize("tol", [0.0, 1e-8])
    def test_contains_row_by_row(self, rng, tol):
        K = self._mixed_set(rng)
        S = self._stack(K, rng)
        inside = K.contains(S, tol=tol)
        assert inside.shape == (len(S),) and inside.dtype == bool
        assert inside.tolist() == [K.contains(row, tol=tol) for row in S]
        assert inside.tolist().count(False) == (3 if tol == 0.0 else 2)
        nested = S.reshape(3, 4, -1)
        assert np.array_equal(K.contains(nested, tol=tol), inside.reshape(3, 4))

    def test_one_bad_row(self, rng):
        K = self._mixed_set(rng)
        S = K.project_values(rng.uniform(-2, 2, (64, K.mesh.n_nodes)))
        assert np.all(K.contains(S))
        S[-1, 0] = 1e-3  # the last row leaves the set at a pinned node
        inside = K.contains(S, tol=1e-12)
        assert np.flatnonzero(~inside).tolist() == [63]

    def test_project_row_by_row(self, rng):
        K = self._mixed_set(rng)
        S = rng.uniform(-2, 2, (12, K.mesh.n_nodes))
        S[:, 2] = 1e300
        kept = S.copy()
        loop = np.array([K.project_values(row) for row in S])
        out = K.project_values(S)
        assert out.tobytes() == loop.tobytes()
        assert S.tobytes() == kept.tobytes()  # the input is not modified
        assert np.all(out[:, 2] == 1e300)
        assert np.all(out[:, K.dirichlet_mask] == 0.0)

    def test_one_vector_unchanged(self, rng):
        K = self._mixed_set(rng)
        u = rng.uniform(-2, 2, K.mesh.n_nodes)
        assert type(K.contains(u)) is bool and K.contains(u) is False
        assert K.contains(K.project_values(u)) is True
        out = K.project_values(u.tolist())
        assert out.shape == u.shape
        assert out.tobytes() == np.where(K.dirichlet_mask, 0.0,
                                         np.minimum(u, K.obstacle)).tobytes()


class TestEnvelope:
    def _middle_node_setup(self):
        # nodes 0, 1, 2; lumped weights [0.5, 1.0, 0.5]; only the middle
        # node is free
        mesh = interval(2, a=0.0, b=2.0)
        K = ConstraintSet.from_problem(mesh, np.ones(mesh.n_nodes))
        return mesh, K

    def test_single_active_node_value_and_grad(self):
        mesh, K = self._middle_node_setup()
        u = np.array([0.0, 3.0, 0.0])
        # excess 2 at weight 1, eps 0.5: value (1/(2*0.5)) * 1 * 2^2 = 4
        assert K.envelope_value(u, eps=0.5) == pytest.approx(4.0, abs=1e-14)
        grad, diag = K.envelope_grad(u, eps=0.5)
        assert np.allclose(grad, [0.0, 4.0, 0.0], atol=1e-14)
        # the Newton derivative: w / eps on the active node only
        assert np.array_equal(diag, [0.0, 2.0, 0.0])

    def test_zero_inside_the_set(self, rng):
        mesh = interval(7)
        phi = rng.uniform(0.2, 1.0, mesh.n_nodes)
        K = ConstraintSet.from_problem(mesh, phi)
        u = K.project_values(rng.uniform(-2, 2, mesh.n_nodes))
        assert K.envelope_value(u, eps=0.3) == 0.0
        grad, diag = K.envelope_grad(u, eps=0.3)
        assert np.all(grad[~K.dirichlet_mask] == 0.0)
        assert np.all(diag == 0.0)

    def test_projection_has_zero_value_for_every_eps(self, rng):
        mesh = interval(7)
        K = ConstraintSet.from_problem(mesh, rng.uniform(0.2, 1.0,
                                                         mesh.n_nodes))
        v = K.project_values(rng.uniform(-2, 2, mesh.n_nodes))
        for eps in (1.0, 1e-2, 1e-4, 1e-8):
            assert K.envelope_value(v, eps) == 0.0

    def test_eps_scaling_of_value(self, rng):
        # eps * value is half the squared lumped distance to the cap,
        # independent of eps
        mesh = interval(7)
        phi = rng.uniform(0.2, 1.0, mesh.n_nodes)
        mask = np.zeros(mesh.n_nodes, dtype=bool)
        K = ConstraintSet(mesh, phi, mask)
        u = rng.uniform(-2, 2, mesh.n_nodes)
        w = mesh.node_volume_weights
        half_dist_sq = 0.5 * np.dot(w, np.maximum(u - phi, 0.0) ** 2)
        for eps in (1.0, 0.1, 1e-3, 1e-6):
            assert K.envelope_value(u, eps) * eps == pytest.approx(
                half_dist_sq, rel=1e-14)

    def test_grad_matches_finite_differences(self, rng):
        mesh = interval(9)
        phi = rng.uniform(0.2, 1.0, mesh.n_nodes)
        K = ConstraintSet(mesh, phi, np.zeros(mesh.n_nodes, dtype=bool))
        eps = 0.2
        u = rng.uniform(-2, 2, mesh.n_nodes)
        # keep all nodes away from the kink so central differences converge
        near = np.abs(u - phi) < 0.05
        u[near] = phi[near] + 0.1
        g, diag = K.envelope_grad(u, eps)
        h = 1e-6
        for i in range(mesh.n_nodes):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (K.envelope_value(up, eps) - K.envelope_value(dn, eps)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-5 * (1 + abs(fd)))
            # and the diagonal is the derivative of the gradient
            dg = (K.envelope_grad(up, eps)[0][i]
                  - K.envelope_grad(dn, eps)[0][i]) / (2 * h)
            assert diag[i] == pytest.approx(dg, rel=1e-6)

    def test_grad_is_monotone(self, rng):
        mesh = interval(9)
        K = ConstraintSet(mesh, rng.uniform(0.2, 1.0, mesh.n_nodes),
                          np.zeros(mesh.n_nodes, dtype=bool))
        for eps in (1.0, 1e-2):
            for _ in range(100):
                u = rng.uniform(-2, 2, mesh.n_nodes)
                v = rng.uniform(-2, 2, mesh.n_nodes)
                gap = np.dot(K.envelope_grad(u, eps)[0]
                             - K.envelope_grad(v, eps)[0], u - v)
                assert gap >= -1e-12

    def test_positive_eps_required(self):
        mesh, K = self._middle_node_setup()
        u = np.zeros(mesh.n_nodes)
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                K.envelope_value(u, bad)
            with pytest.raises(ConfigurationError):
                K.envelope_grad(u, bad)


class TestExcess:
    def test_below_cap_is_zero(self):
        mesh = interval(4)
        K = _free_set(mesh, obstacle_fn(mesh, 0.5).values)
        assert np.all(K.excess(np.full(mesh.n_nodes, 0.3)) == 0.0)

    def test_unit_excess(self):
        mesh = interval(4)
        K = _free_set(mesh, obstacle_fn(mesh, 0.5).values)
        assert np.all(K.excess(np.full(mesh.n_nodes, 1.5)) == 1.0)

    def test_infinite_cap_contributes_nothing(self):
        mesh = interval(4)
        K = _free_set(mesh, obstacle_fn(mesh, None).values)  # +inf everywhere
        assert np.all(K.excess(np.full(mesh.n_nodes, 100.0)) == 0.0)

    def test_array_cap_and_monotonicity(self, rng):
        mesh = interval(6)
        cap = rng.uniform(0.0, 1.0, mesh.n_nodes)
        K = _free_set(mesh, cap)
        u = rng.uniform(-1, 2, mesh.n_nodes)
        v = u + rng.uniform(0.0, 1.0, mesh.n_nodes)
        pu, pv = K.excess(u), K.excess(v)
        assert np.all(pv >= pu)
        assert np.all(pu == np.maximum(u - cap, 0.0))

    def test_pinned_nodes_measure_their_distance_to_zero(self, rng):
        mesh = interval(6)
        K = ConstraintSet.from_problem(mesh, np.full(mesh.n_nodes, 0.5))
        u = rng.uniform(-1, 2, mesh.n_nodes)
        out = K.excess(u)
        assert np.array_equal(out[K.dirichlet_mask], u[K.dirichlet_mask])
        assert np.array_equal(out[~K.dirichlet_mask],
                              np.maximum(u - 0.5, 0.0)[~K.dirichlet_mask])


class TestValidation:
    def test_obstacle_must_be_admissible(self):
        mesh = interval(4)
        mask = np.zeros(mesh.n_nodes, dtype=bool)
        for bad in (-0.5, np.nan, -np.inf):
            with pytest.raises(ConfigurationError) as err:
                ConstraintSet(mesh, np.full(mesh.n_nodes, bad), mask)
            assert err.value.param == "obstacle"

    def test_shape_checked(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            ConstraintSet(mesh, np.ones(mesh.n_nodes + 1),
                          np.zeros(mesh.n_nodes, dtype=bool))
