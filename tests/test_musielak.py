"""Two-power modulars, Luxemburg norms, and the unit-ball relations."""

import numpy as np
import pytest

from conftest import (
    interval,
    lumped_norm,
    phase,
    rectangle,
    reference_gradient_modular,
    reference_luxemburg,
    reference_modular_parts,
    reference_value_modular_1d,
)
from dpobstacle.errors import ConfigurationError
from dpobstacle.meshing import DiscreteFunction
from dpobstacle.musielak import (
    PhaseConfig,
    luxemburg_norm,
    modular,
    sobolev_norm,
    weighted_seminorm,
)


class TestModularValues:
    def test_constant_function_split(self):
        # f = 1, weight 0.5, powers (2, 3) on the unit interval:
        # value 1.5 = 1.0 + 0.5
        mesh = interval(4)
        cfg = phase(mesh, 2.0, 3.0, 0.5)
        f = DiscreteFunction.constant(mesh, 1.0)
        m = modular(f, cfg)
        assert m.value == pytest.approx(1.5, abs=1e-12)
        assert m.p_part == pytest.approx(1.0, abs=1e-12)
        assert m.q_part == pytest.approx(0.5, abs=1e-12)

    def test_zero_function(self):
        mesh = interval(4)
        cfg = phase(mesh, 2.0, 3.0, 0.5)
        m = modular(DiscreteFunction.constant(mesh, 0.0), cfg)
        assert m.value == 0.0
        assert m.p_part == 0.0 and m.q_part == 0.0

    def test_value_modular_against_quadrature(self, rng):
        # lumped nodal quadrature == midpoint quadrature of the piecewise
        # linear interpolant of the integrand, so a fine composite-midpoint
        # evaluation of that interpolant must agree to 1e-8 relative
        mesh = interval(15)  # 16 nodes
        cfg = phase(mesh, 2.5, 3.5, lambda x: 0.5 + 0.25 * np.sin(3 * x))
        vals = rng.uniform(-2, 2, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        m = modular(f, cfg)
        ref = reference_value_modular_1d(mesh, cfg, vals, pts=1000)
        assert m.value == pytest.approx(ref, rel=1e-8)
        p_ref, q_ref = reference_modular_parts(mesh, cfg, vals)
        assert m.p_part == pytest.approx(p_ref, rel=1e-12)
        assert m.q_part == pytest.approx(q_ref, rel=1e-12)

    def test_gradient_modular_against_quadrature(self, rng):
        mesh = interval(15)
        cfg = phase(mesh, 2.5, 3.5, lambda x: 0.5 + 0.25 * np.sin(3 * x))
        vals = rng.uniform(-2, 2, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        m = modular(f, cfg, of_gradient=True)
        ref = reference_gradient_modular(mesh, cfg, vals, pts=1000)
        assert m.value == pytest.approx(ref, rel=1e-8)

    def test_gradient_modular_quadrature_refinement_invariant(self, rng):
        # the integrand is elementwise constant, so midpoint quadrature is
        # exact at any resolution
        mesh = interval(15)
        cfg = phase(mesh, 2.5, 3.5, lambda x: 0.5 + 0.25 * np.sin(3 * x))
        vals = rng.uniform(-2, 2, mesh.n_nodes)
        coarse = reference_gradient_modular(mesh, cfg, vals, pts=10)
        fine = reference_gradient_modular(mesh, cfg, vals, pts=1000)
        assert coarse == pytest.approx(fine, rel=1e-14)

    def test_part_sum_invariant_enforced(self):
        from dpobstacle.musielak import ModularValue

        with pytest.raises(ConfigurationError):
            ModularValue(value=1.0, p_part=0.2, q_part=0.2)
        with pytest.raises(ConfigurationError):
            ModularValue(value=1.0, p_part=-0.5, q_part=1.5)

    def test_mesh_mismatch_rejected(self):
        cfg = phase(interval(4), 2.0, 3.0, 0.5)
        other = DiscreteFunction.constant(interval(5), 1.0)
        with pytest.raises(ConfigurationError):
            modular(other, cfg)

    def test_parts_are_nonnegative_for_random_inputs(self, rng):
        mesh = interval(8)
        cfg = phase(mesh, 2.0, 3.0, lambda x: x)
        for _ in range(20):
            f = DiscreteFunction(mesh, rng.normal(size=mesh.n_nodes))
            m = modular(f, cfg, of_gradient=True)
            assert m.p_part >= 0.0 and m.q_part >= 0.0


class TestLuxemburgNorm:
    def test_matches_scalar_root_finder(self, rng):
        mesh = interval(15)
        cfg = phase(mesh, 2.5, 3.5, lambda x: 0.5 + 0.25 * np.sin(3 * x))
        for _ in range(10):
            vals = rng.uniform(-2, 2, mesh.n_nodes)
            f = DiscreteFunction(mesh, vals)
            m = modular(f, cfg)
            lam = luxemburg_norm(f, cfg)
            ref = reference_luxemburg(m.p_part, m.q_part, cfg.p, cfg.q)
            assert lam == pytest.approx(ref, abs=1e-10 * (1 + ref))

    def test_unit_modular_at_norm_scaling(self, rng):
        mesh = interval(12)
        cfg = phase(mesh, 2.0, 3.0, 0.7)
        vals = rng.uniform(0.5, 1.5, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        lam = luxemburg_norm(f, cfg)
        scaled = DiscreteFunction(mesh, vals / lam)
        assert modular(scaled, cfg).value == pytest.approx(
            1.0, abs=1e-10)

    def test_reduces_to_lumped_l2_when_weight_vanishes(self, rng):
        mesh = interval(9)
        cfg = phase(mesh, 2.0, 3.0, 0.0)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        lam = luxemburg_norm(f, cfg)
        assert lam == pytest.approx(lumped_norm(mesh, vals), abs=1e-10)

    def test_zero_gives_zero(self):
        mesh = interval(4)
        cfg = phase(mesh, 2.0, 3.0, 0.5)
        f = DiscreteFunction.constant(mesh, 0.0)
        assert luxemburg_norm(f, cfg) == 0.0
        assert luxemburg_norm(f, cfg, of_gradient=True) == 0.0

    @pytest.mark.parametrize("c", [0.03, 2.7, -1.3, 17.0])
    def test_absolute_homogeneity(self, rng, c):
        mesh = interval(10)
        cfg = phase(mesh, 2.2, 3.1, 0.4)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        lam = luxemburg_norm(DiscreteFunction(mesh, vals), cfg)
        lam_c = luxemburg_norm(DiscreteFunction(mesh, c * vals), cfg)
        assert lam_c == pytest.approx(abs(c) * lam, rel=1e-9)

    def test_gradient_kind_2d(self, rng):
        mesh = rectangle(3, 3)
        cfg = phase(mesh, 2.0, 2.5, 0.3)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        lam = luxemburg_norm(f, cfg, of_gradient=True)
        scaled = DiscreteFunction(mesh, vals / lam)
        assert modular(scaled, cfg, of_gradient=True).value == pytest.approx(
            1.0, abs=1e-10)


class TestUnitBallRelations:
    """Norm/modular comparison inequalities, exercised per magnitude regime."""

    def _setup(self):
        mesh = interval(15)
        cfg = phase(mesh, 2.3, 3.4, lambda x: 0.6 + 0.3 * np.cos(2 * x))
        return mesh, cfg

    def test_unit_sphere_has_unit_modular(self, rng):
        mesh, cfg = self._setup()
        for _ in range(30):
            vals = rng.uniform(-1.5, 1.5, mesh.n_nodes)
            f = DiscreteFunction(mesh, vals)
            lam = luxemburg_norm(f, cfg)
            if lam == 0.0:
                continue
            p_ref, q_ref = reference_modular_parts(mesh, cfg, vals / lam)
            assert abs(p_ref + q_ref - 1.0) <= 1e-9

    def test_norm_and_modular_agree_on_side_of_one(self, rng):
        mesh, cfg = self._setup()
        hits = {"above": 0, "below": 0}
        for _ in range(200):
            amplitude = 10.0 ** rng.uniform(-1.5, 0.5)
            vals = amplitude * rng.uniform(-1.0, 1.0, mesh.n_nodes)
            f = DiscreteFunction(mesh, vals)
            lam = luxemburg_norm(f, cfg)
            rho = modular(f, cfg).value
            if abs(lam - 1.0) <= 1e-6:
                continue
            if lam > 1.0:
                assert rho > 1.0
                hits["above"] += 1
            else:
                assert rho < 1.0
                hits["below"] += 1
        assert min(hits.values()) >= 20

    def test_power_bounds_small_norm(self, rng):
        # norm <= 1: modular is squeezed between norm^q and norm^p
        mesh, cfg = self._setup()
        count = 0
        while count < 200:
            vals = rng.uniform(-0.4, 0.4, mesh.n_nodes)
            f = DiscreteFunction(mesh, vals)
            lam = luxemburg_norm(f, cfg)
            if not 0.0 < lam <= 1.0:
                continue
            rho = modular(f, cfg).value
            assert lam ** cfg.q - 1e-9 <= rho <= lam ** cfg.p + 1e-9
            count += 1

    def test_power_bounds_large_norm(self, rng):
        # norm >= 1: the exponent roles swap
        mesh, cfg = self._setup()
        count = 0
        while count < 200:
            vals = rng.uniform(-3.0, 3.0, mesh.n_nodes)
            f = DiscreteFunction(mesh, vals)
            lam = luxemburg_norm(f, cfg)
            if lam < 1.0:
                continue
            rho = modular(f, cfg).value
            assert lam ** cfg.p - 1e-9 <= rho <= lam ** cfg.q + 1e-9
            count += 1


class TestWeightedSeminorm:
    def test_vanishes_with_weight(self, rng):
        mesh = interval(8)
        cfg = phase(mesh, 2.0, 3.0, 0.0)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        assert weighted_seminorm(DiscreteFunction(mesh, vals), cfg) == 0.0

    def test_unit_function_unit_weight(self):
        # |Omega| = 1, weight 1, q = 3: seminorm 1
        mesh = interval(6)
        cfg = phase(mesh, 2.0, 3.0, 1.0)
        f = DiscreteFunction.constant(mesh, 1.0)
        assert weighted_seminorm(f, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_qth_power_equals_q_part(self, rng):
        mesh = interval(9)
        cfg = phase(mesh, 2.0, 3.0, lambda x: 0.2 + x)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        s = weighted_seminorm(f, cfg)
        m = modular(f, cfg)
        assert s ** cfg.q == pytest.approx(m.q_part, rel=1e-12)


class TestSobolevNorm:
    def test_sum_of_components(self, rng):
        mesh = interval(10)
        cfg = phase(mesh, 2.1, 2.9, 0.5)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        f = DiscreteFunction(mesh, vals)
        total = sobolev_norm(f, cfg)
        expected = (luxemburg_norm(f, cfg)
                    + luxemburg_norm(f, cfg, of_gradient=True))
        assert total == pytest.approx(expected, rel=1e-14)


class TestPhaseConfigValidation:
    def test_exponent_ordering(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            phase(mesh, 1.0, 2.0, 0.5)
        with pytest.raises(ConfigurationError):
            phase(mesh, 3.0, 2.0, 0.5)
        cfg = phase(mesh, 2.0, 2.0, 0.5)  # equal exponents are allowed
        assert cfg.p == cfg.q == 2.0

    @pytest.mark.parametrize("p,q,param", [
        (2.0, np.inf, "q"), (np.inf, np.inf, "q"), (np.nan, 2.0, "p"),
        (2.0, np.nan, "q"), (1.0, 2.0, "p"), (3.0, 2.0, "q"),
    ])
    def test_exponents_must_be_finite(self, p, q, param):
        with pytest.raises(ConfigurationError) as err:
            phase(interval(4), p, q, 0.5)
        assert err.value.param == param

    def test_weight_validation(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            phase(mesh, 2.0, 3.0, -0.1)
        with pytest.raises(ConfigurationError):
            PhaseConfig(mesh=mesh, p=2.0, q=3.0,
                        mu=np.zeros(mesh.n_elements + 1))
        with pytest.raises(ConfigurationError):
            PhaseConfig(mesh=mesh, p=2.0, q=3.0,
                        mu=np.full(mesh.n_elements, np.nan))

    def test_mu_node_weights_are_cached(self):
        cfg = phase(rectangle(3, 2), 2.0, 3.0, lambda x, y: 0.5 + x * y)
        assert cfg.mu_node_weights is cfg.mu_node_weights
        assert cfg.mu_node_weights.sum() == pytest.approx(
            np.dot(cfg.mesh.element_volumes, cfg.mu), rel=1e-14)

    def test_callable_weight_sampled_at_barycenters(self):
        mesh = interval(2)  # elements (0, 0.5) and (0.5, 1)
        cfg = phase(mesh, 2.0, 3.0, lambda x: x)
        assert np.allclose(cfg.mu, [0.25, 0.75], atol=1e-14)
