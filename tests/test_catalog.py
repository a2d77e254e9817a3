"""Reaction-bound catalog and boundary-potential catalog."""

import dataclasses

import numpy as np
import pytest

from conftest import reference_clarke_directional
from dpobstacle.catalog import (
    BOUNDARY_NAMES,
    REACTION_NAMES,
    SELECTION_RULES,
    ReactionSpec,
    boundary_potential,
    reaction,
)
from dpobstacle.errors import ConfigurationError

S_GRID = np.linspace(-3.0, 3.0, 41)
G_GRID = np.linspace(-2.0, 2.0, 41)[:, None]


def _probe(n=7, dim=1, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, dim))
    s = rng.uniform(-3, 3, n)
    g = rng.uniform(-2, 2, (n, dim))
    return x, s, g


class TestReactionBounds:
    @pytest.mark.parametrize("name", REACTION_NAMES)
    def test_bounds_ordered_on_grid(self, name):
        r = reaction(name)
        x = np.zeros((len(S_GRID), 1))
        for g_row in G_GRID[::8]:
            g = np.tile(g_row, (len(S_GRID), 1))
            lo, hi = r.bounds(x, S_GRID, g)
            assert np.all(lo <= hi + 1e-12)

    def test_constant(self):
        r = reaction("constant", value=2.5)
        x, s, g = _probe()
        lo, hi = r.bounds(x, s, g)
        assert np.all(lo == 2.5) and np.all(hi == 2.5)
        assert not r.state_dependent

    def test_interval(self):
        r = reaction("interval", lo=-1.0, hi=2.0)
        x, s, g = _probe()
        lo, hi = r.bounds(x, s, g)
        assert np.all(lo == -1.0) and np.all(hi == 2.0)

    def test_interval_requires_ordering(self):
        with pytest.raises(ConfigurationError):
            reaction("interval", lo=2.0, hi=1.0)

    def test_sign_band(self):
        r = reaction("sign_band", slope=1.0, offset=1.0)
        x = np.zeros((3, 1))
        g = np.zeros((3, 1))
        lo, hi = r.bounds(x, np.array([-1.0, 0.0, 2.0]), g)
        assert np.array_equal(lo, [-2.0, -1.0, -3.0])
        assert np.array_equal(hi, [2.0, 1.0, 3.0])
        assert r.state_dependent

    def test_step(self):
        r = reaction("step", lo=0.0, hi=1.0)
        x = np.zeros((3, 1))
        g = np.zeros((3, 1))
        lo, hi = r.bounds(x, np.array([-1.0, 0.0, 2.0]), g)
        assert np.array_equal(lo, [0.0, 0.0, 1.0])
        assert np.array_equal(hi, [0.0, 1.0, 1.0])

    def test_convective_linear_value(self):
        r = reaction("convective_linear", c0=1.0, c1=2.0, c2=0.5)
        x = np.zeros((2, 1))
        s = np.array([1.0, -1.0])
        g = np.array([[2.0], [-4.0]])
        lo, hi = r.bounds(x, s, g)
        expected = 1.0 - 2.0 * s + 0.5 * np.abs(g[:, 0])
        assert np.allclose(lo, expected, atol=1e-14)
        assert np.array_equal(lo, hi)

    def test_unknown_name_and_params(self):
        with pytest.raises(ConfigurationError):
            reaction("sigmoid")
        with pytest.raises(ConfigurationError):
            reaction("constant", frequency=2.0)

    @pytest.mark.parametrize("name,params", [
        ("constant", {"value": np.nan}), ("constant", {"value": np.inf}),
        ("interval", {"lo": -np.inf}), ("sign_band", {"slope": np.nan}),
        ("convective_linear", {"c2": np.inf}),
    ])
    def test_parameters_must_be_finite(self, name, params):
        (param,) = params
        with pytest.raises(ConfigurationError) as err:
            reaction(name, **params)
        assert err.value.param == param
        assert f"{param} must be finite" in str(err.value)


class TestSelection:
    def test_rules_pick_convex_combinations(self):
        x = np.zeros((1, 1))
        s = np.array([0.0])
        g = np.zeros((1, 1))
        picks = {}
        for rule in ("lower", "upper", "midpoint"):
            r = reaction("interval", lo=0.0, hi=1.0, rule=rule)
            picks[rule] = r.select(x, s, g)[0]
        assert picks["lower"] == 0.0
        assert picks["upper"] == 1.0
        assert picks["midpoint"] == 0.5
        r = reaction("interval", lo=0.0, hi=1.0, rule="blend", blend=0.25)
        assert r.select(x, s, g)[0] == 0.25

    def test_blend_needs_weight_in_range(self):
        with pytest.raises(ConfigurationError):
            reaction("interval", rule="blend")
        with pytest.raises(ConfigurationError):
            reaction("interval", rule="blend", blend=1.5)
        with pytest.raises(ConfigurationError):
            reaction("interval", rule="blend", blend=-0.25)

    def test_unknown_rule(self):
        with pytest.raises(ConfigurationError):
            reaction("interval", rule="median")

    def test_rules_exported(self):
        assert set(SELECTION_RULES) == {"lower", "upper", "midpoint", "blend"}

    @pytest.mark.parametrize("name", REACTION_NAMES)
    def test_selection_stays_in_bounds(self, name):
        r = reaction(name, rule="blend", blend=0.3)
        x, s, g = _probe(n=50, seed=7)
        lo, hi = r.bounds(x, s, g)
        eta = r.select(x, s, g)
        assert np.all(eta >= lo - 1e-14) and np.all(eta <= hi + 1e-14)


class TestSelectionPartials:
    def _fd_partials(self, r, x, s, g, h=1e-6):
        ds = (r.select(x, s + h, g) - r.select(x, s - h, g)) / (2 * h)
        dg = np.empty_like(g)
        for k in range(g.shape[1]):
            up, dn = g.copy(), g.copy()
            up[:, k] += h
            dn[:, k] -= h
            dg[:, k] = (r.select(x, s, up) - r.select(x, s, dn)) / (2 * h)
        return ds, dg

    @pytest.mark.parametrize("name,kw", [
        ("constant", {"value": 1.5}),
        ("sign_band", {"slope": 0.7, "offset": 0.4}),
        ("convective_linear", {"c0": 1.0, "c1": 2.0, "c2": 0.5}),
    ])
    def test_closed_form_partials_match_fd(self, name, kw):
        r = reaction(name, rule="blend", blend=0.3, **kw)
        x, s, g = _probe(n=30, seed=5)
        # keep state and gradient away from the sign kinks
        s = np.sign(s) * (np.abs(s) + 0.1)
        g = np.sign(g) * (np.abs(g) + 0.1)
        eta, de_ds, de_dg = r.select_with_partials(x, s, g)
        assert np.allclose(eta, r.select(x, s, g), atol=1e-14)
        fd_s, fd_g = self._fd_partials(r, x, s, g)
        assert np.allclose(de_ds, fd_s, atol=1e-5)
        assert np.allclose(de_dg, fd_g, atol=1e-5)

    def test_step_has_zero_partials(self):
        r = reaction("step")
        x, s, g = _probe(n=10)
        _, de_ds, de_dg = r.select_with_partials(x, s, g)
        assert np.all(de_ds == 0.0) and np.all(de_dg == 0.0)

    def test_every_entry_supplies_closed_form_partials(self):
        # there is no finite-difference fallback: a spec without partials
        # cannot be built, and every catalog entry's partials match FD
        r = reaction("sign_band")
        fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
                  if f.name != "_partials"}
        with pytest.raises(TypeError):
            ReactionSpec(**fields)
        x, s, g = _probe(n=20, seed=9)
        s = np.sign(s) * (np.abs(s) + 0.2)
        g = np.sign(g) * (np.abs(g) + 0.2)
        for name in REACTION_NAMES:
            r = reaction(name, rule="upper")
            _, de_ds, de_dg = r.select_with_partials(x, s, g)
            fd_s, fd_g = self._fd_partials(r, x, s, g)
            assert np.allclose(de_ds, fd_s, atol=1e-5), name
            assert np.allclose(de_dg, fd_g, atol=1e-5), name


class TestGrowthConstants:
    def test_constant_scale(self):
        g = reaction("constant", value=-3.0).growth
        assert g.c_f == 3.0 and g.g_f == 3.0
        assert g.a_f == g.b_f == g.e_f == g.d_f == 0.0
        assert g.theta3 == 1.0

    def test_sign_band_scales(self):
        g = reaction("sign_band", slope=2.0, offset=0.5).growth
        assert g.b_f == 2.0 and g.c_f == 0.5
        assert g.g_f == 2.0 + 0.25 and g.d_f == 0.25
        assert g.theta3 == 2.0

    def test_convective_scales(self):
        g = reaction("convective_linear", c0=1.0, c1=2.0, c2=0.5).growth
        assert g.a_f == 0.5 and g.b_f == 2.0 and g.c_f == 1.0
        assert g.e_f == 0.25
        assert g.g_f == 2.0 + 0.25 + 0.5
        assert g.theta2 == 2.0 and g.theta3 == 2.0

    def test_with_growth_override(self):
        r = reaction("constant", value=0.0)
        r2 = r.with_growth(e_f=2.0, theta2=2.0)
        assert r2.growth.e_f == 2.0 and r2.growth.theta2 == 2.0
        assert r2.growth.c_f == r.growth.c_f
        assert r.growth.e_f == 0.0  # original untouched


class TestBoundaryValues:
    def test_zero(self):
        b = boundary_potential("zero")
        s = np.array([-1.0, 0.0, 2.0])
        assert np.all(b.value(s) == 0.0)
        lo, hi = b.clarke_interval(s)
        assert np.all(lo == 0.0) and np.all(hi == 0.0)
        assert np.all(b.clarke_directional(s, np.full(3, 5.0)) == 0.0)
        assert b.smooth and b.quadratic
        assert b.clarke_shift_bound == 0.0

    def test_abs(self):
        b = boundary_potential("abs", alpha=0.5)
        s = np.array([-2.0, 0.0, 1.5])
        assert np.allclose(b.value(s), [1.0, 0.0, 0.75], atol=1e-15)
        lo, hi = b.clarke_interval(s)
        assert np.array_equal(lo, [-0.5, -0.5, 0.5])
        assert np.array_equal(hi, [-0.5, 0.5, 0.5])
        # directional derivative at the kink is alpha * |t|
        t = np.array([2.0, 2.0, 2.0])
        assert np.allclose(b.clarke_directional(s, t), [-1.0, 1.0, 1.0])
        t2 = np.array([-2.0, -2.0, -2.0])
        assert np.allclose(b.clarke_directional(s, t2), [1.0, 1.0, -1.0])
        assert not b.smooth and not b.quadratic
        assert b.clarke_shift_bound == 1.0
        g = b.growth
        assert g.b_j == 0.5 and g.c_j == 0.5 and g.theta1 == 1.0

    def test_smooth_quadratic(self):
        b = boundary_potential("smooth_quadratic", alpha=2.0)
        s = np.array([-1.0, 0.0, 0.5])
        assert np.allclose(b.value(s), [1.0, 0.0, 0.25], atol=1e-15)
        lo, hi = b.clarke_interval(s)
        assert np.array_equal(lo, hi)
        assert np.allclose(lo, 2.0 * s)
        # single-valued derivative: directional derivative is bilinear
        t = np.array([3.0, 3.0, 3.0])
        assert np.allclose(b.clarke_directional(s, t), 2.0 * s * t)
        assert b.smooth and b.quadratic
        g = b.growth
        assert g.a_j == 2.0 and g.c_j == 2.0 and g.theta1 == 2.0

    def test_nonconvex_well(self):
        b = boundary_potential("nonconvex_well", alpha=1.0, center=1.0)
        s = np.array([-1.0, 0.0, 0.5])
        assert np.allclose(b.value(s), [0.0, 0.5, 0.125], atol=1e-15)
        lo, hi = b.clarke_interval(s)
        assert np.array_equal(lo, [0.0, -1.0, -0.5])
        assert np.array_equal(hi, [0.0, 1.0, -0.5])
        t = np.full(3, 2.0)
        assert np.allclose(b.clarke_directional(s, t), [0.0, 2.0, -1.0])
        assert not b.smooth and not b.quadratic
        g = b.growth
        assert g.a_j == 1.0 and g.b_j == 1.0
        assert g.c_j == 1.5 and g.d_j == 0.5 and g.theta1 == 2.0

    @pytest.mark.parametrize("name,params,param", [
        ("abs", {"alpha": np.nan}, "alpha"),
        ("abs", {"alpha": np.inf}, "alpha"),
        ("nonconvex_well", {"center": np.inf}, "center"),
        ("smooth_quadratic", {"alpha": -np.inf}, "alpha"),
        ("abs", {"delta": np.inf}, "delta"),
        ("zero", {"delta": np.inf}, "delta"),
        ("smooth_quadratic", {"delta": np.nan}, "delta"),
    ])
    def test_values_must_be_finite(self, name, params, param):
        with pytest.raises(ConfigurationError) as err:
            boundary_potential(name, **params)
        assert err.value.param == param
        assert "finite" in str(err.value)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            boundary_potential("abs", alpha=-1.0)
        with pytest.raises(ConfigurationError):
            boundary_potential("nonconvex_well", center=0.0)
        with pytest.raises(ConfigurationError):
            boundary_potential("abs", beta=1.0)
        with pytest.raises(ConfigurationError):
            boundary_potential("hinge")


# one entry per catalog name, with parameters off the defaults
_POTENTIALS = {
    "zero": {},
    "abs": {"alpha": 0.3},
    "smooth_quadratic": {"alpha": 2.5},
    "nonconvex_well": {"alpha": 0.7, "center": 0.4},
}


class TestDirectionalCalculus:
    def test_every_entry_has_a_case(self):
        assert sorted(_POTENTIALS) == sorted(BOUNDARY_NAMES)

    @pytest.mark.parametrize("name", sorted(_POTENTIALS))
    def test_matches_the_frozen_formulas(self, name, rng):
        # the support function of the interval gives the values of the
        # hand-written formulas it replaces, on signed zeros, the kinks
        # (0 and the well's +-center) and random points
        b = boundary_potential(name, **_POTENTIALS[name])
        special = [0.0, -0.0, 0.4, -0.4, 1e-300, -1e-300, 3.0, -3.0]
        s_vals = np.concatenate([special, rng.uniform(-2, 2, 24)])
        t_vals = np.concatenate([special, rng.uniform(-2, 2, 24)])
        s, t = (a.ravel() for a in np.meshgrid(s_vals, t_vals))
        new = b.clarke_directional(s, t)
        ref = reference_clarke_directional(b, s, t)
        assert new.shape == ref.shape == s.shape
        assert np.array_equal(new, ref)

    @pytest.mark.parametrize("name", sorted(_POTENTIALS))
    def test_stacked_directions(self, name, rng):
        # one row of directions per probe, as ``vi_residual`` passes them
        b = boundary_potential(name, **_POTENTIALS[name])
        s = np.concatenate([[0.0, -0.0, 0.4, -0.4], rng.uniform(-2, 2, 9)])
        T = rng.uniform(-2, 2, (6, s.size))
        T[rng.random(T.shape) < 0.3] = 0.0
        T[0] = -0.0
        new = b.clarke_directional(s, T)
        assert new.shape == T.shape
        assert np.array_equal(new, reference_clarke_directional(b, s, T))
        for row, t in zip(new, T):
            assert np.array_equal(row, b.clarke_directional(s, t))

    @pytest.mark.parametrize("name", BOUNDARY_NAMES)
    def test_positive_homogeneity(self, name):
        b = boundary_potential(name)
        t = np.full_like(S_GRID, 0.37)
        base = b.clarke_directional(S_GRID, t)
        for lam in (2.0, 5.5, 0.125):
            scaled = b.clarke_directional(S_GRID, lam * t)
            assert np.allclose(scaled, lam * base, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", BOUNDARY_NAMES)
    def test_subadditive_in_direction(self, name, rng):
        b = boundary_potential(name)
        for _ in range(200):
            s = np.array([rng.uniform(-2, 2)])
            t1 = np.array([rng.uniform(-2, 2)])
            t2 = np.array([rng.uniform(-2, 2)])
            lhs = b.clarke_directional(s, t1 + t2)[0]
            rhs = (b.clarke_directional(s, t1)[0]
                   + b.clarke_directional(s, t2)[0])
            assert lhs <= rhs + 1e-12 * (1 + abs(rhs))


class TestSmoothedGradient:
    def test_abs_ramp(self):
        b = boundary_potential("abs", alpha=0.5, delta=0.1)
        s = np.array([-2.0, -0.05, 0.0, 0.05, 2.0])
        g = b.smoothed_grad(s)
        assert np.allclose(g, [-0.5, -0.25, 0.0, 0.25, 0.5], atol=1e-15)
        d = b.smoothed_grad_deriv(s)
        assert np.array_equal(d != 0.0, [False, True, True, True, False])
        assert np.allclose(d[1:4], 5.0)

    def test_smooth_entries_ignore_delta(self):
        b = boundary_potential("smooth_quadratic", alpha=2.0, delta=0.0)
        s = np.array([-1.0, 0.3])
        assert np.allclose(b.smoothed_grad(s), 2.0 * s)
        assert np.allclose(b.smoothed_grad_deriv(s), 2.0)
        z = boundary_potential("zero", delta=0.0)
        assert np.all(z.smoothed_grad(s) == 0.0)

    def test_kinked_entries_require_positive_delta(self):
        for name in ("abs", "nonconvex_well"):
            for bad in (0.0, -1e-3):
                with pytest.raises(ConfigurationError) as err:
                    boundary_potential(name, delta=bad)
                assert err.value.param == "delta"
            # a replaced potential (one continuation stage) is checked too
            with pytest.raises(ConfigurationError):
                dataclasses.replace(boundary_potential(name), delta=0.0)

    def test_nonconvex_well_interior_line(self):
        delta = 0.2
        b = boundary_potential("nonconvex_well", alpha=1.0, center=1.0, delta=delta)
        inside = np.array([-0.1, 0.0, 0.1])
        g = b.smoothed_grad(inside)
        # inner segment interpolates the two branch values at +-delta
        assert np.allclose(g, (delta - 1.0) * inside / delta, atol=1e-15)
        outside = np.array([-0.5, 0.5, 2.0])
        assert np.allclose(b.smoothed_grad(outside),
                           outside - np.sign(outside), atol=1e-15)

    @pytest.mark.parametrize("name", BOUNDARY_NAMES)
    def test_shifted_interval_membership(self, name):
        # the smoothed gradient at s lies in the generalized interval of a
        # shifted point s' with |s' - s| <= delta * shift bound
        delta = 0.1
        b = boundary_potential(name, delta=delta)
        bound = b.clarke_shift_bound * delta
        for s in np.linspace(-2.0, 2.0, 161):
            gval = b.smoothed_grad(np.array([s]))[0]
            shifts = np.linspace(s - bound, s + bound, 2001)
            if abs(s) <= bound:
                shifts = np.append(shifts, 0.0)  # hit the kink exactly
            lo, hi = b.clarke_interval(shifts)
            dist = np.maximum.reduce([lo - gval, gval - hi,
                                      np.zeros_like(lo)])
            assert dist.min() <= 1e-9


class TestDelta:
    """The smoothing ``delta`` is a field of the potential, checked there."""

    @pytest.mark.parametrize("name", BOUNDARY_NAMES)
    def test_default_and_given_delta(self, name):
        assert boundary_potential(name).delta == 1e-6
        b = boundary_potential(name, delta=0.25)
        assert b.delta == 0.25
        assert dataclasses.replace(b, delta=0.5).delta == 0.5

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    @pytest.mark.parametrize("name", BOUNDARY_NAMES)
    def test_rules_name_their_parameter(self, name, bad):
        with pytest.raises(ConfigurationError) as err:
            boundary_potential(name, delta=bad)
        assert err.value.param == "delta"
        assert "delta" in str(err.value)


class TestCatalogListings:
    def test_names_sorted_and_complete(self):
        assert REACTION_NAMES == tuple(sorted(REACTION_NAMES))
        assert set(REACTION_NAMES) == {
            "constant", "convective_linear", "interval", "sign_band", "step"}
        assert set(BOUNDARY_NAMES) == {
            "abs", "nonconvex_well", "smooth_quadratic", "zero"}
