"""Damped semismooth Newton solver, continuation, inequality residual."""

import dataclasses

import numpy as np
import pytest

from conftest import interval, make_spec
from dpobstacle.assembly import constraint_set
from dpobstacle.catalog import reaction
from dpobstacle.errors import ConfigurationError
from dpobstacle.solver import (
    SolveReport,
    SolverConfig,
    continuation,
    solve_penalized,
    vi_residual,
)


def _poisson_spec(n=64, source=1.0, phi=None):
    mesh = interval(n)
    return make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=phi,
                     react=reaction("constant", value=source))


class TestNewtonSolve:
    def test_poisson_matches_exact_solution(self):
        # -u'' = 1 with zero boundary values: u = x(1-x)/2
        spec = _poisson_spec(64)
        report = solve_penalized(spec, SolverConfig())
        assert report.converged
        x = spec.mesh.nodes[:, 0]
        exact = 0.5 * x * (1.0 - x)
        assert np.max(np.abs(report.solution.values - exact)) <= 1e-3

    def test_contact_overshoot_scales_with_rho(self):
        # cap 0.1 pressed by a unit source: the overshoot above the cap is
        # O(rho) and stays below 5e-6 at rho = 1e-6
        spec = _poisson_spec(64, phi=0.1)
        cfg = SolverConfig(rho=1e-6)
        report = solve_penalized(spec, cfg)
        assert report.converged
        assert report.solution.values.max() <= 0.1 + 5e-6
        assert report.obstacle_violation_sup <= 5e-6

    def test_zero_problem_is_immediate(self):
        spec = _poisson_spec(16, source=0.0)
        report = solve_penalized(spec, SolverConfig())
        assert report.converged
        assert report.iterations <= 2
        assert np.max(np.abs(report.solution.values)) <= 1e-12

    def test_dirichlet_values_exact(self):
        spec = _poisson_spec(32, phi=0.05)
        report = solve_penalized(spec, SolverConfig(rho=1e-4))
        mask = spec.mesh.dirichlet_mask
        assert np.all(report.solution.values[mask] == 0.0)

    def test_budget_exhaustion_reports_not_raises(self):
        mesh = interval(32)
        spec = make_spec(mesh, p=2.5, q=3.0, mu=lambda x: x, phi=0.05,
                         react=reaction("constant", value=1.0), eps=1e-8)
        cfg = SolverConfig(rho=1e-8, max_newton=1)
        report = solve_penalized(spec, cfg)
        assert isinstance(report, SolveReport)
        assert not report.converged
        assert report.iterations == 1

    def test_trace_monotone_over_accepted_steps(self):
        mesh = interval(32)
        spec = make_spec(mesh, p=2.5, q=3.0, mu=lambda x: x, phi=0.05,
                         react=reaction("constant", value=1.0), eps=1e-8)
        report = solve_penalized(spec, SolverConfig(rho=1e-4))
        assert report.converged
        norms = [t.residual_norm for t in report.iteration_trace]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_effective_tol_floor_grows_as_rho_shrinks(self):
        spec = _poisson_spec(32, phi=0.1)
        loose = solve_penalized(spec, SolverConfig(rho=1e-2))
        tight = solve_penalized(spec, SolverConfig(rho=1e-12))
        assert loose.effective_tol == pytest.approx(1e-10)
        assert tight.effective_tol > 1e-10

    def test_singular_jacobian_regularized_and_noted(self):
        # one free node whose reaction slope exactly cancels the stiffness
        # diagonal: the first linear solve is singular and gets lifted
        mesh = interval(2)
        c1 = -(2.0 / 0.5) / 0.5  # stiffness diag 2/h, lumped weight 1/2
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0,
                         react=reaction("convective_linear", c0=1.0, c1=c1,
                                        c2=0.0))
        report = solve_penalized(spec, SolverConfig(max_newton=8))
        notes = " ".join(t.note for t in report.iteration_trace)
        assert "regularized" in notes

    def test_determinism(self):
        mesh = interval(48)
        spec = make_spec(mesh, p=2.2, q=2.8, mu=lambda x: x, phi=0.05,
                         react=reaction("constant", value=1.0), eps=1e-8)
        a = solve_penalized(spec, SolverConfig(rho=1e-6))
        b = solve_penalized(spec, SolverConfig(rho=1e-6))
        assert np.array_equal(a.solution.values, b.solution.values)
        assert a.iterations == b.iterations

    def test_penalty_and_envelope_modes_agree(self):
        # "moreau_yosida" is an alias of "penalty" that the report echoes
        spec = _poisson_spec(32, phi=0.1)
        pen = solve_penalized(spec, SolverConfig(rho=1e-6, mode="penalty"))
        env = solve_penalized(spec, SolverConfig(rho=1e-6, mode="moreau_yosida"))
        assert np.array_equal(pen.solution.values, env.solution.values)
        assert pen.iterations == env.iterations
        assert pen.residual_norm == env.residual_norm
        assert pen.mode == "penalty"
        assert env.mode == "moreau_yosida"

    def test_unknown_mode_rejected(self):
        spec = _poisson_spec(8)
        with pytest.raises(ConfigurationError):
            solve_penalized(spec, SolverConfig(mode="primal_dual"))


class TestContinuation:
    def _contact_spec(self):
        return _poisson_spec(32, phi=0.02)

    def test_violation_non_increasing(self):
        spec = self._contact_spec()
        reports = continuation(spec, [1.0, 0.1, 0.01], SolverConfig())
        assert len(reports) == 3
        sups = [r.obstacle_violation_sup for r in reports]
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))

    def test_singleton_schedule_equals_direct_solve(self):
        spec = self._contact_spec()
        (via_schedule,) = continuation(spec, [1e-4], SolverConfig())
        direct = solve_penalized(spec, SolverConfig(rho=1e-4))
        assert np.array_equal(via_schedule.solution.values,
                              direct.solution.values)

    @pytest.mark.parametrize("bad", [
        [],
        [0.1, 1.0],
        [1.0, 1.0],
        [1.0, 0.0],
        [1.0, -0.1],
    ])
    def test_schedule_validation(self, bad):
        spec = self._contact_spec()
        with pytest.raises(ConfigurationError):
            continuation(spec, bad, SolverConfig())

    def test_abort_returns_partial_list(self):
        mesh = interval(32)
        spec = make_spec(mesh, p=2.5, q=3.0, mu=lambda x: x, phi=0.02,
                         react=reaction("constant", value=1.0), eps=1e-8)
        cfg = SolverConfig(max_newton=1, picard_fallback=False)
        reports = continuation(spec, [1.0, 0.1, 0.01], cfg)
        assert 1 <= len(reports) <= 3
        assert not reports[-1].converged


class TestInequalityResidual:
    def _solved_contact(self):
        # cold starts stall at extreme penalty strengths, so reach 1e-10
        # the intended way: warm-started continuation
        spec = _poisson_spec(64, phi=0.02)
        schedule = [10.0 ** -k for k in range(11)]
        report = continuation(spec, schedule, SolverConfig())[-1]
        assert report.converged
        K = constraint_set(spec)
        u = K.project_values(report.solution.values)
        return spec, K, u, report.eta

    def test_zero_at_the_candidate_itself(self):
        spec, K, u, eta = self._solved_contact()
        assert vi_residual(spec, u, eta, [u]) == 0.0

    def test_nonnegative_at_solution_with_probe_cloud(self):
        spec, K, u, eta = self._solved_contact()
        rng = np.random.default_rng(5)
        probes = [u]
        for i in np.flatnonzero(~spec.mesh.dirichlet_mask):
            for sgn in (+1.0, -1.0):
                v = u.copy()
                v[i] += sgn * 0.01
                probes.append(K.project_values(v))
        for _ in range(32):
            probes.append(K.project_values(
                u + 0.01 * rng.normal(size=len(u))))
        assert vi_residual(spec, u, eta, probes) >= -1e-9

    def test_detects_displaced_candidate(self):
        spec, K, u, eta = self._solved_contact()
        bad = u.copy()
        free = np.flatnonzero(~spec.mesh.dirichlet_mask)
        bad[free[len(free) // 2]] -= 0.1
        bad = K.project_values(bad)
        probes = [u]  # the true solution exposes the displaced point
        assert vi_residual(spec, bad, eta, probes) < -1e-3

    def test_probes_must_be_feasible(self):
        spec, K, u, eta = self._solved_contact()
        outside = u + 1.0  # violates the cap and the pinned nodes
        with pytest.raises(ConfigurationError):
            vi_residual(spec, u, eta, [outside])

    def test_empty_probe_list_rejected(self):
        spec, K, u, eta = self._solved_contact()
        with pytest.raises(ConfigurationError):
            vi_residual(spec, u, eta, [])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.rho == 1.0
        assert cfg.mode == "penalty"
        assert cfg.newton_tol == 1e-10
        assert cfg.picard_fallback

    def test_frozen_dataclass_replace(self):
        cfg = SolverConfig()
        cfg2 = dataclasses.replace(cfg, rho=0.5)
        assert cfg2.rho == 0.5 and cfg.rho == 1.0
