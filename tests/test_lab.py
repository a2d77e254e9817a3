"""Solution-set sampling, set-convergence study, reference oracle,
hypothesis checks."""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    interval,
    make_spec,
    rectangle,
    reference_ascent_ratio,
    reference_sample,
    reference_study_candidates,
)
from dpobstacle import lab, solver
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.errors import (
    ConfigurationError,
    EmptySampleError,
    OracleFailure,
)
from dpobstacle.lab import (
    kuratowski_study,
    nearest_point_trace,
    qp_oracle,
    validate_hypotheses,
)
from dpobstacle.meshing import DiscreteFunction
from dpobstacle.musielak import luxemburg_norm
from dpobstacle.solver import SolverConfig, solve_penalized, vi_residual

SCHEDULE = [10.0 ** -k for k in range(11)]


def _contact_spec(n=64, source=8.0, phi=0.5):
    mesh = interval(n)
    return make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=phi,
                     react=reaction("constant", value=source))


def _interval_load_spec(n=24):
    # a genuinely multivalued load: each selection rule is its own problem
    return make_spec(interval(n), p=2.0, q=2.0, mu=0.0, phi=0.3,
                     react=reaction("interval", lo=0.5, hi=12.0))


def _energy_distance(spec, diff):
    f = DiscreteFunction(spec.mesh, diff)
    return (luxemburg_norm(f, spec.phase, of_gradient=False)
            + luxemburg_norm(f, spec.phase, of_gradient=True))


def _assert_same_sample(a, b):
    """Bitwise equality of two samples, member by member."""
    assert a.rho.hex() == b.rho.hex()
    assert len(a.members) == len(b.members)
    for m, k in zip(a.members, b.members):
        assert (m.rule, m.start) == (k.rule, k.start)
        assert m.solution.values.tobytes() == k.solution.values.tobytes()
        assert m.eta.tobytes() == k.eta.tobytes()
        assert m.report.iteration_trace == k.report.iteration_trace
        for name in ("residual_norm", "effective_tol", "rho",
                     "obstacle_violation_sup", "obstacle_violation_l1"):
            assert getattr(m.report, name).hex() == getattr(k.report, name).hex()
        assert m.report.iterations == k.report.iterations


def _first_stage(spec, rho, cfg=SolverConfig(), **kw):
    """The sample of a one-stage study at ``rho``."""
    return kuratowski_study(spec, [rho], cfg, **kw).samples[0]


class TestSampling:
    """Sampling one approximate problem is a one-stage study."""

    def test_convex_problem_has_singleton_set(self):
        spec = _contact_spec(32, source=1.0, phi=0.05)
        sample = _first_stage(spec, 1e-6, n_starts=3, seed=1)
        assert len(sample.members) == 1

    def test_zero_problem_single_start(self):
        spec = _contact_spec(16, source=0.0)
        sample = _first_stage(spec, 1.0, n_starts=1, seed=0)
        assert len(sample.members) == 1
        assert np.max(np.abs(sample.members[0].solution.values)) <= 1e-10

    def test_dedup_collapses_identical_solves(self):
        spec = _contact_spec(16, source=1.0, phi=0.1)
        tight = _first_stage(spec, 1e-4, n_starts=6, seed=2, dedup_tol=1e-6)
        assert len(tight.members) == 1

    def test_selection_rules_multiply_the_sweep(self):
        mesh = interval(16)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0,
                         react=reaction("interval", lo=0.0, hi=1.0))
        sample = _first_stage(spec, 1.0, n_starts=2, seed=3,
                              selection_rules=["lower", "upper", ("blend", 0.5)])
        # distinct selections give distinct linear problems: 3 members
        assert len(sample.members) == 3
        rules = {m.rule for m in sample.members}
        assert rules == {"lower", "upper", "blend(0.5)"}

    def test_all_failures_raise_empty_sample(self):
        mesh = interval(32)
        spec = make_spec(mesh, p=2.5, q=3.0, mu=lambda x: x, phi=0.05,
                         react=reaction("constant", value=1.0), eps=1e-8)
        with pytest.raises(EmptySampleError):
            _first_stage(spec, 1e-8, SolverConfig(max_newton=1), n_starts=2, seed=0)

    def test_threads_do_not_change_the_sample(self):
        spec = _interval_load_spec()
        kw = dict(n_starts=2, seed=2, selection_rules=["upper", "lower"])
        one = _first_stage(spec, 1e-3, threads=1, **kw)
        two = _first_stage(spec, 1e-3, threads=2, **kw)
        assert len(one.members) == 2
        _assert_same_sample(one, two)

    @pytest.mark.parametrize("case", ["interval-load", "contact", "rect-2d"])
    def test_stage_zero_is_the_reference_sample(self, case):
        # stage 0 of a multi-stage study against the sampler it replaced:
        # one solve per chain at schedule[0], deduplicated in chain order
        spec, schedule, threads, kw = {
            "interval-load": (
                _interval_load_spec(), [1e-2, 1e-3], 2,
                dict(n_starts=2, seed=5, selection_rules=["upper", "midpoint"])),
            "contact": (
                _contact_spec(32, source=1.0, phi=0.05), [1e-3, 1e-4, 1e-5], 1,
                dict(n_starts=4, seed=1, dedup_tol=1e-5)),
            "rect-2d": (
                make_spec(rectangle(6, 6, gamma2=("right",)), p=2.5, q=3.0,
                          mu=lambda x, y: 0.5 + 0.5 * x, phi=0.05,
                          react=reaction("interval", lo=1.0, hi=6.0),
                          bnd=boundary_potential("abs", alpha=0.1)),
                [1.0, 1e-1], 2,
                dict(n_starts=2, seed=3,
                     selection_rules=["lower", "upper", ("blend", 0.25)])),
        }[case]
        diag = kuratowski_study(spec, schedule, SolverConfig(), threads=threads, **kw)
        ref = reference_sample(spec, schedule, SolverConfig(), **kw)
        assert ref.members
        _assert_same_sample(diag.samples[0], ref)


class TestKuratowskiStudy:
    def test_unconstrained_chain_is_constant(self):
        # without an obstacle the staged problems coincide, so every chain
        # step has length exactly zero
        mesh = interval(16)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0,
                         react=reaction("constant", value=1.0))
        diag = kuratowski_study(spec, [1.0, 0.1, 0.01], SolverConfig(),
                                n_starts=1, seed=0, cauchy_window=2)
        assert diag.candidates
        for cand in diag.candidates:
            assert all(d == 0.0 for d in cand.step_distances)
        finite = [d for d in diag.chain_distances if not np.isnan(d)]
        assert all(d == 0.0 for d in finite)

    def test_contact_chain_certifies_candidate(self):
        spec = _contact_spec()
        diag = kuratowski_study(spec, SCHEDULE, SolverConfig(),
                                n_starts=2, seed=0)
        assert diag.candidates, "no limit candidate found"
        cand = diag.candidates[0]
        assert cand.vi_value >= -1e-8
        oracle = qp_oracle(spec, mode="projected_gradient")
        gap = np.max(np.abs(cand.solution.values - oracle.values))
        assert gap <= 1e-6
        assert cand.probe_count == 1 + 2 * spec.mesh.n_nodes + 32

    @pytest.mark.parametrize("last,delta", [(8, 1e-6), (6, 1e-6), (8, 1e-4)])
    def test_limit_pinned_at_a_kink_is_certified(self, last, delta, monkeypatch):
        # alpha = 10 pins the trace of the 1D abs case at the kink, inside the
        # last stage's smoothing band (flux 0.895 = alpha s / delta): the
        # certificate takes that trace as 0 and accepts the limit (-0.026 with
        # the one-sided j° at the trace itself).  The trace scales with the
        # last stage's delta, 1e-14 to 1e-10 here, not with the float spacing
        spec = make_spec(interval(64, gamma2=("right",)), phi=0.1,
                         react=reaction("constant", value=4.0),
                         bnd=boundary_potential("abs", alpha=10.0, delta=delta))
        schedule = [10.0 ** -k for k in range(last + 1)]
        used = []

        def recorded(cert_spec, *args):
            used.append(cert_spec.boundary.delta)
            return vi_residual(cert_spec, *args)

        monkeypatch.setattr(lab, "vi_residual", recorded)
        diag = kuratowski_study(spec, schedule, SolverConfig(), n_starts=2, seed=0)
        (cand,) = diag.candidates
        # certified with the smoothing of the last stage, which solved it
        band = solver.stages(spec, schedule, SolverConfig())[-1][0].boundary.delta
        assert used == [band]
        assert 1e-3 * band < abs(cand.solution.values[-1]) < band
        # what is left is the penalty's own error, about 0.048 rho
        assert -0.1 * schedule[-1] <= cand.vi_value < 0

    def test_threads_do_not_change_the_study(self):
        # max_newton=3 aborts the upper and midpoint chains at 1e-4, so the
        # stage samples shrink and only the lower chains stay complete
        spec = _interval_load_spec(48)
        schedule = [1.0, 0.1, 0.01, 1e-4, 1e-6, 1e-9]
        kw = dict(n_starts=3, seed=2, cauchy_window=2,
                  selection_rules=["upper", "lower", "midpoint"])
        one = kuratowski_study(spec, schedule, SolverConfig(max_newton=3),
                               threads=1, **kw)
        two = kuratowski_study(spec, schedule, SolverConfig(max_newton=3),
                               threads=2, **kw)
        assert [len(s.members) for s in one.samples] == [3, 3, 3, 1, 1, 1]
        for a, b in zip(one.samples, two.samples):
            _assert_same_sample(a, b)
        assert np.array_equal(one.chain_distances, two.chain_distances,
                              equal_nan=True)
        # the chain distances follow the principal candidate's chain, not the
        # first chain (which aborts)
        cand = one.candidates[0]
        for n in range(len(schedule) - 1):
            nxt = next(m.solution.values for m in one.samples[n + 1].members
                       if (m.rule, m.start) == (cand.rule, cand.start))
            assert one.chain_distances[n] == min(
                _energy_distance(spec, nxt - m.solution.values)
                for m in one.samples[n].members)
        assert len(one.candidates) == len(two.candidates)
        for a, b in zip(one.candidates, two.candidates):
            assert (a.rule, a.start) == (b.rule, b.start) == ("lower", a.start)
            assert np.array_equal(a.solution.values, b.solution.values)
            assert np.array_equal(a.eta, b.eta)
            assert a.step_distances == b.step_distances
            assert a.vi_value == b.vi_value

    def test_certifies_each_distinct_limit_once(self, monkeypatch):
        # three starts per rule reach one limit per rule: six Cauchy chains,
        # two distinct candidates
        spec = _interval_load_spec()
        schedule = [10.0 ** -k for k in range(7)]
        kw = dict(n_starts=3, selection_rules=["lower", "upper"], seed=4)
        calls = []
        real = lab.vi_residual

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lab, "vi_residual", counted)
        diag = kuratowski_study(spec, schedule, SolverConfig(), **kw)
        ref, certified = reference_study_candidates(spec, schedule,
                                                    SolverConfig(), **kw)
        assert len(calls) == len(diag.candidates) == 2
        assert certified == 6
        got = diag.to_json_dict()
        want = replace(diag, candidates=ref).to_json_dict()
        # the nodal certificate sums in another order than the frozen loop:
        # every probe value here is at most 0.014 in size, and at the lower
        # limit every one is rounding (below 1e-17), so 1e-15 covers both
        for a, b in zip(got["candidates"], want["candidates"]):
            assert a.pop("vi_value") == pytest.approx(b.pop("vi_value"), abs=1e-15)
        assert got == want

    def test_schedule_must_decrease(self):
        spec = _contact_spec(16)
        for bad in ([], [0.1, 1.0], [1.0, 1.0]):
            with pytest.raises(ConfigurationError):
                kuratowski_study(spec, bad, SolverConfig())

    def test_thresholds_echoed(self):
        spec = _contact_spec(16)
        diag = kuratowski_study(spec, [1.0, 0.1], SolverConfig(),
                                n_starts=1, seed=4, dedup_tol=1e-5,
                                cauchy_factor=0.6, cauchy_window=2,
                                probe_bump=0.02, n_random_probes=8)
        assert diag.thresholds == {
            "dedup_tol": 1e-5,
            "cauchy_factor": 0.6,
            "cauchy_window": 2,
            "probe_bump": 0.02,
            "n_random_probes": 8,
        }

    def test_json_dict_masks_trailing_nan(self):
        spec = _contact_spec(16)
        diag = kuratowski_study(spec, [1.0, 0.1], SolverConfig(),
                                n_starts=1, seed=0)
        data = diag.to_json_dict()
        assert data["chain_distances"][-1] is None
        assert len(data["rhos"]) == 2

    def test_csv_rows_shape(self):
        spec = _contact_spec(16)
        diag = kuratowski_study(spec, [1.0, 0.1], SolverConfig(),
                                n_starts=1, seed=0)
        traces = [nearest_point_trace(diag, c.solution) for c in diag.candidates]
        rows = diag.csv_rows(traces)
        header = rows[0]
        assert header == ["rho", "violation_sup", "violation_l1",
                          "chain_distance", "vi_residual",
                          "nearest_point_distance"]
        assert len(rows) == 3

    def test_csv_gains_boundary_column_with_natural_part(self):
        mesh = interval(16, gamma2=("right",))
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=0.5,
                         react=reaction("constant", value=1.0),
                         bnd=boundary_potential("abs", alpha=0.1))
        diag = kuratowski_study(spec, [1.0, 0.1], SolverConfig(),
                                n_starts=1, seed=0)
        traces = [nearest_point_trace(diag, c.solution) for c in diag.candidates]
        assert diag.csv_rows(traces)[0][-1] == "clarke_gap"

    def test_nearest_point_trace_of_candidate(self):
        spec = _contact_spec(32)
        schedule = [10.0 ** -k for k in range(7)]
        diag = kuratowski_study(spec, schedule, SolverConfig(),
                                n_starts=1, seed=0)
        cand = diag.candidates[0]
        trace = nearest_point_trace(diag, cand.solution.values)
        assert len(trace) == 7
        for rho_stage, member, dist in trace:
            assert member >= 0 and dist >= 0.0
        assert [t[0] for t in trace] == schedule
        # distances shrink toward the stage the candidate came from
        assert trace[-1][2] <= trace[0][2] + 1e-12

    def test_nearest_point_trace_rejects_foreign_vector(self):
        spec = _contact_spec(16)
        diag = kuratowski_study(spec, [1.0, 0.1], SolverConfig(),
                                n_starts=1, seed=0)
        stranger = np.full(spec.mesh.n_nodes, 0.123)
        with pytest.raises(ConfigurationError):
            nearest_point_trace(diag, stranger)


_BAD_THRESHOLDS = [
    ("n_starts", 0), ("seed", -1), ("dedup_tol", -1.0), ("dedup_tol", 0.0),
    ("dedup_tol", float("nan")), ("cauchy_factor", 0.0), ("cauchy_window", 0),
    ("probe_bump", -1.0), ("n_random_probes", -1), ("n_starts", 1.5),
    ("cauchy_window", 1.5), ("seed", 0.5), ("n_random_probes", 2.5),
    ("dedup_tol", np.inf), ("cauchy_factor", np.inf), ("probe_bump", np.inf),
]


class TestStudyRules:
    @pytest.fixture
    def no_solves(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve ran before the thresholds were checked")

        monkeypatch.setattr(lab, "continuation", refuse)
        monkeypatch.setattr(lab, "solve_penalized", refuse)

    @pytest.mark.parametrize("name,value", _BAD_THRESHOLDS)
    def test_study_checks_before_any_chain(self, no_solves, name, value):
        with pytest.raises(ConfigurationError) as err:
            kuratowski_study(_contact_spec(16), [1.0, 0.1], SolverConfig(),
                             **{name: value})
        assert err.value.param == name
        assert name in str(err.value)

    @pytest.mark.parametrize("name,value", [
        (n, v) for n, v in _BAD_THRESHOLDS
        if n in ("n_starts", "seed", "dedup_tol")])
    def test_sample_checks_before_any_solve(self, no_solves, name, value):
        with pytest.raises(ConfigurationError) as err:
            _first_stage(_contact_spec(16), 1.0, **{name: value})
        assert err.value.param == name

    def test_least_values_accepted(self):
        lab.check_study(n_starts=1, cauchy_window=1, seed=0, n_random_probes=0,
                        dedup_tol=1e-300, cauchy_factor=1e-300, probe_bump=1e-300,
                        vi_tol=0.0)
        # numpy integers count as integers
        lab.check_study(n_starts=np.int64(1), cauchy_window=np.int32(1),
                        seed=np.uint8(0), n_random_probes=np.int64(0))
        diag = kuratowski_study(_contact_spec(16), [1.0, 0.1], SolverConfig(),
                                n_starts=1, cauchy_window=1, n_random_probes=0)
        assert [c.probe_count for c in diag.candidates] == [1 + 2 * 17]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, -1e-300])
    def test_vi_tolerance_is_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigurationError) as err:
            lab.check_study(vi_tol=value)
        assert err.value.param == "vi_tol"
        assert "vi_tol must be finite and >= 0" in str(err.value)

    def test_rule_table_covers_every_echoed_threshold(self):
        diag = kuratowski_study(_contact_spec(16), [1.0, 0.1], SolverConfig(),
                                n_starts=1)
        # vi_tol is the tolerance the config reads certificates against; the
        # study itself does not take it
        assert (set(diag.thresholds) | {"n_starts", "seed", "vi_tol"}
                == set(lab.STUDY_RULES))


class TestQPOracle:
    def test_unconstrained_matches_plain_solve(self):
        mesh = interval(24)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0,
                         react=reaction("constant", value=1.0))
        sol = qp_oracle(spec, mode="projected_gradient")
        # phi = inf at every node: the penalty term vanishes
        direct = solve_penalized(spec, SolverConfig())
        assert direct.converged
        assert np.max(np.abs(sol.values - direct.solution.values)) <= 1e-9
        assert sol.active.size == 0

    def test_strong_contact_has_flat_region(self):
        spec = _contact_spec(64, source=8.0, phi=0.5)
        sol = qp_oracle(spec, mode="projected_gradient")
        x = spec.mesh.nodes[:, 0]
        middle = (x > 0.4) & (x < 0.6)
        assert np.allclose(sol.values[middle], 0.5, atol=1e-9)
        assert np.all(sol.values <= 0.5 + 1e-12)
        assert sol.multipliers[middle].min() > 0.0

    def test_enumeration_agrees_with_projected_gradient(self, rng):
        for k in range(5):
            mesh = interval(12)
            phi_vals = rng.uniform(0.02, 0.08)
            spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=phi_vals,
                             react=reaction("constant",
                                            value=rng.uniform(0.5, 4.0)))
            a = qp_oracle(spec, mode="enumeration")
            b = qp_oracle(spec, mode="projected_gradient")
            assert np.max(np.abs(a.values - b.values)) <= 1e-9
            assert a.mode == "enumeration"
            assert b.mode == "projected_gradient"

    def test_enumeration_budget_guard(self):
        spec = _contact_spec(24, phi=0.01)  # 23 constrained free nodes
        with pytest.raises(ConfigurationError):
            qp_oracle(spec, mode="enumeration")

    def test_mode_follows_the_constrained_node_count(self):
        # the oracle enumerates up to MAX_ENUM_NODES constrained free nodes
        small = _contact_spec(lab.MAX_ENUM_NODES + 1, phi=0.01)
        large = _contact_spec(lab.MAX_ENUM_NODES + 2, phi=0.01)
        assert qp_oracle(small).mode == "enumeration"
        assert qp_oracle(large).mode == "projected_gradient"
        # unconstrained nodes do not count
        spec = _contact_spec(24, phi=0.01)
        x = spec.mesh.nodes[:, 0]
        half = replace(spec, obstacle=DiscreteFunction(
            spec.mesh, np.where(x < 0.5, 0.01, np.inf), allow_infinite=True))
        assert qp_oracle(half).mode == "enumeration"

    @pytest.mark.parametrize("mutate", [
        lambda mesh: make_spec(mesh, p=2.5, q=3.0, mu=0.5, phi=0.1, eps=1e-8),
        lambda mesh: make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=0.1,
                               react=reaction("sign_band")),
        lambda mesh: make_spec(
            interval(8, gamma2=("right",)), p=2.0, q=2.0, mu=0.0, phi=0.1,
            bnd=boundary_potential("abs")),
    ])
    def test_scope_restrictions(self, mutate):
        with pytest.raises(ConfigurationError):
            qp_oracle(mutate(interval(8)))

    def test_quadratic_boundary_supported(self):
        mesh = interval(12, gamma2=("right",))
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=0.2,
                         react=reaction("constant", value=1.0),
                         bnd=boundary_potential("smooth_quadratic", alpha=1.0))
        a = qp_oracle(spec, mode="enumeration")
        b = qp_oracle(spec, mode="projected_gradient")
        assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            qp_oracle(_contact_spec(8), mode="interior_point")


class TestHypothesisChecks:
    def test_linear_case_certifies_poincare_constant(self):
        spec = _contact_spec(64, source=1.0, phi=None)
        report = validate_hypotheses(spec)
        assert report.lambda1_certified
        assert report.lambda1_est == pytest.approx(1.0 / np.pi, rel=0.02)

    def test_natural_part_empty_note(self):
        report = validate_hypotheses(_contact_spec(16, phi=None))
        assert report.lambda2_est == 0.0
        assert report.lambda2_certified
        assert any("natural boundary part empty" in n for n in report.notes)

    def test_inactive_exponents_pass(self):
        # every growth exponent strictly below p: the smallness sum is zero
        spec = _contact_spec(32, source=1.0, phi=None)
        report = validate_hypotheses(spec)
        assert report.smallness_lhs == 0.0
        assert report.passes

    def test_critical_gradient_growth_fails(self):
        mesh = interval(32)
        react = reaction("constant", value=1.0).with_growth(e_f=2.0,
                                                            theta2=2.0)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0, react=react)
        report = validate_hypotheses(spec)
        assert report.smallness_lhs == pytest.approx(2.0)
        assert not report.passes

    def test_supercritical_exponent_flagged(self):
        mesh = interval(32)
        react = reaction("constant", value=1.0).with_growth(theta2=2.5)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0, react=react)
        report = validate_hypotheses(spec)
        assert not report.passes
        assert any("exceeds" in n or "above" in n for n in report.notes)

    def test_nonlinear_case_is_estimate_only(self):
        mesh = interval(32, gamma2=("right",))
        spec = make_spec(mesh, p=2.5, q=3.0, mu=0.5, eps=1e-8,
                         react=reaction("constant", value=1.0),
                         bnd=boundary_potential("abs", alpha=0.1))
        report = validate_hypotheses(spec)
        assert not report.lambda1_certified
        assert report.lambda1_est > 0.0
        assert not report.lambda2_certified
        assert report.lambda2_est > 0.0
        assert any("lambda2 estimated" in n for n in report.notes)
        again = validate_hypotheses(spec)
        assert (again.lambda1_est, again.lambda2_est) == (report.lambda1_est,
                                                          report.lambda2_est)

    @pytest.mark.parametrize("p, densified", [(2.5, 0), (2.0, 1)])
    def test_stiffness_is_densified_only_when_p_is_2(self, monkeypatch, p,
                                                     densified):
        # only the p = 2 eigenproblems read the dense free-node stiffness
        calls = []
        toarray = sp.csr_matrix.toarray
        monkeypatch.setattr(sp.csr_matrix, "toarray",
                            lambda self, *a, **k: calls.append(self.shape)
                            or toarray(self, *a, **k))
        mesh = interval(16, gamma2=("right",))
        spec = make_spec(mesh, p=p, q=3.0, mu=0.5, eps=1e-8,
                         bnd=boundary_potential("abs", alpha=0.1))
        report = validate_hypotheses(spec)
        assert len(calls) == densified
        assert report.lambda1_certified == report.lambda2_certified == (p == 2.0)

    def test_report_is_json_serialisable(self):
        # lambda1 from the eigenvalue solve is a numpy scalar
        report = validate_hypotheses(_contact_spec(16))
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        assert data["passes"] is True
        assert data["lambda1_certified"] is True

    @pytest.mark.parametrize("mesh_fn", [
        lambda: interval(24, gamma2=("right",)),
        lambda: rectangle(4, 3, gamma2=("right", "top")),
        lambda: interval(12),
    ])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    def test_ascent_ratio_matches_reference_loop(self, mesh_fn, p):
        # one value-and-gradient evaluation per state gives the bits of the
        # loop that evaluated each norm and each gradient separately
        mesh = mesh_fn()
        free = ~mesh.dirichlet_mask
        spec = make_spec(mesh, p=p, q=3.0, mu=0.5, eps=1e-8)
        for weights, seed in ((mesh.node_volume_weights, 20_240_001),
                              (mesh.gamma2_weights, 20_240_002)):
            got = lab._ascent_ratio(mesh, free, weights, p, seed, iters=60)
            want = reference_ascent_ratio(mesh, free, weights, p, seed, iters=60)
            assert float(got).hex() == float(want).hex()
            assert (got > 0.0) == bool(np.any(weights[free] > 0))

    def test_admissibility_note_always_present(self):
        report = validate_hypotheses(_contact_spec(16))
        assert any("admissible" in n for n in report.notes)
