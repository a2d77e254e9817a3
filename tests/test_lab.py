"""Solution-set sampling, set-convergence study, reference oracle,
hypothesis checks."""

import ast
import dataclasses
import inspect
import json
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    _reference_grad_p_norm,
    _reference_grad_p_norm_gradient,
    _reference_p_norm,
    _reference_p_norm_gradient,
    assert_oracle_kkt,
    interval,
    make_spec,
    rectangle,
    reference_ascent_ratio,
    reference_embedding_constants,
    reference_enumeration_oracle,
    reference_p_ratio,
    reference_sample,
    reference_study_candidates,
)
from dpobstacle import lab, solver
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.config import build_problem, load_config
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
ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_CONFIGS = ROOT / "demos" / "configs"
# every demo and tool config at p = 2, where both constants are exact
P2_CONFIGS = [path for path in sorted(DEMO_CONFIGS.glob("*.cfg"))
              + sorted((ROOT / "tools").glob("*.cfg"))
              if build_problem(load_config(path)).phase.p == 2.0]


def _counted_reference_ascent(mesh, free, weights, p, seed, extra, iters=250):
    """The frozen loop of ``reference_ascent_ratio``, copied to record each
    start's exits: ``(start, round, kind)``, round -1 for a skipped start."""
    exits = []
    best = 0.0
    for i, u0 in enumerate([*np.random.default_rng(seed).standard_normal(
            (10, mesh.n_nodes)), *extra]):
        u = u0.copy()
        u[~free] = 0.0
        nu = _reference_p_norm(weights, u, p)
        du = _reference_p_norm_gradient(mesh, u, p)
        if nu == 0.0 or du == 0.0:
            exits.append((i, -1, "skip"))
            continue
        val = nu / du
        step = 0.5
        for rnd in range(iters):
            g = (_reference_grad_p_norm(weights, u, p) / nu
                 - _reference_grad_p_norm_gradient(mesh, u, p) / du)
            g[~free] = 0.0
            gn = np.linalg.norm(g)
            if gn == 0.0:
                exits.append((i, rnd, "zero direction"))
                break
            u_try = u + step * g / gn
            nu_t = _reference_p_norm(weights, u_try, p)
            du_t = _reference_p_norm_gradient(mesh, u_try, p)
            if du_t == 0.0:
                exits.append((i, rnd, "zero gradient norm"))
                step *= 0.5
                continue
            val_t = nu_t / du_t
            if val_t > val:
                u, val, nu, du = u_try, val_t, nu_t, du_t
                step *= 1.1
            else:
                step *= 0.5
                if step < 1e-10:
                    exits.append((i, rnd, "small step"))
                    break
        best = max(best, val)
    return best, exits


def _free_factor(mesh):
    """The free nodes and the sparse LU factor of their stiffness."""
    idx = np.flatnonzero(~mesh.dirichlet_mask)
    S = mesh.scatter_blocks(mesh.element_volumes[:, None, None] * mesh.gradient_gram)
    return idx, spla.splu(S[idx][:, idx].tocsc())


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
        oracle = qp_oracle(spec)
        assert_oracle_kkt(spec, oracle.values, oracle.multipliers)
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
        sol = qp_oracle(spec)
        assert_oracle_kkt(spec, sol.values, sol.multipliers)
        # phi = inf at every node: the start is the answer
        assert sol.iterations == 0
        direct = solve_penalized(spec, SolverConfig())
        assert direct.converged
        assert np.max(np.abs(sol.values - direct.solution.values)) <= 1e-9
        assert sol.active.size == 0

    def test_strong_contact_has_flat_region(self):
        spec = _contact_spec(64, source=8.0, phi=0.5)
        sol = qp_oracle(spec)
        assert_oracle_kkt(spec, sol.values, sol.multipliers)
        x = spec.mesh.nodes[:, 0]
        middle = (x > 0.4) & (x < 0.6)
        assert np.all(sol.values[middle] == 0.5)
        assert np.all(sol.values <= 0.5)
        assert sol.multipliers[middle].min() > 0.0
        # the active sets shrink monotonically: at most n_free + 1 sweeps
        assert 0 < sol.iterations <= spec.mesh.n_nodes - 1

    @staticmethod
    def _enumerable_specs(rng):
        for k in range(5):
            yield make_spec(interval(12), p=2.0, q=2.0, mu=0.0,
                            phi=rng.uniform(0.02, 0.08),
                            react=reaction("constant", value=rng.uniform(0.5, 4.0)))
        # 2D, a variable mu and the smooth_quadratic diagonal: 9 free nodes,
        # 9, 7 and 1 of them active
        mesh = rectangle(3, 4, gamma2=("right",))
        for level in (0.01, 0.1, 0.3):
            yield make_spec(mesh, p=2.0, q=2.0, mu=lambda x, y: 0.5 + 0.5 * x,
                            phi=lambda x, y, level=level: level + 0.1 * x,
                            react=reaction("constant", value=8.0),
                            bnd=boundary_potential("smooth_quadratic", alpha=2.0))
        # half the nodes unconstrained
        spec = _contact_spec(24, phi=0.01)
        x = spec.mesh.nodes[:, 0]
        yield replace(spec, obstacle=DiscreteFunction(
            spec.mesh, np.where(x < 0.5, 0.01, np.inf), allow_infinite=True))

    def test_agrees_with_enumeration(self, rng):
        for spec in self._enumerable_specs(rng):
            sol = qp_oracle(spec)
            ref = reference_enumeration_oracle(spec)
            assert_oracle_kkt(spec, sol.values, sol.multipliers)
            assert np.max(np.abs(sol.values - ref.values)) <= 1e-12
            assert np.max(np.abs(sol.multipliers - ref.multipliers)) <= 1e-12
            assert np.array_equal(sol.active, ref.active)
            assert abs(sol.objective - ref.objective) <= 1e-12

    def test_active_set_failure_off_the_m_matrices(self):
        # SPD but not an M-matrix: with c = diag S the active sets cycle
        # {2} -> {0, 1, 2} -> {1} -> {2}, so no KKT point is reached
        S = sp.csr_matrix([[1.783, -2.246, 1.086], [-2.246, 4.228, -0.698],
                           [1.086, -0.698, 1.159]])
        assert np.linalg.eigvalsh(S.toarray()).min() > 0.0
        b = np.array([0.546, 1.323, 1.794])
        phi = np.array([0.974, 0.138, 0.733])
        with pytest.raises(OracleFailure, match="did not settle in 4 sweeps"):
            lab._active_set_solve(S, b, phi)

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
        sol = qp_oracle(spec)
        ref = reference_enumeration_oracle(spec)
        assert_oracle_kkt(spec, sol.values, sol.multipliers)
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-12
        assert np.max(np.abs(sol.multipliers - ref.multipliers)) <= 1e-12

    def test_stiffness_stays_sparse(self):
        S_ff, b_f, idx = lab._qp_data(_contact_spec(64))
        assert sp.issparse(S_ff)
        assert S_ff.nnz == 3 * idx.size - 2


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

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_stiffness_is_never_densified(self, monkeypatch, p):
        # no dense n x n array and no dense eigensolver at any p: every
        # sparse densifier and scipy.linalg.eigh raise when called
        def refuse(*args, **kwargs):
            raise AssertionError("densified")

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.lil_matrix,
                    sp.csr_array, sp.csc_array, sp.coo_array, sp.lil_array):
            monkeypatch.setattr(cls, "toarray", refuse)
            monkeypatch.setattr(cls, "todense", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        spec = make_spec(rectangle(6, 5, gamma2=("right", "top")), p=p, q=3.0,
                         mu=0.5, eps=1e-8, bnd=boundary_potential("abs", alpha=0.1))
        report = validate_hypotheses(spec)
        assert report.lambda1_certified == report.lambda2_certified == (p == 2.0)
        assert report.lambda1_est > 0.0 and report.lambda2_est > 0.0

    def test_lab_does_not_import_scipy_linalg(self):
        tree = ast.parse(inspect.getsource(lab))
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        assert "scipy.sparse.linalg" in names
        assert not [n for n in names if n == "scipy.linalg"
                    or n.startswith("scipy.linalg.")]

    @pytest.mark.parametrize("mesh_fn, mu", [
        (lambda: interval(64), 0.0),
        (lambda: interval(64, gamma2=("right",)), 0.0),
        (lambda: interval(2), 0.0),  # one free node
        (lambda: interval(1, gamma2=("right",)), 0.0),  # one free node on gamma2
        (lambda: rectangle(8, 8, gamma2=("right",)), 0.0),
        (lambda: rectangle(12, 7, lx=2.0, ly=0.7, gamma2=("right", "top")), 0.0),
        (lambda: rectangle(9, 6, lx=1.3, gamma2=("left", "bottom")), 0.5),
        (lambda: rectangle(3, 3), 0.0),  # a restarted Lanczos run
    ], ids=["1d", "1d-right", "1d-one-free", "1d-one-free-gamma2", "2d-right",
            "2d-right-top-nonsquare", "2d-two-sides-mu", "2d-restart"])
    def test_constants_match_dense_reference(self, mesh_fn, mu):
        mesh = mesh_fn()
        report = validate_hypotheses(make_spec(mesh, p=2.0, q=3.0, mu=mu))
        (lam1, _), (lam2, _) = reference_embedding_constants(mesh)
        assert report.lambda1_certified and report.lambda2_certified
        assert report.lambda1_est == pytest.approx(lam1, rel=1e-10, abs=0.0)
        assert report.lambda2_est == pytest.approx(lam2, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("path", P2_CONFIGS, ids=lambda p: p.stem)
    def test_config_constants_match_dense_reference(self, path):
        spec = build_problem(load_config(path))
        report = validate_hypotheses(spec)
        (lam1, _), (lam2, _) = reference_embedding_constants(spec.mesh)
        assert report.lambda1_est == pytest.approx(lam1, rel=1e-10, abs=0.0)
        assert report.lambda2_est == pytest.approx(lam2, rel=1e-10, abs=0.0)

    def test_one_free_node_estimate(self):
        # one free node, on gamma2, at p = 2.5: ARPACK is not called, and
        # the state u = x attains lambda2 = 1 in every p-norm
        report = validate_hypotheses(make_spec(interval(1, gamma2=("right",)),
                                               p=2.5, q=3.0))
        assert report.lambda2_est == pytest.approx(1.0, rel=1e-12)
        assert not report.lambda2_certified

    @pytest.mark.parametrize("mesh_fn", [
        lambda: rectangle(3, 3),
        lambda: rectangle(3, 4, gamma2=("right",)),
        lambda: rectangle(16, 12, lx=1.5, gamma2=("right", "top")),
    ], ids=["restart-lambda1", "restart-lambda2", "2d-right-top"])
    def test_repeated_calls_are_bit_identical(self, mesh_fn):
        # the fixed Lanczos start pins the bits, also where ARPACK restarts
        # from a random vector after an invariant Krylov subspace
        mesh = mesh_fn()
        idx, lu = _free_factor(mesh)
        for weights in (mesh.node_volume_weights, mesh.gamma2_weights):
            runs = [lab._top_ratio(lu, weights[idx]) for _ in range(3)]
            assert len({(r.hex(), u.tobytes()) for r, u in runs}) == 1
        spec = make_spec(mesh)
        first, again = validate_hypotheses(spec), validate_hypotheses(spec)
        assert dataclasses.asdict(first) == dataclasses.asdict(again)

    def test_state_attains_the_ratio(self):
        mesh = rectangle(10, 7, lx=1.4, gamma2=("right", "top"))
        idx, lu = _free_factor(mesh)
        for weights in (mesh.node_volume_weights, mesh.gamma2_weights):
            ratio, state = lab._top_ratio(lu, weights[idx])
            u = np.zeros(mesh.n_nodes)
            u[idx] = state
            assert reference_p_ratio(mesh, weights, u, 2.0) == pytest.approx(
                ratio, rel=1e-12)

    def test_large_p2_check_is_fast(self):
        spec = make_spec(rectangle(64, 64, gamma2=("right", "top")))
        start = time.perf_counter()
        report = validate_hypotheses(spec)
        assert time.perf_counter() - start < 1.0
        assert report.lambda1_certified and report.lambda2_certified
        assert 0.0 < report.lambda1_est < report.lambda2_est

    @pytest.mark.parametrize("case", ["double_phase", "rectangle-p3"])
    def test_estimate_reaches_the_p2_maximizer(self, case):
        # the ascent also starts from the p = 2 maximizer, so no estimate
        # falls below that state's ratio in the p-norms (on double_phase the
        # ten random starts alone stopped at 0.1807 < 0.3183, and on the
        # rectangle at 0.2519 < 0.3015 and 0.4458 < 0.5040)
        if case == "double_phase":
            spec = build_problem(load_config(DEMO_CONFIGS / "double_phase.cfg"))
        else:
            spec = make_spec(rectangle(32, 32, gamma2=("right",)), p=3.0, q=3.0)
        mesh, p = spec.mesh, spec.phase.p
        report = validate_hypotheses(spec)
        weights = (mesh.node_volume_weights, mesh.gamma2_weights)
        for est, w, (_, u) in zip((report.lambda1_est, report.lambda2_est),
                                  weights, reference_embedding_constants(mesh)):
            if np.any(w > 0):
                assert est >= reference_p_ratio(mesh, w, u, p) * (1 - 1e-9)
        if case == "double_phase":
            assert report.lambda1_est > 0.318

    def test_report_is_json_serialisable(self):
        # both constants are plain floats, whichever path computed them
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
        # loop that evaluated each norm and each gradient separately, with
        # and without the p = 2 maximizer as an extra start
        mesh = mesh_fn()
        free = ~mesh.dirichlet_mask
        maximizers = [u for _, u in reference_embedding_constants(mesh)]
        for weights, seed, u2 in zip((mesh.node_volume_weights, mesh.gamma2_weights),
                                     (20_240_001, 20_240_002), maximizers):
            got = lab._ascent_ratio(mesh, free, weights, p, seed, iters=60)
            want = reference_ascent_ratio(mesh, free, weights, p, seed, iters=60)
            assert float(got).hex() == float(want).hex()
            assert (got > 0.0) == bool(np.any(weights[free] > 0))
            both = lab._ascent_ratio(mesh, free, weights, p, seed, [u2], iters=60)
            want = reference_ascent_ratio(mesh, free, weights, p, seed, [u2],
                                          iters=60)
            assert float(both).hex() == float(want).hex()
            assert both >= got

    @pytest.mark.parametrize("config, constant", [
        ("demos/configs/double_phase.cfg", 0),
        ("tools/zero_boundary.cfg", 0),
        ("tools/zero_boundary.cfg", 1),
        ("tools/regularization_2d.cfg", 0),
        ("tools/regularization_2d.cfg", 1),
    ])
    def test_full_length_ascent_matches_reference_loop(self, config, constant):
        # the stacked ascent at its full 250 rounds, from the ten seeded starts
        # and the p = 2 maximizer that validate_hypotheses passes, keeps every
        # bit of the frozen one-start-at-a-time loop
        spec = build_problem(load_config(ROOT / config))
        mesh, p = spec.mesh, spec.phase.p
        assert p != 2.0
        free = ~mesh.dirichlet_mask
        weights = (mesh.node_volume_weights, mesh.gamma2_weights)[constant]
        seed = (20_240_001, 20_240_002)[constant]
        idx, lu = _free_factor(mesh)
        start = np.zeros(mesh.n_nodes)
        start[idx] = lab._top_ratio(lu, weights[idx])[1]
        got = lab._ascent_ratio(mesh, free, weights, p, seed, [start])
        want = reference_ascent_ratio(mesh, free, weights, p, seed, [start])
        assert got.hex() == want.hex()
        report = validate_hypotheses(spec)
        assert (report.lambda1_est, report.lambda2_est)[constant].hex() == want.hex()

    def test_mixed_stack_takes_every_exit(self):
        # one stack whose starts leave by every exit of the loop: a zero start
        # and a constant one (a zero gradient norm, so a ratio of inf were it
        # taken) are skipped; the antisymmetric start is a critical point
        # (with these weights its two norms and their gradients take the same
        # floating-point steps, so its direction is exactly zero in round 0
        # while the others move on); on this 2**330-long interval the random
        # starts flatten until the p-th powers of their gradients underflow
        # (a zero gradient norm, which halves the step) and their steps fall
        # below 1e-10, rows taking each of these exits in one round
        h = 2.0 ** 329
        mesh = interval(2, b=2 * h)
        free = np.ones(mesh.n_nodes, dtype=bool)
        weights = np.array([1.0, 2.0, 1.0]) / h**2
        extra = [np.zeros(3), np.ones(3), np.array([-1.0, 0.0, 1.0])]
        best, exits = _counted_reference_ascent(mesh, free, weights, 3.0, 0, extra)
        rounds = {}
        for row, rnd, kind in exits:
            rounds.setdefault(rnd, {}).setdefault(kind, set()).add(row)
        assert rounds[-1] == {"skip": {10, 11}}
        assert rounds[0] == {"zero direction": {12}}
        assert any({"zero gradient norm", "small step"} <= set(kinds)
                   for kinds in rounds.values())
        got = lab._ascent_ratio(mesh, free, weights, 3.0, 0, extra)
        want = reference_ascent_ratio(mesh, free, weights, 3.0, 0, extra)
        assert got.hex() == want.hex() == best.hex()

    def test_check_evaluates_the_gradient_norm_once_per_round(self, monkeypatch):
        # the starts advance as one stack: at most one evaluation for the
        # starts and one per round, where one start at a time took 2,761
        calls = []
        stacked = lab._p_norm_gradients

        def counted(mesh, U, p):
            calls.append(len(U))
            return stacked(mesh, U, p)

        monkeypatch.setattr(lab, "_p_norm_gradients", counted)
        validate_hypotheses(build_problem(load_config(DEMO_CONFIGS / "double_phase.cfg")))
        iters = inspect.signature(lab._ascent_ratio).parameters["iters"].default
        assert 0 < len(calls) <= iters + 1
        assert calls[0] == 11

    def test_admissibility_note_always_present(self):
        report = validate_hypotheses(_contact_spec(16))
        assert any("admissible" in n for n in report.notes)
