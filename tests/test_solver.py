"""Damped semismooth Newton solver, continuation, inequality residual."""

import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import (assert_same_system, csr_bytes, interval, make_spec, rectangle,
                      reference_assemble_system, reference_probe_set,
                      reference_solve_direction, reference_solve_penalized,
                      reference_vi_residual, whole_adjacency_order)
from dpobstacle import assembly, lab, solver
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.errors import ConfigurationError
from dpobstacle.meshing import DiscreteFunction, Mesh
from dpobstacle.nonsmooth import ConstraintSet
from dpobstacle.solver import (
    SolveReport,
    SolverConfig,
    check_schedule,
    continuation,
    solve_penalized,
    vi_residual,
)


def _poisson_spec(n=64, source=1.0, phi=None):
    mesh = interval(n)
    return make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=phi,
                     react=reaction("constant", value=source))


def _singular_spec():
    # p > 2 and eps_grad = 0: at the zero start the Jacobian vanishes on the
    # interior nodes, so the first Newton system is singular and gets
    # lifted; at rho = 1e-2 the lifted step passes the line search at its
    # last halving (the trial's residual norm is 0.68 of the start's), and
    # Newton converges from there
    mesh = rectangle(12, 12, gamma2=("right",))
    return make_spec(mesh, p=2.2, q=2.5, mu=lambda x, y: 0.5 + 0.5 * x,
                     phi=0.0, react=reaction("constant", value=1.0),
                     bnd=boundary_potential("abs", alpha=0.1))


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
        report = solve_penalized(_singular_spec(), SolverConfig(rho=1e-2))
        assert ("newton", "regularized") in _steps(report)
        assert report.converged

    def test_determinism(self):
        mesh = interval(48)
        spec = make_spec(mesh, p=2.2, q=2.8, mu=lambda x: x, phi=0.05,
                         react=reaction("constant", value=1.0), eps=1e-8)
        a = solve_penalized(spec, SolverConfig(rho=1e-6))
        b = solve_penalized(spec, SolverConfig(rho=1e-6))
        assert np.array_equal(a.solution.values, b.solution.values)
        assert a.iterations == b.iterations

    def test_unknown_mode_rejected(self):
        # the penalty is the one approximation; there is no mode to choose
        with pytest.raises(TypeError):
            SolverConfig(mode="penalty")

    def test_obstacle_free_problem_has_no_penalty_and_no_floor(self, rng):
        spec = _poisson_spec(32)
        u = rng.normal(size=spec.mesh.n_nodes)
        vec, diag = spec.constraints.envelope_grad(u, 1e-12)
        free = ~spec.mesh.dirichlet_mask
        assert not np.any(vec[free]) and not np.any(diag[free])
        assert solver._fp_floor(spec, SolverConfig(rho=1e-12)) == 0.0
        report = solve_penalized(spec, SolverConfig(rho=1e-12))
        assert report.converged and report.effective_tol == 1e-10


def _steps(report):
    return {(t.direction, t.note) for t in report.iteration_trace}


def _hex_trace(report):
    return [(t.iteration, t.residual_norm.hex(), t.step_length.hex(),
             t.direction, t.note) for t in report.iteration_trace]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _recorded(monkeypatch, solve, spec, cfg, initial=None):
    """Run ``solve`` and return its report with the sequence of
    ``assemble_system`` and ``spsolve`` calls (flags and argument digests)."""
    calls = []
    assemble, spsolve = assembly.assemble_system, spla.spsolve

    def assemble_rec(spec, u, *args, **kwargs):
        calls.append(("assemble", kwargs["with_jacobian"], kwargs["frozen"],
                      _digest(u)))
        return assemble(spec, u, *args, **kwargs)

    def spsolve_rec(A, b, *args, **kwargs):
        calls.append(("spsolve", _digest(A.data, A.indices, A.indptr, b),
                      kwargs.get("permc_spec")))
        return spsolve(A, b, *args, **kwargs)

    monkeypatch.setattr(solver, "assemble_system", assemble_rec)
    monkeypatch.setattr(assembly, "assemble_system", assemble_rec)
    monkeypatch.setattr(spla, "spsolve", spsolve_rec)
    report = solve(spec, cfg, initial=initial)
    monkeypatch.undo()
    return report, calls


def _picard_spec():
    # p = 3 and eps_grad = 0 with a load far beyond what the p=3/q=4
    # operator balances near zero: at the zero start both the exact and the
    # frozen Jacobian vanish on the interior nodes.  Even the shortest step
    # of the lifted Newton direction overshoots, so the forced fixed-point
    # step is lifted too; it throws the state to about 4e11, from where
    # Newton descends
    mesh = rectangle(16, 16, gamma2=("right",))
    return make_spec(mesh, p=3.0, q=4.0, mu=lambda x, y: 0.5 + 0.5 * x,
                     phi=0.05, react=reaction("constant", value=100.0),
                     bnd=boundary_potential("abs", alpha=0.1))


def _kink_spec():
    # the kink of sign_band at the zero start hides the reaction slope from
    # the Newton system: after five rejected line searches the fixed point
    # takes over and its own steps pass the line search
    return make_spec(rectangle(8, 8), phi=0.02,
                     react=reaction("sign_band", slope=40.0, offset=0.1,
                                    rule="upper"))


def _overflow_spec():
    # p = 2 and q = 4: far from zero the q-phase dominates, and a Newton step
    # shrinks the state by about a third; near zero the operator is linear
    return make_spec(rectangle(8, 8, gamma2=("right",)), p=2.0, q=4.0,
                     mu=lambda x, y: 0.5 + 0.5 * x, phi=0.05,
                     react=reaction("constant", value=10.0),
                     bnd=boundary_potential("abs", alpha=0.1))


# case: (problem, config, height of a sine-bump start or None for zero,
# the (direction, note) steps the case reaches).  The overflow start gives
# residual entries near 1e180, finite but with overflowing squares: every
# trial of the first line search has an infinite norm, so the fixed point is
# forced; it lands near the roundoff of the start, and Newton descends.  The
# unsolvable start overflows the residual (and the Jacobian, Dirichlet
# columns included) itself, so no system can be solved.
_LOOP_CASES = {
    "picard": (_picard_spec, SolverConfig(rho=1.0), None,
               {("picard", "forced regularized"), ("newton", "")}),
    "singular": (_singular_spec, SolverConfig(rho=1e-2), None,
                 {("newton", "regularized"), ("newton", "")}),
    "kink": (_kink_spec, SolverConfig(rho=1e-2, max_newton=150), None,
             {("picard", ""), ("picard", "forced")}),
    "overflow": (_overflow_spec, SolverConfig(rho=1e-2, max_newton=12), 1e60,
                 {("picard", "forced"), ("newton", "")}),
    "unsolvable": (_overflow_spec, SolverConfig(rho=1e-2), 1e160,
                   {("picard", "fixed-point system unsolvable")}),
}


def _loop_case(case):
    """The problem, config, initial state and expected steps of a case."""
    spec_fn, cfg, height, steps = _LOOP_CASES[case]
    spec = spec_fn()
    initial = None
    if height is not None:
        x, y = spec.mesh.nodes.T
        initial = height * np.sin(np.pi * x) * np.sin(np.pi * y)
    return spec, cfg, initial, steps


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestLoopReference:
    """``solve_penalized`` against the two-path loop in ``conftest``."""

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_bitwise_equal_with_same_calls(self, monkeypatch, case):
        spec, cfg, initial, steps = _loop_case(case)
        ref, ref_calls = _recorded(monkeypatch, reference_solve_penalized,
                                   spec, cfg, initial)
        new, new_calls = _recorded(monkeypatch, solve_penalized, spec, cfg,
                                   initial)
        # the case reaches the branches it is meant to cover
        assert steps <= _steps(ref)
        # compared as float.hex, so that a NaN norm equals itself
        assert _hex_trace(new) == _hex_trace(ref)
        assert new_calls == ref_calls
        assert _digest(new.solution.values, new.eta) == _digest(
            ref.solution.values, ref.eta)
        for name in ("residual_norm", "iterations", "converged",
                     "obstacle_violation_sup", "obstacle_violation_l1",
                     "effective_tol", "rho"):
            assert float(getattr(new, name)).hex() == float(getattr(ref, name)).hex(), name

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_every_system_is_the_matrix_algebra(self, monkeypatch, case):
        # the loop above calls the package assembly on both sides; this
        # checks each system of the solve, the overflowing states included,
        # against the scipy matrix algebra of conftest
        spec, cfg, initial, _ = _loop_case(case)
        assemble = solver.assemble_system
        calls = []

        def checked(spec, u, system=None, **kwargs):
            # a Jacobian reuses the residual-only system of its iterate; the
            # reference assembles every system from scratch
            assert (system is not None) == kwargs["with_jacobian"]
            new = assemble(spec, u, system=system, **kwargs)
            assert_same_system(spec.mesh, new,
                               reference_assemble_system(spec, u, **kwargs))
            nan = new.jacobian is not None and np.isnan(new.jacobian.data).any()
            calls.append((kwargs["with_jacobian"], kwargs["frozen"],
                          float(np.max(np.abs(new.residual))), nan))
            return new

        monkeypatch.setattr(solver, "assemble_system", checked)
        solve_penalized(spec, cfg, initial=initial)
        kinds = {c[:2] for c in calls}
        assert {(True, False), (False, False)} <= kinds
        if case != "singular":
            assert (True, True) in kinds
        if case == "overflow":
            # finite residuals whose squares overflow in the norm
            assert 1e155 < max(c[2] for c in calls) < np.inf
        if case == "unsolvable":
            # a Jacobian with NaN entries, gathered like fancy indexing
            assert not np.isfinite(calls[0][2])
            assert any(c[3] for c in calls)

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_direction_is_the_full_systems_bit_for_bit(self, monkeypatch, case):
        # the free-node system is the elimination that the full system with
        # identity Dirichlet rows and zeroed Dirichlet columns factored in
        # the whole-adjacency order: there each Dirichlet node is a
        # singleton row and column, the free columns keep their relative
        # order, and pivoting never picks a Dirichlet row for a free column.
        # Every direction of the solve, regularized and unsolvable ones
        # included, is that frozen solve's on the free nodes, byte for byte,
        # and +0.0 on the Dirichlet nodes
        spec, cfg, initial, _ = _loop_case(case)
        mesh = spec.mesh
        free = ~mesh.dirichlet_mask
        order, whole = mesh.block_pattern.factor_layout.order, whole_adjacency_order(mesh)
        assert whole.size == mesh.n_nodes > order.size
        assemble = solver.assemble_system
        notes = []

        def compared(spec, u, system=None, **kwargs):
            new = assemble(spec, u, system=system, **kwargs)
            if not kwargs["with_jacobian"]:
                return new
            d, note = solver._solve_direction(new.jacobian, new.residual, order)
            ref = reference_assemble_system(spec, u, **kwargs)
            d_full, note_full = reference_solve_direction(ref.jacobian, ref.residual,
                                                          order=whole)
            assert (note, d is None) == (note_full, d_full is None)
            if d is not None:
                assert d[free].tobytes() == d_full[free].tobytes()
                assert d[~free].tobytes() == np.zeros(int(np.sum(~free))).tobytes()
            notes.append((d is None, note))
            return new

        monkeypatch.setattr(solver, "assemble_system", compared)
        solve_penalized(spec, cfg, initial=initial)
        assert (False, "") in notes or case == "unsolvable"
        if case in ("singular", "unsolvable"):
            assert (case == "unsolvable", "regularized") in notes

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_direction_is_the_parents_to_roundoff(self, monkeypatch, case):
        # leaving out the Dirichlet nodes, the zeroed Dirichlet columns and
        # the symmetric ordering leave the direction unchanged in exact
        # arithmetic, and so does the factor order computed once per mesh.
        # Against the minimum-degree ordering computed for each matrix (the
        # solve before the cached factor order), every direction of the
        # solve agrees to 1e-12 relative, or to eps * cond of the free-node
        # block on the blow-ups' states.  The default ordering on the full
        # matrix that kept its Dirichlet columns solves a system whose unit
        # Dirichlet rows sit beside free entries of up to 1e121; its bound
        # is eps * cond of that full matrix
        spec, cfg, initial, _ = _loop_case(case)
        free = ~spec.mesh.dirichlet_mask
        order = spec.mesh.block_pattern.factor_layout.order
        assemble = solver.assemble_system
        gaps = []

        def bound(J, note):
            A = J.toarray()
            if note:
                A += np.diag(1e-12 * (1.0 + np.abs(np.diag(A))))
            return max(1e-12, np.finfo(float).eps * np.linalg.cond(A))

        def compared(spec, u, system=None, **kwargs):
            new = assemble(spec, u, system=system, **kwargs)
            if not kwargs["with_jacobian"]:
                return new
            d, note = solver._solve_direction(new.jacobian, new.residual, order)
            old = reference_assemble_system(spec, u, keep_columns=True, **kwargs)
            ref = reference_assemble_system(spec, u, **kwargs)
            parents = [(reference_solve_direction(old.jacobian, old.residual,
                                                  permc_spec="COLAMD"), ref.jacobian),
                       (reference_solve_direction(ref.jacobian, ref.residual,
                                                  permc_spec="MMD_AT_PLUS_A"),
                        new.jacobian)]
            assert all((d is None) == (d_old is None) for (d_old, _), _ in parents)
            if d is not None:
                for (d_old, note_old), J in parents:
                    assert note == note_old
                    gap = (np.linalg.norm(d[free] - d_old[free])
                           / np.linalg.norm(d_old[free]))
                    assert gap <= bound(J, note)
                    gaps.append(gap)
            return new

        monkeypatch.setattr(solver, "assemble_system", compared)
        solve_penalized(spec, cfg, initial=initial)
        assert gaps or case == "unsolvable"
        if case in ("kink", "singular"):
            assert max(gaps) <= 1e-12

    def test_residual_norm_overflows_silently(self, monkeypatch):
        # the overflow start's residual squares overflow to inf in the norm;
        # that inf is the result, and no RuntimeWarning goes with it
        spec, cfg, initial, _ = _loop_case("overflow")
        norm, norms = solver.residual_norm, []

        def checked(mesh, r):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                norms.append(norm(mesh, r))
            return norms[-1]

        monkeypatch.setattr(solver, "residual_norm", checked)
        solve_penalized(spec, cfg, initial=initial)
        assert norms[0] == np.inf and np.isfinite(norms[-1])

    def test_line_search_never_accepts_a_non_finite_residual(self):
        # from the overflow start every trial of the first line search has
        # an infinite norm, and inf passes the Armijo comparison against the
        # infinite norm of the start: only a finiteness test keeps such a
        # trial out.  The forced fixed-point step then lands at a finite one
        spec, cfg, initial, _ = _loop_case("overflow")
        report = solve_penalized(spec, cfg, initial=initial)
        trace = report.iteration_trace
        assert trace[0].residual_norm == np.inf
        assert (trace[1].direction, trace[1].note) == ("picard", "forced")
        searched = [t for t in trace[1:]
                    if t.step_length > 0 and not t.note.startswith("forced")]
        assert searched
        assert all(np.isfinite(t.residual_norm) for t in searched)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestStateReuse:
    """The Jacobian at an iterate is built from the residual-only system of
    that iterate: its element state is computed once."""

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_gradients_once_per_residual_assembly(self, monkeypatch, case):
        spec, cfg, initial, _ = _loop_case(case)
        gradients, assemble = Mesh.element_gradients, solver.assemble_system
        count = [0]
        calls = []

        def counted(mesh, values):
            count[0] += 1
            return gradients(mesh, values)

        def recorded(spec, u, **kwargs):
            before = count[0]
            system = assemble(spec, u, **kwargs)
            calls.append((kwargs["with_jacobian"], count[0] - before))
            return system

        monkeypatch.setattr(Mesh, "element_gradients", counted)
        monkeypatch.setattr(solver, "assemble_system", recorded)
        solve_penalized(spec, cfg, initial=initial)
        # one gradient per residual-only assembly, none for a Jacobian, and
        # none outside the assemblies
        assert set(calls) == {(False, 1), (True, 0)}
        assert count[0] == sum(not jacobian for jacobian, _ in calls)

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_reused_jacobian_is_the_one_from_scratch(self, monkeypatch, case):
        spec, cfg, initial, _ = _loop_case(case)
        assemble = solver.assemble_system
        frozen = []

        def compared(spec, u, **kwargs):
            system = assemble(spec, u, **kwargs)
            if kwargs["with_jacobian"]:
                scratch = assemble(spec, u, **dict(kwargs, system=None))
                assert csr_bytes(system.jacobian) == csr_bytes(scratch.jacobian)
                assert system.residual.tobytes() == scratch.residual.tobytes()
                assert system.eta.tobytes() == scratch.eta.tobytes()
                frozen.append(kwargs["frozen"])
            return system

        monkeypatch.setattr(solver, "assemble_system", compared)
        report = solve_penalized(spec, cfg, initial=initial)
        steps = _steps(report)
        assert False in frozen
        if case != "singular":
            assert True in frozen
        if case == "kink":
            # exact, frozen and forced fixed-point iterates
            assert {("newton", ""), ("picard", ""), ("picard", "forced")} <= steps


class TestNoFreeNode:
    """A mesh whose every node lies on the Dirichlet part has no unknown:
    the Newton system is empty, and the solve is done at its start."""

    def test_empty_system_converges_at_iteration_zero(self, monkeypatch):
        mesh = interval(1)
        assert np.all(mesh.dirichlet_mask)
        spec = make_spec(mesh, phi=0.5, react=reaction("constant", value=1.0))
        layout = mesh.block_pattern.factor_layout
        assert layout.order.size == layout.slots.size == layout.indices.size == 0
        assert layout.indptr.tolist() == [0]
        system = assembly.assemble_system(spec, np.ones(mesh.n_nodes))
        assert system.jacobian.shape == (0, 0)
        assert system.residual.tolist() == [1.0, 1.0]
        d, note = solver._solve_direction(system.jacobian, system.residual,
                                          layout.order)
        assert note == "" and d.tobytes() == np.zeros(mesh.n_nodes).tobytes()
        calls = []
        monkeypatch.setattr(spla, "spsolve", lambda *a, **k: calls.append(a))
        report = solve_penalized(spec, SolverConfig(), initial=np.ones(mesh.n_nodes))
        assert report.converged and report.iterations == 0
        assert report.residual_norm == 0.0 and not calls
        assert report.solution.values.tobytes() == np.zeros(mesh.n_nodes).tobytes()


@pytest.fixture(scope="module")
def tenfold_mesh():
    # 3,249 nodes: ten times the largest 2D mesh of the other tests
    return rectangle(56, 56, gamma2=("right",))


class TestTenfoldScale:
    """The fp floor, the regularized retry and the Picard fallback on a 2D
    mesh of 3,249 nodes; each case checks from its trace that it took its
    branch and still converged."""

    def test_fp_floor_sets_the_tolerance(self, tenfold_mesh):
        spec = make_spec(tenfold_mesh, phi=0.05, react=reaction("constant", value=8.0))
        reports = continuation(spec, [1e-3, 1e-6, 1e-9, 1e-12], SolverConfig())
        last = reports[-1]
        free = ~tenfold_mesh.dirichlet_mask
        floor = (4.0 * np.finfo(float).eps * 1.05 / 1e-12
                 * np.sqrt(np.sum(tenfold_mesh.node_volume_weights[free])))
        assert all(r.converged for r in reports)
        assert last.effective_tol == pytest.approx(floor, rel=1e-12)
        # converged only because of the floor: the final residual lies above
        # the Newton tolerance
        assert 1e-10 < last.iteration_trace[-1].residual_norm <= last.effective_tol

    def test_singular_newton_system_is_regularized(self, tenfold_mesh):
        # p > 2 and eps_grad = 0: the Jacobian vanishes at the zero start
        spec = make_spec(tenfold_mesh, p=2.2, q=2.5, mu=lambda x, y: 0.5 + 0.5 * x,
                         phi=0.0, react=reaction("constant", value=8.0),
                         bnd=boundary_potential("abs", alpha=0.1))
        report = solve_penalized(spec, SolverConfig(rho=1e-2))
        assert ("newton", "regularized") in _steps(report)
        assert report.converged

    def test_picard_fallback_converges(self, tenfold_mesh):
        # the kink of |u| at the zero start hides the reaction slope from
        # the Newton system: line searches fail until the fixed point takes
        # over and converges
        spec = make_spec(tenfold_mesh, phi=0.02,
                         react=reaction("sign_band", slope=40.0, offset=0.1,
                                        rule="upper"),
                         bnd=boundary_potential("abs", alpha=0.1))
        report = solve_penalized(spec, SolverConfig(rho=1e-2, max_newton=150))
        steps = _steps(report)
        assert ("picard", "") in steps and ("picard", "forced") in steps
        assert report.converged


class TestCertificateMemory:
    def test_peak_is_linear_in_the_nodes(self, tenfold_mesh):
        # the study's probe family and certificate at 3,249 nodes peak near
        # 100 floats per node (35 rows of n); a family of n x n floats, or
        # the (2n + 33) x n array, is 20 times the bound
        spec = make_spec(tenfold_mesh, p=2.5, q=3.0, mu=lambda x, y: 0.5 + 0.5 * x,
                         phi=0.05, bnd=boundary_potential("abs", alpha=0.1))
        u, eta = _vi_state(spec)

        def certify():
            probes, bumps = lab._probe_set(spec.constraints, u, 0, 0.01, 32)
            return vi_residual(spec, probes[0], eta, probes, bumps)

        first = certify()  # the mesh and the spec cache their derived data
        tracemalloc.start()
        try:
            assert certify() == first
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 200 * 8 * tenfold_mesh.n_nodes


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
        [1.0, float("nan")],
        [float("nan")],
        [float("inf"), 1.0],
    ])
    def test_schedule_validation(self, bad):
        spec = self._contact_spec()
        with pytest.raises(ConfigurationError):
            continuation(spec, bad, SolverConfig())
        with pytest.raises(ConfigurationError):
            check_schedule(bad)

    def test_stage_problems_obey_the_problem_rules(self):
        # each stage scales eps_grad and delta by rho / schedule[0]; a stage
        # whose eps_grad squares to 0 (p < 2) or whose delta underflows to 0
        # (kinked potential) is refused before any solve
        mesh = interval(8, gamma2=("right",))
        for param, spec in (
                ("eps_grad", make_spec(mesh, p=1.8, q=2.0, eps=1e-150, phi=0.1)),
                ("delta", make_spec(mesh, phi=0.1, bnd=boundary_potential(
                    "abs", alpha=0.1, delta=1e-300)))):
            assert len(solver.stages(spec, [1.0, 1e-8], SolverConfig())) == 2
            with pytest.raises(ConfigurationError) as err:
                solver.stages(spec, [1.0, 1e-8, 1e-30], SolverConfig())
            assert err.value.param == param

    def test_stage_problems_share_the_constraint_set(self, monkeypatch):
        # the obstacle does not change along the schedule, nor between the
        # selection rules: no stage or chain problem builds or checks the
        # set again, and each still gets its own regularization
        spec = make_spec(interval(16, gamma2=("right",)), p=1.8, q=2.5, phi=0.05,
                         bnd=boundary_potential("abs", alpha=0.3, delta=1e-3),
                         eps=1e-4)
        K = spec.constraints
        built = []
        real = ConstraintSet.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(ConstraintSet, "__post_init__", counted)
        schedule = [1.0, 0.1, 0.01]
        pairs = solver.stages(spec, schedule, SolverConfig())
        chains = lab._rule_variants(spec, ["lower", "upper"])
        assert not built
        assert all(stage.constraints is K for stage, _ in pairs)
        assert all(chain.constraints is K for _, chain in chains)
        assert [stage.eps_grad for stage, _ in pairs] == [1e-4 * r for r in schedule]
        assert [stage.boundary.delta for stage, _ in pairs] == [
            1e-3 * r for r in schedule]
        assert [chain.reaction.rule for _, chain in chains] == ["lower", "upper"]
        assert spec.eps_grad == 1e-4 and spec.boundary.delta == 1e-3
        for field in ("mesh", "obstacle"):
            with pytest.raises(ValueError):
                spec.derive(**{field: getattr(spec, field)})
        # an unknown field is refused, as by dataclasses.replace
        for make in (spec.derive, lambda **kw: dataclasses.replace(spec, **kw)):
            with pytest.raises(TypeError):
                make(eps=1e-3)

    def test_checked_schedule_is_floats(self):
        assert check_schedule((1, 0.5, 1e-3)) == [1.0, 0.5, 1e-3]

    def test_stage_problems_carry_the_regularization(self):
        # continuation solves hand-built stage problems whose eps_grad and
        # boundary delta shrink with rho / schedule[0]
        mesh = interval(24, gamma2=("right",))
        spec = make_spec(mesh, p=1.8, q=2.5, mu=0.5, phi=0.05,
                         react=reaction("constant", value=4.0),
                         bnd=boundary_potential("abs", alpha=0.3, delta=1e-3),
                         eps=1e-4)
        schedule = [0.5, 0.05, 0.005]
        reports = continuation(spec, schedule, SolverConfig())
        assert [r.converged for r in reports] == [True] * 3
        pairs = solver.stages(spec, schedule, SolverConfig())
        assert [cfg.rho for _, cfg in pairs] == schedule
        assert all(stage.mesh is mesh for stage, _ in pairs)
        state = None
        for rho, report in zip(schedule, reports):
            factor = rho / schedule[0]
            stage = dataclasses.replace(
                spec, eps_grad=1e-4 * factor,
                boundary=dataclasses.replace(spec.boundary, delta=1e-3 * factor))
            ref = solve_penalized(stage, SolverConfig(rho=rho), initial=state)
            assert report.iteration_trace == ref.iteration_trace
            assert _digest(report.solution.values, report.eta) == _digest(
                ref.solution.values, ref.eta)
            state = ref.solution
        # the shrinking regularization is visible in the last stage
        base = solve_penalized(spec, SolverConfig(rho=schedule[-1]),
                               initial=reports[-2].solution)
        assert _digest(base.solution.values) != _digest(reports[-1].solution.values)

    def test_abort_returns_partial_list(self):
        mesh = interval(32)
        spec = make_spec(mesh, p=2.5, q=3.0, mu=lambda x: x, phi=0.02,
                         react=reaction("constant", value=1.0), eps=1e-8)
        cfg = SolverConfig(max_newton=1)
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
        K = spec.constraints
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


_VI_CASES = {
    "1d p=q=2 abs": lambda: make_spec(
        interval(24, gamma2=("right",)), phi=0.05,
        bnd=boundary_potential("abs", alpha=0.5)),
    "1d p>2 nonconvex_well": lambda: make_spec(
        interval(24, gamma2=("left",)), p=3.0, q=4.0,
        mu=lambda x: x, phi=0.05,
        bnd=boundary_potential("nonconvex_well", alpha=0.25, center=0.5)),
    "2d p=q=2 smooth_quadratic": lambda: make_spec(
        rectangle(6, 5, gamma2=("right", "top")), phi=0.05,
        bnd=boundary_potential("smooth_quadratic", alpha=2.0)),
    "2d p>2 abs": lambda: make_spec(
        rectangle(6, 6, gamma2=("right",)), p=2.5, q=3.0,
        mu=lambda x, y: 0.5 + 0.5 * x, phi=0.05,
        bnd=boundary_potential("abs", alpha=0.1)),
    "2d p>2 no gamma2": lambda: make_spec(rectangle(5, 5), p=3.0, q=3.0,
                                          phi=0.05),
}


def _vi_state(spec, seed=0):
    """An admissible state touching the obstacle at some nodes and zero at
    others (kinks of the boundary potentials, zero coefficient for p > 2),
    and a random selection."""
    rng = np.random.default_rng(seed)
    n = spec.mesh.n_nodes
    u = rng.uniform(-0.1, 0.2, n)
    u[rng.random(n) < 0.3] = 0.0
    return spec.constraints.project_values(u), rng.normal(size=n)


def _coordinate_probes(u, bumps):
    """The coordinate probes that the bump states stand for: ``u`` with node
    ``i`` replaced by ``b_i``, for every state ``b`` and node ``i``."""
    probes = []
    for b in bumps:
        for i in range(u.size):
            v = u.copy()
            v[i] = b[i]
            probes.append(v)
    return probes


def _family_scale(spec, u, eta, family):
    """The family's largest |value|, probe by probe through the frozen loop."""
    return max(abs(reference_vi_residual(spec, u, eta, [v])) for v in family)


def _reference_values(spec, u, eta, family):
    """The frozen loop's value of each probe, under the certificate's kink
    rule: where a kinked potential's Gamma_2 trace lies inside
    ``spec.boundary.delta``, the value moves by the change of its ``j°``
    term when that trace is taken as 0."""
    g = spec.mesh.gamma2_nodes
    s = u[g]
    at = s if spec.boundary.smooth else np.where(np.abs(s) < spec.boundary.delta, 0.0, s)
    bw = spec.mesh.gamma2_weights[g]
    j0 = spec.boundary.clarke_directional
    return [reference_vi_residual(spec, u, eta, [v])
            + np.sum(bw * (j0(at, v[g] - s) - j0(s, v[g] - s))) for v in family]


def _assert_close(spec, u, eta, probes, bumps=()):
    """``vi_residual`` on ``(probes, bumps)`` against the frozen loop on the
    full family (the probes, then the coordinate probes of the bump states),
    under the kink rule of :func:`_reference_values`: equal to 1e-12 of the
    family's largest |value|.  Returns both values."""
    u_vals = u.values if isinstance(u, DiscreteFunction) else u
    family = [v.values if isinstance(v, DiscreteFunction) else np.asarray(v, float)
              for v in probes] + _coordinate_probes(u_vals, bumps)
    new = vi_residual(spec, u, eta, probes, bumps)
    values = _reference_values(spec, u_vals, eta, family)
    ref = min(values)
    assert abs(new - ref) <= 1e-12 * max(map(abs, values))
    return new, ref


class TestInequalityResidualLoopReference:
    """``vi_residual`` against the per-probe full-element loop in ``conftest``
    on the same probe family, to 1e-12 of the family's largest |value|: the
    nodal sum ``a . d`` groups the operator pairing differently from the
    element sum."""

    @pytest.mark.parametrize("case", sorted(_VI_CASES))
    def test_documented_probe_family(self, case):
        spec = _VI_CASES[case]()
        K = spec.constraints
        u, eta = _vi_state(spec)
        family = reference_probe_set(spec, K, u, 3, 0.01, 8)
        # the family holds unchanged probes (Dirichlet bumps and bumps
        # clipped at the obstacle), coordinate probes and dense probes
        support = {min(np.count_nonzero(v - u), 2) for v in family}
        assert support == {0, 1, 2}
        clipped = [i for i in np.flatnonzero(~spec.mesh.dirichlet_mask)
                   if u[i] == spec.obstacle.values[i]]
        assert clipped
        # the two bump states hold the same family, bit for bit: the
        # frozen order interleaves +scale and -scale node by node
        probes, bumps = lab._probe_set(K, u, 3, 0.01, 8)
        plus, minus = np.split(np.array(_coordinate_probes(probes[0], bumps)), 2)
        rebuilt = [probes[0], *np.stack([plus, minus], axis=1).reshape(-1, u.size),
                   *probes[1:]]
        assert np.array(rebuilt).tobytes() == np.array(family).tobytes()
        new = vi_residual(spec, probes[0], eta, probes, bumps)
        ref = reference_vi_residual(spec, u, eta, family)
        assert abs(new - ref) <= 1e-12 * _family_scale(spec, u, eta, family)

    @pytest.mark.parametrize("case", sorted(_VI_CASES))
    def test_unchanged_probes_give_the_same_zero(self, case):
        spec = _VI_CASES[case]()
        K = spec.constraints
        u, eta = _vi_state(spec)
        bumped = []
        for i in range(spec.mesh.n_nodes):
            v = u.copy()
            v[i] += 0.01
            v = K.project_values(v)
            if np.array_equal(v, u):
                bumped.append(v)
        assert bumped
        zero = float.hex(0.0)
        assert float.hex(vi_residual(spec, u, eta, bumped)) == zero
        assert float.hex(reference_vi_residual(spec, u, eta, bumped)) == zero

    @pytest.mark.parametrize("case", sorted(_VI_CASES))
    def test_an_exact_zero_is_positive(self, case):
        # u itself, as an explicit probe and as every coordinate probe of
        # the bump state u: each term is a_i * 0.0, and a strong selection
        # makes every a_i negative, so every term off Gamma_2 is -0.0
        spec = _VI_CASES[case]()
        u, _ = _vi_state(spec)
        eta = np.full(u.size, 1e6)
        a = assembly.operator_residual(spec, u) - spec.mesh.node_volume_weights * eta
        assert np.all(a < 0)
        for probes, bumps in (([u], ()), ([], [u]), ([u], [u])):
            value = vi_residual(spec, u, eta, probes, bumps)
            assert float.hex(value) == float.hex(0.0)

    @pytest.mark.parametrize("case", sorted(_VI_CASES))
    def test_single_coordinate_and_dense_probes(self, case):
        spec = _VI_CASES[case]()
        K = spec.constraints
        u, eta = _vi_state(spec, seed=1)
        rng = np.random.default_rng(2)
        free = np.flatnonzero(~spec.mesh.dirichlet_mask)
        for i in free:
            v = u.copy()
            v[i] -= 0.03
            _assert_close(spec, u, eta, [v])
        # the same coordinate probes as one bump state
        lowered = u.copy()
        lowered[free] -= 0.03
        _assert_close(spec, u, eta, [u], bumps=[lowered])
        for _ in range(5):
            v = K.project_values(u + 0.02 * rng.normal(size=u.size))
            _assert_close(spec, u, eta, [v])

    def test_study_candidates(self, monkeypatch):
        seen = []

        def checked(spec, u, eta, probes, bumps):
            new, _ = _assert_close(spec, u, eta, probes, bumps)
            seen.append(new)
            return new

        monkeypatch.setattr(lab, "vi_residual", checked)
        schedule = [10.0 ** -k for k in range(7)]
        for case in sorted(_VI_CASES):
            spec = dataclasses.replace(
                _VI_CASES[case](), reaction=reaction("interval", lo=0.5, hi=8.0))
            lab.kuratowski_study(spec, schedule, SolverConfig(), n_starts=2,
                                 selection_rules=["lower", "upper"], seed=1,
                                 n_random_probes=8)
        # two distinct limits per case, some certified at exactly zero
        assert len(seen) == 2 * len(_VI_CASES)
        assert float.hex(0.0) in map(float.hex, seen)

    def test_shuffled_family(self):
        # unchanged, coordinate and dense probes in no particular order, some
        # twice
        spec = _VI_CASES["2d p>2 abs"]()
        u, eta = _vi_state(spec, seed=4)
        family = reference_probe_set(spec, spec.constraints, u, 5, 0.01, 8)
        order = np.random.default_rng(6).permutation(len(family))
        _assert_close(spec, u, eta, [family[i] for i in order] + family[:38])

    def test_study_size_probe_family(self):
        # the 1,089-node case of the study benchmark
        spec = make_spec(
            rectangle(32, 32, gamma2=("right",)), p=2.5, q=3.0,
            mu=lambda x, y: 0.5 + 0.5 * x, phi=lambda x, y: 0.05 + 0.1 * x,
            bnd=boundary_potential("abs", alpha=0.1))
        u, eta = _vi_state(spec, seed=3)
        probes, bumps = lab._probe_set(spec.constraints, u, 0, 0.01, 32)
        assert len(probes) + bumps.size == 1 + 2 * 1089 + 32
        _assert_close(spec, u, eta, probes, bumps)

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    def test_long_natural_boundary_dense_probes(self, alpha):
        # 97 nodes on the natural boundary part and dense probes, half of
        # them moving only the traces there, so the boundary sums are long
        # and, with a strong potential, do not vanish in the rounding of the
        # operator term.  Each probe is certified alone and as a stack of
        # four equal rows
        spec = make_spec(
            rectangle(32, 32, gamma2=("right", "top", "bottom")), p=2.5, q=3.0,
            mu=lambda x, y: 0.5 + 0.5 * x, phi=0.05,
            bnd=boundary_potential("abs", alpha=alpha))
        gamma2 = spec.mesh.gamma2_nodes
        assert gamma2.size == 97
        K = spec.constraints
        u, eta = _vi_state(spec, seed=7)
        rng = np.random.default_rng(8)
        probes = []
        for k in range(40):
            v = u.copy()
            if k % 2:
                v[gamma2] += 0.05 * rng.normal(size=gamma2.size)
            else:
                v += 0.05 * rng.normal(size=u.size)
            probes.append(K.project_values(v))
        for v in probes:
            for stack in ([v], [v] * 4):
                _assert_close(spec, u, eta, stack)
        _assert_close(spec, u, eta, probes)

    @pytest.mark.parametrize("case", ["1d p=q=2 abs", "2d p>2 abs",
                                      "1d p>2 nonconvex_well"])
    def test_coordinate_bump_at_the_kink(self, case):
        # s = 0 on the natural boundary part: the directional derivative of
        # abs / nonconvex_well takes its |t| branch there
        spec = _VI_CASES[case]()
        K = spec.constraints
        u, eta = _vi_state(spec, seed=2)
        gamma2 = spec.mesh.gamma2_nodes
        u[gamma2[::2]] = 0.0
        probes = []
        for i in gamma2:
            for bump in (0.01, -0.01):
                v = u.copy()
                v[i] += bump
                probes.append(K.project_values(v))
        assert any(u[i] == 0.0 and not np.array_equal(v, u)
                   for i, v in zip(np.repeat(gamma2, 2), probes))
        _assert_close(spec, u, eta, probes)
        for v in probes:
            _assert_close(spec, u, eta, [v])
        bumps = K.project_values(np.array([u + 0.01, u - 0.01]))
        _assert_close(spec, u, eta, [u], bumps)

    @pytest.mark.parametrize("case", ["1d p=q=2 abs", "1d p>2 nonconvex_well"])
    @pytest.mark.parametrize("delta", [1e-6, 1e-12])
    def test_trace_in_the_kink_band_is_certified_at_the_kink(self, case, delta):
        # a trace inside the problem's smoothing band, |s| < delta, takes the
        # kink's j°; one on or outside its edge keeps its own
        base = _VI_CASES[case]()
        spec = base.derive(boundary=dataclasses.replace(base.boundary, delta=delta))
        K = spec.constraints
        u, eta = _vi_state(spec, seed=2)
        (g,) = spec.mesh.gamma2_nodes
        for trace, snapped in ((0.5 * delta, True), (-0.99 * delta, True),
                               (delta, False), (-2.0 * delta, False)):
            u[g] = trace
            probes = [K.project_values(u + bump * (np.arange(u.size) == g))
                      for bump in (0.01, -0.01)]
            new, _ = _assert_close(spec, u, eta, probes)
            # the one-sided j° at the trace itself reads lower
            if snapped:
                assert new - reference_vi_residual(spec, u, eta, probes) > 1e-3

    def test_smooth_potential_keeps_a_small_trace(self):
        # a smooth potential has no kink: its trace is never snapped
        spec = _VI_CASES["1d p=q=2 abs"]()
        spec = spec.derive(boundary=boundary_potential("smooth_quadratic", alpha=10.0))
        K = spec.constraints
        u, eta = _vi_state(spec, seed=2)
        (g,) = spec.mesh.gamma2_nodes
        u[g] = 0.5 * spec.boundary.delta
        probes = [K.project_values(u + bump * (np.arange(u.size) == g))
                  for bump in (0.01, -0.01)]
        _assert_close(spec, u, eta, probes)

    def test_functions_and_arrays_mixed(self):
        spec = _VI_CASES["1d p>2 nonconvex_well"]()
        mesh = spec.mesh
        u, eta = _vi_state(spec, seed=5)
        family = reference_probe_set(spec, spec.constraints, u, 1, 0.02, 6)
        probes = [DiscreteFunction(mesh, v) if k % 3 == 0 else
                  v.tolist() if k % 3 == 1 else v
                  for k, v in enumerate(family)]
        _assert_close(spec, DiscreteFunction(mesh, u), eta, probes)

    def test_error_paths(self):
        spec = _VI_CASES["2d p>2 abs"]()
        u, eta = _vi_state(spec)
        late = [u] * 133 + [u + 1.0]
        for probes, message in (([u, u + 1.0], "not admissible"),
                                (late, "not admissible"),
                                ([], "nonempty"), ((), "nonempty")):
            for fn in (vi_residual, reference_vi_residual):
                with pytest.raises(ConfigurationError, match=message):
                    fn(spec, u, eta, probes)
        # an inadmissible bump state, or u outside the set (every coordinate
        # probe of a bump state carries u's other entries), and bump states
        # without explicit probes
        outside = u.copy()
        outside[np.flatnonzero(spec.mesh.dirichlet_mask)[0]] = 1.0
        for at, bump in ((u, u + 1.0), (outside, u)):
            with pytest.raises(ConfigurationError, match="not admissible"):
                vi_residual(spec, at, eta, [u], bumps=[bump])
        assert vi_residual(spec, outside, eta, [u]) > -np.inf
        assert vi_residual(spec, u, eta, [], bumps=[u]) == 0.0


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.rho == 1.0
        assert cfg.newton_tol == 1e-10
        assert cfg.max_newton == 100
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "rho", "newton_tol", "max_newton"]

    @pytest.mark.parametrize("field,value", [
        ("newton_tol", 0.0), ("newton_tol", -1e-10), ("newton_tol", float("nan")),
        ("max_newton", 0), ("max_newton", 2.5), ("rho", 0.0),
        ("rho", float("inf")), ("rho", float("nan")), ("newton_tol", float("inf")),
    ])
    def test_rules_name_their_field(self, field, value):
        with pytest.raises(ConfigurationError) as err:
            SolverConfig(**{field: value})
        assert err.value.param == field

    def test_least_values_accepted(self):
        cfg = SolverConfig(max_newton=1, newton_tol=1e-300)
        assert cfg.max_newton == 1
        # numpy integers count as integers
        assert SolverConfig(max_newton=np.int64(3)).max_newton == 3

    def test_frozen_dataclass_replace(self):
        cfg = SolverConfig()
        cfg2 = dataclasses.replace(cfg, rho=0.5)
        assert cfg2.rho == 0.5 and cfg.rho == 1.0
