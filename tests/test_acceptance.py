"""Release acceptance suite.

One test per release criterion, each at its stated tolerance and with a
runtime guard; the terminal hook in conftest prints one PASS/FAIL line per
criterion after the run.
"""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assert_oracle_kkt,
    interval,
    lumped_norm,
    make_spec,
    phase,
    random_function,
    rectangle,
    reference_enumeration_oracle,
)
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.cli import main
from dpobstacle.lab import kuratowski_study, nearest_point_trace, qp_oracle, validate_hypotheses
from dpobstacle.musielak import luxemburg_norm, modular
from dpobstacle.assembly import (apply_operator, operator_energy, operator_jacobian,
                                 operator_residual, reaction_term)
from dpobstacle.solver import SolverConfig, continuation

DESCRIPTIONS = {
    "test_criterion_1_modular_norm_relations":
        "norm/modular unit-ball relations and homogeneity on 200 random "
        "functions per regime at 1e-9",
    "test_criterion_2_operator_consistency":
        "operator matches energy differences at 1e-5, Jacobian symmetric to "
        "1e-12, monotone on 500 pairs, exact linear stiffness",
    "test_criterion_3_oracle_equivalence":
        "20 random linear instances: continuation matches the active-set "
        "oracle at 1e-6; the oracle meets KKT and matches enumeration at 1e-12",
    "test_criterion_4_contact_chain":
        "contact chain: violation slope >= 0.9, monotone tail distances, "
        "certified limit candidate",
    "test_criterion_5_double_phase_chain":
        "nonlinear two-phase chain: every stage converges, limit certified "
        "at 1e-6 and capped by the obstacle",
    "test_criterion_6_nonsmooth_boundary":
        "abs-boundary continuation limits: recovered flux in the Clarke "
        "interval (alpha sign(trace) at 1e-8 off the kink, within alpha at "
        "it); directional derivative subadditivity exact on dyadic samples",
    "test_criterion_7_hypothesis_validator":
        "first Poincare constant within 2 percent; smallness arithmetic "
        "cases pass/fail exactly",
    "test_criterion_8_study_determinism":
        "repeated study runs with one config and seed are byte-identical",
}

SCHEDULE_9 = [10.0 ** -k for k in range(9)]
SCHEDULE_11 = [10.0 ** -k for k in range(11)]


def test_criterion_1_modular_norm_relations():
    start = time.perf_counter()
    tol = 1e-9
    mesh = interval(16)
    rng = np.random.default_rng(42)
    scales = [0.03, 2.7, -1.3, 17.0]
    for of_gradient in (False, True):
        below = above = 0
        for k in range(200):
            p = rng.uniform(1.3, 3.0)
            q = p + rng.uniform(0.0, 1.5)
            mu = rng.uniform(0.0, 2.0)
            cfg = phase(mesh, p=p, q=q, mu=mu)
            amp = 10.0 ** rng.uniform(-1.5, 0.5)
            f = random_function(mesh, rng, scale=amp, masked=of_gradient)
            lam = luxemburg_norm(f, cfg, of_gradient=of_gradient)
            rho = modular(f, cfg, of_gradient=of_gradient).value
            assert lam > 0.0 and rho > 0.0
            # (i) the norm and the modular sit on the same side of one
            if rho > 1.0 + tol:
                above += 1
                assert lam > 1.0 - tol
            elif rho < 1.0 - tol:
                below += 1
                assert lam < 1.0 + tol
            # (ii)/(iii) the power squeeze between modular and norm
            if lam <= 1.0:
                assert lam ** q - tol <= rho <= lam ** p + tol
            else:
                assert lam ** p - tol <= rho <= lam ** q + tol
            # (iv) scaling to the unit sphere gives a unit modular
            unit = modular(
                f.__class__(mesh, f.values / lam), cfg,
                of_gradient=of_gradient).value
            assert abs(unit - 1.0) <= tol
            # homogeneity, relative tolerance
            c = scales[k % len(scales)]
            scaled = luxemburg_norm(
                f.__class__(mesh, c * f.values), cfg,
                of_gradient=of_gradient)
            assert abs(scaled - abs(c) * lam) <= tol * abs(c) * lam
        assert below >= 10 and above >= 10  # both regimes genuinely sampled
    assert time.perf_counter() - start < 5.0


def test_criterion_2_operator_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    step = 1e-6
    for mesh in (interval(16), rectangle(4, 4)):
        for k in range(50):
            p = rng.uniform(2.0, 3.2)
            q = p + rng.uniform(0.0, 1.0)
            spec = make_spec(mesh, p=p, q=q, mu=rng.uniform(0.0, 1.5))
            u = random_function(mesh, rng).values
            v = random_function(mesh, rng).values
            fd = (operator_energy(spec, u + step * v)
                  - operator_energy(spec, u - step * v)) / (2.0 * step)
            assert abs(apply_operator(spec, u, v) - fd) <= 1e-5
            if k < 5:
                J = operator_jacobian(spec, u)
                assert abs(J - J.T).max() <= 1e-12
    mono = make_spec(interval(10), p=2.6, q=3.1, mu=lambda x: x, eps=1e-8)
    for _ in range(500):
        u = random_function(mono.mesh, rng).values
        v = random_function(mono.mesh, rng).values
        gap = float(np.dot(operator_residual(mono, u)
                           - operator_residual(mono, v), u - v))
        assert gap >= -1e-12
    n = 64
    lin = make_spec(interval(n), p=2.0, q=2.0, mu=0.0)
    u = np.linspace(-1.0, 1.0, lin.mesh.n_nodes) ** 2
    h = 1.0 / n
    T = (np.diag(np.full(lin.mesh.n_nodes, 2.0 / h))
         + np.diag(np.full(lin.mesh.n_nodes - 1, -1.0 / h), 1)
         + np.diag(np.full(lin.mesh.n_nodes - 1, -1.0 / h), -1))
    T[0, 0] = T[-1, -1] = 1.0 / h
    assert np.max(np.abs(operator_jacobian(lin, u).toarray() - T)) == 0.0
    assert time.perf_counter() - start < 30.0


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        source = float(rng.uniform(2.0, 10.0))
        # alternate binding and slack obstacle levels
        level = (float(rng.uniform(0.02, 0.5)) if k % 2
                 else float(rng.uniform(0.4, 1.5)))
        mesh = interval(12)
        spec = make_spec(mesh, p=2.0, q=2.0, mu=0.0, phi=level,
                         react=reaction("constant", value=source))
        assert np.count_nonzero(~mesh.dirichlet_mask) <= 14
        sol = qp_oracle(spec)
        assert_oracle_kkt(spec, sol.values, sol.multipliers)
        enum = reference_enumeration_oracle(spec)
        assert np.max(np.abs(sol.values - enum.values)) <= 1e-12
        assert np.max(np.abs(sol.multipliers - enum.multipliers)) <= 1e-12
        last = continuation(spec, SCHEDULE_9, SolverConfig())[-1]
        assert last.converged
        assert lumped_norm(mesh, last.solution.values - sol.values) <= 1e-6
    assert time.perf_counter() - start < 60.0


def test_continuation_converges_to_the_oracle_at_order_rho():
    # a linear 2D case on 4,225 nodes, beyond any enumeration: the penalty
    # limits approach the active-set oracle in the sup norm at O(rho)
    # (8.0e-3, 8.0e-4, ..., 8.0e-8 for rho = 1e-3 ... 1e-8)
    start = time.perf_counter()
    spec = make_spec(rectangle(64, 64), p=2.0, q=2.0,
                     mu=lambda x, y: 0.5 + 0.5 * x,
                     phi=lambda x, y: 0.05 + 0.1 * x,
                     react=reaction("constant", value=8.0))
    sol = qp_oracle(spec)
    assert_oracle_kkt(spec, sol.values, sol.multipliers)
    assert sol.active.size > 0
    runs = continuation(spec, SCHEDULE_9, SolverConfig())
    assert all(r.converged for r in runs)
    tail = [(r.rho, np.max(np.abs(r.solution.values - sol.values)))
            for r in runs if r.rho <= 1e-3]
    assert len(tail) == 6
    for rho, err in tail:
        assert err <= 10.0 * rho
    for (_, prev), (_, err) in zip(tail, tail[1:]):
        assert 9.0 <= prev / err <= 11.0
    assert time.perf_counter() - start < 30.0


def test_criterion_4_contact_chain():
    start = time.perf_counter()
    spec = make_spec(interval(64), p=2.0, q=2.0, mu=0.0, phi=0.5,
                     react=reaction("constant", value=8.0))
    diag = kuratowski_study(spec, SCHEDULE_11, SolverConfig(),
                            n_starts=2, seed=0)
    rhos = np.asarray(diag.rhos)
    sup = np.asarray(diag.violation_sup)
    window = (rhos <= 1e-4) & (rhos >= 1e-8)
    assert np.all(sup[window] > 0.0)
    slope = np.polyfit(np.log10(rhos[window]), np.log10(sup[window]), 1)[0]
    assert slope >= 0.9
    tail = [d for d in diag.chain_distances if np.isfinite(d)][-4:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert diag.candidates
    best = max(diag.candidates, key=lambda c: c.vi_value)
    assert best.vi_value >= -1e-8
    assert np.all(best.solution.values <= 0.5 + 1e-6)
    trace = nearest_point_trace(diag, best.solution.values)
    assert trace[-1][2] < 1e-5
    assert time.perf_counter() - start < 60.0


def test_criterion_5_double_phase_chain():
    start = time.perf_counter()
    spec = make_spec(interval(64), p=2.5, q=3.0, mu=lambda x: x, phi=0.05,
                     react=reaction("constant", value=1.0), eps=1e-8)
    reports = continuation(spec, SCHEDULE_9, SolverConfig())
    assert len(reports) == len(SCHEDULE_9)
    assert all(r.converged for r in reports)
    final = reports[-1].solution.values
    assert np.all(final <= 0.05 + 10.0 * SCHEDULE_9[-1])
    diag = kuratowski_study(spec, SCHEDULE_9, SolverConfig(),
                            n_starts=2, seed=3)
    assert diag.candidates
    best = max(diag.candidates, key=lambda c: c.vi_value)
    assert best.vi_value >= -1e-6
    assert best.probe_count == 1 + 2 * spec.mesh.n_nodes + 32
    assert time.perf_counter() - start < 120.0


def _rational_directional(lo, hi, t):
    return max(lo * t, hi * t)


def _check_exact_subadditivity(entry, interval_of, rng):
    """Zero-tolerance subadditivity on dyadic samples, recertified with
    exact rational arithmetic."""
    k = rng.integers(-(2 ** 20), 2 ** 20, size=(1000, 3))
    s, t1, t2 = (k * 2.0 ** -19).T.copy()
    s[::4] = 0.0  # force the kink of the generalized gradient
    lhs = entry.clarke_directional(s, t1 + t2)
    rhs = entry.clarke_directional(s, t1) + entry.clarke_directional(s, t2)
    assert np.all(lhs <= rhs)  # no floating-point slack
    for sv, a, b, lv, rv in zip(s, t1, t2, lhs, rhs):
        lo, hi = interval_of(Fraction(sv))
        aF, bF = Fraction(a), Fraction(b)
        exact_l = _rational_directional(lo, hi, aF + bF)
        exact_r = (_rational_directional(lo, hi, aF)
                   + _rational_directional(lo, hi, bF))
        assert exact_l <= exact_r
        # the float evaluation agreed with exact rational arithmetic
        assert Fraction(float(lv)) == exact_l
        assert Fraction(float(rv)) == exact_r


def _abs_boundary_limit(alpha):
    """Trace and recovered boundary flux at the free right end of the 1D
    contact continuation limit with the potential ``alpha |s|``.  The flux is
    whatever the operator and the load leave unbalanced in the last row."""
    spec = make_spec(interval(64, gamma2=("right",)), p=2.0, q=2.0, mu=0.0,
                     phi=0.1, react=reaction("constant", value=4.0),
                     bnd=boundary_potential("abs", alpha=alpha))
    rep = continuation(spec, SCHEDULE_9, SolverConfig())[-1]
    assert rep.converged and rep.rho == SCHEDULE_9[-1]
    u = rep.solution.values
    flux = -(operator_residual(spec, u) + reaction_term(spec, u)[0])[-1]
    return u[-1], flux


def test_criterion_6_nonsmooth_boundary(tmp_path):
    start = time.perf_counter()
    # off the kink the generalized gradient is the single value alpha sign(s)
    trace, flux = _abs_boundary_limit(0.1)
    assert abs(trace) > 1e-2
    assert abs(flux - 0.1 * np.sign(trace)) <= 1e-8
    # a large alpha pins the trace at the kink, where the flux may lie
    # anywhere in the Clarke interval [-alpha, alpha]
    trace, flux = _abs_boundary_limit(10.0)
    assert abs(trace) <= 1e-8
    assert abs(flux) <= 10.0

    alpha = Fraction(1, 4)
    center = Fraction(1, 2)

    def abs_interval(sF):
        if sF == 0:
            return -alpha, alpha
        g = alpha if sF > 0 else -alpha
        return g, g

    def well_interval(sF):
        if sF == 0:
            return -alpha * center, alpha * center
        g = alpha * (sF - center) if sF > 0 else alpha * (sF + center)
        return g, g

    _check_exact_subadditivity(
        boundary_potential("abs", alpha=0.25), abs_interval,
        np.random.default_rng(7))
    _check_exact_subadditivity(
        boundary_potential("nonconvex_well", alpha=0.25, center=0.5),
        well_interval, np.random.default_rng(8))
    assert time.perf_counter() - start < 60.0


def test_criterion_7_hypothesis_validator():
    start = time.perf_counter()
    base = make_spec(interval(64), p=2.0, q=2.0, mu=0.0,
                     react=reaction("constant", value=1.0))
    report = validate_hypotheses(base)
    target = 1.0 / np.pi
    assert abs(report.lambda1_est - target) <= 0.02 * target
    assert report.lambda1_certified
    # every growth exponent strictly below p: the sum vanishes and passes
    assert report.smallness_lhs == 0.0
    assert report.passes
    # gradient-growth coefficient 2 at the critical exponent: fails at 2
    critical = dataclasses.replace(
        base, reaction=reaction("constant", value=1.0).with_growth(e_f=2.0, theta2=2.0))
    rep_b = validate_hypotheses(critical)
    assert rep_b.smallness_lhs == 2.0
    assert not rep_b.passes
    # exponent above p: inadmissible growth is flagged and fails
    super_crit = dataclasses.replace(
        base, reaction=reaction("constant", value=1.0).with_growth(theta2=2.5))
    rep_c = validate_hypotheses(super_crit)
    assert not rep_c.passes
    assert any("exceeds" in n or "above" in n for n in rep_c.notes)
    assert time.perf_counter() - start < 10.0


STUDY_CONFIG = """\
[mesh]
dim = 1
n = 16

[phase]
p = 2
q = 2

[obstacle]
phi = 0.5

[reaction]
name = constant
value = 8

[solver]
schedule = 1, 1e-1, 1e-2, 1e-3, 1e-4

[study]
n_starts = 2
seed = 11
"""


def test_criterion_8_study_determinism(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_CONFIG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["study", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["study", "--config", str(cfg), "--out", str(out2)]) == 0
    assert ((out1 / "study.csv").read_bytes()
            == (out2 / "study.csv").read_bytes())
    assert ((out1 / "study.json").read_bytes()
            == (out2 / "study.json").read_bytes())
    # the outputs are traceable to their inputs
    meta = json.loads((out1 / "study.json").read_text())
    assert len(meta["config_sha256"]) == 64
    assert meta["seed"] == 11
