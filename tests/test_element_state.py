"""The explicit element kernels and the element state, byte for byte against
the frozen ``einsum`` / ``np.sum`` forms they replaced (``tests/conftest.py``).

The states cover the values a solve can reach: finite ones of every scale,
signed zeros, ``+-inf`` (whose sums make NaN), NaN itself and the 1e160
heights of the loop reference, whose squares overflow.  A state holds NaN or
infinities, not both: where a NaN of the state meets one made by ``inf -
inf`` (the two differ in their sign bit), which of them propagates is up to
numpy's loops, in the kernels and in ``einsum`` alike.
"""

import numpy as np
import pytest

from conftest import (PATTERN_MESHES, assert_same_system,
                      einsum_coef, einsum_element_gradients, einsum_gradient_pairings,
                      einsum_gradient_state, einsum_operator_residual, interval,
                      make_spec, rectangle, reference_assemble_system, shuffled,
                      _reference_grad_p_norm_gradient, _reference_p_norm_gradient)
from dpobstacle import assembly, lab
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.meshing import DiscreteFunction, Mesh, element_dots
from dpobstacle.musielak import _modular_parts

def jittered(nx, ny, seed):
    """A rectangle mesh with its interior nodes moved, so that the gradient
    maps of the interior elements hold no zero entry and the order of a
    three-term node sum shows in its rounding."""
    mesh = rectangle(nx, ny)
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes.copy()
    inner = ~mesh.dirichlet_mask
    nodes[inner] += rng.uniform(-0.3, 0.3, (int(inner.sum()), 2)) / max(nx, ny)
    p0, p1, p2 = (nodes[mesh.elements[:, a]] for a in range(3))
    e1, e2 = p1 - p0, p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv = np.stack([np.stack([e2[:, 1], -e1[:, 1]], 1),
                    np.stack([-e2[:, 0], e1[:, 0]], 1)], 1) / det[:, None, None]
    grads = inv @ np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    return Mesh(dim=2, nodes=nodes, elements=mesh.elements,
                boundary_faces=mesh.boundary_faces, element_volumes=0.5 * np.abs(det),
                gradient_maps=grads)


KERNEL_MESHES = {
    "interval": lambda: interval(17, gamma2=("right",)),
    "rectangle": lambda: rectangle(9, 7, gamma2=("right", "top")),
    "shuffled": lambda: shuffled(rectangle(8, 6, gamma2=("left",)), 3),
    "jittered": lambda: jittered(9, 7, 4),
}


def _states(mesh):
    """Named nodal states of ``mesh``."""
    rng = np.random.default_rng(11)
    n = mesh.n_nodes
    x = mesh.nodes[:, 0]
    bump = np.sin(np.pi * x)
    if mesh.dim == 2:
        bump = bump * np.sin(np.pi * mesh.nodes[:, 1])
    scales = 10.0 ** rng.integers(-300, 300, n)
    signed_zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    inf = rng.normal(size=n)
    inf[rng.choice(n, n // 4, replace=False)] = np.inf
    inf[rng.choice(n, n // 4, replace=False)] = -np.inf
    nan = rng.normal(size=n)
    nan[rng.choice(n, n // 3, replace=False)] = np.nan
    return {
        "normal": rng.normal(size=n),
        "scales": rng.normal(size=n) * scales,
        "signed_zero": signed_zero,
        "zero": np.zeros(n),
        "inf": inf,
        "nan": nan,
        "bump_1e160": 1e160 * bump,
        "huge": rng.choice([1e160, -1e160, 1.0, -0.0], n),
    }


def _bytes(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestKernels:
    @pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
    def test_gradients_norms_and_pairings_are_the_einsum_forms(self, mesh_name):
        mesh = KERNEL_MESHES[mesh_name]()
        rng = np.random.default_rng(5)
        for name, vals in _states(mesh).items():
            g = mesh.element_gradients(vals)
            ref = einsum_element_gradients(mesh, vals)
            assert g.shape == ref.shape
            assert _bytes(g) == _bytes(ref), name
            assert _bytes(element_dots(g, g)) == _bytes(np.sum(ref * ref, axis=1)), name
            assert (_bytes(mesh.gradient_pairings(g))
                    == _bytes(einsum_gradient_pairings(mesh, ref))), name
            # C-ordered input and a second factor of another state
            other = np.ascontiguousarray(rng.normal(size=g.shape) * 1e3)
            assert (_bytes(mesh.gradient_pairings(other))
                    == _bytes(einsum_gradient_pairings(mesh, other))), name
            assert (_bytes(element_dots(g, other))
                    == _bytes(np.sum(ref * other, axis=1))), name

    def test_an_all_negative_zero_sum_reads_positive_zero(self):
        # einsum starts its sums at +0.0; a sum of -0.0 terms would be -0.0
        mesh = rectangle(2, 2)
        vals = np.full(mesh.n_nodes, -0.0)
        vals[mesh.elements[0, 0]] = 0.0
        g = mesh.element_gradients(vals)
        assert _bytes(g) == _bytes(einsum_element_gradients(mesh, vals))
        assert not np.any(np.signbit(g))
        minus = np.full((mesh.n_elements, 2), -0.0)
        assert not np.any(np.signbit(mesh.gradient_pairings(minus)))
        assert not np.any(np.signbit(element_dots(minus, np.ones_like(minus))))

    def test_mixed_nan_kinds_agree_up_to_which_nan(self):
        mesh = rectangle(9, 7)
        vals = np.random.default_rng(2).choice([np.inf, -np.inf, np.nan, 1.0],
                                               mesh.n_nodes)
        with np.errstate(all="ignore"):
            g = mesh.element_gradients(vals)
            ref = einsum_element_gradients(mesh, vals)
        assert np.array_equal(g, ref, equal_nan=True)
        assert np.array_equal(np.signbit(g) | np.isnan(g), np.signbit(ref) | np.isnan(ref))

    def test_the_jittered_maps_have_no_zero_entry(self):
        mesh = jittered(9, 7, 4)
        interior = np.all(~mesh.dirichlet_mask[mesh.elements], axis=1)
        assert interior.sum() > 50
        assert np.all(mesh.gradient_maps[interior] != 0.0)

    def test_gradient_maps_are_stored_once(self):
        mesh = rectangle(5, 4)
        assert mesh.gradient_maps.base is mesh.gradient_components
        assert mesh.gradient_components.flags.c_contiguous
        assert mesh.gradient_gram.flags.c_contiguous


# p = 2 (0^0 = 1 at a vanishing gradient), p > 2 at a vanishing gradient with
# eps_grad = 0 (coefficient 0, rank-one factor 0 / 0 -> 0), eps_grad > 0
STATE_SPECS = {
    "p2": dict(p=2.0, q=2.0, mu=0.0),
    "p2_q4": dict(p=2.0, q=4.0, mu=lambda *x: 0.5 + 0.5 * x[0]),
    "p2.5_eps0": dict(p=2.5, q=3.0, mu=lambda *x: 0.5 + 0.5 * x[0]),
    "p2.5_eps": dict(p=2.5, q=3.0, mu=lambda *x: 0.5 + 0.5 * x[0], eps=1e-3),
    "p1.5_eps": dict(p=1.5, q=2.5, mu=0.25, eps=1e-8),
}


def _state_specs(mesh):
    for name, kw in STATE_SPECS.items():
        yield name, make_spec(mesh, phi=0.05, react=reaction("constant", value=3.0),
                              bnd=boundary_potential("abs", alpha=0.1), **kw)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestElementState:
    @pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
    def test_state_and_residual_are_the_einsum_forms(self, mesh_name):
        mesh = KERNEL_MESHES[mesh_name]()
        for spec_name, spec in _state_specs(mesh):
            p, q = spec.phase.p, spec.phase.q
            for name, vals in _states(mesh).items():
                state = assembly._gradient_state(spec, vals)
                grads, ge, g2 = einsum_gradient_state(spec, vals)
                with np.errstate(divide="ignore"):
                    powers = (ge ** (p - 2.0), ge ** (q - 2.0))
                label = f"{spec_name}/{name}"
                assert _bytes(state.g2, state.cp, state.cq) == _bytes(g2, *powers), label
                assert _bytes(state.coef) == _bytes(einsum_coef(spec, ge)), label
                assert _bytes(state.Gg) == _bytes(einsum_gradient_pairings(mesh, grads)), label
                assert (_bytes(assembly.operator_residual(spec, vals))
                        == _bytes(einsum_operator_residual(spec, vals))), label

    def test_vanishing_gradient_coefficients(self):
        mesh = rectangle(4, 4)
        zero = np.zeros(mesh.n_nodes)
        specs = dict(_state_specs(mesh))
        assert np.all(assembly._gradient_state(specs["p2"], zero).coef == 1.0)
        state = assembly._gradient_state(specs["p2.5_eps0"], zero)
        assert np.all(state.cp == 0.0) and np.all(state.coef == 0.0)
        assert np.all(assembly._gradient_state(specs["p2.5_eps"], zero).g2 == 1e-6)

    @pytest.mark.parametrize("mesh_fn", PATTERN_MESHES)
    def test_systems_are_the_matrix_algebra(self, mesh_fn):
        # the systems of the solver's states and of the extremes, exact and
        # frozen, from scratch and from a residual-only system
        mesh = mesh_fn()
        for spec_name, spec in _state_specs(mesh):
            for name, vals in _states(mesh).items():
                vals = np.where(mesh.dirichlet_mask, 0.0, vals)
                base = assembly.assemble_system(spec, vals, rho=1e-2, with_jacobian=False)
                assert_same_system(base, reference_assemble_system(
                    spec, vals, rho=1e-2, with_jacobian=False))
                for frozen in (False, True):
                    ref = reference_assemble_system(spec, vals, rho=1e-2, frozen=frozen)
                    for system in (None, base):
                        new = assembly.assemble_system(spec, vals, rho=1e-2,
                                                       frozen=frozen, system=system)
                        assert_same_system(new, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFoldedCopies:
    """The other copies of the gradient-norm arithmetic, on the one kernel."""

    @pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
    def test_pairing_and_energy(self, mesh_name):
        mesh = KERNEL_MESHES[mesh_name]()
        states = _states(mesh)
        v = states["normal"][::-1].copy()
        vol = mesh.element_volumes
        for spec_name, spec in _state_specs(mesh):
            p, q, mu = spec.phase.p, spec.phase.q, spec.phase.mu
            for name, vals in states.items():
                grads, ge, _ = einsum_gradient_state(spec, vals)
                dots = np.sum(grads * einsum_element_gradients(mesh, v), axis=1)
                pairing = float(np.dot(vol, einsum_coef(spec, ge) * dots))
                energy = float(np.dot(vol, ge**p / p + mu * ge**q / q))
                label = f"{spec_name}/{name}"
                assert assembly.apply_operator(spec, vals, v).hex() == pairing.hex(), label
                assert assembly.operator_energy(spec, vals).hex() == energy.hex(), label

    @pytest.mark.parametrize("mesh_name", sorted(KERNEL_MESHES))
    def test_gradient_modular_and_p_norm(self, mesh_name):
        mesh = KERNEL_MESHES[mesh_name]()
        vol = mesh.element_volumes
        for name, vals in _states(mesh).items():
            for p in (1.5, 2.0, 3.0):
                norm, grad = lab._p_norm_gradient(mesh, vals, p)
                assert norm.hex() == _reference_p_norm_gradient(mesh, vals, p).hex(), name
                if norm != 0:
                    assert (_bytes(grad)
                            == _bytes(_reference_grad_p_norm_gradient(mesh, vals, p))), name
            if not np.all(np.isfinite(vals)):
                continue  # a DiscreteFunction holds finite values
            g = einsum_element_gradients(mesh, vals)
            g = np.sqrt(np.sum(g * g, axis=1))
            for spec_name, spec in _state_specs(mesh):
                cfg = spec.phase
                want = (float(np.dot(vol, g**cfg.p)), float(np.dot(vol * cfg.mu, g**cfg.q)))
                got = _modular_parts(DiscreteFunction(mesh, vals), cfg, of_gradient=True)
                assert [x.hex() for x in got] == [x.hex() for x in want], spec_name
