"""Mesh construction, P1 geometry, boundary partition, lumped quadrature."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    PATTERN_MESHES,
    csr_bytes,
    interval,
    lifted,
    make_spec,
    rectangle,
    reference_coo_scatter_blocks,
    reference_element_gradient,
    reference_nodal_gradient_matrices,
    reference_scatter_blocks,
    reference_scatter_vector,
)
from dpobstacle import lab, solver
from dpobstacle.catalog import boundary_potential, reaction
from dpobstacle.errors import ConfigurationError
from dpobstacle.meshing import (
    BlockPattern,
    BoundaryPartition,
    DiscreteFunction,
    build_interval_mesh,
    build_rect_mesh,
    nodal_values,
)


class TestIntervalMesh:
    def test_two_element_split(self):
        # expected: 3 nodes, 2 elements, element lengths [0.5, 0.5]
        mesh = build_interval_mesh(0.0, 1.0, 2)
        assert mesh.n_nodes == 3
        assert mesh.n_elements == 2
        assert np.array_equal(mesh.element_volumes, [0.5, 0.5])

    def test_right_natural_boundary(self):
        part = BoundaryPartition.from_sides(("right",), dim=1)
        mesh = build_interval_mesh(0.0, 1.0, 1, partition=part)
        assert mesh.n_elements == 1
        (g2,) = mesh.gamma2_nodes
        assert mesh.nodes[g2, 0] == 1.0
        # the Dirichlet part is the left endpoint only
        assert np.array_equal(mesh.dirichlet_mask,
                              mesh.nodes[:, 0] == 0.0)

    def test_gradient_maps_match_element_width(self):
        # width-0.5 elements: the P1 gradient map is [-2, 2]
        mesh = build_interval_mesh(0.0, 2.0, 4)
        for e in range(mesh.n_elements):
            assert np.array_equal(mesh.gradient_maps[e], [[-2.0, 2.0]])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            build_interval_mesh(1.0, 1.0, 4)
        with pytest.raises(ConfigurationError):
            build_interval_mesh(1.0, 0.0, 4)
        with pytest.raises(ConfigurationError):
            build_interval_mesh(0.0, 1.0, 0)


    @pytest.mark.parametrize("a,b,param", [
        (0.0, np.inf, "b"), (-np.inf, 1.0, "a"), (np.nan, 1.0, "a"),
        (0.0, np.nan, "b"), (1.0, 0.0, "b"),
    ])
    def test_ends_must_be_finite(self, a, b, param):
        with pytest.raises(ConfigurationError) as err:
            build_interval_mesh(a, b, 4)
        assert err.value.param == param

    def test_element_count_names_its_parameter(self):
        with pytest.raises(ConfigurationError) as err:
            build_interval_mesh(0.0, 1.0, 0)
        assert err.value.param == "n_elements"


class TestRectMesh:
    def test_single_cell(self):
        mesh = build_rect_mesh(1.0, 1.0, 1, 1)
        assert mesh.n_elements == 2
        assert np.allclose(mesh.element_volumes, 0.5)

    def test_two_by_two(self):
        mesh = build_rect_mesh(1.0, 1.0, 2, 2)
        assert mesh.n_elements == 8
        assert abs(mesh.element_volumes.sum() - 1.0) <= 1e-14

    def test_linear_reproduction(self):
        mesh = build_rect_mesh(1.0, 1.0, 3, 2)
        u = DiscreteFunction.from_callable(mesh, lambda x, y: x)
        grads = mesh.element_gradients(u.values)
        assert np.allclose(grads, [1.0, 0.0], atol=1e-14)
        v = DiscreteFunction.from_callable(mesh, lambda x, y: 2 * x + 3 * y - 1)
        assert np.allclose(mesh.element_gradients(v.values), [2.0, 3.0],
                           atol=1e-13)

    def test_all_natural_partition_rejected(self):
        part = BoundaryPartition.from_sides(("left", "right", "bottom", "top"),
                                            dim=2)
        with pytest.raises(ConfigurationError):
            build_rect_mesh(1.0, 1.0, 2, 2, partition=part)

    @pytest.mark.parametrize("args,param", [
        ((np.inf, 1.0, 2, 2), "lx"), ((1.0, np.nan, 2, 2), "ly"),
        ((1.0, -np.inf, 2, 2), "ly"), ((1.0, 1.0, 0, 2), "nx"),
        ((1.0, 1.0, 2, 0), "ny"),
    ])
    def test_extents_must_be_finite(self, args, param):
        with pytest.raises(ConfigurationError) as err:
            build_rect_mesh(*args)
        assert err.value.param == param

    def test_invalid_extents(self):
        with pytest.raises(ConfigurationError):
            build_rect_mesh(0.0, 1.0, 2, 2)
        with pytest.raises(ConfigurationError):
            build_rect_mesh(1.0, 1.0, 0, 2)


class TestGeometryInvariants:
    @pytest.mark.parametrize("mesh_fn", [
        lambda: interval(7, a=0.0, b=2.0),
        lambda: rectangle(3, 2, lx=1.5, ly=1.0),
    ])
    def test_gradient_maps_annihilate_constants(self, mesh_fn):
        mesh = mesh_fn()
        ones = np.ones(mesh.dim + 1)
        for e in range(mesh.n_elements):
            assert np.max(np.abs(mesh.gradient_maps[e] @ ones)) <= 1e-14

    def test_volume_sums(self):
        mesh = interval(7, a=0.0, b=2.0)
        assert abs(mesh.element_volumes.sum() - 2.0) <= 1e-13 * 2.0
        mesh2 = rectangle(3, 2, lx=1.5, ly=1.0)
        assert abs(mesh2.element_volumes.sum() - 1.5) <= 1e-13 * 1.5

    @pytest.mark.parametrize("mesh_fn", [
        lambda: interval(5, a=0.25, b=1.75),
        lambda: rectangle(2, 3, lx=2.0, ly=1.0),
    ])
    def test_gradient_maps_recomputable_from_coordinates(self, mesh_fn):
        mesh = mesh_fn()
        rng = np.random.default_rng(11)
        vals = rng.uniform(-1, 1, mesh.n_nodes)
        for e in range(mesh.n_elements):
            stored = mesh.gradient_maps[e] @ vals[mesh.elements[e]]
            recomputed = reference_element_gradient(mesh, vals, e)
            assert np.max(np.abs(stored - recomputed)) <= 1e-14 * (
                1 + np.max(np.abs(recomputed)))

    def test_node_volume_weights_sum_to_measure(self):
        mesh = rectangle(4, 3, lx=2.0, ly=1.5)
        assert mesh.node_volume_weights.sum() == pytest.approx(3.0, rel=1e-13)

    def test_boundary_faces_all_tagged(self):
        mesh = rectangle(2, 2, gamma2=("top",))
        assert all(tag in ("gamma1", "gamma2")
                   for _, tag in mesh.boundary_faces)
        assert any(tag == "gamma1" for _, tag in mesh.boundary_faces)

    def test_nodal_gradient_average_reproduces_linears(self):
        mesh = interval(9)
        D = mesh.nodal_gradient_matrices
        u = 3.0 * mesh.nodes[:, 0]
        assert np.allclose(D[0] @ u, 3.0, atol=1e-13)
        assert np.max(np.abs(D[0] @ np.ones(mesh.n_nodes))) <= 1e-14
        mesh2 = rectangle(3, 3)
        D2 = mesh2.nodal_gradient_matrices
        v = 2.0 * mesh2.nodes[:, 0] - mesh2.nodes[:, 1]
        assert np.allclose(D2[0] @ v, 2.0, atol=1e-13)
        assert np.allclose(D2[1] @ v, -1.0, atol=1e-13)


    @pytest.mark.parametrize("name", [
        "node_volume_weights", "dirichlet_mask", "gamma2_nodes",
        "gradient_gram", "nodal_gradient_matrices", "block_pattern",
        "nodal_gradient_slots",
    ])
    def test_derived_data_is_computed_once(self, name):
        mesh = rectangle(3, 2, gamma2=("right",))
        assert getattr(mesh, name) is getattr(mesh, name)


_SCATTER_MESHES = [
    lambda: interval(7, a=0.25, b=1.75),
    lambda: rectangle(3, 2, lx=2.0, ly=1.0),
]


class TestScatter:
    # dyadic entries make every summation order exact, so equality with the
    # loop reference tests the pattern rather than the rounding order
    @staticmethod
    def _dyadic(rng, shape):
        return rng.integers(-2**20, 2**20, size=shape) * 2.0**-10

    @pytest.mark.parametrize("mesh_fn", _SCATTER_MESHES)
    def test_blocks_match_loop_reference(self, mesh_fn):
        mesh = mesh_fn()
        nv = mesh.dim + 1
        blocks = self._dyadic(np.random.default_rng(5), (mesh.n_elements, nv, nv))
        S = mesh.scatter_blocks(blocks)
        assert isinstance(S, sp.csr_matrix)
        assert S.shape == (mesh.n_nodes, mesh.n_nodes)
        assert np.array_equal(S.toarray(), reference_scatter_blocks(mesh, blocks))
        # the cached pattern serves later calls with other blocks
        assert np.array_equal(mesh.scatter_blocks(-blocks).toarray(), -S.toarray())

    @pytest.mark.parametrize("mesh_fn", _SCATTER_MESHES)
    def test_vector_matches_loop_reference(self, mesh_fn):
        mesh = mesh_fn()
        local = self._dyadic(np.random.default_rng(6), (mesh.n_elements, mesh.dim + 1))
        assert np.array_equal(mesh.scatter_vector(local),
                              reference_scatter_vector(mesh, local))

    @pytest.mark.parametrize("mesh_fn", _SCATTER_MESHES)
    def test_gradient_gram(self, mesh_fn):
        mesh = mesh_fn()
        for e in range(mesh.n_elements):
            G = mesh.gradient_maps[e]
            assert np.allclose(mesh.gradient_gram[e], G.T @ G, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("mesh_fn", PATTERN_MESHES)
    def test_scatter_blocks_is_the_coo_sum(self, mesh_fn):
        mesh = mesh_fn()
        nv = mesh.dim + 1
        rng = np.random.default_rng(11)
        for blocks in (rng.normal(size=(mesh.n_elements, nv, nv)),
                       np.zeros((mesh.n_elements, nv, nv)),
                       mesh.element_volumes[:, None, None] * mesh.gradient_gram):
            S = mesh.scatter_blocks(blocks)
            assert isinstance(S, sp.csr_matrix)
            assert csr_bytes(S) == csr_bytes(reference_coo_scatter_blocks(mesh, blocks))

    @pytest.mark.parametrize("mesh_fn", PATTERN_MESHES)
    def test_nodal_gradient_matrices_keep_their_stored_order(self, mesh_fn):
        mesh = mesh_fn()
        for D, ref in zip(mesh.nodal_gradient_matrices,
                          reference_nodal_gradient_matrices(mesh), strict=True):
            assert csr_bytes(D) == csr_bytes(ref)

    def test_pattern_is_read_only_and_matrices_own_their_structure(self):
        mesh = rectangle(4, 3)
        pattern = mesh.block_pattern
        assert mesh.block_pattern is pattern
        with pytest.raises(ValueError):
            pattern.indices[0] = 0
        indices = pattern.indices.copy()
        S = mesh.scatter_blocks(np.zeros((mesh.n_elements, 3, 3)))
        S.eliminate_zeros()  # compacts the matrix's own indices in place
        assert S.nnz == 0
        assert np.array_equal(pattern.indices, indices)


def _without_dirichlet_nodes():
    # every mesh has a Dirichlet part, so the pattern of one without
    # Dirichlet nodes is built from a stand-in that reads as such
    mesh = rectangle(7, 5, gamma2=("right",))
    return BlockPattern.for_mesh(SimpleNamespace(
        n_nodes=mesh.n_nodes, dim=mesh.dim, elements=mesh.elements,
        dirichlet_mask=np.zeros(mesh.n_nodes, dtype=bool)))


_LAYOUT_PATTERNS = {
    "interval": lambda: interval(17).block_pattern,
    "rectangle_gamma2": lambda: rectangle(9, 7, gamma2=("right", "top")).block_pattern,
    "no_dirichlet": _without_dirichlet_nodes,
}


class TestFactorLayout:
    """The free nodes in SuperLU's minimum-degree order of the whole
    pattern, computed once, and the gather of a Jacobian's free-node block
    into it."""

    @pytest.mark.parametrize("name", sorted(_LAYOUT_PATTERNS))
    def test_order_is_superlus_on_the_whole_adjacency(self, name):
        pattern = _LAYOUT_PATTERNS[name]()
        assert "factor_layout" not in vars(pattern)  # not built with the pattern
        layout = pattern.factor_layout
        assert pattern.factor_layout is layout
        assert np.array_equal(np.sort(layout.order), np.flatnonzero(pattern.free))
        # the order reads the structure alone: random values give it too,
        # restricted to the free nodes
        rng = np.random.default_rng(3)
        data = rng.normal(size=pattern.nnz)
        data[pattern.diagonal] += 20.0
        lu = spla.splu(pattern.matrix(data).tocsc(), permc_spec="MMD_AT_PLUS_A")
        full = np.argsort(lu.perm_c)
        assert np.array_equal(layout.order, full[pattern.free[full]])
        for a in (pattern.free, *layout):
            assert not a.flags.writeable

    @pytest.mark.parametrize("name", sorted(_LAYOUT_PATTERNS))
    def test_gather_is_the_fancy_indexed_matrix(self, name):
        pattern = _LAYOUT_PATTERNS[name]()
        p = pattern.factor_layout.order
        rng = np.random.default_rng(4)
        data = rng.normal(size=pattern.nnz)
        data[rng.random(pattern.nnz) < 0.3] = 0.0
        odd = data.copy()
        odd[rng.random(pattern.nnz) < 0.2] = np.inf
        odd[rng.random(pattern.nnz) < 0.2] = np.nan
        odd[rng.random(pattern.nnz) < 0.1] = -0.0
        for values in (data, odd, np.zeros(pattern.nnz)):
            J = pattern.matrix(values.copy())
            J.eliminate_zeros()
            gathered = pattern.factor_matrix(values)
            assert gathered.format == "csc" and gathered.shape == (p.size, p.size)
            with np.errstate(invalid="ignore"):
                for new, ref in ((gathered, J), (lifted(gathered), lifted(J))):
                    assert csr_bytes(new) == csr_bytes(ref[p][:, p].tocsc())
        # each matrix owns its structure: eliminate_zeros compacts a copy
        indices = pattern.factor_layout.indices.copy()
        assert pattern.factor_matrix(np.zeros(pattern.nnz)).nnz == 0
        assert np.array_equal(pattern.factor_layout.indices, indices)

    def test_threaded_study_chains_share_the_layout(self, monkeypatch):
        mesh = rectangle(10, 10, gamma2=("right",))
        spec = make_spec(mesh, p=2.5, q=3.0, mu=lambda x, y: 0.5 + 0.5 * x,
                         phi=0.05, react=reaction("interval", lo=2.0, hi=8.0),
                         bnd=boundary_potential("abs", alpha=0.1))
        solve, orders = solver._solve_direction, []

        def recorded(J, r, order):
            orders.append(order)
            return solve(J, r, order)

        monkeypatch.setattr(solver, "_solve_direction", recorded)
        lab.kuratowski_study(spec, [1.0, 0.1, 0.01], solver.SolverConfig(),
                             n_starts=1, selection_rules=["lower", "upper"],
                             threads=2)
        layout = mesh.block_pattern.factor_layout
        fresh = BlockPattern.for_mesh(mesh).factor_layout
        assert orders
        assert all(o.tobytes() == layout.order.tobytes() for o in orders)
        for a, b in zip(layout, fresh, strict=True):
            assert a.tobytes() == b.tobytes()


class TestBoundaryWeights:
    def test_interval_endpoint_weight(self):
        mesh = interval(4, gamma2=("right",))
        bw = mesh.gamma2_weights
        (g2,) = mesh.gamma2_nodes
        assert bw[g2] == 1.0
        assert np.count_nonzero(bw) == 1

    def test_bottom_edge_lumping(self):
        # unit square, two cells per side: bottom-edge weights [0.25, 0.5, 0.25]
        mesh = rectangle(2, 2, gamma2=("bottom",))
        bw = mesh.gamma2_weights
        bottom = np.flatnonzero(mesh.nodes[:, 1] == 0.0)
        bottom = bottom[np.argsort(mesh.nodes[bottom, 0])]
        assert np.array_equal(bw[bottom], [0.25, 0.5, 0.25])
        off = np.setdiff1d(np.arange(mesh.n_nodes), bottom)
        assert np.all(bw[off] == 0.0)

    def test_total_weight_is_natural_boundary_measure(self):
        mesh = rectangle(2, 2, lx=2.0, ly=1.0, gamma2=("left", "top"))
        bw = mesh.gamma2_weights
        assert bw.sum() == pytest.approx(1.0 + 2.0, abs=1e-14)

    def test_no_natural_part_gives_zero_weights(self):
        mesh = interval(4)
        assert np.all(mesh.gamma2_weights == 0.0)


class TestDiscreteFunction:
    def test_length_validation(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            DiscreteFunction(mesh, np.zeros(3))

    def test_finite_validation(self):
        mesh = interval(4)
        with pytest.raises(ConfigurationError):
            DiscreteFunction(mesh, np.full(mesh.n_nodes, np.nan))
        with pytest.raises(ConfigurationError):
            DiscreteFunction(mesh, np.full(mesh.n_nodes, np.inf))

    def test_infinite_sentinel_requires_flag(self):
        mesh = interval(4)
        f = DiscreteFunction(mesh, np.full(mesh.n_nodes, np.inf),
                             allow_infinite=True)
        assert np.all(np.isposinf(f.values))
        with pytest.raises(ConfigurationError):
            DiscreteFunction(mesh, np.full(mesh.n_nodes, -np.inf),
                             allow_infinite=True)

    def test_from_callable_and_constant(self):
        mesh = interval(4)
        f = DiscreteFunction.from_callable(mesh, lambda x: x * x)
        assert np.allclose(f.values, mesh.nodes[:, 0] ** 2)
        g = DiscreteFunction.constant(mesh, 2.5)
        assert np.all(g.values == 2.5)


class TestNodalValues:
    def test_function_values_are_not_copied(self):
        f = DiscreteFunction(interval(4), np.arange(5.0))
        assert nodal_values(f) is f.values

    def test_array_like_becomes_float(self):
        vals = nodal_values([0, 1, 2])
        assert vals.dtype == np.float64
        assert np.array_equal(vals, [0.0, 1.0, 2.0])
        arr = np.ones(3)
        assert nodal_values(arr) is arr


class TestPartition:
    def test_unknown_side_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            BoundaryPartition.from_sides(("bottom",), dim=1)
        assert err.value.param == "sides"
        with pytest.raises(ConfigurationError):
            BoundaryPartition.from_sides(("diagonal",), dim=2)

    def test_bottom_side_partition(self):
        part = BoundaryPartition.from_sides(("bottom",), dim=2)
        mesh = build_rect_mesh(1.0, 1.0, 2, 2, partition=part)
        assert np.all(mesh.nodes[mesh.gamma2_nodes, 1] == 0.0)
        assert len(mesh.gamma2_nodes) == 3
