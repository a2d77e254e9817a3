"""Simplicial P1 meshes on intervals and rectangles.

Gradients of piecewise-linear functions are elementwise constant; each mesh
is built with the per-element gradient maps (``dim x nverts`` matrices acting
on local nodal values), element volumes and a tagged list of boundary faces.
The gradient maps are stored component-major, so that the element
gradients, their norms and ``G_e^T g`` are explicit sums over the
components and the element's nodes on contiguous arrays.
Everything derived from those (lumped volume weights, the Dirichlet mask, the
natural-boundary nodes and their lumped weights, ``G_e^T G_e``, the
:class:`BlockPattern` of the element blocks, and the nodal-gradient matrices
and their slots in that pattern) is a ``functools.cached_property``: computed
on first use and kept on the mesh.
The block pattern is the one CSR structure every element-block matrix is
built on (operator Jacobians, the ``check`` stiffness, the nodal-gradient
maps, the reaction Jacobian): a matrix is a ``data`` array of its slots,
summed in the order scipy's COO->CSR conversion adds duplicates, so each sum
is bit for bit the scipy one without a sort per call.
The boundary is split into a Dirichlet part (``gamma1``, where trial functions
vanish) and a natural part (``gamma2``, where nonsmooth boundary terms act);
the Dirichlet part must have positive measure.  A face is natural when its
midpoint lies on one of the partition's named sides of the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

__all__ = [
    "BoundaryPartition",
    "Mesh",
    "BlockPattern",
    "DiscreteFunction",
    "nodal_values",
    "element_dots",
    "build_interval_mesh",
    "build_rect_mesh",
]

GAMMA1 = "gamma1"
GAMMA2 = "gamma2"

_SIDES_1D = ("left", "right")
_SIDES_2D = ("left", "right", "bottom", "top")


class BoundaryPartition:
    """Assigns boundary faces to the Dirichlet or the natural part.

    The natural (``gamma2``) part is a list of named sides of the box
    (``left``/``right`` in 1D, plus ``bottom``/``top`` in 2D); every other
    face is Dirichlet, so ``BoundaryPartition()`` clamps every side.
    """

    def __init__(self, sides=()):
        self._sides = tuple(sides)

    @classmethod
    def from_sides(cls, sides, dim):
        """Natural-boundary sides by name; everything else is Dirichlet."""
        valid = _SIDES_1D if dim == 1 else _SIDES_2D
        sides = tuple(sides)
        for s in sides:
            if s not in valid:
                raise ConfigurationError(f"unknown boundary side {s!r} for dim={dim}",
                                         param="sides")
        return cls(sides)

    def is_natural(self, midpoint, box):
        """True if the face with this midpoint belongs to the gamma2 part."""
        lo, hi = box
        tol = 1e-12 * max(1.0, *(abs(v) for v in hi))
        mp = midpoint
        if "left" in self._sides and abs(mp[0] - lo[0]) <= tol:
            return True
        if "right" in self._sides and abs(mp[0] - hi[0]) <= tol:
            return True
        if len(mp) > 1:
            if "bottom" in self._sides and abs(mp[1] - lo[1]) <= tol:
                return True
            if "top" in self._sides and abs(mp[1] - hi[1]) <= tol:
                return True
        return False


@dataclass
class Mesh:
    """A simplicial mesh with P1 metadata; derived data is cached on first use.

    Attributes
    ----------
    dim : 1 or 2.
    nodes : ``(n_nodes, dim)`` coordinates.
    elements : ``(n_elements, dim + 1)`` connectivity.
    boundary_faces : list of ``(nodes_tuple, tag)`` with tag gamma1/gamma2.
    element_volumes : ``(n_elements,)`` lengths/areas.
    gradient_maps : ``(n_elements, dim, dim + 1)``; row block ``G_e`` maps
        local nodal values to the constant gradient on element ``e``.
    gradient_components : the same maps stored component-major, shape
        ``(dim, dim + 1, n_elements)``: each entry ``G_e[k, a]`` is one
        contiguous array over the elements, the layout the explicit sums of
        :meth:`element_gradients` and :meth:`gradient_pairings` run on.
        Construction copies ``gradient_maps`` into it once and keeps
        ``gradient_maps`` as a transposed view, so the maps are stored once.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_faces: list
    element_volumes: np.ndarray
    gradient_maps: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"mesh dimension must be 1 or 2, got {self.dim}")
        if np.any(self.element_volumes <= 0):
            raise ConfigurationError("all element volumes must be positive")
        if not any(tag == GAMMA1 for _, tag in self.boundary_faces):
            raise ConfigurationError(
                "the Dirichlet boundary part (gamma1) must be nonempty"
            )
        self.gradient_components = np.ascontiguousarray(
            np.transpose(self.gradient_maps, (1, 2, 0)))
        self.gradient_maps = self.gradient_components.transpose(2, 0, 1)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @cached_property
    def node_volume_weights(self):
        """Vertex-lumped quadrature weights: |e|/(dim+1) scattered to the
        vertices of each element; sums to meas(domain)."""
        nv = self.dim + 1
        return self.scatter_vector(np.repeat(self.element_volumes / nv, nv))

    @cached_property
    def dirichlet_mask(self):
        """Boolean mask of nodes lying on any gamma1 face."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        for face, tag in self.boundary_faces:
            if tag == GAMMA1:
                mask[list(face)] = True
        return mask

    @cached_property
    def gamma2_nodes(self):
        """Sorted node indices touched by gamma2 faces."""
        idx = set()
        for face, tag in self.boundary_faces:
            if tag == GAMMA2:
                idx.update(face)
        return np.array(sorted(idx), dtype=int)

    @cached_property
    def gamma2_weights(self):
        """Lumped quadrature weights of the natural boundary part, a dense
        ``(n_nodes,)`` array that is zero away from it.  Each gamma2 face
        spreads its measure equally over its nodes (a point face has measure
        1), so the weights sum to the measure of gamma2."""
        w = np.zeros(self.n_nodes)
        for face, tag in self.boundary_faces:
            if tag != GAMMA2:
                continue
            if len(face) == 1:
                w[face[0]] += 1.0
            else:
                a, b = face
                length = float(np.linalg.norm(self.nodes[a] - self.nodes[b]))
                w[a] += 0.5 * length
                w[b] += 0.5 * length
        return w

    @cached_property
    def gradient_gram(self):
        """Per-element ``G_e^T G_e``, shape ``(n_elements, nv, nv)``, C-ordered
        like the element blocks built from it."""
        G = self.gradient_maps
        return np.einsum("eka,ekb->eab", G, G, order="C")

    @cached_property
    def block_pattern(self):
        """The :class:`BlockPattern` of the element blocks (built on first
        use)."""
        return BlockPattern.for_mesh(self)

    def scatter_blocks(self, blocks):
        """CSR sum of element blocks: ``blocks[e, a, b]`` adds to entry
        ``(elements[e, a], elements[e, b])``; the matrix stores every entry
        of the pattern, explicit zeros included."""
        return self.block_pattern.matrix(self.block_pattern.sum_blocks(blocks))

    def scatter_vector(self, local):
        """Nodal sum of element vectors: ``local[e, a]`` adds to node
        ``elements[e, a]``."""
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.elements.ravel(), np.ravel(local))
        return out

    @cached_property
    def nodal_gradient_matrices(self):
        """Sparse maps from nodal values to volume-averaged nodal gradients.

        A list of ``dim`` CSR matrices ``D_k`` with
        ``(D_k u)_i = sum_{e ni i} |e| (G_e u)_k / sum_{e ni i} |e|``.
        """
        nv = self.dim + 1
        patch_vol = self.scatter_vector(np.repeat(self.element_volumes, nv))
        # entry (i=elements[e,a], j=elements[e,b]): |e| * G_e[k, b]
        mats = []
        for k in range(self.dim):
            blocks = np.broadcast_to(
                self.element_volumes[:, None, None]
                * self.gradient_maps[:, k, None, :],
                (self.n_elements, nv, nv),
            )
            D = sp.diags(1.0 / patch_vol) @ self.scatter_blocks(blocks)
            mats.append(D.tocsr())
        return mats

    @cached_property
    def nodal_gradient_slots(self):
        """Per ``D_k`` of :attr:`nodal_gradient_matrices`, the row and the
        :attr:`block_pattern` slot of every stored entry, in stored order."""
        pattern = self.block_pattern
        n = np.int64(self.n_nodes)
        keys = np.repeat(np.arange(n), np.diff(pattern.indptr)) * n + pattern.indices
        out = []
        for D in self.nodal_gradient_matrices:
            rows = np.repeat(np.arange(self.n_nodes, dtype=np.int32), np.diff(D.indptr))
            slots = np.searchsorted(keys, rows * n + D.indices).astype(np.int32)
            out.append((rows, slots))
        return out

    def element_gradients(self, values):
        """Constant gradient per element, shape ``(n_elements, dim)``, each
        component contiguous (the transpose of a ``(dim, n_elements)`` array).

        Bit for bit ``einsum("ekv,ev->ek", gradient_maps, values[elements])``
        (numpy 2.4), in the order of its reduction: einsum sums the terms of
        an element's nodes in two lanes started at +0.0, ``(t0 + t2) + t1``
        on a triangle, so a sum of -0.0 terms reads +0.0."""
        terms = self.gradient_components * values[self.elements.T]
        out = np.add(terms[:, 0], terms[:, -1])
        if self.dim == 2:
            out += terms[:, 1]
        out += 0.0
        return out.T

    def gradient_pairings(self, grads):
        """Per element ``G_e^T g_e`` for element gradients ``grads``
        ``(n_elements, dim)``: the pairings ``g_e . grad phi_a`` with the
        element's basis functions, shape ``(n_elements, nv)``, each column
        contiguous.  Bit for bit ``einsum("ekv,ek->ev", gradient_maps,
        grads)``: the sum over ``k`` in order from +0.0, each term added to
        the left of the partial sum as einsum adds it."""
        G = self.gradient_components
        out = G[0] * grads[:, 0]
        for k in range(1, self.dim):
            np.add(G[k] * grads[:, k], out, out=out)
        out += 0.0
        return out.T


def element_dots(a, b):
    """Per element ``a_e . b_e`` of two ``(n_elements, dim)`` arrays, bit for
    bit ``np.sum(a * b, axis=1)``: the sum over ``k`` in order from +0.0."""
    out = a[:, 0] * b[:, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k] * b[:, k]
    out += 0.0
    return out


@dataclass(frozen=True, eq=False)
class BlockPattern:
    """The CSR pattern of a mesh's element blocks and the order in which the
    blocks sum into it.

    ``indptr``/``indices`` are the canonical (sorted, duplicate-free) CSR
    structure of the element adjacency; a matrix on the pattern is one
    ``data`` array of ``nnz`` slots.  Entry ``k`` of the flattened blocks
    (``blocks[e, a, b]`` at row ``elements[e, a]``, column
    ``elements[e, b]``) adds into one slot, and each slot takes its addends
    left to right in the order scipy's COO->CSR conversion adds duplicates:
    ``first[s]`` starts slot ``s``, then each layer ``(slots, addends)``
    adds ``flat[addends]`` to ``data[slots]``.  scipy sorts each row with an
    unstable sort (beyond 16 entries), so the order is read off scipy's own
    ``sort_indices`` run on the entry numbers, and the sums are bit for bit
    those of ``csr_matrix((blocks.ravel(), (rows, cols)))``.
    ``diagonal[i]`` is the slot of ``(i, i)``, ``dirichlet_slots`` are the
    slots on Dirichlet rows and ``dirichlet_column_slots`` the slots of free
    rows in Dirichlet columns; zeroing both leaves a pattern that is block
    diagonal between free and Dirichlet nodes and, like the element
    adjacency, structurally symmetric.  The arrays are int32 and read-only;
    each matrix from :meth:`matrix` owns copies of the structure, because
    in-place methods such as ``eliminate_zeros`` compact ``indices``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    first: np.ndarray
    layers: tuple
    diagonal: np.ndarray
    dirichlet_slots: np.ndarray
    dirichlet_column_slots: np.ndarray

    @classmethod
    def for_mesh(cls, mesh):
        n, nv = mesh.n_nodes, mesh.dim + 1
        elements = mesh.elements.astype(np.int32)
        rows = np.repeat(elements, nv, axis=1).ravel()
        cols = np.tile(elements, (1, nv)).ravel()
        # COO->CSR keeps each row's entries in order of appearance; then
        # scipy sorts each row by column
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=n)
        ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=ptr[1:])
        S = sp.csr_matrix((order.astype(float), cols[order], ptr), shape=(n, n))
        S.sort_indices()
        entry, col = S.data.astype(np.int32), S.indices
        row = np.repeat(np.arange(n, dtype=np.int32), counts)
        new = np.ones(entry.size, dtype=bool)
        new[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1])
        slot = np.cumsum(new, dtype=np.int32) - 1
        rank = np.arange(entry.size, dtype=np.int32) - np.flatnonzero(new)[slot]
        layers = tuple((slot[rank == j], entry[rank == j])
                       for j in range(1, int(rank.max()) + 1))
        slot_row, indices = row[new], col[new]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot_row, minlength=n), out=indptr[1:])
        fixed = mesh.dirichlet_mask
        pattern = cls(
            n=n,
            indptr=indptr,
            indices=indices,
            first=entry[new],
            layers=layers,
            diagonal=np.flatnonzero(slot_row == indices).astype(np.int32),
            dirichlet_slots=np.flatnonzero(fixed[slot_row]).astype(np.int32),
            dirichlet_column_slots=np.flatnonzero(
                fixed[indices] & ~fixed[slot_row]).astype(np.int32),
        )
        for a in (indptr, indices, pattern.first, pattern.diagonal,
                  pattern.dirichlet_slots, pattern.dirichlet_column_slots,
                  *(a for layer in layers for a in layer)):
            a.flags.writeable = False
        return pattern

    @property
    def nnz(self):
        return self.indices.size

    def sum_blocks(self, blocks):
        """Slot data of the sum of element blocks ``(n_elements, nv, nv)``."""
        flat = np.ravel(blocks)
        data = flat[self.first]
        for slots, addends in self.layers:
            data[slots] += flat[addends]
        return data

    def matrix(self, data):
        """CSR matrix with this pattern and ``data`` (not copied)."""
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=(self.n, self.n))


@dataclass(frozen=True)
class DiscreteFunction:
    """Nodal values of a P1 function on a mesh.

    Values must be finite unless ``allow_infinite`` is set (used for the
    obstacle, where ``+inf`` marks unconstrained nodes).
    """

    mesh: Mesh
    values: np.ndarray
    allow_infinite: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_nodes,):
            raise ConfigurationError(
                f"nodal value array has shape {vals.shape}, expected "
                f"({self.mesh.n_nodes},)"
            )
        if self.allow_infinite:
            if np.any(np.isnan(vals)) or np.any(np.isneginf(vals)):
                raise ConfigurationError("nodal values may not be NaN or -inf")
        elif not np.all(np.isfinite(vals)):
            raise ConfigurationError("nodal values must be finite")

    @classmethod
    def from_callable(cls, mesh, fn, allow_infinite=False):
        """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) at the nodes."""
        vals = np.asarray(fn(*mesh.nodes.T), dtype=float)
        vals = np.broadcast_to(vals, (mesh.n_nodes,)).copy()
        return cls(mesh, vals, allow_infinite=allow_infinite)

    @classmethod
    def constant(cls, mesh, value, allow_infinite=False):
        return cls(mesh, np.full(mesh.n_nodes, float(value)),
                   allow_infinite=allow_infinite)


def nodal_values(u):
    """The float nodal array of a :class:`DiscreteFunction` or an array-like
    (no copy when ``u`` already holds one)."""
    return u.values if isinstance(u, DiscreteFunction) else np.asarray(u, float)


def build_interval_mesh(a, b, n_elements, partition=None):
    """Uniform mesh of (a, b) with ``n_elements`` segments; ``a < b`` must be
    finite (a ``ConfigurationError`` names the end that breaks it).

    The two endpoint faces are single-node faces tagged by ``partition``
    (default: both Dirichlet).
    """
    for param, holds in (("a", -np.inf < a < np.inf), ("b", a < b < np.inf)):
        if not holds:
            raise ConfigurationError(f"interval requires finite a < b, got ({a}, {b})",
                                     param=param)
    if n_elements < 1:
        raise ConfigurationError("need at least one element", param="n_elements")
    partition = partition or BoundaryPartition()
    x = np.linspace(a, b, n_elements + 1)
    nodes = x[:, None]
    elements = np.column_stack([np.arange(n_elements), np.arange(1, n_elements + 1)])
    h = np.diff(x)
    grads = np.zeros((n_elements, 1, 2))
    grads[:, 0, 0] = -1.0 / h
    grads[:, 0, 1] = 1.0 / h
    box = ((a,), (b,))
    faces = []
    for idx in (0, n_elements):
        mp = (x[idx],)
        tag = GAMMA2 if partition.is_natural(mp, box) else GAMMA1
        faces.append(((int(idx),), tag))
    return Mesh(
        dim=1,
        nodes=nodes,
        elements=elements.astype(int),
        boundary_faces=faces,
        element_volumes=h,
        gradient_maps=grads,
    )


def build_rect_mesh(lx, ly, nx, ny, partition=None):
    """Structured triangulation of (0, lx) x (0, ly).

    Each of the ``nx * ny`` cells is split into two triangles along the
    diagonal from its lower-left to its upper-right corner, giving
    ``2 nx ny`` elements.  Boundary edges are tagged by the partition's
    sides at their midpoints (default: all Dirichlet).  Extents and cell
    counts must be finite and positive; an error names the first that is not.
    """
    for param, value in (("lx", lx), ("ly", ly), ("nx", nx), ("ny", ny)):
        if not 0 < value < np.inf:
            raise ConfigurationError("rectangle requires finite positive extents "
                                     f"and cell counts, got {param}={value}", param=param)
    partition = partition or BoundaryPartition()
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            ll, lr = nid(i, j), nid(i + 1, j)
            ul, ur = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    elements = np.array(tris, dtype=int)

    p0 = nodes[elements[:, 0]]
    e1 = nodes[elements[:, 1]] - p0
    e2 = nodes[elements[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    volumes = 0.5 * np.abs(det)
    # inverse of [[e1x, e1y], [e2x, e2y]] applied to local differences
    inv = np.empty((len(tris), 2, 2))
    inv[:, 0, 0] = e2[:, 1] / det
    inv[:, 0, 1] = -e1[:, 1] / det
    inv[:, 1, 0] = -e2[:, 0] / det
    inv[:, 1, 1] = e1[:, 0] / det
    # local difference matrix: rows (u1-u0, u2-u0)
    diff = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    grads = np.einsum("ekl,lv->ekv", inv, diff)

    box = ((0.0, 0.0), (lx, ly))
    faces = []

    def add_face(n0, n1):
        mp = tuple(0.5 * (nodes[n0] + nodes[n1]))
        tag = GAMMA2 if partition.is_natural(mp, box) else GAMMA1
        faces.append(((int(n0), int(n1)), tag))

    for i in range(nx):
        add_face(nid(i, 0), nid(i + 1, 0))          # bottom
        add_face(nid(i, ny), nid(i + 1, ny))        # top
    for j in range(ny):
        add_face(nid(0, j), nid(0, j + 1))          # left
        add_face(nid(nx, j), nid(nx, j + 1))        # right

    return Mesh(
        dim=2,
        nodes=nodes,
        elements=elements,
        boundary_faces=faces,
        element_volumes=volumes,
        gradient_maps=grads,
    )

