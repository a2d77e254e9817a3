"""Simplicial P1 meshes on intervals and rectangles.

Gradients of piecewise-linear functions are elementwise constant; each mesh
precomputes the per-element gradient maps (``dim x nverts`` matrices acting on
local nodal values), element volumes, vertex-lumped volume weights, and a
tagged list of boundary faces.  The boundary is split into a Dirichlet part
(``gamma1``, where trial functions vanish) and a natural part (``gamma2``,
where nonsmooth boundary terms act); the Dirichlet part must have positive
measure.  Faces are tagged by evaluating a partition predicate at the face
midpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

__all__ = [
    "BoundaryPartition",
    "Mesh",
    "DiscreteFunction",
    "build_interval_mesh",
    "build_rect_mesh",
    "boundary_lumped_weights",
]

GAMMA1 = "gamma1"
GAMMA2 = "gamma2"

_SIDES_1D = ("left", "right")
_SIDES_2D = ("left", "right", "bottom", "top")


class BoundaryPartition:
    """Assigns boundary faces to the Dirichlet or the natural part.

    Either built from named sides of the box (``left``/``right`` in 1D, plus
    ``bottom``/``top`` in 2D) or from a predicate evaluated at face midpoints
    that returns True on the natural (``gamma2``) part.
    """

    def __init__(self, predicate=None, sides=(), label="custom"):
        self._predicate = predicate
        self._sides = tuple(sides)
        self.label = label

    @classmethod
    def all_dirichlet(cls):
        return cls(predicate=lambda *_: False, label="none")

    @classmethod
    def from_sides(cls, sides, dim):
        """Natural-boundary sides by name; everything else is Dirichlet."""
        valid = _SIDES_1D if dim == 1 else _SIDES_2D
        sides = tuple(sides)
        for s in sides:
            if s not in valid:
                raise ConfigurationError(f"unknown boundary side {s!r} for dim={dim}")
        return cls(sides=sides, label=",".join(sides) if sides else "none")

    def is_natural(self, midpoint, box):
        """True if the face with this midpoint belongs to the gamma2 part."""
        if self._predicate is not None:
            return bool(self._predicate(*midpoint))
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
    """A simplicial mesh with precomputed P1 metadata.

    Attributes
    ----------
    dim : 1 or 2.
    nodes : ``(n_nodes, dim)`` coordinates.
    elements : ``(n_elements, dim + 1)`` connectivity.
    boundary_faces : list of ``(nodes_tuple, tag)`` with tag gamma1/gamma2.
    element_volumes : ``(n_elements,)`` lengths/areas.
    gradient_maps : ``(n_elements, dim, dim + 1)``; row block ``G_e`` maps
        local nodal values to the constant gradient on element ``e``.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_faces: list
    element_volumes: np.ndarray
    gradient_maps: np.ndarray
    box: tuple = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"mesh dimension must be 1 or 2, got {self.dim}")
        if np.any(self.element_volumes <= 0):
            raise ConfigurationError("all element volumes must be positive")
        if not any(tag == GAMMA1 for _, tag in self.boundary_faces):
            raise ConfigurationError(
                "the Dirichlet boundary part (gamma1) must be nonempty"
            )

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def node_volume_weights(self):
        """Vertex-lumped quadrature weights: |e|/(dim+1) scattered to the
        vertices of each element; sums to meas(domain)."""
        if "weights" not in self._cache:
            nv = self.dim + 1
            self._cache["weights"] = self.scatter_vector(
                np.repeat(self.element_volumes / nv, nv))
        return self._cache["weights"]

    @property
    def dirichlet_mask(self):
        """Boolean mask of nodes lying on any gamma1 face."""
        if "dmask" not in self._cache:
            mask = np.zeros(self.n_nodes, dtype=bool)
            for face, tag in self.boundary_faces:
                if tag == GAMMA1:
                    mask[list(face)] = True
            self._cache["dmask"] = mask
        return self._cache["dmask"]

    @property
    def gamma2_nodes(self):
        """Sorted node indices touched by gamma2 faces."""
        if "g2nodes" not in self._cache:
            idx = set()
            for face, tag in self.boundary_faces:
                if tag == GAMMA2:
                    idx.update(face)
            self._cache["g2nodes"] = np.array(sorted(idx), dtype=int)
        return self._cache["g2nodes"]

    @property
    def gradient_gram(self):
        """Per-element ``G_e^T G_e``, shape ``(n_elements, nv, nv)``."""
        if "gtg" not in self._cache:
            G = self.gradient_maps
            self._cache["gtg"] = np.einsum("eka,ekb->eab", G, G)
        return self._cache["gtg"]

    def scatter_blocks(self, blocks):
        """CSR sum of element blocks: ``blocks[e, a, b]`` adds to entry
        ``(elements[e, a], elements[e, b])`` through a cached pattern."""
        if "block_pattern" not in self._cache:
            nv = self.dim + 1
            elements = self.elements.astype(np.int32)
            self._cache["block_pattern"] = (
                np.repeat(elements, nv, axis=1).ravel(),
                np.tile(elements, (1, nv)).ravel(),
            )
        rows, cols = self._cache["block_pattern"]
        return sp.csr_matrix(
            (np.ravel(blocks), (rows, cols)), shape=(self.n_nodes, self.n_nodes)
        )

    def scatter_vector(self, local):
        """Nodal sum of element vectors: ``local[e, a]`` adds to node
        ``elements[e, a]``."""
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.elements.ravel(), np.ravel(local))
        return out

    def nodal_gradient_matrices(self):
        """Sparse maps from nodal values to volume-averaged nodal gradients.

        Returns a list of ``dim`` CSR matrices ``D_k`` with
        ``(D_k u)_i = sum_{e ni i} |e| (G_e u)_k / sum_{e ni i} |e|``.
        """
        if "nodal_grad" not in self._cache:
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
            self._cache["nodal_grad"] = mats
        return self._cache["nodal_grad"]

    def element_gradients(self, values):
        """Constant gradient per element, shape (n_elements, dim)."""
        local = values[self.elements]  # (n_el, nv)
        return np.einsum("ekv,ev->ek", self.gradient_maps, local)

    def summary_dict(self):
        """JSON-ready summary: nodes, connectivity, tagged boundary faces."""
        return {
            "dim": self.dim,
            "n_nodes": self.n_nodes,
            "n_elements": self.n_elements,
            "nodes": self.nodes.tolist(),
            "elements": self.elements.tolist(),
            "boundary_faces": [
                {"nodes": list(face), "tag": tag} for face, tag in self.boundary_faces
            ],
        }

    def summary_json(self):
        return json.dumps(self.summary_dict(), sort_keys=True)


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


def build_interval_mesh(a, b, n_elements, partition=None):
    """Uniform mesh of (a, b) with ``n_elements`` segments.

    The two endpoint faces are single-node faces tagged by ``partition``
    (default: both Dirichlet).
    """
    if not (b > a):
        raise ConfigurationError(f"interval requires b > a, got ({a}, {b})")
    if n_elements < 1:
        raise ConfigurationError("need at least one element")
    partition = partition or BoundaryPartition.all_dirichlet()
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
        box=box,
    )


def build_rect_mesh(lx, ly, nx, ny, partition=None):
    """Structured triangulation of (0, lx) x (0, ly).

    Each of the ``nx * ny`` cells is split into two triangles along the
    diagonal from its lower-left to its upper-right corner, giving
    ``2 nx ny`` elements.  Boundary edges are tagged via the partition
    predicate at edge midpoints (default: all Dirichlet).
    """
    if lx <= 0 or ly <= 0 or nx < 1 or ny < 1:
        raise ConfigurationError("rectangle requires positive extents and cell counts")
    partition = partition or BoundaryPartition.all_dirichlet()
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
        box=box,
    )


def boundary_lumped_weights(mesh, tag=GAMMA2):
    """Lumped boundary quadrature weights for the faces carrying ``tag``.

    Each face spreads its measure equally over its nodes (a point face has
    measure 1), so the weights sum to the measure of the tagged boundary part.
    Returns a dense (n_nodes,) array, zero away from the tagged part.
    """
    w = np.zeros(mesh.n_nodes)
    for face, t in mesh.boundary_faces:
        if t != tag:
            continue
        if len(face) == 1:
            w[face[0]] += 1.0
        else:
            a, b = face
            length = float(np.linalg.norm(mesh.nodes[a] - mesh.nodes[b]))
            w[a] += 0.5 * length
            w[b] += 0.5 * length
    return w
