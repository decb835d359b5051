"""Structured triangular meshes of the rectangular cross section [0, R] x [0, L].

The cross section lives in (r, z) coordinates: r is the distance to the
symmetry axis, z the axial coordinate.  Boundary edges lying on r = 0 are
tagged as the symmetry axis; every other boundary edge is a perfectly
conducting wall.  Axis nodes are constructed with a literal 0.0 so the
axis tag can be decided by exact comparison.

Meshes are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryTag",
    "CrossSectionMesh",
    "MeshConsistencyError",
    "build_structured",
    "check_cavity_size",
    "classify_boundary",
    "locate_point",
    "SIZE_RANGE",
]

# The cavity sizes R and L the library accepts.  Inside the range the
# squared frequencies (j / R)^2 and the element tables stay finite, nonzero
# doubles; outside it they overflow or underflow: at R = L = 1e200 every
# pillbox eigenvalue is 0, at 1e-200 every one overflows, and the element
# pair overflows from 1e155 and divides by zero at 1e-200.
SIZE_RANGE = (1e-100, 1e100)


def check_cavity_size(R: float, L: float) -> None:
    """ValueError unless both R and L lie in SIZE_RANGE."""
    lo, hi = SIZE_RANGE
    if not (lo <= R <= hi and lo <= L <= hi):
        raise ValueError(f"cavity dimensions must lie in [{lo:g}, {hi:g}], got R={R}, L={L}")


class BoundaryTag(Enum):
    AXIS = "axis"
    PEC_WALL = "pec"


class MeshConsistencyError(RuntimeError):
    """Raised when the boundary of a mesh violates the structured layout."""


@dataclass(frozen=True)
class CrossSectionMesh:
    """Triangulation of the angular cross section with tagged boundary.

    nodes         : (n_nodes, 2) float64, columns (r, z)
    triangles     : (n_tri, 3) int, counterclockwise vertex indices
    edges         : (n_edges, 2) int, low node index first
    tri_edges     : (n_tri, 3) int, global edge index of local edges
                    (v0,v1), (v1,v2), (v2,v0)
    boundary_tags : edge index -> BoundaryTag (boundary edges only)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    boundary_tags: dict
    R: float
    L: float
    N: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_z(self) -> int:
        """Number of cell rows in the z direction."""
        return (self.n_nodes // (self.N + 1)) - 1

    def triangle_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def axis_edges(self) -> np.ndarray:
        return np.array(
            sorted(e for e, t in self.boundary_tags.items() if t is BoundaryTag.AXIS),
            dtype=int,
        )

    def wall_edges(self) -> np.ndarray:
        return np.array(
            sorted(e for e, t in self.boundary_tags.items() if t is BoundaryTag.PEC_WALL),
            dtype=int,
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_structured(R: float, L: float, N: int) -> CrossSectionMesh:
    """Uniform N x N_z grid of near-square cells, each split into 2 triangles.

    N_z is chosen so the cell aspect ratio is as close to 1 as possible.
    The diagonal runs from the lower-left to the upper-right cell corner.
    """
    check_cavity_size(R, L)
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError(f"subdivision count must be a positive integer, got N={N}")

    n_z = max(1, int(round(N * L / R)))
    r_vals = np.linspace(0.0, R, N + 1)
    z_vals = np.linspace(0.0, L, n_z + 1)
    r_vals[0] = 0.0  # exact axis coordinate

    rr, zz = np.meshgrid(r_vals, z_vals)  # index [iz, ir]
    nodes = np.column_stack([rr.ravel(), zz.ravel()])

    def nid(ir, iz):
        return iz * (N + 1) + ir

    triangles = []
    for iz in range(n_z):
        for ir in range(N):
            a = nid(ir, iz)
            b = nid(ir + 1, iz)
            c = nid(ir + 1, iz + 1)
            d = nid(ir, iz + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    triangles = np.array(triangles, dtype=int)

    # Unique edge list, low node index first, lexicographic order.
    local = [(0, 1), (1, 2), (2, 0)]
    raw = np.vstack([triangles[:, [i, j]] for i, j in local])
    raw.sort(axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(3, len(triangles)).T.copy()

    mesh = CrossSectionMesh(
        nodes=_freeze(nodes),
        triangles=_freeze(triangles),
        edges=_freeze(edges),
        tri_edges=_freeze(tri_edges),
        boundary_tags={},
        R=float(R),
        L=float(L),
        N=int(N),
    )
    object.__setattr__(mesh, "boundary_tags", classify_boundary(mesh))
    return mesh


def classify_boundary(mesh: CrossSectionMesh) -> dict:
    """Tag every boundary edge as AXIS (both endpoints at r = 0) or PEC_WALL.

    An edge is on the boundary iff it belongs to exactly one triangle.
    Raises MeshConsistencyError if a boundary edge does not lie entirely on
    one of the four sides of the rectangle.
    """
    counts = np.zeros(mesh.n_edges, dtype=int)
    np.add.at(counts, mesh.tri_edges.ravel(), 1)
    if counts.max() > 2 or counts.min() < 1:
        raise MeshConsistencyError("edge/triangle incidence out of range")

    tol = 1e-12 * max(mesh.R, mesh.L)
    tags = {}
    for e in np.nonzero(counts == 1)[0]:
        p = mesh.nodes[mesh.edges[e]]
        r0, r1 = p[0, 0], p[1, 0]
        if r0 == 0.0 and r1 == 0.0:
            tags[int(e)] = BoundaryTag.AXIS
            continue
        on_side = (
            np.all(np.abs(p[:, 0] - mesh.R) < tol)
            or np.all(np.abs(p[:, 1]) < tol)
            or np.all(np.abs(p[:, 1] - mesh.L) < tol)
        )
        if not on_side:
            raise MeshConsistencyError(
                f"boundary edge {e} with endpoints {p.tolist()} lies on no side"
            )
        tags[int(e)] = BoundaryTag.PEC_WALL
    return tags


def locate_point(mesh: CrossSectionMesh, r: float, z: float) -> tuple[int, np.ndarray]:
    """Find the triangle containing (r, z) and its barycentric coordinates.

    Points on cell boundaries are assigned to the lower-index cell, so a
    sample at r = k*h evaluates fields from the left column.  Raises
    ValueError for a point outside [0, R] x [0, L] by more than
    1e-12 * max(R, L).
    """
    tol = 1e-12 * max(mesh.R, mesh.L)
    if not (-tol <= r <= mesh.R + tol and -tol <= z <= mesh.L + tol):
        raise ValueError(f"({r}, {z}) is outside the cross section [0, {mesh.R}] x [0, {mesh.L}]")
    h_r = mesh.R / mesh.N
    n_z = mesh.n_z
    h_z = mesh.L / n_z
    tiny = 1e-12
    ir = int(np.clip(np.floor(r / h_r - tiny), 0, mesh.N - 1))
    iz = int(np.clip(np.floor(z / h_z - tiny), 0, n_z - 1))
    xi = (r - ir * h_r) / h_r
    eta = (z - iz * h_z) / h_z
    cell = iz * mesh.N + ir
    t = 2 * cell if eta <= xi else 2 * cell + 1
    p = mesh.nodes[mesh.triangles[t]]
    T = np.column_stack([p[1] - p[0], p[2] - p[0]])
    lam12 = np.linalg.solve(T, np.array([r, z]) - p[0])
    bary = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
    return t, bary

