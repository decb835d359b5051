"""Conforming H1 and H(curl) finite element spaces on triangle meshes.

H1 spaces of order q use nodal bases on the principal lattice; a degree of
freedom is the function value at its lattice point, so homogeneous boundary
conditions reduce to zeroing the dofs whose points lie on tagged edges.

H(curl) spaces of order p contain the complete vector polynomial space
[P_p]^2 on every element ("full" spaces, holding both rotational and
irrotational functions).  Each global edge carries p + 1 dofs: the basis
function of dof (edge, k) has tangential trace equal to the Legendre
polynomial L_k along the edge, parameterized from the low-index node to the
high-index node.  Because both neighboring elements target the same trace,
tangential conformity holds without any orientation bookkeeping.  Interior
functions span the tangential-trace-free complement, computed as the null
space of the trace map.

Element bases are constructed numerically in translation-reduced physical
coordinates and shared across congruent elements, which keeps structured
meshes down to a handful of distinct element constructions.  Both element
kinds hold monomial coefficients and tabulate every derivative from one rule:
the (d_r, d_z) derivative of each monomial.  The H(curl) trace lift is the
pseudo-inverse of the trace map.  Each edge lists its dofs once (H1
edge_trace_dofs, H(curl) edge_dofs); cell_dofs reads its edge blocks there.

The discrete gradient G maps H1 coefficients to the H(curl) coefficients of
their gradients.  With q <= p + 1 the gradients lie in the H(curl) space, so
one small least-squares solve per element class gives G exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy import sparse
from scipy.linalg import null_space, pinv, solve_triangular
from scipy.sparse.linalg import splu

from .formulation import TransformedValues
from .mesh import CrossSectionMesh, locate_point
from .quadrature import rule_for_degree

__all__ = [
    "H1Space",
    "HCurlSpace",
    "FeSpacePair",
    "build_h1",
    "build_hcurl",
    "build_pair",
    "discrete_gradient",
    "gradient_inclusion_check",
    "interpolate_h1",
    "project_hcurl",
]

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


def _monomial_exponents(deg: int) -> np.ndarray:
    out = [(d - b, b) for d in range(deg + 1) for b in range(d + 1)]
    return np.array(out, dtype=int)


# (d_r, d_z) orders of the element tables, by derivative order: the value,
# the gradient and the (rr, rz, zz) Hessian
_DERIVS = (((0, 0),), ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2)))


def _design(expts: np.ndarray, pts: np.ndarray, d=(0, 0)) -> np.ndarray:
    """The d = (d_r, d_z) derivative of every monomial x^a y^b at the points,
    (npts, nmono): the falling factorials a (a-1) .. (a-d_r+1) and
    b (b-1) .. (b-d_z+1) times x^(a-d_r) y^(b-d_z), zero once a power drops
    below zero."""
    falling = [np.prod(expts[:, c : c + 1] - np.arange(d[c]), axis=1) for c in (0, 1)]
    power = np.maximum(expts - d, 0)
    return falling[0] * falling[1] * pts[:, 0:1] ** power[:, 0] * pts[:, 1:2] ** power[:, 1]


def _h1_lattice(q: int):
    """Lattice multi-indices (i, j, k), i+j+k = q, bucketed by entity.

    Order: the 3 vertices, then edge-interior points of local edges
    (0,1), (1,2), (2,0) walked in local direction, then interior points.
    """
    idx = [(q, 0, 0), (0, q, 0), (0, 0, q)]
    for a, b in _LOCAL_EDGES:
        for t in range(1, q):
            m = [0, 0, 0]
            m[a] = q - t
            m[b] = t
            idx.append(tuple(m))
    for i in range(1, q):
        for j in range(1, q - i):
            k = q - i - j
            if k >= 1:
                idx.append((i, j, k))
    return np.array(idx, dtype=int)


class _Element:
    """Local basis of one element class, tabulated in the centered, scaled
    coordinates (x - centroid) / scale of the class representative.

    coeff holds the monomial coefficients of the basis, one column per basis
    function; a vector basis stacks its r block over its z block.
    """

    def __init__(self, verts: np.ndarray, deg: int):
        self.centroid = verts.mean(axis=0)
        self.offsets = verts - self.centroid  # (3, 2) vertex offsets
        self.scale = float(np.sqrt(np.abs(_det(verts))))
        self.expts = _monomial_exponents(deg)

    def eval_bary(self, bary: np.ndarray, nderiv: int):
        """Basis tables at barycentric points of any element of the class."""
        return self.eval_centered(bary @ self.offsets / self.scale, nderiv)

    def eval_centered(self, pts_c: np.ndarray, nderiv: int):
        """The value table, then one table per derivative order up to nderiv,
        its last axis running over the (d_r, d_z) of that order in _DERIVS.

        H1 gives values (np, nloc), the gradient (np, nloc, 2) and the
        (rr, rz, zz) Hessian (np, nloc, 3); H(curl) gives values (np, nloc, 2)
        and the Jacobian (np, nloc, 2, 2) with jac[..., i, j] = d U_i / d x_j.
        """
        comps = self.coeff.reshape(-1, len(self.expts), self.coeff.shape[1])
        if nderiv > 1 and len(comps) > 1:
            raise ValueError("H(curl) elements tabulate values and first derivatives only")
        tabs = []
        for k, ds in enumerate(_DERIVS[: nderiv + 1]):
            tab = np.stack([_design(self.expts, pts_c, d) @ comps for d in ds], axis=-1)
            tab = np.moveaxis(tab, 0, -2) / self.scale**k  # (np, nloc, ncomp, nd)
            tabs.append(tab[..., 0, :] if len(comps) == 1 else tab)
        return (tabs[0][..., 0],) + tuple(tabs[1:])


class _ScalarElement(_Element):
    """Lattice Lagrange basis of order q on one physical triangle."""

    def __init__(self, verts: np.ndarray, q: int):
        super().__init__(verts, q)
        pts = (_h1_lattice(q) @ verts) / q
        pts_c = (pts - self.centroid) / self.scale
        self.coeff = np.linalg.inv(_design(self.expts, pts_c))  # column j: basis j


class _VectorElement(_Element):
    """Full [P_p]^2 basis with Legendre tangential-trace edge dofs."""

    def __init__(self, verts: np.ndarray, p: int, flips: tuple):
        super().__init__(verts, p)
        n_edge_dof = p + 1
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(p + 2)
        # row k: the Gauss weights of the Legendre moment (k + 1/2) int L_k v ds
        leg = legvander(gauss_x, p) * gauss_w[:, None]  # (ng, n_edge_dof)
        moments = (np.arange(n_edge_dof)[:, None] + 0.5) * leg.T
        T = np.zeros((3 * n_edge_dof, 2 * len(self.expts)))
        for le, (a, b) in enumerate(_LOCAL_EDGES):
            va, vb = verts[a], verts[b]
            if flips[le]:
                va, vb = vb, va
            tangent = vb - va
            tangent = tangent / np.linalg.norm(tangent)
            pts = 0.5 * (va + vb) + 0.5 * np.outer(gauss_x, vb - va)
            pts_c = (pts - self.centroid) / self.scale
            mono = _design(self.expts, pts_c)  # (ng, nm)
            trace = np.concatenate(
                [mono * tangent[0], mono * tangent[1]], axis=1
            )  # (ng, 2nm): v(s).t for each monomial column
            T[le * n_edge_dof : (le + 1) * n_edge_dof] = moments @ trace

        # Minimum-norm lift: column (edge, k) has unit Legendre trace there;
        # the interior functions span the null space of the trace map.
        self.coeff = np.hstack([pinv(T), null_space(T)])  # (2nm, n_loc)
        self.n_loc = self.coeff.shape[1]
        self.n_interior = self.n_loc - 3 * n_edge_dof


def _det(verts: np.ndarray) -> float:
    return (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1]) - (
        verts[1, 1] - verts[0, 1]
    ) * (verts[2, 0] - verts[0, 0])


def _element_classes(mesh: CrossSectionMesh, flips: np.ndarray | None = None):
    """Group congruent elements (translation-equal up to 1e-12 relative),
    with equal edge flips when `flips` is given."""
    verts = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
    cent = verts.mean(axis=1, keepdims=True)
    scale = np.sqrt(np.abs(mesh.triangle_areas() * 2.0))
    offs = (verts - cent) / scale[:, None, None]
    # the size is part of the key: the tables carry the representative's
    # scale, so similar elements of different size must not share a class
    shape_size = np.hstack([offs.reshape(len(verts), 6), (scale / scale.max())[:, None]])
    keys = np.round(shape_size * 1e12).astype(np.int64)
    if flips is not None:
        keys = np.hstack([keys, flips.astype(np.int64)])
    keys, first, class_of = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    # Congruent elements can round to neighbouring keys: a class joins the
    # first (sorted) class within one unit of it in every coordinate.
    root = np.arange(len(keys))
    for c in range(1, len(keys)):
        lo = np.searchsorted(keys[:c, 0], keys[c, 0] - 1)
        diff = np.abs(keys[lo:c] - keys[c])
        shape_near = diff[:, :7].max(axis=1) <= 1  # the 6 offsets and the size
        near = np.nonzero(shape_near & (diff[:, 7:] == 0).all(axis=1))[0]
        if near.size:
            root[c] = root[lo + near[0]]
    kept, root = np.unique(root, return_inverse=True)
    return root[class_of], first[kept]


def _edge_flips(mesh: CrossSectionMesh) -> np.ndarray:
    """flips[t, le] = 1 when the local edge direction opposes the global one."""
    tri = mesh.triangles
    flips = np.zeros((len(tri), 3), dtype=bool)
    for le, (a, b) in enumerate(_LOCAL_EDGES):
        flips[:, le] = tri[:, a] > tri[:, b]
    return flips


class _Space:
    """Shared by both spaces: elements grouped by class of one local basis."""

    def element_groups(self):
        for c, elem in enumerate(self._elements):
            ids = np.nonzero(self._class_of == c)[0]
            yield ids, elem

    def evaluate(self, coeffs: np.ndarray, points: np.ndarray, nderiv: int = 0):
        """The FE function with coefficients `coeffs` at physical points (r, z).

        Returns the values for nderiv = 0, else the tuple (values, first
        derivatives[, second derivatives]) laid out like the element tables:
        H1 gives the gradient and the (rr, rz, zz) Hessian, H(curl) the
        Jacobian d U_i / d x_j.  Raises ValueError for a point outside the
        cross section.
        """
        samples = []
        for r, z in np.atleast_2d(points):
            t, _ = locate_point(self.mesh, r, z)
            elem = self._elements[self._class_of[t]]
            centroid = self.mesh.nodes[self.mesh.triangles[t]].mean(axis=0)
            tabs = elem.eval_centered((np.array([[r, z]]) - centroid) / elem.scale, nderiv)
            local = coeffs[self.cell_dofs[t]]
            samples.append([np.tensordot(local, tab[0], axes=1) for tab in tabs])
        out = tuple(np.array(col) for col in zip(*samples))
        return out[0] if nderiv == 0 else out


@dataclass(frozen=True)
class H1Space(_Space):
    """Scalar conforming space of order q with lattice-point dofs."""

    mesh: CrossSectionMesh
    q: int
    ndof: int
    cell_dofs: np.ndarray  # (nt, nloc)
    dof_points: np.ndarray  # (ndof, 2)
    edge_trace_dofs: np.ndarray  # (n_edges, q + 1) dofs with support on the edge
    _class_of: np.ndarray
    _elements: tuple  # _ScalarElement per class


@dataclass(frozen=True)
class HCurlSpace(_Space):
    """Vector conforming space: full [P_p]^2 with tangential continuity."""

    mesh: CrossSectionMesh
    p: int
    ndof: int
    cell_dofs: np.ndarray  # (nt, nloc)
    edge_dofs: np.ndarray  # (n_edges, p + 1)
    _class_of: np.ndarray
    _elements: tuple  # _VectorElement per class


def build_h1(mesh: CrossSectionMesh, q: int) -> H1Space:
    if q < 1:
        raise ValueError(f"H1 order must be >= 1, got {q}")
    nt = mesh.n_triangles
    n_edge_int = q - 1
    n_cell_int = (q - 1) * (q - 2) // 2
    ndof = mesh.n_nodes + n_edge_int * mesh.n_edges + n_cell_int * nt
    edge_base = mesh.n_nodes
    cell_base = edge_base + n_edge_int * mesh.n_edges

    # Edge e carries its low node, its q - 1 interior dofs walked low node ->
    # high node, then its high node.
    edge_trace = np.zeros((mesh.n_edges, q + 1), dtype=int)
    edge_trace[:, 0] = mesh.edges[:, 0]
    edge_trace[:, q] = mesh.edges[:, 1]
    edge_trace[:, 1:q] = (
        edge_base + np.arange(mesh.n_edges)[:, None] * n_edge_int + np.arange(n_edge_int)
    )

    flips = _edge_flips(mesh)
    cell_dofs = np.zeros((nt, (q + 1) * (q + 2) // 2), dtype=int)
    cell_dofs[:, 0:3] = mesh.triangles
    for le in range(3):  # the edge blocks, reversed where the local edge runs high -> low
        block = edge_trace[mesh.tri_edges[:, le], 1:q]
        cell_dofs[:, 3 + le * n_edge_int : 3 + (le + 1) * n_edge_int] = np.where(
            flips[:, le : le + 1], block[:, ::-1], block
        )
    cell_dofs[:, 3 + 3 * n_edge_int :] = (
        cell_base + np.arange(nt)[:, None] * n_cell_int + np.arange(n_cell_int)
    )

    # Dof coordinates: vertex = node, edge dofs walk low node -> high node.
    dof_points = np.zeros((ndof, 2))
    dof_points[: mesh.n_nodes] = mesh.nodes
    if n_edge_int:
        lo = mesh.nodes[mesh.edges[:, 0]]
        hi = mesh.nodes[mesh.edges[:, 1]]
        t = np.arange(1, q)[None, :, None] / q
        pts = (1.0 - t) * lo[:, None, :] + t * hi[:, None, :]
        dof_points[edge_base:cell_base] = pts.reshape(-1, 2)
    if n_cell_int:
        lat = _h1_lattice(q)[3 + 3 * n_edge_int :]
        verts = mesh.nodes[mesh.triangles]
        pts = np.einsum("lk,tkc->tlc", lat / q, verts)
        dof_points[cell_base:] = pts.reshape(-1, 2)

    class_of, first = _element_classes(mesh)
    verts = mesh.nodes[mesh.triangles]
    elements = tuple(_ScalarElement(verts[t], q) for t in first)

    return H1Space(
        mesh=mesh,
        q=q,
        ndof=ndof,
        cell_dofs=cell_dofs,
        dof_points=dof_points,
        edge_trace_dofs=edge_trace,
        _class_of=class_of,
        _elements=elements,
    )


def build_hcurl(mesh: CrossSectionMesh, p: int) -> HCurlSpace:
    if p < 1:
        raise ValueError(f"H(curl) order must be >= 1, got {p}")
    nt = mesh.n_triangles
    n_edge_dof = p + 1
    n_int = p * p - 1
    ndof = n_edge_dof * mesh.n_edges + n_int * nt
    cell_base = n_edge_dof * mesh.n_edges

    edge_dofs = np.arange(mesh.n_edges)[:, None] * n_edge_dof + np.arange(n_edge_dof)
    cell_dofs = np.hstack([  # the three edge blocks in local edge order, then the interior
        edge_dofs[mesh.tri_edges].reshape(nt, 3 * n_edge_dof),
        cell_base + np.arange(nt)[:, None] * n_int + np.arange(n_int),
    ])

    flips = _edge_flips(mesh)
    class_of, first = _element_classes(mesh, flips)
    verts = mesh.nodes[mesh.triangles]
    elements = tuple(
        _VectorElement(verts[t], p, tuple(flips[t])) for t in first
    )
    for elem in elements:
        if elem.n_interior != n_int:
            raise RuntimeError("interior dimension mismatch in H(curl) element")

    return HCurlSpace(
        mesh=mesh,
        p=p,
        ndof=ndof,
        cell_dofs=cell_dofs,
        edge_dofs=edge_dofs,
        _class_of=class_of,
        _elements=elements,
    )


@dataclass(frozen=True)
class FeSpacePair:
    """H1 space of order q and H(curl) space of order p on one mesh.

    Combined dof numbering: the H1 block first, then the H(curl) block.
    """

    h1: H1Space
    hcurl: HCurlSpace
    # what assembly builds once per pair (see assembly._translates and
    # assembly._scatter); it lives and dies with the pair
    _assembly: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_total(self) -> int:
        return self.h1.ndof + self.hcurl.ndof

    @property
    def n_h1(self) -> int:
        return self.h1.ndof

    def combined_cell_dofs(self) -> np.ndarray:
        return np.hstack([self.h1.cell_dofs, self.h1.ndof + self.hcurl.cell_dofs])

    def local_basis(self, bary: np.ndarray):
        """Per class of elements sharing one local basis of the pair, yields
        (element ids, TransformedValues) at barycentric points.

        The local basis lists the scalar functions (zero vector part), then
        the vector functions (zero scalar part): the combined_cell_dofs
        order.  Each table has a leading length-1 axis that broadcasts over
        the elements of the class.  An H(curl) class (shape plus edge flips)
        fixes the H1 class, so the classes are those of the H(curl) space.
        """
        for ids, vec in self.hcurl.element_groups():
            sca = self.h1._elements[self.h1._class_of[ids[0]]]
            s = TransformedValues.scalar(*sca.eval_bary(bary, 2))
            v = TransformedValues.vector(*vec.eval_bary(bary, 1))
            yield ids, TransformedValues(*(
                np.concatenate([getattr(s, f.name), getattr(v, f.name)], axis=1)[None]
                for f in fields(TransformedValues)))


def build_pair(mesh: CrossSectionMesh, q: int, p: int) -> FeSpacePair:
    return FeSpacePair(h1=build_h1(mesh, q), hcurl=build_hcurl(mesh, p))


def interpolate_h1(space: H1Space, f) -> np.ndarray:
    """Lattice interpolation: exact for polynomials of degree <= q."""
    return np.asarray(f(space.dof_points[:, 0], space.dof_points[:, 1]), dtype=float)


def _sample_matrix(space: HCurlSpace, bary: np.ndarray) -> sparse.csr_matrix:
    """Sparse map from coefficients to the values of the space at the
    barycentric points of every element.

    Row c * n_samples + t * nq + k holds component c at point k of element t,
    with n_samples = n_triangles * nq.
    """
    nq = len(bary)
    n_samples = space.mesh.n_triangles * nq
    rows, cols, vals = [], [], []
    for ids, elem in space.element_groups():
        (tab,) = elem.eval_bary(bary, 0)  # (nq, nloc, 2)
        shape = (len(ids),) + tab.shape
        sample = ids[:, None] * nq + np.arange(nq)
        row = sample[:, :, None, None] + n_samples * np.arange(2)  # (ne, nq, 1, 2)
        rows.append(np.broadcast_to(row, shape).ravel())
        cols.append(np.broadcast_to(space.cell_dofs[ids][:, None, :, None], shape).ravel())
        vals.append(np.broadcast_to(tab, shape).ravel())
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n_samples, space.ndof),
    )


def project_hcurl(space: HCurlSpace, f) -> np.ndarray:
    """Global L2 projection onto the space; exact for degree <= p fields.

    f(r, z) must return the pair of component arrays (f_r, f_z).  The
    integrals use the degree 2p + 2 rule.
    """
    mesh = space.mesh
    rule = rule_for_degree(2 * space.p + 2)
    w = (np.abs(mesh.triangle_areas() * 2.0)[:, None] * rule.weights).ravel()  # |det J| w
    pts = np.einsum("qk,tkc->tqc", rule.points, mesh.nodes[mesh.triangles]).reshape(-1, 2)
    F = np.concatenate(f(pts[:, 0], pts[:, 1]))
    P = _sample_matrix(space, rule.points)
    PtW = P.T @ sparse.diags(np.concatenate([w, w]))  # both components
    return splu((PtW @ P).tocsc()).solve(PtW @ F)


def _local_gradients(pair: FeSpacePair):
    """Per element class, yields (element ids, X, residual).

    X (H(curl) local x H1 local) holds the H(curl) coefficients of the H1
    basis gradients: a QR least-squares fit of the gradients by the H(curl)
    basis, both sampled at the points of the degree 2 max(q, p) + 2 rule.
    residual is the largest pointwise misfit; with q <= p + 1 the gradients
    lie in the space and it is at the rounding level.
    """
    rule = rule_for_degree(2 * max(pair.h1.q, pair.hcurl.p) + 2)
    sqrt_w = np.sqrt(np.tile(rule.weights, 2))[:, None]  # both components
    n_s = pair.h1.cell_dofs.shape[1]

    def samples(tab):  # (1, nq, nloc, 2) -> (2 nq, nloc), component-major
        return tab[0].transpose(2, 0, 1).reshape(-1, tab.shape[2])

    for ids, local in pair.local_basis(rule.points):
        grad, vals = samples(local.du[:, :, :n_s]), samples(local.U[:, :, n_s:])
        Q, R = np.linalg.qr(sqrt_w * vals)
        X = solve_triangular(R, Q.T @ (sqrt_w * grad))
        yield ids, X, float(np.max(np.abs(grad - vals @ X)))


def discrete_gradient(pair: FeSpacePair) -> sparse.csr_matrix:
    """Sparse (H(curl) dofs x H1 dofs) map G with grad u_h = G u_h.

    Built from one local least-squares solve per element class; exact up to
    rounding when q <= p + 1.
    """
    rows, cols, vals = [], [], []
    for ids, X, _ in _local_gradients(pair):
        shape = (len(ids),) + X.shape
        rows.append(np.broadcast_to(pair.hcurl.cell_dofs[ids][:, :, None], shape).ravel())
        cols.append(np.broadcast_to(pair.h1.cell_dofs[ids][:, None, :], shape).ravel())
        vals.append(np.broadcast_to(X, shape).ravel())
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    # Both neighbours of an edge write its rows, with the same values (the
    # tangential-trace moments of the same gradient): keep each entry once.
    _, first = np.unique(rows * pair.h1.ndof + cols, return_index=True)
    return sparse.csr_matrix(
        (vals[first], (rows[first], cols[first])), shape=(pair.hcurl.ndof, pair.h1.ndof)
    )


def gradient_inclusion_check(pair: FeSpacePair) -> float:
    """Max pointwise residual of representing every H1 basis gradient in H(curl).

    The largest residual of the local fits behind discrete_gradient.  With
    q = p + 1 the gradients are exactly representable and the residual is
    at the rounding level.
    """
    return max(res for _, _, res in _local_gradients(pair))
