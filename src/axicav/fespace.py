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
meshes down to a handful of distinct element constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.legendre import legval

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
    "gradient_inclusion_check",
    "interpolate_h1",
    "project_hcurl",
]

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


def _monomial_exponents(deg: int) -> np.ndarray:
    out = [(d - b, b) for d in range(deg + 1) for b in range(d + 1)]
    return np.array(out, dtype=int)


def _design(expts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return pts[:, 0:1] ** expts[:, 0] * pts[:, 1:2] ** expts[:, 1]


def _design_grad(expts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0:1], pts[:, 1:2]
    a, b = expts[:, 0], expts[:, 1]
    dx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y**b, 0.0)
    dy = np.where(b > 0, b * x**a * y ** np.maximum(b - 1, 0), 0.0)
    return np.stack([dx, dy], axis=-1)  # (npts, nmono, 2)


def _design_hess(expts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0:1], pts[:, 1:2]
    a, b = expts[:, 0], expts[:, 1]
    dxx = np.where(a > 1, a * (a - 1) * x ** np.maximum(a - 2, 0) * y**b, 0.0)
    dxy = np.where(
        (a > 0) & (b > 0),
        a * b * x ** np.maximum(a - 1, 0) * y ** np.maximum(b - 1, 0),
        0.0,
    )
    dyy = np.where(b > 1, b * (b - 1) * x**a * y ** np.maximum(b - 2, 0), 0.0)
    return np.stack([dxx, dxy, dyy], axis=-1)  # (npts, nmono, 3)


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


class _ScalarElement:
    """Lattice Lagrange basis of order q on one physical triangle."""

    def __init__(self, verts: np.ndarray, q: int):
        self.q = q
        self.centroid = verts.mean(axis=0)
        self.scale = float(np.sqrt(np.abs(_det(verts))))
        self.expts = _monomial_exponents(q)
        lattice = _h1_lattice(q)
        pts = (lattice @ verts) / q
        pts_c = (pts - self.centroid) / self.scale
        V = _design(self.expts, pts_c)
        self.coeff = np.linalg.inv(V)  # column j: monomial coeffs of basis j
        self.n_loc = V.shape[0]

    def eval_centered(self, pts_c: np.ndarray, nderiv: int = 2):
        val = _design(self.expts, pts_c) @ self.coeff
        if nderiv == 0:
            return (val,)
        grad = np.einsum(
            "pmc,ml->plc", _design_grad(self.expts, pts_c), self.coeff
        ) / self.scale
        if nderiv == 1:
            return val, grad
        hess = np.einsum(
            "pmc,ml->plc", _design_hess(self.expts, pts_c), self.coeff
        ) / self.scale**2
        return val, grad, hess

    def eval_bary(self, bary: np.ndarray, offsets: np.ndarray, nderiv: int = 2):
        return self.eval_centered(bary @ offsets / self.scale, nderiv)


class _VectorElement:
    """Full [P_p]^2 basis with Legendre tangential-trace edge dofs."""

    def __init__(self, verts: np.ndarray, p: int, flips: tuple):
        self.p = p
        self.centroid = verts.mean(axis=0)
        self.scale = float(np.sqrt(np.abs(_det(verts))))
        self.expts = _monomial_exponents(p)
        nm = len(self.expts)
        self.n_mono2 = 2 * nm

        n_edge_dof = p + 1
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(p + 2)
        T = np.zeros((3 * n_edge_dof, self.n_mono2))
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
            for k in range(n_edge_dof):
                leg = legval(gauss_x, np.eye(n_edge_dof)[k])
                T[le * n_edge_dof + k] = (
                    (k + 0.5) * (gauss_w * leg) @ trace
                )

        U, s, Vt = np.linalg.svd(T)
        rank = int(np.sum(s > 1e-10 * s[0]))
        if rank != 3 * n_edge_dof:
            raise RuntimeError(
                f"tangential trace map rank {rank}, expected {3 * n_edge_dof}"
            )
        # Minimum-norm lift: column (edge, k) has unit Legendre trace there.
        lift = Vt[:rank].T @ (U[:, :rank] / s[None, :rank]).T
        interior = Vt[rank:].T  # (2nm, n_int)
        self.coeff = np.hstack([lift, interior])  # (2nm, n_loc)
        self.n_loc = self.coeff.shape[1]
        self.n_interior = self.n_loc - 3 * n_edge_dof

    def eval_centered(self, pts_c: np.ndarray, deriv: bool = True):
        nm = len(self.expts)
        mono = _design(self.expts, pts_c)
        cr, cz = self.coeff[:nm], self.coeff[nm:]
        val = np.stack([mono @ cr, mono @ cz], axis=-1)  # (np, nloc, 2)
        if not deriv:
            return (val,)
        g = _design_grad(self.expts, pts_c) / self.scale  # (np, nm, 2)
        jac = np.stack(
            [
                np.stack([g[..., 0] @ cr, g[..., 1] @ cr], axis=-1),
                np.stack([g[..., 0] @ cz, g[..., 1] @ cz], axis=-1),
            ],
            axis=-2,
        )  # (np, nloc, 2, 2): jac[..., i, j] = d U_i / d x_j
        return val, jac

    def eval_bary(self, bary: np.ndarray, offsets: np.ndarray, deriv: bool = True):
        return self.eval_centered(bary @ offsets / self.scale, deriv)


def _det(verts: np.ndarray) -> float:
    return (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1]) - (
        verts[1, 1] - verts[0, 1]
    ) * (verts[2, 0] - verts[0, 0])


def _element_classes(mesh: CrossSectionMesh, with_flips: bool):
    """Group congruent elements (translation-equal up to 1e-12 relative)."""
    verts = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
    cent = verts.mean(axis=1, keepdims=True)
    scale = np.sqrt(np.abs(mesh.triangle_areas() * 2.0))
    offs = (verts - cent) / scale[:, None, None]
    keys = np.round(offs.reshape(len(verts), 6) * 1e12).astype(np.int64)
    if with_flips:
        flips = _edge_flips(mesh)
        keys = np.hstack([keys, flips.astype(np.int64)])
    _, first, class_of = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    return class_of, first


def _edge_flips(mesh: CrossSectionMesh) -> np.ndarray:
    """flips[t, le] = 1 when the local edge direction opposes the global one."""
    tri = mesh.triangles
    flips = np.zeros((len(tri), 3), dtype=bool)
    for le, (a, b) in enumerate(_LOCAL_EDGES):
        flips[:, le] = tri[:, a] > tri[:, b]
    return flips


class _Space:
    """Shared by both spaces: elements grouped by class of one local basis."""

    @property
    def n_loc(self) -> int:
        return self.cell_dofs.shape[1]

    def element_groups(self):
        for c, elem in enumerate(self._elements):
            ids = np.nonzero(self._class_of == c)[0]
            yield ids, elem


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
    _offsets: np.ndarray  # (nt, 3, 2) vertex offsets from centroid
    _centroids: np.ndarray

    def evaluate(self, coeffs: np.ndarray, points: np.ndarray, nderiv: int = 0):
        """Evaluate the FE function (and derivatives) at physical points."""
        points = np.atleast_2d(points)
        vals = np.zeros(len(points))
        grads = np.zeros((len(points), 2))
        hess = np.zeros((len(points), 3))
        for i, (r, z) in enumerate(points):
            t, _ = locate_point(self.mesh, r, z)
            elem = self._elements[self._class_of[t]]
            pc = (np.array([[r, z]]) - self._centroids[t]) / elem.scale
            tabs = elem.eval_centered(pc, nderiv)
            local = coeffs[self.cell_dofs[t]]
            vals[i] = tabs[0][0] @ local
            if nderiv >= 1:
                grads[i] = local @ tabs[1][0]
            if nderiv >= 2:
                hess[i] = local @ tabs[2][0]
        if nderiv == 0:
            return vals
        if nderiv == 1:
            return vals, grads
        return vals, grads, hess


@dataclass(frozen=True)
class HCurlSpace(_Space):
    """Vector conforming space: full [P_p]^2 with tangential continuity."""

    mesh: CrossSectionMesh
    p: int
    ndof: int
    cell_dofs: np.ndarray  # (nt, nloc)
    edge_dofs: np.ndarray  # (n_edges, p + 1)
    _class_of: np.ndarray
    _elements: tuple
    _offsets: np.ndarray
    _centroids: np.ndarray

    def evaluate(self, coeffs: np.ndarray, points: np.ndarray, deriv: bool = False):
        points = np.atleast_2d(points)
        vals = np.zeros((len(points), 2))
        jacs = np.zeros((len(points), 2, 2))
        for i, (r, z) in enumerate(points):
            t, _ = locate_point(self.mesh, r, z)
            elem = self._elements[self._class_of[t]]
            pc = (np.array([[r, z]]) - self._centroids[t]) / elem.scale
            tabs = elem.eval_centered(pc, deriv)
            local = coeffs[self.cell_dofs[t]]
            vals[i] = np.einsum("lc,l->c", tabs[0][0], local)
            if deriv:
                jacs[i] = np.einsum("lcd,l->cd", tabs[1][0], local)
        if deriv:
            return vals, jacs
        return vals


def build_h1(mesh: CrossSectionMesh, q: int) -> H1Space:
    if q < 1:
        raise ValueError(f"H1 order must be >= 1, got {q}")
    nt = mesh.n_triangles
    n_edge_int = q - 1
    n_cell_int = (q - 1) * (q - 2) // 2
    ndof = mesh.n_nodes + n_edge_int * mesh.n_edges + n_cell_int * nt
    edge_base = mesh.n_nodes
    cell_base = edge_base + n_edge_int * mesh.n_edges

    flips = _edge_flips(mesh)
    n_loc = (q + 1) * (q + 2) // 2
    cell_dofs = np.zeros((nt, n_loc), dtype=int)
    cell_dofs[:, 0:3] = mesh.triangles
    pos = 3
    for le in range(3):
        E = mesh.tri_edges[:, le]
        block = edge_base + E[:, None] * n_edge_int + np.arange(n_edge_int)
        if n_edge_int:
            fwd = block
            rev = block[:, ::-1]
            cell_dofs[:, pos : pos + n_edge_int] = np.where(
                flips[:, le : le + 1], rev, fwd
            )
        pos += n_edge_int
    if n_cell_int:
        cell_dofs[:, pos:] = (
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

    edge_trace = np.zeros((mesh.n_edges, q + 1), dtype=int)
    edge_trace[:, 0] = mesh.edges[:, 0]
    edge_trace[:, q] = mesh.edges[:, 1]
    if n_edge_int:
        edge_trace[:, 1:q] = (
            edge_base + np.arange(mesh.n_edges)[:, None] * n_edge_int + np.arange(n_edge_int)
        )

    class_of, first = _element_classes(mesh, with_flips=False)
    verts = mesh.nodes[mesh.triangles]
    elements = tuple(_ScalarElement(verts[t], q) for t in first)
    offsets = verts - verts.mean(axis=1, keepdims=True)

    return H1Space(
        mesh=mesh,
        q=q,
        ndof=ndof,
        cell_dofs=cell_dofs,
        dof_points=dof_points,
        edge_trace_dofs=edge_trace,
        _class_of=class_of,
        _elements=elements,
        _offsets=offsets,
        _centroids=verts.mean(axis=1),
    )


def build_hcurl(mesh: CrossSectionMesh, p: int) -> HCurlSpace:
    if p < 1:
        raise ValueError(f"H(curl) order must be >= 1, got {p}")
    nt = mesh.n_triangles
    n_edge_dof = p + 1
    n_int = p * p - 1
    ndof = n_edge_dof * mesh.n_edges + n_int * nt
    cell_base = n_edge_dof * mesh.n_edges

    cell_dofs = np.zeros((nt, 3 * n_edge_dof + n_int), dtype=int)
    for le in range(3):
        E = mesh.tri_edges[:, le]
        cell_dofs[:, le * n_edge_dof : (le + 1) * n_edge_dof] = (
            E[:, None] * n_edge_dof + np.arange(n_edge_dof)
        )
    if n_int:
        cell_dofs[:, 3 * n_edge_dof :] = (
            cell_base + np.arange(nt)[:, None] * n_int + np.arange(n_int)
        )

    edge_dofs = np.arange(mesh.n_edges)[:, None] * n_edge_dof + np.arange(n_edge_dof)

    class_of, first = _element_classes(mesh, with_flips=True)
    verts = mesh.nodes[mesh.triangles]
    flips = _edge_flips(mesh)
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
        _offsets=verts - verts.mean(axis=1, keepdims=True),
        _centroids=verts.mean(axis=1),
    )


@dataclass(frozen=True)
class FeSpacePair:
    """H1 space of order q and H(curl) space of order p on one mesh.

    Combined dof numbering: the H1 block first, then the H(curl) block.
    """

    h1: H1Space
    hcurl: HCurlSpace

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
            t0 = ids[0]
            offs = self.h1._offsets[t0]
            s = TransformedValues.scalar(
                *self.h1._elements[self.h1._class_of[t0]].eval_bary(bary, offs, nderiv=2))
            v = TransformedValues.vector(*vec.eval_bary(bary, offs, deriv=True))
            yield ids, TransformedValues(*(
                np.concatenate([getattr(s, f.name), getattr(v, f.name)], axis=1)[None]
                for f in fields(TransformedValues)))


def build_pair(mesh: CrossSectionMesh, q: int, p: int) -> FeSpacePair:
    return FeSpacePair(h1=build_h1(mesh, q), hcurl=build_hcurl(mesh, p))


def interpolate_h1(space: H1Space, f) -> np.ndarray:
    """Lattice interpolation: exact for polynomials of degree <= q."""
    return np.asarray(f(space.dof_points[:, 0], space.dof_points[:, 1]), dtype=float)


def _hcurl_l2_system(space: HCurlSpace, f, degree: int):
    from scipy import sparse

    rule = rule_for_degree(degree)
    bary, w = rule.points, rule.weights
    verts = space.mesh.nodes[space.mesh.triangles]
    dets = np.abs(space.mesh.triangle_areas() * 2.0)
    rows, cols, vals = [], [], []
    rhs = np.zeros(space.ndof)
    for ids, elem in space.element_groups():
        (val,) = elem.eval_bary(bary, space._offsets[ids[0]], deriv=False)
        gram = np.einsum("q,qic,qjc->ij", w, val, val)  # class-constant
        pts = np.einsum("qk,tkc->tqc", bary, verts[ids])
        for t, e in enumerate(ids):
            dofs = space.cell_dofs[e]
            rows.append(np.repeat(dofs, len(dofs)))
            cols.append(np.tile(dofs, len(dofs)))
            vals.append((gram * dets[e]).ravel())
            fv = np.stack(f(pts[t, :, 0], pts[t, :, 1]), axis=-1)  # (nq, 2)
            rhs[dofs] += np.einsum("q,qic,qc->i", w * dets[e], val, fv)
    G = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.ndof, space.ndof),
    ).tocsc()
    return G, rhs


def project_hcurl(space: HCurlSpace, f, degree: int | None = None) -> np.ndarray:
    """Global L2 projection onto the space; exact for degree <= p fields.

    f(r, z) must return the pair of component arrays (f_r, f_z).
    """
    from scipy.sparse.linalg import splu

    if degree is None:
        degree = 2 * space.p + 2
    G, rhs = _hcurl_l2_system(space, f, degree)
    return splu(G).solve(rhs)


def gradient_inclusion_check(pair: FeSpacePair, degree: int | None = None) -> float:
    """Max pointwise residual of projecting every H1 basis gradient onto H(curl).

    With q = p + 1 the gradients are exactly representable and the residual
    is at the rounding level.  Dense linear algebra: intended for the small
    meshes used in verification.
    """
    if degree is None:
        degree = 2 * max(pair.h1.q, pair.hcurl.p) + 2
    rule = rule_for_degree(degree)
    bary, w = rule.points, rule.weights
    mesh = pair.h1.mesh
    dets = np.abs(mesh.triangle_areas() * 2.0)

    nq = rule.point_count
    nsamp = mesh.n_triangles * nq
    Gu = np.zeros((2 * nsamp, pair.h1.ndof))
    Pu = np.zeros((2 * nsamp, pair.hcurl.ndof))
    wts = np.zeros(nsamp)

    nlu = pair.h1.n_loc
    for ids, local in pair.local_basis(bary):
        g = local.du[0, :, :nlu]  # (nq, nlu, 2)
        v = local.U[0, :, nlu:]  # (nq, nlU, 2)
        for t in ids:
            wts[t * nq : (t + 1) * nq] = w * dets[t]
            for comp in range(2):
                rowsl = slice(comp * nsamp + t * nq, comp * nsamp + (t + 1) * nq)
                Gu[rowsl, :][:, pair.h1.cell_dofs[t]] += g[:, :, comp]
                Pu[rowsl, :][:, pair.hcurl.cell_dofs[t]] += v[:, :, comp]

    w2 = np.concatenate([wts, wts])
    gram = Pu.T @ (w2[:, None] * Pu)
    cross = Pu.T @ (w2[:, None] * Gu)
    X = np.linalg.solve(gram, cross)
    resid = Gu - Pu @ X
    return float(np.max(np.abs(resid)))
