"""Assembly of the global symmetric stiffness/mass pencil K x = lambda M x.

The structure is built once per discretization, the values on every call.
The first assemble for a (pair, block, axis conditions) builds the free
dofs, the CSR pattern of the reduced pencil and an int32 map from element
entries to its slots, and keeps them on the pair; the kernel basis is kept
there per kernel rule.  Essential conditions (axis conditions of the chosen
transformation plus the perfectly conducting walls) are applied by
symmetric elimination: entries of constrained dofs are dropped before the
map is built, so the reduced pencil stays symmetric with M positive
definite, and each call fills K and M with one bincount each.

The pair's local basis (scalar then vector functions) is mapped to
physical fields and their weighted curl once per chunk of congruent
elements, and each element matrix is one batched Gram product of those
tables under the quadrature, material and r weights.  The integrands
depend on r only, so z-translates share their element matrices: within
each class of congruent elements, one matrix is computed per distinct
triple of vertex r-coordinates (the n_z rows of a structured mesh cost one
row), and the slot map reads it for the rest of the class.

Duplicates of a slot are summed in element order, which makes assembled
matrices bit-stable from run to run and K and M exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy import sparse

from .fespace import FeSpacePair, discrete_gradient
from .formulation import (
    ModeProblem,
    TransformedValues,
    axis_conditions,
    curl_of_bundle,
    gradient_kernel_coefficient,
    transformed_to_physical,
)
from .mesh import BoundaryTag
from .quadrature import rule_for_degree

__all__ = [
    "AssembledPencil",
    "assemble",
    "apply_constraints",
    "collect_constraints",
]


@dataclass
class AssembledPencil:
    """Reduced symmetric pencil with the bookkeeping to undo the reduction.

    Free dofs are ordered as in the full combined numbering (H1 block then
    H(curl) block); n_free_h1 counts how many free dofs are scalar.

    kernel_basis, when set, is a sparse (free dofs x kernel dimension) Z
    whose range is exactly the kernel of K: [I; c G] at n != 0 (see
    formulation.gradient_kernel_coefficient), [0; G_s] for the full problem
    at n = 0 and G_s for its in-plane block, G_s the discrete gradient of
    the scalar dofs off the PEC walls; the azimuthal block's Z has no
    columns.  The eigensolver reads the kernel count off Z's columns and
    projects range Z out of window Lanczos.  None where the kernel has no
    such form (TD with |n| > 1, and orders whose gradients are not exactly
    the curl-free vector fields).
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    ndof_full: int
    n_h1: int
    free_to_full: np.ndarray
    constrained: np.ndarray
    n_free_h1: int
    kernel_basis: sparse.csr_matrix | None = None

    @property
    def n_free(self) -> int:
        return self.K.shape[0]

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Embed a free-dof vector into the full numbering (zeros elsewhere)."""
        full = np.zeros(self.ndof_full, dtype=x.dtype)
        full[self.free_to_full] = x
        return full

    def offdiagonal_block(self, which: str = "K") -> np.ndarray:
        """Dense H1-x-H(curl) coupling block (for decoupling checks)."""
        A = self.K if which == "K" else self.M
        nu = self.n_free_h1
        return np.asarray(A[:nu][:, nu:].todense())


def collect_constraints(problem: ModeProblem, pair: FeSpacePair) -> np.ndarray:
    """Constrained combined dofs: axis conditions plus PEC wall conditions."""
    mesh = problem.mesh
    cond = axis_conditions(problem.transformation, problem.n)
    dofs = []
    for e, tag in mesh.boundary_tags.items():
        if tag is BoundaryTag.PEC_WALL:
            dofs.append(pair.h1.edge_trace_dofs[e])
            dofs.append(pair.n_h1 + pair.hcurl.edge_dofs[e])
        else:  # axis
            if cond.h1_dirichlet:
                dofs.append(pair.h1.edge_trace_dofs[e])
            if cond.hcurl_tangential_dirichlet:
                dofs.append(pair.n_h1 + pair.hcurl.edge_dofs[e])
    if not dofs:
        return np.empty(0, dtype=int)
    return np.unique(np.concatenate(dofs))


def apply_constraints(K_full, M_full, constrained):
    """Eliminate constrained dofs (homogeneous conditions) symmetrically.

    Returns (K, M, free_to_full).  Raises on duplicate or
    out-of-range constraint indices.  assemble does this elimination in its
    slot map; this slicing of assembled matrices is the reference for it.
    """
    n = K_full.shape[0]
    constrained = np.asarray(constrained, dtype=int)
    if constrained.size:
        if constrained.min() < 0 or constrained.max() >= n:
            raise ValueError("constraint dof out of range")
        if len(np.unique(constrained)) != len(constrained):
            raise ValueError("duplicate constraint dof")
    mask = np.ones(n, dtype=bool)
    mask[constrained] = False
    free = np.nonzero(mask)[0]
    K = K_full.tocsr()[free][:, free].tocsr()
    M = M_full.tocsr()[free][:, free].tocsr()
    K.sort_indices()
    M.sort_indices()
    return K, M, free


# elements per vectorized batch: a (chunk, 3, nq, nloc) table stays near the
# per-core cache (2.4 MB at 144 points; 256 elements made it 20 MB and slow)
_CHUNK = 32


def _gram(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetrized element matrices A^T (w A): A is (ne, ncomp, nq, nloc),
    w is (ne, ncomp, nq), and the sum runs over (component x point)."""
    ne, nloc = A.shape[0], A.shape[-1]
    A = A.reshape(ne, -1, nloc)
    G = A.transpose(0, 2, 1) @ (w.reshape(ne, -1, 1) * A)
    return 0.5 * (G + G.transpose(0, 2, 1))


def _block_slices(problem: ModeProblem, pair: FeSpacePair):
    """(local basis columns, combined dofs) of the problem's block; both
    list the scalar unknowns first, then the vector ones."""
    nloc_h1 = pair.h1.cell_dofs.shape[1]
    return {"full": (slice(None), slice(None)),
            "azimuthal": (slice(None, nloc_h1), slice(None, pair.n_h1)),
            "inplane": (slice(nloc_h1, None), slice(pair.n_h1, None))}[problem.block]


@dataclass(frozen=True)
class _Translates:
    """Elements that share an element matrix: per class of pair.local_basis,
    one representative per distinct triple of vertex r-coordinates (the
    class fixes shape, size and edge flips, so the rest are z-translates),
    and for every element the row of its matrix in the stack of all the
    representatives' matrices."""

    reps: tuple
    matrix_of: np.ndarray  # (n_triangles,) int32


def _translates(pair: FeSpacePair) -> _Translates:
    if "translates" not in pair._assembly:
        mesh = pair.h1.mesh
        r_verts = mesh.nodes[mesh.triangles][:, :, 0]
        reps, matrix_of = [], np.empty(mesh.n_triangles, dtype=np.int32)
        for els, _ in pair.hcurl.element_groups():  # the classes of local_basis
            _, first, inverse = np.unique(r_verts[els], axis=0, return_index=True,
                                          return_inverse=True)
            matrix_of[els] = sum(len(r) for r in reps) + inverse.ravel()
            reps.append(els[first])
        pair._assembly["translates"] = _Translates(tuple(reps), matrix_of)
    return pair._assembly["translates"]


def _element_matrices(problem: ModeProblem, pair: FeSpacePair):
    """Stacked element stiffness and mass matrices of the problem's block,
    one per representative of _translates, each (n_matrices, nloc, nloc)."""
    mesh = problem.mesh
    tr, n = problem.transformation, problem.n
    rule = rule_for_degree(problem.quad_degree)
    bary, wq = rule.points, rule.weights

    eps = np.array(problem.material.eps)[:, None]  # (3, 1): component x point
    inv_mu = np.array([1.0 / m for m in problem.material.mu])[:, None]

    verts = mesh.nodes[mesh.triangles]
    dets = np.abs(mesh.triangle_areas() * 2.0)
    cols, _ = _block_slices(problem, pair)
    K_u, M_u = [], []
    for (_, local), reps in zip(pair.local_basis(bary), _translates(pair).reps, strict=True):
        local = TransformedValues(*(getattr(local, f.name)[:, :, cols] for f in fields(local)))
        for start in range(0, len(reps), _CHUNK):
            ids = reps[start : start + _CHUNK]
            r_eq = np.einsum("qk,ek->eq", bary, verts[ids, :, 0])[:, :, None]
            b = transformed_to_physical(tr, n, r_eq, local)
            c = curl_of_bundle(b, n, r_eq)
            # fields that do not depend on r (shape (1, nq, nloc), e.g. TB at
            # n = 0) broadcast to the chunk
            e = np.stack([np.broadcast_to(f, c.shape[:-1]) for f in (b.e_r, b.e_phi, b.e_z)], 1)

            w_el = dets[ids][:, None] * wq[None, :] * r_eq[:, :, 0]  # (ne, nq)
            K_u.append(_gram(np.moveaxis(c, -1, 1), inv_mu * w_el[:, None, :]))
            M_u.append(_gram(e, eps * w_el[:, None, :]))
    return np.concatenate(K_u), np.concatenate(M_u)


@dataclass(frozen=True)
class _Scatter:
    """Free dofs of one (block, axis conditions) on a pair and the CSR
    pattern of its reduced pencil, with the map from element entries to
    pattern slots.

    Entry (i, j) of element t's matrix is kept when both its dofs are free.
    The kept entries are listed in slot order: `src` is each one's flat
    index into the stacked element matrices of _element_matrices and `slot`
    (nondecreasing) its position in the CSR data, so one bincount sums the
    duplicates of a slot in element order and fills a matrix.
    """

    free: np.ndarray
    constrained: np.ndarray
    n_free_h1: int
    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray  # int32
    slot: np.ndarray  # int32
    kernel_bases: dict  # kernel rule -> Z (see _kernel_basis)

    def fill(self, element_matrices: np.ndarray) -> sparse.csr_matrix:
        n = len(self.free)
        data = np.bincount(self.slot, element_matrices.ravel()[self.src],
                           minlength=len(self.indices))
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Shared by every pencil filled from one structure: written by none."""
    a.setflags(write=False)
    return a


def _scatter(problem: ModeProblem, pair: FeSpacePair) -> _Scatter:
    cond = axis_conditions(problem.transformation, problem.n)
    key = (problem.block, cond)
    if key in pair._assembly:
        return pair._assembly[key]
    constrained = collect_constraints(problem, pair)
    cols, block = _block_slices(problem, pair)
    keep = np.zeros(pair.n_total, dtype=bool)
    keep[block] = True
    keep[constrained] = False
    free = np.flatnonzero(keep)
    n = len(free)
    number = np.full(pair.n_total, -1, dtype=np.int32)
    number[free] = np.arange(n, dtype=np.int32)
    dofs = number[pair.combined_cell_dofs()[:, cols]]  # (nt, nloc), -1 if eliminated
    nloc = dofs.shape[1]

    # Column segments (t, j), one per free dof of an element, sorted by
    # column and then element; each lists the element's free dofs as rows.
    # That is the CSC layout with duplicates, and its conversion to CSR
    # sorts the columns of every row, with the duplicates of an entry
    # adjacent and in element order.
    seg = np.argsort(dofs.ravel(), kind="stable")[np.count_nonzero(dofs < 0):]
    t, j = np.divmod(seg.astype(np.int32), nloc)
    seg_col = dofs.ravel()[seg]
    rows = dofs[t]
    kept = rows >= 0
    starts = np.zeros(len(seg) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(kept, axis=1), out=starts[1:])
    flat = (_translates(pair).matrix_of[t] * nloc * nloc + j)[:, None] + nloc * np.arange(
        nloc, dtype=np.int32)
    csc = sparse.csc_matrix(
        (flat[kept], rows[kept], starts[np.searchsorted(seg_col, np.arange(n + 1))]),
        shape=(n, n))
    by_row = csc.tocsr()
    col, src, row_start = by_row.indices, by_row.data, by_row.indptr

    first = np.ones(len(col), dtype=bool)  # first entry of its slot
    np.not_equal(col[1:], col[:-1], out=first[1:])
    first[row_start[:-1]] = True  # every free dof has its diagonal entry
    slot = np.cumsum(first, dtype=np.int32)
    slot -= 1
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = slot[row_start[1:] - 1] + 1
    pair._assembly[key] = sc = _Scatter(
        free=_frozen(free), constrained=_frozen(constrained),
        n_free_h1=int(np.searchsorted(free, pair.n_h1)), indptr=_frozen(indptr),
        indices=_frozen(col[first]), src=src.astype(np.int32, copy=False), slot=slot,
        kernel_bases={})
    return sc


def _kernel_basis(problem: ModeProblem, pair: FeSpacePair, free: np.ndarray, n_free_h1: int):
    """Z on the free dofs with range Z = ker K, or None where no such basis
    is known.

    G is exact only while the H1 gradients lie in H(curl), i.e. q <= p + 1.
    At n = 0 the kernel is the curl-free in-plane fields, which are the
    gradients of the order p + 1 scalars vanishing on the PEC walls, so
    there G spans it only when q = p + 1.
    """
    if problem.block == "azimuthal":
        return sparse.csr_matrix((len(free), 0))
    q, p, n = pair.h1.q, pair.hcurl.p, problem.n
    c = gradient_kernel_coefficient(problem.transformation, n)
    if q > p + 1 or (n == 0 and q < p + 1) or (n != 0 and c is None):
        return None
    vector = free[n_free_h1:] - pair.n_h1
    if n == 0:
        walls = pair.h1.edge_trace_dofs[problem.mesh.wall_edges()]
        G_s = discrete_gradient(pair)[vector][:, np.setdiff1d(np.arange(pair.n_h1), walls)]
        return sparse.vstack([sparse.csr_matrix((n_free_h1, G_s.shape[1])), G_s], format="csr")
    if c == 0.0:  # TC: Z = [I; 0] needs no gradient
        return sparse.eye(len(free), n_free_h1, format="csr")
    cG = c * discrete_gradient(pair)[vector][:, free[:n_free_h1]]
    return sparse.vstack([sparse.identity(n_free_h1, format="csr"), cG], format="csr")


def assemble(problem: ModeProblem, pair: FeSpacePair) -> AssembledPencil:
    """Assemble the problem's block with its constrained dofs eliminated.

    The pattern, the free dofs and the kernel basis are built on the first
    call for a (pair, block, axis conditions, kernel rule) and kept on the
    pair; later calls compute the element matrices and fill values only.
    """
    if problem.mesh is not pair.h1.mesh:
        raise ValueError("the problem and the pair must be on one mesh")
    sc = _scatter(problem, pair)
    n = problem.n
    rule = "n=0" if n == 0 else gradient_kernel_coefficient(problem.transformation, n)
    if rule not in sc.kernel_bases:
        sc.kernel_bases[rule] = _kernel_basis(problem, pair, sc.free, sc.n_free_h1)
    K_el, M_el = _element_matrices(problem, pair)
    return AssembledPencil(
        K=sc.fill(K_el),
        M=sc.fill(M_el),
        ndof_full=pair.n_total,
        n_h1=pair.n_h1,
        free_to_full=sc.free,
        constrained=sc.constrained,
        n_free_h1=sc.n_free_h1,
        kernel_basis=sc.kernel_bases[rule],
    )
