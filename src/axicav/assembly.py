"""Assembly of the global symmetric stiffness/mass pencil K x = lambda M x.

The pair's local basis (scalar then vector functions) is mapped to
physical fields and their weighted curl once per chunk of congruent
elements, and each element matrix is one batched Gram product of those
tables under the quadrature, material and r weights.  The integrands
depend on r only, so z-translates share their element matrices: within
each class of congruent elements, one matrix is computed per distinct
triple of vertex r-coordinates and gathered to the rest of the class (the
n_z rows of a structured mesh cost one row).  Essential conditions (axis
conditions of the chosen transformation plus the perfectly conducting
walls) are applied by symmetric elimination of rows and columns, so the
reduced pencil stays symmetric with M positive definite.

Element order is fixed, which makes assembled matrices bit-stable from run
to run.
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
    "dump_matrix",
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
    out-of-range constraint indices.
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


def _assemble_full(problem: ModeProblem, pair: FeSpacePair):
    """Unconstrained stiffness and mass matrices (K_full, M_full) in CSR,
    in the full combined numbering with entries in the problem's block only."""
    mesh = problem.mesh
    tr, n = problem.transformation, problem.n
    rule = rule_for_degree(problem.quad_degree)
    bary, wq = rule.points, rule.weights

    eps = np.array(problem.material.eps)[:, None]  # (3, 1): component x point
    inv_mu = np.array([1.0 / m for m in problem.material.mu])[:, None]

    verts = mesh.nodes[mesh.triangles]
    dets = np.abs(mesh.triangle_areas() * 2.0)
    ndof = pair.n_total
    cols, _ = _block_slices(problem, pair)
    # int32 like the indices of the CSR conversion, so no COO index is copied
    cell_dofs = pair.combined_cell_dofs()[:, cols].astype(np.int32)
    nloc = cell_dofs.shape[1]

    rows_all, cols_all, kvals_all, mvals_all = [], [], [], []

    for els, local in pair.local_basis(bary):
        local = TransformedValues(*(getattr(local, f.name)[:, :, cols] for f in fields(local)))
        # the class fixes shape, size and edge flips, so elements with equal
        # vertex r are z-translates: one element matrix each, then gathered
        _, first, inverse = np.unique(
            verts[els, :, 0], axis=0, return_index=True, return_inverse=True
        )
        reps = els[first]
        K_u, M_u = [], []
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

        dofs = cell_dofs[els]
        rows_all.append(np.repeat(dofs, nloc, axis=1).ravel())
        cols_all.append(np.tile(dofs, (1, nloc)).ravel())
        kvals_all.append(np.concatenate(K_u)[inverse].ravel())
        mvals_all.append(np.concatenate(M_u)[inverse].ravel())

    ij = (np.concatenate(rows_all), np.concatenate(cols_all))

    def csr(vals):
        return sparse.coo_matrix((np.concatenate(vals), ij), shape=(ndof, ndof)).tocsr()

    return csr(kvals_all), csr(mvals_all)


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
    """Assemble the problem's block and eliminate the constrained dofs."""
    K_full, M_full = _assemble_full(problem, pair)
    constrained = collect_constraints(problem, pair)
    keep = np.zeros(pair.n_total, dtype=bool)
    keep[_block_slices(problem, pair)[1]] = True
    keep[constrained] = False
    K, M, free = apply_constraints(K_full, M_full, np.nonzero(~keep)[0])
    n_free_h1 = int(np.sum(free < pair.n_h1))
    return AssembledPencil(
        K=K,
        M=M,
        ndof_full=pair.n_total,
        n_h1=pair.n_h1,
        free_to_full=free,
        constrained=constrained,
        n_free_h1=n_free_h1,
        kernel_basis=_kernel_basis(problem, pair, free, n_free_h1),
    )


def dump_matrix(A, path) -> None:
    """Coordinate text dump: one 'i j value' line per stored entry."""
    coo = sparse.coo_matrix(A)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {v:.17g}\n")
