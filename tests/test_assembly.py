import dataclasses

import numpy as np
import pytest
from scipy import sparse

import _oracles
from axicav.assembly import (
    _assemble_full, apply_constraints, assemble, collect_constraints,
)
from axicav.eigen import solve_window
from axicav.fespace import build_pair, discrete_gradient, interpolate_h1, project_hcurl
from axicav.formulation import (
    Material, ModeProblem, Transformation, gradient_kernel_coefficient,
)
from axicav.mesh import build_structured
from axicav.quadrature import rule_for_degree


@pytest.fixture(scope="module")
def mesh4():
    return build_structured(1.0, 1.0, 4)


@pytest.fixture(scope="module")
def pair4(mesh4):
    return build_pair(mesh4, 3, 2)


def _problem(mesh, kind="TB", n=1, q=3, p=2, D=9, **kw):
    tr = kind if isinstance(kind, Transformation) else Transformation(kind)
    return ModeProblem(mesh=mesh, n=n, transformation=tr, q=q, p=p, quad_degree=D, **kw)


def test_zero_permeability_inverse_gives_zero_stiffness(mesh4, pair4):
    # mu -> infinity (mu_r^-1 -> 0) removes the stiffness term entirely
    mat = Material(mu=(1e30, 1e30, 1e30))
    pen = assemble(_problem(mesh4, material=mat), pair4)
    assert np.abs(pen.K.data).max() < 1e-25


def test_n0_block_diagonal_exact(mesh4, pair4):
    for kind in ("TA", "TB"):
        pen = assemble(_problem(mesh4, kind=kind, n=0, D=12), pair4)
        for which in ("K", "M"):
            off = pen.offdiagonal_block(which)
            assert np.abs(off).max() == 0.0


@pytest.mark.parametrize("kind", ["TA", "TB", Transformation("TC", 1.0, 2.0)],
                         ids=["TA", "TB", "TC(1,2)"])
@pytest.mark.parametrize("block", ["azimuthal", "inplane"])
def test_n0_block_pencil_is_the_diagonal_block(mesh4, pair4, kind, block):
    full = assemble(_problem(mesh4, kind=kind, n=0), pair4)
    pen = assemble(_problem(mesh4, kind=kind, n=0, block=block), pair4)
    scalar = full.free_to_full < full.n_h1
    idx = np.nonzero(scalar if block == "azimuthal" else ~scalar)[0]
    np.testing.assert_array_equal(pen.free_to_full, full.free_to_full[idx])
    assert pen.n_free_h1 == (len(idx) if block == "azimuthal" else 0)
    for A, B in ((pen.K, full.K), (pen.M, full.M)):
        ref = B[idx][:, idx].toarray()
        assert np.abs(A.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_mass_positive_definite(mesh4, pair4):
    pen = assemble(_problem(mesh4), pair4)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((pen.n_free, 100))
    quad = np.einsum("if,if->f", X, pen.M @ X)
    assert np.all(quad > 0)


def test_pencil_symmetric_exactly(mesh4, pair4):
    pen = assemble(_problem(mesh4), pair4)
    assert sparse.linalg.norm(pen.K - pen.K.T, np.inf) == 0.0
    assert sparse.linalg.norm(pen.M - pen.M.T, np.inf) == 0.0


def test_td_equals_tb_for_low_modes(mesh4, pair4):
    for n in (0, 1, -1):
        pb = assemble(_problem(mesh4, "TB", n=n), pair4)
        pd = assemble(_problem(mesh4, "TD", n=n), pair4)
        assert np.abs((pb.K - pd.K)).max() <= 1e-15
        assert np.abs((pb.M - pd.M)).max() <= 1e-15


def test_assembly_bit_reproducible(mesh4, pair4):
    a = assemble(_problem(mesh4), pair4)
    b = assemble(_problem(mesh4), pair4)
    assert np.array_equal(a.K.data, b.K.data)
    assert np.array_equal(a.K.indices, b.K.indices)
    assert np.array_equal(a.M.data, b.M.data)


def test_apply_constraints_reduces_dimension():
    rng = np.random.default_rng(1)
    A = sparse.random(12, 12, density=0.4, random_state=2)
    A = (A + A.T).tocsr()
    B = sparse.identity(12, format="csr")
    K, M, free = apply_constraints(A, B, np.array([0, 5, 7]))
    assert K.shape == (9, 9)
    assert np.array_equal(free, np.setdiff1d(np.arange(12), [0, 5, 7]))
    K2, M2, free2 = apply_constraints(A, B, np.array([], dtype=int))
    assert K2.shape == (12, 12)
    assert np.array_equal(free2, np.arange(12))


def test_apply_constraints_validation():
    A = sparse.identity(5, format="csr")
    with pytest.raises(ValueError):
        apply_constraints(A, A, np.array([1, 1]))
    with pytest.raises(ValueError):
        apply_constraints(A, A, np.array([7]))


def test_expand_restores_zeros(mesh4, pair4):
    pen = assemble(_problem(mesh4), pair4)
    x = np.arange(1.0, pen.n_free + 1)
    full = pen.expand(x)
    assert full.shape == (pen.ndof_full,)
    assert np.all(full[pen.constrained] == 0.0)
    assert np.array_equal(np.sort(full[pen.free_to_full]), np.sort(x))


def test_constraint_collection_counts(mesh4):
    pair = build_pair(mesh4, 2, 1)
    # TB, n=1: no axis conditions, PEC on 3 sides for both spaces
    prob = _problem(mesh4, "TB", n=1, q=2, p=1, D=5)
    dofs = collect_constraints(prob, pair)
    n_wall_edges = len(mesh4.wall_edges())
    # h1 trace dofs: nodes on walls (3N+1 per side minus shared corners) + edge dofs
    h1_dofs = {d for d in dofs if d < pair.n_h1}
    hc_dofs = {d for d in dofs if d >= pair.n_h1}
    assert len(hc_dofs) == 2 * n_wall_edges  # p+1 = 2 dofs per wall edge
    # TA, n=1 adds axis constraints on both unknowns
    prob_ta = _problem(mesh4, "TA", n=1, q=2, p=1, D=5)
    dofs_ta = collect_constraints(prob_ta, pair)
    assert len(dofs_ta) > len(dofs)


def _check_against_direct_quadrature(mesh, kind, n):
    """x^T K y from the assembled forms equals direct integration of the
    bilinear form, on the assembly's own rule and element by element, for
    interpolated polynomial fields."""
    q, p, D = 3, 2, 9
    tr = Transformation.parse(kind)
    pair = build_pair(mesh, q, p)
    K_full, M_full = _assemble_full(_problem(mesh, tr, n=n, q=q, p=p, D=D), pair)

    rng = np.random.default_rng(9)

    def poly(deg):
        c = rng.standard_normal((deg + 1, deg + 1))
        for a in range(deg + 1):
            for b in range(deg + 1):
                if a + b > deg:
                    c[a, b] = 0.0
        return _oracles.Poly2(c)

    fu, gu = poly(q), poly(q)
    fU, gU = (poly(p), poly(p)), (poly(p), poly(p))

    def coeffs(fs, fv):
        cu = interpolate_h1(pair.h1, lambda r, z: fs(r, z))
        cU = project_hcurl(pair.hcurl, lambda r, z: (fv[0](r, z), fv[1](r, z)))
        return np.concatenate([cu, cU])

    x_full = coeffs(fu, fU)
    y_full = coeffs(gu, gU)

    # Direct quadrature of the stiffness form on the transformed callables
    from axicav.formulation import TransformedValues, stiffness_integrand, mass_integrand

    def bundle(fs, fv, r, z):
        u = fs(r, z)
        du = np.stack([fs(r, z, 1, 0), fs(r, z, 0, 1)], -1)
        d2u = np.stack([fs(r, z, 2, 0), fs(r, z, 1, 1), fs(r, z, 0, 2)], -1)
        U = np.stack([fv[0](r, z), fv[1](r, z)], -1)
        dU = np.stack(
            [
                np.stack([fv[0](r, z, 1, 0), fv[0](r, z, 0, 1)], -1),
                np.stack([fv[1](r, z, 1, 0), fv[1](r, z, 0, 1)], -1),
            ],
            -2,
        )
        return TransformedValues(u, du, d2u, U, dU)

    rule = rule_for_degree(D)
    mat = Material()
    K_direct = 0.0
    M_direct = 0.0
    verts_all = mesh.nodes[mesh.triangles]
    areas = mesh.triangle_areas()
    for t in range(mesh.n_triangles):
        verts = verts_all[t]
        pts = rule.points @ verts
        r, z = pts[:, 0], pts[:, 1]
        det = 2.0 * areas[t]
        b1 = bundle(fu, fU, r, z)
        b2 = bundle(gu, gU, r, z)
        K_direct += float(np.sum(rule.weights * det * stiffness_integrand(tr, n, mat, r, b1, b2)))
        M_direct += float(np.sum(rule.weights * det * mass_integrand(tr, n, mat, r, b1, b2)))

    # The interpolants do not honor the essential conditions, so compare the
    # quadratic forms on the unconstrained matrices.
    K_form = float(x_full @ (K_full @ y_full))
    M_form = float(x_full @ (M_full @ y_full))
    assert K_form == pytest.approx(K_direct, rel=1e-12)
    assert M_form == pytest.approx(M_direct, rel=1e-12)


@pytest.mark.parametrize(
    "kind,n",
    [("TA", 0), ("TA", 1), ("TB", 1), ("TC(1,2)", 0), ("TC(1,1)", 1), ("TD", 2)],
)
def test_galerkin_consistency_against_direct_quadrature(mesh4, kind, n):
    _check_against_direct_quadrature(mesh4, kind, n)


def _uneven_rows(z):
    # rows 0-1 and 3-4 keep one height (true z-translates); rows 2 and 5 differ
    return np.interp(z, np.linspace(0.0, 1.5, 7), [0.0, 0.2, 0.4, 0.75, 0.95, 1.15, 1.6])


_STRETCHES = {
    "uniform": (lambda r: r, lambda z: z),
    # graded columns and rows of unequal height
    "graded": (lambda r: r * (1.0 + 0.3 * r), _uneven_rows),
    # one geometric ratio in r and z: cells along a diagonal are similar
    # triangles of different size, never translates
    "geometric": (lambda r: (1.5**r - 1.0) / 0.5, lambda z: (1.5**z - 1.0) / 0.5),
}


@pytest.mark.parametrize("stretch", list(_STRETCHES))
@pytest.mark.parametrize("kind", ["TA", "TC(1,1)"])
def test_translate_sharing_matches_direct_quadrature(kind, stretch):
    """Element matrices are shared only between z-translates: on six rows
    over four columns, uniform or with node coordinates moved column by
    column and row by row, the forms still match direct quadrature."""
    mesh = build_structured(1.0, 1.5, 4)
    assert mesh.n_z == 6
    r_map, z_map = _STRETCHES[stretch]
    nodes = np.column_stack([r_map(mesh.nodes[:, 0]), z_map(mesh.nodes[:, 1])])
    _check_against_direct_quadrature(dataclasses.replace(mesh, nodes=nodes), kind, 1)


@pytest.mark.parametrize("kind,n", [
    ("TA", 1), ("TA", 2), ("TA", -1), ("TA", 3),
    ("TB", 1), ("TB", 2), ("TB", -2),
    ("TD", 1), ("TD", -1),
    ("TC(1,1)", 1), ("TC(1,1)", 2), ("TC(1,1)", 3),
    ("TC(1,2)", 2), ("TC(2,2)", 2),
])
def test_kernel_basis_spans_the_kernel(mesh4, pair4, kind, n):
    pen = assemble(_problem(mesh4, kind=Transformation.parse(kind), n=n), pair4)
    nu = pen.n_free_h1
    Z = pen.kernel_basis
    assert Z.shape == (pen.n_free, nu)
    assert abs(Z[:nu] - sparse.identity(nu)).max() == 0.0
    assert abs(pen.K @ Z).max() <= 1e-12 * abs(pen.K).max()
    # G maps the free scalar dofs into free vector dofs only
    G = discrete_gradient(pair4)
    vector = pen.constrained[pen.constrained >= pair4.n_h1] - pair4.n_h1
    assert abs(G[vector][:, pen.free_to_full[:nu]]).max() <= 1e-12 * abs(G).max()


@pytest.mark.parametrize("kind", ["TA", "TB", "TD", "TC(1,1)", "TC(1,2)"])
@pytest.mark.parametrize("block", ["full", "inplane", "azimuthal"])
def test_n0_kernel_basis_spans_the_kernel(mesh4, pair4, kind, block):
    # at n = 0 the kernel is the gradients of the scalars off the PEC walls,
    # in the in-plane unknowns only
    tr = Transformation.parse(kind)
    pen = assemble(_problem(mesh4, kind=tr, n=0, D=12, block=block), pair4)
    Z = pen.kernel_basis
    top = _oracles.dense_spectrum(pen)[0][-1]
    unmapped = dataclasses.replace(pen, kernel_basis=None)
    dense_count = solve_window(unmapped, 1.001 * top).kernel_count
    if block == "azimuthal":
        assert Z.shape == (pen.n_free, 0) and dense_count == 0
        return
    assert np.linalg.matrix_rank(Z.toarray()) == Z.shape[1] == dense_count > 0
    assert abs(pen.K @ Z).max() <= 1e-12 * abs(pen.K).max()
    assert Z[: pen.n_free_h1].nnz == 0


@pytest.mark.parametrize("kind,n", [("TD", 2)])
def test_no_kernel_map_without_table_entry(mesh4, pair4, kind, n):
    tr = Transformation.parse(kind)
    assert gradient_kernel_coefficient(tr, n) is None
    assert assemble(_problem(mesh4, kind=tr, n=n, D=12), pair4).kernel_basis is None


def test_no_kernel_map_when_gradients_leave_hcurl(mesh4):
    # q > p + 1: grad H1_q is not in H(curl)_p, so G is no exact gradient
    pen = assemble(_problem(mesh4, q=3, p=1), build_pair(mesh4, 3, 1))
    assert pen.kernel_basis is None


def test_no_n0_kernel_basis_below_the_paired_order(mesh4):
    # q = p at n = 0: the gradients of the order p + 1 scalars span the
    # kernel, and those of H1_q fall short of them
    pen = assemble(_problem(mesh4, n=0, q=2, p=2, D=12), build_pair(mesh4, 2, 2))
    assert pen.kernel_basis is None
