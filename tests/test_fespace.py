import math

import numpy as np
import pytest

from axicav.fespace import (
    build_h1,
    build_hcurl,
    build_pair,
    discrete_gradient,
    gradient_inclusion_check,
    interpolate_h1,
    project_hcurl,
)
from axicav.fespace import _design, _monomial_exponents
from axicav.mesh import build_structured


@pytest.fixture(scope="module")
def mesh2():
    return build_structured(1.0, 1.0, 2)


def _rand_poly_scalar(rng, deg):
    """Random polynomial of total degree deg; f(r, z, dr, dz) is its exact
    (dr, dz) derivative."""
    c = rng.standard_normal((deg + 1, deg + 1))

    def f(r, z, dr=0, dz=0):
        out = np.zeros_like(np.asarray(r, dtype=float))
        for a in range(dr, deg + 1):
            for b in range(dz, deg + 1 - a):
                d = math.perm(a, dr) * math.perm(b, dz)
                out = out + c[a, b] * d * r ** (a - dr) * z ** (b - dz)
        return out

    return f


@pytest.mark.parametrize("d", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_design_tabulates_monomial_derivatives(d):
    # column (a, b) at (x, y) is the d = (d_r, d_z) derivative of x^a y^b
    expts = _monomial_exponents(6)
    pts = np.random.default_rng(sum(d)).uniform(-1.0, 1.0, size=(9, 2))
    x, y = pts[:, 0:1], pts[:, 1:2]
    exact = np.zeros((len(pts), len(expts)))
    for m, (a, b) in enumerate(expts):
        if a >= d[0] and b >= d[1]:
            coef = math.perm(a, d[0]) * math.perm(b, d[1])
            exact[:, m] = (coef * x ** (a - d[0]) * y ** (b - d[1]))[:, 0]
    assert np.allclose(_design(expts, pts, d), exact, rtol=1e-14, atol=1e-14)


def test_h1_dof_counts(mesh2):
    assert build_h1(mesh2, 1).ndof == 9
    assert build_h1(mesh2, 2).ndof == 25  # one per node plus one per edge


def test_invalid_orders(mesh2):
    with pytest.raises(ValueError):
        build_h1(mesh2, 0)
    with pytest.raises(ValueError):
        build_hcurl(mesh2, 0)


def test_h1_partition_of_unity(mesh2):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(15, 2))
    for q in (1, 2, 3, 4):
        space = build_h1(mesh2, q)
        ones = interpolate_h1(space, lambda r, z: np.ones_like(r))
        vals = space.evaluate(ones, pts)
        assert np.allclose(vals, 1.0, atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_h1_interpolation_reproduces_polynomials(mesh2, q):
    rng = np.random.default_rng(q)
    f = _rand_poly_scalar(rng, q)
    space = build_h1(mesh2, q)
    coeffs = interpolate_h1(space, f)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    assert np.max(np.abs(space.evaluate(coeffs, pts) - f(pts[:, 0], pts[:, 1]))) < 1e-11


@pytest.mark.parametrize("p", [1, 2, 3])
def test_hcurl_projection_reproduces_polynomials(mesh2, p):
    rng = np.random.default_rng(10 + p)
    fr, fz = _rand_poly_scalar(rng, p), _rand_poly_scalar(rng, p)
    space = build_hcurl(mesh2, p)
    coeffs = project_hcurl(space, lambda r, z: (fr(r, z), fz(r, z)))
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    vals = space.evaluate(coeffs, pts)
    exact = np.stack([fr(pts[:, 0], pts[:, 1]), fz(pts[:, 0], pts[:, 1])], axis=-1)
    assert np.max(np.abs(vals - exact)) < 1e-11


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_h1_evaluate_derivatives_of_interpolated_polynomials(mesh2, q):
    rng = np.random.default_rng(20 + q)
    f = _rand_poly_scalar(rng, q)
    space = build_h1(mesh2, q)
    coeffs = interpolate_h1(space, f)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    r, z = pts[:, 0], pts[:, 1]
    _, grad = space.evaluate(coeffs, pts, nderiv=1)
    vals, grad2, hess = space.evaluate(coeffs, pts, nderiv=2)
    assert np.max(np.abs(vals - f(r, z))) < 1e-10
    exact_grad = np.stack([f(r, z, 1, 0), f(r, z, 0, 1)], axis=-1)
    exact_hess = np.stack([f(r, z, 2, 0), f(r, z, 1, 1), f(r, z, 0, 2)], axis=-1)
    assert np.max(np.abs(grad - exact_grad)) < 1e-10
    assert np.array_equal(grad, grad2)
    assert np.max(np.abs(hess - exact_hess)) < 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_hcurl_evaluate_jacobian_of_projected_polynomials(mesh2, p):
    rng = np.random.default_rng(30 + p)
    fr, fz = _rand_poly_scalar(rng, p), _rand_poly_scalar(rng, p)
    space = build_hcurl(mesh2, p)
    coeffs = project_hcurl(space, lambda r, z: (fr(r, z), fz(r, z)))
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    r, z = pts[:, 0], pts[:, 1]
    vals, jac = space.evaluate(coeffs, pts, nderiv=1)
    assert np.max(np.abs(vals - np.stack([fr(r, z), fz(r, z)], axis=-1))) < 1e-10
    exact = np.stack([
        np.stack([fr(r, z, 1, 0), fr(r, z, 0, 1)], axis=-1),
        np.stack([fz(r, z, 1, 0), fz(r, z, 0, 1)], axis=-1),
    ], axis=-2)  # exact[:, i, j] = d f_i / d x_j
    assert np.max(np.abs(jac - exact)) < 1e-10


def test_hcurl_constant_field_representable(mesh2):
    space = build_hcurl(mesh2, 1)
    coeffs = project_hcurl(space, lambda r, z: (np.full_like(r, 0.7), np.full_like(r, -0.3)))
    pts = np.random.default_rng(4).uniform(0.1, 0.9, size=(10, 2))
    vals = space.evaluate(coeffs, pts)
    assert np.allclose(vals, [0.7, -0.3], atol=1e-12)


def test_hcurl_local_rank(mesh2):
    # local space dimension = dim of complete degree-p vector polynomials
    for p in (1, 2):
        space = build_hcurl(mesh2, p)
        elem = space._elements[0]
        rng = np.random.default_rng(p)
        bary = rng.dirichlet((1, 1, 1), size=200)
        (vals,) = elem.eval_bary(bary, 0)
        mat = vals.transpose(0, 2, 1).reshape(-1, elem.n_loc)
        assert np.linalg.matrix_rank(mat, tol=1e-8) == (p + 1) * (p + 2)


def test_hcurl_tangential_conformity(mesh2):
    space = build_hcurl(mesh2, 2)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(space.ndof)
    incidence = {}
    for t in range(mesh2.n_triangles):
        for e in mesh2.tri_edges[t]:
            incidence.setdefault(int(e), []).append(t)
    worst = 0.0
    for e, tris in incidence.items():
        if len(tris) != 2:
            continue
        a, b = mesh2.nodes[mesh2.edges[e]]
        tangent = (b - a) / np.linalg.norm(b - a)
        for s in np.linspace(0.1, 0.9, 5):
            x = (1 - s) * a + s * b
            traces = []
            for t in tris:
                elem = space._elements[space._class_of[t]]
                centroid = mesh2.nodes[mesh2.triangles[t]].mean(axis=0)
                (v,) = elem.eval_centered((x[None, :] - centroid) / elem.scale, 0)
                traces.append(
                    float(np.einsum("lc,l->c", v[0], coeffs[space.cell_dofs[t]]) @ tangent)
                )
            worst = max(worst, abs(traces[0] - traces[1]))
    assert worst < 1e-13


_INCLUSION_ORDERS = [(2, 1), (3, 2), (4, 3), (2, 2), (5, 4), (6, 5)]


@pytest.mark.parametrize("orders", _INCLUSION_ORDERS)
def test_gradient_inclusion(mesh2, orders):
    q, p = orders
    pair = build_pair(mesh2, q, p)
    assert gradient_inclusion_check(pair) < 1e-10


@pytest.mark.parametrize("orders", _INCLUSION_ORDERS)
def test_gradient_inclusion_on_finer_mesh(orders):
    q, p = orders
    pair = build_pair(build_structured(1.0, 1.0, 4), q, p)
    assert gradient_inclusion_check(pair) < 1e-10


@pytest.mark.parametrize("N", [4, 6, 8, 12, 16, 32])
def test_congruent_elements_share_one_class(N):
    # The congruent elements of this cavity round to neighbouring integers of
    # the 1e12-scaled class key; they still form one class per shape.
    mesh = build_structured(0.572262968623144, 0.5777397078975871, N)
    assert len(build_h1(mesh, 2)._elements) == 2
    assert len(build_hcurl(mesh, 1)._elements) == 2


@pytest.mark.parametrize("orders", [(2, 1), (3, 2), (4, 3)])
def test_discrete_gradient_of_interpolated_polynomials(orders):
    q, p = orders
    mesh = build_structured(1.3, 0.9, 3)
    rng = np.random.default_rng(40 + q)
    f = _rand_poly_scalar(rng, q)
    pair = build_pair(mesh, q, p)
    G = discrete_gradient(pair)
    pts = rng.uniform(0.0, [1.3, 0.9], size=(40, 2))
    r, z = pts[:, 0], pts[:, 1]
    grad = pair.hcurl.evaluate(G @ interpolate_h1(pair.h1, f), pts)
    assert np.max(np.abs(grad - np.stack([f(r, z, 1, 0), f(r, z, 0, 1)], axis=-1))) < 1e-10


def test_deterministic_dof_numbering(mesh2):
    a = build_h1(mesh2, 3)
    b = build_h1(mesh2, 3)
    assert np.array_equal(a.cell_dofs, b.cell_dofs)
    assert np.array_equal(a.dof_points, b.dof_points)
    va = a._elements[0].coeff
    vb = b._elements[0].coeff
    assert np.array_equal(va, vb)
