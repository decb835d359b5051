import numpy as np
import pytest

import _oracles
from axicav.formulation import (
    Material,
    ModeProblem,
    Transformation,
    axis_conditions,
    convergent_tc_params,
    curl_n,
    inverse_substitute,
    mass_integrand,
    polynomial_integrand_predicate,
    polynomial_threshold_degree,
    recommended_tc_params,
    stiffness_integrand,
    validate_tc,
)
from axicav.mesh import build_structured
from axicav.quadrature import rule_for_degree


# --- curl_n ----------------------------------------------------------------

def test_curl_n_azimuthal_linear():
    # e = (0, r, 0): d_r(r e_phi) = 2r, so the z component is 2 everywhere
    out = curl_n(0, 1.7, e_r=0.0, e_phi=1.7, e_z=0.0, der_dz=0.0, dez_dr=0.0,
                 drephi_dr=2 * 1.7, drephi_dz=0.0)
    assert np.allclose(out, [0.0, 0.0, 2.0])


def test_curl_n_constant_field_n1():
    # e = (1, -1, 0): r e_phi = -r
    out = curl_n(1, 0.6, e_r=1.0, e_phi=-1.0, e_z=0.0, der_dz=0.0, dez_dr=0.0,
                 drephi_dr=-1.0, drephi_dz=0.0)
    assert np.allclose(out, [0.0, 0.0, 0.0])


def test_curl_n_axial_n2():
    out = curl_n(2, 2.0, e_r=0.0, e_phi=0.0, e_z=3.0, der_dz=0.0, dez_dr=0.0,
                 drephi_dr=0.0, drephi_dz=0.0)
    assert np.allclose(out, [-3.0, 0.0, 0.0])


def test_curl_n_rejects_axis():
    with pytest.raises(ValueError):
        curl_n(1, 0.0, 0, 0, 0, 0, 0, 0, 0)


# --- TC parameter validation ------------------------------------------------

def test_validate_tc_table():
    assert validate_tc(1, 1.0, 1.0) is None
    assert validate_tc(0, 3.0, 0.25) is not None
    assert validate_tc(3, 0.5, 2.0) is None
    assert validate_tc(-1, 0.4, 1.0) is not None
    assert validate_tc(2, 1.0, 0.0) is not None
    assert validate_tc(0, None, 0.5) is None


# --- inverse substitution ----------------------------------------------------

def test_inverse_tb_n1():
    e_phi, e_rz = inverse_substitute(
        Transformation("TB"), 1, 0.5, 2.0, np.zeros(2), np.array([3.0, 4.0])
    )
    assert e_phi == pytest.approx(2.0)
    assert np.allclose(e_rz, [-0.5, 2.0])


def test_inverse_td_n2():
    e_phi, e_rz = inverse_substitute(
        Transformation("TD"), 2, 2.0, 1.0, np.zeros(2), np.array([1.0, 0.0])
    )
    assert e_phi == pytest.approx(1.0)
    assert np.allclose(e_rz, [1.0, 0.0])


def test_inverse_tc11_n1():
    e_phi, e_rz = inverse_substitute(
        Transformation("TC", 1.0, 1.0), 1, 1.0, 0.0, np.zeros(2), np.array([5.0, 7.0])
    )
    assert e_phi == pytest.approx(0.0)
    assert np.allclose(e_rz, [5.0, 7.0])


def test_inverse_identity_for_n0():
    for kind in ("TB", "TD"):
        e_phi, e_rz = inverse_substitute(
            Transformation(kind), 0, 0.3, 1.5, np.zeros(2), np.array([2.0, -1.0])
        )
        assert e_phi == pytest.approx(1.5)
        assert np.allclose(e_rz, [2.0, -1.0])


_ADMISSIBLE = [
    pytest.param(tr, n, id=f"{tr.label()}-{n}")
    for tr in (Transformation("TA"), Transformation("TB"), Transformation("TD"),
               Transformation("TC", 1.0, 1.0), Transformation("TC", 1.0, 2.0),
               Transformation("TC", 2.0, 2.0))
    for n in (0, 1, -1, 2)
    if tr.kind != "TC" or validate_tc(n, tr.alpha, tr.beta) is None
]


@pytest.mark.parametrize("tr,n", _ADMISSIBLE)
def test_inverse_undoes_forward_substitution(tr, n):
    rng = np.random.default_rng(7)
    er, ephi, ez = _oracles.random_field(rng)
    r = rng.uniform(0.05, 1.0, 20)
    z = rng.uniform(0.0, 1.0, 20)
    tv = _oracles.forward_bundles(tr, n, er, ephi, ez, r, z)
    e_phi, e_rz = inverse_substitute(tr, n, r, tv.u, tv.du, tv.U)
    assert np.allclose(e_phi, ephi(r, z), rtol=1e-12, atol=1e-12)
    assert np.allclose(e_rz, np.stack([er(r, z), ez(r, z)], -1), rtol=1e-12, atol=1e-12)


def test_inverse_rejects_axis():
    with pytest.raises(ValueError):
        inverse_substitute(Transformation("TB"), 1, 0.0, 1.0, np.zeros(2), np.ones(2))


# --- integrands --------------------------------------------------------------

def _zero_values():
    from axicav.formulation import TransformedValues

    return TransformedValues.scalar(0.0, np.zeros(2), np.zeros(3))


def test_integrands_vanish_for_zero_fields():
    mat = Material()
    for kind in ("TA", "TB", "TD"):
        tr = Transformation(kind)
        z = _zero_values()
        assert stiffness_integrand(tr, 1, mat, 0.7, z, z) == 0.0
        assert mass_integrand(tr, 1, mat, 0.7, z, z) == 0.0


def test_mass_tb_n0_azimuthal_weight():
    from axicav.formulation import TransformedValues

    tv = TransformedValues.scalar(1.0, np.zeros(2), np.zeros(3))
    val = mass_integrand(Transformation("TB"), 0, Material(), 0.25, tv, tv)
    assert val == pytest.approx(0.25)  # eps_phi * u * u * r


def _integrate_energy(tr, n, mat, field1, field2, verts, rule):
    pts = rule.points @ verts
    r, z = pts[:, 0], pts[:, 1]
    det = abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[1, 1] - verts[0, 1]) * (verts[2, 0] - verts[0, 0])
    )
    t1 = _oracles.forward_bundles(tr, n, *field1, r, z)
    t2 = _oracles.forward_bundles(tr, n, *field2, r, z)
    K = float(np.sum(rule.weights * det * stiffness_integrand(tr, n, mat, r, t1, t2)))
    M = float(np.sum(rule.weights * det * mass_integrand(tr, n, mat, r, t1, t2)))
    return K, M


@pytest.mark.parametrize("n", [0, 1, -1, 2])
def test_cross_transformation_equivalence_single_triangle(n):
    rng = np.random.default_rng(100 + n)
    mat = Material(eps=(1.2, 0.9, 1.1), mu=(0.8, 1.3, 1.05))
    verts = np.array([[0.55, 0.1], [0.95, 0.25], [0.65, 0.8]])
    rule = rule_for_degree(30)
    tc = Transformation("TC", 1.0, 1.0) if abs(n) == 1 else Transformation("TC", 1.0, 2.0)
    if n == 0:
        tc = Transformation("TC", 1.0, 2.0)
    transforms = [Transformation("TA"), Transformation("TB"), Transformation("TD"), tc]
    f1 = _oracles.random_field(rng)
    f2 = _oracles.random_field(rng)
    results = [_integrate_energy(tr, n, mat, f1, f2, verts, rule) for tr in transforms]
    Ks = np.array([k for k, _ in results])
    Ms = np.array([m for _, m in results])
    scale_k = max(abs(Ks[0]), 1e-30)
    scale_m = max(abs(Ms[0]), 1e-30)
    assert np.ptp(Ks) / scale_k < 1e-10
    assert np.ptp(Ms) / scale_m < 1e-10


def _total_degree_poly(rng, deg):
    c = rng.standard_normal((deg + 1, deg + 1))
    for a in range(deg + 1):
        for b in range(deg + 1):
            if a + b > deg:
                c[a, b] = 0.0
    return _oracles.Poly2(c)


def _poly_transformed_values(rng, q, p, r, z):
    """Random polynomial transformed pair (u of total degree q, U of degree p)."""
    from axicav.formulation import TransformedValues

    fu = _total_degree_poly(rng, q)
    fr = _total_degree_poly(rng, p)
    fz = _total_degree_poly(rng, p)
    u = fu(r, z)
    du = np.stack([fu(r, z, 1, 0), fu(r, z, 0, 1)], -1)
    d2u = np.stack([fu(r, z, 2, 0), fu(r, z, 1, 1), fu(r, z, 0, 2)], -1)
    U = np.stack([fr(r, z), fz(r, z)], -1)
    dU = np.stack(
        [
            np.stack([fr(r, z, 1, 0), fr(r, z, 0, 1)], -1),
            np.stack([fz(r, z, 1, 0), fz(r, z, 0, 1)], -1),
        ],
        -2,
    )
    return TransformedValues(u, du, d2u, U, dU)


@pytest.mark.parametrize(
    "tr,n",
    [
        (Transformation("TB"), 1),
        (Transformation("TB"), 3),
        (Transformation("TD"), 1),
        (Transformation("TC", 1.0, 1.0), 1),
        (Transformation("TC", 1.0, 2.0), 2),
        (Transformation("TC", 0.5, 1.5), 2),
        (Transformation("TC", 1.0, 1.5), 0),
        (Transformation("TC", 0.5, 2.0), 0),
        (Transformation("TC", 0.7, 2.5), 0),
    ],
)
def test_polynomial_integrand_quadrature_invariance(tr, n):
    """Polynomial transformed pairs integrate identically once the rule is
    past the documented threshold degree."""
    rng = np.random.default_rng(5)
    mat = Material()
    q, p = 3, 2
    threshold = polynomial_threshold_degree(tr, n, q, p)
    assert threshold is not None
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])  # axis-touching
    det = 0.25

    def energy(D):
        rule = rule_for_degree(D)
        pts = rule.points @ verts
        r, z = pts[:, 0], pts[:, 1]
        t1 = _poly_transformed_values(np.random.default_rng(11), q, p, r, z)
        t2 = _poly_transformed_values(np.random.default_rng(12), q, p, r, z)
        K = float(np.sum(rule.weights * det * stiffness_integrand(tr, n, mat, r, t1, t2)))
        M = float(np.sum(rule.weights * det * mass_integrand(tr, n, mat, r, t1, t2)))
        return K, M

    base = energy(threshold)
    for extra in (2, 6, 11):
        again = energy(threshold + extra)
        assert abs(again[0] - base[0]) <= 1e-14 * max(abs(base[0]), 1e-3)
        assert abs(again[1] - base[1]) <= 1e-14 * max(abs(base[1]), 1e-3)


# --- axis conditions ----------------------------------------------------------

def test_axis_conditions_tb():
    assert axis_conditions(Transformation("TB"), 1).h1_dirichlet is False
    assert axis_conditions(Transformation("TB"), 0).h1_dirichlet is True
    assert axis_conditions(Transformation("TB"), 2).h1_dirichlet is True
    assert axis_conditions(Transformation("TB"), 1).hcurl_tangential_dirichlet is False


def test_axis_conditions_tc_intervals():
    assert axis_conditions(Transformation("TC", 1.0, 2.0), 0).h1_dirichlet is False
    assert axis_conditions(Transformation("TC", 1.0, 1.0), 0).h1_dirichlet is True
    assert axis_conditions(Transformation("TC", 1.0, 1.5), 0).h1_dirichlet is False
    assert axis_conditions(Transformation("TC", 1.0, 1.0), 3).h1_dirichlet is True
    assert axis_conditions(Transformation("TC", 1.0, 2.0), 3).h1_dirichlet is False


def test_axis_conditions_ta():
    for n in (0, 1, 4):
        cond = axis_conditions(Transformation("TA"), n)
        assert cond.h1_dirichlet is True
        assert cond.hcurl_tangential_dirichlet is (abs(n) >= 1)


def test_axis_conditions_reject_invalid_tc():
    with pytest.raises(ValueError):
        axis_conditions(Transformation("TC", 0.3, 1.0), 1)


# --- predicates and tables ----------------------------------------------------

def test_polynomial_predicate():
    assert polynomial_integrand_predicate(Transformation("TC", 1.0, 1.0), 1) is True
    assert polynomial_integrand_predicate(Transformation("TC", 0.5, 1.0), 1) is False
    assert polynomial_integrand_predicate(Transformation("TB"), 0) is False
    assert polynomial_integrand_predicate(Transformation("TB"), 3) is True
    assert polynomial_integrand_predicate(Transformation("TD"), 1) is True
    assert polynomial_integrand_predicate(Transformation("TD"), 2) is False
    assert polynomial_integrand_predicate(Transformation("TA"), 1) is False
    assert polynomial_integrand_predicate(Transformation("TC", 0.5, 1.5), 2) is True
    assert polynomial_integrand_predicate(Transformation("TC", 1.0, 1.0), 0) is False


def test_threshold_degree_none_for_singular():
    assert polynomial_threshold_degree(Transformation("TA"), 1, 3, 2) is None
    assert polynomial_threshold_degree(Transformation("TB"), 0, 3, 2) is None
    assert polynomial_threshold_degree(Transformation("TB"), 1, 3, 2) == 7


def test_convergent_params_tables():
    assert convergent_tc_params(1) == {(1.0, 1.0)}
    assert convergent_tc_params(0) == {(None, 1.0), (None, 2.0)}
    assert len(convergent_tc_params(5)) == 4


def test_recommended_params_tables():
    assert recommended_tc_params(0) == (None, 2.0)
    assert recommended_tc_params(1) == (1.0, 1.0)
    assert recommended_tc_params(-4) == (1.0, 1.0)


# --- problem validation ---------------------------------------------------------

def test_mode_problem_policy():
    mesh = build_structured(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        ModeProblem(mesh=mesh, n=1, transformation=Transformation("TB"),
                    q=1, p=2, quad_degree=4)
    with pytest.raises(ValueError):
        ModeProblem(mesh=mesh, n=1, transformation=Transformation("TC", 1.0, 2.0),
                    q=2, p=1, quad_degree=4)  # beta must be 1 for |n| = 1
    ModeProblem(mesh=mesh, n=1, transformation=Transformation("TB"), q=2, p=2,
                quad_degree=4)  # q = p allowed (spurious reproduction)


@pytest.mark.parametrize("n, block", [(1, "azimuthal"), (1, "inplane"), (-2, "inplane"),
                                      (0, "h1"), (0, "vector")])
def test_mode_problem_rejects_block(n, block):
    # the blocks decouple only at n = 0; elsewhere a block drops real coupling
    mesh = build_structured(1.0, 1.0, 2)
    with pytest.raises(ValueError, match="block"):
        ModeProblem(mesh=mesh, n=n, transformation=Transformation("TB"), q=2, p=2,
                    quad_degree=4, block=block)
