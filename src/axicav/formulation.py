"""The four field transformations for the axisymmetric Maxwell eigenproblem.

For azimuthal mode number n the electric-field Fourier coefficient splits
into an azimuthal part e_phi and an in-plane part e_rz = (e_r, e_z).  The
discretization searches a scalar unknown u in H1 (order q) and a vector
unknown U in H(curl) (order p) obtained from (e_phi, e_rz) by one of:

  TA        u = r*e_phi,            U = e_rz
  TB        u = e_phi,              U = (n*e_rz + u*rhat)/r     (identity for n = 0)
  TC(a,b)   u = r^(1-b)*e_phi,      r^a*U = n*e_rz + grad(r^b*u)  (n=+-1: n -> sign)
  TD        same as TB for |n| <= 1; U = n*e_rz/r for |n| > 1

Everything downstream only needs the inverse map (u, U) -> (e_phi, e_rz)
together with its chain-rule derivatives; the weighted curl and the
stiffness/mass integrands are composed from that bundle rather than from
hand-expanded formulas.  All functions are pure and broadcast over numpy
arrays; points must satisfy r > 0 (quadrature rules never sample r = 0).

Mode conventions: positive n pairs (cos, sin, cos) trigonometric factors
with (e_r, e_phi, e_z), negative n the complementary (sin, cos, sin) set,
and n = 0 is axisymmetric.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np

from .mesh import CrossSectionMesh

__all__ = [
    "Transformation",
    "Material",
    "ModeProblem",
    "TransformedValues",
    "PhysicalBundle",
    "AxisConditions",
    "curl_n",
    "validate_tc",
    "inverse_substitute",
    "transformed_to_physical",
    "curl_of_bundle",
    "stiffness_integrand",
    "mass_integrand",
    "axis_conditions",
    "gradient_kernel_coefficient",
    "polynomial_integrand_predicate",
    "polynomial_threshold_degree",
    "convergent_tc_params",
    "recommended_tc_params",
]

KINDS = ("TA", "TB", "TC", "TD")
BLOCKS = ("full", "azimuthal", "inplane")


@dataclass(frozen=True)
class Transformation:
    """One of the four changes of unknowns; TC carries (alpha, beta)."""

    kind: str
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        if self.kind == "TC":
            if self.alpha is None or self.beta is None:
                raise ValueError("TC requires alpha and beta")
        elif self.alpha is not None or self.beta is not None:
            raise ValueError(f"{self.kind} takes no parameters")

    @classmethod
    def parse(cls, text: str) -> "Transformation":
        """Parse 'TA', 'TB', 'TD' or 'TC(alpha,beta)'."""
        text = text.strip()
        if text in ("TA", "TB", "TD"):
            return cls(text)
        m = re.fullmatch(r"TC\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)", text)
        if not m:
            raise ValueError(f"cannot parse transformation {text!r}")
        return cls("TC", alpha=float(m.group(1)), beta=float(m.group(2)))

    def label(self) -> str:
        if self.kind == "TC":
            return f"TC({self.alpha:g},{self.beta:g})"
        return self.kind


@dataclass(frozen=True)
class Material:
    """Diagonal relative permittivity/permeability in (r, phi, z) components."""

    eps: tuple = (1.0, 1.0, 1.0)
    mu: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if min(self.eps) <= 0 or min(self.mu) <= 0:
            raise ValueError("material tensors must be positive")


@dataclass(frozen=True)
class ModeProblem:
    """Discrete eigenproblem description for one azimuthal mode number.

    block selects the unknowns: "full" (coupled pair), or for n = 0, where
    the pair decouples exactly, "azimuthal" (scalar unknown only) or
    "inplane" (vector unknown only).
    """

    mesh: CrossSectionMesh
    n: int
    transformation: Transformation
    q: int
    p: int
    quad_degree: int
    material: Material = Material()
    block: str = "full"

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise ValueError(f"unknown block {self.block!r}")
        if self.block != "full" and self.n != 0:
            raise ValueError(f"the pair decouples only at n = 0; block {self.block!r} "
                             f"with n={self.n} would drop its coupling")
        if self.q < 1 or self.p < 1:
            raise ValueError("orders must satisfy q >= 1 and p >= 1")
        if self.q < self.p:
            raise ValueError("solver policy requires q >= p")
        if self.quad_degree < 0:
            raise ValueError("quadrature degree must be nonnegative")
        if self.transformation.kind == "TC":
            msg = validate_tc(self.n, self.transformation.alpha, self.transformation.beta)
            if msg is not None:
                raise ValueError(msg)


def curl_n(n, r, e_r, e_phi, e_z, der_dz, dez_dr, drephi_dr, drephi_dz):
    """Mode-n weighted curl of a Fourier coefficient field, components (r, phi, z).

    e_phi itself enters only through the derivatives of r*e_phi, but it is
    part of the field bundle for interface completeness.  Requires r > 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("curl_n is singular at r <= 0")
    c_r = -(n * e_z + drephi_dz) / r
    c_phi = der_dz - dez_dr
    c_z = (n * e_r + drephi_dr) / r
    return np.stack(np.broadcast_arrays(c_r, c_phi, c_z), axis=-1)


def validate_tc(n: int, alpha, beta) -> str | None:
    """Admissibility of TC(alpha, beta) for mode n; None when admissible."""
    if n == 0:
        if beta < 0.5:
            return f"TC with n=0 requires beta >= 0.5, got beta={beta}"
        return None
    if abs(n) == 1:
        if alpha < 0.5:
            return f"TC with n=+-1 requires alpha >= 0.5, got alpha={alpha}"
        if beta != 1:
            return f"TC with n=+-1 requires beta = 1, got beta={beta}"
        return None
    if alpha < 0.5:
        return f"TC with |n|>1 requires alpha >= 0.5, got alpha={alpha}"
    if beta <= 0:
        return f"TC with |n|>1 requires beta > 0, got beta={beta}"
    return None


def _check_r(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("inverse substitution requires r > 0")
    return r


@dataclass(frozen=True)
class TransformedValues:
    """Values and derivatives of the transformed pair (u, U) at points.

    u: (...,), du: (..., 2), d2u: (..., 3) ordered (rr, rz, zz),
    U: (..., 2), dU: (..., 2, 2) with dU[..., i, j] = d U_i / d x_j.
    """

    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    U: np.ndarray
    dU: np.ndarray

    @classmethod
    def scalar(cls, u, du, d2u):
        u = np.asarray(u, dtype=float)
        return cls(u, np.asarray(du, float), np.asarray(d2u, float),
                   np.zeros(u.shape + (2,)), np.zeros(u.shape + (2, 2)))

    @classmethod
    def vector(cls, U, dU):
        U = np.asarray(U, dtype=float)
        base = U[..., 0]
        return cls(np.zeros_like(base), np.zeros(base.shape + (2,)),
                   np.zeros(base.shape + (3,)), U, np.asarray(dU, float))


@dataclass(frozen=True)
class PhysicalBundle:
    """Physical field values plus exactly the derivatives curl_n consumes."""

    e_phi: np.ndarray
    e_r: np.ndarray
    e_z: np.ndarray
    drephi_dr: np.ndarray
    drephi_dz: np.ndarray
    der_dz: np.ndarray
    dez_dr: np.ndarray


def inverse_substitute(transformation: Transformation, n: int, r, u, du, U):
    """Value-level inverse map (u, U) -> (e_phi, e_rz) at points with r > 0.

    du (the in-plane gradient of u) is consumed only by TC, whose in-plane
    inverse involves grad(r^beta * u).  The value part of
    transformed_to_physical: second derivatives of u and first derivatives
    of U enter only the derivatives of the physical field.
    """
    tv = TransformedValues(u, du, np.zeros(3), U, np.zeros((2, 2)))
    b = transformed_to_physical(transformation, n, r, tv)
    return np.array(b.e_phi, dtype=float), np.stack(np.broadcast_arrays(b.e_r, b.e_z), axis=-1)


def transformed_to_physical(transformation: Transformation, n: int, r,
                            tv: TransformedValues) -> PhysicalBundle:
    """Inverse substitution with chain-rule derivatives of the physical field."""
    r = _check_r(r)
    u, du, d2u, U, dU = (np.asarray(getattr(tv, f.name), float) for f in fields(tv))
    kind = transformation.kind

    if kind == "TA":
        # u is r*e_phi itself; the in-plane field is untransformed.
        return PhysicalBundle(
            e_phi=u / r,
            e_r=U[..., 0],
            e_z=U[..., 1],
            drephi_dr=du[..., 0],
            drephi_dz=du[..., 1],
            der_dz=dU[..., 0, 1],
            dez_dr=dU[..., 1, 0],
        )

    if kind in ("TB", "TD"):
        e_phi = u
        w_r = u + r * du[..., 0]
        w_z = r * du[..., 1]
        if n == 0:
            e_r, e_z = U[..., 0], U[..., 1]
            der_dz, dez_dr = dU[..., 0, 1], dU[..., 1, 0]
        elif kind == "TB" or abs(n) == 1:
            e_r = (r * U[..., 0] - u) / n
            e_z = r * U[..., 1] / n
            der_dz = (r * dU[..., 0, 1] - du[..., 1]) / n
            dez_dr = (U[..., 1] + r * dU[..., 1, 0]) / n
        else:  # TD, |n| > 1
            e_r = r * U[..., 0] / n
            e_z = r * U[..., 1] / n
            der_dz = r * dU[..., 0, 1] / n
            dez_dr = (U[..., 1] + r * dU[..., 1, 0]) / n
        return PhysicalBundle(e_phi, e_r, e_z, w_r, w_z, der_dz, dez_dr)

    # TC
    a, b = transformation.alpha, transformation.beta
    rbm1 = r ** (b - 1)
    rb = r**b
    e_phi = rbm1 * u
    w_r = b * rbm1 * u + rb * du[..., 0]
    w_z = rb * du[..., 1]
    if n == 0:
        return PhysicalBundle(
            e_phi, U[..., 0], U[..., 1], w_r, w_z, dU[..., 0, 1], dU[..., 1, 0]
        )
    ra = r**a
    ram1 = r ** (a - 1)
    dmix = b * rbm1 * du[..., 1] + rb * d2u[..., 1]  # d/dz of w_r == d/dr of w_z
    e_r = (ra * U[..., 0] - w_r) / n
    e_z = (ra * U[..., 1] - w_z) / n
    der_dz = (ra * dU[..., 0, 1] - dmix) / n
    dez_dr = (a * ram1 * U[..., 1] + ra * dU[..., 1, 0] - dmix) / n
    return PhysicalBundle(e_phi, e_r, e_z, w_r, w_z, der_dz, dez_dr)


def curl_of_bundle(bundle: PhysicalBundle, n: int, r) -> np.ndarray:
    return curl_n(
        n, r, bundle.e_r, bundle.e_phi, bundle.e_z,
        bundle.der_dz, bundle.dez_dr, bundle.drephi_dr, bundle.drephi_dz,
    )


def stiffness_integrand(transformation: Transformation, n: int, material: Material,
                        r, trial: TransformedValues, test: TransformedValues):
    """Pointwise mu^-1-weighted curl_n(trial).curl_n(test) times the r measure."""
    r = np.asarray(r, dtype=float)
    ct = curl_of_bundle(transformed_to_physical(transformation, n, r, trial), n, r)
    cs = curl_of_bundle(transformed_to_physical(transformation, n, r, test), n, r)
    inv_mu = np.array([1.0 / m for m in material.mu])
    return np.einsum("...c,...c->...", ct * inv_mu, cs) * r


def mass_integrand(transformation: Transformation, n: int, material: Material,
                   r, trial: TransformedValues, test: TransformedValues):
    """Pointwise eps-weighted trial.test of the physical fields times r."""
    r = np.asarray(r, dtype=float)
    bt = transformed_to_physical(transformation, n, r, trial)
    bs = transformed_to_physical(transformation, n, r, test)
    e_r, e_p, e_z = material.eps
    return (e_r * bt.e_r * bs.e_r + e_p * bt.e_phi * bs.e_phi + e_z * bt.e_z * bs.e_z) * r


@dataclass(frozen=True)
class AxisConditions:
    """Essential constraints on the symmetry axis (PEC walls always constrain
    the scalar unknown and the tangential vector trace, independent of these)."""

    h1_dirichlet: bool
    hcurl_tangential_dirichlet: bool


def axis_conditions(transformation: Transformation, n: int) -> AxisConditions:
    """Homogeneous Dirichlet conditions required at r = 0.

    TA constrains its scalar unknown r*e_phi for every n (it vanishes on the
    axis by construction) and additionally the in-plane tangential trace e_z
    for |n| >= 1, matching the axis regularity of smooth fields.  TB/TC/TD
    constrain only the scalar unknown, depending on n (and beta for TC).
    """
    kind = transformation.kind
    if kind == "TA":
        return AxisConditions(True, abs(n) >= 1)
    if kind in ("TB", "TD"):
        return AxisConditions(n == 0 or abs(n) > 1, False)
    msg = validate_tc(n, transformation.alpha, transformation.beta)
    if msg is not None:
        raise ValueError(msg)
    b = transformation.beta
    if n == 0:
        return AxisConditions(0.5 <= b < 1.5, False)
    if abs(n) == 1:
        return AxisConditions(False, False)
    return AxisConditions(0 < b <= 1, False)


def gradient_kernel_coefficient(transformation: Transformation, n: int) -> float | None:
    """The c for which range [I; c G] is exactly the kernel of the pencil.

    I acts on the scalar unknowns and G is the discrete gradient (H1 into
    H(curl)).  A gradient field e = grad_n(phi) has e_phi = -n phi / r, so
    it reads u = -n phi, U = grad(phi) under TA; u = -n phi / r, U = -grad(u)
    under TB (and TD with |n| = 1); and U = 0 under TC.  None where the
    kernel is not of that form: n = 0, where the kernel is the gradients of
    the in-plane block alone, and TD with |n| > 1, where U = n grad(phi) / r
    is not a gradient and no c makes range [I; c G] the kernel.
    """
    kind = transformation.kind
    if n == 0:
        return None
    if kind == "TA":
        return -1.0 / n
    if kind == "TB" or (kind == "TD" and abs(n) == 1):
        return -1.0
    if kind == "TC":
        return 0.0
    return None


def _is_half_integer(x: float) -> bool:
    return abs(2 * x - round(2 * x)) < 1e-12


def polynomial_integrand_predicate(transformation: Transformation, n: int) -> bool:
    """True when every stiffness/mass integrand is a polynomial in (r, z)."""
    kind = transformation.kind
    if kind == "TA":
        return False
    if kind == "TB":
        return n != 0
    if kind == "TD":
        return abs(n) == 1
    a, b = transformation.alpha, transformation.beta
    if n == 0:  # alpha enters no n = 0 integrand
        return _is_half_integer(b) and b >= 1.5
    if not (_is_half_integer(a) and _is_half_integer(b)):
        return False
    if abs((a + b) - round(a + b)) > 1e-12:
        return False
    return a >= 0.5 and b >= 0.5


def polynomial_threshold_degree(transformation: Transformation, n: int,
                                q: int, p: int, block: str = "full") -> int | None:
    """Smallest safe quadrature exactness degree for polynomial integrands.

    Returns None when the integrands are not polynomial (then the degree is
    a study-configuration input).  block selects the n = 0 sub-problem:
    "azimuthal" (scalar unknown only), "inplane", or "full".
    """
    kind = transformation.kind
    if block not in BLOCKS:
        raise ValueError(f"unknown block {block!r}")
    if n == 0:
        if block == "inplane" and kind in ("TB", "TC", "TD"):
            return 2 * p + 3  # curl and mass of an untransformed polynomial field
        if block == "azimuthal" and kind == "TC":
            b = transformation.beta
            if _is_half_integer(b) and b >= 1.5:
                return int(np.ceil(2 * (q + b - 1) + 1))
            return None
        if block == "full" and kind == "TC":
            if polynomial_integrand_predicate(transformation, n):
                b = transformation.beta
                return max(int(np.ceil(2 * (q + b - 1) + 1)), 2 * p + 3)
            return None
        return None
    if not polynomial_integrand_predicate(transformation, n):
        return None
    if kind in ("TB", "TD"):
        return 2 * max(p + 1, q) + 1
    a, b = transformation.alpha, transformation.beta
    return int(np.ceil(2 * max(p + a, q + b - 1) + 1))


def convergent_tc_params(n: int) -> set:
    """TC parameter pairs with full finite element convergence rate.

    For n = 0 the in-plane transformation does not involve alpha; pairs are
    reported with alpha = None.
    """
    if n == 0:
        return {(None, 1.0), (None, 2.0)}
    if abs(n) == 1:
        return {(1.0, 1.0)}
    return {(a, b) for a in (1.0, 2.0) for b in (1.0, 2.0)}


def recommended_tc_params(n: int) -> tuple:
    """Preferred (alpha, beta): smallest polynomial-integrand pair."""
    if n == 0:
        return (None, 2.0)
    return (1.0, 1.0)
