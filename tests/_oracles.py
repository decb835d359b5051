"""Test-side oracles, independent of the library's inverse-substitution code.

Poly2 is a bivariate polynomial with exact derivatives.  forward_bundles
maps a random polynomial *physical* field (e_r, e_phi, e_z) into each
transformation's (u, U) variables with hand-derived chain rules, so the
library's inverse route and this forward route check each other.
dense_spectrum is the full-spectrum reference of a pencil.
"""

import numpy as np
from scipy.linalg import eigh

from axicav.formulation import TransformedValues


def dense_spectrum(pencil):
    """Every eigenpair of the pencil, kernel included, ascending: scipy's
    eigh on its dense K and M."""
    return eigh(pencil.K.toarray(), pencil.M.toarray())


class Poly2:
    """Bivariate polynomial; call with derivative orders (dr, dz)."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    def __call__(self, r, z, dr=0, dz=0):
        out = np.zeros(np.broadcast(r, z).shape)
        for a in range(self.c.shape[0]):
            for b in range(self.c.shape[1]):
                if self.c[a, b] == 0.0:
                    continue
                fa, aa = 1.0, a
                for _ in range(dr):
                    fa *= aa
                    aa -= 1
                fb, bb = 1.0, b
                for _ in range(dz):
                    fb *= bb
                    bb -= 1
                if aa < 0 or bb < 0:
                    continue
                out = out + self.c[a, b] * fa * fb * r**aa * z**bb
        return out


def random_field(rng, deg=2):
    """Random polynomial physical field (e_r, e_phi, e_z)."""
    return tuple(Poly2(rng.standard_normal((deg + 1, deg + 1))) for _ in range(3))


def _grad_pack(f, r, z):
    val = np.stack([f[0](r, z), f[1](r, z)], -1)
    jac = np.stack(
        [
            np.stack([f[0](r, z, 1, 0), f[0](r, z, 0, 1)], -1),
            np.stack([f[1](r, z, 1, 0), f[1](r, z, 0, 1)], -1),
        ],
        -2,
    )
    return val, jac


def forward_bundles(transformation, n, er, ephi, ez, r, z) -> TransformedValues:
    """Forward substitution (physical -> transformed) with exact derivatives."""
    kind = transformation.kind

    if kind == "TA":
        u = r * ephi(r, z)
        du = np.stack(
            [ephi(r, z) + r * ephi(r, z, 1, 0), r * ephi(r, z, 0, 1)], -1
        )
        d2u = np.stack(
            [
                2 * ephi(r, z, 1, 0) + r * ephi(r, z, 2, 0),
                ephi(r, z, 0, 1) + r * ephi(r, z, 1, 1),
                r * ephi(r, z, 0, 2),
            ],
            -1,
        )
        U, dU = _grad_pack((er, ez), r, z)
        return TransformedValues(u, du, d2u, U, dU)

    if kind in ("TB", "TD"):
        u = ephi(r, z)
        du = np.stack([ephi(r, z, 1, 0), ephi(r, z, 0, 1)], -1)
        d2u = np.stack(
            [ephi(r, z, 2, 0), ephi(r, z, 1, 1), ephi(r, z, 0, 2)], -1
        )
        if n == 0:
            U, dU = _grad_pack((er, ez), r, z)
            return TransformedValues(u, du, d2u, U, dU)
        if kind == "TB" or abs(n) == 1:
            num_r = lambda dr, dz: n * er(r, z, dr, dz) + ephi(r, z, dr, dz)
            num_z = lambda dr, dz: n * ez(r, z, dr, dz)
        else:  # TD, |n| > 1
            num_r = lambda dr, dz: n * er(r, z, dr, dz)
            num_z = lambda dr, dz: n * ez(r, z, dr, dz)
        Ur, Uz = num_r(0, 0) / r, num_z(0, 0) / r
        dU = np.stack(
            [
                np.stack([num_r(1, 0) / r - num_r(0, 0) / r**2, num_r(0, 1) / r], -1),
                np.stack([num_z(1, 0) / r - num_z(0, 0) / r**2, num_z(0, 1) / r], -1),
            ],
            -2,
        )
        return TransformedValues(u, du, d2u, np.stack([Ur, Uz], -1), dU)

    # TC(alpha, beta)
    a, b = transformation.alpha, transformation.beta
    u = r ** (1 - b) * ephi(r, z)
    du = np.stack(
        [
            (1 - b) * r**-b * ephi(r, z) + r ** (1 - b) * ephi(r, z, 1, 0),
            r ** (1 - b) * ephi(r, z, 0, 1),
        ],
        -1,
    )
    d2u = np.stack(
        [
            (1 - b) * (-b) * r ** (-b - 1) * ephi(r, z)
            + 2 * (1 - b) * r**-b * ephi(r, z, 1, 0)
            + r ** (1 - b) * ephi(r, z, 2, 0),
            (1 - b) * r**-b * ephi(r, z, 0, 1) + r ** (1 - b) * ephi(r, z, 1, 1),
            r ** (1 - b) * ephi(r, z, 0, 2),
        ],
        -1,
    )
    if n == 0:
        U, dU = _grad_pack((er, ez), r, z)
        return TransformedValues(u, du, d2u, U, dU)
    # r^a U = n e_rz + grad(r e_phi); the sign for n = +-1 equals n.
    # Explicit derivatives of g = grad(r e_phi):
    g_r = ephi(r, z) + r * ephi(r, z, 1, 0)
    g_z = r * ephi(r, z, 0, 1)
    g_r_r = 2 * ephi(r, z, 1, 0) + r * ephi(r, z, 2, 0)
    g_r_z = ephi(r, z, 0, 1) + r * ephi(r, z, 1, 1)
    g_z_r = g_r_z
    g_z_z = r * ephi(r, z, 0, 2)
    Ur = (n * er(r, z) + g_r) / r**a
    Uz = (n * ez(r, z) + g_z) / r**a
    Ur_r = (n * er(r, z, 1, 0) + g_r_r) / r**a - a * (n * er(r, z) + g_r) / r ** (a + 1)
    Ur_z = (n * er(r, z, 0, 1) + g_r_z) / r**a
    Uz_r = (n * ez(r, z, 1, 0) + g_z_r) / r**a - a * (n * ez(r, z) + g_z) / r ** (a + 1)
    Uz_z = (n * ez(r, z, 0, 1) + g_z_z) / r**a
    dU = np.stack(
        [np.stack([Ur_r, Ur_z], -1), np.stack([Uz_r, Uz_z], -1)], -2
    )
    return TransformedValues(u, du, d2u, np.stack([Ur, Uz], -1), dU)
