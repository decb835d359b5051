"""Reconstructing the 3D electric field of a computed eigenmode.

Solves the n = 0 in-plane block for the fundamental accelerating mode
(TM010) and samples the physical field: e_z follows the radial Bessel
profile J_0(j01 * r) and carries no phi or z dependence.
"""

import numpy as np

from axicav import (
    ModeProblem,
    Transformation,
    assemble,
    bessel_j,
    bessel_zero,
    build_pair,
    build_structured,
    reconstruct_field,
    solve,
)

j01 = bessel_zero(0, 1)
mesh = build_structured(1.0, 1.0, 16)
pair = build_pair(mesh, 2, 2)
tr = Transformation("TB")
# n = 0: the pair decouples, so only the in-plane block is assembled
problem = ModeProblem(mesh=mesh, n=0, transformation=tr, q=2, p=2, quad_degree=7,
                      block="inplane")
pencil = assemble(problem, pair)

spectrum = solve(pencil, k=3, hint=j01**2)
idx = int(np.argmin(np.abs(spectrum.eigenvalues - j01**2)))
lam = spectrum.eigenvalues[idx]
print(f"computed omega/c0 = {np.sqrt(lam):.8f}, analytic j01 = {j01:.8f}")

vec = pencil.expand(spectrum.eigenvectors[:, idx])

# Normalize so e_z(r -> 0) ~ 1, then compare with J_0(j01 r).
e_axis = reconstruct_field(pair, tr, 0, vec, 1e-6, 0.0, 0.5)
scale = e_axis[2]

print(f"\n{'r':>6} {'e_z (FE)':>12} {'J0(j01 r)':>12} {'e_r (FE)':>12}")
for r in (0.05, 0.2, 0.4, 0.6, 0.8):
    e = reconstruct_field(pair, tr, 0, vec, r, 0.0, 0.5) / scale
    print(f"{r:6.2f} {e[2]:12.6f} {bessel_j(0, j01 * r):12.6f} {e[0]:12.2e}")

print("\nphi-independence (n = 0): field identical at phi = 0 and phi = 1.3:")
e1 = reconstruct_field(pair, tr, 0, vec, 0.35, 0.0, 0.5)
e2 = reconstruct_field(pair, tr, 0, vec, 0.35, 1.3, 0.5)
print(f"  max component difference: {np.abs(e1 - e2).max():.1e}")
