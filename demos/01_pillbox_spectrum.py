"""Computed vs analytic spectrum of the unit pillbox cavity.

Solves the n = 1 azimuthal block with the TB transformation and a
spurious-free order pairing (q = p + 1), then lines the computed
eigenfrequencies up against the closed-form pillbox modes.
"""

from axicav import (
    ModeProblem,
    Transformation,
    assemble,
    build_pair,
    build_structured,
    estimate_match_tol,
    match_spectra,
    pillbox_spectrum,
    solve_window,
)

# A modest mesh: 8 subdivisions across the radius, cells near-square.
mesh = build_structured(R=1.0, L=1.0, N=8)
print(f"mesh: {mesh.n_triangles} triangles, {mesh.n_edges} edges")

# Second-order in-plane elements, third-order azimuthal unknown.
pair = build_pair(mesh, q=3, p=2)
problem = ModeProblem(
    mesh=mesh, n=1, transformation=Transformation("TB"), q=3, p=2, quad_degree=7
)
pencil = assemble(problem, pair)
print(f"pencil: {pencil.n_free} free dofs ({pencil.n_free_h1} scalar)")

# First eight analytic modes of the m = 1 family.
modes = pillbox_spectrum(R=1.0, L=1.0, n=1, lam_max=200.0)[:8]
lam_cut = modes[-1].lam * 1.05
spectrum = solve_window(pencil, lam_cut, 0.02 * modes[0].lam, expect=14)
how = "deflated exactly" if spectrum.kernel_exact else "filtered by threshold"
print(f"gradient kernel: {spectrum.kernel_count} eigenvalues, {how}")

tol = estimate_match_tol(spectrum.eigenvalues, modes)
report = match_spectra(spectrum.eigenvalues, modes, tol)

print(f"\n{'mode':>8} {'analytic':>12} {'computed':>12} {'rel err':>10}")
for omega, mode in report.pairs:
    err = abs(omega - mode.omega) / mode.omega
    print(f"{mode.mode_id:>8} {mode.omega:12.6f} {omega:12.6f} {err:10.2e}")
print(f"\nspurious: {report.spurious_count}, missed: {len(report.missed)}")
