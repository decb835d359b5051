"""Spurious modes and the q = p + 1 pairing rule.

The scalar unknown must be discretized one polynomial order above the
vector unknown.  With q = p + 1 the computed spectrum is clean; with
q = p the broken discrete sequence floods the spectrum with nonphysical
eigenvalues.  TD is defective for |n| > 1 no matter the orders.
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

N = 8
mesh = build_structured(1.0, 1.0, N)

cases = [
    ("TB,  n=1, q=3, p=2  (q = p+1)", Transformation("TB"), 1, 3, 2, 9),
    ("TB,  n=1, q=2, p=2  (q = p)  ", Transformation("TB"), 1, 2, 2, 9),
    ("TD,  n=2, q=2, p=1  (q = p+1)", Transformation("TD"), 2, 2, 1, 12),
    ("TB,  n=2, q=2, p=1  (q = p+1)", Transformation("TB"), 2, 2, 1, 7),
]

print(f"{'case':<32} {'spurious in first 8 modes':>26}")
for label, tr, n, q, p, D in cases:
    pair = build_pair(mesh, q, p)
    problem = ModeProblem(mesh=mesh, n=n, transformation=tr, q=q, p=p, quad_degree=D)
    pencil = assemble(problem, pair)
    modes = pillbox_spectrum(1.0, 1.0, n, 200.0)
    lam_cut = 0.5 * (modes[7].lam + modes[8].lam)
    spectrum = solve_window(pencil, lam_cut)
    tol = estimate_match_tol(spectrum.eigenvalues, modes[:8])
    report = match_spectra(spectrum.eigenvalues, modes[:8], tol)
    print(f"{label:<32} {report.spurious_count:>26}")
