"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The full suite targets a desktop-core budget of well under
fifteen minutes; intermediate solves are cached across criteria.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

import _oracles
from axicav.analytic import (
    bessel_prime_zero,
    bessel_zero,
    estimate_match_tol,
    match_spectra,
    pillbox_spectrum,
)
from axicav.assembly import assemble
from axicav.eigen import solve, solve_window
from axicav.fespace import build_pair, gradient_inclusion_check
from axicav.formulation import (
    Material,
    ModeProblem,
    Transformation,
    convergent_tc_params,
    mass_integrand,
    polynomial_threshold_degree,
    recommended_tc_params,
    stiffness_integrand,
)
from axicav.mesh import build_structured
from axicav.quadrature import rule_for_degree
from axicav.studies import axis_regularity_probe, fit_slope


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _tr(spec: str) -> Transformation:
    return Transformation.parse(spec)


@functools.lru_cache(maxsize=None)
def _pencil(kind, alpha, beta, n, q, p, N, D, block="full"):
    tr = Transformation(kind, alpha, beta)
    mesh = build_structured(1.0, 1.0, N)
    pair = build_pair(mesh, q, p)
    prob = ModeProblem(mesh=mesh, n=n, transformation=tr, q=q, p=p, quad_degree=D,
                       block=block)
    return mesh, pair, assemble(prob, pair)


@functools.lru_cache(maxsize=None)
def _omega_at(kind, alpha, beta, n, q, p, N, D, lam_t, block="full"):
    """Computed omega of the eigenvalue nearest the analytic target."""
    mesh, pair, pen = _pencil(kind, alpha, beta, n, q, p, N, D, block)
    spec = solve(pen, k=8, hint=lam_t)
    lam = spec.eigenvalues[np.argmin(np.abs(spec.eigenvalues - lam_t))]
    return math.sqrt(lam)


@functools.lru_cache(maxsize=None)
def _spurious_count(kind, alpha, beta, n, q, p, N, D, nmodes=8):
    mesh, pair, pen = _pencil(kind, alpha, beta, n, q, p, N, D)
    modes = pillbox_spectrum(1.0, 1.0, n, 200.0)
    window = modes[:nmodes]
    lam_cut = 0.5 * (modes[nmodes - 1].lam + modes[nmodes].lam)
    spec = solve_window(pen, lam_cut)
    tol = estimate_match_tol(spec.eigenvalues, window)
    return match_spectra(spec.eigenvalues, window, tol).spurious_count


_LAM_TE111 = None


def _lam(family, m, nu, pi_idx):
    zero = bessel_zero if family == "TM" else bessel_prime_zero
    return zero(m, nu) ** 2 + (pi_idx * math.pi) ** 2


# --------------------------------------------------------------------------


def test_criterion_01_bessel_zero_oracle():
    """Bracketing/bisection zeros vs independently recomputed high-precision
    values (mpmath, a different algorithm), 1e-12 absolute."""
    targets = [
        (bessel_zero(0, 1), float(mpmath.besseljzero(0, 1))),
        (bessel_zero(1, 1), float(mpmath.besseljzero(1, 1))),
        # mpmath counts the x = 0 derivative zero for order 0; orders >= 1 align
        (bessel_prime_zero(1, 1), float(mpmath.besseljzero(1, 1, derivative=1))),
    ]
    worst = max(abs(a - b) for a, b in targets)
    _report(1, worst < 1e-12, f"max Bessel-zero deviation {worst:.2e} < 1e-12")


def test_criterion_02_cross_transformation_equivalence():
    """Stiffness and mass energies of matched physical fields agree across
    TA/TB/TC(1,1)/TD at n = 2 on elements with r >= 0.5, 100 draws, 1e-10."""
    n = 2
    mesh = build_structured(1.0, 1.0, 4)
    verts_all = mesh.nodes[mesh.triangles]
    keep = verts_all[:, :, 0].min(axis=1) >= 0.5 - 1e-12
    tris = verts_all[keep]
    rule = rule_for_degree(24)
    mat = Material(eps=(1.1, 0.9, 1.2), mu=(0.95, 1.3, 1.1))
    transforms = [_tr("TA"), _tr("TB"), _tr("TC(1,1)"), _tr("TD")]

    pts = np.einsum("qk,tkc->tqc", rule.points, tris)
    r, z = pts[..., 0].ravel(), pts[..., 1].ravel()
    dets = 2.0 * np.abs(
        0.5
        * (
            (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
            - (tris[:, 1, 1] - tris[:, 0, 1]) * (tris[:, 2, 0] - tris[:, 0, 0])
        )
    )
    wts = (dets[:, None] * rule.weights[None, :]).ravel()

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        f = _oracles.random_field(rng)
        Ks, Ms = [], []
        for tr in transforms:
            tv = _oracles.forward_bundles(tr, n, *f, r, z)
            Ks.append(float(np.sum(wts * stiffness_integrand(tr, n, mat, r, tv, tv))))
            Ms.append(float(np.sum(wts * mass_integrand(tr, n, mat, r, tv, tv))))
        worst = max(
            worst,
            np.ptp(Ks) / max(abs(Ks[0]), 1e-30),
            np.ptp(Ms) / max(abs(Ms[0]), 1e-30),
        )
    _report(2, worst < 1e-10, f"max energy spread over 100 draws {worst:.2e} < 1e-10")


def test_criterion_03_de_rham_inclusion():
    mesh = build_structured(1.0, 1.0, 2)
    worst = 0.0
    for q, p in ((2, 1), (3, 2), (4, 3), (5, 4)):
        worst = max(worst, gradient_inclusion_check(build_pair(mesh, q, p)))
    _report(3, worst < 1e-10, f"max gradient-inclusion residual {worst:.2e} < 1e-10")


def test_criterion_04_spurious_free_pairing():
    clean = {}
    for spec_str in ("TB", "TC(1,1)"):
        tr = _tr(spec_str)
        for p in (1, 2):
            q = p + 1
            D = polynomial_threshold_degree(tr, 1, q, p)
            for N in (8, 16):
                clean[(spec_str, p, N)] = _spurious_count(
                    tr.kind, tr.alpha, tr.beta, 1, q, p, N, D
                )
    bad_qp = _spurious_count("TB", None, None, 1, 2, 2, 8, 7)
    bad_td = _spurious_count("TD", None, None, 2, 2, 1, 8, 12)
    ok = all(v == 0 for v in clean.values()) and bad_qp >= 1 and bad_td >= 1
    _report(
        4,
        ok,
        f"clean pairings spurious={sorted(clean.values())}; "
        f"q=p=2 gives {bad_qp} (>=1); TD n=2 gives {bad_td} (>=1)",
    )


def test_criterion_05_convergence_slope_te111():
    lam_t = _lam("TE", 1, 1, 1)
    ladder = (4, 8, 16, 32)
    slopes = {}
    monotone = True
    for spec_str, D in (("TB", 7), ("TC(1,1)", 7), ("TA", 24)):
        tr = _tr(spec_str)
        errs = []
        for N in ladder:
            om = _omega_at(tr.kind, tr.alpha, tr.beta, 1, 3, 2, N, D, lam_t)
            errs.append(abs(om - math.sqrt(lam_t)) / math.sqrt(lam_t))
        slopes[spec_str] = fit_slope(ladder, errs)
        monotone &= all(a > b for a, b in zip(errs, errs[1:]))
    ok = monotone and all(3.6 <= s <= 4.6 for s in slopes.values())
    _report(
        5,
        ok,
        "slopes " + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
        + f" all in [3.6, 4.6]; errors monotone={monotone}",
    )


def test_criterion_06_quadrature_independence():
    lam_t = _lam("TE", 1, 1, 1)
    shifts = {}
    for spec_str in ("TB", "TC(1,1)"):
        tr = _tr(spec_str)
        th = polynomial_threshold_degree(tr, 1, 3, 2)
        w1 = _omega_at(tr.kind, tr.alpha, tr.beta, 1, 3, 2, 8, th, lam_t)
        w2 = _omega_at(tr.kind, tr.alpha, tr.beta, 1, 3, 2, 8, th + 6, lam_t)
        shifts[spec_str] = abs(w2 - w1) / w1
    w_lo = _omega_at("TA", None, None, 1, 3, 2, 8, 6, lam_t)
    w_hi = _omega_at("TA", None, None, 1, 3, 2, 8, 24, lam_t)
    ta_shift = abs(w_hi - w_lo) / w_lo
    ok = all(s < 1e-12 for s in shifts.values()) and ta_shift > 1e-10
    _report(
        6,
        ok,
        f"TB shift {shifts['TB']:.1e} < 1e-12, TC(1,1) shift {shifts['TC(1,1)']:.1e}"
        f" < 1e-12, TA shift {ta_shift:.1e} > 1e-10",
    )


def test_criterion_07_alpha_beta_rate_restriction():
    # n = 1, TM111, q = 4, p = 3: TC(1,1) outruns TC(0.5,1) by >= 1 in slope
    lam_tm = _lam("TM", 1, 1, 1)
    ladder_n1 = (2, 4, 8)

    def slope_n1(alpha, D):
        errs = []
        for N in ladder_n1:
            om = _omega_at("TC", alpha, 1.0, 1, 4, 3, N, D, lam_tm)
            errs.append(abs(om - math.sqrt(lam_tm)) / math.sqrt(lam_tm))
        return fit_slope(ladder_n1, errs)

    s11 = slope_n1(1.0, polynomial_threshold_degree(_tr("TC(1,1)"), 1, 4, 3))
    s051 = slope_n1(0.5, 18)
    gap_ok = s11 - s051 >= 1.0

    # n = 0, TE022, q = 4, azimuthal block standalone
    lam_te022 = _lam("TE", 0, 2, 2)
    ladder_n0 = (4, 8, 16)

    def slope_n0(beta, D):
        errs = []
        for N in ladder_n0:
            om = _omega_at("TC", 1.0, beta, 0, 4, 3, N, D, lam_te022, block="azimuthal")
            errs.append(abs(om - math.sqrt(lam_te022)) / math.sqrt(lam_te022))
        return fit_slope(ladder_n0, errs)

    s_b2 = slope_n0(2.0, polynomial_threshold_degree(_tr("TC(1,2)"), 0, 4, 3, block="azimuthal"))
    s_b1 = slope_n0(1.0, 16)
    s_b05 = slope_n0(0.5, 16)
    n0_ok = abs(s_b2 - s_b1) <= 0.5 and min(s_b1, s_b2) >= s_b05 + 1.0
    _report(
        7,
        gap_ok and n0_ok,
        f"n=1: slope TC(1,1)={s11:.2f} vs TC(0.5,1)={s051:.2f} (gap >= 1); "
        f"n=0: beta=2 {s_b2:.2f}, beta=1 {s_b1:.2f} (within 0.5), "
        f"beta=0.5 {s_b05:.2f} (both others exceed by >= 1)",
    )


def test_criterion_08_recommended_parameters():
    ok = (
        recommended_tc_params(0) == (None, 2.0)
        and recommended_tc_params(1) == (1.0, 1.0)
        and recommended_tc_params(-4) == (1.0, 1.0)
        and convergent_tc_params(0) == {(None, 1.0), (None, 2.0)}
        and convergent_tc_params(1) == {(1.0, 1.0)}
        and convergent_tc_params(-1) == {(1.0, 1.0)}
        and convergent_tc_params(5)
        == {(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)}
    )
    _report(8, ok, "recommended/convergent parameter tables match exactly")


def test_criterion_09_axis_regularity_probe():
    lam_t = _lam("TE", 1, 1, 1)
    results = {}
    for alpha in (0.5, 1.0):
        mesh, pair, pen = _pencil("TC", alpha, 1.0, 1, 2, 1, 32, 16)
        spec = solve(pen, k=6, hint=lam_t)
        idx = int(np.argmin(np.abs(spec.eigenvalues - lam_t)))
        vec = pen.expand(spec.eigenvectors[:, idx])
        results[alpha] = axis_regularity_probe(mesh, pair, vec)
    ok = all(abs(results[a] - (1.0 - a)) <= 0.3 for a in results)
    _report(
        9,
        ok,
        f"exponents alpha=0.5: {results[0.5]:.2f} (expect 0.5 +- 0.3), "
        f"alpha=1: {results[1.0]:.2f} (expect 0 +- 0.3)",
    )


def test_criterion_10_decoupling_and_td_tb_coincidence():
    worst_off = 0.0
    for kind in ("TB", "TA"):
        _, _, pen = _pencil(kind, None, None, 0, 3, 2, 4, 12)
        for which in ("K", "M"):
            worst_off = max(worst_off, np.abs(pen.offdiagonal_block(which)).max())
    worst_diff = 0.0
    for n in (0, 1, -1):
        _, _, pb = _pencil("TB", None, None, n, 3, 2, 4, 9)
        _, _, pd = _pencil("TD", None, None, n, 3, 2, 4, 9)
        worst_diff = max(
            worst_diff,
            np.abs((pb.K - pd.K)).max() if (pb.K - pd.K).nnz else 0.0,
            np.abs((pb.M - pd.M)).max() if (pb.M - pd.M).nnz else 0.0,
        )
    ok = worst_off == 0.0 and worst_diff <= 1e-15
    _report(
        10,
        ok,
        f"n=0 coupling block max {worst_off} (exact 0); "
        f"TD vs TB element difference {worst_diff:.1e} <= 1e-15",
    )


def test_criterion_11_tm010_anchor():
    """TM010 for the n = 0 problem with stated scalar order q = 2.  The mode
    lives in the decoupled in-plane block, so the block is solved with
    in-plane order 2 (q >= p holds); the scalar order does not enter."""
    j01 = bessel_zero(0, 1)
    lam_t = j01 * j01
    errs = []
    for N in (8, 16, 32):
        om = _omega_at("TB", None, None, 0, 2, 2, N, 7, lam_t, block="inplane")
        errs.append(abs(om - j01) / j01)
    ok = errs[0] > errs[1] > errs[2] and errs[-1] < 1e-5
    _report(
        11,
        ok,
        f"TM010 errors {['%.2e' % e for e in errs]} decreasing, final < 1e-5",
    )


@pytest.mark.parametrize("spec_str,q,p,N", [
    (spec_str, q, q - 1, N)
    for spec_str in ("TB", "TC(1,1)") for q in (4, 5, 6) for N in (2, 4)
])
def test_criterion_12_high_order_spurious_free(spec_str, q, p, N):
    """n = 1, threshold quadrature: the first eight pillbox modes pair with
    no spurious eigenvalue at the paper's high orders q = p + 1."""
    tr = _tr(spec_str)
    D = polynomial_threshold_degree(tr, 1, q, p)
    count = _spurious_count(tr.kind, tr.alpha, tr.beta, 1, q, p, N, D)
    _report(12, count == 0, f"{spec_str} (q, p) = ({q}, {p}) N = {N}: spurious {count} (expect 0)")


_LADDER_43 = (4, 3, (2, 4, 8), 6.21, 6.31)
_LADDER_54 = (5, 4, (2, 3, 4, 6), 7.98, 8.28)


@pytest.mark.parametrize("spec_str,q,p,ladder,lo,hi", [
    ("TB", *_LADDER_43), ("TC(1,1)", *_LADDER_43),
    ("TB", *_LADDER_54), ("TC(1,1)", *_LADDER_54),
])
def test_criterion_13_high_order_slope_te111(spec_str, q, p, ladder, lo, hi):
    """TE111 convergence slope at n = 1 on coarse ladders at high order:
    6.26 at (4, 3) and 8.13 at (5, 4), errors 9e-6 down to 1.4e-11."""
    tr = _tr(spec_str)
    D = polynomial_threshold_degree(tr, 1, q, p)
    lam_t = _lam("TE", 1, 1, 1)
    errs = [
        abs(_omega_at(tr.kind, tr.alpha, tr.beta, 1, q, p, N, D, lam_t) - math.sqrt(lam_t))
        / math.sqrt(lam_t)
        for N in ladder
    ]
    slope = fit_slope(ladder, errs)
    _report(13, lo <= slope <= hi, f"{spec_str} (q, p) = ({q}, {p}) slope {slope:.2f} in [{lo}, {hi}]")
