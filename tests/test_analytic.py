import math
import time

import mpmath
import numpy as np
import pytest

from axicav.analytic import (
    MATCH_TOL_CAP,
    MODE_CAP,
    AnalyticMode,
    bessel_j,
    bessel_prime_zero,
    bessel_zero,
    count_spurious,
    estimate_match_tol,
    export_modes_csv,
    match_spectra,
    pillbox_spectrum,
)
from axicav.studies import _first_modes


def test_j0_at_origin():
    assert bessel_j(0, 0.0) == 1.0


def test_j1_at_origin():
    assert bessel_j(1, 0.0) == 0.0


def test_j0_first_zero_value():
    assert abs(bessel_j(0, bessel_zero(0, 1))) < 1e-12


@pytest.mark.parametrize("m", range(0, 11))
def test_bessel_values_against_mpmath(m):
    for x in np.linspace(0.05, 50.0, 61):
        assert bessel_j(m, float(x)) == pytest.approx(
            float(mpmath.besselj(m, float(x))), abs=1e-13
        )


def test_bessel_zero_index_checks():
    with pytest.raises(ValueError):
        bessel_zero(-1, 1)
    with pytest.raises(ValueError):
        bessel_zero(0, 0)
    with pytest.raises(ValueError):
        bessel_prime_zero(-1, 1)
    with pytest.raises(ValueError):
        bessel_prime_zero(1, 0)


@pytest.mark.parametrize("m", range(0, 11))
@pytest.mark.parametrize("nu", range(1, 11))
def test_zeros_against_mpmath(m, nu):
    assert bessel_zero(m, nu) == pytest.approx(
        float(mpmath.besseljzero(m, nu)), abs=1e-12
    )
    # mpmath counts the derivative zero at x = 0 for m = 0; this table does not
    shift = 1 if m == 0 else 0
    assert bessel_prime_zero(m, nu) == pytest.approx(
        float(mpmath.besseljzero(m, nu + shift, derivative=1)), abs=1e-12
    )


def test_high_order_and_wide_windows():
    # |n| > 5 and windows past the fifth radial zero
    modes = pillbox_spectrum(1.0, 1.0, 7, 400.0)
    assert modes and all(md.m == 7 for md in modes)
    assert max(md.nu for md in modes) >= 2
    first = _first_modes(1.0, 1.0, 2, 30)
    assert len(first) >= 30
    assert [md.omega for md in first] == sorted(md.omega for md in first)


def test_zero_interlacing():
    for m in range(0, 5):
        for nu in range(1, 5):
            assert bessel_zero(m, nu) < bessel_zero(m + 1, nu)
            assert bessel_zero(m, nu) < bessel_zero(m, nu + 1)


def test_pillbox_lowest_tm010():
    modes = pillbox_spectrum(1.0, 1.0, 0, 30.0)
    assert modes[0].family == "TM"
    assert (modes[0].m, modes[0].nu, modes[0].pi_idx) == (0, 1, 0)
    assert modes[0].omega == pytest.approx(bessel_zero(0, 1), rel=1e-14)


def test_pillbox_te111_tm111():
    modes = {md.mode_id: md for md in pillbox_spectrum(1.0, 1.0, 1, 40.0)}
    te111 = math.sqrt(bessel_prime_zero(1, 1) ** 2 + math.pi**2)
    tm111 = math.sqrt(bessel_zero(1, 1) ** 2 + math.pi**2)
    assert modes["TE111"].omega == pytest.approx(te111, rel=1e-14)
    assert modes["TM111"].omega == pytest.approx(tm111, rel=1e-14)
    assert te111 == pytest.approx(3.641368, abs=1e-6)
    assert tm111 == pytest.approx(4.954967, abs=3e-5)


def test_pillbox_prefix_property():
    small = pillbox_spectrum(1.0, 1.0, 1, 30.0)
    large = pillbox_spectrum(1.0, 1.0, 1, 60.0)
    assert [m.mode_id for m in small] == [m.mode_id for m in large[: len(small)]]


@pytest.mark.parametrize(
    "R,L,lam_max",
    [(math.inf, 1.0, 30.0), (math.nan, 1.0, 30.0), (1.0, math.inf, 30.0),
     (1.0, math.nan, 30.0), (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)],
)
def test_pillbox_rejects_non_finite_sizes(R, L, lam_max):
    # a non-finite size or bound would list modes forever
    with pytest.raises(ValueError, match="must be finite"):
        pillbox_spectrum(R, L, 1, lam_max)


def test_pillbox_refuses_a_listing_past_the_mode_cap():
    # R = 1e60 would put every Bessel zero up to 1e60 sqrt(30) below lam_max
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past the listing cap"):
        pillbox_spectrum(1e60, 1.0, 1, 30.0)
    assert time.perf_counter() - start < 1.0
    # outside the size range the range is reported, not the cap estimate
    with pytest.raises(ValueError, match=r"must lie in \[1e-100, 1e\+100\]"):
        pillbox_spectrum(1e300, 1.0, 1, 30.0)


@pytest.mark.parametrize("L", [0.01, 1.0, 30.0])
def test_largest_accepted_listings_end_quickly(L):
    # the radius that puts the estimate (R k / pi + 1)(L k / pi + 1), with
    # k = sqrt(lam_max), just under MODE_CAP: accepted and listed within 2 s
    lam_max = 40.0
    k = math.sqrt(lam_max) / math.pi
    R = (0.999 * MODE_CAP / (L * k + 1) - 1) / k
    start = time.perf_counter()
    modes = pillbox_spectrum(R, L, 1, lam_max)
    assert time.perf_counter() - start < 2.0
    assert len(modes) > 0.5 * MODE_CAP
    with pytest.raises(ValueError, match="past the listing cap"):
        pillbox_spectrum(1.002 * R + 1.0 / k, L, 1, lam_max)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_listed_frequencies_use_the_tabulated_zeros(m):
    # the listing takes all zeros from one scipy call; they are the values
    # of bessel_zero and bessel_prime_zero
    R, L = 1.3, 0.9
    for md in pillbox_spectrum(R, L, m, 3000.0):
        zero = (bessel_zero if md.family == "TM" else bessel_prime_zero)(m, md.nu)
        assert md.omega == math.sqrt((zero / R) ** 2 + (md.pi_idx * math.pi / L) ** 2)


def test_te_requires_axial_index():
    modes = pillbox_spectrum(1.0, 1.0, 0, 60.0)
    assert all(md.pi_idx >= 1 for md in modes if md.family == "TE")


def test_match_exact():
    analytic = [AnalyticMode("TM", 0, 1, 0, 1.0), AnalyticMode("TM", 0, 1, 1, math.sqrt(2.0))]
    rep = match_spectra([1.0, 2.0], analytic, 1e-3)
    assert rep.spurious_count == 0
    assert not rep.missed


def test_match_flags_interloper():
    analytic = [AnalyticMode("TM", 0, 1, 0, 1.0), AnalyticMode("TM", 0, 1, 1, math.sqrt(2.0))]
    rep = match_spectra([1.0, 1.7**0.5 * 1.7**0.5, 2.0], analytic, 0.05)
    # computed {1.0, 1.7, 2.0} against {1.0, 2.0}
    rep = match_spectra([1.0, 1.7, 2.0], analytic, 0.05)
    assert rep.spurious_count == 1
    assert rep.spurious[0] == pytest.approx(math.sqrt(1.7))


def test_match_degenerate_pair():
    analytic = [AnalyticMode("TM", 1, 1, 0, 2.0), AnalyticMode("TE", 1, 1, 1, 2.0)]
    rep = match_spectra([4.0 * 0.999, 4.0 * 1.001], analytic, 0.01)
    assert rep.spurious_count == 0
    assert not rep.missed


def test_match_scale_invariance():
    analytic = [AnalyticMode("TM", 0, 1, 0, 1.0), AnalyticMode("TM", 0, 2, 0, 3.0)]
    rep1 = match_spectra([1.0, 9.1], analytic, 0.01)
    scaled = [AnalyticMode("TM", 0, 1, 0, 10.0), AnalyticMode("TM", 0, 2, 0, 30.0)]
    rep2 = match_spectra([100.0, 910.0], scaled, 0.01)
    assert rep1.spurious_count == rep2.spurious_count
    assert len(rep1.missed) == len(rep2.missed)


def test_band_count_equals_the_greedy_match():
    # Close analytic groups, some degenerate, and tolerances up to the cap,
    # so that neighbouring bands overlap; computed values crowd the bands.
    # A count per band, min(multiplicity, values in the band), differs from
    # the greedy match on 8 of these 40 seeds.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        omegas = 1.0 + np.cumsum(rng.uniform(0.0, 0.1, 8))
        window = [AnalyticMode("TM", 0, g, 0, float(om))
                  for g, om in enumerate(omegas) for _ in range(rng.integers(1, 4))]
        tol = rng.uniform(0.0, MATCH_TOL_CAP)
        n_near = rng.integers(5, 40)
        near = (omegas[rng.integers(0, 8, n_near)] * (1 + rng.uniform(-2, 2, n_near) * tol)) ** 2
        lam_lo, lam_hi = 0.9 * omegas[0] ** 2, rng.uniform(0.95, 1.1) * omegas[-1] ** 2
        vals = np.concatenate([near, rng.uniform(lam_lo, lam_hi, rng.integers(0, 40))])
        vals = np.sort(vals[(vals > lam_lo) & (vals <= lam_hi)])
        counted = count_spurious(lambda s: np.searchsorted(vals, s), lam_lo, lam_hi, window, tol)
        assert counted == match_spectra(vals, window, tol).spurious_count, seed


def test_estimate_match_tol_floor_and_cap():
    analytic = [AnalyticMode("TM", 0, 1, 0, 1.0)]
    assert estimate_match_tol([1.0], analytic) == pytest.approx(1e-6)
    assert estimate_match_tol([25.0], analytic) == pytest.approx(0.05)


def test_export_csv(tmp_path):
    modes = pillbox_spectrum(1.0, 1.0, 1, 40.0)
    path = tmp_path / "modes.csv"
    export_modes_csv(modes, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "family,m,nu,pi_idx,omega_over_c0,multiplicity"
    assert len(lines) == len(modes) + 1
    family, m, nu, pi_idx, omega, mult = lines[1].split(",")
    assert float(omega) == pytest.approx(modes[0].omega, rel=1e-16)
