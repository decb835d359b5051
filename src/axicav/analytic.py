"""Closed-form pillbox cavity spectrum and spectrum matching.

A pillbox cavity of radius R and length L has the well-known mode families

  TM(m, nu, pi):  omega/c0 = sqrt((j_{m,nu}/R)^2  + (pi_idx*pi/L)^2),  pi_idx >= 0
  TE(m, nu, pi):  omega/c0 = sqrt((j'_{m,nu}/R)^2 + (pi_idx*pi/L)^2),  pi_idx >= 1

with j_{m,nu} (j'_{m,nu}) the nu-th positive zero of the Bessel function
J_m (of its derivative).  Bessel values and zeros come from scipy.special
(jv, jn_zeros, jnp_zeros), for every order m >= 0 and index nu >= 1.

For the n-th azimuthal block of the eigensolver the relevant analytic
modes are those with m = |n|; TE modes of the n = 0 block live in the
azimuthal (scalar) sub-problem and TM modes in the in-plane one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AnalyticMode",
    "MatchReport",
    "bessel_j",
    "bessel_zero",
    "bessel_prime_zero",
    "pillbox_spectrum",
    "group_modes",
    "match_spectra",
    "count_spurious",
    "estimate_match_tol",
    "export_modes_csv",
]

GROUP_RTOL = 1e-9  # relative frequency spread of one degenerate group
# estimate_match_tol: MATCH_TOL_FACTOR times the observed error, within [FLOOR, CAP]
MATCH_TOL_FACTOR = 10.0
MATCH_TOL_FLOOR = 1e-6
MATCH_TOL_CAP = 0.05
# pillbox_spectrum refuses a listing whose mode count per family, estimated
# as (R sqrt(lam_max) / pi + 1)(L sqrt(lam_max) / pi + 1), exceeds MODE_CAP;
# the largest accepted listings take about 0.15 s on one core of a 2-core x86 host
MODE_CAP = 20_000

# scipy.special is imported on first use: it would add about 75 ms, some
# 12%, to `import axicav`, and setting a study up does not need it.


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x), any order and argument."""
    from scipy.special import jv
    return jv(m, x)


@lru_cache(maxsize=None)
def bessel_zero(m: int, nu: int) -> float:
    """nu-th positive zero j_{m,nu} of J_m; ValueError for m < 0 or nu < 1."""
    from scipy.special import jn_zeros
    if m < 0:  # jn_zeros itself rejects nu < 1 but reads m as |m|
        raise ValueError(f"Bessel zero order must be >= 0: m={m}")
    return float(jn_zeros(m, nu)[-1])


@lru_cache(maxsize=None)
def bessel_prime_zero(m: int, nu: int) -> float:
    """nu-th positive zero j'_{m,nu} of J_m' (the zero at x = 0 is not counted)."""
    from scipy.special import jnp_zeros
    if m < 0:
        raise ValueError(f"Bessel zero order must be >= 0: m={m}")
    return float(jnp_zeros(m, nu)[-1])


@dataclass(frozen=True)
class AnalyticMode:
    family: str  # "TM" or "TE"
    m: int
    nu: int
    pi_idx: int
    omega: float  # omega / c0

    @property
    def lam(self) -> float:
        return self.omega**2

    @property
    def mode_id(self) -> str:
        return f"{self.family}{self.m}{self.nu}{self.pi_idx}"


def _zeros(family: str, m: int, x_max: float) -> np.ndarray:
    """The first zeros of J_m (TM) or of J_m' (TE), the last one past x_max,
    from one scipy call: the values of bessel_zero and bessel_prime_zero."""
    from scipy.special import jn_zeros, jnp_zeros
    zeros_fn = jn_zeros if family == "TM" else jnp_zeros
    count = int(x_max / math.pi) + 2  # the nu-th zero lies above (nu - 1) pi
    while True:
        zeros = zeros_fn(m, count)
        if zeros[-1] > x_max:
            return zeros
        count *= 2


def pillbox_spectrum(R: float, L: float, n: int, lam_max: float,
                     families=("TM", "TE")) -> list:
    """All modes with azimuthal index |n| and omega^2 <= lam_max, sorted.

    Raises ValueError past MODE_CAP estimated modes per family."""
    if not all(math.isfinite(x) for x in (R, L, lam_max)):
        raise ValueError(f"R, L and lam_max must be finite, got {R}, {L}, {lam_max}")
    if R <= 0 or L <= 0:
        raise ValueError("R and L must be positive")
    k_max = math.sqrt(max(lam_max, 0.0))
    estimate = (R * k_max / math.pi + 1) * (L * k_max / math.pi + 1)
    if estimate > MODE_CAP:
        raise ValueError(
            f"R={R:g}, L={L:g} and lam_max={lam_max:g} give about {estimate:.3g} modes "
            f"per family, past the listing cap of {MODE_CAP}")
    m = abs(int(n))
    modes = []
    for family in families:
        pi_min = 0 if family == "TM" else 1
        for nu, zero in enumerate(_zeros(family, m, R * k_max), 1):
            base = (zero / R) ** 2
            if base > lam_max:
                break
            pi_idx = pi_min
            while True:
                lam = base + (pi_idx * math.pi / L) ** 2
                if lam > lam_max:
                    break
                modes.append(AnalyticMode(family, m, nu, pi_idx, math.sqrt(lam)))
                pi_idx += 1
    modes.sort(key=lambda md: (md.omega, md.family, md.nu, md.pi_idx))
    return modes


def group_modes(modes):
    """Group modes whose frequencies agree to GROUP_RTOL; returns (omega, [modes])."""
    groups = []
    for md in modes:
        if groups and abs(md.omega - groups[-1][0]) <= GROUP_RTOL * groups[-1][0]:
            groups[-1][1].append(md)
        else:
            groups.append((md.omega, [md]))
    return groups


@dataclass
class MatchReport:
    pairs: list  # (computed omega, AnalyticMode)
    spurious: list  # computed omegas with no analytic partner
    missed: list  # analytic modes with no computed partner

    @property
    def spurious_count(self) -> int:
        return len(self.spurious)


def match_spectra(computed_lams, analytic_modes, rel_tol: float) -> MatchReport:
    """Greedy in-order matching of sorted spectra on omega = sqrt(lambda).

    Analytic modes with (numerically) equal frequencies form one group whose
    capacity is its multiplicity.  Computed values that fit no group within
    rel_tol are spurious; undersubscribed groups are missed.
    """
    computed = np.sqrt(np.sort(np.asarray(computed_lams, dtype=float)))
    groups = group_modes(sorted(analytic_modes, key=lambda md: md.omega))
    capacity = [len(g[1]) for g in groups]
    taken = [0] * len(groups)
    pairs, spurious = [], []
    gi = 0
    for om in computed:
        while gi < len(groups) and (
            taken[gi] >= capacity[gi] or groups[gi][0] * (1 + rel_tol) < om
        ):
            gi += 1
        if gi < len(groups) and abs(om - groups[gi][0]) <= rel_tol * groups[gi][0]:
            pairs.append((om, groups[gi][1][taken[gi]]))
            taken[gi] += 1
        else:
            spurious.append(float(om))
    missed = []
    for g, (omega, mds) in enumerate(groups):
        missed.extend(mds[taken[g]:])
    return MatchReport(pairs=pairs, spurious=spurious, missed=missed)


def count_spurious(count_below, lam_lo: float, lam_hi: float, analytic_modes,
                   rel_tol: float) -> int:
    """match_spectra's spurious count of a spectrum known only by counts.

    The computed eigenvalues all lie in (lam_lo, lam_hi], and count_below(s)
    is the number of them below s, for lam_lo < s <= lam_hi.  The greedy
    match sees a computed omega only through the tolerance bands
    omega_g (1 -+ rel_tol) that hold it and through its order, so the band
    edges inside the window cut it into intervals whose values all match
    alike, overlapping bands included.  Each interval is counted, and its
    midpoint in omega stands in for every value it holds.
    """
    groups = group_modes(sorted(analytic_modes, key=lambda md: md.omega))
    edges = sorted({om * (1 + s * rel_tol) for om, _ in groups for s in (-1, 1)})
    edges = [w for w in edges if lam_lo < w * w < lam_hi]
    bounds = np.array([math.sqrt(lam_lo), *edges, math.sqrt(lam_hi)])
    below = np.array([0, *(count_below(w * w) for w in edges), count_below(lam_hi)])
    counts = np.diff(below)
    if np.any(counts < 0):
        raise ValueError(f"count_below is not monotone: {below.tolist()} at {bounds.tolist()}")
    reps = 0.5 * (bounds[:-1] + bounds[1:])
    return match_spectra(np.repeat(reps, counts) ** 2, analytic_modes, rel_tol).spurious_count


def estimate_match_tol(computed_lams, analytic_modes) -> float:
    """Mesh-dependent matching tolerance.

    The error estimate is the largest nearest-neighbor relative frequency
    distance from an analytic mode to the computed spectrum, capped so a
    genuinely missing mode cannot balloon the tolerance; the tolerance is
    MATCH_TOL_FACTOR times that estimate, at least MATCH_TOL_FLOOR, and
    MATCH_TOL_CAP for an empty computed spectrum.
    """
    computed = np.sqrt(np.asarray(computed_lams, dtype=float))
    if computed.size == 0:
        return MATCH_TOL_CAP
    est = 0.0
    for md in analytic_modes:
        est = max(est, np.min(np.abs(computed - md.omega)) / md.omega)
    return float(max(MATCH_TOL_FLOOR,
                     MATCH_TOL_FACTOR * min(est, MATCH_TOL_CAP / MATCH_TOL_FACTOR)))


def export_modes_csv(modes, path) -> None:
    """CSV table: family, m, nu, pi_idx, omega_over_c0, multiplicity."""
    groups = group_modes(modes)
    with open(path, "w") as fh:
        fh.write("family,m,nu,pi_idx,omega_over_c0,multiplicity\n")
        for omega, mds in groups:
            mult = len(mds)
            for md in mds:
                fh.write(
                    f"{md.family},{md.m},{md.nu},{md.pi_idx},{md.omega:.17g},{mult}\n"
                )
