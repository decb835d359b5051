"""Benchmark workloads: seeded cavities, the three studies and their gates.

Each workload is one library study (``axicav.studies.run_*``) on a pillbox
cavity drawn from the workload seed.  The study only ever sees the generated
``R`` and ``L`` entries.  A physics gate checks every study result; a gate
violation counts as a failed operation, like a raised error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from axicav import studies
from axicav.formulation import polynomial_threshold_degree
from axicav.quadrature import rule_for_degree

RESIDUAL_MAX = 1e-8


def cavity(seed: int, index: int = 0) -> dict:
    """Config entries of cavity `index` of the seed's sequence.

    R = s, L = s * (1 + delta) with s in [0.5, 2] and |delta| <= 0.01.
    |delta| <= 0.01 keeps the axial subdivision n_z = N for every N <= 32, so
    the work of a study call does not depend on the cavity.
    """
    rng = random.Random(f"{seed}:{index}")
    s = rng.uniform(0.5, 2.0)
    delta = rng.uniform(-0.01, 0.01)
    return {"R": repr(s), "L": repr(s * (1.0 + delta))}


# ---------------------------------------------------------------------------
# physics gates: each takes a study result and returns its violations


def spurious_counts(clean: tuple, flooded: tuple) -> Callable:
    """`clean` transforms show no spurious mode at any N, `flooded` ones some at every N."""
    def check(result):
        _, counts = result
        bad = []
        for label in clean + flooded:
            if not any(tr == label for tr, _ in counts):
                bad.append(f"{label}: no spurious count reported")
        for (label, N), count in counts.items():
            if label in clean and count != 0:
                bad.append(f"{label} N={N}: {count} spurious modes, expected 0")
            if label in flooded and count == 0:
                bad.append(f"{label} N={N}: no spurious modes, expected some")
        return bad
    return check


def slopes_within(lo: float, hi: float) -> Callable:
    """Every fitted convergence slope lies in [lo, hi]."""
    def check(result):
        _, slopes = result
        return [f"{label}: slope {s:.4f} outside [{lo}, {hi}]"
                for label, s in slopes.items() if not lo <= s <= hi]
    return check


def degree_stability(stable: tuple, unstable: tuple) -> Callable:
    """`stable` transforms are flagged quadrature-degree stable, `unstable` ones not."""
    def check(result):
        _, flags, _ = result
        bad = [f"{label}: expected degree-stable" for label in stable
               if flags.get(label) is not True]
        bad += [f"{label}: expected degree-sensitive" for label in unstable
                if flags.get(label) is not False]
        return bad
    return check


def residual_violations(spectra) -> list:
    """Every eigenpair residual of every solve is at most RESIDUAL_MAX."""
    if not spectra:
        return ["no spectrum was computed"]
    worst = max(float(sp.residuals.max()) if sp.residuals.size else 0.0
                for sp in spectra)
    return [] if worst <= RESIDUAL_MAX else [f"eigenpair residual {worst:.3e}"]


# ---------------------------------------------------------------------------
# workloads


_RUNNERS = {
    "spurious": studies.run_spurious_scan,
    "converge": studies.run_convergence,
    "quadsweep": studies.run_quadrature_sweep,
}


@dataclass(frozen=True)
class Workload:
    name: str
    entries: dict  # study config entries, all but R and L
    check: Callable  # study result -> list of gate violations

    def config(self, seed: int, index: int = 0):
        return studies.build_study_config({**self.entries, **cavity(seed, index)})

    def run(self, cfg):
        return _RUNNERS[cfg.study](cfg)

    def degrees(self, cfg) -> tuple:
        """Quadrature degrees the study will request."""
        if cfg.quad_degrees:
            return cfg.quad_degrees
        if cfg.quad_degree is not None:
            return (cfg.quad_degree,)
        q, p = cfg.orders()
        return tuple(polynomial_threshold_degree(tr, cfg.n, q, p) for tr in cfg.transforms)


_ORDERS = {"q": "3", "p": "2"}

# Each workload spends most of its time in a different layer (see NOTES.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum_dense",
            {"study": "spurious", "transforms": "TB;TD", "n": "2", **_ORDERS,
             "quad_degree": "12", "mesh_ladder": "4,8,12", "modes": "8"},
            spurious_counts(clean=("TB",), flooded=("TD",)),
        ),
        Workload(
            "converge_sparse",
            # TB is left out: its N=32 solve fails on about half the cavities
            # (see "Known defects" in NOTES.md).
            {"study": "converge", "transforms": "TC(1,1)", "n": "1", **_ORDERS,
             "target": "TE,1,1,1", "mesh_ladder": "4,8,16,32"},
            slopes_within(3.6, 4.6),
        ),
        Workload(
            "quadsweep_axis",
            {"study": "quadsweep", "transforms": "TA;TC(1,2)", "n": "0", **_ORDERS,
             "target": "TE,0,1,1", "mesh_ladder": "32", "quad_degrees": "9,15,21"},
            degree_stability(stable=("TC(1,2)",), unstable=("TA",)),
        ),
    )
}


def warm_up(degrees) -> None:
    """First-call set-up: BLAS initialisation and the quadrature rules."""
    a = np.diag(np.arange(1.0, 33.0))
    eigh(a, np.eye(32))
    for d in degrees:
        rule_for_degree(int(d))


def rel_errors(result, matches) -> list:
    """Relative eigenfrequency errors against the closed-form pillbox values.

    Matched pairs count only from spectra without spurious modes: where the
    spectrum is flooded, the partner of an analytic mode may well be a
    spurious eigenvalue, and its distance says nothing about accuracy.
    """
    errs = [row.rel_error for row in result[0] if row.rel_error is not None]
    for report in matches:
        if report.spurious_count == 0:
            errs += [abs(om - md.omega) / md.omega for om, md in report.pairs]
    return [float(e) for e in errs]
