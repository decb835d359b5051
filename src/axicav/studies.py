"""Study harness: convergence, quadrature sweep, spurious scan, (alpha, beta)
scan, axis-regularity probe, field reconstruction, and CSV emission.

Every study consumes a StudyConfig (parsed from a flat key = value file) and
emits StudyRow records with a fixed 17-column schema, deterministic across
reruns.  The default cavity is the unit pillbox (R = L = 1, c0 = 1): all
reported quantities are relative frequency errors and log-log slopes, which
are dimension independent.

For n = 0 the scalar and vector unknowns decouple exactly, and only the
target's block is assembled: the azimuthal (scalar) block for TE targets,
with the in-plane order p recorded as absent, the in-plane block for TM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analytic import (
    GROUP_RTOL,
    bessel_prime_zero,
    bessel_zero,
    count_spurious,
    estimate_match_tol,
    group_modes,
    match_spectra,
    pillbox_spectrum,
)
from .assembly import assemble
from .eigen import count_window, solve, solve_window
from .fespace import build_pair
from .formulation import (
    ModeProblem,
    Transformation,
    convergent_tc_params,
    inverse_substitute,
    polynomial_threshold_degree,
    validate_tc,
)
from .mesh import build_structured
from .quadrature import rule_for_degree

__all__ = [
    "ConfigError",
    "TargetNotMatchedError",
    "IndeterminateProbeError",
    "AnalyticTarget",
    "StudyConfig",
    "StudyRow",
    "CSV_HEADER",
    "parse_config_file",
    "build_study_config",
    "load_study_config",
    "write_csv",
    "fit_slope",
    "run_convergence",
    "run_quadrature_sweep",
    "run_spurious_scan",
    "run_alphabeta_scan",
    "run_regularity",
    "axis_regularity_probe",
    "reconstruct_field",
]


class ConfigError(ValueError):
    """Malformed or inconsistent study configuration."""


class TargetNotMatchedError(RuntimeError):
    """The target analytic mode could not be identified in the spectrum."""


class IndeterminateProbeError(RuntimeError):
    """The axis probe found no usable field magnitude."""


@dataclass(frozen=True)
class AnalyticTarget:
    family: str
    m: int
    nu: int
    pi_idx: int

    def __post_init__(self):
        if self.family not in ("TM", "TE"):
            raise ConfigError(f"unknown mode family {self.family!r}")
        if self.family == "TE" and self.pi_idx < 1:
            raise ConfigError("TE modes require an axial index >= 1")

    def lam(self, R: float, L: float) -> float:
        zero = bessel_zero if self.family == "TM" else bessel_prime_zero
        return (zero(self.m, self.nu) / R) ** 2 + (self.pi_idx * math.pi / L) ** 2

    @property
    def mode_id(self) -> str:
        return f"{self.family}{self.m}{self.nu}{self.pi_idx}"


@dataclass(frozen=True)
class StudyConfig:
    study: str
    transforms: tuple
    n: int
    q: int | None  # None = auto (p + 1)
    p: int | None  # None = auto (q - 1)
    mesh_ladder: tuple
    quad_degree: int | None  # None = auto (polynomial threshold)
    quad_degrees: tuple
    target: AnalyticTarget | None
    modes: int
    R: float
    L: float
    output: str | None
    expect_slope_min: float | None = None
    expect_slope_max: float | None = None
    expect_spurious_max: int | None = None

    def orders(self) -> tuple:
        if self.q is None and self.p is None:
            raise ConfigError("at least one of q, p must be given")
        q = self.q if self.q is not None else self.p + 1
        p = self.p if self.p is not None else max(self.q - 1, 1)
        return q, p


CSV_HEADER = (
    "study,transform,alpha,beta,n,p,q,D,G,N,free_dofs,mode_id,"
    "omega_numeric,omega_analytic,rel_error,spurious_count,slope"
)

_ROW_FIELDS = CSV_HEADER.split(",")
SLOPE_POINTS = 3  # fit_slope uses the finest meshes only


@dataclass
class StudyRow:
    study: str
    transform: str
    alpha: float | None = None
    beta: float | None = None
    n: int | None = None
    p: int | None = None
    q: int | None = None
    D: int | None = None
    G: int | None = None
    N: int | None = None
    free_dofs: int | None = None
    mode_id: str | None = None
    omega_numeric: float | None = None
    omega_analytic: float | None = None
    rel_error: float | None = None
    spurious_count: int | None = None
    slope: float | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(rows, path) -> None:
    """Fixed 17-column schema; floats carry 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, f)) for f in _ROW_FIELDS) + "\n")


def fit_slope(Ns, errors) -> float:
    """Least-squares slope of log(error) against log(1/N), last SLOPE_POINTS entries."""
    Ns = np.asarray(Ns, dtype=float)[-SLOPE_POINTS:]
    errs = np.asarray(errors, dtype=float)[-SLOPE_POINTS:]
    if len(Ns) < 2:
        raise ValueError(f"slope fitting needs at least 2 points, got {len(Ns)}")
    if np.any(errs <= 0):
        raise ValueError("errors must be positive for slope fitting")
    return float(np.polyfit(np.log(1.0 / Ns), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# config file handling


def parse_config_file(path) -> dict:
    """Flat 'key = value' lines; '#' starts a comment; blank lines ignored."""
    entries = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in entries:
                raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
            entries[key] = value.strip()
    return entries


_KNOWN_KEYS = {f.name for f in fields(StudyConfig)}

_STUDIES = ("converge", "spurious", "quadsweep", "alphabeta", "regularity")


def _parse_ladder(text: str, key: str, lowest: int) -> tuple:
    """Comma list of integers >= lowest, strictly increasing (may be empty)."""
    try:
        ladder = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc
    if ladder and min(ladder) < lowest:
        raise ConfigError(f"{key} entries must be >= {lowest}, got {min(ladder)}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"{key} must be strictly increasing")
    return ladder


def build_study_config(entries: dict) -> StudyConfig:
    unknown = set(entries) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "study" not in entries:
        raise ConfigError("missing required key 'study'")
    study = entries["study"]
    if study not in _STUDIES:
        raise ConfigError(f"study must be one of {_STUDIES}, got {study!r}")
    if "transforms" not in entries:
        raise ConfigError("missing required key 'transforms'")
    try:
        transforms = tuple(
            Transformation.parse(tok) for tok in entries["transforms"].split(";") if tok.strip()
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not transforms:
        raise ConfigError("no transformations given")

    def geti(key, default=None):
        if key not in entries:
            return default
        if entries[key] == "auto":
            return None
        try:
            return int(entries[key])
        except ValueError as exc:
            raise ConfigError(f"bad integer for {key!r}: {entries[key]!r}") from exc

    def getf(key, default=None):
        if key not in entries:
            return default
        try:
            return float(entries[key])
        except ValueError as exc:
            raise ConfigError(f"bad float for {key!r}: {entries[key]!r}") from exc

    if "n" not in entries:
        raise ConfigError("missing required key 'n'")
    n = geti("n")
    if n is None:
        raise ConfigError("n must be an integer azimuthal mode number, got 'auto'")

    target = None
    if "target" in entries:
        toks = [t.strip() for t in entries["target"].split(",")]
        if len(toks) != 4:
            raise ConfigError("target must be 'family,m,nu,pi_idx'")
        try:
            target = AnalyticTarget(toks[0], int(toks[1]), int(toks[2]), int(toks[3]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    mesh_ladder = _parse_ladder(entries.get("mesh_ladder", "4,8,16,32"), "mesh_ladder", 1)
    if not mesh_ladder:
        raise ConfigError("mesh_ladder is empty")
    if study in ("converge", "alphabeta") and len(mesh_ladder) < 2:
        raise ConfigError(
            f"study {study!r} fits a slope and needs at least 2 mesh_ladder entries"
        )
    modes = geti("modes", 8)
    if modes is None or modes < 1:
        raise ConfigError(f"modes must be a positive integer, got {entries['modes']!r}")

    R, L = getf("R", 1.0), getf("L", 1.0)
    if not (math.isfinite(R) and math.isfinite(L)):
        raise ConfigError(f"R and L must be finite, got R={R}, L={L}")

    cfg = StudyConfig(
        study=study,
        transforms=transforms,
        n=n,
        q=geti("q"),
        p=geti("p"),
        mesh_ladder=mesh_ladder,
        quad_degree=geti("quad_degree"),
        quad_degrees=_parse_ladder(entries.get("quad_degrees", ""), "quad_degrees", 0),
        target=target,
        modes=modes,
        R=R,
        L=L,
        output=entries.get("output"),
        expect_slope_min=getf("expect_slope_min"),
        expect_slope_max=getf("expect_slope_max"),
        expect_spurious_max=geti("expect_spurious_max"),
    )
    for tr in cfg.transforms:
        if tr.kind == "TC":
            msg = validate_tc(cfg.n, tr.alpha, tr.beta)
            if msg is not None:
                raise ConfigError(msg)
    if cfg.study in ("converge", "quadsweep", "alphabeta", "regularity") and cfg.target is None:
        raise ConfigError(f"study {cfg.study!r} requires a target mode")
    if cfg.target is not None and cfg.target.m != abs(cfg.n):
        raise ConfigError("target azimuthal index must equal |n|")
    return cfg


def load_study_config(path) -> StudyConfig:
    return build_study_config(parse_config_file(path))


# ---------------------------------------------------------------------------
# solving helpers


def _block_for(cfg: StudyConfig) -> str:
    """At n = 0 a target picks its decoupled block; the spurious scan counts
    both families, so it keeps the full problem."""
    if cfg.n != 0 or cfg.target is None or cfg.study == "spurious":
        return "full"
    return "azimuthal" if cfg.target.family == "TE" else "inplane"


def _threshold(cfg: StudyConfig, tr: Transformation) -> int | None:
    q, p = cfg.orders()
    return polynomial_threshold_degree(tr, cfg.n, q, p, block=_block_for(cfg))


class _Discretizations:
    """The mesh and FeSpacePair of each N-subdivision of the cavity, built on
    first use and shared by every solve of one study call on that mesh, so
    that assembly reuses its pattern.  `uses` is the number of solves per
    mesh: the last one drops the entry, and nothing outlives the call."""

    def __init__(self, cfg: StudyConfig, uses: int):
        self.cfg, self.uses = cfg, uses
        self.built, self.left = {}, {}

    def get(self, N: int):
        if N not in self.built:
            mesh = build_structured(self.cfg.R, self.cfg.L, N)
            self.built[N] = (mesh, build_pair(mesh, *self.cfg.orders()))
            self.left[N] = self.uses
        self.left[N] -= 1
        return self.built[N] if self.left[N] else self.built.pop(N)


def _problem(cfg: StudyConfig, tr: Transformation, mesh, D: int | None = None) -> ModeProblem:
    """The discrete problem of one solve on the given mesh of the cavity; D
    defaults to the configured quad_degree, else the polynomial threshold."""
    if D is None:
        D = cfg.quad_degree if cfg.quad_degree is not None else _threshold(cfg, tr)
    if D is None:
        raise ConfigError(
            f"{tr.label()} with n={cfg.n} has non-polynomial integrands; "
            "an explicit quad_degree is required"
        )
    q, p = cfg.orders()
    return ModeProblem(mesh=mesh, n=cfg.n, transformation=tr, q=q, p=p, quad_degree=D,
                       block=_block_for(cfg))


def _row(cfg: StudyConfig, problem: ModeProblem, pencil, **values) -> StudyRow:
    """One study row of a solved problem; the in-plane order p is reported as
    absent when the pencil holds scalar unknowns only (the standalone n = 0
    scalar block)."""
    tr, D = problem.transformation, problem.quad_degree
    return StudyRow(
        study=cfg.study, transform=tr.kind, alpha=tr.alpha, beta=tr.beta, n=problem.n,
        p=problem.p if pencil.n_free_h1 < pencil.n_free else None, q=problem.q, D=D,
        G=rule_for_degree(D).point_count, N=problem.mesh.N, free_dofs=pencil.n_free, **values,
    )


def _listing(R: float, L: float, n: int, lam_max: float, families=("TM", "TE")) -> list:
    """pillbox_spectrum, where a cavity too large for the listing cap
    (analytic.MODE_CAP) is a ConfigError."""
    try:
        return pillbox_spectrum(R, L, n, lam_max, families)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _target_interval(cfg: StudyConfig) -> tuple:
    """(lo, hi, a) around the target among the analytic modes of the solved
    block: lo the midpoint of the analytic gap that holds lambda_t / 2
    (lambda_t / 2 itself when no mode lies below it), hi the midpoint
    between the target's group and the next one, a the number of analytic
    modes in (lo, hi) with multiplicity.  Midpoints are taken in lambda."""
    families = {"full": ("TM", "TE"), "azimuthal": ("TE",), "inplane": ("TM",)}[_block_for(cfg)]
    lam_t = cfg.target.lam(cfg.R, cfg.L)
    lam_max = 2.0 * lam_t
    while True:
        modes = _listing(cfg.R, cfg.L, cfg.n, lam_max, families)
        above = [md.lam for md in modes if md.omega > math.sqrt(lam_t) * (1 + GROUP_RTOL)]
        if above:
            break
        lam_max *= 2
    lams = [md.lam for md in modes]
    under = [lam for lam in lams if lam <= 0.5 * lam_t]
    lo = 0.5 * (under[-1] + lams[len(under)]) if under else 0.5 * lam_t
    hi = 0.5 * (lam_t + above[0])
    return lo, hi, sum(lo < lam < hi for lam in lams)


def _target_solve(cfg: StudyConfig, problem: ModeProblem, pair, interval: tuple):
    """Solve for the target mode on the pair; returns the target's study
    row, and the spectrum, the target's index in it and the pencil.

    One solve takes the a + 1 lowest non-kernel pairs above lo, for the
    interval = (lo, hi, a) that holds a analytic modes around the target
    (_target_interval, listed once per study call before any mesh).  More
    than a of them below hi means spurious eigenvalues crowd the target: a
    TargetNotMatchedError on every mesh.
    Otherwise the target is the eigenvalue nearest lambda_t, accepted
    within 25% in omega.
    """
    lam_t = cfg.target.lam(cfg.R, cfg.L)
    lo, hi, a = interval
    pencil = assemble(problem, pair)
    spec = solve(pencil, k=a + 1, hint=2.0 * lo)
    where = (f"{problem.transformation.label()} N={problem.mesh.N}: target "
             f"{cfg.target.mode_id}")
    if not len(spec.eigenvalues):
        raise TargetNotMatchedError(
            f"{where}: no eigenvalue above the floor of the interval ({lo:.6g}, {hi:.6g}) "
            f"in lambda; the pencil has {pencil.n_free} free dofs"
        )
    found = int(np.count_nonzero(spec.eigenvalues < hi))
    if found > a:
        raise TargetNotMatchedError(
            f"{where}: the interval ({lo:.6g}, {hi:.6g}) in lambda holds at least {found} "
            f"eigenvalues where the pillbox has a = {a}; spurious eigenvalues crowd the target"
        )
    idx = int(np.argmin(np.abs(spec.eigenvalues - lam_t)))
    omega = math.sqrt(spec.eigenvalues[idx])
    omega_t = math.sqrt(lam_t)
    if abs(omega - omega_t) > 0.25 * omega_t:
        raise TargetNotMatchedError(
            f"{where} at omega={omega_t:.6g} not matched; nearest computed "
            f"omega={omega:.6g}, window={np.sqrt(spec.eigenvalues).round(4).tolist()}"
        )
    row = _row(cfg, problem, pencil, mode_id=cfg.target.mode_id, omega_numeric=omega,
               omega_analytic=omega_t, rel_error=abs(omega - omega_t) / omega_t)
    return row, spec, idx, pencil


# ---------------------------------------------------------------------------
# studies


def run_convergence(cfg: StudyConfig):
    """Relative eigenfrequency error per mesh plus a fitted slope per transform."""
    rows, slopes = [], {}
    interval = _target_interval(cfg)
    meshes = _Discretizations(cfg, len(cfg.transforms))
    for tr in cfg.transforms:
        errs = []
        for N in cfg.mesh_ladder:
            mesh, pair = meshes.get(N)
            rows.append(_target_solve(cfg, _problem(cfg, tr, mesh), pair, interval)[0])
            errs.append(rows[-1].rel_error)
        slope = fit_slope(cfg.mesh_ladder, errs)
        rows[-1].slope = slope
        slopes[tr.label()] = slope
    return rows, slopes


def run_quadrature_sweep(cfg: StudyConfig):
    """Error per quadrature degree at fixed mesh; flags degree-stable transforms."""
    if not cfg.quad_degrees:
        raise ConfigError("quadsweep requires quad_degrees")
    N = cfg.mesh_ladder[-1]
    rows, stable, omegas = [], {}, {}
    interval = _target_interval(cfg)
    meshes = _Discretizations(cfg, len(cfg.transforms) * len(cfg.quad_degrees))
    for tr in cfg.transforms:
        seq = []
        for D in cfg.quad_degrees:
            mesh, pair = meshes.get(N)
            rows.append(_target_solve(cfg, _problem(cfg, tr, mesh, D), pair, interval)[0])
            seq.append((D, rows[-1].omega_numeric))
        threshold = _threshold(cfg, tr)
        flag = False
        if threshold is not None:
            shifts = [
                abs(o2 - o1) / o1
                for (d1, o1), (d2, o2) in zip(seq, seq[1:])
                if d1 >= threshold
            ]
            flag = bool(shifts) and max(shifts) < 1e-12
        stable[tr.label()] = flag
        omegas[tr.label()] = seq
    return rows, stable, omegas


def _first_modes(R: float, L: float, n: int, count: int):
    """At least `count` lowest analytic modes of the n-th block."""
    lam_max = (math.pi / min(R, L)) ** 2 * 4
    modes = _listing(R, L, n, lam_max)
    while len(modes) < count:
        lam_max *= 2
        modes = _listing(R, L, n, lam_max)
    return modes


def run_spurious_scan(cfg: StudyConfig):
    """Spurious-mode counts against the first `modes` analytic frequencies.

    Each window ends midway between analytic modes `modes` and `modes` + 1.
    A window that holds no more eigenvalues than analytic modes is solved
    and matched; a flooded one (TD at |n| > 1, q = p) is counted by inertia
    with the same result, and none of its eigenpairs but the few nearest
    the analytic frequencies is computed.
    """
    rows, counts = [], {}
    modes_all = _first_modes(cfg.R, cfg.L, cfg.n, cfg.modes + 1)
    window = modes_all[: cfg.modes]
    lam_cut = 0.5 * (modes_all[cfg.modes - 1].lam + modes_all[cfg.modes].lam)
    meshes = _Discretizations(cfg, len(cfg.transforms))
    for tr in cfg.transforms:
        for N in cfg.mesh_ladder:
            mesh, pair = meshes.get(N)
            problem = _problem(cfg, tr, mesh)
            pencil = assemble(problem, pair)
            count = counts[(tr.label(), N)] = _spurious_count(pencil, window, lam_cut)
            rows.append(_row(cfg, problem, pencil, spurious_count=count))
    return rows, counts


def _spurious_count(pencil, window, lam_cut: float) -> int:
    """Spurious eigenvalues of the pencil in the window up to lam_cut.

    In a flooded window the eigenvalues nearest each analytic frequency hold
    each mode's nearest one, so they give estimate_match_tol's tolerance
    exactly; count_spurious then matches inertia counts.
    """
    win = count_window(pencil, lam_cut)
    if win.count <= len(window):
        spec = solve_window(pencil, lam_cut)
        tol = estimate_match_tol(spec.eigenvalues, window)
        return match_spectra(spec.eigenvalues, window, tol).spurious_count
    near = np.concatenate([win.nearest(omega**2) for omega, _ in group_modes(window)])
    tol = estimate_match_tol(near, window)
    return count_spurious(win.below, win.tau, lam_cut, window, tol)


def run_alphabeta_scan(cfg: StudyConfig):
    """Convergence rate per admissible TC(alpha, beta) pair.

    A pair is classified full-rate when its slope reaches the eigenvalue
    rate of the discretization minus 0.4: rate 2q for the standalone n = 0
    scalar block, rate 2p for coupled problems.  The classification is
    cross-checked against the table of known full-rate pairs; disagreements
    are reported alongside the result.
    """
    q, p = cfg.orders()
    for tr in cfg.transforms:
        if tr.kind != "TC":
            raise ConfigError("alphabeta scan accepts only TC transformations")
    rows, by_label = run_convergence(cfg)
    slopes = {(tr.alpha, tr.beta): by_label[tr.label()] for tr in cfg.transforms}
    scalar_block = _block_for(cfg) == "azimuthal"
    rate = 2 * q if scalar_block else 2 * p
    table = convergent_tc_params(cfg.n)
    expected = {(a, b): (None if cfg.n == 0 else a, b) in table for a, b in slopes}
    classification = {key: s >= rate - 0.4 for key, s in slopes.items()}
    return rows, slopes, classification, expected


def run_regularity(cfg: StudyConfig):
    """Fitted |U| ~ r^s exponent near the axis for each TC transformation.

    The exponent is written to the slope column of the emitted rows.
    """
    if cfg.n == 0:
        raise ConfigError("the regularity probe needs a coupled mode (n != 0)")
    rows, exponents = [], {}
    interval = _target_interval(cfg)
    meshes = _Discretizations(cfg, len(cfg.transforms))
    for tr in cfg.transforms:
        mesh, pair = meshes.get(cfg.mesh_ladder[-1])
        row, spec, idx, pencil = _target_solve(cfg, _problem(cfg, tr, mesh), pair, interval)
        vec = pencil.expand(spec.eigenvectors[:, idx])
        row.slope = axis_regularity_probe(mesh, pair, vec)
        exponents[tr.label()] = row.slope
        rows.append(row)
    return rows, exponents


def axis_regularity_probe(mesh, pair, vec_full) -> float:
    """Log-log slope of |U| against r over samples r in {h/8, h/4, h/2, h}.

    Samples sit at a fixed z inside the first element column; h is the
    radial cell width.  The discrete field is piecewise polynomial, so the
    probe reflects the continuous trend only on fine meshes (N >= 16).
    """
    h = mesh.R / mesh.N
    nz = mesh.n_z
    z_s = (nz // 2 + 0.4) * (mesh.L / nz)
    rs = np.array([h / 8, h / 4, h / 2, h])
    pts = np.column_stack([rs, np.full(rs.shape, z_s)])
    U = pair.hcurl.evaluate(vec_full[pair.n_h1:], pts)
    mag = np.linalg.norm(U, axis=1)
    if np.all(mag < 1e-12):
        raise IndeterminateProbeError("field magnitude below 1e-12 at all samples")
    return float(np.polyfit(np.log(rs), np.log(mag), 1)[0])


def reconstruct_field(pair, transformation, n, vec_full, r, phi, z) -> np.ndarray:
    """Physical 3D field (e_r, e_phi, e_z) at a point (r > 0, phi, z).

    Inverse-substitutes the discrete pair at (r, z), then applies the
    azimuthal expansion: (cos, sin, cos) factors of n*phi for n >= 1, the
    complementary (sin, cos, sin) set for n <= -1, no phi dependence at n = 0.
    Raises ValueError for r <= 0 or a point outside the cross section.
    """
    u_c = vec_full[: pair.n_h1]
    U_c = vec_full[pair.n_h1:]
    pts = np.array([[r, z]])
    uv, ug = pair.h1.evaluate(u_c, pts, nderiv=1)
    Uv = pair.hcurl.evaluate(U_c, pts)
    e_phi, e_rz = inverse_substitute(transformation, n, np.array([r]), uv, ug, Uv)
    e_phi, e_r, e_z = float(e_phi[0]), float(e_rz[0, 0]), float(e_rz[0, 1])
    if n == 0:
        return np.array([e_r, e_phi, e_z])
    m = abs(n) * phi
    if n > 0:
        return np.array([e_r * math.cos(m), e_phi * math.sin(m), e_z * math.cos(m)])
    return np.array([e_r * math.sin(m), e_phi * math.cos(m), e_z * math.sin(m)])
