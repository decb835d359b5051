import itertools
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from axicav import studies
from axicav.formulation import Transformation
from axicav.studies import (
    AnalyticTarget,
    ConfigError,
    StudyConfig,
    StudyRow,
    TargetNotMatchedError,
    build_study_config,
    fit_slope,
    load_study_config,
    parse_config_file,
    reconstruct_field,
    run_convergence,
    run_spurious_scan,
    write_csv,
)

CSV_HEADER = (
    "study,transform,alpha,beta,n,p,q,D,G,N,free_dofs,mode_id,"
    "omega_numeric,omega_analytic,rel_error,spurious_count,slope"
)


def _cfg(**kw):
    base = dict(
        study="converge",
        transforms=(Transformation("TB"),),
        n=1,
        q=2,
        p=1,
        mesh_ladder=(2, 4),
        quad_degree=None,
        quad_degrees=(),
        target=AnalyticTarget("TE", 1, 1, 1),
        modes=8,
        R=1.0,
        L=1.0,
        output=None,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_fit_slope_exact_power():
    Ns = [2, 4, 8, 16]
    errs = [(1.0 / N) ** 3.5 for N in Ns]
    assert fit_slope(Ns, errs) == pytest.approx(3.5, abs=1e-10)


def test_fit_slope_two_points_quartic():
    assert fit_slope([4, 8], [1e-2, 6.25e-4]) == pytest.approx(4.0, abs=1e-12)


def test_write_csv_header_and_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv([], path)
    assert path.read_text().splitlines() == [CSV_HEADER]

    row = StudyRow(
        study="converge", transform="TC", alpha=1.0, beta=2.0, n=0, p=None, q=4,
        D=11, G=49, N=8, free_dofs=992, mode_id="TE022",
        omega_numeric=9.417901788, omega_analytic=9.417901779, rel_error=1.0e-9,
        spurious_count=None, slope=None,
    )
    write_csv([row], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 17
    assert float(fields[12]) == row.omega_numeric  # 17 significant digits round-trip
    assert fields[5] == ""  # p absent for azimuthal-block rows


def test_parse_config_file(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(
        "# comment\nstudy = converge\ntransforms = TB;TC(1,1)\nn = 1\n"
        "q = 3\np = auto\nmesh_ladder = 2,4\ntarget = TE,1,1,1\noutput = out.csv\n"
    )
    cfg = load_study_config(path)
    assert cfg.study == "converge"
    assert len(cfg.transforms) == 2
    assert cfg.transforms[1] == Transformation("TC", 1.0, 1.0)
    assert cfg.p is None
    assert cfg.orders() == (3, 2)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("study = converge\ntransforms = TB\nn = 1\nwhat = 3\n")
    with pytest.raises(ConfigError):
        load_study_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("study = spurious\nstudy = spurious\ntransforms = TB\nn = 1\n")
    with pytest.raises(ConfigError):
        load_study_config(path)


def test_invalid_tc_rejected_at_config_time():
    with pytest.raises(ConfigError):
        build_study_config(
            {
                "study": "converge",
                "transforms": "TC(0.2,1)",
                "n": "1",
                "q": "2",
                "target": "TE,1,1,1",
            }
        )


def test_target_mode_family_mismatch():
    with pytest.raises(ConfigError):
        build_study_config(
            {
                "study": "converge",
                "transforms": "TB",
                "n": "1",
                "q": "2",
                "target": "TE,0,2,2",
            }
        )


def test_mesh_ladder_must_increase():
    with pytest.raises(ConfigError):
        build_study_config(
            {
                "study": "spurious",
                "transforms": "TB",
                "n": "1",
                "q": "2",
                "mesh_ladder": "4,4",
            }
        )


def _entries(study, **kw):
    base = {"study": study, "transforms": "TC(1,1)", "n": "1", "q": "2",
            "target": "TE,1,1,1"}
    base.update(kw)
    return base


@pytest.mark.parametrize(
    "study,extra",
    [
        ("spurious", {"mesh_ladder": ""}),
        ("spurious", {"mesh_ladder": "0,4"}),
        ("spurious", {"modes": "0"}),
        ("spurious", {"modes": "-2"}),
        ("converge", {"mesh_ladder": "4"}),
        ("alphabeta", {"mesh_ladder": "4"}),
    ],
)
def test_meaningless_configs_rejected(study, extra):
    with pytest.raises(ConfigError):
        build_study_config(_entries(study, **extra))


@pytest.mark.parametrize("study", ["quadsweep", "regularity"])
def test_single_mesh_ladder_valid_without_slope_fit(study):
    cfg = build_study_config(_entries(study, mesh_ladder="32", quad_degrees="9,15"))
    assert cfg.mesh_ladder == (32,)


@pytest.mark.parametrize("ladder", ["9,15,5", "5,9,9", "-1,5,9"])
def test_quad_degrees_must_increase_from_zero(ladder):
    # The stability flag compares neighbouring degrees, so their order matters.
    with pytest.raises(ConfigError, match="quad_degrees"):
        build_study_config(_entries("quadsweep", mesh_ladder="6", quad_degrees=ladder))


def test_fit_slope_needs_two_points():
    with pytest.raises(ValueError):
        fit_slope([32], [1e-3])
    with pytest.raises(ValueError):
        fit_slope([], [])


def test_run_convergence_rows_and_slope():
    cfg = _cfg()
    rows, slopes = run_convergence(cfg)
    assert len(rows) == 2
    assert rows[0].slope is None and rows[1].slope is not None
    assert rows[0].rel_error > rows[1].rel_error
    assert slopes["TB"] == pytest.approx(rows[1].slope)
    assert rows[0].mode_id == "TE111"
    # normalized frequencies positive and matching the analytic target scale
    assert 3.0 < rows[0].omega_numeric < 4.5


def test_run_convergence_deterministic(tmp_path):
    cfg = _cfg()
    rows1, _ = run_convergence(cfg)
    rows2, _ = run_convergence(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows1, p1)
    write_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_high_target_reached_by_the_pairs_above_the_floor():
    # TE141 sits far up the n = 1 spectrum; the k lowest eigenvalues overall
    # do not reach it, the pairs above the interval floor do (a shift-invert
    # solve at 360 and 1488 free dofs).
    cfg = _cfg(q=3, p=2, mesh_ladder=(4, 8), target=AnalyticTarget("TE", 1, 4, 1))
    rows, _ = run_convergence(cfg)
    assert rows[-1].rel_error < 1e-3
    assert rows[-1].rel_error < rows[0].rel_error


def _target_solve(cfg, N):
    """The study's target solve of the first transform on the N-subdivision."""
    mesh, pair = studies._Discretizations(cfg, 1).get(N)
    return studies._target_solve(cfg, studies._problem(cfg, cfg.transforms[0], mesh), pair,
                                 studies._target_interval(cfg))


@pytest.mark.parametrize("kind", ["TB", "TD", "TC(1,1)"])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_flooded_target_interval_raises_on_every_mesh(kind, N):
    # With q = p = 2 at n = 1 spurious eigenvalues crowd TE111: the interval
    # around it holds more eigenvalues than analytic modes on every mesh.
    cfg = _cfg(transforms=(Transformation.parse(kind),), q=2, p=2)
    lo, hi, a = studies._target_interval(cfg)
    assert a == 1
    with pytest.raises(TargetNotMatchedError) as info:
        _target_solve(cfg, N)
    msg = str(info.value)
    assert f"{kind} N={N}" in msg and "TE111" in msg
    assert f"interval ({lo:.6g}, {hi:.6g})" in msg
    assert "at least 2 eigenvalues" in msg and "a = 1" in msg


@pytest.mark.parametrize("N", [4, 8, 16])
def test_target_solve_factors_once_and_asks_for_two_pairs(N, monkeypatch):
    # The benchmark's convergence config: TE111 is alone in its interval, so
    # one factorization at the floor and one Lanczos call for a + 1 = 2 pairs.
    import axicav.eigen as eigen_mod

    calls = []
    for name in ("_factorize", "_eigsh_guarded"):
        def counted(*args, _name=name, _original=getattr(eigen_mod, name), **kwargs):
            calls.append((_name, args[2] if _name == "_eigsh_guarded" else None))
            return _original(*args, **kwargs)
        monkeypatch.setattr(eigen_mod, name, counted)
    cfg = _cfg(transforms=(Transformation.parse("TC(1,1)"),), q=3, p=2)
    row = _target_solve(cfg, N)[0]
    assert row.rel_error < 1e-4
    assert calls == [("_factorize", None), ("_eigsh_guarded", 2)]


def test_cli_converge_on_a_flooded_pairing_is_a_target_error(tmp_path, capsys):
    from axicav.cli import main

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = 1\nq = 2\np = 2\n"
        f"mesh_ladder = 2,4\ntarget = TE,1,1,1\noutput = {tmp_path / 'rows.csv'}\n"
    )
    lo, hi, _ = studies._target_interval(load_study_config(cfg))
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: TB N=2: target TE111")
    assert f"interval ({lo:.6g}, {hi:.6g})" in err and "a = 1" in err


def test_target_solve_with_no_eigenvalue_above_the_floor_raises():
    # At N = 1 the 6 free dofs give no eigenvalue above the floor of TM141's
    # interval: a target error naming the interval, not an empty argmin.
    cfg = _cfg(target=AnalyticTarget("TM", 1, 4, 1), mesh_ladder=(1, 2))
    lo, hi, _ = studies._target_interval(cfg)
    with pytest.raises(TargetNotMatchedError) as info:
        _target_solve(cfg, 1)
    msg = str(info.value)
    assert msg.startswith("TB N=1: target TM141: no eigenvalue above the floor")
    assert f"interval ({lo:.6g}, {hi:.6g})" in msg and "6 free dofs" in msg


def test_cli_converge_with_no_eigenvalue_above_the_floor_is_a_target_error(tmp_path, capsys):
    from axicav.cli import main

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = 1\nq = 2\np = 1\n"
        f"mesh_ladder = 1,2\ntarget = TM,1,4,1\noutput = {tmp_path / 'rows.csv'}\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: TB N=1: target TM141: no eigenvalue above")
    assert "6 free dofs" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["R", "L"])
def test_non_finite_cavity_size_is_config_error(key, value):
    entries = {"study": "spurious", "transforms": "TB", "n": "1", "q": "2",
               "mesh_ladder": "4", key: value}
    with pytest.raises(ConfigError, match="R and L must be finite"):
        build_study_config(entries)


def test_run_spurious_scan_small():
    cfg = _cfg(study="spurious", mesh_ladder=(4,), modes=3)
    rows, counts = run_spurious_scan(cfg)
    assert counts[("TB", 4)] == 0
    assert rows[0].spurious_count == 0


# Flooded windows of the first eight unit-pillbox modes: (transform, n, q, p, D, N, spurious)
_FLOODED = [
    ("TB", 1, 2, 2, 7, 4, 61), ("TB", 1, 2, 2, 7, 8, 265),
    ("TD", 2, 2, 1, 12, 4, 37), ("TD", 2, 2, 1, 12, 8, 165),
    ("TD", 2, 3, 2, 12, 4, 65), ("TD", 2, 3, 2, 12, 8, 281),
]


@pytest.mark.parametrize("kind,n,q,p,D,N,spurious", _FLOODED)
def test_flooded_window_count_equals_the_solved_match(kind, n, q, p, D, N, spurious,
                                                      monkeypatch):
    from axicav import eigen
    from axicav.analytic import estimate_match_tol, match_spectra, pillbox_spectrum
    from axicav.assembly import assemble
    from axicav.fespace import build_pair
    from axicav.formulation import ModeProblem
    from axicav.mesh import build_structured

    mesh = build_structured(1.0, 1.0, N)
    problem = ModeProblem(mesh=mesh, n=n, transformation=Transformation(kind), q=q, p=p,
                          quad_degree=D)
    pencil = assemble(problem, build_pair(mesh, q, p))
    modes = pillbox_spectrum(1.0, 1.0, n, 200.0)
    window, lam_cut = modes[:8], 0.5 * (modes[7].lam + modes[8].lam)
    spec = eigen.solve_window(pencil, lam_cut)
    tol = estimate_match_tol(spec.eigenvalues, window)
    solved = match_spectra(spec.eigenvalues, window, tol).spurious_count

    calls = Counter()
    for module, name in ((eigen, "_eigh"), (studies, "solve_window")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert studies._spurious_count(pencil, window, lam_cut) == solved == spurious
    assert not calls


def test_spurious_scan_counts_the_benchmark_cavity():
    # spectrum_dense of perfbench on cavity 0 of seed 1, two meshes
    cfg = build_study_config({
        "study": "spurious", "transforms": "TB;TD", "n": "2", "q": "3", "p": "2",
        "quad_degree": "12", "mesh_ladder": "4,8", "modes": "8",
        "R": "1.58896231827513", "L": "1.5864125813982266",
    })
    counts = run_spurious_scan(cfg)[1]
    assert counts == {("TB", 4): 0, ("TB", 8): 0, ("TD", 4): 65, ("TD", 8): 281}


def test_reconstruct_field_phi_structure():
    from axicav.assembly import assemble
    from axicav.eigen import solve
    from axicav.fespace import build_pair
    from axicav.formulation import ModeProblem
    from axicav.mesh import build_structured

    mesh = build_structured(1.0, 1.0, 4)
    pair = build_pair(mesh, 2, 1)
    tr = Transformation("TB")
    lam_t = AnalyticTarget("TE", 1, 1, 1).lam(1.0, 1.0)
    prob = ModeProblem(mesh=mesh, n=1, transformation=tr, q=2, p=1, quad_degree=5)
    pen = assemble(prob, pair)
    spec = solve(pen, k=3, hint=lam_t)
    vec = pen.expand(spec.eigenvectors[:, 0])

    # n = 1, phi = pi/2: cos factor kills e_r and e_z
    e = reconstruct_field(pair, tr, 1, vec, 0.4, math.pi / 2, 0.6)
    assert abs(e[0]) < 1e-12 and abs(e[2]) < 1e-12

    with pytest.raises(ValueError):
        reconstruct_field(pair, tr, 1, vec, 0.0, 0.0, 0.5)


def test_reconstruct_field_rejects_points_outside_the_cavity():
    from axicav.fespace import build_pair
    from axicav.mesh import build_structured

    pair = build_pair(build_structured(1.0, 1.0, 4), 2, 1)
    vec = np.random.default_rng(0).standard_normal(pair.n_total)
    tr = Transformation("TB")
    for r, z in ((3.0, 0.5), (0.5, -2.0), (0.5, 1.5)):
        with pytest.raises(ValueError, match="outside the cross section"):
            reconstruct_field(pair, tr, 1, vec, r, 0.0, z)
    assert np.all(np.isfinite(reconstruct_field(pair, tr, 1, vec, 1.0, 0.0, 1.0)))


def test_reconstruct_field_n0_axisymmetric_tm010_shape():
    from axicav.analytic import bessel_j
    from axicav.assembly import assemble
    from axicav.eigen import solve
    from axicav.fespace import build_pair
    from axicav.formulation import ModeProblem
    from axicav.mesh import build_structured

    mesh = build_structured(1.0, 1.0, 8)
    pair = build_pair(mesh, 2, 2)
    tr = Transformation("TB")
    prob = ModeProblem(mesh=mesh, n=0, transformation=tr, q=2, p=2, quad_degree=7,
                       block="inplane")
    pen = assemble(prob, pair)
    lam_t = AnalyticTarget("TM", 0, 1, 0).lam(1.0, 1.0)
    spec = solve(pen, k=2, hint=lam_t)
    i = int(np.argmin(np.abs(spec.eigenvalues - lam_t)))
    vec = pen.expand(spec.eigenvectors[:, i])

    # axisymmetric: no phi dependence
    e1 = reconstruct_field(pair, tr, 0, vec, 0.3, 0.0, 0.5)
    e2 = reconstruct_field(pair, tr, 0, vec, 0.3, 1.3, 0.5)
    assert np.allclose(e1, e2)

    # e_z approaches a nonzero constant at the axis, e_r vanishes, and the
    # radial profile follows J_0(j01 * r)
    j01 = math.sqrt(lam_t)
    near = reconstruct_field(pair, tr, 0, vec, 1e-6, 0.0, 0.5)
    assert abs(near[2]) > 1e-3
    assert abs(near[0]) < 1e-4 * abs(near[2])
    for r in (0.25, 0.55, 0.85):
        e = reconstruct_field(pair, tr, 0, vec, r, 0.0, 0.5)
        assert e[2] / near[2] == pytest.approx(bessel_j(0, j01 * r), abs=2e-4)


# The layer names a study calls through the axicav.studies module namespace.
_LAYER_NAMES = ("build_structured", "build_pair", "rule_for_degree", "assemble", "solve",
                "solve_window", "pillbox_spectrum", "estimate_match_tol", "match_spectra")

_TINY_STUDIES = {
    "converge": ({"transforms": "TB", "mesh_ladder": "2,3"}, studies.run_convergence),
    "quadsweep": ({"transforms": "TB", "mesh_ladder": "2", "quad_degrees": "4,6"},
                  studies.run_quadrature_sweep),
    "spurious": ({"transforms": "TB", "mesh_ladder": "2,3", "modes": "3"},
                 studies.run_spurious_scan),
    # TD at n = 2 floods the window: its rows are counted, not solved
    "spurious-flooded": ({"transforms": "TD", "n": "2", "target": "TE,2,1,1",
                          "quad_degree": "12", "mesh_ladder": "2,3", "modes": "3"},
                         studies.run_spurious_scan),
    "alphabeta": ({"transforms": "TC(1,1)", "mesh_ladder": "2,3"}, studies.run_alphabeta_scan),
    "regularity": ({"transforms": "TC(1,1)", "mesh_ladder": "4"}, studies.run_regularity),
}


@pytest.mark.parametrize("study", sorted(_TINY_STUDIES))
def test_studies_call_the_layers_through_the_module(study, monkeypatch):
    calls = Counter()
    for name in _LAYER_NAMES:
        def counted(*args, _name=name, _original=getattr(studies, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(studies, name, counted)
    extra, runner = _TINY_STUDIES[study]
    kind = study.split("-")[0]
    rows = runner(build_study_config(_entries(kind, p="1", **extra)))[0]
    eigen, other = ("solve_window", "solve") if kind == "spurious" else ("solve", "solve_window")
    solved = 0 if study == "spurious-flooded" else len(rows)
    assert len(rows) > 0
    # one mesh and one pair per N, one assembly per row
    for name in ("build_structured", "build_pair"):
        assert calls[name] == len({row.N for row in rows}), name
    assert calls["assemble"] == len(rows)
    assert calls[eigen] == solved
    assert calls[other] == 0
    assert calls["rule_for_degree"] >= len(rows)
    assert calls["pillbox_spectrum"] >= 1
    matched = len(rows) if kind == "spurious" else 0
    assert calls["estimate_match_tol"] == matched
    assert calls["match_spectra"] == (solved if kind == "spurious" else 0)


_RUNNERS = {
    "converge": studies.run_convergence,
    "spurious": studies.run_spurious_scan,
    "quadsweep": studies.run_quadrature_sweep,
    "alphabeta": studies.run_alphabeta_scan,
    "regularity": studies.run_regularity,
}


def test_config_sweep_ends_in_rows_or_a_clear_error():
    # Every study on each transformation, mode number and order pair that the
    # README documents ends quickly in rows, a ConfigError or a
    # TargetNotMatchedError; any other exception fails the test.
    tally = Counter()
    grid = itertools.product(_RUNNERS, ("TA", "TB", "TD", "TC(1,1)", "TC(1,2)", "TC(0.5,1)"),
                             (0, 1, 2), ((2, 1), (3, 2), (2, 2)))
    for study, transform, n, (q, p) in grid:
        entries = {"study": study, "transforms": transform, "n": str(n), "q": str(q),
                   "p": str(p), "mesh_ladder": "2,4"}
        if study != "spurious":
            entries["target"] = f"TE,{n},1,1"
        if study == "quadsweep":
            entries["quad_degrees"] = "9,15"
        start = time.perf_counter()
        try:
            rows = _RUNNERS[study](build_study_config(entries))[0]
            assert rows
            tally["rows"] += 1
        except (ConfigError, TargetNotMatchedError) as exc:
            tally[type(exc).__name__] += 1
        elapsed = time.perf_counter() - start
        assert elapsed <= 5.0, (study, transform, n, q, p, elapsed)
    assert tally == {"rows": 95, "ConfigError": 147, "TargetNotMatchedError": 28}


# The study configs of the three benchmark workloads, all but R and L.
_BENCH_ENTRIES = {
    "spectrum_dense": {"study": "spurious", "transforms": "TB;TD", "n": "2", "q": "3", "p": "2",
                       "quad_degree": "12", "mesh_ladder": "4,8,12", "modes": "8"},
    "converge_sparse": {"study": "converge", "transforms": "TC(1,1)", "n": "1", "q": "3",
                        "p": "2", "target": "TE,1,1,1", "mesh_ladder": "4,8,16,32"},
    "quadsweep_axis": {"study": "quadsweep", "transforms": "TA;TC(1,2)", "n": "0", "q": "3",
                       "p": "2", "target": "TE,0,1,1", "mesh_ladder": "32",
                       "quad_degrees": "9,15,21"},
}


def _bench_config(workload: str, index: int):
    """The workload's config on cavity `index` of seed 1, drawn like the
    benchmark draws its cavities."""
    rng = random.Random(f"1:{index}")
    s = rng.uniform(0.5, 2.0)
    cavity = {"R": repr(s), "L": repr(s * (1.0 + rng.uniform(-0.01, 0.01)))}
    return build_study_config({**_BENCH_ENTRIES[workload], **cavity})


@pytest.mark.parametrize("workload,meshes,solved,windows", [
    ("quadsweep_axis", 1, 6, {}),
    # TB's windows are solved; TD's flooded ones are counted
    ("spectrum_dense", 3, 0, {"TB": 3}),
], ids=["quadsweep_axis", "spectrum_dense"])
def test_one_mesh_and_pair_per_N_and_one_solve_per_pencil(workload, meshes, solved, windows,
                                                         monkeypatch):
    calls, solved_by = Counter(), Counter()
    last = {}
    for name in _LAYER_NAMES:
        def counted(*args, _name=name, _original=getattr(studies, name), **kwargs):
            calls[_name] += 1
            if _name == "assemble":
                last["kind"] = args[0].transformation.kind
            if _name == "solve_window":
                solved_by[last["kind"]] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(studies, name, counted)
    cfg = _bench_config(workload, 0)
    rows = _RUNNERS[cfg.study](cfg)[0]
    assert calls["build_structured"] == calls["build_pair"] == meshes
    assert calls["assemble"] == len(rows) == 6
    assert calls["solve"] == solved
    assert dict(solved_by) == windows


def _bench_rows(workload: str, index: int) -> list:
    cfg = _bench_config(workload, index)
    return [[getattr(row, f) for f in studies._ROW_FIELDS]
            for row in _RUNNERS[cfg.study](cfg)[0]]


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for a_row, b_row in zip(got, want):
        for a, b in zip(a_row, b_row):
            if isinstance(b, float):
                assert abs(a - b) <= 1e-14 * abs(b), (a_row, b_row)
            else:
                assert a == b, (a_row, b_row)


_ALONE = """
import json, sys
sys.path[:0] = sys.argv[1:]
import test_studies
print(json.dumps({w: test_studies._bench_rows(w, 1) for w in test_studies._BENCH_ENTRIES}))
"""


def test_study_calls_keep_no_state_between_cavities():
    # Cavity 1 after cavity 0 in this process gives the rows of cavity 1
    # studied alone in a new interpreter, on every benchmark workload.
    after = {}
    for workload in _BENCH_ENTRIES:
        _bench_rows(workload, 0)
        after[workload] = _bench_rows(workload, 1)
    paths = [str(Path(__file__).resolve().parent), str(Path(studies.__file__).parents[1])]
    out = subprocess.run([sys.executable, "-c", _ALONE, *paths], capture_output=True,
                         text=True, check=True)
    alone = json.loads(out.stdout)
    for workload, rows in after.items():
        _assert_rows_equal(rows, alone[workload])


@pytest.mark.parametrize("study", sorted(_RUNNERS))
def test_cavity_past_the_listing_cap_is_config_error(study):
    # R / L = 1e300 lists no analytic mode: a ConfigError before any mesh
    entries = {"study": study, "transforms": "TC(1,1)", "n": "1", "q": "3", "p": "2",
               "target": "TE,1,1,1", "mesh_ladder": "2,4", "quad_degrees": "9,15",
               "R": "1e300"}
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="past the listing cap"):
        _RUNNERS[study](build_study_config(entries))
    assert time.perf_counter() - start < 1.0
