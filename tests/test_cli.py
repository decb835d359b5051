import numpy as np
import pytest

from axicav.cli import main


def test_analytic_stdout(capsys):
    assert main(["analytic", "--R", "1", "--L", "1", "--n", "1", "--lmax", "30"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "family,m,nu,pi_idx,omega_over_c0,multiplicity"
    assert out[1].startswith("TE,1,1,1,")


def test_analytic_csv_output(tmp_path, capsys):
    out = tmp_path / "modes.csv"
    code = main(
        ["analytic", "--R", "1", "--L", "1", "--n", "0", "--lmax", "30", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "family,m,nu,pi_idx,omega_over_c0,multiplicity"


@pytest.mark.parametrize("R,lmax", [("inf", "30"), ("nan", "30"), ("1", "inf")])
def test_analytic_non_finite_size_is_config_error(R, lmax, capsys):
    assert main(["analytic", "--R", R, "--L", "1", "--n", "1", "--lmax", lmax]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_analytic_past_the_mode_cap_is_config_error(capsys):
    assert main(["analytic", "--R", "1e60", "--L", "1", "--n", "1", "--lmax", "30"]) == 2
    assert "past the listing cap" in capsys.readouterr().err
    assert main(["analytic", "--R", "1e300", "--L", "1", "--n", "1", "--lmax", "30"]) == 2
    assert "must lie in [1e-100, 1e+100]" in capsys.readouterr().err


def test_spurious_with_an_infinite_radius_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "study = spurious\ntransforms = TB\nn = 1\nq = 2\nmesh_ladder = 4\nR = inf\n"
        f"output = {tmp_path / 'out.csv'}\n"
    )
    assert main(["spurious", "--config", str(cfg)]) == 2
    assert "R and L must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["1e200", "1e-200"])
def test_converge_outside_the_size_range_is_config_error(tmp_path, capsys, size):
    # R = L = 1e200 hung in the analytic listing, 1e-200 overflowed
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = 1\nq = 3\np = 2\ntarget = TE,1,1,1\n"
        f"R = {size}\nL = {size}\noutput = {tmp_path / 'out.csv'}\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 2
    assert "must lie in [1e-100, 1e+100]" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["converge", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("study = converge\ntransforms = TB\nn = 1\nmystery = 1\n")
    assert main(["converge", "--config", str(cfg)]) == 2


def test_command_study_mismatch(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = spurious\ntransforms = TB\nn = 1\nq = 2\nmesh_ladder = 4\n"
        "output = out.csv\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 2


def test_zero_modes_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "study = spurious\ntransforms = TB\nn = 1\nq = 2\nmesh_ladder = 4\nmodes = 0\n"
        f"output = {tmp_path / 'out.csv'}\n"
    )
    assert main(["spurious", "--config", str(cfg)]) == 2


def test_auto_mode_number_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = auto\nq = 2\np = 1\n"
        f"mesh_ladder = 2,4\ntarget = TE,1,1,1\noutput = {tmp_path / 'out.csv'}\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 2


def test_converge_run_and_gate(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = 1\nq = 2\np = 1\n"
        "mesh_ladder = 2,4\nquad_degree = auto\ntarget = TE,1,1,1\n"
        f"output = {out}\nexpect_slope_min = 1.5\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].count(",") == 16

    # an impossible slope expectation trips the CI gate
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = 1\nq = 2\np = 1\n"
        "mesh_ladder = 2,4\nquad_degree = auto\ntarget = TE,1,1,1\n"
        f"output = {out}\nexpect_slope_min = 11.0\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 4


def test_spurious_run(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "study = spurious\ntransforms = TB\nn = 1\nq = 2\np = 1\n"
        "mesh_ladder = 4\nmodes = 3\nquad_degree = auto\n"
        f"output = {out}\nexpect_spurious_max = 0\n"
    )
    assert main(["spurious", "--config", str(cfg)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_spurious_gate_on_a_flooded_scan(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "study = spurious\ntransforms = TD\nn = 2\nq = 2\np = 1\n"
        "mesh_ladder = 4\nquad_degree = 12\n"
        f"output = {out}\nexpect_spurious_max = 0\n"
    )
    assert main(["spurious", "--config", str(cfg)]) == 4
    assert "GATE: spurious count 37 > 0" in capsys.readouterr().out
    header, row = out.read_text().splitlines()
    assert row.split(",")[header.split(",").index("spurious_count")] == "37"


def test_alphabeta_run(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(
        "study = alphabeta\ntransforms = TC(1,1)\nn = 1\nq = 2\np = 1\n"
        "mesh_ladder = 2,4\nquad_degree = auto\ntarget = TE,1,1,1\n"
        f"output = {out}\n"
    )
    assert main(["alphabeta", "--config", str(cfg)]) == 0
    assert "TC(1,1): slope" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 3


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    from axicav import cli
    from axicav.eigen import EigenSolverError

    def boom(cfg):
        raise EigenSolverError("synthetic non-convergence")

    monkeypatch.setattr(cli, "run_convergence", boom)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TB\nn = 1\nq = 2\np = 1\n"
        "mesh_ladder = 2,4\nquad_degree = auto\ntarget = TE,1,1,1\noutput = x.csv\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 3


def test_missing_output_fails_before_the_study_runs(tmp_path, capsys, monkeypatch):
    from axicav import cli

    calls = []
    monkeypatch.setattr(cli, "run_convergence", lambda cfg: calls.append(cfg))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "study = converge\ntransforms = TC(1,1)\nn = 1\nq = 2\np = 1\n"
        "mesh_ladder = 4,8,16\nquad_degree = auto\ntarget = TE,1,1,1\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 2
    assert calls == []
