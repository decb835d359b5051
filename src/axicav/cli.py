"""Command line interface.

    axicav converge|spurious|quadsweep|alphabeta|regularity --config FILE
    axicav analytic --R R --L L --n N --lmax LMAX [--out FILE]

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 acceptance-threshold failure (for CI gating via the expect_* config keys).
"""

from __future__ import annotations

import argparse
import sys

from .analytic import export_modes_csv, group_modes, pillbox_spectrum
from .eigen import EigenSolverError
from .mesh import MeshConsistencyError
from .studies import (
    ConfigError,
    IndeterminateProbeError,
    TargetNotMatchedError,
    load_study_config,
    run_alphabeta_scan,
    run_convergence,
    run_quadrature_sweep,
    run_regularity,
    run_spurious_scan,
    write_csv,
)

_SOLVER_ERRORS = (
    EigenSolverError,
    TargetNotMatchedError,
    IndeterminateProbeError,
    MeshConsistencyError,
)


def _gate_slopes(cfg, slopes) -> bool:
    ok = True
    for label, slope in slopes.items():
        if cfg.expect_slope_min is not None and slope < cfg.expect_slope_min:
            print(f"GATE: {label} slope {slope:.3f} < {cfg.expect_slope_min}")
            ok = False
        if cfg.expect_slope_max is not None and slope > cfg.expect_slope_max:
            print(f"GATE: {label} slope {slope:.3f} > {cfg.expect_slope_max}")
            ok = False
    return ok


def _run_study(kind: str, config_path: str) -> int:
    cfg = load_study_config(config_path)
    if cfg.study != kind:
        raise ConfigError(f"config file declares study={cfg.study!r}, command is {kind!r}")
    if cfg.output is None:
        raise ConfigError("config must name an output CSV path")
    gate_ok = True

    if kind == "converge":
        rows, slopes = run_convergence(cfg)
        for label, slope in slopes.items():
            print(f"{label}: slope {slope:.3f}")
        gate_ok = _gate_slopes(cfg, slopes)
    elif kind == "spurious":
        rows, counts = run_spurious_scan(cfg)
        for (label, N), count in counts.items():
            print(f"{label} N={N}: spurious {count}")
        if cfg.expect_spurious_max is not None:
            worst = max(counts.values())
            if worst > cfg.expect_spurious_max:
                print(f"GATE: spurious count {worst} > {cfg.expect_spurious_max}")
                gate_ok = False
    elif kind == "quadsweep":
        rows, stable, _ = run_quadrature_sweep(cfg)
        for label, flag in stable.items():
            print(f"{label}: degree-stable {flag}")
    elif kind == "alphabeta":
        rows, slopes, classification, expected = run_alphabeta_scan(cfg)
        for (a, b), slope in slopes.items():
            tag = "full-rate" if classification[(a, b)] else "reduced-rate"
            print(f"TC({a:g},{b:g}): slope {slope:.3f} [{tag}]")
            if classification[(a, b)] != expected[(a, b)]:
                want = "full-rate" if expected[(a, b)] else "reduced-rate"
                print(f"NOTE: TC({a:g},{b:g}) is {want} in the parameter table")
        gate_ok = _gate_slopes(
            cfg, {f"TC({a:g},{b:g})": s for (a, b), s in slopes.items()}
        )
    else:  # regularity
        rows, exponents = run_regularity(cfg)
        for label, expo in exponents.items():
            print(f"{label}: axis exponent {expo:.3f}")

    write_csv(rows, cfg.output)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0 if gate_ok else 4


def _run_analytic(args) -> int:
    modes = pillbox_spectrum(args.R, args.L, args.n, args.lmax)
    if args.out:
        export_modes_csv(modes, args.out)
        print(f"wrote {len(modes)} modes to {args.out}")
    else:
        print("family,m,nu,pi_idx,omega_over_c0,multiplicity")
        for omega, mds in group_modes(modes):
            for md in mds:
                print(f"{md.family},{md.m},{md.nu},{md.pi_idx},{md.omega:.17g},{len(mds)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="axicav",
        description="Quasi-3D eigenmode studies for axisymmetric cavities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ("converge", "spurious", "quadsweep", "alphabeta", "regularity"):
        sp = sub.add_parser(kind, help=f"run the {kind} study")
        sp.add_argument("--config", required=True, help="flat key = value config file")
    ap = sub.add_parser("analytic", help="closed-form pillbox mode table")
    ap.add_argument("--R", type=float, required=True)
    ap.add_argument("--L", type=float, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--lmax", type=float, required=True, help="omega^2/c0^2 window top")
    ap.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "analytic":
            return _run_analytic(args)
        return _run_study(args.command, args.config)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
