"""Wrappers around the layer functions that ``axicav.studies`` calls.

``axicav.studies`` imports its layer functions by name, so replacing those
names in the studies module intercepts every call a study makes into the
mesh, fespace, quadrature, assembly, eigen and analytic layers without
touching the program source.  Without a recorder only the results the
physics gates read are kept (spectra and match reports); with one, every
call also becomes a span carrying the counts measured at that boundary.
"""

from __future__ import annotations

import functools

from axicav import quadrature
from axicav import studies as studies_module

# name imported by axicav.studies -> layer it belongs to
LAYER_OF = {
    "build_structured": "mesh",
    "build_pair": "fespace",
    "rule_for_degree": "quadrature",
    "assemble": "assembly",
    "solve": "eigen",
    "solve_window": "eigen",
    "pillbox_spectrum": "analytic",
    "estimate_match_tol": "analytic",
    "match_spectra": "analytic",
}

# Per-layer metrics of one traced study call, with their units.
LAYER_UNITS = {
    "studies.study_s": "s",
    "studies.self_s": "s",
    "eigen.dense_s": "s",
    "eigen.dense_calls": "count",
    "eigen.dense_dim_max": "count",
    "eigen.dense_bytes": "B",
    "eigen.kept_ratio": "ratio",
    "eigen.shift_invert_s": "s",
    "eigen.shift_invert_calls": "count",
    "eigen.kernel_count": "count",
    "eigen.residual_max": "rel",
    "assembly.assemble_s": "s",
    "assembly.calls": "count",
    "assembly.qp_evals": "count",
    "assembly.nnz": "count",
    "assembly.useful_dof_ratio": "ratio",
    "quadrature.points_per_tri": "count",
    "mesh.build_s": "s",
    "fespace.build_pair_s": "s",
    "fespace.ndof_total": "count",
    "analytic.spectrum_s": "s",
    "analytic.match_s": "s",
}

_GATE_NAMES = ("solve", "solve_window", "match_spectra")


class Probe:
    """Context manager that wraps the layer names of ``axicav.studies``.

    ``spectra`` and ``matches`` collect every Spectrum and MatchReport the
    study produced while the probe was installed.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.spectra = []
        self.matches = []
        self._saved = {}

    def __enter__(self):
        names = LAYER_OF if self.recorder is not None else _GATE_NAMES
        for name in names:
            original = getattr(studies_module, name)
            self._saved[name] = original
            setattr(studies_module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(studies_module, name, original)
        self._saved.clear()
        return False

    def _wrap(self, name, original):
        span_name = f"{LAYER_OF[name]}.{name}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.recorder is None:
                out = original(*args, **kwargs)
                self._keep(name, out)
                return out
            with self.recorder.span(span_name) as sp:
                out = original(*args, **kwargs)
            self._keep(name, out)
            sp.attrs.update(_counts(name, args, out))
            return out

        return wrapper

    def _keep(self, name, out):
        if name in ("solve", "solve_window"):
            self.spectra.append(out)
        elif name == "match_spectra":
            self.matches.append(out)


def _counts(name, args, out) -> dict:
    """Work counts measured at the boundary of one layer call."""
    if name == "build_pair":
        return {"ndof": int(out.n_total)}
    if name == "assemble":
        problem = args[0]
        return {
            "triangles": int(problem.mesh.n_triangles),
            "points": int(quadrature.rule_for_degree(problem.quad_degree).point_count),
            "n_free": int(out.n_free),
            "nnz": int(out.K.nnz + out.M.nnz),
        }
    if name in ("solve", "solve_window"):
        res = out.residuals
        return {
            "n": int(args[0].n_free),
            "method": out.method,
            "kept": int(len(out.eigenvalues)),
            "kernel": int(out.kernel_count),
            "residual_max": float(res.max()) if res.size else 0.0,
        }
    return {}


def layer_metrics(recorder, trace_id: int) -> dict:
    """Per-layer metrics of one traced study call (see LAYER_UNITS)."""
    self_time = recorder.self_times()
    spans = [(sp, self_time[i]) for i, sp in enumerate(recorder.spans)
             if sp.trace_id == trace_id]

    def total(span_name):
        return sum(t for sp, t in spans if sp.name == span_name)

    study = [(sp, t) for sp, t in spans if sp.parent is None]
    eig = [(sp, t) for sp, t in spans if sp.name in ("eigen.solve", "eigen.solve_window")]
    dense = [(sp, t) for sp, t in eig if sp.attrs["method"] == "dense"]
    sparse = [(sp, t) for sp, t in eig if sp.attrs["method"] != "dense"]
    asm = [sp for sp, _ in spans if sp.name == "assembly.assemble"]
    triangles = sum(sp.attrs["triangles"] for sp in asm)
    qp_evals = sum(sp.attrs["triangles"] * sp.attrs["points"] for sp in asm)
    assembled = sum(sp.attrs["n_free"] for sp in asm)
    dense_n = [sp.attrs["n"] for sp, _ in dense]

    return {
        "studies.study_s": sum(sp.duration for sp, _ in study),
        "studies.self_s": sum(t for _, t in study),
        "eigen.dense_s": sum(t for _, t in dense),
        "eigen.dense_calls": len(dense),
        "eigen.dense_dim_max": max(dense_n, default=0),
        # computed, not measured: dense K, M and eigenvectors of the largest call
        "eigen.dense_bytes": 3 * max(dense_n, default=0) ** 2 * 8,
        "eigen.kept_ratio": (sum(sp.attrs["kept"] for sp, _ in dense) / sum(dense_n)
                             if dense else 0.0),
        "eigen.shift_invert_s": sum(t for _, t in sparse),
        "eigen.shift_invert_calls": len(sparse),
        "eigen.kernel_count": sum(sp.attrs["kernel"] for sp, _ in eig),
        "eigen.residual_max": max((sp.attrs["residual_max"] for sp, _ in eig), default=0.0),
        "assembly.assemble_s": total("assembly.assemble"),
        "assembly.calls": len(asm),
        "assembly.qp_evals": qp_evals,
        "assembly.nnz": sum(sp.attrs["nnz"] for sp in asm),
        "assembly.useful_dof_ratio": (sum(sp.attrs["n"] for sp, _ in eig) / assembled
                                      if assembled else 0.0),
        "quadrature.points_per_tri": qp_evals / triangles if triangles else 0.0,
        "mesh.build_s": total("mesh.build_structured"),
        "fespace.build_pair_s": total("fespace.build_pair"),
        "fespace.ndof_total": sum(sp.attrs["ndof"] for sp, _ in spans
                                  if sp.name == "fespace.build_pair"),
        "analytic.spectrum_s": total("analytic.pillbox_spectrum"),
        "analytic.match_s": (total("analytic.match_spectra")
                             + total("analytic.estimate_match_tol")),
    }

