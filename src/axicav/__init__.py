"""axicav: quasi-3D finite-element eigenmode solver for axisymmetric cavities.

The 3D Maxwell eigenproblem on a body of revolution reduces, one azimuthal
Fourier mode n at a time, to a 2D problem on the angular cross section.
This package builds the cross-section meshes, high-order H1/H(curl) element
pairs, the four variational transformations (TA, TB, TC(alpha, beta), TD)
that make the reduced problem well posed at the symmetry axis, the
symmetric generalized eigenvalue pencil, and the study harness comparing
computed spectra against the closed-form pillbox cavity modes.
"""

from .mesh import (
    BoundaryTag,
    CrossSectionMesh,
    MeshConsistencyError,
    build_structured,
    classify_boundary,
    locate_point,
)
from .quadrature import QuadratureRule, integrate, monomial_integral, rule_for_degree
from .fespace import (
    FeSpacePair,
    H1Space,
    HCurlSpace,
    build_h1,
    build_hcurl,
    build_pair,
    discrete_gradient,
    gradient_inclusion_check,
    interpolate_h1,
    project_hcurl,
)
from .formulation import (
    AxisConditions,
    Material,
    ModeProblem,
    Transformation,
    TransformedValues,
    axis_conditions,
    convergent_tc_params,
    curl_n,
    gradient_kernel_coefficient,
    inverse_substitute,
    mass_integrand,
    polynomial_integrand_predicate,
    polynomial_threshold_degree,
    recommended_tc_params,
    stiffness_integrand,
    transformed_to_physical,
    validate_tc,
)
from .assembly import (
    AssembledPencil,
    apply_constraints,
    assemble,
    collect_constraints,
)
from .eigen import DENSE_DIM, EigenSolverError, Spectrum, solve, solve_window
from .analytic import (
    AnalyticMode,
    MatchReport,
    bessel_j,
    bessel_prime_zero,
    bessel_zero,
    estimate_match_tol,
    export_modes_csv,
    group_modes,
    match_spectra,
    pillbox_spectrum,
)
from .studies import (
    AnalyticTarget,
    ConfigError,
    IndeterminateProbeError,
    StudyConfig,
    StudyRow,
    TargetNotMatchedError,
    axis_regularity_probe,
    fit_slope,
    load_study_config,
    reconstruct_field,
    run_alphabeta_scan,
    run_convergence,
    run_quadrature_sweep,
    run_regularity,
    run_spurious_scan,
    write_csv,
)

__version__ = "0.1.0"
