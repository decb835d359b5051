"""Generalized symmetric eigensolver with gradient-kernel removal.

The full H(curl) spaces carry a large discrete gradient kernel: the
curl-curl pencil has a zero eigenvalue of multiplicity equal to the number
of free scalar dofs (for coupled problems with q = p + 1).

Below DENSE_DIM free dofs the pencil is solved in dense storage.  When
assembly supplies the kernel map cG (range [I; cG] is exactly the kernel,
see formulation.gradient_kernel_coefficient), the kernel is deflated: the
change of unknowns x = T [w; y], T = [[I, 0], [cG, I]], turns the stiffness
into diag(0, K_vv), and eliminating w leaves K_vv y = lambda S y on the
vector unknowns, S the Schur complement of the transformed mass T^T M T.
That pencil has no kernel, so a window solve computes only the eigenpairs
up to its upper end, kernel_count is n_free_h1 and nothing is thresholded.
Pencils without a map (n = 0, TD with |n| > 1, extracted blocks) are solved
in full, and eigenvalues below a relative threshold are classified as
kernel and removed before any spectrum matching.  Residuals are always
checked on the original pencil.

Above DENSE_DIM, shift-invert Lanczos iterations are used, and
the shift placement must respect the kernel: under theta = 1/(lambda -
sigma) the kernel maps to theta = -1/sigma, so a shift far below the
physical spectrum makes the kernel cluster dominant and starves the wanted
eigenvalues.  The k-lowest solve therefore shifts to half the analytic
hint (kernel and first mode are then comparable extremes and the largest
algebraic thetas are exactly the physical modes above sigma).  The window
solve shifts inside the window: every window eigenvalue is closer to sigma
than the kernel is, nearest-first convergence enumerates the window from
the inside out, and the largest returned |lambda - sigma| certifies how
much of the window is covered.

Each sparse solve factorizes K - sigma M once.  The same factors drive the
Lanczos iteration and, when a Lanczos pair misses RESIDUAL_TOL, one step of
subspace inverse iteration with a Rayleigh-Ritz projection; a residual
still above RESIDUAL_TOL after that step is an EigenSolverError, never a
retry.  Lanczos that does not converge within a bounded number of restarts
is retried once on a larger subspace, then fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

__all__ = ["Spectrum", "EigenSolverError", "solve", "solve_window", "filter_kernel", "DENSE_DIM"]

DENSE_DIM = 6000
KERNEL_REL = 1e-8
RESIDUAL_TOL = 1e-8


class EigenSolverError(RuntimeError):
    """Eigensolver failure (factorization, convergence, or residual check)."""


@dataclass
class Spectrum:
    """Retained physical eigenpairs, ascending, with kernel bookkeeping."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (n_free, n_retained)
    kernel_count: int
    kernel_threshold: float
    residuals: np.ndarray
    method: str
    kernel_exact: bool  # kernel deflated exactly: nothing was thresholded


def filter_kernel(raw: np.ndarray, threshold_scale: float = KERNEL_REL):
    """Partition eigenvalues into kernel (lambda < tau) and physical.

    tau = threshold_scale * max(1, largest computed eigenvalue).
    """
    raw = np.asarray(raw, dtype=float)
    lam_max = raw.max() if raw.size else 1.0
    tau = threshold_scale * max(1.0, lam_max)
    kernel = raw < tau
    return kernel, tau


def _residuals(K, M, vals, vecs):
    if len(vals) == 0:
        return np.empty(0)
    KX = K @ vecs
    MX = M @ vecs
    num = np.linalg.norm(KX - MX * vals[None, :], axis=0)
    den = np.linalg.norm(KX, axis=0) + np.abs(vals) * np.linalg.norm(MX, axis=0)
    return num / np.where(den > 0, den, 1.0)


def _check_residuals(K, M, vals, vecs, method):
    res = _residuals(K, M, vals, vecs)
    if res.size and res.max() > RESIDUAL_TOL:
        raise EigenSolverError(
            f"{method}: eigenpair residual {res.max():.3e} exceeds {RESIDUAL_TOL}"
        )
    return res


def _eigh(K, M, hi=np.inf):
    """Dense generalized eigenpairs: all of them (divide and conquer), or
    only those up to hi when hi is finite."""
    try:
        if np.isfinite(hi):
            return eigh(K, M, subset_by_value=(-np.inf, hi))
        return eigh(K, M, driver="gvd")
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"dense factorization failed: {exc}") from exc


def _deflated_dense(pencil, lo, hi, k):
    """Eigenpairs with lo < lambda <= hi (the k lowest) of a pencil whose
    kernel is range Z, Z = [I; cG] (cG = pencil.kernel_map).

    In the unknowns (w, y) with x = [w; cG w + y] the stiffness is
    diag(0, K_vv), so w = -A^-1 B y with A = Z^T M Z, B = Z^T M [0; I], and
    K_vv y = lambda S y with S = M_vv - B^T A^-1 B.  The lifted x is
    M-normalized because y is S-normalized.
    """
    nu, cG = pencil.n_free_h1, pencil.kernel_map
    K, M = pencil.K, pencil.M
    MZ = M[:, :nu] + M[:, nu:] @ cG
    try:
        L = cholesky((MZ[:nu] + cG.T @ MZ[nu:]).toarray(), lower=True)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"kernel mass matrix factorization failed: {exc}") from exc
    W = solve_triangular(L, MZ[nu:].T.toarray(), lower=True)  # L^-1 B
    S = M[nu:, nu:].toarray() - W.T @ W
    vals, y = _eigh(K[nu:, nu:].toarray(), S, hi)
    idx = np.nonzero((vals > lo) & (vals <= hi))[0][:k]
    y = y[:, idx]
    w = -solve_triangular(L, W @ y, lower=True, trans="T")
    return vals[idx], np.vstack([w, cG @ w + y])


def _dense_solve(pencil, lo=-np.inf, hi=np.inf, k=None) -> Spectrum:
    """Dense eigenpairs with lo < lambda <= hi, the k lowest of them.

    A pencil with a kernel map has its kernel deflated exactly; any other
    is solved in full and its eigenvalues below filter_kernel's threshold
    are dropped as kernel.
    """
    if pencil.kernel_map is not None:
        vals, vecs = _deflated_dense(pencil, lo, hi, k)
        kernel_count, tau, exact = pencil.n_free_h1, 0.0, True
    else:
        vals, vecs = _eigh(pencil.K.toarray(), pencil.M.toarray())
        kernel, tau = filter_kernel(vals)
        idx = np.nonzero(~kernel & (vals > lo) & (vals <= hi))[0][:k]
        vals, vecs = vals[idx], vecs[:, idx]
        kernel_count, exact = int(kernel.sum()), False
    res = _check_residuals(pencil.K, pencil.M, vals, vecs, "dense")
    return Spectrum(vals, vecs, kernel_count, tau, res, "dense", exact)


def _factorize(pencil, sigma: float):
    """Sparse LU of K - sigma M, computed once per sparse solve.

    The shifted pencil is symmetric, so the transpose of its CSR form is its
    CSC form (the same factorization eigsh builds when given only sigma).
    """
    try:
        return splu((pencil.K - sigma * pencil.M).T.tocsc())
    except RuntimeError as exc:
        raise EigenSolverError(
            f"factorization of K - sigma M failed (sigma={sigma:.6g}): {exc}"
        ) from exc


# Restart budgets of the Lanczos attempts.  Converging first attempts take
# at most 7 restarts on the benchmark workloads and 105 in the test suite (a
# window solve at ncv = 49), so a first attempt still running after
# FIRST_MAXITER has stalled and hands over to the retry.
FIRST_MAXITER = 300
RETRY_MAXITER = 5000


def _eigsh_guarded(pencil, lu, k, sigma, which):
    """eigsh on the given factors.  When Lanczos does not converge within
    FIRST_MAXITER restarts (a degenerate kernel cluster near the edge of the
    requested set can stall them at the default subspace size) it runs once
    more with ncv = 2 ncv + 10, and fails after that.  Returns (vals, vecs,
    ncv used).
    """
    n = pencil.n_free
    first = min(n, max(2 * k + 1, 20))
    op_inv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # Fixed start vector: byte-identical spectra from run to run.
    v0 = np.random.default_rng(202406).standard_normal(n)
    attempts = [(first, FIRST_MAXITER), (min(2 * first + 10, n), RETRY_MAXITER)]
    # no retry when the first subspace already spans the whole space
    for ncv, maxiter in attempts[:1] if first == n else attempts:
        try:
            vals, vecs = eigsh(
                pencil.K, k=k, M=pencil.M, sigma=sigma, which=which,
                ncv=ncv, maxiter=maxiter, v0=v0, OPinv=op_inv,
            )
        except ArpackNoConvergence as exc:
            last = exc
            continue
        except Exception as exc:
            raise EigenSolverError(f"shift-invert iteration failed: {exc}") from exc
        order = np.argsort(vals)
        return vals[order], vecs[:, order], ncv
    raise EigenSolverError(
        f"shift-invert iteration did not converge (k={k}, ncv={ncv}, "
        f"sigma={sigma:.6g}): {last}"
    )


def _refine(pencil, lu, vecs):
    """One step of subspace inverse iteration on the shift-invert factors,
    followed by a Rayleigh-Ritz step on the M-normalized result.

    Lanczos leaves errors along high-frequency directions that the
    K-residual weights heavily; (K - sigma M)^-1 M damps exactly those.
    """
    Y = lu.solve(pencil.M @ vecs)
    Y /= np.sqrt(np.einsum("ij,ij->j", Y, pencil.M @ Y))
    A = Y.T @ (pencil.K @ Y)
    B = Y.T @ (pencil.M @ Y)
    try:
        vals, C = eigh(0.5 * (A + A.T), 0.5 * (B + B.T))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"Rayleigh-Ritz refinement failed: {exc}") from exc
    return vals, Y @ C


def _refined_spectrum(pencil, lu, vals, vecs, kernel, tau, sigma, k, ncv) -> Spectrum:
    """Spectrum of the Lanczos pairs, refined once if they miss RESIDUAL_TOL.

    Pairs that already pass are kept as they are: the refinement step has
    its own round-off floor (about 1e-10) above typical Lanczos residuals.
    """
    res = _residuals(pencil.K, pencil.M, vals, vecs)
    if res.size and res.max() > RESIDUAL_TOL:
        vals, vecs = _refine(pencil, lu, vecs)
        where = f"shift-invert (sigma={sigma:.6g}, k={k}, ncv={ncv})"
        res = _check_residuals(pencil.K, pencil.M, vals, vecs, where)
    return Spectrum(vals, vecs, int(kernel.sum()), tau, res, "shift-invert", False)


def solve(pencil, k: int | None = None, hint: float | None = None) -> Spectrum:
    """Lowest non-kernel eigenpairs of K x = lambda M x.

    k = None computes the full spectrum (dense path only).  With an
    analytic eigenvalue estimate hint, both paths return the k lowest
    eigenpairs above 0.5 * hint, where the shift-invert target sits; a
    sparse k-solve needs the hint.
    """
    n = pencil.n_free
    lo = -np.inf if hint is None else 0.5 * hint
    if n <= DENSE_DIM or k is None:
        if n > DENSE_DIM:
            raise EigenSolverError(
                f"full-spectrum solve requested for dimension {n} > {DENSE_DIM}"
            )
        return _dense_solve(pencil, lo=lo, k=k)
    if hint is None:
        raise EigenSolverError(
            f"sparse solve for k={k} at dimension {n} needs an eigenvalue hint"
        )

    sigma = lo * 1.0000037  # avoid landing exactly on an eigenvalue
    lu = _factorize(pencil, sigma)
    k_req = min(k + 5, n - 1)
    vals, vecs, ncv = _eigsh_guarded(pencil, lu, k_req, sigma, "LA")
    kernel, tau = filter_kernel(vals)
    idx = np.nonzero(~kernel)[0][:k]
    if len(idx) < k:
        raise EigenSolverError(
            f"found only {len(idx)} non-kernel eigenvalues (requested {k})"
        )
    return _refined_spectrum(
        pencil, lu, vals[idx], vecs[:, idx], kernel, tau, sigma, k_req, ncv
    )


def solve_window(pencil, lam_hi: float, lam_lo_guard: float, expect: int) -> Spectrum:
    """All non-kernel eigenpairs with lambda <= lam_hi.

    lam_lo_guard: no physical eigenvalue is expected below this value (used
    by the coverage certificate of the sparse path).  expect: estimate of
    the eigenvalue count inside the window, controlling the first Krylov
    request.
    """
    n = pencil.n_free
    if n <= DENSE_DIM:
        return _dense_solve(pencil, hi=lam_hi)

    # Shift inside the window: the kernel sits at distance sigma, strictly
    # beyond every window eigenvalue, so nearest-first convergence walks the
    # window from the inside out and the kernel never dominates the Krylov
    # space.
    sigma = 0.55 * lam_hi * 1.0000037
    d_wanted = max(sigma - lam_lo_guard, lam_hi - sigma)
    lu = _factorize(pencil, sigma)
    k_req = expect + 8
    for _ in range(12):
        k_req = min(k_req, n - 1)
        vals, vecs, ncv = _eigsh_guarded(pencil, lu, k_req, sigma, "LM")
        kernel, tau = filter_kernel(vals)
        covered = kernel.any() or np.abs(vals - sigma).max() >= d_wanted
        if not covered and k_req < n - 1:
            k_req = 2 * k_req
            continue
        idx = np.nonzero(~kernel & (vals <= lam_hi))[0]
        return _refined_spectrum(
            pencil, lu, vals[idx], vecs[:, idx], kernel, tau, sigma, k_req, ncv
        )
    raise EigenSolverError("window solve did not certify coverage")
