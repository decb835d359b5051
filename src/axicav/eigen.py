"""Generalized symmetric eigensolver with gradient-kernel removal.

The full H(curl) spaces carry a large discrete gradient kernel: the
curl-curl pencil has a zero eigenvalue of multiplicity equal to the number
of free scalar dofs (for coupled problems with q = p + 1).  When assembly
supplies the kernel map cG (range [I; cG] is exactly the kernel, see
formulation.gradient_kernel_coefficient), kernel_count is n_free_h1 and
nothing is thresholded.  Pencils without a map (n = 0, TD with |n| > 1)
classify eigenvalues below a relative threshold as kernel.  Residuals are
always checked on the original pencil.

Window solves count before they solve: the negative pivots of a
symmetric-mode factor of K - s M number the eigenvalues below s
(_inertia), so the window (tau, lam_hi] holds count = #below(lam_hi) -
kernel eigenvalues, kernel being n_free_h1 with a map and #below(tau)
without one.  One shift-invert Lanczos call at the window's midpoint sigma
asks for exactly count pairs, which under theta = 1/(lambda - sigma) are
the count largest |theta|; a returned pair outside the window is an
EigenSolverError.  With a kernel map the window operator is
P (K - sigma M)^-1, P the M-orthogonal projector off range [I; cG], so the
degenerate kernel cluster is not in the Krylov space at all.  The k-lowest
solve shifts to half the analytic hint and takes the largest algebraic
thetas, the modes above sigma; the kernel (theta = -1/sigma) never
competes.  Dense storage (see _dense_pays) computes every eigenpair and
drops the kernel: the lowest n_free_h1 with a map, those below the
threshold without.

The factors of K - sigma M drive the Lanczos iteration and, when a Lanczos
pair misses RESIDUAL_TOL, one step of subspace inverse iteration with a
Rayleigh-Ritz projection; a residual still above RESIDUAL_TOL after that
step is an EigenSolverError, never a retry.  Lanczos that does not
converge within a bounded number of restarts is retried once on a larger
subspace, then fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
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

    @property
    def kernel_exact(self) -> bool:
        """Kernel removed exactly through the kernel map: nothing was
        thresholded."""
        return self.kernel_threshold == 0.0


def filter_kernel(raw: np.ndarray):
    """Partition eigenvalues into kernel (lambda < tau) and physical.

    tau = KERNEL_REL * max(1, largest computed eigenvalue).
    """
    raw = np.asarray(raw, dtype=float)
    lam_max = raw.max() if raw.size else 1.0
    tau = KERNEL_REL * max(1.0, lam_max)
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
    only those up to hi when hi is finite.  K and M, in Fortran order, are
    overwritten: LAPACK then works in place instead of on copies (at 3349
    dofs the peak falls from 605 to 435 MB, eigenvalues bit-identical)."""
    try:
        if np.isfinite(hi):
            return eigh(K, M, subset_by_value=(-np.inf, hi), overwrite_a=True, overwrite_b=True)
        return eigh(K, M, driver="gvd", overwrite_a=True, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"dense factorization failed: {exc}") from exc


def _dense_solve(pencil, lo=-np.inf, hi=np.inf, k=None) -> Spectrum:
    """Dense eigenpairs with lo < lambda <= hi, the k lowest of them.

    With a kernel map the lowest n_free_h1 eigenvalues are the kernel; any
    other pencil is solved in full and its eigenvalues below
    filter_kernel's threshold are dropped as kernel.
    """
    K, M = pencil.K.toarray(order="F"), pencil.M.toarray(order="F")
    if pencil.kernel_map is not None:
        vals, vecs = _eigh(K, M, hi)
        kernel_count, tau = pencil.n_free_h1, 0.0
        kernel = np.arange(len(vals)) < kernel_count
    else:
        vals, vecs = _eigh(K, M)
        kernel, tau = filter_kernel(vals)
        kernel_count = int(kernel.sum())
    idx = np.nonzero(~kernel & (vals > lo) & (vals <= hi))[0][:k]
    vals, vecs = vals[idx], vecs[:, idx]
    res = _check_residuals(pencil.K, pencil.M, vals, vecs, "dense")
    return Spectrum(vals, vecs, kernel_count, tau, res, "dense")


def _dense_pays(pencil, wanted: int) -> bool:
    """Whether a solve for `wanted` pairs runs in dense storage.

    Up to DENSE_DIM, a pencil without a kernel map always does: shift-invert
    Lanczos would have to separate its window from the unprojected kernel
    cluster.  A mapped pencil does only when the first Lanczos subspace,
    max(2 wanted + 1, 20) vectors, would span an eighth of it or more.
    """
    n = pencil.n_free
    return n <= DENSE_DIM and (
        pencil.kernel_map is None or 8 * max(2 * wanted + 1, 20) >= n
    )


def _symmetric_lu(A):
    """SuperLU of a symmetric matrix in symmetric mode: a minimum-degree
    ordering of A^T + A, and pivots taken from the diagonal unless a
    diagonal entry is exactly zero.  The pivot threshold stays exactly 0:
    a threshold lets row pivoting break the symmetric ordering (0.1 gave a
    15 times larger factor of the TB N = 32 pencil)."""
    return splu(
        A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _factorize(pencil, sigma: float):
    """Sparse LU of K - sigma M in symmetric mode: the shift-invert factors
    of a sparse solve, and the count of a window's eigenvalues (_inertia).

    The shifted pencil is symmetric, so the transpose of its CSR form is its
    CSC form.  A factor that pivots poorly shows up as eigenpair residuals
    on the original K and M, which are always checked.
    """
    try:
        return _symmetric_lu((pencil.K - sigma * pencil.M).T.tocsc())
    except RuntimeError as exc:
        raise EigenSolverError(
            f"factorization of K - sigma M failed (sigma={sigma:.6g}): {exc}"
        ) from exc


def _inertia(lu) -> int:
    """Number of eigenvalues below s of a pencil whose K - s M lu factors.

    With perm_r == perm_c the symmetric-mode factor is P^T (K - s M) P =
    L U with U = D L^T, so by Sylvester's law of inertia the negative
    entries of diag(U) count the negative eigenvalues of K - s M, which are
    the eigenvalues of (K, M) below s.  A factor whose row pivoting broke
    the symmetric ordering gives no count.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigenSolverError("shifted factor is not symmetric (perm_r != perm_c)")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _kernel_projector(pencil):
    """u -> P u, P = I - Z A^-1 (MZ)^T with A = Z^T M Z: the M-orthogonal
    projector off the kernel range Z = [I; cG], with A factored once."""
    nu, cG, M = pencil.n_free_h1, pencil.kernel_map, pencil.M
    MZ = M[:, :nu] + M[:, nu:] @ cG
    try:
        lu = _symmetric_lu((MZ[:nu] + cG.T @ MZ[nu:]).tocsc())
    except RuntimeError as exc:
        raise EigenSolverError(f"kernel mass matrix factorization failed: {exc}") from exc
    MZt = MZ.T.tocsr()

    def project(u):
        s = lu.solve(MZt @ u)
        out = u.copy()
        out[:nu] -= s
        out[nu:] -= cG @ s
        return out

    return project


# Restart budgets of the Lanczos attempts.  Converging first attempts take
# at most 7 restarts on the benchmark workloads and 12 in the test suite, and
# no attempt there needs the retry, so a first attempt still running after
# FIRST_MAXITER has stalled and hands over to the retry.
FIRST_MAXITER = 300
RETRY_MAXITER = 5000


def _eigsh_guarded(pencil, lu, k, sigma, which, project=None):
    """eigsh on the given factors, with the shift-invert operator followed
    by project (and the start vector projected) when one is given.  When
    Lanczos does not converge within FIRST_MAXITER restarts it runs once
    more with ncv = 2 ncv + 10, and fails after that.  A degenerate kernel
    cluster near the edge of the requested set is what stalls a window
    solve at the default subspace size; projecting the kernel out removes
    it.  Returns (vals, vecs, ncv used), vals the Rayleigh quotients of the
    Lanczos vectors on (K, M), ascending.
    """
    n = pencil.n_free
    first = min(n, max(2 * k + 1, 20))
    apply = lu.solve if project is None else (lambda u: project(lu.solve(u)))
    op_inv = LinearOperator((n, n), matvec=apply, dtype=float)
    # Fixed start vector: byte-identical spectra from run to run.
    v0 = np.random.default_rng(202406).standard_normal(n)
    if project is not None:
        v0 = project(v0)
    attempts = [(first, FIRST_MAXITER), (min(2 * first + 10, n), RETRY_MAXITER)]
    # no retry when the first subspace already spans the whole space
    for ncv, maxiter in attempts[:1] if first == n else attempts:
        try:
            _, vecs = eigsh(
                pencil.K, k=k, M=pencil.M, sigma=sigma, which=which,
                ncv=ncv, maxiter=maxiter, v0=v0, OPinv=op_inv,
            )
        except ArpackNoConvergence as exc:
            last = exc
            continue
        except Exception as exc:
            raise EigenSolverError(f"shift-invert iteration failed: {exc}") from exc
        # Rayleigh quotients on (K, M): second order in the vector error,
        # where sigma + 1/theta keeps the first-order round-off of the solves
        vals = np.einsum("ij,ij->j", vecs, pencil.K @ vecs) / np.einsum(
            "ij,ij->j", vecs, pencil.M @ vecs)
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


def _refined_spectrum(pencil, lu, vals, vecs, kernel_count, tau, sigma, k, ncv) -> Spectrum:
    """Spectrum of the Lanczos pairs, refined once if they miss RESIDUAL_TOL.

    Pairs that already pass are kept as they are: the refinement step has
    its own round-off floor (about 1e-10) above typical Lanczos residuals.
    """
    res = _residuals(pencil.K, pencil.M, vals, vecs)
    if res.size and res.max() > RESIDUAL_TOL:
        vals, vecs = _refine(pencil, lu, vecs)
        where = f"shift-invert (sigma={sigma:.6g}, k={k}, ncv={ncv})"
        res = _check_residuals(pencil.K, pencil.M, vals, vecs, where)
    return Spectrum(vals, vecs, kernel_count, tau, res, "shift-invert")


def solve(pencil, k: int | None = None, hint: float | None = None) -> Spectrum:
    """Lowest non-kernel eigenpairs of K x = lambda M x.

    k = None computes the full spectrum (dense path only).  With an
    analytic eigenvalue estimate hint, both paths return the k lowest
    eigenpairs above 0.5 * hint, where the shift-invert target sits; a
    sparse k-solve needs the hint.
    """
    n = pencil.n_free
    lo = -np.inf if hint is None else 0.5 * hint
    if k is None:
        if n > DENSE_DIM:
            raise EigenSolverError(
                f"full-spectrum solve requested for dimension {n} > {DENSE_DIM}"
            )
        return _dense_solve(pencil, lo=lo)
    k_req = min(k + 5, n - 1)
    if _dense_pays(pencil, k_req):
        return _dense_solve(pencil, lo=lo, k=k)
    if hint is None:
        raise EigenSolverError(
            f"sparse solve for k={k} at dimension {n} needs an eigenvalue hint"
        )

    sigma = lo * 1.0000037  # avoid landing exactly on an eigenvalue
    lu = _factorize(pencil, sigma)
    vals, vecs, ncv = _eigsh_guarded(pencil, lu, k_req, sigma, "LA")
    if pencil.kernel_map is None:
        kernel, tau = filter_kernel(vals)
        kernel_count = int(kernel.sum())
        vals, vecs = vals[~kernel], vecs[:, ~kernel]
    else:
        kernel_count, tau = pencil.n_free_h1, 0.0
    if len(vals) < k:
        raise EigenSolverError(
            f"found only {len(vals)} non-kernel eigenvalues (requested {k})"
        )
    return _refined_spectrum(
        pencil, lu, vals[:k], vecs[:, :k], kernel_count, tau, sigma, k_req, ncv
    )


def solve_window(pencil, lam_hi: float) -> Spectrum:
    """All non-kernel eigenpairs with lambda <= lam_hi.

    The sparse path counts the window by inertia first and then computes
    exactly that many pairs; a pair outside the window is an
    EigenSolverError.
    """
    if pencil.kernel_map is not None:
        tau, kernel_count = 0.0, pencil.n_free_h1
    elif pencil.n_free <= DENSE_DIM:
        return _dense_solve(pencil, hi=lam_hi)
    else:
        tau = KERNEL_REL * max(1.0, lam_hi)
        kernel_count = _inertia(_factorize(pencil, tau))
    count = _inertia(_factorize(pencil, lam_hi)) - kernel_count
    if _dense_pays(pencil, count):
        return _dense_solve(pencil, hi=lam_hi)

    sigma = 0.5 * (tau + lam_hi) * 1.0000037
    lu = _factorize(pencil, sigma)
    project = None if pencil.kernel_map is None else _kernel_projector(pencil)
    vals, vecs, ncv = _eigsh_guarded(pencil, lu, count, sigma, "LM", project)
    if vals[0] <= tau or vals[-1] > lam_hi:
        raise EigenSolverError(
            f"window ({tau:.6g}, {lam_hi:.6g}] holds {count} eigenvalues, but "
            f"shift-invert returned [{vals[0]:.6g}, {vals[-1]:.6g}]"
        )
    return _refined_spectrum(pencil, lu, vals, vecs, kernel_count, tau, sigma, count, ncv)
