"""Generalized symmetric eigensolver with gradient-kernel removal.

The H(curl) spaces carry a large discrete gradient kernel: the curl-curl
pencil has a zero eigenvalue of multiplicity equal to the number of free
scalar dofs (n != 0, q <= p + 1) or to the number of scalar potentials off
the PEC walls (n = 0).  Assembly supplies it as a sparse basis Z with
range Z = ker K (AssembledPencil.kernel_basis); then kernel_count is Z's
column count on every path and nothing is thresholded.  Pencils without a
basis (TD with |n| > 1, unpaired orders) count as kernel the eigenvalues
below tau = KERNEL_REL * max(1, top of the solve).  Residuals are always
checked on the original pencil.

Window solves count before they solve: the negative pivots of a
symmetric-mode factor of K - s M number the eigenvalues below s
(_inertia), so the window (tau, lam_hi] holds count = #below(lam_hi) -
kernel eigenvalues, kernel being Z's columns (tau = 0) or #below(tau).
Dense storage keeps exactly those count pairs above the kernel from one
full eigh; shift-invert Lanczos at the window's midpoint sigma asks for
exactly count pairs, the count largest |theta| under
theta = 1/(lambda - sigma), on P (K - sigma M)^-1 with P the M-orthogonal
projector off range Z, so the degenerate kernel cluster is not in the
Krylov space at all.  On both paths a pair outside the window is an
EigenSolverError, and an empty window computes nothing.  The k-lowest
solve shifts to half the analytic hint and takes the largest algebraic
thetas, the modes above sigma; the kernel (theta = -1/sigma) never
competes.  One rule (_dense_pays) picks dense storage for every pencil.

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
        """Kernel removed exactly through the kernel basis: nothing was
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


def _eigh(pencil):
    """All dense generalized eigenpairs (divide and conquer).  LAPACK
    overwrites Fortran-order copies of K and M instead of copying them
    again (at 3349 dofs the peak falls from 605 to 435 MB, eigenvalues
    bit-identical)."""
    K, M = pencil.K.toarray(order="F"), pencil.M.toarray(order="F")
    try:
        return eigh(K, M, driver="gvd", overwrite_a=True, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"dense factorization failed: {exc}") from exc


def _dense_solve(pencil, lo=-np.inf, k=None) -> Spectrum:
    """Dense eigenpairs with lambda > lo, the k lowest of them.

    With a kernel basis Z the lowest Z.shape[1] eigenvalues are the
    kernel; without one, those below filter_kernel's threshold.
    """
    vals, vecs = _eigh(pencil)
    if pencil.kernel_basis is not None:
        kernel_count, tau = pencil.kernel_basis.shape[1], 0.0
        kernel = np.arange(len(vals)) < kernel_count
    else:
        kernel, tau = filter_kernel(vals)
        kernel_count = int(kernel.sum())
    idx = np.nonzero(~kernel & (vals > lo))[0][:k]
    return _spectrum(pencil, vals[idx], vecs[:, idx], kernel_count, tau, "dense")


def _dense_pays(pencil, wanted: int) -> bool:
    """Whether a solve for `wanted` pairs runs in dense storage: up to
    DENSE_DIM, when the first Lanczos subspace, max(2 wanted + 1, 20)
    vectors, would span an eighth of the pencil or more."""
    return pencil.n_free <= DENSE_DIM and 8 * max(2 * wanted + 1, 20) >= pencil.n_free


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
    """u -> u - Z A^-1 (MZ)^T u with A = Z^T M Z: the M-orthogonal projector
    off the kernel range Z, with A factored once; None without kernel
    columns."""
    Z = pencil.kernel_basis
    if Z is None or Z.shape[1] == 0:
        return None
    MZ = pencil.M @ Z
    try:
        lu = _symmetric_lu((Z.T @ MZ).tocsc())
    except RuntimeError as exc:
        raise EigenSolverError(f"kernel mass matrix factorization failed: {exc}") from exc
    MZt = MZ.T.tocsr()
    return lambda u: u - Z @ lu.solve(MZt @ u)


def _kernel(pencil, lam_hi: float):
    """(kernel count, threshold tau) of a solve up to lam_hi: Z's columns
    and tau = 0 with a kernel basis, else the inertia below
    tau = KERNEL_REL * max(1, lam_hi)."""
    if pencil.kernel_basis is not None:
        return pencil.kernel_basis.shape[1], 0.0
    tau = KERNEL_REL * max(1.0, lam_hi)
    return _inertia(_factorize(pencil, tau)), tau


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


def _spectrum(pencil, vals, vecs, kernel_count, tau, where, lu=None) -> Spectrum:
    """Spectrum of the computed pairs; a residual above RESIDUAL_TOL is an
    EigenSolverError naming where the pairs came from.

    Shift-invert pairs (lu given) that miss RESIDUAL_TOL are refined once
    first.  Pairs that already pass are kept as they are: the refinement
    step has its own round-off floor (about 1e-10) above typical Lanczos
    residuals.
    """
    res = _residuals(pencil.K, pencil.M, vals, vecs)
    if lu is not None and res.size and res.max() > RESIDUAL_TOL:
        vals, vecs = _refine(pencil, lu, vecs)
        res = _residuals(pencil.K, pencil.M, vals, vecs)
    if res.size and res.max() > RESIDUAL_TOL:
        raise EigenSolverError(
            f"{where}: eigenpair residual {res.max():.3e} exceeds {RESIDUAL_TOL}"
        )
    return Spectrum(vals, vecs, kernel_count, tau, res, "dense" if lu is None else "shift-invert")


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
    kernel_count, tau = _kernel(pencil, float(vals[k - 1]))
    where = f"shift-invert (sigma={sigma:.6g}, k={k_req}, ncv={ncv})"
    return _spectrum(pencil, vals[:k], vecs[:, :k], kernel_count, tau, where, lu)


def solve_window(pencil, lam_hi: float) -> Spectrum:
    """All non-kernel eigenpairs with lambda <= lam_hi.

    The window is counted by inertia first, and exactly that many pairs are
    computed; a pair outside the window is an EigenSolverError.
    """
    kernel_count, tau = _kernel(pencil, lam_hi)
    count = _inertia(_factorize(pencil, lam_hi)) - kernel_count
    if count <= 0:
        empty = np.empty(0)
        return Spectrum(empty, np.empty((pencil.n_free, 0)), kernel_count, tau, empty,
                        "dense" if _dense_pays(pencil, 0) else "shift-invert")
    if _dense_pays(pencil, count):
        vals, vecs = _eigh(pencil)
        keep = slice(kernel_count, kernel_count + count)
        vals, vecs, lu, where = vals[keep], vecs[:, keep].copy(), None, "dense"
    else:
        sigma = 0.5 * (tau + lam_hi) * 1.0000037
        lu = _factorize(pencil, sigma)
        vals, vecs, ncv = _eigsh_guarded(pencil, lu, count, sigma, "LM", _kernel_projector(pencil))
        where = f"shift-invert (sigma={sigma:.6g}, k={count}, ncv={ncv})"
    if vals[0] <= tau or vals[-1] > lam_hi:
        raise EigenSolverError(
            f"window ({tau:.6g}, {lam_hi:.6g}] holds {count} eigenvalues, but "
            f"{where} returned [{vals[0]:.6g}, {vals[-1]:.6g}]"
        )
    return _spectrum(pencil, vals, vecs, kernel_count, tau, where, lu)
