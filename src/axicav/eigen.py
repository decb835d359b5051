"""Generalized symmetric eigensolver with gradient-kernel removal.

The H(curl) spaces carry a large discrete gradient kernel: the curl-curl
pencil has a zero eigenvalue of multiplicity equal to the number of free
scalar dofs (n != 0, q <= p + 1) or to the number of scalar potentials off
the PEC walls (n = 0).  One rule counts it on every path (_kernel): with a
sparse basis Z of ker K from assembly (AssembledPencil.kernel_basis), Z's
column count, nothing thresholded; without one (TD with |n| > 1, unpaired
orders), the eigenvalues below tau = KERNEL_REL * max(1, top), top being a
window's upper end or the last eigenvalue a k-solve returns.

Windows are counted before they are solved (count_window): the negative
pivots of a symmetric-mode factor of K - s M number the eigenvalues below
s (_inertia), so the window (tau, lam_hi] holds count = #below(lam_hi) -
kernel eigenvalues.  WindowCount.solve computes exactly those count pairs,
from one eigh or from one shift-invert Lanczos call at the window's
midpoint sigma for the count largest |theta| under theta = 1/(lambda -
sigma), on P (K - sigma M)^-1 with P the M-orthogonal projector off range
Z, so the degenerate kernel cluster is not in the Krylov space at all.  A
window flooded with spurious eigenvalues need not be solved whole: its part
(lo, lam_hi] above a point is a window of its own (WindowCount.above, one
more factorization), and more inertia counts and the eigenvalues nearest a
few points describe the rest without solving it.  The k-lowest
solve takes the k lowest eigenvalues above half the analytic hint: a slice
of one eigh, or the largest algebraic thetas at sigma = hint / 2, the modes
above sigma; the kernel (theta = -1/sigma) never competes.  One rule
(_dense_pays) picks dense storage for every pencil.

Every shift-invert Lanczos call stops when ARPACK's Ritz estimate of each
wanted pair is at most LANCZOS_TOL relative to its theta, not at machine
precision (ARPACK's default).  Nothing reads the eigenvector digits that
the extra restarts would add: eigenvalues are the Rayleigh quotients of
the Lanczos vectors on (K, M), whose error is second order in the vector
error.  Residuals are always checked on the original pencil.  The
factors of K - sigma M drive the Lanczos iteration and, when a Lanczos
pair misses RESIDUAL_TOL, one step of subspace inverse iteration with a
Rayleigh-Ritz projection; a residual still above RESIDUAL_TOL after that
step is an EigenSolverError, never a retry.  Lanczos that does not
converge within a bounded number of restarts is retried once on a larger
subspace, then fails.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

__all__ = ["Spectrum", "EigenSolverError", "solve", "solve_window", "count_window", "DENSE_DIM"]

DENSE_DIM = 6000
KERNEL_REL = 1e-8
RESIDUAL_TOL = 1e-8
# ARPACK's relative Ritz tolerance, the same for every shift-invert Lanczos
# call.  Pencil residuals on the benchmark workloads stay at most 1e-11, as at
# machine precision, three orders of magnitude under RESIDUAL_TOL; at 1e-10
# and 1e-8 single window residuals rose to 2e-11 and 3.3e-9.
LANCZOS_TOL = 1e-12


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


def _kernel(pencil, top: float):
    """(kernel count, threshold tau) of a solve up to top: Z's columns and
    tau = 0 with a kernel basis, else the inertia below
    tau = KERNEL_REL * max(1, top)."""
    if pencil.kernel_basis is not None:
        return pencil.kernel_basis.shape[1], 0.0
    tau = KERNEL_REL * max(1.0, top)
    return _inertia(_factorize(pencil, tau)), tau


# Restart budgets of the Lanczos attempts.  At LANCZOS_TOL, converging first
# attempts take at most 6 restarts on the benchmark workloads (seed 1,
# cavities 0-2) and 16 in the test suite, and no attempt there needs the
# retry, so a first attempt still running after FIRST_MAXITER has stalled
# and hands over to the retry.
FIRST_MAXITER = 300
RETRY_MAXITER = 5000


def _eigsh_guarded(pencil, lu, k, sigma, which, project=None):
    """eigsh on the given factors, with the shift-invert operator followed
    by project (and the start vector projected) when one is given.  ARPACK
    stops when every wanted Ritz estimate is within LANCZOS_TOL of its
    theta: the k = 2 target solve of a quadsweep pencil at N = 32 (ncv =
    20) makes 21 operator applications, 38 at machine precision.  When
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
                ncv=ncv, maxiter=maxiter, v0=v0, OPinv=op_inv, tol=LANCZOS_TOL,
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


def solve(pencil, k: int, hint: float) -> Spectrum:
    """The k lowest eigenpairs of K x = lambda M x above the floor
    0.5 * hint, where the shift-invert shift sits; fewer when fewer lie
    there.  Exactly k pairs are asked of Lanczos, none more: the kernel
    (theta = -1/sigma) never competes with the "LA" thetas above the floor.
    The kernel is counted up to the last returned eigenvalue (_kernel).
    """
    lo = 0.5 * hint
    k = min(k, pencil.n_free - 1)
    if _dense_pays(pencil, k):
        vals, vecs = _eigh(pencil)
        keep = np.nonzero(vals > lo)[0][:k]
        vals, vecs, lu, where = vals[keep], vecs[:, keep], None, "dense"
    else:
        sigma = lo * 1.0000037  # avoid landing exactly on an eigenvalue
        lu = _factorize(pencil, sigma)
        vals, vecs, ncv = _eigsh_guarded(pencil, lu, k, sigma, "LA")
        where = f"shift-invert (sigma={sigma:.6g}, k={k}, ncv={ncv})"
    kernel_count, tau = _kernel(pencil, float(vals[-1]) if vals.size else lo)
    return _spectrum(pencil, vals, vecs, kernel_count, tau, where, lu)


def solve_window(pencil, lam_hi: float, window: WindowCount | None = None) -> Spectrum:
    """All non-kernel eigenpairs with lambda <= lam_hi: the window is counted
    by inertia, then exactly that many pairs are computed
    (count_window(pencil, lam_hi).solve()).  A window already counted on
    this pencil up to lam_hi, whole or its part above some lo
    (WindowCount.above), is passed as `window`, not counted again, and
    solved."""
    if window is None:
        window = count_window(pencil, lam_hi)
    elif window.pencil is not pencil or window.lam_hi != lam_hi:
        raise ValueError("window was counted on another pencil or up to another lam_hi")
    return window.solve()


@contextmanager
def _named(where: str):
    """Prefixes where to the message of an EigenSolverError raised inside."""
    try:
        yield
    except EigenSolverError as exc:
        raise EigenSolverError(f"{where}: {exc}") from exc


@dataclass
class WindowCount:
    """The eigenvalues of a pencil in the window (lo, lam_hi], counted by
    inertia (count_window: lo = tau, the kernel's threshold): further
    counts and the part above a point (above) take one factorization each,
    the eigenvalues nearest a point a few shift-invert pairs, and solve()
    computes them all."""

    pencil: object = field(repr=False)
    lam_hi: float
    kernel_count: int
    tau: float
    count: int
    lo: float
    # non-kernel eigenvalues in (tau, lo), below the window
    skipped: int = 0
    # (lo, hi, n): no window eigenvalue lies in (lo, hi), n lie below it
    gaps: list = field(default_factory=list, repr=False)

    def _where(self) -> str:
        return f"window ({self.lo:.6g}, {self.lam_hi:.6g}]"

    @cached_property
    def _project(self):
        """The kernel projector of window Lanczos, or None (_kernel_projector)."""
        return _kernel_projector(self.pencil)

    def below(self, s: float) -> int:
        """Number of window eigenvalues below s, lo < s <= lam_hi: one
        factorization, none when s lies in a gap that nearest found."""
        if s == self.lam_hi:
            return self.count
        for lo, hi, n in self.gaps:
            if lo < s <= hi:
                return n
        with _named(f"{self._where()}, count below {s:.6g}"):
            return _inertia(_factorize(self.pencil, s)) - self.kernel_count - self.skipped

    def above(self, lo: float) -> WindowCount:
        """The window's part (lo, lam_hi], self.lo < lo < lam_hi: the same
        pencil and kernel, and count less the eigenvalues below lo (one
        factorization, below)."""
        if not self.lo < lo < self.lam_hi:
            raise ValueError(f"{self._where()} does not hold the lower end {lo:.6g}")
        n = self.below(lo)
        return WindowCount(self.pencil, self.lam_hi, self.kernel_count, self.tau,
                           self.count - n, lo, self.skipped + n)

    def nearest(self, lam: float) -> np.ndarray:
        """Window eigenvalues around lam, lo < lam < lam_hi: a set that holds
        the nearest one on each side of lam, from one factorization at
        sigma = lam (1 + 3.7e-6).

        Inertia tells which sides of sigma hold window eigenvalues; one
        shift-invert Lanczos call, with the kernel projected out as in a
        window solve, finds the nearest one on each such side, the extreme
        thetas ("BE": the most negative theta lies below sigma, the largest
        above).  While the pairs found below sigma all lie in
        [lam, sigma), more are taken ("SA"), so that the set holds the
        nearest one below lam too.  Every pair passes the residual check.
        """
        sigma = lam * 1.0000037
        with _named(f"{self._where()}, omega={np.sqrt(lam):.6g}, sigma={sigma:.6g}"):
            lu = _factorize(self.pencil, sigma)
            n_below = _inertia(lu) - self.kernel_count - self.skipped
            if 0 < n_below < self.count:
                vals = self._pairs(lu, 2, sigma, "BE").eigenvalues
            else:
                vals = self._pairs(lu, 1, sigma, "SA" if n_below else "LA").eigenvalues
            below, above = vals[vals < sigma], vals[vals > sigma]
            k = 1
            while k < n_below and below[0] >= lam:
                k = min(2 * k, n_below)
                below = self._pairs(lu, k, sigma, "SA").eigenvalues
        lo = below[-1] if below.size else self.lo
        self.gaps.append((lo, above[0] if above.size else self.lam_hi, n_below))
        return np.concatenate([below, above])

    def solve(self) -> Spectrum:
        """The count eigenpairs of the window, ascending: kept above the
        kernel and the skipped eigenvalues from one eigh when dense storage
        pays (_dense_pays), else from one shift-invert Lanczos call at the
        window's midpoint ("LM", the kernel projected out).  A pair outside
        the window is an EigenSolverError; an empty window computes
        nothing."""
        pencil, count = self.pencil, self.count
        if count <= 0:
            empty = np.empty(0)
            return Spectrum(empty, np.empty((pencil.n_free, 0)), self.kernel_count, self.tau,
                            empty, "dense" if _dense_pays(pencil, 0) else "shift-invert")
        if not _dense_pays(pencil, count):
            sigma = 0.5 * (self.lo + self.lam_hi) * 1.0000037
            with _named(f"{self._where()}, sigma={sigma:.6g}"):
                return self._pairs(_factorize(pencil, sigma), count, sigma, "LM")
        vals, vecs = _eigh(pencil)
        first = self.kernel_count + self.skipped
        vals, vecs = vals[first:first + count], vecs[:, first:first + count].copy()
        if vals[0] <= self.lo or vals[-1] > self.lam_hi:
            raise EigenSolverError(
                f"{self._where()} holds {count} eigenvalues, but dense returned "
                f"[{vals[0]:.6g}, {vals[-1]:.6g}]"
            )
        return _spectrum(pencil, vals, vecs, self.kernel_count, self.tau, "dense")

    def _pairs(self, lu, k, sigma, which) -> Spectrum:
        """Window eigenpairs by shift-invert Lanczos: the k nearest sigma
        ("LM"), the k below it ("SA"), the k above it ("LA"), or one on each
        side ("BE", k = 2).  An EigenSolverError unless they lie in the
        window, on those sides of sigma, and pass the residual check."""
        vals, vecs, ncv = _eigsh_guarded(self.pencil, lu, k, sigma, which, self._project)
        where = f"shift-invert ({which}, k={k}, ncv={ncv})"
        n_lo = {"SA": k, "LA": 0, "BE": 1}.get(which)
        if ((n_lo is not None and np.count_nonzero(vals < sigma) != n_lo)
                or vals[0] <= self.lo or vals[-1] > self.lam_hi):
            raise EigenSolverError(f"{where} returned {np.array2string(vals, precision=6)}")
        return _spectrum(self.pencil, vals, vecs, self.kernel_count, self.tau, where, lu)


def count_window(pencil, lam_hi: float) -> WindowCount:
    """The window (tau, lam_hi] of non-kernel eigenvalues, counted by inertia:
    count = #below(lam_hi) - kernel_count.  No eigenpair is computed; the
    result answers further counts (WindowCount.below), cuts the window at
    a lower end (WindowCount.above), finds the window eigenvalues nearest
    a point (WindowCount.nearest) or solves it."""
    with _named(f"window up to {lam_hi:.6g}"):
        kernel_count, tau = _kernel(pencil, lam_hi)
        count = _inertia(_factorize(pencil, lam_hi)) - kernel_count
    return WindowCount(pencil, lam_hi, kernel_count, tau, count, tau)
