import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from _oracles import dense_spectrum
from axicav.assembly import AssembledPencil, assemble
from axicav.eigen import RESIDUAL_TOL, EigenSolverError, solve, solve_window
from axicav.fespace import build_pair
from axicav.formulation import ModeProblem, Transformation
from axicav.mesh import build_structured


def _pencil_from_dense(K, M):
    n = K.shape[0]
    return AssembledPencil(
        K=sparse.csr_matrix(K),
        M=sparse.csr_matrix(M),
        ndof_full=n,
        n_h1=n,
        free_to_full=np.arange(n),
        constrained=np.empty(0, dtype=int),
        n_free_h1=n,
    )


def _whole(pen):
    """The library's window up to the top eigenvalue: every non-kernel pair."""
    return solve_window(pen, 1.001 * dense_spectrum(pen)[0][-1])


def _physical(pen):
    """Reference eigenpairs above the kernel of a pencil whose kernel
    dimension is its free scalar dof count."""
    vals, vecs = dense_spectrum(pen)
    return vals[pen.n_free_h1:], vecs[:, pen.n_free_h1:]


def test_diagonal_pencil():
    pen = _pencil_from_dense(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]))
    spec = _whole(pen)
    assert np.allclose(spec.eigenvalues, [2.0, 4.0])


def test_kernel_filtering_in_solve():
    pen = _pencil_from_dense(np.diag([0.0, 2.0]), np.eye(2))
    spec = _whole(pen)
    assert spec.kernel_count == 1
    assert np.allclose(spec.eigenvalues, [2.0])


def test_identity_pencil_random_spd():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30))
    M = A @ A.T + 30 * np.eye(30)
    pen = _pencil_from_dense(M.copy(), M)
    spec = _whole(pen)
    assert np.allclose(spec.eigenvalues, 1.0, atol=1e-12)


def test_residuals_recorded():
    pen = _pencil_from_dense(np.diag([1.0, 4.0, 9.0]), np.eye(3))
    spec = _whole(pen)
    assert np.all(spec.residuals <= 1e-8)


@pytest.fixture(scope="module")
def coupled_pencil():
    mesh = build_structured(1.0, 1.0, 4)
    pair = build_pair(mesh, 2, 1)
    prob = ModeProblem(mesh=mesh, n=1, transformation=Transformation("TB"),
                       q=2, p=1, quad_degree=5)
    return assemble(prob, pair)


def test_kernel_dimension_equals_free_h1(coupled_pencil):
    spec = _whole(coupled_pencil)
    assert spec.kernel_count == coupled_pencil.n_free_h1


def test_azimuthal_block_has_empty_kernel():
    # The n=0 scalar block is a shifted-Laplace type operator: strictly positive.
    mesh = build_structured(1.0, 1.0, 4)
    pair = build_pair(mesh, 2, 1)
    prob = ModeProblem(mesh=mesh, n=0, transformation=Transformation("TB"),
                       q=2, p=1, quad_degree=8, block="azimuthal")
    pen = assemble(prob, pair)
    spec = _whole(pen)
    assert spec.kernel_count == 0
    assert spec.eigenvalues.min() > 1.0


def test_eigenvalues_invariant_under_renumbering(coupled_pencil):
    spec = _whole(coupled_pencil)
    rng = np.random.default_rng(1)
    perm = rng.permutation(coupled_pencil.n_free)
    P = sparse.coo_matrix(
        (np.ones(len(perm)), (np.arange(len(perm)), perm))
    ).tocsr()
    pen2 = AssembledPencil(
        K=(P @ coupled_pencil.K @ P.T).tocsr(),
        M=(P @ coupled_pencil.M @ P.T).tocsr(),
        ndof_full=coupled_pencil.ndof_full,
        n_h1=coupled_pencil.n_h1,
        free_to_full=np.arange(coupled_pencil.n_free),
        constrained=np.empty(0, dtype=int),
        n_free_h1=coupled_pencil.n_free_h1,
    )
    spec2 = _whole(pen2)
    a, b = spec.eigenvalues, spec2.eigenvalues
    m = min(len(a), len(b))
    assert np.max(np.abs(a[:m] - b[:m]) / np.abs(a[:m])) < 1e-10


def test_sparse_path_matches_dense(coupled_pencil):
    import axicav.eigen as eigen_mod

    lam = _physical(coupled_pencil)[0]
    old = eigen_mod.DENSE_DIM
    eigen_mod.DENSE_DIM = 10  # force the shift-invert path
    try:
        sparse_spec = solve(coupled_pencil, k=5, hint=float(lam[0]))
        win = solve_window(coupled_pencil, float(lam[4] * 1.0001))
    finally:
        eigen_mod.DENSE_DIM = old
    assert np.allclose(sparse_spec.eigenvalues, lam[:5], rtol=1e-9)
    assert np.allclose(win.eigenvalues, lam[:5], rtol=1e-9)
    assert sparse_spec.method == "shift-invert"


@pytest.mark.parametrize("j", [0, 4, 9])
def test_dense_k_solve_starts_above_half_hint(coupled_pencil, j):
    lam = _physical(coupled_pencil)[0]
    hint = float(lam[j] + lam[j + 1])  # hint / 2 between j, j + 1
    spec = solve(coupled_pencil, k=4, hint=hint)
    expect = lam[lam > 0.5 * hint][:4]
    assert spec.method == "dense"
    assert np.array_equal(spec.eigenvalues, expect)


def test_sparse_residual_failure_is_immediate(coupled_pencil, monkeypatch):
    import axicav.eigen as eigen_mod

    calls = []
    real_eigsh = eigen_mod.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs.get("ncv"))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    monkeypatch.setattr(eigen_mod, "RESIDUAL_TOL", 1e-30)
    monkeypatch.setattr(eigen_mod, "eigsh", counting_eigsh)
    with pytest.raises(EigenSolverError, match="sigma="):
        solve(coupled_pencil, k=5, hint=10.0)
    assert len(calls) == 1


def test_refinement_lowers_residual(coupled_pencil):
    from axicav.eigen import _factorize, _refine, _residuals

    lam, X = _physical(coupled_pencil)
    vals, vecs = lam[:3], X[:, :3]
    # Lanczos errors live mostly along the high end of the spectrum
    high = X[:, -10:]
    noisy = vecs + 1e-6 * high @ np.random.default_rng(3).standard_normal((10, 3))
    K, M = coupled_pencil.K, coupled_pencil.M
    before = _residuals(K, M, vals, noisy)
    lu = _factorize(coupled_pencil, 0.5 * float(vals[0]))
    ref_vals, ref_vecs = _refine(coupled_pencil, lu, noisy)
    after = _residuals(K, M, ref_vals, ref_vecs)
    assert after.max() < 1e-2 * before.max()
    assert np.allclose(ref_vals, vals, rtol=1e-10)


def test_window_solve_dense(coupled_pencil):
    hi = float(_physical(coupled_pencil)[0][2]) * 1.0001
    win = solve_window(coupled_pencil, hi)
    assert len(win.eigenvalues) == 3


@pytest.fixture(scope="module", params=[("TB", 2), ("TC(1,1)", 1)], ids=["TB-2", "TC11-1"])
def mapped_pencil(request):
    kind, n = request.param
    mesh = build_structured(1.0, 1.0, 6)
    prob = ModeProblem(mesh=mesh, n=n, transformation=Transformation.parse(kind),
                       q=3, p=2, quad_degree=12)
    return assemble(prob, build_pair(mesh, 3, 2))


@pytest.mark.parametrize("how", ["k", "window"])
def test_mapped_solve_matches_the_unmapped_pencil(mapped_pencil, how):
    pen = mapped_pencil
    assert pen.kernel_basis is not None

    mapped = solve(pen, k=6, hint=40.0) if how == "k" else solve_window(pen, 80.0)
    full = _whole(dataclasses.replace(pen, kernel_basis=None))
    lam = full.eigenvalues
    ref = lam[lam > 20.0][:6] if how == "k" else lam[lam <= 80.0]
    assert mapped.method == "shift-invert" and full.method == "dense"
    assert len(mapped.eigenvalues) == len(ref) > 0
    rel = np.abs(mapped.eigenvalues - ref) / ref
    assert rel.max() <= 1e-12
    for spec in (mapped, full):
        assert spec.kernel_count == pen.n_free_h1
        V = spec.eigenvectors
        assert np.abs(V.T @ (pen.M @ V) - np.eye(V.shape[1])).max() < 1e-10
        assert spec.residuals.max() <= RESIDUAL_TOL
    assert mapped.kernel_exact and mapped.kernel_threshold == 0.0
    assert not full.kernel_exact and full.kernel_threshold > 0.0


def test_lanczos_nonconvergence_retried_once(coupled_pencil, monkeypatch):
    import axicav.eigen as eigen_mod

    calls = []

    def stalled_eigsh(*args, **kwargs):
        calls.append(kwargs["ncv"])
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    monkeypatch.setattr(eigen_mod, "eigsh", stalled_eigsh)
    with pytest.raises(EigenSolverError, match=r"k=\d+, ncv=\d+, sigma="):
        solve(coupled_pencil, k=5, hint=10.0)
    assert calls == [calls[0], 2 * calls[0] + 10]


def test_first_lanczos_attempt_has_the_smaller_restart_budget(coupled_pencil, monkeypatch):
    import axicav.eigen as eigen_mod

    budgets = []

    def stalled_eigsh(*args, **kwargs):
        budgets.append(kwargs["maxiter"])
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    monkeypatch.setattr(eigen_mod, "eigsh", stalled_eigsh)
    with pytest.raises(EigenSolverError):
        solve(coupled_pencil, k=5, hint=10.0)
    assert budgets == [eigen_mod.FIRST_MAXITER, eigen_mod.RETRY_MAXITER]


def test_shifted_pencil_is_factored_in_symmetric_mode():
    from scipy.sparse.linalg import splu

    from axicav.eigen import _factorize

    mesh = build_structured(1.0, 1.0, 16)
    prob = ModeProblem(mesh=mesh, n=1, transformation=Transformation("TB"),
                       q=3, p=2, quad_degree=7)
    pen = assemble(prob, build_pair(mesh, 3, 2))
    sigma = 30.0
    lu = _factorize(pen, sigma)
    plain = splu((pen.K - sigma * pen.M).T.tocsc())
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.L.nnz + lu.U.nnz < 0.5 * (plain.L.nnz + plain.U.nnz)


def test_window_lanczos_projects_out_the_kernel(coupled_pencil, monkeypatch):
    import axicav.eigen as eigen_mod

    lam = _physical(coupled_pencil)[0]
    calls = []
    real_eigsh = eigen_mod.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs["ncv"])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    monkeypatch.setattr(eigen_mod, "eigsh", counting_eigsh)
    win = solve_window(coupled_pencil, float(lam[4] * 1.0001))
    assert len(calls) == 1
    assert win.method == "shift-invert"
    assert win.kernel_exact and win.kernel_count == coupled_pencil.n_free_h1
    assert np.allclose(win.eigenvalues, lam[:5], rtol=1e-9, atol=0.0)


def test_tb_convergence_needs_no_refinement(monkeypatch):
    # The cavity whose TB N = 32 pencil left Lanczos residuals above
    # RESIDUAL_TOL under unsymmetric SuperLU factors.
    import axicav.eigen as eigen_mod
    import axicav.studies as studies
    from axicav.studies import build_study_config, run_convergence

    spectra, refined = [], []
    real_solve, real_refine = studies.solve, eigen_mod._refine

    def recording_solve(*args, **kwargs):
        spectra.append(real_solve(*args, **kwargs))
        return spectra[-1]

    def counting_refine(*args, **kwargs):
        refined.append(True)
        return real_refine(*args, **kwargs)

    monkeypatch.setattr(studies, "solve", recording_solve)
    monkeypatch.setattr(eigen_mod, "_refine", counting_refine)
    cfg = build_study_config({
        "study": "converge", "transforms": "TB", "n": "1", "q": "3", "p": "2",
        "target": "TE,1,1,1", "mesh_ladder": "4,8,16,32",
        "R": "0.5458329802810611", "L": "0.549846141265144",
    })
    rows, slopes = run_convergence(cfg)
    assert [s.method for s in spectra] == ["shift-invert"] * 4
    assert not refined
    assert max(s.residuals.max() for s in spectra) <= 1e-10
    assert 3.6 <= slopes["TB"] <= 4.6


@pytest.fixture(scope="module")
def td_pencil():
    # TD at |n| > 1 has no exact kernel basis: the kernel is thresholded.
    mesh = build_structured(1.0, 1.0, 4)
    prob = ModeProblem(mesh=mesh, n=2, transformation=Transformation("TD"),
                       q=3, p=2, quad_degree=12)
    pen = assemble(prob, build_pair(mesh, 3, 2))
    assert pen.kernel_basis is None
    return pen


@pytest.mark.parametrize("which", ["mapped", "unmapped"])
def test_inertia_counts_the_eigenvalues_below_the_shift(coupled_pencil, td_pencil, which):
    from axicav.eigen import _factorize, _inertia

    pen = coupled_pencil if which == "mapped" else td_pencil
    vals = dense_spectrum(pen)[0]
    # shifts between the kernel and the first mode, and between later modes
    for j in _whole(pen).kernel_count - 1 + np.array([0, 1, 5, 20, 60]):
        s = 0.5 * (vals[j] + vals[j + 1])
        assert _inertia(_factorize(pen, s)) == j + 1


def test_inertia_refuses_an_unsymmetric_factor():
    from types import SimpleNamespace

    from axicav.eigen import _inertia

    lu = SimpleNamespace(perm_r=np.array([0, 1]), perm_c=np.array([1, 0]),
                         U=sparse.identity(2, format="csc"))
    with pytest.raises(EigenSolverError, match="perm_r"):
        _inertia(lu)


def test_unmapped_sparse_window_matches_the_dense_window(td_pencil, monkeypatch):
    import axicav.eigen as eigen_mod
    from axicav.analytic import pillbox_spectrum

    modes = pillbox_spectrum(1.0, 1.0, 2, 200.0)
    lam_cut = 0.5 * (modes[7].lam + modes[8].lam)
    dense = solve_window(td_pencil, lam_cut)
    monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    win = solve_window(td_pencil, lam_cut)
    assert dense.method == "dense" and win.method == "shift-invert"
    assert len(win.eigenvalues) == len(dense.eigenvalues) == 73
    assert np.allclose(win.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=0.0)
    assert win.kernel_count == dense.kernel_count
    assert win.kernel_threshold == dense.kernel_threshold == eigen_mod.KERNEL_REL * lam_cut
    assert win.residuals.max() <= RESIDUAL_TOL


@pytest.mark.parametrize("N", [4, 8, 12])
def test_dense_k_solve_counts_the_kernel_below_its_last_eigenvalue(N):
    # Without a kernel basis the threshold follows the top of the solve, as
    # on every other path, not the largest eigenvalue of the pencil.
    from axicav.eigen import KERNEL_REL, _dense_pays, _factorize, _inertia

    mesh = build_structured(1.0, 1.0, N)
    prob = ModeProblem(mesh=mesh, n=2, transformation=Transformation("TD"),
                       q=3, p=2, quad_degree=12)
    pen = assemble(prob, build_pair(mesh, 3, 2))
    k = pen.n_free // 16 + 1
    assert pen.kernel_basis is None and _dense_pays(pen, k)
    spec = solve(pen, k=k, hint=2.0)
    assert spec.method == "dense" and len(spec.eigenvalues) == k
    tau = spec.kernel_threshold
    assert tau == KERNEL_REL * max(1.0, spec.eigenvalues[-1])
    assert spec.kernel_count == _inertia(_factorize(pen, tau))


@pytest.mark.parametrize("path", ["dense", "shift-invert"])
def test_empty_window_carries_the_kernel_count(coupled_pencil, monkeypatch, path):
    import axicav.eigen as eigen_mod

    lam_hi = 0.5 * float(_physical(coupled_pencil)[0][0])
    if path == "shift-invert":
        monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    win = solve_window(coupled_pencil, lam_hi)
    assert win.method == path
    assert win.eigenvalues.shape == win.residuals.shape == (0,)
    assert win.eigenvectors.shape == (coupled_pencil.n_free, 0)
    assert win.kernel_exact and win.kernel_count == coupled_pencil.n_free_h1


def test_n0_tm_convergence_solves_the_inplane_block_by_shift_invert(monkeypatch):
    # The in-plane block of an n = 0 TM study: its kernel is range G_s, so
    # the k-solve neither needs dense storage nor thresholds the kernel.
    import axicav.studies as studies
    from axicav.studies import build_study_config, run_convergence

    solved = []
    real_solve = studies.solve

    def recording_solve(pencil, *args, **kwargs):
        solved.append((pencil, real_solve(pencil, *args, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(studies, "solve", recording_solve)
    cfg = build_study_config({
        "study": "converge", "transforms": "TB;TC(1,2)", "n": "0", "q": "3", "p": "2",
        "quad_degree": "12", "target": "TM,0,1,0", "mesh_ladder": "4,8,16",
        "R": "1.58896231827513", "L": "1.5864125813982266",
    })
    rows, slopes = run_convergence(cfg)
    pen, spec = solved[2]
    assert pen.n_free == 3792
    assert spec.method == "shift-invert" and spec.kernel_exact
    G_s = pen.kernel_basis
    assert spec.kernel_count == G_s.shape[1] == np.linalg.matrix_rank(
        (G_s.T @ G_s).toarray(), hermitian=True)
    assert 3.6 <= slopes["TB"] <= 4.6


def _diagonal_pencil(vals):
    return _pencil_from_dense(np.diag(vals), np.eye(len(vals)))


def test_window_count_finds_the_neighbours_of_a_crowded_point():
    # Two eigenvalues lie between lam = 4 and the shift 4 (1 + 3.7e-6), so
    # the first pair found below the shift is not the nearest one below lam.
    from axicav.eigen import count_window

    window = np.concatenate([np.linspace(1.0, 3.5, 60), [4.000004, 4.000008],
                             np.linspace(4.5, 7.5, 60)])
    win = count_window(_diagonal_pencil(np.concatenate([np.zeros(5), window, [9.0, 12.0]])),
                       8.0)
    assert (win.kernel_count, win.count) == (5, len(window))
    near = win.nearest(4.0)
    assert np.any(np.isclose(near, 3.5, rtol=1e-12, atol=0.0))
    assert np.any(np.isclose(near, 4.000004, rtol=1e-12, atol=0.0))
    assert np.any(np.isclose(near, 4.5, rtol=1e-12, atol=0.0))
    # counts inside the gap that nearest found and outside it agree with the spectrum
    for s in (1.7, 3.9, 4.0, 4.000006, 4.2, 6.0, 8.0):
        assert win.below(s) == np.searchsorted(window, s)


def test_solve_window_takes_a_counted_window(monkeypatch):
    import axicav.eigen as eigen_mod

    pen = _diagonal_pencil(np.linspace(1.0, 10.0, 80))
    win = eigen_mod.count_window(pen, 8.0)
    monkeypatch.setattr(eigen_mod, "count_window", None)  # the window is not counted again
    spec = solve_window(pen, 8.0, win)
    assert np.allclose(spec.eigenvalues, np.linspace(1.0, 10.0, 80)[:win.count], rtol=1e-12)
    for other in ((pen, 7.0), (_diagonal_pencil(np.linspace(1.0, 10.0, 80)), 8.0)):
        with pytest.raises(ValueError, match="another pencil or up to another lam_hi"):
            solve_window(*other, win)


def test_window_count_errors_name_the_window_and_the_shift(monkeypatch):
    import axicav.eigen as eigen_mod

    win = eigen_mod.count_window(_diagonal_pencil(np.linspace(1.0, 10.0, 80)), 8.0)
    real = eigen_mod._eigsh_guarded

    def wrong_side(pencil, lu, k, sigma, which, project=None):
        vals, vecs, ncv = real(pencil, lu, k, sigma, which, project)
        return vals + 1.0, vecs, ncv

    monkeypatch.setattr(eigen_mod, "_eigsh_guarded", wrong_side)
    with pytest.raises(EigenSolverError, match=r"window \(8e-08, 8\], omega=2, sigma=4\.00001"):
        win.nearest(4.0)


@pytest.mark.parametrize("path", ["dense", "shift-invert"])
def test_window_part_above_a_point_is_counted_and_solved_alone(monkeypatch, path):
    import axicav.eigen as eigen_mod

    if path == "shift-invert":
        monkeypatch.setattr(eigen_mod, "DENSE_DIM", 10)
    vals = np.concatenate([np.zeros(5), np.linspace(1.0, 10.0, 80)])
    pen = _diagonal_pencil(vals)
    win = eigen_mod.count_window(pen, 8.0)
    top = win.above(6.0)
    inside = vals[(vals > 6.0) & (vals <= 8.0)]
    assert (top.count, top.kernel_count, top.tau) == (len(inside), 5, win.tau)
    assert top.below(7.0) == np.count_nonzero(inside < 7.0)
    spec = solve_window(pen, 8.0, top)
    assert spec.method == path
    assert np.allclose(spec.eigenvalues, inside, rtol=1e-12, atol=0.0)
    assert (spec.kernel_count, spec.kernel_threshold) == (5, win.tau)
    for lo in (win.tau, 8.0, 9.0):
        with pytest.raises(ValueError, match="does not hold the lower end"):
            win.above(lo)
    if path == "shift-invert":
        # a Lanczos pair at or below the lower end is refused
        real = eigen_mod._eigsh_guarded

        def shifted_down(pencil, lu, k, sigma, which, project=None):
            vals, vecs, ncv = real(pencil, lu, k, sigma, which, project)
            return vals - 0.5, vecs, ncv

        monkeypatch.setattr(eigen_mod, "_eigsh_guarded", shifted_down)
        with pytest.raises(EigenSolverError, match=r"window \(6, 8\], sigma=7\.00003"):
            top.solve()
