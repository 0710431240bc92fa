import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from torsionkit import linalg
from torsionkit.linalg import (AgmonError, StructuralError, _factor, _rank, _reorder,
                               as_cmatrix, check_agmon, complement_in_kernel, h_adjoint,
                               log_branch, rank_svd, spectral_projector)

from oracles import contour_projector, projector_from_bases


def split(a, cut):
    """spectral_projector at |z| <= cut from one Schur form of a, plus the projector."""
    small, big, big_eigs = spectral_projector(*sla.schur(a, output="complex"),
                                              lambda z: abs(z) <= cut)
    return projector_from_bases(small, big), small, big, big_eigs


def test_as_cmatrix_rejects_nan():
    with pytest.raises(StructuralError):
        as_cmatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rank_warning_band():
    a = np.diag([1.0, 1e-8, 1e-16])
    r = rank_svd(a)
    assert r.rank in (1, 2)
    assert r.ill_conditioned


def test_spaces_consistency():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    u, s, vh = _factor(a)
    rk = _rank(s, 0.0)
    k = vh[rk.rank:, :].conj().T
    assert k.shape == (6, 2)
    assert sla.norm(a @ k) < 1e-12
    c = u[:, :rk.rank]
    assert c.shape == (4, 4)


def test_spaces_take_one_svd_each(monkeypatch):
    rng = np.random.default_rng(1)
    a = (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))) @ \
        (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    calls = []
    gesdd = linalg._gesdd
    monkeypatch.setattr(linalg, "_gesdd", lambda m, uv: calls.append(uv) or gesdd(m, uv))
    monkeypatch.setattr(sla, "svd", None)
    monkeypatch.setattr(sla, "svdvals", None)
    u, s, vh = _factor(a)
    rk = _rank(s, 0.0)
    assert u[:, :rk.rank].shape == (5, 2)
    assert rk.rank == 2 and sla.norm(a @ vh[2:].conj().T) < 1e-12
    assert calls == [1]  # one full SVD (vectors computed) for both spaces


def test_spaces_of_zero_matrix_skip_the_svd(monkeypatch):
    monkeypatch.setattr(linalg, "_gesdd", None)
    monkeypatch.setattr(sla, "svd", None)
    z = np.zeros((3, 2), complex)
    u, s, vh = _factor(z)
    rk = _rank(s, 0.0)
    assert rk.rank == 0 and np.array_equal(vh, np.eye(2)) and np.array_equal(u, np.eye(3))
    assert u[:, :rk.rank].shape == (3, 0)
    _, s, vh = _factor(np.zeros((0, 3), complex))
    rk = _rank(s, 0.0)
    assert rk.rank == 0 and np.array_equal(vh, np.eye(3))


def test_complement_in_kernel():
    d0 = np.array([[1.0, 0.0, 0.0]], dtype=complex).T  # C -> C^3, image = e0
    ker = np.eye(3, dtype=complex)  # pretend everything is a cocycle
    u, s, _ = _factor(d0)
    img = u[:, :_rank(s, 0.0).rank]
    comp, ill = complement_in_kernel(ker, img)
    assert comp.shape == (3, 2)
    assert sla.norm(img.conj().T @ comp) < 1e-12
    assert not ill


# at n_img = 3, eps = 2.2e-10 and 2.3e-10 put ||proj||_F at 0.97e-9 and 1.01e-9
@pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-12, 1e-10, 2.2e-10, 2.3e-10, 1e-9,
                                 1e-8, 1e-6, 1e-3])
@pytest.mark.parametrize("n_img", [0, 2, 3])
def test_complement_shortcut_agrees_with_the_svd(monkeypatch, eps, n_img):
    # ker spans 3 of 6 dimensions; img is a frame inside ker tilted out of it by eps
    rng = np.random.default_rng(n_img)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    ker = q[:, :3]
    tilt = (ker @ rng.standard_normal((3, n_img))
            + eps * q[:, 3:] @ rng.standard_normal((3, n_img)))
    img = np.linalg.qr(tilt)[0] if n_img else np.zeros((6, 0), complex)
    svds = []
    gesdd = linalg._gesdd
    monkeypatch.setattr(linalg, "_gesdd", lambda a, uv: svds.append(1) or gesdd(a, uv))
    fast = complement_in_kernel(ker, img)
    shortcut = not svds
    proj = ker - img @ (img.conj().T @ ker)
    assert shortcut == (np.linalg.norm(proj) <= 1e-9)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "norm", lambda *a, **kw: np.inf)  # force the SVD path
        slow = complement_in_kernel(ker, img)
    assert fast[1] == slow[1]
    assert fast[0].shape == slow[0].shape == (6, 3 - n_img)
    assert fast[0].dtype == slow[0].dtype == np.complex128
    assert fast[0].tobytes() == slow[0].tobytes()
    if n_img == 3:
        assert shortcut == (eps <= 2.2e-10)


def test_h_adjoint_definition():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    hs = np.eye(2) + 0.2 * np.diag([1.0, -0.3])
    ht = np.eye(3) + 0.1 * np.diag([0.5, -0.2, 0.1])
    astar = h_adjoint(a, hs, ht)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = np.vdot(y, ht @ (a @ x))          # <a x, y>_tgt with numpy's conjugation
    rhs = np.vdot(astar @ y, hs @ x)
    assert abs(lhs - np.conj(rhs)) < 1e-12 or abs(lhs - rhs) < 1e-12


def test_spectral_projector_diagonal():
    a = np.diag([1.0, 9.0]).astype(complex)
    p, u, ub, eb = split(a, 4.0)
    assert sla.norm(p - np.diag([1.0, 0.0])) < 1e-12
    assert u.shape == (2, 1) and abs(abs(u[0, 0]) - 1.0) < 1e-12
    assert ub.shape == (2, 1) and abs(abs(ub[1, 0]) - 1.0) < 1e-12
    assert eb.shape == (1,) and abs(eb[0] - 9.0) < 1e-12


def test_spectral_projector_full_and_empty():
    a = np.diag([1.0, 2.0]).astype(complex)
    p_all, u_all, ub_all, eb_all = split(a, 10.0)
    assert sla.norm(p_all - np.eye(2)) < 1e-12
    assert sla.norm(u_all.conj().T @ u_all - np.eye(2)) < 1e-12
    assert ub_all.shape == (2, 0) and eb_all.shape == (0,)
    p_none, u_none, ub_none, eb_none = split(a, 0.5)
    assert sla.norm(p_none) < 1e-12 and u_none.shape == (2, 0)
    assert sla.norm(ub_none.conj().T @ ub_none - np.eye(2)) < 1e-12
    assert sla.norm(np.sort_complex(eb_none) - [1.0, 2.0]) < 1e-12
    empty = np.zeros((0, 0), dtype=complex)
    u_0, ub_0, eb_0 = spectral_projector(empty, empty, lambda z: True)
    assert u_0.shape == ub_0.shape == (0, 0) and eb_0.shape == (0,)


def test_spectral_projector_jordan_block_against_contour():
    # defective matrix: eigenvalue 2 Jordan block; cut at 1 selects nothing
    a = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    p, u, _, _ = split(a, 1.0)
    assert u.shape[1] == 0 and sla.norm(p) < 1e-12
    # and the contour oracle agrees: radius-1 circle encloses no spectrum
    pc = contour_projector(a, 1.0)
    assert sla.norm(pc) < 1e-8


def test_spectral_projector_nonnormal_against_contour():
    rng = np.random.default_rng(2)
    d = np.diag([0.5, 0.7, 3.0, 4.0]).astype(complex)
    g = np.eye(4) + 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = g @ d @ sla.inv(g)
    p, u, ub, _ = split(a, 1.5)
    pc = contour_projector(a, 1.5, n_nodes=4096)
    assert u.shape[1] == 2
    assert sla.norm(p - pc) < 1e-8
    assert sla.norm(p @ p - p) < 1e-10
    assert sla.norm(a @ p - p @ a) < 1e-10
    # the small basis spans the projector's range, the big one its kernel
    assert sla.norm(p @ u - u) < 1e-10
    assert sla.norm(p @ ub) < 1e-10


def _split_test_matrix(rng, n: int, jordan: bool):
    """(Q T Q^H, cut, eigenvalue tolerance): T upper triangular, Q random unitary.

    The eigenvalues lie in 0.2 <= |z| <= 1 or 2 <= |z| <= 5, so the cut
    |z| = 1.5 has a gap of 0.5 on each side.  jordan=True makes T a sum of
    Jordan blocks of sizes 1-3 (ones above the diagonal); otherwise T has a
    random strictly upper part of norm ~1.  Rounding eps ||A|| ~ 1e-13 moves
    an eigenvalue of a size-3 Jordan block by its cube root, ~5e-5, in each
    of the two computations compared (hence 1e-3), and a simple eigenvalue
    by its condition number times that (1e-9 allows conditions up to 1e4).
    """
    def eig():
        mod = rng.uniform(0.2, 1.0) if rng.random() < 0.5 else rng.uniform(2.0, 5.0)
        return mod * np.exp(2j * np.pi * rng.random())
    t = np.zeros((n, n), dtype=complex)
    if jordan:
        i = 0
        while i < n:
            k = min(int(rng.integers(1, 4)), n - i)
            t[i:i + k, i:i + k] = eig() * np.eye(k) + np.eye(k, k=1)
            i += k
    else:
        t = np.diag([eig() for _ in range(n)]) + np.triu(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) / np.sqrt(2 * n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ t @ q.conj().T, 1.5, (1e-3 if jordan else 1e-9)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1), jordan=st.booleans())
def test_spectral_projector_big_basis_and_eigenvalues(n, seed, jordan):
    a, cut, eig_tol = _split_test_matrix(np.random.default_rng(seed), n, jordan)
    _, small, big, big_eigs = split(a, cut)
    k = n - big.shape[1]
    assert small.shape == (n, k) and big_eigs.shape == (n - k,)
    # orthonormal, invariant, and complementary to the small basis
    assert sla.norm(big.conj().T @ big - np.eye(n - k), 2) < 1e-12
    ab = a @ big
    assert sla.norm(ab - big @ (big.conj().T @ ab), 2) < 1e-10 * sla.norm(a, 2)
    assert rank_svd(np.hstack([small, big])).rank == n
    # diag(T22) is the big side of the spectrum, as a multiset
    ref = sla.eigvals(a)
    ref = ref[np.abs(ref) > cut]
    assert ref.shape == big_eigs.shape
    rows, cols = linear_sum_assignment(np.abs(big_eigs[:, None] - ref[None, :]))
    assert np.all(np.abs(big_eigs[rows] - ref[cols]) < eig_tol)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1), jordan=st.booleans(),
       scale=st.floats(-3.0, 3.0))
def test_reordered_schur_form_is_the_sorted_one_bitwise(n, seed, jordan, scale):
    # zgees with sorting reorders its unsorted form by ztrsen: so does _reorder
    a, cut, _ = _split_test_matrix(np.random.default_rng(seed), n, jordan)
    a, cut = a * 10.0 ** scale, cut * 10.0 ** scale
    select = lambda z: abs(z) <= cut  # noqa: E731
    t, z, k = _reorder(*sla.schur(a, output="complex"), select)
    t_ref, z_ref, k_ref = sla.schur(a, output="complex", sort=select)
    assert k == k_ref
    assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)


def test_log_branch_window():
    th = -np.pi / 2
    v = log_branch(-2.0, th)
    assert abs(v - (np.log(2.0) + 1j * np.pi)) < 1e-14
    # exp of branch log recovers the value
    for w in (1.5, -0.3 + 0.2j, 2j):
        assert abs(np.exp(log_branch(w, th)) - w) < 1e-12


def test_check_agmon_raises_on_ray():
    with pytest.raises(AgmonError):
        check_agmon(np.array([np.exp(-0.5j)]), -0.5)
    check_agmon(np.array([np.exp(0.5j)]), -0.5)


# the kernels against scipy.linalg, bit for bit: 0 x n, n x 0, 1 x 1, tall, wide
# and rank-deficient shapes, at scales from 1e-3 to 1e3, with singular values
# spread over 15 decades so that they straddle lstsq's rcond cut
@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 12), cols=st.integers(0, 12), rank=st.integers(0, 12),
       nrhs=st.integers(1, 3), log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
@example(rows=0, cols=4, rank=0, nrhs=1, log_scale=0.0, seed=0)
@example(rows=4, cols=0, rank=0, nrhs=2, log_scale=0.0, seed=0)
@example(rows=1, cols=1, rank=1, nrhs=1, log_scale=0.0, seed=1)
@example(rows=9, cols=3, rank=2, nrhs=2, log_scale=2.0, seed=2)
@example(rows=3, cols=9, rank=1, nrhs=3, log_scale=-2.0, seed=3)
def test_kernels_return_scipys_bits(rows, cols, rank, nrhs, log_scale, seed):
    rng = np.random.default_rng(seed)

    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    r = min(rank, rows, cols)
    a = (cgauss(rows, r) * 10.0 ** (log_scale - rng.uniform(0.0, 15.0, r))) @ cgauss(r, cols)
    b = cgauss(rows, nrhs)

    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    assert all(map(same, linalg.svd(a), sla.svd(a)))
    assert same(linalg.lstsq(a, b), sla.lstsq(a, b)[0])
    assert same(linalg.norm(a), sla.norm(a))
    n = min(rows, cols)
    sq = a[:n, :n]
    assert same(linalg.eigvals(sq), sla.eigvals(sq))
    herm = sq + sq.conj().T
    assert same(linalg.eigvalsh(herm), sla.eigvalsh(herm))
    assert same(rank_svd(a).singular_values, sla.svdvals(a))
    if rows:
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.lstsq(a, np.full_like(b, np.nan))
    if a.size:
        bad = a.copy()
        bad.flat[rng.integers(a.size)] = rng.choice([np.nan, np.inf, -np.inf])
        for kernel in (linalg.svd, linalg.norm, lambda m: linalg.lstsq(m, b)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                kernel(bad)
        if n:
            for kernel in (linalg.eigvals, linalg.eigvalsh):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    kernel(np.full((n, n), np.nan))


def test_norm_of_an_overflowing_finite_matrix_is_inf():
    # a finite sum of squares proves every entry finite; an infinite one does
    # not, and then the entries decide
    big = np.full((2, 2), 1e300, dtype=complex)
    with np.errstate(over="ignore"):
        assert linalg.norm(big) == np.inf == sla.norm(big)


# the Cholesky verdict of ChiralityComplex.validate against the eigvalsh verdict
# it replaced, on Hermitian h whose smallest eigenvalue is drawn on both sides of 0
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), low=st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-6),
       seed=st.integers(0, 2**32 - 1))
def test_cholesky_verdict_matches_eigvalsh(n, low, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.concatenate([[low], rng.uniform(0.1, 10.0, n - 1)])
    h = (q * w) @ q.conj().T
    h = (h + h.conj().T) / 2
    assert linalg.positive_definite(h) == bool(np.min(sla.eigvalsh(h)) > 0)


def test_borderline_positive_definiteness():
    # smallest eigenvalue +-1e-17 ||h||, below rounding: the verdicts are
    # whatever the factorisation and the eigen solver meet, pinned as they
    # stand (on this h the two agree, and follow the sign)
    q, _ = np.linalg.qr(np.array([[1.0, 2.0j, 0.5], [0.3, 1.0, -1.0j], [2.0, 0.1, 1.0]]))
    verdicts = []
    for sign in (1.0, -1.0):
        h = (q * [sign * 1e-17, 1.0, 1.0]) @ q.conj().T
        h = (h + h.conj().T) / 2
        verdicts.append((linalg.positive_definite(h), bool(np.min(sla.eigvalsh(h)) > 0)))
    # exactly on the boundary both verdicts say "not positive definite"
    assert linalg.positive_definite(np.diag([1.0, 0.0]).astype(complex)) is False
    assert linalg.positive_definite(np.diag([1.0, 1e-300]).astype(complex)) is True
    assert verdicts == [(True, True), (False, False)]
