import numpy as np
import pytest
import scipy.linalg as sla

from torsionkit.linalg import (RANK_RTOL, AgmonError, StructuralError, _svd, as_cmatrix,
                               check_agmon, col_space, complement_in_kernel, h_adjoint,
                               invariant_subspace, log_branch, rank_svd,
                               spectral_projector)

from oracles import contour_projector


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
    _, vh, rk = _svd(a, RANK_RTOL, 0.0, full_matrices=True)
    k = vh[rk.rank:, :].conj().T
    assert k.shape == (6, 2)
    assert sla.norm(a @ k) < 1e-12
    c = col_space(a)
    assert c.shape == (4, 4)


def test_spaces_take_one_svd_each(monkeypatch):
    rng = np.random.default_rng(1)
    a = (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))) @ \
        (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    calls = []
    svd = sla.svd
    monkeypatch.setattr(sla, "svd", lambda m, **kw: calls.append(kw) or svd(m, **kw))
    monkeypatch.setattr(sla, "svdvals", None)
    assert col_space(a).shape == (5, 2)
    _, vh, rk = _svd(a, RANK_RTOL, 0.0, full_matrices=True)
    assert rk.rank == 2 and sla.norm(a @ vh[2:].conj().T) < 1e-12
    assert [kw["full_matrices"] for kw in calls] == [False, True]


def test_spaces_of_zero_matrix_skip_the_svd(monkeypatch):
    monkeypatch.setattr(sla, "svd", None)
    z = np.zeros((3, 2), complex)
    u, vh, rk = _svd(z, RANK_RTOL, 0.0, full_matrices=True)
    assert rk.rank == 0 and np.array_equal(vh, np.eye(2)) and np.array_equal(u, np.eye(3))
    assert col_space(z).shape == (3, 0)
    _, vh, rk = _svd(np.zeros((0, 3), complex), RANK_RTOL, 0.0, full_matrices=True)
    assert rk.rank == 0 and np.array_equal(vh, np.eye(3))


def test_complement_in_kernel():
    d0 = np.array([[1.0, 0.0, 0.0]], dtype=complex).T  # C -> C^3, image = e0
    ker = np.eye(3, dtype=complex)  # pretend everything is a cocycle
    img = col_space(d0)
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
    svd = sla.svd
    monkeypatch.setattr(sla, "svd", lambda a, **kw: svds.append(1) or svd(a, **kw))
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
    p, u, rk = spectral_projector(a, lambda z: abs(z) <= 4.0)
    assert rk == 1
    assert sla.norm(p - np.diag([1.0, 0.0])) < 1e-12
    assert u.shape == (2, 1) and abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_spectral_projector_full_and_empty():
    a = np.diag([1.0, 2.0]).astype(complex)
    p_all, u_all, rk_all = spectral_projector(a, lambda z: abs(z) <= 10.0)
    assert rk_all == 2 and sla.norm(p_all - np.eye(2)) < 1e-12
    assert sla.norm(u_all.conj().T @ u_all - np.eye(2)) < 1e-12
    p_none, u_none, rk_none = spectral_projector(a, lambda z: abs(z) <= 0.5)
    assert rk_none == 0 and sla.norm(p_none) < 1e-12 and u_none.shape == (2, 0)
    p_0, u_0, rk_0 = spectral_projector(np.zeros((0, 0)), lambda z: True)
    assert p_0.shape == u_0.shape == (0, 0) and rk_0 == 0


def test_spectral_projector_jordan_block_against_contour():
    # defective matrix: eigenvalue 2 Jordan block; cut at 1 selects nothing
    a = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    p, _, rk = spectral_projector(a, lambda z: abs(z) <= 1.0)
    assert rk == 0 and sla.norm(p) < 1e-12
    # and the contour oracle agrees: radius-1 circle encloses no spectrum
    pc = contour_projector(a, 1.0)
    assert sla.norm(pc) < 1e-8


def test_spectral_projector_nonnormal_against_contour():
    rng = np.random.default_rng(2)
    d = np.diag([0.5, 0.7, 3.0, 4.0]).astype(complex)
    g = np.eye(4) + 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = g @ d @ sla.inv(g)
    p, u, rk = spectral_projector(a, lambda z: abs(z) <= 1.5)
    pc = contour_projector(a, 1.5, n_nodes=4096)
    assert rk == 2
    assert sla.norm(p - pc) < 1e-8
    assert sla.norm(p @ p - p) < 1e-10
    assert sla.norm(a @ p - p @ a) < 1e-10
    # the basis spans the projector's range and is the invariant_subspace basis, bit for bit
    assert sla.norm(p @ u - u) < 1e-10
    u_inv, rk_inv = invariant_subspace(a, lambda z: abs(z) <= 1.5)
    assert rk_inv == rk and np.array_equal(u, u_inv)


def test_invariant_subspace_orthonormal():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, k = invariant_subspace(a, lambda z: z.real > 0)
    assert sla.norm(u.conj().T @ u - np.eye(k)) < 1e-12
    # invariance: a u stays in span(u)
    au = a @ u
    assert sla.norm(au - u @ (u.conj().T @ au)) < 1e-10


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
