import numpy as np
import pytest
import scipy.linalg as sla

from torsionkit.linalg import (AgmonError, StructuralError, as_cmatrix, check_agmon,
                               col_space, complement_in_kernel, det_branch,
                               h_adjoint, invariant_subspace, log_branch,
                               null_space, rank_svd, row_space, spectral_projector)

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
    k = null_space(a)
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
    assert row_space(a).shape == (4, 2)
    k = null_space(a)
    assert k.shape == (4, 2) and sla.norm(a @ k) < 1e-12
    assert [kw["full_matrices"] for kw in calls] == [False, False, True]


def test_spaces_of_zero_matrix_skip_the_svd(monkeypatch):
    monkeypatch.setattr(sla, "svd", None)
    z = np.zeros((3, 2), complex)
    assert np.array_equal(null_space(z), np.eye(2))
    assert col_space(z).shape == (3, 0)
    assert row_space(z).shape == (2, 0)
    assert null_space(np.zeros((0, 3), complex)).shape == (3, 3)


def test_complement_in_kernel():
    d0 = np.array([[1.0, 0.0, 0.0]], dtype=complex).T  # C -> C^3, image = e0
    ker = np.eye(3, dtype=complex)  # pretend everything is a cocycle
    img = col_space(d0)
    comp, ill = complement_in_kernel(ker, img)
    assert comp.shape == (3, 2)
    assert sla.norm(img.conj().T @ comp) < 1e-12
    assert not ill


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
    p, rk = spectral_projector(a, lambda z: abs(z) <= 4.0)
    assert rk == 1
    assert sla.norm(p - np.diag([1.0, 0.0])) < 1e-12


def test_spectral_projector_full_and_empty():
    a = np.diag([1.0, 2.0]).astype(complex)
    p_all, rk_all = spectral_projector(a, lambda z: abs(z) <= 10.0)
    assert rk_all == 2 and sla.norm(p_all - np.eye(2)) < 1e-12
    p_none, rk_none = spectral_projector(a, lambda z: abs(z) <= 0.5)
    assert rk_none == 0 and sla.norm(p_none) < 1e-12


def test_spectral_projector_jordan_block_against_contour():
    # defective matrix: eigenvalue 2 Jordan block; cut at 1 selects nothing
    a = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    p, rk = spectral_projector(a, lambda z: abs(z) <= 1.0)
    assert rk == 0 and sla.norm(p) < 1e-12
    # and the contour oracle agrees: radius-1 circle encloses no spectrum
    pc = contour_projector(a, 1.0)
    assert sla.norm(pc) < 1e-8


def test_spectral_projector_nonnormal_against_contour():
    rng = np.random.default_rng(2)
    d = np.diag([0.5, 0.7, 3.0, 4.0]).astype(complex)
    g = np.eye(4) + 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = g @ d @ sla.inv(g)
    p, rk = spectral_projector(a, lambda z: abs(z) <= 1.5)
    pc = contour_projector(a, 1.5, n_nodes=4096)
    assert rk == 2
    assert sla.norm(p - pc) < 1e-8
    assert sla.norm(p @ p - p) < 1e-10
    assert sla.norm(a @ p - p @ a) < 1e-10


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


def test_det_branch_is_product():
    eigs = np.array([2.0, -3.0, 1j])
    assert abs(det_branch(eigs, -0.7) - np.prod(eigs)) < 1e-12


def test_check_agmon_raises_on_ray():
    with pytest.raises(AgmonError):
        check_agmon(np.array([np.exp(-0.5j)]), -0.5)
    check_agmon(np.array([np.exp(0.5j)]), -0.5)
