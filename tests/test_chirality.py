import numpy as np
import pytest
import scipy.linalg as sla

from torsionkit.chain import GradedComplex, cohomology
from torsionkit.chirality import (ChiralityComplex, admissible_lambdas,
                                  dual_differential, dual_relation_residual,
                                  eta_xi_finite, graded_determinant, odd_signature,
                                  pm_split, random_chirality_complex,
                                  refined_torsion_element, rho, small_complex,
                                  spectral_split)
from torsionkit.linalg import (AgmonError, DegeneracyError, SpectralGapError,
                               StructuralError)


def simple_m1(a, gamma0=None, h=None):
    g0 = np.array([[1.0]], complex) if gamma0 is None else np.asarray(gamma0, complex)
    hs = [np.eye(g0.shape[1], dtype=complex), np.eye(g0.shape[0], dtype=complex)] \
        if h is None else h
    return ChiralityComplex(GradedComplex((g0.shape[1], g0.shape[0]),
                                          [np.atleast_2d(np.asarray(a, complex))]),
                            [g0, sla.inv(g0)], hs)


def test_chirality_validation_rejects_non_involution():
    with pytest.raises(StructuralError):
        x = ChiralityComplex(GradedComplex((1, 1), [np.array([[1.0]], complex)]),
                             [np.array([[2.0]], complex), np.array([[2.0]], complex)],
                             [np.eye(1, dtype=complex)] * 2)
        x.validate()


def test_chirality_needs_odd_length():
    with pytest.raises(StructuralError):
        ChiralityComplex(GradedComplex((1, 1, 1),
                                       [np.zeros((1, 1), complex)] * 2),
                         [np.eye(1, dtype=complex)] * 3,
                         [np.eye(1, dtype=complex)] * 3)


def test_dual_differential_zero():
    x = simple_m1(0.0)
    assert all(sla.norm(d) == 0 for d in dual_differential(x))


def test_dual_differential_unitary_like_fixed_point():
    # hermitian D with gamma = identity and h = identity: D' = D
    a = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]], dtype=complex)
    x = ChiralityComplex(GradedComplex((2, 2), [a]),
                         [np.eye(2, dtype=complex)] * 2,
                         [np.eye(2, dtype=complex)] * 2)
    dp = dual_differential(x)
    assert sla.norm(dp[0] - a) < 1e-12


def test_dual_relation_residual_random():
    rng = np.random.default_rng(0)
    for m in (1, 3):
        for _ in range(5):
            x = random_chirality_complex(rng, m, 3)
            assert dual_relation_residual(x) < 1e-12


def test_odd_signature_zero_differential():
    x = simple_m1(0.0)
    s = odd_signature(x)
    assert sla.norm(s.b_total) == 0


def test_odd_signature_m1_multiplication():
    a = 2.0 - 0.5j
    x = simple_m1(a)
    s = odd_signature(x)
    assert abs(s.b_total[0, 0] - a) < 1e-14
    assert abs(s.b_total[1, 1] - a) < 1e-14
    assert abs(s.b_total[0, 1]) == 0 and abs(s.b_total[1, 0]) == 0


def test_gamma_b_gamma_equals_b():
    rng = np.random.default_rng(1)
    for m in (1, 3):
        x = random_chirality_complex(rng, m, 3)
        s = odd_signature(x)
        g = sla.block_diag(*[x.gamma[k] for k in range(m + 1)])
        # gamma maps degree k to m-k: build the permuted embedding
        gm = np.zeros_like(s.b_total)
        for k in range(m + 1):
            gm[s.space.slice(m - k), s.space.slice(k)] = x.gamma[k]
        lhs = gm @ s.b_total
        rhs = s.b_total @ gm
        assert sla.norm(lhs - rhs) < 1e-10 * max(1.0, sla.norm(lhs))


def test_spectral_split_diagonal_and_above():
    x = simple_m1(np.diag([1.0, 3.0]).astype(complex),
                  gamma0=np.eye(2, dtype=complex))
    s = odd_signature(x)
    split = spectral_split(s, 4.0)  # B^2 = diag(1, 9)
    assert sla.norm(split.pi_small_blocks[0] - np.diag([1.0, 0.0])) < 1e-12
    split_all = spectral_split(s, 100.0)
    assert sla.norm(split_all.pi_small_blocks[0] - np.eye(2)) < 1e-12


def test_spectral_split_gap_error():
    x = simple_m1(np.diag([1.0, 3.0]).astype(complex), gamma0=np.eye(2, dtype=complex))
    s = odd_signature(x)
    with pytest.raises(SpectralGapError):
        spectral_split(s, 9.0)


def test_spectral_split_jordan_block():
    # defective B^2: eigenvalue 4 Jordan block, cut below selects nothing
    a = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    x = simple_m1(a, gamma0=np.eye(2, dtype=complex))
    s = odd_signature(x)
    split = spectral_split(s, 1.0)
    assert split.rank_small == 0


def test_spectral_split_commutes_with_b_and_d():
    rng = np.random.default_rng(2)
    x = random_chirality_complex(rng, 3, 3, acyclic=True)
    s = odd_signature(x)
    lam = admissible_lambdas(s, 2)[-1]
    split = spectral_split(s, lam)
    pi = sla.block_diag(*split.pi_small_blocks)
    assert sla.norm(pi @ pi - pi) < 1e-8
    assert sla.norm(pi @ s.b_total - s.b_total @ pi) < 1e-7 * max(1.0, sla.norm(s.b_total))
    d_total = np.zeros_like(s.b_total)
    for k in range(x.m):
        d_total[s.space.slice(k + 1), s.space.slice(k)] = x.complex.d(k)
    assert sla.norm(pi @ d_total - d_total @ pi) < 1e-7 * max(1.0, sla.norm(d_total))


def test_graded_determinant_positive_diagonal():
    # B+ eigenvalues {2}, B- eigenvalues {-3} -> 2/3
    # realized on m=3 with D_1 = diag-ish blocks
    d0 = np.array([[2.0]], complex)   # C^0 -> C^1
    d2 = np.array([[3.0]], complex)   # C^2 -> C^3
    x = ChiralityComplex(
        GradedComplex((1, 1, 1, 1), [d0, np.zeros((1, 1), complex), d2]),
        [np.eye(1, dtype=complex)] * 4, [np.eye(1, dtype=complex)] * 4)
    s = odd_signature(x)
    # B|C^0 = gamma d0 = 2 into degree 2; B|C^2 = gamma d2 = 3 into degree 0
    dg = graded_determinant(s, 0.0, -0.9)
    ex = eta_xi_finite(s, -0.9)
    assert abs(ex.det_gr_reconstruction() - dg) < 1e-12 * abs(dg)


def test_graded_determinant_plus_minus_values():
    # a '+' only even part with eigenvalue {2}: Det_gr = 2
    x_plus = simple_m1(2.0)
    assert abs(graded_determinant(odd_signature(x_plus), 0.0, -0.9) - 2.0) < 1e-12
    # a '-' only even part with eigenvalue {-3}: Det_gr = 1/Det'(3) = 1/3
    x_minus = ChiralityComplex(
        GradedComplex((0, 1, 1, 0),
                      [np.zeros((1, 0), complex), np.array([[-3.0]], complex),
                       np.zeros((0, 1), complex)]),
        [np.zeros((0, 0), complex), np.eye(1, dtype=complex),
         np.eye(1, dtype=complex), np.zeros((0, 0), complex)],
        [np.zeros((0, 0), complex), np.eye(1, dtype=complex),
         np.eye(1, dtype=complex), np.zeros((0, 0), complex)])
    s = odd_signature(x_minus)
    pm = pm_split(s, spectral_split(s, 0.0))
    assert pm.b_plus.shape == (0, 0) and pm.b_minus.shape == (1, 1)
    assert abs(pm.b_minus[0, 0] - (-3.0)) < 1e-12
    assert abs(graded_determinant(s, 0.0, -0.9) - 1.0 / 3.0) < 1e-12
    # together (disjoint union reading): Det'(B+)/Det'(-B-) = 2/3


def test_graded_determinant_branch_example():
    # single eigenvalue -2 on the + side with theta = -pi/2:
    # log_branch(-2) = ln 2 + i pi, so Det' = -2
    x = simple_m1(-2.0)
    s = odd_signature(x)
    dg = graded_determinant(s, 0.0, -np.pi / 2)
    assert abs(dg - (-2.0)) < 1e-12


def test_graded_determinant_empty_spectrum():
    x = simple_m1(np.diag([2.0]).astype(complex))
    s = odd_signature(x)
    dg = graded_determinant(s, 10.0, -0.9)
    assert abs(dg - 1.0) < 1e-12


def test_graded_determinant_agmon_error():
    x = simple_m1(np.exp(-0.9j))
    s = odd_signature(x)
    with pytest.raises(AgmonError):
        graded_determinant(s, 0.0, -0.9)


def test_refined_torsion_element_identity_chirality():
    # D = 0, m = 1, gamma = swap, c_0 = e: coordinate 1
    x = simple_m1(0.0)
    elt = refined_torsion_element(x)
    assert abs(elt.coordinate - 1.0) < 1e-12


def test_refined_torsion_c_block_independence():
    rng = np.random.default_rng(3)
    for m in (1, 3):
        x = random_chirality_complex(rng, m, 3)
        coh = cohomology(x.complex, tag="H(small)")
        base = refined_torsion_element(x, coh).coordinate
        blocks = [np.eye(x.complex.dims[k], dtype=complex)
                  * (1.5 - 0.7j if k == min(1, x.r - 1) else 1.0)
                  for k in range(x.r)]
        scaled = refined_torsion_element(x, coh, c_blocks=blocks).coordinate
        assert abs(scaled - base) < 1e-10 * abs(base)


def test_refined_torsion_acyclic_two_routes():
    # brute-force evaluation of the defining formula with explicit c_k blocks
    rng = np.random.default_rng(4)
    x = random_chirality_complex(rng, 3, 3, acyclic=True)
    coh = cohomology(x.complex, tag="H(small)")
    lib = refined_torsion_element(x, coh).coordinate
    # independent route: coordinate of c_Gamma times the bruteforce torsion
    from oracles import milnor_torsion_bruteforce
    from torsionkit.chirality import invariance_sign_exponent
    coord = 1.0 + 0.0j
    for k in range(x.r):
        det_g = sla.det(x.gamma[k]) if x.complex.dims[k] else 1.0
        coord *= det_g ** (-(1 if k % 2 == 0 else -1))
    coord *= (-1) ** invariance_sign_exponent(x.complex.dims, coh.dims)
    tau = milnor_torsion_bruteforce(
        x.complex.dims, [x.complex.d(j) for j in range(x.m)], rng)
    assert abs(lib - coord * tau) < 1e-9 * abs(lib)


def test_rho_lambda_theta_invariance_seeded():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        m = 1 if trial % 2 == 0 else 3
        x = random_chirality_complex(rng, m, 4, acyclic=(trial % 3 != 0))
        s = odd_signature(x)
        coh = cohomology(x.complex, tag="H(X)")
        vals = []
        for lam in admissible_lambdas(s, 3):
            for th in (-0.8, -2.1):
                try:
                    vals.append(rho(x, lam, th, coh_full=coh, s=s).coordinate)
                except (SpectralGapError, AgmonError, DegeneracyError):
                    continue
        assert len(vals) >= 2
        worst = max(worst, max(abs(v - vals[0]) / abs(vals[0]) for v in vals))
    assert worst < 1e-8


def test_rho_lambda_zero_pure_graded_determinant():
    a = np.diag([2.0, 5.0]).astype(complex)
    x = simple_m1(a, gamma0=np.eye(2, dtype=complex))
    s = odd_signature(x)
    r = rho(x, 0.0, -0.9, s=s)
    dg = graded_determinant(s, 0.0, -0.9)
    assert abs(r.coordinate - dg) < 1e-12 * abs(dg)


def test_eta_xi_symmetric_spectrum():
    # B_even = diag(1, -1): eta = 0
    d0 = np.diag([1.0, -1.0]).astype(complex)
    x = simple_m1(d0, gamma0=np.eye(2, dtype=complex))
    s = odd_signature(x)
    ex = eta_xi_finite(s, -0.9)
    assert abs(ex.eta) < 1e-14


def test_xi_hat_count_convention():
    # B^2 = diag(4) in degree 1, m = 1: xi_hat = 1/2 * (-1) * 1 * 1 = -1/2
    x = simple_m1(2.0)
    s = odd_signature(x)
    ex = eta_xi_finite(s, -0.9)
    assert abs(ex.xi_hat - (-0.5)) < 1e-14
    assert abs(ex.xi_prime - ex.xi_hat) < 1e-14


def test_eta_xi_det_identity_random():
    rng = np.random.default_rng(6)
    for trial in range(20):
        m = 1 if trial % 2 == 0 else 3
        x = random_chirality_complex(rng, m, 3, acyclic=True)
        s = odd_signature(x)
        for th in (-0.7, -1.9):
            try:
                dg = graded_determinant(s, 0.0, th)
                ex = eta_xi_finite(s, th)
            except (AgmonError, DegeneracyError):
                continue
            assert abs(ex.det_gr_reconstruction() - dg) < 1e-10 * abs(dg)


def test_graded_det_multiplicative_direct_sum():
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = random_chirality_complex(rng, 3, 2, acyclic=True)
        y = random_chirality_complex(rng, 3, 2, acyclic=True)
        xy = ChiralityComplex(
            x.complex.direct_sum(y.complex),
            [sla.block_diag(gx, gy) for gx, gy in zip(x.gamma, y.gamma)],
            [sla.block_diag(hx, hy) for hx, hy in zip(x.h, y.h)])
        dg = graded_determinant(odd_signature(xy), 0.0, -0.9)
        dgx = graded_determinant(odd_signature(x), 0.0, -0.9)
        dgy = graded_determinant(odd_signature(y), 0.0, -0.9)
        assert abs(dg - dgx * dgy) < 1e-10 * abs(dg)


def test_kern_decomposition_dims():
    rng = np.random.default_rng(8)
    for m in (1, 3):
        x = random_chirality_complex(rng, m, 3, acyclic=True)
        s = odd_signature(x)
        split = spectral_split(s, 0.0)
        pm = pm_split(s, split)
        dim_even = sum(split.u_big_blocks[j].shape[1] for j in range(0, m + 1, 2))
        assert pm.b_plus.shape[0] + pm.b_minus.shape[0] == dim_even


def test_small_complex_gamma_involution():
    rng = np.random.default_rng(9)
    x = random_chirality_complex(rng, 3, 3, acyclic=True)
    s = odd_signature(x)
    lam = admissible_lambdas(s, 2)[-1]
    sc = small_complex(s, spectral_split(s, lam))
    sc.x.validate()


def test_chirality_suite_is_deterministic():
    from torsionkit.selftest import chirality_suite
    assert chirality_suite(3, "quick") == chirality_suite(3, "quick")
