import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torsionkit.linalg import DegeneracyError
from torsionkit.spectral import (CircleModel, IntervalModel, ZetaEvaluator,
                                 circle_laplace_spectrum, circle_zero_modes,
                                 eta_circle, gluing_check_lesch, gluing_constant_K,
                                 graded_det_circle, interval_det,
                                 k_squared_holomorphy, rat_circle,
                                 zeta_det_laplacian_circle)

from oracles import circle_det_euler_product


def unitary(theta, L=1.0):
    return CircleModel(L, complex(math.cos(theta), math.sin(theta)))


def test_hurwitz_against_mpmath():
    z = ZetaEvaluator()
    mpmath.mp.dps = 30
    for s in (0.0, -0.5, 0.75 + 0.3j, 2.5 - 1.0j):
        for a in (0.5, 0.25 + 0.4j, 1.3 - 0.2j):
            mine = z.hurwitz(s, a)
            ref = complex(mpmath.zeta(s, a))
            assert abs(mine - ref) < 1e-11 * max(1.0, abs(ref))


def test_hurwitz_derivative_against_mpmath():
    z = ZetaEvaluator()
    mpmath.mp.dps = 30
    for s in (0.0, -0.25, 0.5 + 0.2j):
        for a in (0.5, 0.35 + 0.3j, 1.1 - 0.4j):
            mine = z.hurwitz_ds(s, a)
            ref = complex(mpmath.zeta(s, a, 1))
            assert abs(mine - ref) < 1e-10 * max(1.0, abs(ref))


EPS = np.finfo(float).eps


def _direct_sum_rounding(s, a, cutoff):
    """n eps sum_k |(k + a)^{-s}| (1 + |log(k + a)|): the worst-case rounding of the
    direct sum of d/ds zeta_H, whose terms bound those of zeta_H.

    Below 1e-11 unless Re s < 0 with a large cutoff: at s = -2 and cutoff 80
    the sum grows to ~n^3 / 3 ~ 1.7e5 and cancels against the tail to O(1).
    """
    n = cutoff + math.ceil(abs(complex(s).imag)) + math.ceil(abs(a))
    lk = np.log(np.arange(n) + a)
    return n * EPS * float(np.sum(np.abs(np.exp(-s * lk)) * (1.0 + np.abs(lk))))


@settings(max_examples=150, deadline=None)
@given(s=st.sampled_from([0.0, -0.25, -2.0, 0.5 + 0.2j]),
       a=st.builds(complex, st.floats(0.0, 2.0, exclude_min=True), st.floats(-1.0, 1.0)),
       cutoff=st.sampled_from([40, 80]))
@example(s=-2.0, a=1.0 + 0j, cutoff=80)
@example(s=0.0, a=1.0 + 0j, cutoff=40)
@example(s=0.5 + 0.2j, a=1.9 + 0.95j, cutoff=40)
@example(s=-2.0, a=1.6 + 0.1j, cutoff=80)
def test_hurwitz_pair_against_30_digit_mpmath(s, a, cutoff):
    # the pinned bounds, 1e-11 (zeta) and 1e-10 (zeta') relative, or the direct
    # sum's own rounding where that is larger; s = -2 puts a zero root into
    # the Pochhammer recurrence, |a| > 1 adds direct terms
    z = ZetaEvaluator(cutoff=cutoff)
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(s, a))
        ref_ds = complex(mpmath.zeta(s, a, 1))
    rounding = _direct_sum_rounding(s, a, cutoff)
    assert abs(z.hurwitz(s, a) - ref) <= max(1e-11 * max(1.0, abs(ref)), rounding)
    assert abs(z.hurwitz_ds(s, a) - ref_ds) <= max(1e-10 * max(1.0, abs(ref_ds)), rounding)


def test_lerch_identities_seeded():
    z = ZetaEvaluator()
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = complex(rng.uniform(0.05, 1.95), rng.uniform(-0.9, 0.9))
        assert abs(z.hurwitz(0.0, a) - (0.5 - a)) < 1e-12
        import scipy.special as sp
        lg = sp.loggamma(a) - 0.5 * math.log(2 * math.pi)
        assert abs(z.hurwitz_ds(0.0, a) - lg) < 1e-10


def test_circle_spectrum_half_integers():
    m = unitary(math.pi, L=2 * math.pi)
    mu = circle_laplace_spectrum(m, 3)
    want = np.array([(n + 0.5) ** 2 for n in range(-3, 4)])
    assert np.max(np.abs(np.sort(mu.real) - np.sort(want))) < 1e-12
    assert np.max(np.abs(mu.imag)) < 1e-12


def test_circle_spectrum_trivial_has_zero_mode():
    mu = circle_laplace_spectrum(CircleModel(1.0, 1.0 + 0j), 2)
    assert np.min(np.abs(mu)) < 1e-14
    assert circle_zero_modes(CircleModel(1.0, 1.0 + 0j)) == 1


def test_circle_spectrum_nonunitary_complex():
    mu = circle_laplace_spectrum(CircleModel(1.0, 2.0 * np.exp(0.5j)), 2)
    assert np.max(np.abs(mu.imag)) > 0.1


def test_circle_det_values_theta_pi_and_two_thirds():
    d_pi = zeta_det_laplacian_circle(unitary(math.pi, 2 * math.pi))
    assert abs(d_pi - 4.0) < 1e-8
    d_23 = zeta_det_laplacian_circle(unitary(2 * math.pi / 3))
    assert abs(d_23 - 3.0) < 1e-8


def test_circle_det_against_euler_product_oracle():
    for theta in (math.pi, 2 * math.pi / 3, 1.0):
        mine = zeta_det_laplacian_circle(unitary(theta)).real
        oracle = circle_det_euler_product(theta)
        assert abs(mine - oracle) < 1e-7 * max(1.0, oracle)


def test_circle_det_continuous_to_trivial_point():
    vals = [zeta_det_laplacian_circle(unitary(t)).real for t in (0.3, 0.1, 0.03)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_circle_det_lambda_one_is_l_squared():
    for L in (1.0, 2.0, 5.5):
        d = zeta_det_laplacian_circle(CircleModel(L, 1.0 + 0j))
        assert abs(d - L * L) < 1e-10 * L * L


def test_circle_det_closed_form_general_holonomy():
    # det' = 4 sin^2(pi a) = (lambda - 1)(1 - lambda)/lambda, L-independent
    lam = 1.7 * np.exp(1.2j)
    want = (lam - 1.0) * (1.0 - lam) / lam
    for L in (1.0, 3.0):
        d = zeta_det_laplacian_circle(CircleModel(L, lam))
        assert abs(d - want) < 1e-9 * abs(want)


def test_eta_window_symmetry():
    for t in (0.4, 1.3, 2.9):
        assert abs(eta_circle(unitary(t)) + eta_circle(unitary(2 * math.pi - t))) < 1e-12


def test_eta_trivial_zero():
    assert eta_circle(CircleModel(1.0, 1.0 + 0j)) == 0.0


def test_graded_det_circle_consistency():
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
        m = unitary(theta)
        dg = graded_det_circle(m, -0.9)
        det = zeta_det_laplacian_circle(m).real
        assert abs(abs(dg) ** 2 - det) < 1e-8 * max(1.0, det)
    # theta = pi gives a real value
    assert abs(graded_det_circle(unitary(math.pi), -0.9).imag) < 1e-10


def test_graded_det_circle_conjugation_symmetry():
    lam = 1.4 * np.exp(0.9j)
    a = graded_det_circle(CircleModel(1.0, lam), -0.9)
    b = graded_det_circle(CircleModel(1.0, np.conj(lam)), -0.9)
    assert abs(b - np.conj(a)) < 1e-9 * abs(a)


def test_graded_det_circle_rejects_trivial():
    with pytest.raises(DegeneracyError):
        graded_det_circle(CircleModel(1.0, 1.0 + 0j), -0.9)


def test_interval_det_values():
    d, z = interval_det(IntervalModel(math.pi, "relative"))
    assert abs(d - 2 * math.pi) < 1e-10 and z == 0
    d, z = interval_det(IntervalModel(0.5, "relative"))
    assert abs(d - 1.0) < 1e-12 and z == 0
    d, z = interval_det(IntervalModel(1.0, "absolute"))
    assert abs(d - 2.0) < 1e-12 and z == 1


def test_gluing_check_lesch_values_and_invariances():
    assert gluing_check_lesch(1.0, 1.0) < 1e-6
    assert gluing_check_lesch(0.5, 1.5) < 1e-6
    # overall scaling leaves the residual unchanged
    r1 = gluing_check_lesch(0.7, 1.3)
    r2 = gluing_check_lesch(2.1, 3.9)
    assert abs(r1 - r2) < 1e-9


def test_gluing_constant_K_values():
    assert abs(gluing_constant_K(0.3, 0.2, 0.1, 2) - 4.0) < 1e-12
    v = gluing_constant_K(1.0, 0.0, 0.0, 0)
    assert abs(v + 1.0) < 1e-12  # exp(i pi) = -1, reported as the + representative
    # circle values feeding the formula match direct evaluation
    em = eta_circle(unitary(1.0))
    k = gluing_constant_K(em, 0.0, 0.0, 2)
    assert abs(k - 4.0 * np.exp(1j * math.pi * em)) < 1e-12


def test_k_squared_holomorphy_residuals():
    assert k_squared_holomorphy(lambda z: 2j + z, 0.0, 1e-4) < 1e-7
    assert k_squared_holomorphy(lambda z: 1.5 + 0.5j + z, 0.1, 1e-4) < 1e-7
    # constant curve: residual 0
    assert k_squared_holomorphy(lambda z: 2.0 + 1.0j, 0.0, 1e-4) < 1e-12
    # anti-holomorphic control
    assert k_squared_holomorphy(lambda z: 2j + np.conj(z), 0.05 + 0.02j, 1e-4) > 1e-2


def test_k_squared_curve_must_avoid_one():
    with pytest.raises(DegeneracyError):
        k_squared_holomorphy(lambda z: 1.0 + 0.0 * z, 0.0, 1e-4)


def test_rat_circle_modulus_matches_combinatorial():
    for theta in (math.pi / 3, math.pi / 2, math.pi):
        lam = complex(math.cos(theta), math.sin(theta))
        ra = rat_circle(CircleModel(1.0, lam), -0.9)
        assert abs(abs(ra) - abs(lam - 1.0)) < 1e-7


def test_rat_circle_l_independence():
    lam = complex(0.0, 1.0)
    vals = [abs(rat_circle(CircleModel(L, lam), -0.9)) for L in (1.0, 2 * math.pi, 5.0)]
    assert max(vals) - min(vals) < 1e-9


def test_rat_circle_real_at_theta_pi():
    ra = rat_circle(CircleModel(1.0, -1.0 + 0j), -0.9)
    assert abs(ra.imag) < 1e-9


def test_zeta_evaluator_rejects_pole():
    z = ZetaEvaluator()
    with pytest.raises(DegeneracyError):
        z.hurwitz(1.0, 0.5)
