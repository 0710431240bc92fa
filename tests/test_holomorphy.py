import numpy as np
import pytest
import scipy.linalg as sla

from torsionkit.chain import GradedComplex
from torsionkit.chirality import (ChiralityComplex, admissible_lambdas,
                                  odd_signature, random_chirality_complex, rho,
                                  spectral_split)
from torsionkit.cw import sigma, tau_section
from torsionkit.holomorphy import (ComplexFamily, RepresentationCurve, SectionModel,
                                   cr_order, cr_residual, doubled_cochain,
                                   graded_det_along_curve, projection_derivative_check,
                                   projection_family, section_ratio,
                                   section_ratio_residual, zero_section_model)
from torsionkit.linalg import SpectralGapError, StructuralError
from torsionkit.selftest import circle_cw, linear_curve, seeded_linear_family


def test_cr_residual_polynomial():
    assert cr_residual(lambda z: z * z, 1.0, 1e-3) < 1e-9


def test_cr_residual_antiholomorphic():
    r = cr_residual(np.conj, 1.0, 1e-3)
    assert abs(r - 1.0) < 1e-10


def test_cr_order_rational():
    r1, r2, order = cr_order(lambda z: 1.0 / (z - 3.0), 1.0, 1e-2)
    assert 1.9 < order < 2.1


def test_cr_order_floor_reports_inf():
    _, _, order = cr_order(lambda z: 2.0 * z + 1.0, 0.0, 1e-4)
    assert order == float("inf")


def test_representation_curve_validates_relations():
    curve = RepresentationCurve(
        1, {"t": [np.array([[1.0]], complex), np.array([[1.0]], complex)]},
        radius=0.5, relations=["t"])
    with pytest.raises(StructuralError):
        curve.validate()


def test_sigma_along_curve_holomorphic():
    k = circle_cw()
    curve = linear_curve()

    def g(z):
        return sigma(k, curve.at(z)).coordinate

    r1, _, order = cr_order(g, 0.0, 1e-3)
    assert r1 < 1e-8
    assert order >= 1.8 or order == float("inf")


def test_sigma_antiholomorphic_control():
    k = circle_cw()
    curve = linear_curve()
    r = cr_residual(lambda z: sigma(k, curve.at(np.conj(z))).coordinate,
                    0.05 + 0.02j, 1e-3)
    assert r > 1e-2


def test_sigma_rank2_curve_measured_order():
    k = circle_cw()
    c0 = np.array([[2.0, 1.0], [0.0, 3.0]], complex)
    c1 = np.eye(2, dtype=complex)
    c3 = np.array([[0.0, 0.0], [1.0, 0.0]], complex)
    curve = RepresentationCurve(2, {"t": [c0, c1, np.zeros((2, 2), complex), c3]},
                                radius=0.25)
    r1, _, order = cr_order(lambda z: sigma(k, curve.at(z)).coordinate, 0.1, 1e-2)
    assert r1 < 1e-3
    assert 1.8 <= order <= 2.2


def test_graded_det_along_curve_order():
    fam = seeded_linear_family(np.random.default_rng(1))
    r1, r2, order = graded_det_along_curve(fam, 0.0, -0.9, 0.0, 2e-3)
    assert r1 < 1e-6
    assert order >= 1.8 or order == float("inf")


def test_graded_det_constant_family_zero_residual():
    x0 = seeded_linear_family(np.random.default_rng(2)).at(0.0)
    fam = ComplexFamily(lambda z: x0)
    r1, _, _ = graded_det_along_curve(fam, 0.0, -0.9, 0.0, 1e-3)
    assert r1 < 1e-12


def test_graded_det_gap_crossing_raises():
    # family whose B^2 eigenvalue crosses the cut inside the stencil disc
    def build(z):
        d = np.array([[1.0 + z.real if isinstance(z, complex) else 1.0 + z]],
                     dtype=complex)
        d = np.array([[1.0 + z]], dtype=complex)
        return ChiralityComplex(GradedComplex((1, 1), [d]),
                                [np.eye(1, dtype=complex)] * 2,
                                [np.eye(1, dtype=complex)] * 2)
    fam = ComplexFamily(build)
    with pytest.raises(SpectralGapError):
        graded_det_along_curve(fam, 1.0, -0.9, 0.0, 1e-3)


def test_section_ratio_identity_model():
    k = circle_cw()
    curve = linear_curve()

    def model_builder(z):
        cd = doubled_cochain(k, curve.at(z))
        eye = [np.eye(d, dtype=complex) for d in cd.dims]
        return ChiralityComplex(cd, eye, [np.eye(d, dtype=complex) for d in cd.dims])

    model = SectionModel(ComplexFamily(model_builder),
                         lambda z: [np.eye(2, dtype=complex)] * 2)
    for z in (0.0, 0.1 + 0.05j):
        f = section_ratio(k, model, curve, z)
        x = model_builder(z)
        r = rho(x, 0.0, -0.9).coordinate
        t = tau_section(k, curve.at(z)).coordinate
        assert abs(abs(f) - abs(r / t)) < 1e-10
        assert abs(f - r / t) < 1e-10  # equality holds on this fixture


def test_section_ratio_zero_model_holomorphic():
    k = circle_cw()
    curve = linear_curve()
    model = zero_section_model((2, 2))
    f0 = section_ratio(k, model, curve, 0.0)
    t0 = tau_section(k, curve.at(0.0)).coordinate
    assert abs(abs(f0) - abs(1.0 / t0)) < 1e-12
    r1, _, order = section_ratio_residual(k, model, curve, 0.0, 1e-2)
    assert r1 < 1e-3 and 1.8 <= order <= 2.2
    r_small, _, _ = section_ratio_residual(k, model, curve, 0.0, 1e-4)
    assert r_small < 1e-7


def test_section_ratio_non_quasi_iso_raises():
    # lambda = 1 makes C_d non-acyclic, so the zero model stops being a
    # quasi-isomorphism and the cone keeps cohomology
    k = circle_cw()
    curve = RepresentationCurve(1, {"t": [np.array([[1.0]], complex)]}, 0.25)
    model = zero_section_model((2, 2))
    from torsionkit.chain import NotAcyclicError
    with pytest.raises(NotAcyclicError):
        section_ratio(k, model, curve, 0.0)


def test_projection_family_structure():
    fam = seeded_linear_family(np.random.default_rng(3))
    x = fam.at(0.0)
    lam = admissible_lambdas(odd_signature(x), 3)[1]
    p_plus, p_minus = projection_family(x, lam)
    for p in (p_plus, p_minus):
        assert sla.norm(p @ p - p) < 1e-9
    assert sla.norm(p_plus @ p_minus) < 1e-9


def test_projection_family_at_every_cut_with_a_roundoff_image():
    # at the third cut an image of D vanishes in exact arithmetic; without a
    # floor its roundoff gave "spectral splitting does not fill the space"
    x = random_chirality_complex(np.random.default_rng(4), 3, 4, acyclic=True)
    s = odd_signature(x)
    for lam in admissible_lambdas(s, 3):
        small = sum(u.shape[1] for u in spectral_split(s, lam).u_small_blocks)
        p_plus, p_minus = projection_family(x, lam)
        for p in (p_plus, p_minus):
            assert sla.norm(p @ p - p) < 1e-9
        assert sla.norm(p_plus @ p_minus) < 1e-9 and sla.norm(p_minus @ p_plus) < 1e-9
        assert round(np.trace(p_plus + p_minus).real) == s.space.total - small


def test_projection_derivative_check_linear_family():
    fam = seeded_linear_family(np.random.default_rng(4))
    lam = admissible_lambdas(odd_signature(fam.at(0.0)), 3)[1]
    diag, off = projection_derivative_check(fam, lam, 0.0, 1e-4)
    assert diag < 1e-6
    assert off > 1e-4


def test_projection_derivative_constant_family():
    x0 = seeded_linear_family(np.random.default_rng(5)).at(0.0)
    fam = ComplexFamily(lambda z: x0)
    lam = admissible_lambdas(odd_signature(x0), 3)[1]
    diag, off = projection_derivative_check(fam, lam, 0.0, 1e-4)
    assert diag < 1e-10 and off < 1e-10


def test_complex_family_validate():
    fam = ComplexFamily(lambda z: GradedComplex(
        (1, 1, 1), [np.array([[1.0]], complex), np.array([[z]], complex)]))
    with pytest.raises(StructuralError):
        fam.validate([1.0])
