import numpy as np
import pytest
import scipy.linalg as sla

from torsionkit.chain import (Cohomology, DetLineElement, GradedComplex,
                              NotAcyclicError, ShortExactSequenceData,
                              canonical_iso, cohomology, cone, fusion,
                              les_of_ses, torsion_acyclic, verify_complex)
from torsionkit.linalg import StructuralError

from oracles import milnor_torsion_bruteforce, torsion_modulus_via_laplacians


def two_term(a):
    return GradedComplex((1, 1), [np.array([[a]], dtype=complex)])


def test_verify_complex_zero_differentials():
    c = GradedComplex((2, 3, 2), [np.zeros((3, 2), complex), np.zeros((2, 3), complex)])
    assert verify_complex(c)


def test_verify_complex_rejects_bad_composition():
    c = GradedComplex((1, 1, 1), [np.eye(1, dtype=complex), np.eye(1, dtype=complex)])
    assert not verify_complex(c)


def test_verify_complex_single_differential():
    # circle cochain complex with a single differential: nothing to compose
    assert verify_complex(two_term(1.0))


def test_cohomology_circle_values():
    coh2 = cohomology(two_term(2.0 - 1.0))  # lambda = 2: d = 1
    assert coh2.dims == (0, 0)
    coh1 = cohomology(two_term(0.0))  # lambda = 1: d = 0
    assert coh1.dims == (1, 1)
    coh5 = cohomology(two_term(5.0))
    assert coh5.dims == (0, 0)


def test_torsion_two_term_is_a():
    for a in (3.0, 2.0 - 1.5j, 0.25j):
        t = torsion_acyclic(two_term(a))
        assert abs(t.coordinate - a) < 1e-12 * abs(a)


def test_torsion_two_term_identity():
    t = torsion_acyclic(two_term(1.0))
    assert abs(abs(t.coordinate) - 1.0) < 1e-12


def test_torsion_three_term_pm_one():
    c = GradedComplex((1, 2, 1), [np.array([[1.0], [0.0]], complex),
                                  np.array([[0.0, 1.0]], complex)])
    t = torsion_acyclic(c)
    assert abs(abs(t.coordinate) - 1.0) < 1e-12


def test_torsion_rejects_non_acyclic():
    with pytest.raises(NotAcyclicError):
        torsion_acyclic(two_term(0.0))


def test_torsion_complement_independence_seeded():
    rng = np.random.default_rng(11)
    from torsionkit.selftest import random_acyclic_complex
    for _ in range(100):
        c, ranks = random_acyclic_complex(rng, max_len=3, max_dim=6)
        t_auto = torsion_acyclic(c, "auto").coordinate
        comps = [rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
                 for k, r in zip(c.dims, ranks)]
        t_rand = torsion_acyclic(c, comps).coordinate
        assert abs(t_auto - t_rand) <= 1e-9 * abs(t_auto)


def test_torsion_against_bruteforce_and_laplacian():
    rng = np.random.default_rng(12)
    from torsionkit.selftest import random_acyclic_complex
    for _ in range(40):
        c, _ = random_acyclic_complex(rng, max_len=3, max_dim=4)
        t = torsion_acyclic(c).coordinate
        bf = milnor_torsion_bruteforce(c.dims, [c.d(j) for j in range(len(c.dims) - 1)], rng)
        assert abs(t - bf) <= 1e-9 * abs(t)
        mod = torsion_modulus_via_laplacians(c.dims, [c.d(j) for j in range(len(c.dims) - 1)])
        assert abs(abs(t) - mod) <= 1e-8 * max(1.0, mod)


def test_canonical_iso_matches_torsion_on_acyclic():
    c = two_term(3.0 - 2.0j)
    assert abs(canonical_iso(c).coordinate - torsion_acyclic(c).coordinate) < 1e-12


def test_canonical_iso_zero_differential():
    c = GradedComplex((2, 2), [np.zeros((2, 2), complex)])
    e = canonical_iso(c, cohomology(c))
    assert abs(abs(e.coordinate) - 1.0) < 1e-12


def test_canonical_iso_covariance_exact():
    c = GradedComplex((2, 3, 2), [np.zeros((3, 2), complex), np.zeros((2, 3), complex)])
    coh = cohomology(c)
    base = canonical_iso(c, coh).coordinate
    for j, s in ((0, 2.0 - 1.0j), (1, 0.3 + 0.4j), (2, -2.5)):
        reps = [r.copy() for r in coh.representatives]
        reps[j][:, 0] *= s
        coh2 = Cohomology(coh.dims, reps, [], tag=coh.tag)
        ratio = canonical_iso(c, coh2).coordinate / base
        want = s ** (1 if j % 2 else -1)
        assert abs(ratio - want) <= 1e-12 * abs(want)


def test_canonical_iso_rejects_wrong_cohomology_dims():
    with pytest.raises(StructuralError):
        canonical_iso(two_term(0.0), cohomology(two_term(1.0)))


def test_canonical_iso_rejects_non_complex_with_given_cohomology():
    bad = GradedComplex((1, 1, 1), [np.eye(1, dtype=complex), np.eye(1, dtype=complex)])
    zero = GradedComplex((1, 1, 1), [np.zeros((1, 1), complex), np.zeros((1, 1), complex)])
    with pytest.raises(StructuralError):
        canonical_iso(bad, cohomology(zero))


def four_degree_complex():
    """dims (2, 4, 4, 2), ranks (1, 2, 1), one cohomology class in every degree."""
    rng = np.random.default_rng(5)
    dims, ranks = (2, 4, 4, 2), (1, 2, 1)
    std = []
    for j, r in enumerate(ranks):
        d = np.zeros((dims[j + 1], dims[j]), complex)
        d[:r, dims[j] - r:] = np.eye(r)
        std.append(d)
    g = [np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
         for n in dims]
    return GradedComplex(dims, [g[j + 1] @ std[j] @ sla.inv(g[j]) for j in range(3)])


def count_svds(monkeypatch):
    """Record the matrices passed to scipy.linalg.svd and count svdvals calls."""
    seen = {"svd": [], "svdvals": 0}
    svd, svdvals = sla.svd, sla.svdvals

    def counting_svd(a, *args, **kwargs):
        seen["svd"].append(a)
        return svd(a, *args, **kwargs)

    def counting_svdvals(a, *args, **kwargs):
        seen["svdvals"] += 1
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(sla, "svd", counting_svd)
    monkeypatch.setattr(sla, "svdvals", counting_svdvals)
    return seen


def test_canonical_iso_one_svd_per_degree(monkeypatch):
    c = four_degree_complex()
    coh = cohomology(c)
    assert coh.dims == (1, 1, 1, 1)
    seen = count_svds(monkeypatch)
    canonical_iso(c, coh)
    # one SVD of each d_j; the top degree's outgoing map is empty and needs none
    assert [id(a) for a in seen["svd"]] == [id(d) for d in c.differentials]
    assert seen["svdvals"] == 0


def test_cohomology_two_svds_per_degree(monkeypatch):
    c = four_degree_complex()
    seen = count_svds(monkeypatch)
    cohomology(c)
    # each d_j is decomposed once for ker d_j and once for im d_j; the other
    # SVDs are complement_in_kernel's, at most one per degree
    for d in c.differentials:
        assert sum(a is d for a in seen["svd"]) == 2
    assert len(seen["svd"]) <= 2 * len(c.differentials) + len(c.dims)
    assert seen["svdvals"] == 0


def test_det_line_element_tag_discipline():
    a = DetLineElement(2.0, "x", ((0, 1),))
    b = DetLineElement(3.0, "y", ((0, 1),))
    with pytest.raises(StructuralError):
        a.ratio(b)
    assert abs(a.tensor(b).coordinate - 6.0) < 1e-15


def test_det_line_element_rejects_zero():
    from torsionkit.linalg import DegeneracyError
    with pytest.raises(DegeneracyError):
        DetLineElement(0.0, "x", ((0, 1),))


def _split_ses(rng, degs=2):
    dims_a = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    dims_c = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    dims_b = tuple(a + c for a, c in zip(dims_a, dims_c))
    da = [0.4 * (rng.standard_normal((dims_a[j + 1], dims_a[j]))
                 + 1j * rng.standard_normal((dims_a[j + 1], dims_a[j])))
          for j in range(degs - 1)]
    dc = [0.4 * (rng.standard_normal((dims_c[j + 1], dims_c[j]))
                 + 1j * rng.standard_normal((dims_c[j + 1], dims_c[j])))
          for j in range(degs - 1)]
    a = GradedComplex(dims_a, da)
    c = GradedComplex(dims_c, dc)
    b = a.direct_sum(c)
    iota, pi = [], []
    for j in range(degs):
        m = np.zeros((dims_b[j], dims_a[j]), complex)
        m[:dims_a[j], :] = np.eye(dims_a[j])
        iota.append(m)
        p = np.zeros((dims_c[j], dims_b[j]), complex)
        p[:, dims_a[j]:] = np.eye(dims_c[j])
        pi.append(p)
    return ShortExactSequenceData(a, b, c, iota, pi)


def test_fusion_split_standard_is_plus_one():
    rng = np.random.default_rng(3)
    ses = _split_ses(rng)
    one_a = DetLineElement(1.0, "std", tuple(enumerate(ses.a.dims)))
    one_c = DetLineElement(1.0, "std", tuple(enumerate(ses.c.dims)))
    out = fusion(one_a, one_c, ses)
    assert abs(out.coordinate - 1.0) < 1e-12


def test_fusion_zero_factor_complex():
    # A the zero complex: fusion(1, c) = c up to sign
    degs = 2
    a = GradedComplex((0, 0), [np.zeros((0, 0), complex)])
    c = GradedComplex((2, 1), [np.array([[0.3, 0.1]], complex)])
    iota = [np.zeros((2, 0), complex), np.zeros((1, 0), complex)]
    pi = [np.eye(2, dtype=complex), np.eye(1, dtype=complex)]
    ses = ShortExactSequenceData(a, c, c, iota, pi)
    one_a = DetLineElement(1.0, "std", tuple(enumerate(a.dims)))
    el_c = DetLineElement(2.5 - 1.0j, "std", tuple(enumerate(c.dims)))
    out = fusion(one_a, el_c, ses)
    assert abs(abs(out.coordinate) - abs(el_c.coordinate)) < 1e-12


def test_fusion_bilinear_and_bruteforce():
    rng = np.random.default_rng(4)
    from oracles import fusion_bruteforce
    for _ in range(25):
        ses = _split_ses(rng)
        # generic non-split iota/pi: conjugate the split one by a random iso of B
        g = [np.eye(d, dtype=complex)
             + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for d in ses.b.dims]
        b2 = GradedComplex(ses.b.dims, [g[j + 1] @ ses.b.d(j) @ sla.inv(g[j])
                                        for j in range(len(ses.b.dims) - 1)])
        ses2 = ShortExactSequenceData(ses.a, b2, ses.c,
                                      [g[j] @ ses.iota[j] for j in range(len(g))],
                                      [ses.pi[j] @ sla.inv(g[j]) for j in range(len(g))])
        za, zc = 1.3 - 0.2j, -0.7 + 0.9j
        ea = DetLineElement(za, "std", tuple(enumerate(ses.a.dims)))
        ec = DetLineElement(zc, "std", tuple(enumerate(ses.c.dims)))
        out = fusion(ea, ec, ses2)
        # bilinearity
        out2 = fusion(ea.scale(2.0), ec, ses2)
        assert abs(out2.coordinate - 2.0 * out.coordinate) < 1e-10 * abs(out.coordinate)
        # brute force with independently built lifts
        bf = za * zc * fusion_bruteforce(ses2, rng)
        assert abs(out.coordinate - bf) < 1e-9 * abs(bf)


def test_fusion_rejects_non_exact():
    a = GradedComplex((1, 0), [np.zeros((0, 1), complex)])
    b = GradedComplex((1, 0), [np.zeros((0, 1), complex)])
    c = GradedComplex((1, 0), [np.zeros((0, 1), complex)])
    ses = ShortExactSequenceData(a, b, c, [np.eye(1, dtype=complex), np.zeros((0, 0), complex)],
                                 [np.eye(1, dtype=complex), np.zeros((0, 0), complex)])
    one = DetLineElement(1.0, "std", ((0, 1), (1, 0)))
    with pytest.raises(StructuralError):
        fusion(one, one, ses)


def test_cone_identity_is_acyclic():
    rng = np.random.default_rng(5)
    from torsionkit.selftest import _random_complex_with_dims
    c, _ = _random_complex_with_dims(rng, (2, 3, 2))
    f = [np.eye(d, dtype=complex) for d in c.dims]
    cn = cone(f, c, c)
    assert verify_complex(cn)
    assert cohomology(cn).dims == (0,) * len(cn.dims)


def test_cone_dims_shape():
    src = GradedComplex((2, 3), [np.zeros((3, 2), complex)])
    tgt = GradedComplex((2, 3), [np.zeros((3, 2), complex)])
    cn = cone([np.zeros((2, 2), complex), np.zeros((3, 3), complex)], src, tgt)
    # Cone^j = src^j (+) tgt^{j-1}
    assert cn.dims == (2, 3 + 2, 3)


def test_cone_zero_map_torsion_product():
    rng = np.random.default_rng(6)
    from torsionkit.selftest import random_acyclic_complex
    signs = set()
    for _ in range(20):
        c, _ = random_acyclic_complex(rng, max_len=2, max_dim=3)
        d, _ = random_acyclic_complex(rng, max_len=2, max_dim=3)
        f = [np.zeros(((d.dims[j] if j < len(d.dims) else 0), c.dims[j]), complex)
             for j in range(len(c.dims))]
        cn = cone(f, c, d)
        t = torsion_acyclic(cn).coordinate
        tc = torsion_acyclic(c).coordinate
        td = torsion_acyclic(d).coordinate
        # torsion of the cone is tau(src) * tau(tgt)^{-1} up to a dims sign
        ratio = t / (tc / td)
        assert abs(abs(ratio) - 1.0) < 1e-9
    # exponents documented: the ratio is always a sign


def test_cone_rejects_non_chain_map():
    c = GradedComplex((1, 1), [np.eye(1, dtype=complex)])
    d = GradedComplex((1, 1), [2 * np.eye(1, dtype=complex)])
    with pytest.raises(StructuralError):
        cone([np.eye(1, dtype=complex), np.eye(1, dtype=complex)], c, d)


def test_les_degenerate_c_zero_is_transport():
    rng = np.random.default_rng(7)
    from torsionkit.selftest import _random_complex_with_dims
    a, _ = _random_complex_with_dims(rng, (2, 2))
    zero = GradedComplex((0, 0), [np.zeros((0, 0), complex)])
    g = [np.eye(d, dtype=complex)
         + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
         for d in a.dims]
    b = GradedComplex(a.dims, [g[1] @ a.d(0) @ sla.inv(g[0])])
    ses = ShortExactSequenceData(a, b, zero, [g[0], g[1]],
                                 [np.zeros((0, 2), complex)] * 2)
    les = les_of_ses(ses)
    one_a = DetLineElement(1.0, les.coh_a.tag, les.coh_a.grading())
    one_c = DetLineElement(1.0, les.coh_c.tag, les.coh_c.grading())
    out = les.phi(one_a, one_c)
    # transport of the A basis through the induced maps, computed directly
    from torsionkit.chain import _class_coordinates
    want = 1.0 + 0.0j
    for j in range(2):
        if les.coh_a.dims[j] == 0:
            continue
        img = ses.iota[j] @ les.coh_a.representatives[j]
        mat = _class_coordinates(b, les.coh_b, j, img)
        want *= np.linalg.det(mat) ** (1 if j % 2 == 0 else -1)
    assert abs(out.coordinate - want) < 1e-9 * abs(want)


def test_les_split_agrees_with_fusion_up_to_sign():
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(15):
        ses = _split_ses(rng)
        les = les_of_ses(ses)
        one_a = DetLineElement(1.0, les.coh_a.tag, les.coh_a.grading())
        one_c = DetLineElement(1.0, les.coh_c.tag, les.coh_c.grading())
        phi = les.phi(one_a, one_c)
        # fusion route: chain-level fusion pushed through the canonical isos
        fused = fusion(DetLineElement(1.0, "std", tuple(enumerate(ses.a.dims))),
                       DetLineElement(1.0, "std", tuple(enumerate(ses.c.dims))), ses)
        nu = canonical_iso(ses.b, les.coh_b, coordinate=fused.coordinate)
        ia = canonical_iso(ses.a, les.coh_a)
        ic = canonical_iso(ses.c, les.coh_c)
        ratio = phi.coordinate * (ia.coordinate * ic.coordinate) / nu.coordinate
        ratios.append(ratio)
        assert abs(abs(ratio) - 1.0) < 1e-9
    # the comparison factor is a sign, constant per shape by construction


def test_les_a_acyclic_transport():
    rng = np.random.default_rng(9)
    from torsionkit.selftest import random_acyclic_complex
    for _ in range(10):
        a, _ = random_acyclic_complex(rng, max_len=1, max_dim=3)
        degs = len(a.dims)
        dims_c = tuple(int(rng.integers(1, 3)) for _ in range(degs))
        c = GradedComplex(dims_c, [0.3 * (rng.standard_normal((dims_c[j + 1], dims_c[j]))
                                          + 1j * rng.standard_normal((dims_c[j + 1], dims_c[j])))
                                   for j in range(degs - 1)])
        b = a.direct_sum(c)
        iota, pi = [], []
        for j in range(degs):
            m = np.zeros((b.dims[j], a.dims[j]), complex)
            m[:a.dims[j], :] = np.eye(a.dims[j])
            iota.append(m)
            p = np.zeros((dims_c[j], b.dims[j]), complex)
            p[:, a.dims[j]:] = np.eye(dims_c[j])
            pi.append(p)
        ses = ShortExactSequenceData(a, b, c, iota, pi)
        les = les_of_ses(ses)
        one_a = DetLineElement(1.0, les.coh_a.tag, les.coh_a.grading())
        one_c = DetLineElement(1.0, les.coh_c.tag, les.coh_c.grading())
        out = les.phi(one_a, one_c)
        # H(A) = 0: phi transports c through the pi-induced isomorphisms;
        # the factor relative to the naive transport is +-1
        from torsionkit.chain import _class_coordinates
        want = 1.0 + 0.0j
        for j in range(degs):
            if les.coh_b.dims[j] == 0:
                continue
            img = ses.pi[j] @ les.coh_b.representatives[j]
            mat = _class_coordinates(c, les.coh_c, j, img)
            want *= np.linalg.det(mat) ** (-1 if j % 2 == 0 else 1)
        ratio = out.coordinate / want
        assert abs(abs(ratio) - 1.0) < 1e-9


def test_ses_exactness_validation():
    rng = np.random.default_rng(10)
    ses = _split_ses(rng)
    ses.validate()
    bad = ShortExactSequenceData(ses.a, ses.b, ses.c,
                                 [0.0 * m for m in ses.iota], ses.pi)
    with pytest.raises(StructuralError):
        bad.validate()
