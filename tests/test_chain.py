import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

from torsionkit import chain, linalg
from torsionkit.chain import (DetLineElement, GradedComplex,
                              NotAcyclicError, ShortExactSequenceData,
                              canonical_iso, cohomology, complex_scale, cone, fusion,
                              les_of_ses, torsion_acyclic, verify_complex)
from torsionkit.cw import CWData, Representation, build_cochain, cochain_slice
from torsionkit.linalg import RANK_RTOL, RANK_WARN_BAND, StructuralError
from torsionkit.selftest import (conjugate, coordinate_ses, random_acyclic_complex,
                                 random_complex, random_isos)

from oracles import milnor_torsion_bruteforce, torsion_modulus_via_laplacians
from sequences import conjugated_ses, split_ses


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


def test_dd_check_names_defect_threshold_and_scale():
    bad = GradedComplex((1, 1, 1), [np.eye(1, dtype=complex), 2.0 * np.eye(1, dtype=complex)])
    # ||d1 d0|| / (1 + ||d1|| ||d0||) = 2 / 3
    msg = "not a complex: composition defect 6.7e-01 > 1e-10 (scale 2.0e+00)"
    for check in (cohomology, canonical_iso):
        with pytest.raises(StructuralError) as e:
            check(bad)
        assert str(e.value) == msg


def test_derived_complex_keeps_its_parents_scale():
    # d1 d0 = 1e-7 and d1 = 1e-7 are roundoff at the parent's scale 1e3: the
    # derived complex passes the dd check and gives d1 rank 0, where the same
    # matrices as a fresh complex fail the check and give d1 rank 1
    parent = two_term(1e3)
    diffs = [np.eye(1, dtype=complex), 1e-7 * np.eye(1, dtype=complex)]
    fresh, derived = GradedComplex((1, 1, 1), diffs), parent._derive((1, 1, 1), diffs)
    assert complex_scale(derived) == complex_scale(parent) == 1e3
    assert complex_scale(fresh) == 1.0
    assert not verify_complex(fresh) and verify_complex(derived)
    assert fresh._svd(1)[2].rank == 1 and derived._svd(1)[2].rank == 0
    assert cohomology(derived).dims == (0, 0, 1)


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


def test_torsion_against_bruteforce_and_laplacian():
    rng = np.random.default_rng(12)
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


def test_canonical_iso_rejects_wrong_cohomology_dims():
    with pytest.raises(StructuralError):
        canonical_iso(two_term(0.0), cohomology(two_term(1.0)))


def test_canonical_iso_rejects_non_complex_with_given_cohomology():
    bad = GradedComplex((1, 1, 1), [np.eye(1, dtype=complex), np.eye(1, dtype=complex)])
    zero = GradedComplex((1, 1, 1), [np.zeros((1, 1), complex), np.zeros((1, 1), complex)])
    with pytest.raises(StructuralError):
        canonical_iso(bad, cohomology(zero))


def four_degree_complex(ranks=(1, 2, 1), seed=5):
    """dims (2, 4, 4, 2); the default ranks leave one class in every degree."""
    return random_complex(np.random.default_rng(seed), (2, 4, 4, 2), list(ranks))[0]


def count_svds(monkeypatch):
    """Record the matrices of every full SVD and count the singular-value-only
    ones: linalg's zgesdd call (_gesdd), which linalg.svd, _factor and rank_svd
    share, and scipy.linalg.svd / svdvals, which nothing should reach."""
    seen = {"svd": [], "svdvals": 0}
    gesdd, svd, svdvals = linalg._gesdd, sla.svd, sla.svdvals

    def counting_gesdd(a, compute_uv):
        if compute_uv:
            seen["svd"].append(a)
        else:
            seen["svdvals"] += 1
        return gesdd(a, compute_uv)

    def counting_svd(a, *args, **kwargs):
        seen["svd"].append(a)
        return svd(a, *args, **kwargs)

    def counting_svdvals(a, *args, **kwargs):
        seen["svdvals"] += 1
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_gesdd", counting_gesdd)
    monkeypatch.setattr(sla, "svd", counting_svd)
    monkeypatch.setattr(sla, "svdvals", counting_svdvals)
    return seen


def count_lapack(monkeypatch):
    """count_svds plus the sla.norm(., 2) calls and every numpy SVD."""
    seen = count_svds(monkeypatch)
    seen["norm2"], seen["numpy_svd"] = [], 0
    norm = sla.norm
    # the module globals that np.linalg.norm (and so sla.norm) looks svd up in
    numpy_linalg = np.linalg.norm.__wrapped__.__globals__
    numpy_svd = numpy_linalg["svd"]

    def counting_norm(a, ord=None, *args, **kwargs):
        if ord == 2:
            seen["norm2"].append(a)
        return norm(a, ord, *args, **kwargs)

    def counting_numpy_svd(*args, **kwargs):
        seen["numpy_svd"] += 1
        return numpy_svd(*args, **kwargs)

    monkeypatch.setattr(sla, "norm", counting_norm)
    monkeypatch.setitem(numpy_linalg, "svd", counting_numpy_svd)
    monkeypatch.setattr(np.linalg, "svd", counting_numpy_svd)
    return seen


def test_canonical_iso_reads_the_memo(monkeypatch):
    c = four_degree_complex()
    coh = cohomology(c)
    assert coh.dims == (1, 1, 1, 1)
    seen = count_lapack(monkeypatch)
    canonical_iso(c, coh)
    # cohomology left every thin SVD and the scale in the complex's memo
    assert seen["svd"] == [] and seen["norm2"] == [] and seen["svdvals"] == 0


def test_one_svd_per_differential_and_job(monkeypatch):
    c = four_degree_complex(ranks=(2, 2, 2), seed=8)  # acyclic
    seen = count_lapack(monkeypatch)
    coh = cohomology(c)
    canonical_iso(c, coh)
    canonical_iso(c)
    torsion_acyclic(c)
    # one full SVD per differential and no other; the scale is its largest s[0]
    assert sorted(map(id, seen["svd"])) == sorted(map(id, c.differentials))
    assert seen["norm2"] == [] and seen["numpy_svd"] == 0 and seen["svdvals"] == 0


def test_differentials_are_private_read_only_copies():
    d = np.array([[2.0 + 0.0j]])
    c = GradedComplex((1, 1), [d])
    own = c.differentials[0]
    assert own is not d and not np.shares_memory(own, d)
    assert d.flags.writeable and not own.flags.writeable
    with pytest.raises(ValueError):
        own[0, 0] = 5.0
    d[0, 0] = 5.0
    assert own[0, 0] == 2.0
    assert abs(torsion_acyclic(c).coordinate - 2.0) < 1e-15
    # a view of the caller's array is copied too
    big = np.eye(2, dtype=complex)
    c2 = GradedComplex((1, 1), [big[:1, :1]])
    assert not np.shares_memory(c2.differentials[0], big) and big.flags.writeable


def test_cohomology_two_svds_per_degree(monkeypatch):
    c = four_degree_complex()
    seen = count_lapack(monkeypatch)
    cohomology(c)
    # one full SVD of each d_j gives ker d_j, im d_j and the scale; the other
    # SVDs are complement_in_kernel's, at most one per degree
    for d in c.differentials:
        assert sum(a is d for a in seen["svd"]) == 1
    assert len(seen["svd"]) <= len(c.differentials) + len(c.dims)
    assert seen["norm2"] == [] and seen["numpy_svd"] == 0 and seen["svdvals"] == 0


def _projector(basis):
    return basis @ basis.conj().T


# kernel, image and row space of one memoised full SVD against a fresh thin
# SVD.  Singular values lie in [1e-3, 1] * scale, so subspace rounding is about
# eps * 1e3 and the bound 1e-10 on projector differences was fixed beforehand.
@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 64), cols=st.integers(1, 64), rank_share=st.floats(0.0, 1.0),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
@example(rows=64, cols=64, rank_share=1.0, log_scale=3.0, seed=0)
@example(rows=64, cols=5, rank_share=0.0, log_scale=-3.0, seed=1)
@example(rows=3, cols=64, rank_share=1.0, log_scale=0.0, seed=2)
def test_memo_slices_match_a_thin_svd(rows, cols, rank_share, log_scale, seed):
    rng = np.random.default_rng(seed)
    r = round(rank_share * min(rows, cols))

    def frame(n):
        q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
        return q

    sv = 10.0 ** (log_scale + rng.uniform(-3.0, 0.0, r))
    d = (frame(rows) * sv) @ frame(cols).conj().T
    c = GradedComplex((cols, rows), [d])
    u, vh, rk = c._svd(0)
    ut, s_thin, vht = sla.svd(d, full_matrices=False)
    rt = int(np.sum(s_thin > RANK_RTOL * s_thin[0]))
    assert rk.rank == rt == r
    ker, ker_t = _projector(vh[r:].conj().T), np.eye(cols) - _projector(vht[:r].conj().T)
    pairs = [(ker, ker_t), (_projector(u[:, :r]), _projector(ut[:, :r])),
             (_projector(vh[:r].conj().T), _projector(vht[:r].conj().T))]
    for p, p_thin in pairs:
        assert sla.norm(p - p_thin, 2) <= 1e-10
    norm2 = sla.norm(d, 2)
    assert abs(complex_scale(c) - norm2) <= 1e-14 * norm2


def square_two_term(j, d):
    """The complex 0 -> C^j -d-> C^{j+1} -> 0 with every lower degree zero."""
    n = d.shape[0]
    return GradedComplex((0,) * j + (n, n),
                         [np.zeros((0, 0), complex)] * max(j - 1, 0)
                         + [np.zeros((n, 0), complex)] * (j > 0) + [d])


def svd_assembly(c):
    """The splitting assembly of an acyclic complex from its row spaces, no certificate."""
    return chain._assemble(c, [np.zeros((k, 0), complex) for k in c.dims],
                           chain._row_spaces(c)[0], 1.0 + 0.0j)


def assert_certificate_agrees_with_the_svd(c):
    """Where the LU certificate is taken, the SVD finds full rank with no warning and
    the coordinates agree to 1e-12 cond(d) relative; True when it was taken."""
    cert = chain._certified_det(c)
    if cert is None:
        return False
    j, _ = cert
    d = c.d(j)
    assert c._svd(j)[2].rank == d.shape[0] and not c._svd(j)[2].ill_conditioned
    coh = cohomology(c)
    assert coh.dims == (0,) * len(c.dims) and coh.warnings == []
    assert [r.shape for r in coh.representatives] == [(k, 0) for k in c.dims]
    got, want = canonical_iso(c).coordinate, svd_assembly(c)
    assert abs(got - want) <= 1e-12 * np.linalg.cond(d) * abs(want)
    assert torsion_acyclic(c).coordinate == got
    return True


# d = scale U diag(s) V^H with singular values log-uniform over `log_cond`
# decades: the certificate takes the well-conditioned draws and declines the
# rest; the bound 1e-12 cond(d) was fixed before the runs
@settings(max_examples=150, deadline=None)
@given(j=st.integers(0, 2), n=st.integers(1, 40), log_scale=st.floats(-3.0, 3.0),
       log_cond=st.floats(0.0, 9.0), seed=st.integers(0, 2**32 - 1))
@example(j=0, n=40, log_scale=3.0, log_cond=4.0, seed=0)
@example(j=1, n=1, log_scale=-3.0, log_cond=0.0, seed=1)
def test_certified_lu_matches_the_svd_assembly(j, n, log_scale, log_cond, seed):
    rng = np.random.default_rng(seed)

    def frame():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    sv = 10.0 ** (log_scale - log_cond * rng.uniform(0.0, 1.0, n))
    d = (frame() * sv) @ frame().conj().T
    taken = assert_certificate_agrees_with_the_svd(square_two_term(j, d))
    if log_cond <= 3.0:
        assert taken


def circle(n_cells):
    """n_cells-vertex circle, the last edge carrying t."""
    cells = [(f"v{i}", 0) for i in range(n_cells)] + [(f"e{i}", 1) for i in range(n_cells)]
    boundary = {f"e{i}": [(f"v{(i + 1) % n_cells}", 1, "t" if i == n_cells - 1 else ""),
                          (f"v{i}", -1, "")] for i in range(n_cells)}
    return CWData(cells, boundary, ["t"])


# square cochain slices of a circle: they keep the circle's scale, which the
# certificate must read as the SVD path does
@settings(max_examples=100, deadline=None)
@given(n_cells=st.integers(1, 10), rank=st.integers(1, 4), log_scale=st.floats(-3.0, 3.0),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_certified_lu_on_cochain_slices(n_cells, rank, log_scale, data, seed):
    k = circle(n_cells)
    g = np.random.default_rng(seed).standard_normal((2, rank, rank))
    hol = 10.0 ** log_scale * (np.eye(rank) + 0.5 * (g[0] + 1j * g[1]) / np.sqrt(rank))
    rho = Representation(rank, {"t": hol})
    full = build_cochain(k, rho)
    m = data.draw(st.integers(1, n_cells))
    cells = [data.draw(st.lists(st.integers(0, n_cells - 1), min_size=m, max_size=m,
                                unique=True)) for _ in range(2)]
    c = cochain_slice(k, rho, full, {f"v{i}" for i in cells[0]} | {f"e{i}" for i in cells[1]})
    assert complex_scale(c) == complex_scale(full)
    assert_certificate_agrees_with_the_svd(c)


@pytest.mark.parametrize("j", [0, 1])
def test_certificate_near_the_rank_cut(j, monkeypatch):
    # d = diag(1, ..., 1, eps) with eps swept through the warning window
    # (RANK_RTOL / RANK_WARN_BAND, RANK_RTOL * RANK_WARN_BAND] around the cut
    n = 6
    eps = np.logspace(-10.0, -4.0, 61)
    diags = [np.diag([1.0] * (n - 1) + [e]).astype(complex) for e in eps]
    with monkeypatch.context() as m:
        m.setattr(chain, "_certified_det", lambda c: None)
        today = []
        for d in diags:
            c = square_two_term(j, d)
            coh = cohomology(c)
            today.append((coh, canonical_iso(c, coh).coordinate))
    taken = []
    for e, d, (coh_svd, coord_svd) in zip(eps, diags, today):
        c = square_two_term(j, d)
        if assert_certificate_agrees_with_the_svd(c):
            taken.append(e)
            continue
        coh = cohomology(c)
        assert (coh.dims, coh.warnings) == (coh_svd.dims, coh_svd.warnings)
        assert canonical_iso(c, coh).coordinate == coord_svd
    band = RANK_RTOL * RANK_WARN_BAND
    assert taken and min(taken) > band and any(band / 100 < e <= band for e in eps)
    # the bound declines at most a factor 2 sqrt(n) above the window
    assert min(taken) <= 2 * np.sqrt(n) * band * 10 ** 0.1


def test_singular_and_other_shapes_decline_without_a_warning():
    rng = np.random.default_rng(3)
    low = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
    singular = [np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0]), low, np.ones((4, 4))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in singular:
            c = GradedComplex(d.shape[::-1], [d])
            assert chain._certified_det(c) is None
            assert any(cohomology(c).dims)
        for c in (GradedComplex((2, 3), [np.ones((3, 2))]), four_degree_complex((2, 2, 2), 8),
                  GradedComplex((2, 0, 2), [np.zeros((0, 2)), np.zeros((2, 0))])):
            assert chain._certified_det(c) is None


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


def test_fusion_split_standard_is_plus_one():
    rng = np.random.default_rng(3)
    ses = split_ses(rng)
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
        ses = split_ses(rng)
        ses2 = conjugated_ses(rng, ses)  # generic, non-split iota and pi
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
    # a sequence is validated when it is made, so fusion never sees this one
    with pytest.raises(StructuralError, match=r"pi o iota != 0 at degree 0"):
        ShortExactSequenceData(a, b, c, [np.eye(1, dtype=complex), np.zeros((0, 0), complex)],
                               [np.eye(1, dtype=complex), np.zeros((0, 0), complex)])


def test_cone_identity_is_acyclic():
    rng = np.random.default_rng(5)
    c, _ = random_complex(rng, (2, 3, 2))
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
    a, _ = random_complex(rng, (2, 2))
    zero = GradedComplex((0, 0), [np.zeros((0, 0), complex)])
    g = random_isos(rng, a.dims, 0.3)
    b = conjugate(a, g)
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
        ses = split_ses(rng)
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
    for _ in range(10):
        a, _ = random_acyclic_complex(rng, max_len=1, max_dim=3)
        degs = len(a.dims)
        dims_c = tuple(int(rng.integers(1, 3)) for _ in range(degs))
        c = GradedComplex(dims_c, [0.3 * (rng.standard_normal((dims_c[j + 1], dims_c[j]))
                                          + 1j * rng.standard_normal((dims_c[j + 1], dims_c[j])))
                                   for j in range(degs - 1)])
        ses = coordinate_ses(a, a.direct_sum(c), c)
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
    ses = split_ses(rng)
    ses.validate()
    with pytest.raises(StructuralError,
                       match=r"iota not injective or pi not surjective at degree 0"):
        ShortExactSequenceData(ses.a, ses.b, ses.c, [0.0 * m for m in ses.iota], ses.pi)
