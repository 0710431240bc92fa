import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack
from hypothesis import example, given, settings, strategies as st

from torsionkit import chirality
from torsionkit.chain import GradedComplex, cohomology
from torsionkit.chirality import (ZERO_EIG_RTOL, ChiralityComplex, admissible_lambdas,
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
    u_small, u_big = split.u_small_blocks[0], split.u_big_blocks[0]
    assert u_small.shape == u_big.shape == (2, 1)
    assert abs(abs(u_small[0, 0]) - 1.0) < 1e-12 and abs(abs(u_big[1, 0]) - 1.0) < 1e-12
    assert abs(split.eig_big_blocks[0][0] - 9.0) < 1e-12
    split_all = spectral_split(s, 100.0)
    assert split_all.u_small_blocks[0].shape == (2, 2)
    assert split_all.u_big_blocks[0].shape == (2, 0) and split_all.eig_big_blocks[0].size == 0


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
    assert all(u.shape[1] == 0 for u in split.u_small_blocks)
    assert all(sla.norm(e - 4.0) < 1e-12 for e in split.eig_big_blocks)


def test_spectral_split_commutes_with_b_and_d():
    # the spectral projector commutes with B and D exactly when both of its
    # invariant subspaces are invariant under B and D
    x = random_chirality_complex(np.random.default_rng(4), 3, 4, acyclic=True)
    s = odd_signature(x)
    split = spectral_split(s, admissible_lambdas(s, 3)[1])  # 4 of 14 dimensions small
    d_total = np.zeros_like(s.b_total)
    for k in range(x.m):
        d_total[s.space.slice(k + 1), s.space.slice(k)] = x.complex.d(k)
    for blocks in (split.u_small_blocks, split.u_big_blocks):
        u = sla.block_diag(*blocks)
        assert u.shape[1] and sla.norm(u.conj().T @ u - np.eye(u.shape[1])) < 1e-12
        for a in (s.b_total, d_total):
            au = a @ u
            assert sla.norm(au - u @ (u.conj().T @ au)) < 1e-7 * max(1.0, sla.norm(a))


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


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([1, 3]), max_dim=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_rho_cut_independence_when_b_squared_vanishes(m, max_dim, seed):
    # zero differentials: B^2 = 0, so no nonzero cluster fixes the cuts
    x = random_chirality_complex(np.random.default_rng(seed), m, max_dim)
    dims = x.complex.dims
    zero = [np.zeros((dims[j + 1], dims[j]), complex) for j in range(m)]
    x = ChiralityComplex(GradedComplex(dims, zero), x.gamma, x.h)
    s = odd_signature(x)
    assert not np.any(s.all_b2_eigs())
    lams = admissible_lambdas(s, 3)
    assert len(lams) == 3 and min(lams) > 0
    coh = cohomology(x.complex, tag="H(X)")
    vals = [rho(x, lam, th, coh_full=coh, s=s).coordinate
            for lam in lams for th in (-0.8, -2.1)]
    assert max(abs(v - vals[0]) / abs(vals[0]) for v in vals) < 1e-8


def test_rho_agrees_across_cuts_with_a_roundoff_restriction():
    # at the third cut D restricted to the big part at degree 1 vanishes in
    # exact arithmetic (singular values 4.6e-16 and 3.8e-17): the rank floor
    # scaled by ||D|| gives it rank 0, so the +/- splitting fills the big part
    x = random_chirality_complex(np.random.default_rng(4), 3, 4, acyclic=True)
    s = odd_signature(x)
    coh = cohomology(x.complex, tag="H(X)")
    lams = admissible_lambdas(s, 3)
    assert np.allclose(lams, [0.0, 2.531, 3.537], atol=1e-3)
    vals = [rho(x, lam, -0.9, coh_full=coh, s=s).coordinate for lam in lams]
    assert max(abs(v - vals[0]) / abs(vals[0]) for v in vals) < 1e-8


def census_zero_cluster_draws():
    """(draw, complex, its signature data, first nonzero |mu|) for every refined
    draw of perfbench/census.py at seed 11 whose B^2 has a zero cluster and a
    nonzero eigenvalue."""
    rng = np.random.default_rng(11)
    shapes = [(m, max_dim) for max_dim in (4, 16, 32) for m in (1, 3)]
    for i in range(200):
        x = random_chirality_complex(rng, *shapes[i % len(shapes)])
        s = odd_signature(x)
        mu = np.abs(s.all_b2_eigs())
        nonzero = mu[mu > ZERO_EIG_RTOL * max(1.0, float(np.max(mu)))]
        if 0 < nonzero.size < mu.size:
            yield i, x, s, float(np.min(nonzero))


def test_zero_gap_cut_agrees_with_the_admissible_cuts():
    # at a cut between the zero cluster and the first nonzero |mu|, D
    # restricted to the small part vanishes in exact arithmetic; at D's scale
    # its roundoff gets rank 0, so the small cohomology has the full dims
    n_draws = n_agree = 0
    for i, x, s, first in census_zero_cluster_draws():
        n_draws += 1
        coh = cohomology(x.complex, tag="H(X)")
        if i == 23:
            # m = 3, dims (14, 32, 32, 14), first nonzero |mu| 3.4e-3: a
            # conditioning failure, not a scale one (ROADMAP item 3)
            with pytest.raises(DegeneracyError, match=r"^B on the \+/- splitting, degree 2 -> 0,"
                               r" does not preserve the spectral subspace$"):
                rho(x, first / 2, -0.9, coh_full=coh, s=s)
            continue
        r0 = rho(x, first / 2, -0.9, coh_full=coh, s=s).coordinate
        for lam in admissible_lambdas(s, 3):
            r = rho(x, lam, -0.9, coh_full=coh, s=s).coordinate
            assert abs(r - r0) <= 1e-8 * abs(r0), (i, lam)
        n_agree += 1
    assert (n_draws, n_agree) == (139, 138)


def test_a_cut_whose_property_raises_raises_again():
    # at the zero-gap cut of census draw 23 the split's pm raises; a cached
    # property that raises stores nothing, so the next rho raises it again
    x, s, first = next((x, s, first) for i, x, s, first in census_zero_cluster_draws()
                       if i == 23)
    coh = cohomology(x.complex, tag="H(X)")
    split = spectral_split(s, first / 2)
    messages = []
    for _ in range(2):
        with pytest.raises(DegeneracyError) as err:
            rho(x, first / 2, -0.9, coh_full=coh, s=s)
        messages.append(str(err.value))
        assert not {"pm", "pm_eigs"} & vars(split).keys()
    assert messages == ["B on the +/- splitting, degree 2 -> 0, does not preserve the "
                        "spectral subspace"] * 2


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


def _outcome(f, *args):
    """f(*args), or the type and message of the DegeneracyError it raises."""
    try:
        return f(*args)
    except DegeneracyError as e:  # SpectralGapError and AgmonError included
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 3]), max_dim=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1), theta=st.floats(-3.1, -0.05))
@example(m=3, max_dim=6, seed=6, theta=-0.9)  # a cut whose +/- ranks need the scaled floor
def test_memoised_cuts_match_a_fresh_signature(m, max_dim, seed, theta):
    # the refined sweep on one shared s, against a fresh odd_signature and
    # fresh cohomologies per call: the same values bit for bit, or the same
    # error.  The last rho of each cut pushes to another Det H^* (tag H(Y)).
    x = random_chirality_complex(np.random.default_rng(seed), m, max_dim)
    shared = odd_signature(x)
    coh = {tag: cohomology(x.complex, tag=tag) for tag in ("H(X)", "H(Y)")}
    top = float(np.max(np.abs(shared.all_b2_eigs())))
    for lam in admissible_lambdas(shared, 3) + [top]:  # the last cut hits the gap check
        for th, tag in ((theta, "H(X)"), (theta / 2.0 - 1.1, "H(X)"), (theta, "H(Y)")):
            def calls(s, c):
                return [_outcome(rho, x, lam, th, c, s),
                        _outcome(graded_determinant, s, lam, th),
                        _outcome(eta_xi_finite, s, th, lam)]
            fresh = calls(odd_signature(x), cohomology(x.complex, tag=tag))
            assert calls(shared, coh[tag]) == fresh


def test_memoised_split_is_shared_and_read_only():
    x = random_chirality_complex(np.random.default_rng(9), 3, 3, acyclic=True)
    s = odd_signature(x)
    lam = admissible_lambdas(s, 2)[-1]
    split = spectral_split(s, lam)
    assert spectral_split(s, lam) is split
    pm = pm_split(s, split)
    assert pm_split(s, split) is pm
    arrays = [*split.u_small_blocks, *split.u_big_blocks, *split.eig_big_blocks,
              *pm.plus_bases.values(), *pm.minus_bases.values(), pm.b_plus, pm.b_minus]
    assert all(a.size for a in split.u_small_blocks + split.u_big_blocks)
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_agmon_error_repeats_on_a_memoised_cut():
    # B+ has the eigenvalue e^{-0.9i}: theta = -0.9 sits on it, -2.0 does not
    x = simple_m1(np.exp(-0.9j))
    s = odd_signature(x)
    errors = []
    for th in (-0.9, -2.0, -0.9):
        try:
            value = rho(x, 0.0, th, s=s).coordinate
        except AgmonError as e:
            errors.append(str(e))
        else:
            assert value == rho(x, 0.0, th).coordinate
    assert len(errors) == 2 and errors[0] == errors[1]


def test_one_schur_form_per_block_per_cut(monkeypatch):
    # odd_signature factors every nonempty B^2 block once; a new cut reorders
    # each form (at most one ztrsen per block) and eta_xi_finite solves
    # eigenvalue problems of B+ and B- only, not of B^2
    x = random_chirality_complex(np.random.default_rng(4), 3, 4, acyclic=True)
    calls = {"schur": [], "eigvals": [], "solve_sylvester": [], "ztrsen": []}
    # eigvals: chirality's binding of linalg.eigvals, and scipy's, which nothing should reach
    for owner, name in ((sla, "schur"), (chirality, "eigvals"), (sla, "eigvals"),
                        (sla, "solve_sylvester"), (lapack, "ztrsen")):
        monkeypatch.setattr(owner, name, lambda a, *args, _n=name, _f=getattr(owner, name),
                            **kw: calls[_n].append(a) or _f(a, *args, **kw))
    s = odd_signature(x)
    blocks = [t for t, _ in s.b2_schur if t.size]
    assert len(calls["schur"]) == len(blocks) == x.m + 1
    assert not calls["eigvals"]
    calls["schur"].clear()
    for lam in admissible_lambdas(s, 2):  # at the third cut B- is empty: no eigvals
        split = spectral_split(s, lam)
        assert len(calls["ztrsen"]) <= len(blocks)
        calls["ztrsen"].clear()
        eta_xi_finite(s, -0.9, lam)
        pm = pm_split(s, split)
        assert not calls["schur"] and not calls["solve_sylvester"] and not calls["ztrsen"]
        assert [a.shape for a in calls["eigvals"]] == [pm.b_plus.shape, pm.b_minus.shape]
        assert calls["eigvals"][0] is pm.b_plus and calls["eigvals"][1] is pm.b_minus
        calls["eigvals"].clear()
