"""Seeded invariant suites for every module, shared by the CLI and the tests.

Each suite returns a list of (name, passed, detail) triples; run_all collects
them.  level 'quick' shrinks sample counts, 'full' runs the spec-sized loads.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from . import chain, chirality, cw, gauge, holomorphy
from .chain import (DetLineElement, GradedComplex, ShortExactSequenceData,
                    canonical_iso, cohomology, cone, fusion, torsion_acyclic,
                    verify_complex)
from .chirality import (ChiralityComplex, admissible_lambdas, dual_relation_residual,
                        eta_xi_finite, graded_determinant, odd_signature,
                        random_chirality_complex, rho, spectral_split)
from .holomorphy import ComplexFamily, cr_residual
from .linalg import AgmonError, DegeneracyError, SpectralGapError, spectral_projector
from .spectral import (CircleModel, ZetaEvaluator, eta_circle,
                       gluing_check_lesch, k_squared_holomorphy,
                       zeta_det_laplacian_circle)


def random_acyclic_complex(rng: np.random.Generator, max_len: int = 3,
                           max_dim: int = 6) -> GradedComplex:
    """Seeded random acyclic complex via conjugated standard differentials."""
    while True:
        m = int(rng.integers(1, max_len + 1))
        dims = [int(rng.integers(1, max_dim + 1)) for _ in range(m + 1)]
        ranks, prev, ok = [], 0, True
        for j in range(m + 1):
            rk = dims[j] - prev
            if rk < 0 or (j < m and rk > dims[j + 1]):
                ok = False
                break
            ranks.append(rk)
            prev = rk
        if not ok or ranks[-1] != 0:
            continue
        diffs = []
        for j in range(m):
            d = np.zeros((dims[j + 1], dims[j]), dtype=np.complex128)
            for i in range(ranks[j]):
                d[i, dims[j] - ranks[j] + i] = 1.0 + rng.uniform(0.2, 1.0)
            diffs.append(d)
        g = [np.eye(dims[j], dtype=complex)
             + 0.4 * (rng.standard_normal((dims[j], dims[j]))
                      + 1j * rng.standard_normal((dims[j], dims[j])))
             for j in range(m + 1)]
        diffs = [g[j + 1] @ diffs[j] @ sla.inv(g[j]) for j in range(m)]
        return GradedComplex(tuple(dims), diffs), ranks


def chain_suite(seed: int, level: str = "quick"):
    rng = np.random.default_rng(seed)
    n_cases = 100 if level == "full" else 25
    out = []

    worst = 0.0
    for _ in range(n_cases):
        c, ranks = random_acyclic_complex(rng)
        if not verify_complex(c):
            worst = float("inf")
            break
        t1 = torsion_acyclic(c, "auto").coordinate
        comps = []
        for j, (k, r) in enumerate(zip(c.dims, ranks)):
            comps.append(rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r)))
        t2 = torsion_acyclic(c, comps).coordinate
        worst = max(worst, abs(t1 - t2) / abs(t1))
    out.append(("torsion_complement_independence", worst < 1e-9, f"max rel dev {worst:.2e}"))

    # covariance: rescaling a degree-j cohomology basis vector by s
    c = GradedComplex((2, 3, 2), [np.zeros((3, 2), complex), np.zeros((2, 3), complex)])
    coh = cohomology(c)
    base = canonical_iso(c, coh)
    ok = True
    for j, s in ((0, 2.0 - 1.0j), (1, -0.4 + 0.8j), (2, 3.0)):
        reps = [r.copy() for r in coh.representatives]
        reps[j][:, 0] *= s
        coh2 = chain.Cohomology(coh.dims, reps, [], tag=coh.tag)
        ratio = canonical_iso(c, coh2).coordinate / base.coordinate
        want = s ** (1 if j % 2 else -1)
        ok = ok and abs(ratio - want) <= 1e-12 * abs(want)
    out.append(("canonical_iso_covariance", ok, "s^((-1)^(j+1)) exact"))

    # cone of an isomorphism: acyclic, torsion = +- prod det(f_j)^{(-1)^j};
    # the sign depends only on the dimension vector
    ok = True
    detail = ""
    signs_by_dims: dict[tuple, int] = {}
    for _ in range(max(10, n_cases // 2)):
        dims = tuple(int(rng.integers(1, 4)) for _ in range(3))
        src, _ = _random_complex_with_dims(rng, dims)
        f = [np.eye(d, dtype=complex)
             + 0.4 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for d in dims]
        tgt = GradedComplex(dims, [f[j + 1] @ src.d(j) @ sla.inv(f[j])
                                   for j in range(len(dims) - 1)])
        cn = cone(f, src, tgt)
        if any(cohomology(cn).dims):
            ok = False
            detail = "cone of iso not acyclic"
            break
        t = torsion_acyclic(cn).coordinate
        want = np.prod([sla.det(f[j]) ** (1 if j % 2 == 0 else -1)
                        for j in range(len(dims))])
        r = t / want
        if abs(abs(r) - 1) > 1e-9:
            ok = False
            detail = f"cone torsion ratio {r}"
            break
        s = 1 if abs(r - 1) < abs(r + 1) else -1
        if abs(r - s) > 1e-9:
            ok = False
            detail = f"cone torsion ratio {r} not a sign"
            break
        if signs_by_dims.setdefault(dims, s) != s:
            ok = False
            detail = f"sign varies within dims {dims}"
            break
    out.append(("cone_iso_torsion", ok, detail or "sign constant per dimension vector"))

    # fusion associativity on coordinate-split towers
    worst = 0.0
    for _ in range(max(5, n_cases // 5)):
        worst = max(worst, _fusion_tower_once(rng))
    out.append(("fusion_associativity", worst < 1e-9, f"max rel dev {worst:.2e}"))
    return out


def _random_complex_with_dims(rng, dims):
    ranks, prev = [], 0
    for j in range(len(dims)):
        hi = min(dims[j] - prev, dims[j + 1] if j + 1 < len(dims) else 0)
        rk = int(rng.integers(0, hi + 1)) if hi > 0 else 0
        ranks.append(rk)
        prev = rk
    diffs = []
    for j in range(len(dims) - 1):
        d = np.zeros((dims[j + 1], dims[j]), dtype=np.complex128)
        for i in range(ranks[j]):
            d[i, dims[j] - ranks[j] + i] = 1.0 + rng.uniform(0.2, 1.0)
        diffs.append(d)
    g = [np.eye(dims[j], dtype=complex)
         + 0.35 * (rng.standard_normal((dims[j], dims[j]))
                   + 1j * rng.standard_normal((dims[j], dims[j])))
         for j in range(len(dims))]
    return GradedComplex(tuple(dims),
                         [g[j + 1] @ diffs[j] @ sla.inv(g[j])
                          for j in range(len(dims) - 1)]), ranks


def _fusion_tower_once(rng) -> float:
    """A (+) M (+) Q tower with block-triangular differential; two fusion routes."""
    na, nm, nq = (int(rng.integers(1, 3)) for _ in range(3))
    degs = 2
    dims_a = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    dims_m = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    dims_q = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    dims_b = tuple(a + m for a, m in zip(dims_a, dims_m))
    dims_c = tuple(a + m + q for a, m, q in zip(dims_a, dims_m, dims_q))
    # block upper-triangular differential preserving the filtration A < B < C
    d = np.zeros((dims_c[1], dims_c[0]), dtype=np.complex128)
    d[:, :] = 0.3 * (rng.standard_normal(d.shape) + 1j * rng.standard_normal(d.shape))
    # zero the blocks mapping A-coords into M/Q rows and B-coords into Q rows
    d[dims_a[1]:, :dims_a[0]] = 0.0
    d[dims_b[1]:, :dims_b[0]] = 0.0
    c_cpx = GradedComplex(dims_c, [d])
    a_cpx = GradedComplex(dims_a, [d[:dims_a[1], :dims_a[0]]])
    b_cpx = GradedComplex(dims_b, [d[:dims_b[1], :dims_b[0]]])
    m_cpx = GradedComplex(dims_m, [d[dims_a[1]:dims_b[1], dims_a[0]:dims_b[0]]])
    q_cpx = GradedComplex(dims_q, [d[dims_b[1]:, dims_b[0]:]])
    mq_dims = tuple(m + q for m, q in zip(dims_m, dims_q))
    mq_cpx = GradedComplex(mq_dims, [d[dims_a[1]:, dims_a[0]:]])

    def incl(sub, amb, offset):
        mats = []
        for j in range(degs):
            m_ = np.zeros((amb[j], sub[j]), complex)
            m_[offset[j]:offset[j] + sub[j], :] = np.eye(sub[j])
            mats.append(m_)
        return mats

    def proj(amb, quo, offset):
        mats = []
        for j in range(degs):
            m_ = np.zeros((quo[j], amb[j]), complex)
            m_[:, offset[j]:offset[j] + quo[j]] = np.eye(quo[j])
            mats.append(m_)
        return mats

    one = lambda cc: DetLineElement(1.0, "std", tuple(enumerate(cc.dims)))
    # route 1: (A, M) -> B, then (B, Q) -> C
    ses_ab = ShortExactSequenceData(a_cpx, b_cpx, m_cpx,
                                    incl(dims_a, dims_b, (0, 0)),
                                    proj(dims_b, dims_m, dims_a))
    b_elt = fusion(one(a_cpx), one(m_cpx), ses_ab)
    ses_bc = ShortExactSequenceData(b_cpx, c_cpx, q_cpx,
                                    incl(dims_b, dims_c, (0, 0)),
                                    proj(dims_c, dims_q, dims_b))
    c1 = fusion(DetLineElement(b_elt.coordinate, "std", tuple(enumerate(dims_b))),
                one(q_cpx), ses_bc)
    # route 2: (M, Q) -> MQ, then (A, MQ) -> C
    ses_mq = ShortExactSequenceData(m_cpx, mq_cpx, q_cpx,
                                    incl(dims_m, mq_dims, (0, 0)),
                                    proj(mq_dims, dims_q, dims_m))
    mq_elt = fusion(one(m_cpx), one(q_cpx), ses_mq)
    ses_ac = ShortExactSequenceData(a_cpx, c_cpx, mq_cpx,
                                    incl(dims_a, dims_c, (0, 0)),
                                    proj(dims_c, mq_dims, dims_a))
    c2 = fusion(one(a_cpx),
                DetLineElement(mq_elt.coordinate, "std", tuple(enumerate(mq_dims))),
                ses_ac)
    return abs(c1.coordinate - c2.coordinate) / abs(c1.coordinate)


def cw_suite(seed: int, level: str = "quick"):
    rng = np.random.default_rng(seed)
    n_reps = 20 if level == "full" else 8
    out = []
    circle = cw.CWData(cells=[("v", 0), ("e", 1)],
                       boundary={"e": [("v", 1, "t"), ("v", -1, "")]},
                       generators=["t"])
    # twisted dd = 0 for trivial + seeded random representations on a 2-complex
    torus_like = cw.CWData(
        cells=[("v", 0), ("a", 1), ("b", 1), ("f", 2)],
        boundary={"a": [("v", 1, "t"), ("v", -1, "")],
                  "b": [("v", 1, "s"), ("v", -1, "")],
                  "f": [("a", 1, ""), ("b", 1, "t"), ("a", -1, "s"), ("b", -1, "")]},
        generators=["t", "s"], relations=["t s t^-1 s^-1"])
    ok, detail = True, ""
    for i in range(n_reps):
        n = int(rng.integers(1, 3))
        if i == 0:
            rep = cw.trivial_representation(n, ["t", "s"])
        else:
            # commuting pair keeps the torus relation exact
            g = np.diag(rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n)))
            h_ = np.diag(rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n)))
            rep = cw.Representation(n, {"t": g, "s": h_})
        c = cw.build_cochain(torus_like, rep)
        d = c.composition_defect()
        if d > 1e-10:
            ok, detail = False, f"dd defect {d:.2e}"
            break
    out.append(("twisted_dd_zero", ok, detail or f"{n_reps} representations"))

    # Euler-structure covariance on circle and interval
    rep = cw.Representation(2, {"t": np.array([[2.0, 1.0], [0.0, 3.0]], complex)})
    s0 = cw.sigma(circle, rep)
    r_edge = cw.sigma(circle.change_lift("e", "t"), rep).coordinate / s0.coordinate
    r_vert = cw.sigma(circle.change_lift("v", "t"), rep).coordinate / s0.coordinate
    det_t = sla.det(rep.matrices["t"])
    ok = abs(r_edge - 1 / det_t) < 1e-9 and abs(r_vert - det_t) < 1e-9
    out.append(("sigma_lift_covariance", ok,
                f"edge {r_edge:.6g} vs {1/det_t:.6g}, vertex {r_vert:.6g} vs {det_t:.6g}"))

    # sign constancy of the sigma relation
    interval = cw.CWData(cells=[("v1", 0), ("v2", 0), ("e", 1)],
                         boundary={"e": [("v2", 1, ""), ("v1", -1, "")]},
                         generators=[], boundary_subcomplex={"v1", "v2"})
    sign, _ = cw.check_sigma_relation(
        interval, [cw.trivial_representation(n, []) for n in range(1, 5)])
    circ2 = cw.CWData(cells=[("v1", 0), ("v2", 0), ("e1", 1), ("e2", 1)],
                      boundary={"e1": [("v2", 1, ""), ("v1", -1, "")],
                                "e2": [("v1", 1, "t"), ("v2", -1, "")]},
                      generators=["t"], boundary_subcomplex={"v1", "v2"})
    reps = [cw.Representation(2, {"t": np.eye(2, dtype=complex)
                                  + 0.4 * (rng.standard_normal((2, 2))
                                           + 1j * rng.standard_normal((2, 2)))})
            for _ in range(10)]
    sign2, _ = cw.check_sigma_relation(circ2, reps)
    out.append(("sigma_relation_sign_constancy", True,
                f"interval sign {sign}, split-circle sign {sign2}"))

    # rationality: sigma along a linear family interpolates as a polynomial
    ts = np.linspace(-0.2, 0.2, 5)
    vals = []
    for t in ts:
        rep1 = cw.Representation(1, {"t": np.array([[2.0 + t]], complex)})
        vals.append(cw.sigma(circle, rep1).coordinate)
    coeffs = np.polyfit(ts, np.array(vals), 3)
    probe = 0.13
    rep_p = cw.Representation(1, {"t": np.array([[2.0 + probe]], complex)})
    direct = cw.sigma(circle, rep_p).coordinate
    interp = np.polyval(coeffs, probe)
    ok = abs(direct - interp) < 1e-9
    out.append(("sigma_rational_interpolation", ok, f"dev {abs(direct-interp):.2e}"))
    return out


def chirality_suite(seed: int, level: str = "quick"):
    rng = np.random.default_rng(seed)
    n_cases = 50 if level == "full" else 12
    out = []

    worst_dual = 0.0
    for _ in range(max(6, n_cases // 4)):
        m = 1 if rng.integers(0, 2) == 0 else 3
        x = random_chirality_complex(rng, m, 3)
        worst_dual = max(worst_dual, dual_relation_residual(x))
    out.append(("dual_relation", worst_dual < 1e-12, f"max residual {worst_dual:.2e}"))

    # rho invariance across admissible cuts and branch angles
    worst = 0.0
    n_done = n_skipped = 0
    for trial in range(n_cases):
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
                    n_skipped += 1
        if len(vals) >= 2:
            n_done += 1
            worst = max(worst, max(abs(v - vals[0]) / abs(vals[0]) for v in vals))
    out.append(("rho_cut_invariance", worst < 1e-8,
                f"{n_done} complexes, max rel dev {worst:.2e}, {n_skipped} pairs skipped"))

    # multiplicativity of the graded determinant under direct sums
    worst = 0.0
    for _ in range(max(5, n_cases // 4)):
        m = 3
        x = random_chirality_complex(rng, m, 3, acyclic=True)
        y = random_chirality_complex(rng, m, 3, acyclic=True)
        xy = ChiralityComplex(
            x.complex.direct_sum(y.complex),
            [sla.block_diag(gx, gy) for gx, gy in zip(x.gamma, y.gamma)],
            [sla.block_diag(hx, hy) for hx, hy in zip(x.h, y.h)])
        dg = graded_determinant(odd_signature(xy), 0.0, -0.9)
        dgx = graded_determinant(odd_signature(x), 0.0, -0.9)
        dgy = graded_determinant(odd_signature(y), 0.0, -0.9)
        worst = max(worst, abs(dg - dgx * dgy) / abs(dg))
    out.append(("graded_det_multiplicative", worst < 1e-10, f"max rel dev {worst:.2e}"))

    # Schur projector equals eigenprojection on diagonalizable input
    a = np.diag([1.0, 9.0, 25.0]) + 0.0j
    g = np.eye(3) + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = g @ a @ sla.inv(g)
    p, _, rk = spectral_projector(a, lambda z: abs(z) <= 4.0)
    w, v = sla.eig(a)
    vi = sla.inv(v)
    p_eig = sum(np.outer(v[:, i], vi[i, :]) for i in range(3) if abs(w[i]) <= 4.0)
    ok = rk == 1 and sla.norm(p - p_eig) < 1e-10
    out.append(("schur_vs_eigenprojection", ok, f"dev {sla.norm(p - p_eig):.2e}"))

    # ker decomposition fills the large part
    x = random_chirality_complex(rng, 3, 3, acyclic=True)
    s = odd_signature(x)
    split = spectral_split(s, 0.0)
    pm = chirality.pm_split(s, split)
    dim_even_big = sum(split.u_big_blocks[j].shape[1] for j in range(0, 4, 2))
    dim_pm = pm.b_plus.shape[0] + pm.b_minus.shape[0]
    out.append(("kern_decomposition", dim_pm == dim_even_big,
                f"{dim_pm} vs {dim_even_big}"))

    # finite determinant identity
    worst = 0.0
    for _ in range(max(5, n_cases // 4)):
        m = 1 if rng.integers(0, 2) == 0 else 3
        x = random_chirality_complex(rng, m, 3, acyclic=True)
        s = odd_signature(x)
        th = -0.9
        dg = graded_determinant(s, 0.0, th)
        ex = eta_xi_finite(s, th, 0.0)
        worst = max(worst, abs(ex.det_gr_reconstruction() - dg) / abs(dg))
    out.append(("det_gr_eta_xi_identity", worst < 1e-10, f"max rel dev {worst:.2e}"))
    return out


def holomorphy_suite(seed: int, level: str = "quick"):
    rng = np.random.default_rng(seed)
    out = []
    fam = seeded_linear_family(rng)
    r1, r2, order = holomorphy.graded_det_along_curve(fam, 0.0, -0.9, 0.0, 1e-4)
    out.append(("graded_det_cr", r1 < 1e-6 and order >= 1.8,
                f"residual {r1:.2e}, order {order:.2f}"))

    res_anti = cr_residual(lambda z: np.conj(z) ** 2 + 1.0, 0.3 + 0.1j, 1e-4)
    out.append(("antiholomorphic_detection", res_anti > 1e-2, f"residual {res_anti:.2e}"))

    s = odd_signature(fam.at(0.0))
    lam = admissible_lambdas(s, 3)[1]
    diag, off = holomorphy.projection_derivative_check(fam, lam, 0.0, 1e-4)
    out.append(("projection_derivative_structure", diag < 1e-6 and off > 1e-3,
                f"diag {diag:.2e}, offdiag {off:.2e}"))
    return out


def spectral_suite(seed: int, level: str = "quick"):
    rng = np.random.default_rng(seed)
    n_a = 20 if level == "full" else 8
    out = []
    z = ZetaEvaluator()
    worst0 = worst1 = 0.0
    for _ in range(n_a):
        a = complex(rng.uniform(0.05, 1.95), rng.uniform(-0.9, 0.9))
        worst0 = max(worst0, abs(z.hurwitz(0.0, a) - (0.5 - a)))
        lg = complex(_loggamma(a)) - 0.5 * math.log(2 * math.pi)
        worst1 = max(worst1, abs(z.hurwitz_ds(0.0, a) - lg))
    out.append(("lerch_identities", worst0 < 1e-12 and worst1 < 1e-10,
                f"zeta(0) dev {worst0:.2e}, zeta'(0) dev {worst1:.2e}"))

    m = CircleModel(1.7, complex(math.cos(2.0), math.sin(2.0)) * 1.1)
    d1 = zeta_det_laplacian_circle(m, ZetaEvaluator(cutoff=40, order=8))
    d2 = zeta_det_laplacian_circle(m, ZetaEvaluator(cutoff=80, order=10))
    out.append(("cutoff_stability", abs(d1 - d2) < 1e-10, f"dev {abs(d1-d2):.2e}"))

    worst = 0.0
    for th in (0.4, 1.1, 2.9):
        e1 = eta_circle(CircleModel(1.0, complex(math.cos(th), math.sin(th))))
        e2 = eta_circle(CircleModel(1.0, complex(math.cos(2 * math.pi - th),
                                                 math.sin(2 * math.pi - th))))
        worst = max(worst, abs(e1 + e2))
    out.append(("eta_window_symmetry", worst < 1e-12, f"max |eta(t)+eta(2pi-t)| {worst:.2e}"))

    res = max(gluing_check_lesch(1.0, 1.0), gluing_check_lesch(0.5, 1.5),
              gluing_check_lesch(2.0, 6.0))
    out.append(("lesch_residual", res < 1e-6, f"max residual {res:.2e}"))

    r1 = k_squared_holomorphy(lambda w: 2j + w, 0.0, 1e-3)
    r2 = k_squared_holomorphy(lambda w: 2j + w, 0.0, 5e-4)
    order = math.log2(r1 / r2) if r2 > 0 else float("inf")
    out.append(("k_squared_order", r1 < 1e-6 and order > 1.5,
                f"residual {r1:.2e}, order {order:.2f}"))
    return out


def _loggamma(a: complex) -> complex:
    import scipy.special as sp
    return sp.loggamma(a)


def seeded_linear_family(rng: np.random.Generator) -> ComplexFamily:
    """Well-separated m = 1 family D(z) = D0 + z Omega for the holomorphy checks.

    D0 has three spread-out diagonal clusters so the spectral gaps of B^2 stay
    wide along the family; Omega is a mild generic perturbation.
    """
    base = np.diag([1.0, 3.0, 9.0]) + 0.0j
    g = np.eye(3) + 0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    d0 = g @ base @ sla.inv(g)
    om = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    eye = [np.eye(3, dtype=complex)] * 2

    def build(z):
        return ChiralityComplex(GradedComplex((3, 3), [d0 + z * om]), eye, eye)

    return ComplexFamily(build)


def gauge_suite(seed: int, level: str = "quick"):
    rng = np.random.default_rng(seed)
    n_fields = 10 if level == "full" else 3
    out = []
    worst_t = worst_c = worst_m = 0.0
    for _ in range(n_fields):
        fld = gauge.pure_gauge_field(rng, n=2, n_x=65, n_y=65, eps=0.5)
        c_before = gauge.curvature_residual(fld)
        gt = gauge.solve_gauge_ode(fld, steps=4)
        after = gauge.gauge_transform(fld, gt)
        t0, t1 = gauge.temporal_residual(after)
        worst_t = max(worst_t, t0, t1)
        worst_c = max(worst_c, abs(gauge.curvature_residual(after) - c_before))
        i0 = (fld.xs.size - 1) // 2
        path = gauge.rectangle_path(fld, i0, 8, i0 + 16, 40)
        ev = lambda m: np.sort_complex(np.linalg.eigvals(m))
        dev = np.max(np.abs(ev(gauge.monodromy(fld, path, 12))
                            - ev(gauge.monodromy(after, path, 12))))
        worst_m = max(worst_m, float(dev))
    out.append(("temporal_pipeline", worst_t < 1e-6, f"max residual {worst_t:.2e}"))
    out.append(("curvature_preserved", worst_c < 1e-6, f"max change {worst_c:.2e}"))
    out.append(("monodromy_conjugacy", worst_m < 1e-6, f"max eig dev {worst_m:.2e}"))

    # 4th-order convergence of the integrator
    n = 2
    a = 0.6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    xs = np.linspace(-0.5, 0.5, 17)
    ys = np.linspace(0, 1, 5)
    om0 = np.tile(a, (17, 5, 1, 1))

    def exact(x, y):
        shape = np.broadcast(x, y).shape + (n, n)
        return np.broadcast_to(a, shape), np.zeros(shape)

    fld = gauge.GaugeField(xs, ys, om0, np.zeros_like(om0), exact=exact)
    errs = []
    for steps in (1, 2):
        gt = gauge.solve_gauge_ode(fld, steps=steps)
        errs.append(max(np.linalg.norm(gt.gamma[ix, 0] - sla.expm(-xs[ix] * a))
                        for ix in range(17)))
    ratio = errs[0] / errs[1]
    out.append(("rk4_convergence", ratio >= 14.0, f"halving ratio {ratio:.1f}"))
    return out


SUITES = {
    "chain_complex": chain_suite,
    "cw_twisted": cw_suite,
    "refined_finite": chirality_suite,
    "holomorphy": holomorphy_suite,
    "spectral_1d": spectral_suite,
    "temporal_gauge": gauge_suite,
}


def run_all(seed: int, level: str = "quick"):
    results = {}
    for name, suite in SUITES.items():
        results[name] = suite(seed, level)
    return results
