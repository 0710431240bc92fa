"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import scipy.linalg as sla

from torsionkit.chain import (DetLineElement, GradedComplex, cohomology, cone,
                              fusion, les_of_ses, torsion_acyclic)
from torsionkit.chirality import (ChiralityComplex, admissible_lambdas,
                                  odd_signature, random_chirality_complex, rho)
from torsionkit.cw import (CWData, Representation, check_sigma_relation,
                           trivial_representation)
from torsionkit.holomorphy import (ComplexFamily, RepresentationCurve, SectionModel,
                                   cr_order, cr_residual, doubled_cochain,
                                   graded_det_along_curve,
                                   projection_derivative_check,
                                   section_ratio_residual)
from torsionkit.gauge import (gauge_transform, monodromy, pure_gauge_field,
                              rectangle_path, solve_gauge_ode, temporal_residual)
from torsionkit.linalg import AgmonError, DegeneracyError, SpectralGapError
from torsionkit.selftest import random_acyclic_complex, seeded_linear_family
from torsionkit.spectral import (CircleModel, eta_circle, gluing_check_lesch,
                                 k_squared_holomorphy, rat_circle,
                                 zeta_det_laplacian_circle)
from torsionkit.cw import sigma

from oracles import circle_det_euler_product, fusion_bruteforce, \
    milnor_torsion_bruteforce


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def circle_cw():
    return CWData(cells=[("v", 0), ("e", 1)],
                  boundary={"e": [("v", 1, "t"), ("v", -1, "")]},
                  generators=["t"])


def test_criterion_1_rho_cut_and_angle_independence():
    rng = np.random.default_rng(2026)
    t0 = time.time()
    worst = 0.0
    n_complexes = 0
    n_evals = 0
    while n_complexes < 50:
        m = 1 if n_complexes % 2 == 0 else 3
        x = random_chirality_complex(rng, m, 4, acyclic=(n_complexes % 3 != 0))
        s = odd_signature(x)
        coh = cohomology(x.complex, tag="H(X)")
        vals = []
        for lam in admissible_lambdas(s, 3):
            for th in (-0.8, -2.1):
                try:
                    vals.append(rho(x, lam, th, coh_full=coh, s=s).coordinate)
                except (SpectralGapError, AgmonError, DegeneracyError):
                    continue
        if len(vals) < 4:
            continue
        n_complexes += 1
        n_evals += len(vals)
        worst = max(worst, max(abs(v - vals[0]) / abs(vals[0]) for v in vals))
    elapsed = time.time() - t0
    report("criterion-1 rho lambda/theta independence",
           worst < 1e-8 and elapsed < 60.0,
           f"50 complexes, {n_evals} evaluations, max rel dev {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_circle_zeta_determinants():
    t0 = time.time()
    d_pi = zeta_det_laplacian_circle(CircleModel(2 * math.pi, -1.0 + 0.0j))
    th = 2 * math.pi / 3
    d_23 = zeta_det_laplacian_circle(
        CircleModel(1.0, complex(math.cos(th), math.sin(th))))
    # independent spectral-product oracle (truncated Euler product, Richardson)
    o_pi = circle_det_euler_product(math.pi)
    o_23 = circle_det_euler_product(th)
    elapsed = time.time() - t0
    ok = (abs(d_pi - 4.0) < 1e-8 and abs(d_23 - 3.0) < 1e-8
          and abs(o_pi - 4.0) < 1e-6 and abs(o_23 - 3.0) < 1e-6
          and elapsed < 1.0)
    report("criterion-2 circle zeta determinant",
           ok, f"det(pi)={d_pi.real:.12f}, det(2pi/3)={d_23.real:.12f}, "
               f"oracle {o_pi:.8f}/{o_23:.8f}, {elapsed:.2f}s")


def test_criterion_3_eta_values():
    t0 = time.time()
    e_pi = eta_circle(CircleModel(1.0, -1.0 + 0.0j))
    e_half = eta_circle(CircleModel(1.0, 1.0j))
    elapsed = time.time() - t0
    ok = abs(e_pi) < 1e-13 and abs(e_half - 0.5) < 1e-10 and elapsed < 1.0
    report("criterion-3 eta values", ok,
           f"eta(pi)={abs(e_pi):.2e}, eta(pi/2)={e_half.real:.12f}, {elapsed:.2f}s")


def test_criterion_4_lesch_gluing_factor():
    r1 = gluing_check_lesch(1.0, 1.0)
    r2 = gluing_check_lesch(0.5, 1.5)
    ok = r1 < 1e-6 and r2 < 1e-6
    report("criterion-4 Lesch gluing factor", ok,
           f"residual(1+1)={r1:.2e}, residual(0.5+1.5)={r2:.2e}")


def test_criterion_5_holomorphy_certification():
    k = circle_cw()
    curve = RepresentationCurve(1, {"t": [np.array([[2.0]], complex),
                                          np.array([[1.0]], complex)]}, 0.25)
    # (a) sigma along lambda(z) = 2 + z
    ra, _, order_a = cr_order(lambda z: sigma(k, curve.at(z)).coordinate, 0.0, 1e-3)
    anti_a = cr_residual(lambda z: sigma(k, curve.at(np.conj(z))).coordinate,
                         0.05 + 0.02j, 1e-3)
    # (a') rank-2 cubic curve: genuinely measurable order
    c0 = np.array([[2.0, 1.0], [0.0, 3.0]], complex)
    curve2 = RepresentationCurve(
        2, {"t": [c0, np.eye(2, dtype=complex), np.zeros((2, 2), complex),
                  np.array([[0.0, 0.0], [1.0, 0.0]], complex)]}, 0.25)
    ra2, _, order_a2 = cr_order(lambda z: sigma(k, curve2.at(z)).coordinate, 0.1, 1e-2)
    # (b) graded determinant along a seeded linear family
    fam = seeded_linear_family(np.random.default_rng(7))
    rb, _, order_b = graded_det_along_curve(fam, 0.0, -0.9, 0.0, 1e-3)
    # (c) f(z) = rho/tau via the cone construction
    cd0 = doubled_cochain(k, curve.at(0.0))
    zero = ChiralityComplex(
        GradedComplex((0,) * len(cd0.dims),
                      [np.zeros((0, 0), complex)] * (len(cd0.dims) - 1)),
        [np.zeros((0, 0), complex)] * len(cd0.dims),
        [np.zeros((0, 0), complex)] * len(cd0.dims))
    model = SectionModel(ComplexFamily(lambda z: zero),
                         lambda z: [np.zeros((d, 0), complex) for d in cd0.dims])
    rc, _, order_c = section_ratio_residual(k, model, curve, 0.0, 2.5e-4)
    anti_c = cr_residual(
        lambda z: __import__("torsionkit.holomorphy", fromlist=["section_ratio"])
        .section_ratio(k, model, curve, np.conj(z)), 0.05 + 0.03j, 1e-3)

    def order_ok(o):
        return o >= 1.8  # inf counts as converged

    ok = (ra < 1e-6 and order_ok(order_a)
          and ra2 < 1e-6 * 1e3 and 1.8 <= order_a2 <= 2.2
          and rb < 1e-6 and order_ok(order_b)
          and rc < 1e-6 and order_ok(order_c)
          and anti_a > 1e-2 and anti_c > 1e-2)
    report("criterion-5 holomorphy certification", ok,
           f"sigma res {ra:.2e}/order {order_a}, rank2 order {order_a2:.2f}, "
           f"Det_gr res {rb:.2e}/order {order_b:.2f}, cone res {rc:.2e}/order "
           f"{order_c:.2f}, controls {anti_a:.2e}/{anti_c:.2e}")


def test_criterion_6_sign_relation_three_fixtures():
    rng = np.random.default_rng(11)
    interval = CWData(cells=[("v1", 0), ("v2", 0), ("e", 1)],
                      boundary={"e": [("v2", 1, ""), ("v1", -1, "")]},
                      generators=[], boundary_subcomplex={"v1", "v2"})
    split_circle = CWData(cells=[("v1", 0), ("v2", 0), ("e1", 1), ("e2", 1)],
                          boundary={"e1": [("v2", 1, ""), ("v1", -1, "")],
                                    "e2": [("v1", 1, "t"), ("v2", -1, "")]},
                          generators=["t"], boundary_subcomplex={"v1", "v2"})
    disc = CWData(
        cells=[("v1", 0), ("v2", 0), ("a1", 1), ("a2", 1), ("c", 1),
               ("F1", 2), ("F2", 2)],
        boundary={"a1": [("v2", 1, ""), ("v1", -1, "")],
                  "a2": [("v1", 1, ""), ("v2", -1, "")],
                  "c": [("v2", 1, ""), ("v1", -1, "")],
                  "F1": [("a1", 1, ""), ("c", -1, "")],
                  "F2": [("a2", 1, ""), ("c", 1, "")]},
        generators=[], boundary_subcomplex={"v1", "v2", "a1", "a2"})
    details = []
    ok = True
    for name, k, reps in (
        ("interval", interval, [trivial_representation(n, []) for n in range(1, 11)]),
        ("split-circle", split_circle,
         [Representation(2, {"t": np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                                                     + 1j * rng.standard_normal((2, 2)))})
          for _ in range(10)]),
        ("disc", disc, [trivial_representation(n, []) for n in range(1, 11)]),
    ):
        sign, ratios = check_sigma_relation(k, reps, tol=1e-8)
        dev = max(abs(r - sign) for r in ratios)
        details.append(f"{name}: sign {sign:+d}, max dev {dev:.2e}, {len(reps)} reps")
        ok = ok and dev < 1e-8
    report("criterion-6 sigma sign relation", ok, "; ".join(details))


def test_criterion_7_projection_derivative_structure():
    fam = seeded_linear_family(np.random.default_rng(4))
    lam = admissible_lambdas(odd_signature(fam.at(0.0)), 3)[1]
    diag, off = projection_derivative_check(fam, lam, 0.0, 1e-4)
    fam2 = seeded_linear_family(np.random.default_rng(9))
    lam2 = admissible_lambdas(odd_signature(fam2.at(0.0)), 3)[1]
    diag2, off2 = projection_derivative_check(fam2, lam2, 0.0, 1e-4)
    ok = diag < 1e-6 and diag2 < 1e-6 and off > 1e-4 and off2 > 1e-4
    report("criterion-7 projection derivative structure", ok,
           f"diag {diag:.2e}/{diag2:.2e} at h=1e-4, offdiag {off:.2e}/{off2:.2e}")


def test_criterion_8_k_squared_holomorphy():
    r = k_squared_holomorphy(lambda z: 2j + z, 0.0, 1e-4)
    ok = r < 1e-7
    report("criterion-8 K^2 holomorphy", ok, f"CR residual {r:.2e}")


def test_criterion_9_temporal_gauge_pipeline():
    rng = np.random.default_rng(77)
    worst_t = worst_m = 0.0
    for _ in range(10):
        fld = pure_gauge_field(rng, n=2, n_x=65, n_y=65, eps=0.5)
        gt = solve_gauge_ode(fld, steps=4)
        out = gauge_transform(fld, gt)
        t0, t1 = temporal_residual(out)
        worst_t = max(worst_t, t0, t1)
        i0 = (fld.xs.size - 1) // 2
        path = rectangle_path(fld, i0, 8, i0 + 16, 40)
        ev = lambda m: np.sort_complex(np.linalg.eigvals(m))
        dev = np.max(np.abs(ev(monodromy(fld, path, 12))
                            - ev(monodromy(out, path, 12))))
        worst_m = max(worst_m, float(dev))
    # 4th-order convergence of the integrator on exp(-xA)
    a = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
    xs = np.linspace(-0.5, 0.5, 17)
    ys = np.linspace(0, 1, 5)
    from torsionkit.gauge import GaugeField

    def exact(x, y):
        shape = np.broadcast(x, y).shape + (2, 2)
        return np.broadcast_to(a, shape), np.zeros(shape)

    fld = GaugeField(xs, ys, np.tile(a, (17, 5, 1, 1)), np.zeros((17, 5, 2, 2)),
                     exact=exact)
    errs = []
    for steps in (1, 2):
        gt = solve_gauge_ode(fld, steps=steps)
        errs.append(max(np.linalg.norm(gt.gamma[ix, 0] - sla.expm(-xs[ix] * a))
                        for ix in range(17)))
    ratio = errs[0] / errs[1]
    ok = worst_t < 1e-6 and worst_m < 1e-6 and ratio >= 14.0
    report("criterion-9 temporal gauge", ok,
           f"10 fields: max temporal residual {worst_t:.2e}, max monodromy eig "
           f"dev {worst_m:.2e}, RK4 halving ratio {ratio:.1f}")


def test_criterion_10_cheeger_mueller_1d():
    k = circle_cw()
    worst = 0.0
    details = []
    for theta in (math.pi / 3, math.pi / 2, math.pi):
        lam = complex(math.cos(theta), math.sin(theta))
        ra = rat_circle(CircleModel(1.0, lam), -0.9)
        comb = sigma(k, Representation(1, {"t": np.array([[lam]])})).coordinate
        dev = abs(abs(ra) - abs(comb))
        worst = max(worst, dev)
        details.append(f"theta={theta:.3f}: |rho_an|={abs(ra):.10f} vs "
                       f"|sigma|={abs(comb):.10f}")
    ok = worst < 1e-7
    report("criterion-10 1-D Cheeger-Mueller", ok,
           f"max deviation {worst:.2e} ({'; '.join(details)})")


def test_criterion_11_bruteforce_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst_t = worst_f = worst_c = worst_l = 0.0
    for case in range(100):
        # torsion_acyclic vs independent Milnor evaluation
        c, _ = random_acyclic_complex(rng, max_len=3, max_dim=4)
        t = torsion_acyclic(c).coordinate
        bf = milnor_torsion_bruteforce(c.dims, [c.d(j) for j in range(len(c.dims) - 1)],
                                       rng)
        worst_t = max(worst_t, abs(t - bf) / abs(t))

        # fusion vs independent per-degree determinants
        from test_chain import _split_ses
        ses = _split_ses(rng)
        g = [np.eye(d, dtype=complex)
             + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for d in ses.b.dims]
        b2 = GradedComplex(ses.b.dims, [g[j + 1] @ ses.b.d(j) @ sla.inv(g[j])
                                        for j in range(len(ses.b.dims) - 1)])
        from torsionkit.chain import ShortExactSequenceData
        ses2 = ShortExactSequenceData(ses.a, b2, ses.c,
                                      [g[j] @ ses.iota[j] for j in range(len(g))],
                                      [ses.pi[j] @ sla.inv(g[j]) for j in range(len(g))])
        one_a = DetLineElement(1.0, "std", tuple(enumerate(ses.a.dims)))
        one_c = DetLineElement(1.0, "std", tuple(enumerate(ses.c.dims)))
        f_lib = fusion(one_a, one_c, ses2).coordinate
        f_bf = fusion_bruteforce(ses2, rng)
        worst_f = max(worst_f, abs(f_lib - f_bf) / abs(f_bf))

        # cone torsion of the zero map vs bruteforce on the assembled block complex
        c1, _ = random_acyclic_complex(rng, max_len=2, max_dim=3)
        c2, _ = random_acyclic_complex(rng, max_len=2, max_dim=3)
        f0 = [np.zeros(((c2.dims[j] if j < len(c2.dims) else 0), c1.dims[j]), complex)
              for j in range(len(c1.dims))]
        cn = cone(f0, c1, c2)
        t_lib = torsion_acyclic(cn).coordinate
        t_bf = milnor_torsion_bruteforce(cn.dims,
                                         [cn.d(j) for j in range(len(cn.dims) - 1)],
                                         rng)
        worst_c = max(worst_c, abs(t_lib - t_bf) / abs(t_lib))

        # les_of_ses torsion vs bruteforce torsion of the assembled LES complex
        les = les_of_ses(ses2)
        if any(d > 0 for d in les.les.dims):
            l_bf = milnor_torsion_bruteforce(
                les.les.dims, [les.les.d(j) for j in range(len(les.les.dims) - 1)],
                rng)
            worst_l = max(worst_l, abs(les.torsion - l_bf) / abs(les.torsion))
    ok = max(worst_t, worst_f, worst_c, worst_l) < 1e-9
    report("criterion-11 brute-force oracle equivalence", ok,
           f"100 cases: torsion {worst_t:.2e}, fusion {worst_f:.2e}, "
           f"cone {worst_c:.2e}, les {worst_l:.2e}")
