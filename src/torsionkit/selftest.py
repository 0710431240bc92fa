"""Every numerically checked claim of torsionkit, defined once.

CRITERIA lists them: the acceptance criteria 1-10 in order, then the
per-module invariants.  Each Criterion holds a name, the bounds its measured
values must meet, an optional wall-clock budget and measure(seed), which
returns (values, detail).  `torsionkit selftest` runs every entry at --seed;
the acceptance tests run each at a pinned seed and also assert the budget.
The seeded fixtures that the entries share with the tests follow the runner.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from . import chirality, gauge
from .chain import (TOL_COMPLEX, Cohomology, DetLineElement, GradedComplex,
                    ShortExactSequenceData, acyclic_ranks, canonical_iso, cohomology, cone,
                    conjugate, fusion, random_isos, standard_complex, torsion_acyclic)
from .chirality import (INVARIANCE_TOL, ChiralityComplex, admissible_lambdas,
                        dual_relation_residual, eta_xi_finite, graded_determinant,
                        odd_signature, random_chirality_complex, rho, spectral_split)
from .cw import (SIGMA_RATIO_TOL, CWData, Representation, build_cochain,
                 check_sigma_relation, sigma, trivial_representation)
from .holomorphy import (ComplexFamily, RepresentationCurve, cr_order, cr_residual,
                         doubled_cochain, graded_det_along_curve,
                         projection_derivative_check, section_ratio,
                         section_ratio_residual, zero_section_model)
from .linalg import (AgmonError, DegeneracyError, SpectralGapError, StructuralError,
                     spectral_projector)
from .spectral import (K2_TOL, LESCH_TOL, CircleModel, ZetaEvaluator, eta_circle,
                       gluing_check_lesch, k_squared_holomorphy, rat_circle,
                       zeta_det_laplacian_circle)

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Criterion:
    """A checked claim.

    thresholds maps each measured value to its bounds, (op, limit) or
    (op, limit, op, limit) with op one of < <= > >= ==.  budget_s bounds the
    wall time of one measurement; the acceptance tests assert it.
    """

    name: str
    thresholds: dict[str, tuple]
    measure: Callable[[int], tuple[dict, str]]
    budget_s: float | None = None


CRITERIA: list[Criterion] = []


def _criterion(name: str, budget_s: float | None = None, **thresholds):
    """Register the decorated measure(seed) in CRITERIA under name."""
    def register(measure):
        CRITERIA.append(Criterion(name, thresholds, measure, budget_s))
        return measure
    return register


def run_criterion(c: Criterion, seed: int) -> tuple[dict, float]:
    """({pass, value, threshold, detail}, wall seconds) of c measured at seed.

    A StructuralError or DegeneracyError raised by the measurement makes a
    failed criterion, with the error message as its detail.
    """
    t0 = time.perf_counter()
    try:
        value, detail = c.measure(seed)
        ok = all(_OPS[op](value[key], limit)
                 for key, bound in c.thresholds.items()
                 for op, limit in zip(bound[::2], bound[1::2]))
    except (StructuralError, DegeneracyError) as e:
        value, detail, ok = None, str(e), False
    return ({"pass": ok, "value": value, "threshold": c.thresholds, "detail": detail},
            time.perf_counter() - t0)


def circle_cw() -> CWData:
    """One vertex v and one edge e from v to v, twisted by t."""
    return CWData(cells=[("v", 0), ("e", 1)],
                  boundary={"e": [("v", 1, "t"), ("v", -1, "")]},
                  generators=["t"])


def interval_cw() -> CWData:
    """The edge e from v1 to v2, relative to both end points."""
    return CWData(cells=[("v1", 0), ("v2", 0), ("e", 1)],
                  boundary={"e": [("v2", 1, ""), ("v1", -1, "")]},
                  generators=[], boundary_subcomplex={"v1", "v2"})


def split_circle_cw() -> CWData:
    """The circle cut at v1 and v2 into e1 and e2 (twisted by t), relative to v1, v2."""
    return CWData(cells=[("v1", 0), ("v2", 0), ("e1", 1), ("e2", 1)],
                  boundary={"e1": [("v2", 1, ""), ("v1", -1, "")],
                            "e2": [("v1", 1, "t"), ("v2", -1, "")]},
                  generators=["t"], boundary_subcomplex={"v1", "v2"})


def disc_cw() -> CWData:
    """A disc of two faces glued along c, relative to its boundary circle a1 + a2."""
    return CWData(
        cells=[("v1", 0), ("v2", 0), ("a1", 1), ("a2", 1), ("c", 1), ("F1", 2), ("F2", 2)],
        boundary={"a1": [("v2", 1, ""), ("v1", -1, "")],
                  "a2": [("v1", 1, ""), ("v2", -1, "")],
                  "c": [("v2", 1, ""), ("v1", -1, "")],
                  "F1": [("a1", 1, ""), ("c", -1, "")],
                  "F2": [("a2", 1, ""), ("c", 1, "")]},
        generators=[], boundary_subcomplex={"v1", "v2", "a1", "a2"})


def torus_cw() -> CWData:
    """The torus: one vertex, edges a (twisted by t) and b (by s), face t s t^-1 s^-1."""
    return CWData(cells=[("v", 0), ("a", 1), ("b", 1), ("f", 2)],
                  boundary={"a": [("v", 1, "t"), ("v", -1, "")],
                            "b": [("v", 1, "s"), ("v", -1, "")],
                            "f": [("a", 1, ""), ("b", 1, "t"), ("a", -1, "s"),
                                  ("b", -1, "")]},
                  generators=["t", "s"], relations=["t s t^-1 s^-1"])


def random_complex(rng: np.random.Generator, dims, ranks=None):
    """(complex, ranks): chain.standard_complex conjugated by random_isos."""
    c, ranks = standard_complex(rng, dims, ranks)
    return conjugate(c, random_isos(rng, dims)), ranks


def random_acyclic_complex(rng: np.random.Generator, max_len: int = 3,
                           max_dim: int = 6):
    """(complex, ranks) of a random acyclic complex of length <= max_len."""
    while True:
        m = int(rng.integers(1, max_len + 1))
        dims = [int(rng.integers(1, max_dim + 1)) for _ in range(m + 1)]
        ranks = acyclic_ranks(dims)
        if ranks is not None:
            return random_complex(rng, dims, ranks)


def coordinate_ses(a, b, c) -> ShortExactSequenceData:
    """0 -> A -> B -> C -> 0, A the first and C the last coordinates of B in each degree."""
    return ShortExactSequenceData(
        a, b, c, [np.eye(nb, na, dtype=complex) for na, nb in zip(a.dims, b.dims)],
        [np.eye(nc, nb, na, dtype=complex) for na, nb, nc in zip(a.dims, b.dims, c.dims)])


def constant_field(a: np.ndarray, n_x: int = 201, n_y: int = 5,
                   eps: float = 0.5) -> gauge.GaugeField:
    """The field A_x = a, A_y = 0 on [-eps, eps] x [0, 1], with its exact callable."""
    xs = np.linspace(-eps, eps, n_x)
    ys = np.linspace(0.0, 1.0, n_y)
    om0 = np.tile(a, (n_x, n_y, 1, 1))
    om1 = np.zeros_like(om0)

    def exact(x, y):
        shape = np.broadcast(x, y).shape + a.shape
        return np.broadcast_to(a, shape), np.zeros(shape)

    return gauge.GaugeField(xs, ys, om0, om1, exact=exact)


def linear_curve(radius: float = 0.25) -> RepresentationCurve:
    """t = 2 + z, a rank-1 curve for circle_cw."""
    return RepresentationCurve(1, {"t": [np.array([[2.0]], complex),
                                         np.array([[1.0]], complex)]}, radius)


def seeded_linear_family(rng: np.random.Generator) -> ComplexFamily:
    """Well-separated m = 1 family D(z) = D0 + z Omega for the holomorphy checks.

    D0 has three spread-out diagonal clusters so the spectral gaps of B^2 stay
    wide along the family; Omega is a mild generic perturbation.
    """
    base = np.diag([1.0, 3.0, 9.0]) + 0.0j
    g, = random_isos(rng, [3], 0.2)
    d0 = g @ base @ sla.inv(g)
    om = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    eye = [np.eye(3, dtype=complex)] * 2

    def build(z):
        return ChiralityComplex(GradedComplex((3, 3), [d0 + z * om]), eye, eye)

    return ComplexFamily(build)


@_criterion("rho_cut_invariance", budget_s=60.0, max_rel_dev=("<", INVARIANCE_TOL))
def _rho_cut_invariance(seed):
    """Criterion 1: rho of 50 random complexes does not depend on lambda or theta."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_complexes = n_evals = n_skipped = 0
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
                except (SpectralGapError, AgmonError):
                    n_skipped += 1
        if len(vals) < 4:
            continue
        n_complexes += 1
        n_evals += len(vals)
        worst = max(worst, max(abs(v - vals[0]) / abs(vals[0]) for v in vals))
    return ({"max_rel_dev": worst},
            f"50 complexes, {n_evals} evaluations, {n_skipped} pairs skipped")


@_criterion("circle_zeta_determinants", budget_s=1.0,
            det_pi_dev=("<", 1e-8), det_2pi_3_dev=("<", 1e-8))
def _circle_zeta_determinants(seed):
    """Criterion 2: zeta-determinants 4 (L = 2 pi, theta = pi) and 3 (L = 1, 2 pi / 3)."""
    d_pi = zeta_det_laplacian_circle(CircleModel(2 * math.pi, -1.0 + 0.0j))
    th = 2 * math.pi / 3
    d_23 = zeta_det_laplacian_circle(CircleModel(1.0, complex(math.cos(th), math.sin(th))))
    return ({"det_pi_dev": abs(d_pi - 4.0), "det_2pi_3_dev": abs(d_23 - 3.0)},
            f"det(pi)={d_pi.real:.12f}, det(2pi/3)={d_23.real:.12f}")


@_criterion("eta_values", budget_s=1.0, eta_pi=("<", 1e-13), eta_half_dev=("<", 1e-10),
            eta_small_dev=("<", 1e-9))
def _eta_values(seed):
    """Criterion 3: the circle eta invariant is 0 at theta = pi, 1/2 at pi/2 and
    1 - theta / pi at theta = 0.01."""
    e_pi = eta_circle(CircleModel(1.0, -1.0 + 0.0j))
    e_half = eta_circle(CircleModel(1.0, 1.0j))
    e_small = eta_circle(CircleModel(1.0, complex(math.cos(0.01), math.sin(0.01))))
    return ({"eta_pi": abs(e_pi), "eta_half_dev": abs(e_half - 0.5),
             "eta_small_dev": abs(e_small - (1 - 0.01 / math.pi))},
            f"eta(pi)={abs(e_pi):.2e}, eta(pi/2)={e_half.real:.12f}, "
            f"eta(0.01)={e_small.real:.12f}")


@_criterion("lesch_gluing_factor", max_residual=("<", LESCH_TOL))
def _lesch_gluing_factor(seed):
    """Criterion 4: the Lesch gluing factor for circles cut into l1 + l2."""
    lengths = ((1.0, 1.0), (0.5, 1.5), (2.0, 6.0))
    res = [gluing_check_lesch(l1, l2) for l1, l2 in lengths]
    return ({"max_residual": max(res)},
            ", ".join(f"residual({l1}+{l2})={r:.2e}" for (l1, l2), r in zip(lengths, res)))


@_criterion("holomorphy_certification",
            sigma_residual=("<", 1e-6), sigma_order=(">=", 1.8),
            rank2_residual=("<", 1e-3), rank2_order=(">=", 1.8, "<=", 2.2),
            det_gr_residual=("<", 1e-6), det_gr_order=(">=", 1.8),
            det_gr_residual_fine=("<", 1e-6), det_gr_order_fine=(">=", 1.8),
            cone_residual=("<", 1e-6), cone_order=(">=", 1.8),
            anti_sigma=(">", 1e-2), anti_cone=(">", 1e-2), anti_conj_square=(">", 1e-2))
def _holomorphy_certification(seed):
    """Criterion 5: Cauchy-Riemann residuals vanish at order 2 (inf counts) on
    holomorphic sections and stay O(1) on three anti-holomorphic controls."""
    k, curve, v = circle_cw(), linear_curve(), {}
    v["sigma_residual"], _, v["sigma_order"] = cr_order(
        lambda z: sigma(k, curve.at(z)).coordinate, 0.0, 1e-3)
    v["anti_sigma"] = cr_residual(lambda z: sigma(k, curve.at(np.conj(z))).coordinate,
                                  0.05 + 0.02j, 1e-3)
    c0 = np.array([[2.0, 1.0], [0.0, 3.0]], complex)
    curve2 = RepresentationCurve(
        2, {"t": [c0, np.eye(2, dtype=complex), np.zeros((2, 2), complex),
                  np.array([[0.0, 0.0], [1.0, 0.0]], complex)]}, 0.25)
    v["rank2_residual"], _, v["rank2_order"] = cr_order(
        lambda z: sigma(k, curve2.at(z)).coordinate, 0.1, 1e-2)
    fam = seeded_linear_family(np.random.default_rng(seed))
    v["det_gr_residual"], _, v["det_gr_order"] = graded_det_along_curve(
        fam, 0.0, -0.9, 0.0, 1e-3)
    model = zero_section_model(doubled_cochain(k, curve.at(0.0)).dims)
    v["cone_residual"], _, v["cone_order"] = section_ratio_residual(
        k, model, curve, 0.0, 2.5e-4)
    v["anti_cone"] = cr_residual(lambda z: section_ratio(k, model, curve, np.conj(z)),
                                 0.05 + 0.03j, 1e-3)
    v["det_gr_residual_fine"], _, v["det_gr_order_fine"] = graded_det_along_curve(
        fam, 0.0, -0.9, 0.0, 1e-4)
    v["anti_conj_square"] = cr_residual(lambda z: np.conj(z) ** 2 + 1.0, 0.3 + 0.1j, 1e-4)
    return v, ("sigma on 2 + z and a rank-2 cubic (h = 1e-3, 1e-2), Det_gr of a linear "
               "family (h = 1e-3, 1e-4), rho/tau via the cone (h = 2.5e-4)")


@_criterion("sigma_sign_relation", max_dev=("<", SIGMA_RATIO_TOL))
def _sigma_sign_relation(seed):
    """Criterion 6: nu(sigma' (x) sigma'') / sigma is one sign per fixture.

    check_sigma_relation raises when a ratio is not +-1 or its sign varies.
    """
    rng = np.random.default_rng(seed)
    details, worst = [], 0.0
    for name, k, reps in (
        ("interval", interval_cw(), [trivial_representation(n, []) for n in range(1, 11)]),
        ("split-circle", split_circle_cw(),
         [Representation(2, {"t": t}) for t in random_isos(rng, [2] * 10)]),
        ("disc", disc_cw(), [trivial_representation(n, []) for n in range(1, 11)]),
    ):
        sign, ratios = check_sigma_relation(k, reps)
        dev = max(abs(r - sign) for r in ratios)
        worst = max(worst, dev)
        details.append(f"{name}: sign {sign:+d}, max dev {dev:.2e}, {len(reps)} reps")
    return {"max_dev": worst}, "; ".join(details)


@_criterion("projection_derivative_structure",
            max_diag=("<", 1e-6), min_offdiag=(">", 1e-3))
def _projection_derivative_structure(seed):
    """Criterion 7: P' is block off-diagonal on the families at seed and seed + 5."""
    diags, offs = [], []
    for s in (seed, seed + 5):
        fam = seeded_linear_family(np.random.default_rng(s))
        lam = admissible_lambdas(odd_signature(fam.at(0.0)), 3)[1]
        diag, off = projection_derivative_check(fam, lam, 0.0, 1e-4)
        diags.append(diag)
        offs.append(off)
    return ({"max_diag": max(diags), "min_offdiag": min(offs)},
            f"diag {diags[0]:.2e}/{diags[1]:.2e}, offdiag {offs[0]:.2e}/{offs[1]:.2e}")


@_criterion("k_squared_holomorphy", residual=("<", K2_TOL), residual_coarse=("<", 1e-6),
            order=(">", 1.5))
def _k_squared_holomorphy(seed):
    """Criterion 8: K^2 is holomorphic: residuals at h = 1e-4 and 1e-3, order from 1e-3/5e-4."""
    r, r1, r2 = (k_squared_holomorphy(lambda z: 2j + z, 0.0, h) for h in (1e-4, 1e-3, 5e-4))
    order = math.log2(r1 / r2) if r2 > 0 else float("inf")
    return {"residual": r, "residual_coarse": r1, "order": order}, "f(z) = 2i + z at z = 0"


@_criterion("temporal_gauge_pipeline", temporal_residual=("<", 1e-6),
            curvature_change=("<", 1e-6), monodromy_eig_dev=("<", 1e-6),
            rk4_halving_ratio=(">=", 14.0))
def _temporal_gauge_pipeline(seed):
    """Criterion 9: gauge fixing makes 10 flat fields temporal, keeps their
    curvature and monodromy spectra; RK4 converges at 4th order on exp(-xA)."""
    rng = np.random.default_rng(seed)
    worst_t = worst_c = worst_m = 0.0
    for _ in range(10):
        fld = gauge.pure_gauge_field(rng, n=2, n_x=65, n_y=65, eps=0.5)
        gt = gauge.solve_gauge_ode(fld, steps=4)
        out = gauge.gauge_transform(fld, gt)
        t0, t1 = gauge.temporal_residual(out)
        worst_t = max(worst_t, t0, t1)
        worst_c = max(worst_c, abs(gauge.curvature_residual(out)
                                   - gauge.curvature_residual(fld)))
        i0 = (fld.xs.size - 1) // 2
        path = gauge.rectangle_path(fld, i0, 8, i0 + 16, 40)
        ev = lambda m: np.sort_complex(np.linalg.eigvals(m))
        dev = np.max(np.abs(ev(gauge.monodromy(fld, path, 12))
                            - ev(gauge.monodromy(out, path, 12))))
        worst_m = max(worst_m, float(dev))
    a = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
    fld = constant_field(a, n_x=17)
    errs = []
    for steps in (1, 2):
        gt = gauge.solve_gauge_ode(fld, steps=steps)
        errs.append(max(np.linalg.norm(gt.gamma[ix, 0] - sla.expm(-fld.xs[ix] * a))
                        for ix in range(17)))
    return ({"temporal_residual": worst_t, "curvature_change": worst_c,
             "monodromy_eig_dev": worst_m, "rk4_halving_ratio": errs[0] / errs[1]},
            "10 fields, RK4 at 1 and 2 steps per cell")


@_criterion("cheeger_mueller_1d", max_dev=("<", 1e-7))
def _cheeger_mueller_1d(seed):
    """Criterion 10: |rho_an| = |sigma| on the circle at theta = pi/3, pi/2, pi."""
    k = circle_cw()
    worst = 0.0
    details = []
    for theta in (math.pi / 3, math.pi / 2, math.pi):
        lam = complex(math.cos(theta), math.sin(theta))
        ra = rat_circle(CircleModel(1.0, lam), -0.9)
        comb = sigma(k, Representation(1, {"t": np.array([[lam]])})).coordinate
        worst = max(worst, abs(abs(ra) - abs(comb)))
        details.append(f"theta={theta:.3f}: |rho_an|={abs(ra):.10f} vs "
                       f"|sigma|={abs(comb):.10f}")
    return {"max_dev": worst}, "; ".join(details)


@_criterion("torsion_complement_independence", max_rel_dev=("<", 1e-9),
            max_dd_defect=("<=", TOL_COMPLEX))
def _torsion_complement_independence(seed):
    """tau of 100 random acyclic complexes does not depend on the complements."""
    rng = np.random.default_rng(seed)
    worst = defect = 0.0
    for _ in range(100):
        c, ranks = random_acyclic_complex(rng)
        defect = max(defect, c.composition_defect())
        t1 = torsion_acyclic(c, "auto").coordinate
        comps = [rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
                 for k, r in zip(c.dims, ranks)]
        t2 = torsion_acyclic(c, comps).coordinate
        worst = max(worst, abs(t1 - t2) / abs(t1))
    return {"max_rel_dev": worst, "max_dd_defect": defect}, "100 complexes"


@_criterion("canonical_iso_covariance", max_rel_dev=("<=", 1e-12))
def _canonical_iso_covariance(seed):
    """Rescaling a degree-j cohomology basis vector by s scales phi by s^((-1)^(j+1))."""
    c = GradedComplex((2, 3, 2), [np.zeros((3, 2), complex), np.zeros((2, 3), complex)])
    coh = cohomology(c)
    base = canonical_iso(c, coh).coordinate
    worst = 0.0
    scalings = ((0, 2.0 - 1.0j), (1, -0.4 + 0.8j), (1, 0.3 + 0.4j), (2, 3.0), (2, -2.5))
    for j, s in scalings:
        reps = [r.copy() for r in coh.representatives]
        reps[j][:, 0] *= s
        coh2 = Cohomology(coh.dims, reps, [], tag=coh.tag)
        ratio = canonical_iso(c, coh2).coordinate / base
        want = s ** (1 if j % 2 else -1)
        worst = max(worst, abs(ratio - want) / abs(want))
    return {"max_rel_dev": worst}, f"{len(scalings)} scalings on dims (2, 3, 2)"


@_criterion("cone_iso_torsion", max_sign_dev=("<=", 1e-9), sign_changes=("==", 0))
def _cone_iso_torsion(seed):
    """The cone of an isomorphism f has torsion +- prod det(f_j)^((-1)^j), the
    sign fixed by the dimension vector; NotAcyclicError fails it."""
    rng = np.random.default_rng(seed)
    worst, changes = 0.0, 0
    signs_by_dims: dict[tuple, int] = {}
    for _ in range(50):
        dims = tuple(int(rng.integers(1, 4)) for _ in range(3))
        src, _ = random_complex(rng, dims)
        f = random_isos(rng, dims)
        t = torsion_acyclic(cone(f, src, conjugate(src, f))).coordinate
        want = np.prod([sla.det(f[j]) ** (1 if j % 2 == 0 else -1)
                        for j in range(len(dims))])
        r = t / want
        s = 1 if abs(r - 1) < abs(r + 1) else -1
        worst = max(worst, abs(r - s))
        changes += signs_by_dims.setdefault(dims, s) != s
    return ({"max_sign_dev": worst, "sign_changes": changes},
            f"50 cones, {len(signs_by_dims)} dimension vectors")


@_criterion("fusion_associativity", max_rel_dev=("<", 1e-9))
def _fusion_associativity(seed):
    """Fusing A, M, Q as (A M) Q and as A (M Q) gives one element; 20 towers."""
    rng = np.random.default_rng(seed)
    worst = max(_fusion_tower_once(rng) for _ in range(20))
    return {"max_rel_dev": worst}, "20 filtered towers A < A + M < A + M + Q"


def _fusion_tower_once(rng) -> float:
    """A (+) M (+) Q tower with block-triangular differential; two fusion routes."""
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

    one = lambda cc: DetLineElement(1.0, "std", tuple(enumerate(cc.dims)))
    # route 1: (A, M) -> B, then (B, Q) -> C
    b_elt = fusion(one(a_cpx), one(m_cpx), coordinate_ses(a_cpx, b_cpx, m_cpx))
    c1 = fusion(DetLineElement(b_elt.coordinate, "std", tuple(enumerate(dims_b))),
                one(q_cpx), coordinate_ses(b_cpx, c_cpx, q_cpx))
    # route 2: (M, Q) -> MQ, then (A, MQ) -> C
    mq_elt = fusion(one(m_cpx), one(q_cpx), coordinate_ses(m_cpx, mq_cpx, q_cpx))
    c2 = fusion(one(a_cpx),
                DetLineElement(mq_elt.coordinate, "std", tuple(enumerate(mq_dims))),
                coordinate_ses(a_cpx, c_cpx, mq_cpx))
    return abs(c1.coordinate - c2.coordinate) / abs(c1.coordinate)


@_criterion("twisted_dd_zero", max_defect=("<=", 1e-10))
def _twisted_dd_zero(seed):
    """dd = 0 on the torus for the trivial and 20 random commuting representations of rank <= 3."""
    rng = np.random.default_rng(seed)
    torus = torus_cw()
    worst = 0.0
    for i in range(21):
        n = int(rng.integers(1, 4))
        if i == 0:
            rep = trivial_representation(n, ["t", "s"])
        else:
            # a commuting pair keeps the torus relation exact
            g = np.diag(rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n)))
            h_ = np.diag(rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 6.28, n)))
            rep = Representation(n, {"t": g, "s": h_})
        worst = max(worst, build_cochain(torus, rep).composition_defect())
    return {"max_defect": worst}, "21 representations of rank <= 3"


@_criterion("sigma_lift_covariance", edge_dev=("<", 1e-10), vertex_dev=("<", 1e-10))
def _sigma_lift_covariance(seed):
    """Moving the lift of e (v) by t scales sigma by det(t)^-1 (det(t))."""
    k = circle_cw()
    rep = Representation(2, {"t": np.array([[2.0, 1.0], [0.0, 3.0]], complex)})
    s0 = sigma(k, rep).coordinate
    r_edge = sigma(k.change_lift("e", "t"), rep).coordinate / s0
    r_vert = sigma(k.change_lift("v", "t"), rep).coordinate / s0
    det_t = sla.det(rep.matrices["t"])
    return ({"edge_dev": abs(r_edge - 1 / det_t), "vertex_dev": abs(r_vert - det_t)},
            f"edge {r_edge:.6g} vs {1/det_t:.6g}, vertex {r_vert:.6g} vs {det_t:.6g}")


@_criterion("sigma_rational_interpolation", dev=("<", 1e-9))
def _sigma_rational_interpolation(seed):
    """sigma along t = 2 + s is a polynomial: a cubic through 5 samples predicts s = 0.13, -0.07."""
    k = circle_cw()
    rank1 = lambda lam: Representation(1, {"t": np.array([[lam]], complex)})
    ts = np.linspace(-0.2, 0.2, 5)
    coeffs = np.polyfit(ts, np.array([sigma(k, rank1(2.0 + t)).coordinate for t in ts]), 3)
    dev = max(abs(sigma(k, rank1(2.0 + probe)).coordinate - np.polyval(coeffs, probe))
              for probe in (0.13, -0.07))
    return {"dev": dev}, "cubic fit at 5 points, probes 0.13 and -0.07"


@_criterion("dual_relation", max_residual=("<", 1e-12))
def _dual_relation(seed):
    """Gamma D = (D')^{*h} Gamma on 12 random chirality complexes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(12):
        m = 1 if rng.integers(0, 2) == 0 else 3
        worst = max(worst, dual_relation_residual(random_chirality_complex(rng, m, 3)))
    return {"max_residual": worst}, "12 complexes"


@_criterion("graded_det_multiplicative", max_rel_dev=("<", 1e-10))
def _graded_det_multiplicative(seed):
    """Det_gr of a direct sum is the product; 20 pairs of acyclic m = 3 complexes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for max_dim in [3] * 12 + [2] * 8:
        x = random_chirality_complex(rng, 3, max_dim, acyclic=True)
        y = random_chirality_complex(rng, 3, max_dim, acyclic=True)
        xy = ChiralityComplex(
            x.complex.direct_sum(y.complex),
            [sla.block_diag(gx, gy) for gx, gy in zip(x.gamma, y.gamma)],
            [sla.block_diag(hx, hy) for hx, hy in zip(x.h, y.h)])
        dg = graded_determinant(odd_signature(xy), 0.0, -0.9)
        dgx = graded_determinant(odd_signature(x), 0.0, -0.9)
        dgy = graded_determinant(odd_signature(y), 0.0, -0.9)
        worst = max(worst, abs(dg - dgx * dgy) / abs(dg))
    return {"max_rel_dev": worst}, "12 direct sums of max_dim 3, 8 of max_dim 2"


@_criterion("schur_vs_eigenprojection", rank=("==", 1), dev=("<", 1e-10))
def _schur_vs_eigenprojection(seed):
    """[S 0] [S B]^{-1}, S and B the Schur split's bases, is the eigenprojection."""
    rng = np.random.default_rng(seed)
    g, = random_isos(rng, [3], 0.3)
    a = g @ (np.diag([1.0, 9.0, 25.0]) + 0.0j) @ sla.inv(g)
    small, big, _ = spectral_projector(*sla.schur(a, output="complex"),
                                       lambda z: abs(z) <= 4.0)
    p = small @ sla.inv(np.hstack([small, big]))[:small.shape[1]]
    w, v = sla.eig(a)
    vi = sla.inv(v)
    p_eig = sum(np.outer(v[:, i], vi[i, :]) for i in range(3) if abs(w[i]) <= 4.0)
    return ({"rank": small.shape[1], "dev": sla.norm(p - p_eig)},
            "spectrum {1, 9, 25}, cut at |z| = 4")


@_criterion("kern_decomposition", dim_gap=("==", 0))
def _kern_decomposition(seed):
    """The +/- splitting fills the even big part of an acyclic m = 3 complex."""
    x = random_chirality_complex(np.random.default_rng(seed), 3, 3, acyclic=True)
    s = odd_signature(x)
    split = spectral_split(s, 0.0)
    pm = chirality.pm_split(s, split)
    dim_even_big = sum(split.u_big_blocks[j].shape[1] for j in range(0, 4, 2))
    dim_pm = pm.b_plus.shape[0] + pm.b_minus.shape[0]
    return {"dim_gap": dim_even_big - dim_pm}, f"{dim_pm} vs {dim_even_big}"


@_criterion("det_gr_eta_xi_identity", max_rel_dev=("<", 1e-10))
def _det_gr_eta_xi_identity(seed):
    """Det_gr equals its reconstruction from the finite eta and xi; 20 acyclic complexes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        m = 1 if rng.integers(0, 2) == 0 else 3
        s = odd_signature(random_chirality_complex(rng, m, 3, acyclic=True))
        for theta in (-0.9, -0.7, -1.9):
            dg = graded_determinant(s, 0.0, theta)
            ex = eta_xi_finite(s, theta, 0.0)
            worst = max(worst, abs(ex.det_gr_reconstruction() - dg) / abs(dg))
    return {"max_rel_dev": worst}, "20 complexes at theta = -0.9, -0.7, -1.9"


@_criterion("rho_scale_homogeneity", budget_s=5.0,
            exponent_dev=("<", 1e-9), phase_dev=("<", 1e-10))
def _rho_scale_homogeneity(seed):
    """rho(cD) / rho(D) = c^N with integral N for c from 1e-3 to 1e3, at every admissible
    cut of cD, in the basis of H that D gives; 12 draws each at m = 1 and m = 3."""
    exp_dev = phase_dev = 0.0
    for i, m in itertools.product(range(12), (1, 3)):
        x = random_chirality_complex(np.random.default_rng(seed + i), m, 4)
        coh, s = cohomology(x.complex, tag="H(X)"), odd_signature(x)
        ref = rho(x, admissible_lambdas(s, 1)[0], -0.9, coh_full=coh, s=s).coordinate
        for c in (1e-3, 1e-2, 10.0, 100.0, 671.0, 1e3):
            xc = ChiralityComplex(GradedComplex(x.complex.dims, [
                c * d for d in x.complex.differentials]), x.gamma, x.h)
            sc = odd_signature(xc)
            for lam in admissible_lambdas(sc, 3):
                q = rho(xc, lam, -0.9, coh_full=coh, s=sc).coordinate / ref
                n = math.log(abs(q)) / math.log(c)
                exp_dev = max(exp_dev, abs(n - round(n)))
                phase_dev = max(phase_dev, abs(cmath.phase(q)))
    return ({"exponent_dev": exp_dev, "phase_dev": phase_dev},
            "24 complexes at 6 scales, 3 cuts each")


@_criterion("lerch_identities", zeta0_dev=("<", 1e-12), dzeta0_dev=("<", 1e-10))
def _lerch_identities(seed):
    """zeta_H(0, a) = 1/2 - a and zeta_H'(0, a) = log Gamma(a) - log(2 pi)/2 at 20 a."""
    from scipy.special import loggamma
    rng = np.random.default_rng(seed)
    z = ZetaEvaluator()
    worst0 = worst1 = 0.0
    for _ in range(20):
        a = complex(rng.uniform(0.05, 1.95), rng.uniform(-0.9, 0.9))
        worst0 = max(worst0, abs(z.hurwitz(0.0, a) - (0.5 - a)))
        lg = complex(loggamma(a)) - 0.5 * math.log(2 * math.pi)
        worst1 = max(worst1, abs(z.hurwitz_ds(0.0, a) - lg))
    return {"zeta0_dev": worst0, "dzeta0_dev": worst1}, "20 complex a"


@_criterion("cutoff_stability", dev=("<", 1e-10))
def _cutoff_stability(seed):
    """The circle determinant agrees at Euler-Maclaurin cutoff 40/order 8 and 80/10."""
    m = CircleModel(1.7, complex(math.cos(2.0), math.sin(2.0)) * 1.1)
    d1 = zeta_det_laplacian_circle(m, ZetaEvaluator(cutoff=40, order=8))
    d2 = zeta_det_laplacian_circle(m, ZetaEvaluator(cutoff=80, order=10))
    return {"dev": abs(d1 - d2)}, "L = 1.7, lambda = 1.1 exp(2i)"


@_criterion("eta_window_symmetry", max_dev=("<", 1e-12))
def _eta_window_symmetry(seed):
    """eta(theta) = -eta(2 pi - theta) at theta = 0.4, 1.1, 2.9."""
    worst = 0.0
    for th in (0.4, 1.1, 2.9):
        e1 = eta_circle(CircleModel(1.0, complex(math.cos(th), math.sin(th))))
        e2 = eta_circle(CircleModel(1.0, complex(math.cos(2 * math.pi - th),
                                                 math.sin(2 * math.pi - th))))
        worst = max(worst, abs(e1 + e2))
    return {"max_dev": worst}, "max |eta(t) + eta(2 pi - t)|"
