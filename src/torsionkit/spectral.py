"""Exact 1-D spectral realizations: twisted circle and interval.

The circle of circumference L with holonomy lambda = r e^{i theta} carries the
first-order operator spectrum nu_n = (2 pi n + theta - i log r) / L, n in Z,
and the Laplace spectrum nu_n^2.  Writing a = (theta - i log r) / (2 pi) with
theta in [0, 2 pi) (the window convention used throughout this module), the
zeta-regularized quantities reduce to Hurwitz zeta values:

    zeta_Delta(s)  = (L/2pi)^{2s} [zeta_H(2s, a) + zeta_H(2s, 1-a)]
    det' Delta     = exp(-zeta'_Delta(0))          ( = 4 sin^2(pi a) )
    eta(s)         = (2pi/L)^{-s} [zeta_H(s, a) - zeta_H(s, 1-a)]
    eta            = eta(0) = 1 - 2a

The interval of length L has Dirichlet spectrum (pi n / L)^2, n >= 1, giving
det' = 2L; absolute boundary conditions add one zero mode.

All analytic continuation happens through the Euler-Maclaurin Hurwitz zeta
evaluator below.  It gives zeta_H and its s-derivative together, from one
numpy pass over the direct terms, once per distinct (s, a): the circle
command needs three, (0, a), (0, 1 - a) and (0, 1).  The closed forms
zeta_H(0, a) = 1/2 - a and Lerch's d/ds zeta_H(0, a) = log Gamma(a) -
log(2 pi) / 2 are oracles of the tests and of selftest, not the
implementation; mpmath is used only by the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import DetLineElement, les_of_ses
from .cw import CWData, transmission_ses_for, trivial_representation
from .linalg import DegeneracyError, StructuralError, check_agmon

TWO_PI = 2.0 * math.pi
# pass thresholds of gluing_check_lesch and of k_squared_holomorphy at h = 1e-4
LESCH_TOL = 1e-6
K2_TOL = 1e-7

# B_2, B_4, ..., B_20
_BERNOULLI = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
    -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
]
# B_{2j} / (2j)!, the Euler-Maclaurin weights
_EM_WEIGHTS = [b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1)]
# distinct (s, a) kept per evaluator; a circle op asks for 11: (0, a), (0, 1 - a),
# (0, 1) and the 8 eta points of its K^2 holomorphy check
_CACHE_SIZE = 64


def _hurwitz_pair(cutoff: int, order: int, s: complex, a: complex) -> tuple[complex, complex]:
    """(zeta_H(s, a), d/ds zeta_H(s, a)) from one direct sum and one Bernoulli tail.

    The n = cutoff + ceil|Im s| + ceil|a| direct terms (k + a)^{-s} =
    exp(-s log(k + a)) and their s-derivatives -log(k + a) (k + a)^{-s} are
    summed as arrays over one array of logs.  The tail at w = n + a carries
    the Pochhammer symbol p_j(s) = s (s+1) ... (s+2j-2) and its derivative
    through (p, p') <- (p r, p' r + p) over the two new roots r at each
    order, which stays exact where a root is 0 (s = 0, -2, ...).
    """
    if a == 0:
        raise StructuralError("Hurwitz zeta needs a != 0")
    if abs(s - 1.0) < 1e-12:
        raise DegeneracyError("zeta_H has a pole at s = 1")
    n = cutoff + int(math.ceil(abs(s.imag))) + int(math.ceil(abs(a)))
    lk = np.log(np.arange(n) + a)
    terms = np.exp(-s * lk)
    zeta = complex(terms.sum())
    dzeta = -complex(lk @ terms)
    w = n + a
    lw = cmath.log(w)
    w_s = w ** (-s)                           # exact powers at integer s
    w_1s = w * w_s / (s - 1.0)                # w^{1-s} / (s - 1)
    zeta += w_1s + 0.5 * w_s
    dzeta -= w_1s * (lw + 1.0 / (s - 1.0)) + 0.5 * lw * w_s
    p, dp = s, 1.0 + 0.0j
    wpow = w_s / w                            # w^{-s-2j+1} at j = 1
    w2 = w * w
    for j, c in enumerate(_EM_WEIGHTS[:order], start=1):
        zeta += c * p * wpow
        dzeta += c * (dp - lw * p) * wpow
        for r in (s + (2 * j - 1), s + 2 * j):
            p, dp = p * r, dp * r + p
        wpow /= w2
    return zeta, dzeta


class ZetaEvaluator:
    """Hurwitz zeta zeta_H(s, a) and its s-derivative by Euler-Maclaurin.

    Valid for complex a off the non-positive reals (here always Re a >= 0
    with a != 0) and s away from 1.  cutoff (>= 1) is the number of directly
    summed terms, order the number of Bernoulli corrections (<= 10).
    hurwitz and hurwitz_ds read one (zeta, zeta') pair per distinct (s, a),
    computed once per evaluator and kept in a bounded LRU cache: a circle
    model needs zeta_H(0, .) and its derivative at a and 1 - a, and every
    determinant, eta and xi of the model shares them.
    """

    def __init__(self, cutoff: int = 40, order: int = 8):
        if not (1 <= order <= len(_BERNOULLI)):
            raise StructuralError(f"order must be in 1..{len(_BERNOULLI)}, got {order}")
        if not cutoff >= 1:
            raise StructuralError(f"cutoff must be >= 1, got {cutoff}")
        self.cutoff = int(cutoff)
        self.order = int(order)
        self._pair = functools.lru_cache(maxsize=_CACHE_SIZE)(_hurwitz_pair)

    def hurwitz(self, s: complex, a: complex) -> complex:
        return self._pair(self.cutoff, self.order, complex(s), complex(a))[0]

    def hurwitz_ds(self, s: complex, a: complex) -> complex:
        """d/ds zeta_H(s, a), term-by-term analytic differentiation."""
        return self._pair(self.cutoff, self.order, complex(s), complex(a))[1]

    def riemann(self, s: complex) -> complex:
        return self.hurwitz(s, 1.0)

    def riemann_ds(self, s: complex) -> complex:
        return self.hurwitz_ds(s, 1.0)


DEFAULT_ZETA = ZetaEvaluator()


@dataclass(frozen=True)
class CircleModel:
    """Flat line bundle over a circle: circumference L, holonomy lambda != 0."""

    circumference: float
    holonomy: complex

    def __post_init__(self):
        if not (self.circumference > 0):
            raise StructuralError("circumference must be positive")
        if self.holonomy == 0:
            raise StructuralError("holonomy must be nonzero")

    @property
    def theta(self) -> float:
        """Phase of the holonomy in the window [0, 2 pi)."""
        t = math.atan2(self.holonomy.imag if isinstance(self.holonomy, complex) else 0.0,
                       complex(self.holonomy).real)
        return t % TWO_PI

    @property
    def log_radius(self) -> float:
        return math.log(abs(complex(self.holonomy)))

    @property
    def exponent(self) -> complex:
        """a = (theta - i log r) / (2 pi); holonomy = exp(2 pi i a)."""
        return complex(self.theta, -self.log_radius) / TWO_PI

    @property
    def acyclic(self) -> bool:
        return abs(complex(self.holonomy) - 1.0) > 1e-12


@dataclass(frozen=True)
class IntervalModel:
    """Interval of length L with relative (Dirichlet) or absolute (Neumann) BC."""

    length: float
    bc: str = "relative"

    def __post_init__(self):
        if not (self.length > 0):
            raise StructuralError("length must be positive")
        if self.bc not in ("relative", "absolute"):
            raise StructuralError("bc must be 'relative' or 'absolute'")


def _circle_frequencies(m: CircleModel, cutoff: int) -> np.ndarray:
    """nu_n = (2 pi n + theta - i log r) / L for n in [-cutoff, cutoff]."""
    n = np.arange(-cutoff, cutoff + 1)
    return (TWO_PI * n + m.theta - 1j * m.log_radius) / m.circumference


def circle_laplace_spectrum(m: CircleModel, cutoff: int) -> np.ndarray:
    """Eigenvalues mu_n = ((2 pi n + theta - i log r)/L)^2 for n in [-cutoff, cutoff]."""
    if cutoff < 1:
        raise StructuralError("cutoff must be >= 1")
    return _circle_frequencies(m, cutoff) ** 2


def _circle_zeta(m: CircleModel, zeta: ZetaEvaluator) -> tuple[complex, complex]:
    """(zeta_Delta(0), zeta'_Delta(0)) of the circle Laplacian, zero mode excluded."""
    if m.acyclic:
        a = m.exponent
        z0 = zeta.hurwitz(0.0, a) + zeta.hurwitz(0.0, 1.0 - a)
        zp0 = zeta.hurwitz_ds(0.0, a) + zeta.hurwitz_ds(0.0, 1.0 - a)
    else:  # spectrum 2 x {(2 pi n / L)^2, n >= 1}
        z0 = 2.0 * zeta.riemann(0.0)
        zp0 = 2.0 * zeta.riemann_ds(0.0)
    return z0, 2.0 * math.log(m.circumference / TWO_PI) * z0 + 2.0 * zp0


def zeta_det_laplacian_circle(m: CircleModel, zeta: ZetaEvaluator = DEFAULT_ZETA) -> complex:
    """det' of the twisted circle Laplacian via Hurwitz continuation: exp(-zeta'_Delta(0)).

    For lambda = 1 the zero mode is excluded and the classical value L^2 comes
    out; otherwise the result equals 4 sin^2(pi a), i.e. (lambda-1)^2/lambda,
    and is independent of L.
    """
    return complex(np.exp(-_circle_zeta(m, zeta)[1]))


def circle_zero_modes(m: CircleModel) -> int:
    return 0 if m.acyclic else 1


def eta_circle(m: CircleModel, zeta: ZetaEvaluator = DEFAULT_ZETA) -> complex:
    """Eta invariant of the circle operator via zeta_H(0, a) = 1/2 - a.

    The frequency family (2 pi n + theta - i log r)/L splits at Re = 0; the
    continuation gives eta = 1 - 2a, complex for non-unitary holonomy.  For
    lambda = 1 the symmetric nonzero spectrum gives 0.
    """
    if not m.acyclic:
        return 0.0 + 0.0j
    a = m.exponent
    return complex(zeta.hurwitz(0.0, a) - zeta.hurwitz(0.0, 1.0 - a))


def xi_circle(m: CircleModel, zeta: ZetaEvaluator = DEFAULT_ZETA) -> tuple[complex, complex]:
    """(xi, xi') of the circle model: degree-weighted log-det and count terms.

    xi  = 1/2 sum_k (-1)^k k zeta'_{B^2|k}(0) = 1/2 log det' Delta,
    xi' = 1/2 sum_k (-1)^k k zeta_{B^2|k}(0),
    with both degrees carrying the same spectrum: xi = -zeta'_Delta(0) / 2 and
    xi' = -zeta_Delta(0) / 2.
    """
    z0, zp0 = _circle_zeta(m, zeta)
    return complex(-0.5 * zp0), complex(-0.5 * z0)


def _check_agmon_circle(m: CircleModel, theta_agmon: float) -> None:
    """check_agmon on both rays for the frequencies |n| <= 200 above 1e-12 in modulus."""
    if not (-math.pi < theta_agmon < 0):
        raise StructuralError("Agmon angle must lie in (-pi, 0)")
    freq = _circle_frequencies(m, 200)
    freq = freq[np.abs(freq) > 1e-12]
    for ray in (theta_agmon, theta_agmon + math.pi):
        check_agmon(freq, ray)


def graded_det_circle(m: CircleModel, theta_agmon: float,
                      zeta: ZetaEvaluator = DEFAULT_ZETA) -> complex:
    """Graded determinant of the circle odd signature operator.

    Computed as exp(xi - i pi xi' - i pi eta) with the zeta-continued
    quantities of this module; for unitary holonomy |Det_gr|^2 = det' Delta.
    """
    if not m.acyclic:
        raise DegeneracyError("graded determinant needs acyclic holonomy (lambda != 1)")
    _check_agmon_circle(m, theta_agmon)
    xi, xi_prime = xi_circle(m, zeta)
    eta = eta_circle(m, zeta)
    return complex(np.exp(xi - 1j * math.pi * xi_prime - 1j * math.pi * eta))


def interval_det(iv: IntervalModel, zeta: ZetaEvaluator = DEFAULT_ZETA) -> tuple[complex, int]:
    """(det' Delta, zero-mode count) on functions for the interval model.

    Dirichlet spectrum (pi n / L)^2, n >= 1: det' = 2L; absolute boundary
    conditions keep the same nonzero spectrum and add the constant mode.
    """
    el = iv.length
    z0 = zeta.riemann(0.0)
    zp0 = 2.0 * math.log(el / math.pi) * z0 + 2.0 * zeta.riemann_ds(0.0)
    det = complex(np.exp(-zp0))
    return det, (0 if iv.bc == "relative" else 1)


def rat_circle(m: CircleModel, theta_agmon: float,
               zeta: ZetaEvaluator = DEFAULT_ZETA) -> complex:
    """rho_an of the circle: Det_gr times the trivial-bundle phase correction.

    The correction exp[i pi (eta(B_trivial) + xi_hat(d, g))] uses the lambda=1
    spectra.  Zero-mode convention (documented): the eta of the trivial-bundle
    operator is the reduced one, (eta(0) + dim ker)/2 = 1/2, while the zero
    mode is removed from the B^2 zeta, giving xi_hat = -zeta_R(0) = 1/2.  The
    correction factor is exp(i pi) = -1, which keeps rho_an real up to sign at
    theta = pi and |rho_an| = |1 - lambda| for unitary holonomy.
    """
    det_gr = graded_det_circle(m, theta_agmon, zeta)
    triv = CircleModel(m.circumference, 1.0 + 0.0j)
    eta_triv = 0.5 * (eta_circle(triv, zeta).real + circle_zero_modes(triv))
    xi_hat_triv = -0.5 * (2.0 * zeta.riemann(0.0).real)
    return complex(det_gr * np.exp(1j * math.pi * (eta_triv + xi_hat_triv)))


def gluing_constant_K(eta_m: complex, eta_m1: complex, eta_m2: complex,
                      chi_n: int) -> complex:
    """K = 2^{chi(N)} exp(i pi (eta_M - eta_M1 - eta_M2)), modulo sign.

    The overall sign of the gluing constant is not determined here; the
    returned value is the +1 representative.
    """
    return complex(2.0 ** chi_n * np.exp(1j * math.pi * (eta_m - eta_m1 - eta_m2)))


def k_squared_holomorphy(curve, z0: complex, h: float = 1e-4,
                         zeta: ZetaEvaluator = DEFAULT_ZETA):
    """Cauchy-Riemann residual of z -> exp(2 pi i eta(lambda(z))) at z0.

    curve maps z to a holonomy in C* avoiding 1.  The window convention makes
    eta itself jump across the positive real axis, but exp(2 pi i eta) equals
    lambda^{-2} and is holomorphic on all of C*; the residual certifies that.
    """
    from .holomorphy import cr_residual

    def g(z):
        lam = complex(curve(z))
        if lam == 0 or abs(lam - 1.0) < 1e-9:
            raise DegeneracyError("curve leaves C* \\ {1}")
        return complex(np.exp(2j * math.pi
                              * eta_circle(CircleModel(1.0, lam), zeta)))

    return cr_residual(g, z0, h)


def circle_split_cw(l1: float, l2: float) -> tuple[CWData, dict]:
    """Circle of circumference l1+l2 as two arcs glued along two vertices.

    Cell order (v1, v2, e1, e2); e1 has length l1 (piece M1), e2 length l2.
    Returns the CW data and a geometry dict with edge lengths.
    """
    k = CWData(
        cells=[("v1", 0), ("v2", 0), ("e1", 1), ("e2", 1)],
        boundary={
            "e1": [("v2", 1, ""), ("v1", -1, "")],
            "e2": [("v1", 1, ""), ("v2", -1, "")],
        },
        generators=[],
        relations=[],
        boundary_subcomplex=frozenset(),
    )
    return k, {"e1": float(l1), "e2": float(l2)}


def _h0_value(vec: np.ndarray) -> complex:
    """The constant value, to 1e-9 relative, of a vertex-cochain class of a connected piece."""
    if vec.size == 0:
        raise DegeneracyError("empty H^0 class")
    v0 = vec[0]
    if np.max(np.abs(vec - v0)) > 1e-9 * max(1.0, abs(v0)):
        raise DegeneracyError("H^0 class is not constant across vertices")
    return complex(v0)


@functools.cache
def _lesch_transmission() -> tuple[float, complex, complex, complex, complex]:
    """|Phi(1_A (x) 1_C)| of the two-arc circle's transmission sequence and the
    class values b0_m, g_m, g_m1, b0_m2 of its auto cohomology bases.

    The cells, the sequence and its long exact sequence do not depend on the
    arc lengths, so they are made once per process.
    """
    k, _ = circle_split_cw(1.0, 1.0)
    rho = trivial_representation(1, [])
    les = les_of_ses(transmission_ses_for(k, {"e1"}, {"e2"}, {"v1", "v2"}, rho))
    one_a = DetLineElement(1.0, les.coh_a.tag, les.coh_a.grading())
    one_c = DetLineElement(1.0, les.coh_c.tag, les.coh_c.grading())
    # circle: H^0 basis <-> constant b0_m, H^1 <-> total integral g_m; M1
    # relative: H^1(M1, N) is an e1 cochain with integral g_m1; M2 absolute:
    # H^0(M2) is a constant b0_m2 on its vertices
    return (abs(les.phi(one_a, one_c).coordinate),
            _h0_value(les.coh_b.representatives[0][:, 0]),
            complex(np.sum(les.coh_b.representatives[1][:, 0])),
            complex(np.sum(les.coh_a.representatives[1][:, 0])),
            _h0_value(les.coh_c.representatives[0][:, 0]))


def gluing_check_lesch(l1: float, l2: float,
                       zeta: ZetaEvaluator = DEFAULT_ZETA) -> float:
    """Residual |log(LHS/RHS) - (1/2) chi(N) log 2| for the 1-D gluing formula.

    Circle of circumference l1+l2, trivial rank-1 bundle, split at two points
    (chi(N) = 2) into M1 = [0, l1] with relative and M2 = [l1, l1+l2] with
    absolute boundary conditions.  LHS/RHS compare the Ray-Singer norm of the
    circle with the image of the interval norms under the determinant-line
    map of the transmission long exact sequence.

    Conventions fixed here: T_RS = prod_q (det' Delta_q)^{q (-1)^q / 2}; the
    Ray-Singer norm is T_RS times the L^2 norm on harmonic representatives; in
    one dimension the two interval Laplacians share one nonzero spectrum, and
    duality gives det' Delta_1 = det' Delta_0 on the circle.
    """
    el = l1 + l2
    phi, b0_m, g_m, g_m1, b0_m2 = _lesch_transmission()

    # analytic torsions
    det_circle = zeta_det_laplacian_circle(CircleModel(el, 1.0 + 0.0j), zeta).real
    det_m1, _ = interval_det(IntervalModel(l1, "relative"), zeta)
    det_m2, _ = interval_det(IntervalModel(l2, "absolute"), zeta)
    t_m = det_circle ** (-0.5)       # degree-1 factor only, exponent 1*(-1)^1/2
    t_m1 = det_m1.real ** (-0.5)
    t_m2 = det_m2.real ** (-0.5)

    # L^2 norms of the auto cohomology basis classes: a constant k on the
    # circle has norm |k| sqrt(L), a 1-class of total integral g has |g| / sqrt(L)
    norm_b0_m = abs(b0_m) * math.sqrt(el)
    norm_b1_m = abs(g_m) / math.sqrt(el)
    norm_a1 = abs(g_m1) / math.sqrt(l1)
    norm_c0 = abs(b0_m2) * math.sqrt(l2)

    lhs = t_m * phi * norm_b0_m / norm_b1_m
    rhs = (t_m1 / norm_a1) * (t_m2 * norm_c0)
    chi_n = 2
    return float(abs(math.log(lhs / rhs) - 0.5 * chi_n * math.log(2.0)))
