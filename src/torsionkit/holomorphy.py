"""Numerical holomorphy certification along curves in the representation variety.

The basic tool is the centered Cauchy-Riemann residual

    |dbar g|(z0)  ~  |(g(z0+h) - g(z0-h)) + i (g(z0+ih) - g(z0-ih))| / (4h),

which vanishes to O(h^2) for holomorphic g (the leading error is h^2 g'''/3)
and is O(1) for anti-holomorphic dependence.  On top of it:

* holomorphy of determinant-line data (sections, graded determinants) along
  polynomial representation curves,
* the ratio f(z) = rho_model / tau as the torsion of the cone of a
  quasi-isomorphism I_z from a finite model into the doubled cochain complex,
* the off-diagonal structure of the derivative of the spectral projector
  families P_+/- (im D and im Gamma D parts of the large spectral subspace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .chain import GradedComplex, cone, torsion_acyclic, verify_complex
from .chirality import ChiralityComplex, graded_determinant, odd_signature, \
    spectral_split
from .cw import CWData, Representation, build_cochain, build_relative
from .linalg import DegeneracyError, StructuralError, as_cmatrix

CR_TOL = 1e-6
CR_FLOOR = 1e-10


def cr_residual(g: Callable[[complex], complex], z0: complex, h: float) -> float:
    """Centered Cauchy-Riemann residual |dbar g| at z0 with step h."""
    if not (h > 0):
        raise StructuralError("step h must be positive")
    z0 = complex(z0)
    gx = g(z0 + h) - g(z0 - h)
    gy = g(z0 + 1j * h) - g(z0 - 1j * h)
    return float(abs(gx + 1j * gy) / (4.0 * h))


def cr_order(g: Callable[[complex], complex], z0: complex, h: float,
             floor_scale: float | None = None) -> tuple[float, float, float]:
    """(residual at h, residual at h/2, measured order).

    order = log2(res(h) / res(h/2)); when both residuals sit below the
    roundoff floor the order is unmeasurable and reported as +inf (the
    function is at machine-precision holomorphic already).
    """
    r1 = cr_residual(g, z0, h)
    r2 = cr_residual(g, z0, h / 2.0)
    scale = floor_scale if floor_scale is not None else max(1.0, abs(g(z0)))
    floor = CR_FLOOR * scale
    if r1 < floor and r2 < floor:
        return r1, r2, float("inf")
    if r2 == 0.0:
        return r1, r2, float("inf")
    return r1, r2, float(np.log2(r1 / r2))


@dataclass
class RepresentationCurve:
    """Generator matrices with polynomial z-dependence: a curve in the variety."""

    rank: int
    coefficients: dict[str, list[np.ndarray]]  # generator -> [c0, c1, ...], M(z) = sum c_k z^k
    radius: float = 1.0
    relations: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.coefficients = {
            g: [as_cmatrix(c, rows=self.rank, cols=self.rank) for c in cs]
            for g, cs in self.coefficients.items()
        }

    def at(self, z: complex) -> Representation:
        mats = {}
        for g, cs in self.coefficients.items():
            m = np.zeros((self.rank, self.rank), dtype=np.complex128)
            zp = 1.0 + 0.0j
            for c in cs:
                m += zp * c
                zp *= z
            mats[g] = m
        return Representation(self.rank, mats)

    def validate(self, tol: float = 1e-10, samples: int = 5) -> float:
        """Max relation residual over sampled z in the closed disc of the curve."""
        worst = 0.0
        pts = [0.0] + [self.radius * np.exp(2j * np.pi * k / (samples - 1))
                       for k in range(samples - 1)] if samples > 1 else [0.0]
        for z in pts:
            rep = self.at(z)
            eye = np.eye(self.rank)
            for w in self.relations:
                worst = max(worst, float(sla.norm(rep.evaluate(w) - eye)))
        if worst > tol:
            raise StructuralError(f"curve leaves the representation variety: {worst:.2e}")
        return worst


@dataclass
class ComplexFamily:
    """z -> GradedComplex or ChiralityComplex, usually polynomial in z."""

    builder: Callable[[complex], GradedComplex | ChiralityComplex]

    def at(self, z: complex):
        return self.builder(complex(z))

    def graded_at(self, z: complex) -> GradedComplex:
        c = self.at(z)
        return c.complex if isinstance(c, ChiralityComplex) else c

    def validate(self, points) -> None:
        for z in points:
            if not verify_complex(self.graded_at(z)):
                raise StructuralError(f"family is not a complex at z = {z}")


@dataclass
class SectionModel:
    """Finite model W^*(z) with z-independent chirality and comparison maps I_z.

    family produces the model differentials (a ChiralityComplex per z whose
    gamma and h must not depend on z); i_maps(z) gives the blocks of the
    quasi-isomorphism I_z: W^*(z) -> C_d^*(K, curve(z)).
    """

    family: ComplexFamily
    i_maps: Callable[[complex], list[np.ndarray]]


def doubled_cochain(k: CWData, rep: Representation) -> GradedComplex:
    """C_d = C(K, K') (+) C(K): the doubled complex of the boundary setup."""
    rel = build_relative(k, rep)
    full = build_cochain(k, rep)
    return rel.direct_sum(full)


def section_ratio(k: CWData, model: SectionModel, curve: RepresentationCurve,
                  z: complex) -> complex:
    """f(z) = rho_model / tau(curve(z)) as the cone torsion of I_z.

    The cone of the quasi-isomorphism I_z: W^*(z) -> C_d^*(K, curve(z)) is
    acyclic and its torsion with the standard-basis element computes the ratio
    up to the documented sign conventions.
    """
    rep = curve.at(z)
    cd = doubled_cochain(k, rep)
    w = model.family.at(z)
    wg = w.complex if isinstance(w, ChiralityComplex) else w
    i_blocks = model.i_maps(z)
    cn = cone(i_blocks, wg, cd)
    return torsion_acyclic(cn).coordinate


def section_ratio_residual(k: CWData, model: SectionModel, curve: RepresentationCurve,
                           z0: complex, h: float = 1e-4):
    """(residual, residual at h/2, order) of the Cauchy-Riemann test on f(z)."""
    return cr_order(lambda z: section_ratio(k, model, curve, z), z0, h)


def graded_det_along_curve(family: ComplexFamily, lam: float, theta: float,
                           z0: complex, h: float = 1e-4):
    """(residual, residual at h/2, order) for z -> Det_gr(B^{(lam,inf)}_even(z))."""

    def g(z: complex) -> complex:
        x = family.at(z)
        if not isinstance(x, ChiralityComplex):
            raise StructuralError("graded determinant needs a chirality family")
        return graded_determinant(odd_signature(x), lam, theta)

    return cr_order(g, z0, h)


def projection_family(x: ChiralityComplex, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The projections P_+ (onto im D) and P_- (onto im Gamma D) of the large part.

    Both are oblique projectors on the total graded space, each annihilating
    the small spectral subspace and the complementary summand; P_+ + P_- is
    the large-part spectral projector.
    """
    s = odd_signature(x)
    split = spectral_split(s, lam)
    m = x.m
    total = s.space.total
    cols_small, cols_d, cols_gd = [], [], []
    for k in range(m + 1):
        u_small = split.u_small_blocks[k]
        u_big = split.u_big_blocks[k]
        if u_small.shape[1]:
            cols_small.append(s.space.embed(k, u_small))
        # im(D) part of the big subspace at degree k
        if k >= 1:
            img = x.complex.d(k - 1) @ split.u_big_blocks[k - 1]
            from .linalg import col_space
            b = col_space(img)
            if b.shape[1]:
                cols_d.append(s.space.embed(k, b))
        # im(Gamma D) part at degree k (source degree m-k-1)
        ks = m - k - 1
        if 0 <= ks < m:
            img = x.gamma[ks + 1] @ (x.complex.d(ks) @ split.u_big_blocks[ks])
            from .linalg import col_space
            b = col_space(img)
            if b.shape[1]:
                cols_gd.append(s.space.embed(k, b))
    u_s = np.hstack(cols_small) if cols_small else np.zeros((total, 0), complex)
    u_d = np.hstack(cols_d) if cols_d else np.zeros((total, 0), complex)
    u_g = np.hstack(cols_gd) if cols_gd else np.zeros((total, 0), complex)
    basis = np.hstack([u_s, u_d, u_g])
    if basis.shape != (total, total):
        raise DegeneracyError(
            f"spectral splitting does not fill the space: {basis.shape[1]} of {total}"
        )
    inv = sla.inv(basis)
    n_s, n_d = u_s.shape[1], u_d.shape[1]
    p_plus = basis[:, n_s:n_s + n_d] @ inv[n_s:n_s + n_d, :]
    p_minus = basis[:, n_s + n_d:] @ inv[n_s + n_d:, :]
    return p_plus, p_minus


def projection_derivative_check(family: ComplexFamily, lam: float, z0: complex,
                                h: float = 1e-4) -> tuple[float, float]:
    """(diagonal residual, off-diagonal magnitude) of dP_+/- along the family.

    The derivative of a projector family satisfies P P' P = 0 and
    (1-P) P' (1-P) = 0; both block norms are reported (max over +/-), together
    with the off-diagonal magnitude for scale.
    """
    def pm(z: complex):
        x = family.at(z)
        if not isinstance(x, ChiralityComplex):
            raise StructuralError("projection check needs a chirality family")
        return projection_family(x, lam)

    pp0, pm0 = pm(z0)
    ppp, pmp = pm(z0 + h)
    ppm, pmm = pm(z0 - h)
    diag = 0.0
    off = 0.0
    for p0, dp in ((pp0, (ppp - ppm) / (2 * h)), (pm0, (pmp - pmm) / (2 * h))):
        q0 = np.eye(p0.shape[0]) - p0
        diag = max(diag, float(sla.norm(p0 @ dp @ p0)), float(sla.norm(q0 @ dp @ q0)))
        off = max(off, float(sla.norm(p0 @ dp @ q0)), float(sla.norm(q0 @ dp @ p0)))
    return diag, off
