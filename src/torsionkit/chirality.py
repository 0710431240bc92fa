"""Refined torsion of finite chirality complexes.

A ChiralityComplex is an odd-length graded complex (C^*, D) with a
degree-reversing involution Gamma_k: C^k -> C^{m-k} self-adjoint for chosen
inner products h.  From it we build:

* the dual differential D' with Gamma D = (D')^{*h} Gamma,
* the odd signature operator B = Gamma D + D Gamma (degree pairs k <-> m-k-1),
* the spectral splitting of B^2 at a cut |mu| <= lambda: per degree, one
  complex Schur form, made once, is reordered per cut; it gives orthonormal
  bases of the small (|mu| <= lambda) and big invariant subspaces and the
  big eigenvalues (valid for defective matrices),
* the graded determinant of the invertible part: B restricted to even degrees
  splits into B+ on ker(D Gamma) = im(Gamma D) and B- on ker(Gamma D) = im(D),
  and Det_gr = Det_theta(B+_even) / Det_theta(-B-_even) with branch logs,
* the refined torsion element of the small spectral subcomplex and the
  combined element rho = Det_gr * rho_small, which is independent of the
  admissible cut lambda and of the branch angle theta,
* finite-model eta/xi quantities satisfying Det_gr = exp(xi - i pi xi' - i pi eta).

What depends on the cut lambda but not on the angle theta is computed once
per cut: the OddSignatureData memoises each cut's SpectralSplit, and the split
holds its bases and big eigenvalues and, as cached properties, its +/-
splitting, the eigenvalues of B+ and B-, the small complex and that complex's
cohomology and refined torsion element.  Gap and Agmon checks still run on
every call, and a property that raises stores nothing, so errors repeat
exactly.  The memoised arrays are shared by every caller and read-only.

Sign normalization: the refined torsion element carries the extra sign
(-1)^{(r-1) * dim C^{r-1}} (r = (m+1)/2).  With the Milnor convention of
chain.torsion_acyclic this is exactly the sign that makes rho independent of
the spectral cut; it is fixed here once and validated by the invariance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .chain import (
    TOL_COMPLEX,
    Cohomology,
    DetLineElement,
    GradedComplex,
    acyclic_ranks,
    canonical_iso,
    cohomology,
    conjugate,
    random_isos,
    standard_complex,
    verify_complex,
    _class_coordinates,
)
from .linalg import (
    BlockSpace,
    DegeneracyError,
    SpectralGapError,
    StructuralError,
    as_cmatrix,
    check_agmon,
    eigvals,
    eigvalsh,
    h_adjoint,
    log_branch,
    norm,
    positive_definite,
    spectral_projector,
)

ZERO_EIG_RTOL = 1e-10
RESTRICT_TOL = 1e-8
# largest relative spread of rho over admissible (lambda, theta) that passes
INVARIANCE_TOL = 1e-8


@dataclass
class ChiralityComplex:
    """Odd-length complex with chirality involution and per-degree inner products."""

    complex: GradedComplex
    gamma: list[np.ndarray]
    h: list[np.ndarray]

    def __post_init__(self):
        m = self.complex.top_degree
        if m % 2 == 0:
            raise StructuralError(f"chirality complexes need odd length, got m={m}")
        dims = self.complex.dims
        if len(self.gamma) != m + 1 or len(self.h) != m + 1:
            raise StructuralError("need one gamma and one h per degree")
        self.gamma = [as_cmatrix(g, rows=dims[m - k], cols=dims[k])
                      for k, g in enumerate(self.gamma)]
        self.h = [as_cmatrix(hk, rows=dims[k], cols=dims[k])
                  for k, hk in enumerate(self.h)]

    @property
    def m(self) -> int:
        return self.complex.top_degree

    @property
    def r(self) -> int:
        return (self.m + 1) // 2

    def validate(self) -> None:
        m = self.m
        dims = self.complex.dims
        if not verify_complex(self.complex):
            raise StructuralError("underlying differential does not square to zero")
        for k in range(m + 1):
            gg = self.gamma[m - k] @ self.gamma[k]
            if gg.size and norm(gg - np.eye(dims[k])) > TOL_COMPLEX * max(1.0, norm(gg)):
                raise StructuralError(f"gamma is not an involution at degree {k}")
            hk = self.h[k]
            if hk.size:
                if norm(hk - hk.conj().T) > TOL_COMPLEX * max(1.0, norm(hk)):
                    raise StructuralError(f"h is not Hermitian at degree {k}")
                if not positive_definite(hk):
                    raise StructuralError(f"h is not positive definite at degree {k}")
            # self-adjointness of gamma: gamma_k^H h_{m-k} = h_k gamma_{m-k}
            lhs = self.gamma[k].conj().T @ self.h[m - k]
            rhs = self.h[k] @ self.gamma[m - k]
            if lhs.size and norm(lhs - rhs) > 1e-8 * max(1.0, norm(lhs)):
                raise StructuralError(f"gamma is not h-self-adjoint at degree {k}")


def dual_differential(x: ChiralityComplex) -> list[np.ndarray]:
    """D' with Gamma D = (D')^{*h} Gamma: D'_j = (Gamma_{m-j} D_{m-j-1} Gamma_{j+1})^{*h}."""
    m = x.m
    out = []
    for j in range(m):
        a = x.gamma[m - j] @ x.complex.d(m - j - 1) @ x.gamma[j + 1]
        out.append(h_adjoint(a, x.h[j + 1], x.h[j]))
    return out


def dual_relation_residual(x: ChiralityComplex) -> float:
    """max_k || Gamma D - (D')^{*h} Gamma || on C^k (relative)."""
    m = x.m
    dp = dual_differential(x)
    worst = 0.0
    for k in range(m):
        lhs = x.gamma[k + 1] @ x.complex.d(k)
        rhs = h_adjoint(dp[m - k - 1], x.h[m - k - 1], x.h[m - k]) @ x.gamma[k]
        if lhs.size:
            worst = max(worst, float(norm(lhs - rhs)) / max(1.0, float(norm(lhs))))
    return worst


@dataclass
class OddSignatureData:
    """B = Gamma D + D Gamma on the total graded space, with per-degree B^2 data."""

    x: ChiralityComplex
    space: BlockSpace
    b_total: np.ndarray
    # per degree, the complex Schur form (t, z) of the B^2 block, made once
    b2_schur: list[tuple[np.ndarray, np.ndarray]]
    # cut lambda -> its SpectralSplit, filled by spectral_split
    _splits: dict[float, SpectralSplit] = field(default_factory=dict, init=False,
                                                repr=False, compare=False)

    def all_b2_eigs(self) -> np.ndarray:
        return np.concatenate([np.diagonal(t) for t, _ in self.b2_schur])


def odd_signature(x: ChiralityComplex) -> OddSignatureData:
    x.validate()
    m = x.m
    dims = x.complex.dims
    space = BlockSpace(dims)
    b = np.zeros((space.total, space.total), dtype=np.complex128)
    for k in range(m + 1):
        # Gamma D: C^k -> C^{m-k-1}
        if k < m:
            tgt = m - k - 1
            blk = x.gamma[k + 1] @ x.complex.d(k)
            b[space.slice(tgt), space.slice(k)] += blk
        # D Gamma: C^k -> C^{m-k+1}
        if k > 0:
            tgt = m - k + 1
            blk = x.complex.d(m - k) @ x.gamma[k]
            b[space.slice(tgt), space.slice(k)] += blk
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        b2 = b @ b
    if not np.isfinite(b2).all():
        raise DegeneracyError("B^2 has non-finite entries: (Gamma D + D Gamma)^2 overflows")
    forms = []
    for k in range(m + 1):
        blk = b2[space.slice(k), space.slice(k)]
        forms.append(sla.schur(blk, output="complex") if blk.size else (blk, blk))
    _read_only([a for form in forms for a in form])
    # off-degree parts of B^2 vanish identically (D^2 = 0 and the involution)
    off = b2.copy()
    for k in range(m + 1):
        off[space.slice(k), space.slice(k)] = 0.0
    if off.size and norm(off) > 1e-8 * max(1.0, norm(b2)):
        raise DegeneracyError("B^2 does not preserve degrees; input data inconsistent")
    return OddSignatureData(x, space, b, forms)


@dataclass
class SpectralSplit:
    """Invariant subspaces of B^2 at the cut |mu| <= lambda, per degree.

    u_small_blocks[k] and u_big_blocks[k] are orthonormal bases (columns) of
    the invariant subspaces of B^2 on C^k for |mu| <= lambda and
    |mu| > lambda; eig_big_blocks[k] holds the eigenvalues of the latter.  x
    is the complex whose OddSignatureData made the split.  What rho,
    graded_determinant and eta_xi_finite derive from the cut alone are
    cached properties: pm, pm_eigs, small and small_element.  A property
    that raises stores nothing, so the next access raises again.  Arrays
    are read-only.
    """

    x: ChiralityComplex = field(repr=False, compare=False)
    lam: float
    u_small_blocks: list[np.ndarray]
    u_big_blocks: list[np.ndarray]
    eig_big_blocks: list[np.ndarray]
    # (full complex, its cohomology, the small element pushed to it)
    _pushed: tuple[GradedComplex, Cohomology, DetLineElement] | None = field(
        default=None, init=False, repr=False, compare=False)

    @cached_property
    def pm(self) -> PMSplit:
        """B on the big part's even degrees split into B+ (+) B-; see pm_split."""
        m = self.x.m
        d_big, g_big = _restricted(self.x, self.u_big_blocks, " (big part)")
        plus, minus = {}, {}
        for j in range(0, m + 1, 2):
            dim = self.u_big_blocks[j].shape[1]
            plus[j] = self.x.complex._image(g_big[m - j] @ d_big[m - j - 1])
            minus[j] = self.x.complex._image(d_big[j - 1]) if j >= 1 else \
                np.zeros((dim, 0), complex)
            if plus[j].shape[1] + minus[j].shape[1] != dim:
                raise DegeneracyError(
                    f"+/- splitting does not fill the big part at degree {j}: "
                    f"{plus[j].shape[1]} + {minus[j].shape[1]} != {dim}"
                )
        b_plus = _restrict_even_family(m, d_big, g_big, plus)
        b_minus = _restrict_even_family(m, d_big, g_big, minus)
        _read_only([*plus.values(), *minus.values(), b_plus, b_minus])
        return PMSplit(plus, minus, b_plus, b_minus)

    @cached_property
    def pm_eigs(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of B+ and of B-."""
        eigs = tuple(eigvals(b) if b.size else np.zeros(0, complex)
                     for b in (self.pm.b_plus, self.pm.b_minus))
        _read_only(eigs)
        return eigs

    @cached_property
    def small(self) -> SmallComplex:
        """The [0, lambda] subcomplex; see small_complex."""
        x, bases = self.x, self.u_small_blocks
        dims = tuple(u.shape[1] for u in bases)
        diffs, gammas = _restricted(x, bases, "")
        hs = [u.conj().T @ hk @ u for u, hk in zip(bases, x.h)]
        return SmallComplex(ChiralityComplex(x.complex._derive(dims, diffs), gammas, hs),
                            bases)

    @cached_property
    def small_element(self) -> tuple[Cohomology, DetLineElement]:
        """The small complex's cohomology and its refined torsion element."""
        coh = cohomology(self.small.x.complex, tag="H(small)")
        return coh, refined_torsion_element(self.small.x, coh)


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False


def spectral_split(s: OddSignatureData, lam: float) -> SpectralSplit:
    """Spectral splitting of B^2 at the cut |mu| <= lambda, per degree.

    Raises SpectralGapError when lambda is too close to |mu| for some
    eigenvalue mu of B^2 (relative to the spectral scale).  That check runs
    on every call; the split itself depends on lambda alone and is memoised
    on s, so every call at one cut returns the same SpectralSplit, whose
    arrays are shared and read-only.  Per block, a reorder of the Schur form
    made by odd_signature gives both bases and the big eigenvalues
    (linalg.spectral_projector).
    """
    if lam < 0:
        raise StructuralError("lambda must be >= 0")
    eigs = s.all_b2_eigs()
    scale = float(np.max(np.abs(eigs))) if eigs.size else 1.0
    thr = lam if lam > 0 else ZERO_EIG_RTOL * max(scale, 1.0)
    gap = 1e-8 * max(scale, 1.0)
    if eigs.size and lam > 0 and np.min(np.abs(np.abs(eigs) - lam)) < gap:
        raise SpectralGapError(
            f"lambda={lam} lies within {gap} of |spec(B^2)|; move the cut"
        )
    split = s._splits.get(lam)
    if split is not None:
        return split
    us, ub, eigs = map(list, zip(*(spectral_projector(t, z, lambda w: abs(w) <= thr)
                                   for t, z in s.b2_schur)))
    _read_only(us + ub + eigs)
    split = s._splits[lam] = SpectralSplit(s.x, lam, us, ub, eigs)
    return split


@dataclass
class SmallComplex:
    """The [0,lambda] subcomplex as a chirality complex plus its embedding."""

    x: ChiralityComplex
    bases: list[np.ndarray]  # orthonormal columns in the ambient C^k


def small_complex(s: OddSignatureData, split: SpectralSplit) -> SmallComplex:
    """The [0, lambda] subcomplex of split, which s made; cached on the split."""
    return split.small


def _restricted(x: ChiralityComplex, bases: list[np.ndarray], part: str):
    """D and Gamma as matrices between the subspaces with orthonormal bases[k].

    part (such as " (big part)") follows D or gamma in the error raised when
    a map does not preserve the subspaces.
    """
    m = x.m
    d = [_restrict(x.complex.d(k), bases[k], bases[k + 1], f"D{part} at degree {k}")
         for k in range(m)]
    g = [_restrict(x.gamma[k], bases[k], bases[m - k], f"gamma{part} at degree {k}")
         for k in range(m + 1)]
    return d, g


def _restrict(a: np.ndarray, src: np.ndarray, tgt: np.ndarray, what: str) -> np.ndarray:
    """Matrix of a on chosen subspace bases; verifies a maps src into span(tgt)."""
    if src.shape[1] == 0 or a.size == 0:
        return np.zeros((tgt.shape[1], src.shape[1]), dtype=np.complex128)
    img = a @ src
    mat = tgt.conj().T @ img if tgt.shape[1] else np.zeros((0, src.shape[1]), complex)
    recon = tgt @ mat if tgt.shape[1] else np.zeros_like(img)
    if norm(recon - img) > RESTRICT_TOL * max(1.0, norm(img)):
        raise DegeneracyError(f"{what} does not preserve the spectral subspace")
    return mat


@dataclass
class PMSplit:
    """Even-degree bases of im(Gamma D) ('+' side) and im(D) ('-' side).

    Bases are given inside the big invariant subspaces: plus_bases[j] has
    orthonormal columns in the coordinates of split.u_big_blocks[j].
    """

    plus_bases: dict[int, np.ndarray]
    minus_bases: dict[int, np.ndarray]
    b_plus: np.ndarray
    b_minus: np.ndarray


def pm_split(s: OddSignatureData, split: SpectralSplit) -> PMSplit:
    """Split B restricted to the large part and even degrees into B+ (+) B-.

    On the invertible part, ker(D Gamma) = im(Gamma D) and
    ker(Gamma D) = im(D); B leaves both invariant.  All computations happen in
    the orthonormal coordinates of the big invariant subspaces.  The result
    is the split's cached property pm (s must be the data that made it) and
    its arrays are read-only.
    """
    return split.pm


def _restrict_even_family(m: int, d_big, g_big, bases: dict[int, np.ndarray]) -> np.ndarray:
    """Matrix of B = Gamma D + D Gamma on the direct sum of even-degree subspaces.

    For odd m, B maps even degree j to the even degrees m-j-1 (Gamma D) and,
    for j >= 2, m-j+1 (D Gamma); each part is checked to land in its target.
    """
    degs = sorted(bases)
    offs = np.concatenate([[0], np.cumsum([bases[j].shape[1] for j in degs])]).astype(int)
    block = {j: slice(offs[i], offs[i + 1]) for i, j in enumerate(degs)}
    out = np.zeros((offs[-1], offs[-1]), dtype=np.complex128)
    for j in degs:
        u = bases[j]
        parts = [(m - j - 1, g_big[j + 1], d_big[j] @ u)]
        if j:
            parts.append((m - j + 1, d_big[m - j], g_big[j] @ u))
        for tgt, a, src in parts:
            out[block[tgt], block[j]] += _restrict(
                a, src, bases[tgt], f"B on the +/- splitting, degree {j} -> {tgt},")
    return out


def _check_theta(theta: float) -> None:
    if not (-np.pi < theta < 0):
        raise StructuralError("theta must lie in (-pi, 0)")


def graded_determinant(s: OddSignatureData, lam: float, theta: float) -> complex:
    """Det'_theta(B+_even) / Det'_theta(-B-_even) on the (lambda, inf) part."""
    _check_theta(theta)
    return _graded_determinant(spectral_split(s, lam), theta)


def _graded_determinant(split: SpectralSplit, theta: float) -> complex:
    """graded_determinant at the split's cut, theta already checked."""
    eig_p, eig_m = split.pm_eigs
    if (eig_p.size and np.min(np.abs(eig_p)) < 1e-10) or \
       (eig_m.size and np.min(np.abs(eig_m)) < 1e-10):
        raise DegeneracyError("B restricted to the large part is not bijective")
    check_agmon(eig_p, theta)
    check_agmon(-eig_m, theta)
    log_sum = sum(log_branch(w, theta) for w in eig_p) \
        - sum(log_branch(-w, theta) for w in eig_m)
    return complex(np.exp(log_sum))


def invariance_sign_exponent(dims: tuple[int, ...], hdims: tuple[int, ...]) -> int:
    """Sign exponent of the refined torsion element of a spectral subcomplex.

    With the Milnor/splitting conventions of chain.torsion_acyclic and
    chain.canonical_iso, this is the unique sign normalization (up to a global
    constant, fixed by the D = 0 rank-one case) that makes
    Det_gr * rho_{[0,lambda]} independent of the spectral cut.  dims are the
    subcomplex dimensions, hdims its cohomology dimensions (= those of the
    ambient complex).  Pinned for m = 1 and m = 3.
    """
    m = len(dims) - 1
    if m == 1:
        return hdims[0] * (dims[0] + 1)
    if m == 3:
        return (dims[0] + dims[1] + dims[0] * dims[1]
                + dims[0] * (hdims[0] + hdims[2])
                + dims[1] * (hdims[0] + hdims[1]))
    raise StructuralError(
        f"sign normalization pinned only for complexes of length 1 or 3, got m={m}"
    )


def refined_torsion_element(xc: ChiralityComplex, coh: Cohomology | None = None,
                            c_blocks: list[np.ndarray] | None = None) -> DetLineElement:
    """Refined torsion element of a chirality complex in Det(H^*).

    Built from arbitrary elements c_k of det C^k for k < r, with the degree
    m-k slot filled by Gamma c_k; the c_k-dependence cancels.  c_blocks, when
    given, are invertible matrices whose column wedges realize the c_k.
    """
    xc.validate()
    m = xc.m
    r = xc.r
    dims = xc.complex.dims
    coord = 1.0 + 0.0j
    for k in range(r):
        if c_blocks is not None:
            ck = as_cmatrix(c_blocks[k], rows=dims[k], cols=dims[k])
            det_c = sla.det(ck) if ck.size else 1.0 + 0.0j
        else:
            det_c = 1.0 + 0.0j
        det_gc = sla.det(xc.gamma[k]) * det_c if dims[k] else 1.0 + 0.0j
        if det_c == 0 or det_gc == 0:
            raise DegeneracyError(f"degenerate determinant-line element at degree {k}")
        sign_k = -1 if k % 2 else 1
        coord *= det_c ** sign_k
        coord *= det_gc ** (-sign_k)
    if coh is None:
        coh = cohomology(xc.complex, tag="H(small)")
    coord *= (-1) ** invariance_sign_exponent(dims, coh.dims)
    return canonical_iso(xc.complex, coh, coordinate=coord)


def _push_to_full(small: SmallComplex, coh_small: Cohomology,
                  full: GradedComplex, coh_full: Cohomology,
                  element: DetLineElement) -> DetLineElement:
    """Transport an element of Det H^*(small) to Det H^*(full) via inclusion."""
    mult = 1.0 + 0.0j
    for k, u in enumerate(small.bases):
        hk = coh_small.dims[k]
        if hk != coh_full.dims[k]:
            raise DegeneracyError(
                f"small/full cohomology dimensions differ at degree {k}: "
                f"{hk} vs {coh_full.dims[k]}"
            )
        if hk == 0:
            continue
        reps_ambient = u @ coh_small.representatives[k]
        mat = _class_coordinates(full, coh_full, k, reps_ambient)
        det = sla.det(mat)
        if det == 0 or not np.isfinite(det):
            raise DegeneracyError(f"inclusion fails to identify cohomology at degree {k}")
        mult *= det ** (1 if k % 2 == 0 else -1)
    return DetLineElement(element.coordinate * mult, coh_full.tag, coh_full.grading())


def rho(x: ChiralityComplex, lam: float, theta: float,
        coh_full: Cohomology | None = None,
        s: OddSignatureData | None = None) -> DetLineElement:
    """rho = Det_gr(B^{(lambda,inf)}_even) * rho_{[0,lambda]} in Det H^*(x).

    Independent of the admissible cut lambda and branch angle theta.
    """
    if s is None:
        s = odd_signature(x)
    if coh_full is None:
        coh_full = cohomology(x.complex, tag="H(X)")
    _check_theta(theta)
    split = spectral_split(s, lam)
    det_gr = _graded_determinant(split, theta)
    return _small_element(split, x.complex, coh_full).scale(det_gr)


def _small_element(split: SpectralSplit, full: GradedComplex,
                   coh_full: Cohomology) -> DetLineElement:
    """rho_{[0,lambda]} pushed to Det H^*(full), kept on the split for the last
    (full, coh_full) pair, matched by identity."""
    pushed = split._pushed
    if pushed is None or pushed[0] is not full or pushed[1] is not coh_full:
        coh_small, elt = split.small_element
        pushed = split._pushed = (full, coh_full,
                                  _push_to_full(split.small, coh_small, full, coh_full, elt))
    return pushed[2]


@dataclass
class EtaXi:
    eta: complex
    xi: complex
    xi_hat: complex
    xi_prime: complex

    def det_gr_reconstruction(self) -> complex:
        return complex(np.exp(self.xi - 1j * np.pi * self.xi_prime
                              - 1j * np.pi * self.eta))


def eta_xi_finite(s: OddSignatureData, theta: float, lam: float = 0.0) -> EtaXi:
    """Finite-model eta and xi quantities of the (lambda, inf) part.

    Conventions (finite dimensions, zeta entire):
      zeta_{2theta}(0, A)  = number of nonzero eigenvalues,
      zeta'_{2theta}(0, A) = - sum of branch logs,
      xi  = 1/2 sum_k (-1)^k k zeta'_{2theta}(0, B^2|C^k),
      xi' = xi_hat = 1/2 sum_k (-1)^k k zeta_{2theta}(0, B^2|C^k),
      eta = (m+ - m-) / 2 over eigenvalues of B_even, where m+/m- count
      eigenvalues with arg in (theta, theta+pi) / (theta+pi, theta+2pi).
    These satisfy Det_gr = exp(xi - i pi xi' - i pi eta).
    """
    _check_theta(theta)
    split = spectral_split(s, lam)
    xi = 0.0 + 0.0j
    xi_prime = 0.0 + 0.0j
    for k, eigs in enumerate(split.eig_big_blocks):
        check_agmon(eigs, 2 * theta)
        zeta0 = len(eigs)
        zetap = -sum(log_branch(w, 2 * theta) for w in eigs)
        sign = -1 if k % 2 else 1
        xi += 0.5 * sign * k * zetap
        xi_prime += 0.5 * sign * k * zeta0
    eig_even = np.concatenate(split.pm_eigs)
    check_agmon(eig_even, theta)
    check_agmon(eig_even, theta + np.pi)
    mp = mm = 0
    for w in eig_even:
        ang = np.angle(w * np.exp(-1j * theta)) % (2 * np.pi)
        if ang < np.pi:
            mp += 1
        else:
            mm += 1
    eta = 0.5 * (mp - mm)
    return EtaXi(complex(eta), complex(xi), complex(xi_prime), complex(xi_prime))


def random_chirality_complex(rng: np.random.Generator, m: int,
                             max_dim: int = 4, acyclic: bool | None = None) -> ChiralityComplex:
    """Seeded random chirality complex with symmetric dimensions.

    acyclic=True forces trivial cohomology; None picks random consistent ranks.
    """
    if m % 2 == 0:
        raise StructuralError("m must be odd")
    r = (m + 1) // 2
    while True:
        half = [int(rng.integers(1, max_dim + 1)) for _ in range(r)]
        dims = tuple(half + half[::-1])
        # alternating-sum zero is automatic for mirrored dims (m odd); the
        # standard ranks must stay feasible
        ranks = acyclic_ranks(dims) if acyclic else None
        if not acyclic or ranks is not None:
            break
    c, _ = standard_complex(rng, dims, ranks)
    c = conjugate(c, random_isos(rng, dims, 0.35))
    gammas: list[np.ndarray] = [None] * (m + 1)  # type: ignore[list-item]
    hs: list[np.ndarray] = [None] * (m + 1)  # type: ignore[list-item]
    for k in range(r):
        gk = np.eye(dims[k], dtype=complex) \
            + 0.3 * (rng.standard_normal((dims[m - k], dims[k]))
                     + 1j * rng.standard_normal((dims[m - k], dims[k])))
        gammas[k] = gk
        gammas[m - k] = sla.inv(gk)
        a = rng.standard_normal((dims[k], dims[k])) \
            + 1j * rng.standard_normal((dims[k], dims[k]))
        hk = np.eye(dims[k]) + 0.25 * (a + a.conj().T) / 2 + 0.0j
        w = eigvalsh(hk)
        if np.min(w) < 0.1:
            hk += (0.1 - np.min(w) + 0.05) * np.eye(dims[k])
        hs[k] = hk
        gki = sla.inv(gk)
        hs[m - k] = gki.conj().T @ hk @ gki
    return ChiralityComplex(c, gammas, hs)


def admissible_lambdas(s: OddSignatureData, count: int = 3) -> list[float]:
    """Cut values separating clusters of |spec(B^2)|, including 0 when legal.

    Cuts above the top nonzero cluster are (k + 2) times its modulus, k being
    the number of cuts already chosen.  When spec(B^2) = {0} (for example a
    zero differential) there is no nonzero cluster and every positive cut is
    admissible; the same rule with the spectrum's scale max(1, max |eig|) = 1
    gives the cuts 2, 3, 4, ...
    """
    eigs = np.abs(s.all_b2_eigs())
    out = []
    if eigs.size == 0:
        return [0.0]
    eigs = np.sort(eigs)
    scale = max(1.0, float(eigs[-1]))
    zero_thr = ZERO_EIG_RTOL * scale
    if eigs[0] > zero_thr:
        out.append(0.0)
    nz = [float(v) for v in eigs if v > zero_thr]
    distinct = []
    for v in nz:
        if not distinct or v - distinct[-1] > 1e-6 * scale:
            distinct.append(v)
    for a, b in zip(distinct, distinct[1:]):
        out.append(float(np.sqrt(a * b)))
        if len(out) >= count:
            break
    top = distinct[-1] if distinct else scale
    while len(out) < count:
        out.append(float((len(out) + 2.0) * top))
    return out[:count]
