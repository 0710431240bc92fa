"""Finite cochain complexes over C and their determinant-line calculus.

A GradedComplex is a finite sequence C^0 -> C^1 -> ... -> C^m of coordinate
spaces with matrix differentials.  On top of it this module provides:

* cohomology with explicit representatives (SVD rank decisions),
* the torsion of an acyclic complex as a determinant-line coordinate,
* the canonical map Det(C^*) -> Det(H^*) ("canonical_iso"),
* the fusion map Det(A^*) (x) Det(C^*) -> Det(B^*) of a short exact sequence,
* mapping cones,
* the long exact cohomology sequence of a short exact sequence together with
  the induced isomorphism Phi on determinant lines.

Conventions (fixed here, used everywhere else):

* the torsion of an acyclic complex with chosen complements V_j is
      tau = prod_j det(T_j)^{(-1)^{j+1}},   T_j = [ d V_{j-1} | V_j ]
  in the standard basis of C^j; the overall sign normalization N(C^*) is the
  zero function.  With this convention the two-term complex 0 -> C -a-> C -> 0
  has torsion a.
* determinant lines are Det(H^*) = (x)_j (det H^j)^{(-1)^j}; rescaling the
  degree-j basis by M multiplies coordinates of elements by det(M)^{(-1)^{j+1}}.
* every coordinate is relative to a declared basis_tag; mixing tags raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .linalg import (
    RANK_RTOL,
    DegeneracyError,
    StructuralError,
    _svd,
    as_cmatrix,
    col_space,
    complement_in_kernel,
    rank_svd,
    row_space,
)

TOL_COMPLEX = 1e-10


class NotAcyclicError(DegeneracyError):
    """The operation requires an acyclic complex."""


@dataclass
class GradedComplex:
    """Cochain complex of coordinate spaces; differentials[j]: C^j -> C^{j+1}."""

    dims: tuple[int, ...]
    differentials: list[np.ndarray]

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in self.dims):
            raise StructuralError("negative dimension")
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise StructuralError(
                f"{len(self.dims)} degrees need {len(self.dims) - 1} differentials, "
                f"got {len(self.differentials)}"
            )
        self.differentials = [
            as_cmatrix(d, rows=self.dims[j + 1], cols=self.dims[j])
            for j, d in enumerate(self.differentials)
        ]

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def d(self, j: int) -> np.ndarray:
        """Differential out of degree j (zero map at the ends)."""
        if 0 <= j < len(self.differentials):
            return self.differentials[j]
        lo = self.dims[j] if 0 <= j <= self.top_degree else 0
        hi = self.dims[j + 1] if 0 <= j + 1 <= self.top_degree else 0
        return np.zeros((hi, lo), dtype=np.complex128)

    def composition_defect(self) -> float:
        """max_j ||d_{j+1} d_j|| relative to 1 + ||d_{j+1}|| ||d_j||."""
        worst = 0.0
        for j in range(len(self.differentials) - 1):
            a, b = self.differentials[j + 1], self.differentials[j]
            num = sla.norm(a @ b) if a.size and b.size else 0.0
            den = 1.0 + sla.norm(a) * sla.norm(b) if a.size and b.size else 1.0
            worst = max(worst, num / den)
        return worst

    def direct_sum(self, other: "GradedComplex") -> "GradedComplex":
        n = max(len(self.dims), len(other.dims))
        dims = tuple(
            (self.dims[j] if j < len(self.dims) else 0)
            + (other.dims[j] if j < len(other.dims) else 0)
            for j in range(n)
        )
        diffs = []
        for j in range(n - 1):
            a = self.d(j) if j < len(self.dims) else np.zeros((0, 0), complex)
            b = other.d(j) if j < len(other.dims) else np.zeros((0, 0), complex)
            diffs.append(sla.block_diag(a, b) if (a.size or b.size) else
                         np.zeros((dims[j + 1], dims[j]), complex))
        return GradedComplex(dims, diffs)


def verify_complex(c: GradedComplex, tol: float = TOL_COMPLEX) -> bool:
    """True iff all compositions d_{j+1} d_j vanish within the relative tolerance."""
    return c.composition_defect() <= tol


@dataclass(frozen=True)
class DetLineElement:
    """A coordinate in a determinant line relative to a declared basis tuple."""

    coordinate: complex
    basis_tag: str
    grading: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.coordinate == 0:
            raise DegeneracyError(f"zero determinant-line element (tag {self.basis_tag!r})")

    def scale(self, z: complex) -> "DetLineElement":
        return DetLineElement(self.coordinate * complex(z), self.basis_tag, self.grading)

    def tensor(self, other: "DetLineElement") -> "DetLineElement":
        return DetLineElement(
            self.coordinate * other.coordinate,
            f"{self.basis_tag}(x){other.basis_tag}",
            self.grading + other.grading,
        )

    def inverse(self) -> "DetLineElement":
        return DetLineElement(1.0 / self.coordinate, f"{self.basis_tag}^-1", self.grading)

    def ratio(self, other: "DetLineElement") -> complex:
        if self.basis_tag != other.basis_tag or self.grading != other.grading:
            raise StructuralError(
                f"cannot compare elements on different lines: "
                f"{self.basis_tag!r} vs {other.basis_tag!r}"
            )
        return self.coordinate / other.coordinate


@dataclass
class Cohomology:
    """Per-degree cohomology data of a GradedComplex."""

    dims: tuple[int, ...]
    representatives: list[np.ndarray]  # columns are cocycle representatives in C^j
    warnings: list[str]
    tag: str = "auto"

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def grading(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, d) for j, d in enumerate(self.dims))


def complex_scale(c: GradedComplex) -> float:
    """Largest singular value over all differentials (spectral scale of the complex)."""
    out = 0.0
    for d in c.differentials:
        if d.size:
            out = max(out, float(sla.norm(d, 2)))
    return out


def cohomology(c: GradedComplex, rtol: float = RANK_RTOL, tag: str = "auto") -> Cohomology:
    """dim H^j and explicit representatives spanning a complement of im d_{j-1} in ker d_j.

    Rank decisions use the spectral scale of the whole complex as an absolute
    floor so that numerically-zero differentials do not contribute rank.  Per
    degree, one SVD of d_j gives ker d_j and its rank, one SVD of d_{j-1}
    gives im d_{j-1} and its rank.
    """
    if not verify_complex(c):
        raise StructuralError(f"not a complex: composition defect {c.composition_defect():.3e}")
    floor = complex_scale(c)
    dims, reps, warns = [], [], []
    for j in range(len(c.dims)):
        _, vh, rk_out = _svd(c.d(j), rtol, floor, full_matrices=True)
        u, _, rk_in = _svd(c.d(j - 1), rtol, floor, full_matrices=False)
        if rk_out.ill_conditioned or rk_in.ill_conditioned:
            warns.append(f"ill-conditioned rank decision at degree {j}")
        hdim = c.dims[j] - rk_out.rank - rk_in.rank
        if hdim < 0:
            raise DegeneracyError(f"negative cohomology dimension at degree {j}")
        ker = vh[rk_out.rank:, :].conj().T
        img = u[:, :rk_in.rank]
        comp, ill = complement_in_kernel(ker, img, rtol)
        if ill:
            warns.append(f"ill-conditioned complement at degree {j}")
        if comp.shape[1] != hdim:
            raise DegeneracyError(
                f"rank bookkeeping inconsistent at degree {j}: "
                f"complement {comp.shape[1]} vs expected {hdim}"
            )
        dims.append(hdim)
        reps.append(comp)
    return Cohomology(tuple(dims), reps, warns, tag)


def _assemble(c: GradedComplex, h: list[np.ndarray], v: list[np.ndarray],
              coord: complex) -> complex:
    """coord * prod_j det([d V_{j-1} | H_j | V_j])^{(-1)^{j+1}} in the standard bases.

    h[j] holds cohomology representatives (no columns on acyclic input), v[j]
    complements of ker d_j.  The one determinant-assembly loop behind both
    torsion_acyclic and canonical_iso.
    """
    for j, k in enumerate(c.dims):
        if k == 0:
            if v[j].shape[1]:
                raise StructuralError(f"nonempty complement in zero space at degree {j}")
            continue
        cols = []
        if j > 0 and v[j - 1].shape[1]:
            cols.append(c.d(j - 1) @ v[j - 1])
        if h[j].shape[1]:
            cols.append(as_cmatrix(h[j], rows=k))
        if v[j].shape[1]:
            cols.append(v[j])
        t = np.hstack(cols) if cols else np.zeros((k, 0), complex)
        if t.shape != (k, k):
            raise DegeneracyError(
                f"assembled basis at degree {j} has shape {t.shape}, expected ({k},{k})"
            )
        det = sla.det(t)
        if det == 0 or not np.isfinite(det):
            raise DegeneracyError(f"singular basis change at degree {j}")
        coord *= det ** (-1 if j % 2 == 0 else 1)
    return coord


def torsion_acyclic(c: GradedComplex, complements="auto",
                    rtol: float = RANK_RTOL) -> DetLineElement:
    """Torsion of an acyclic complex: the image of the standard-basis element of
    Det(C^*) under the canonical identification with Det(H^*) = C.

    The coordinate is prod_j det([d V_{j-1} | V_j])^{(-1)^{j+1}}, independent of
    the complement choice V_j.  "auto" picks V_j = the row space of d_j (the
    orthogonal complement of ker d_j); the assembly is canonical_iso's.
    """
    coh = cohomology(c, rtol)
    if any(coh.dims):
        raise NotAcyclicError(f"complex is not acyclic: dim H = {coh.dims}")
    if complements == "auto":
        floor = complex_scale(c)
        v = [row_space(c.d(j), rtol, floor) for j in range(len(c.dims))]
    elif len(complements) != len(c.dims):
        raise StructuralError("need one complement block per degree")
    else:
        v = [as_cmatrix(b, rows=c.dims[j]) if np.size(b) else
             np.zeros((c.dims[j], 0), complex) for j, b in enumerate(complements)]
    coord = _assemble(c, coh.representatives, v, 1.0 + 0.0j)
    return DetLineElement(coord, "scalar", tuple((j, 0) for j in range(len(c.dims))))


def canonical_iso(c: GradedComplex, coh: Cohomology | None = None,
                  coordinate: complex = 1.0,
                  rtol: float = RANK_RTOL) -> DetLineElement:
    """Push coordinate * (standard-basis element of Det C^*) to Det(H^*).

    Splitting construction: C^j = d V_{j-1} (+) H_j (+) V_j with H_j the given
    cohomology representatives and V_j the row space of d_j; the coordinate
    picks up prod_j det([d V_{j-1} | H_j | V_j])^{(-1)^{j+1}}.  One SVD per
    degree gives V_j and rank d_j, and the ranks fix the dims coh must have.
    On acyclic input this equals torsion_acyclic, whose assembly it shares.
    """
    if not verify_complex(c):
        raise StructuralError(f"not a complex: composition defect {c.composition_defect():.3e}")
    floor = complex_scale(c)
    v, ranks = [], []
    for j in range(len(c.dims)):
        _, vh, rk = _svd(c.d(j), rtol, floor, full_matrices=False)
        v.append(vh[:rk.rank, :].conj().T)
        ranks.append(rk.rank)
    if coh is None:
        coh = cohomology(c, rtol)
    hdims = tuple(k - r - (ranks[j - 1] if j else 0)
                  for j, (k, r) in enumerate(zip(c.dims, ranks)))
    if min(hdims, default=0) < 0:
        raise DegeneracyError(
            f"negative cohomology dimension at degree {hdims.index(min(hdims))}")
    if coh.dims != hdims:
        raise StructuralError("cohomology bases inconsistent with the complex")
    coord = _assemble(c, coh.representatives, v, complex(coordinate))
    return DetLineElement(coord, coh.tag, coh.grading())


@dataclass
class ShortExactSequenceData:
    """0 -> A -i-> B -p-> C -> 0 of cochain complexes, maps given per degree."""

    a: GradedComplex
    b: GradedComplex
    c: GradedComplex
    iota: list[np.ndarray]
    pi: list[np.ndarray]

    def __post_init__(self):
        n = len(self.b.dims)
        if len(self.a.dims) != n or len(self.c.dims) != n:
            raise StructuralError("A, B, C must share the degree range")
        if len(self.iota) != n or len(self.pi) != n:
            raise StructuralError("need one iota and one pi per degree")
        self.iota = [as_cmatrix(m, rows=self.b.dims[j], cols=self.a.dims[j])
                     for j, m in enumerate(self.iota)]
        self.pi = [as_cmatrix(m, rows=self.c.dims[j], cols=self.b.dims[j])
                   for j, m in enumerate(self.pi)]

    def validate(self, tol: float = 1e-9) -> None:
        """Exactness: chain maps, pi o iota = 0, rank iota_j + rank pi_j = dim B_j."""
        for j in range(len(self.b.dims) - 1):
            r1 = self.iota[j + 1] @ self.a.d(j) - self.b.d(j) @ self.iota[j]
            r2 = self.pi[j + 1] @ self.b.d(j) - self.c.d(j) @ self.pi[j]
            if (r1.size and sla.norm(r1) > tol) or (r2.size and sla.norm(r2) > tol):
                raise StructuralError(f"iota/pi are not chain maps at degree {j}")
        for j in range(len(self.b.dims)):
            comp = self.pi[j] @ self.iota[j]
            if comp.size and sla.norm(comp) > tol:
                raise StructuralError(f"pi o iota != 0 at degree {j}")
            ri = rank_svd(self.iota[j]).rank
            rp = rank_svd(self.pi[j]).rank
            if ri != self.a.dims[j] or rp != self.c.dims[j]:
                raise StructuralError(f"iota not injective or pi not surjective at degree {j}")
            if ri + rp != self.b.dims[j]:
                raise StructuralError(
                    f"exactness fails at degree {j}: rank {ri} + {rp} != {self.b.dims[j]}"
                )


def fusion(a: DetLineElement, c: DetLineElement,
           ses: ShortExactSequenceData) -> DetLineElement:
    """Fusion Det(A^*) (x) Det(C^*) -> Det(B^*) on standard-basis coordinates.

    Degree by degree the standard element of det A_j (x) det C_j goes to
    det([iota_j | lift_j]) times the standard element of det B_j, with lift_j
    any right inverse of pi_j (the determinant does not depend on the lift);
    degrees are assembled with exponents (-1)^j.  For the split sequence with
    standard bases this is the wedge-concatenated element, sign +1.
    """
    ses.validate()
    coord = a.coordinate * c.coordinate
    for j in range(len(ses.b.dims)):
        k = ses.b.dims[j]
        if k == 0:
            continue
        lift = sla.pinv(ses.pi[j]) if ses.c.dims[j] else np.zeros((k, 0), complex)
        t = np.hstack([ses.iota[j], lift]) if ses.a.dims[j] else lift
        if t.shape != (k, k):
            raise StructuralError(f"fusion block at degree {j} is not square")
        det = sla.det(t)
        if det == 0 or not np.isfinite(det):
            raise DegeneracyError(f"degenerate fusion block at degree {j}")
        coord *= det ** (1 if j % 2 == 0 else -1)
    grading = tuple((j, d) for j, d in enumerate(ses.b.dims))
    return DetLineElement(coord, f"fused[{a.basis_tag};{c.basis_tag}]", grading)


def cone(f: list[np.ndarray], src: GradedComplex, tgt: GradedComplex,
         tol: float = TOL_COMPLEX) -> GradedComplex:
    """Mapping cone of a chain map f: src -> tgt.

    Cone^j = src^j (+) tgt^{j-1} with differential blocks
    [[d_src, 0], [f, -d_tgt]]; the minus sign is the usual shift convention and
    makes the cone a complex.  Acyclic iff f is a quasi-isomorphism.
    """
    ns, nt = len(src.dims), len(tgt.dims)
    if len(f) != ns:
        raise StructuralError("need one block of f per source degree")
    f = [as_cmatrix(m, rows=(tgt.dims[j] if j < nt else 0), cols=src.dims[j])
         for j, m in enumerate(f)]
    for j in range(ns - 1):
        fd = f[j + 1] @ src.d(j) if j + 1 < ns else np.zeros((0, src.dims[j]), complex)
        df = tgt.d(j) @ f[j]
        r = fd - df
        scale = 1.0 + max(sla.norm(f[j]), 1.0) * max(sla.norm(src.d(j)), sla.norm(tgt.d(j)), 1.0)
        if r.size and sla.norm(r) / scale > tol:
            raise StructuralError(f"f is not a chain map at degree {j}")
    n = max(ns, nt + 1)
    dims = tuple((src.dims[j] if j < ns else 0) + (tgt.dims[j - 1] if 0 <= j - 1 < nt else 0)
                 for j in range(n))
    diffs = []
    for j in range(n - 1):
        ls, lt = (src.dims[j] if j < ns else 0), (tgt.dims[j - 1] if 0 <= j - 1 < nt else 0)
        ms, mt = (src.dims[j + 1] if j + 1 < ns else 0), (tgt.dims[j] if j < nt else 0)
        blk = np.zeros((ms + mt, ls + lt), dtype=np.complex128)
        if ms and ls:
            blk[:ms, :ls] = src.d(j)
        if mt and ls:
            blk[ms:, :ls] = f[j] if j < ns else 0.0
        if mt and lt:
            blk[ms:, ls:] = -tgt.d(j - 1)
        diffs.append(blk)
    out = GradedComplex(dims, diffs)
    if not verify_complex(out, tol):
        raise StructuralError("cone differential does not square to zero")
    return out


def _class_coordinates(c: GradedComplex, coh: Cohomology, j: int,
                       vectors: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Coordinates of cocycles (columns) in the degree-j cohomology basis."""
    k = c.dims[j]
    if coh.dims[j] == 0 or vectors.shape[1] == 0:
        return np.zeros((coh.dims[j], vectors.shape[1]), dtype=np.complex128)
    img = col_space(c.d(j - 1)) if j > 0 else np.zeros((k, 0), complex)
    basis = np.hstack([coh.representatives[j], img]) if img.shape[1] else coh.representatives[j]
    sol, _, _, _ = sla.lstsq(basis, vectors)
    recon = basis @ sol
    if sla.norm(recon - vectors) > tol * max(1.0, sla.norm(vectors)):
        raise DegeneracyError(f"vector is not a cocycle class at degree {j}")
    return sol[: coh.dims[j], :]


@dataclass
class LesResult:
    """Long exact cohomology sequence of a short exact sequence.

    les is the acyclic complex ... -> H^j(A) -> H^j(B) -> H^j(C) -> H^{j+1}(A) -> ...
    laid out in consecutive degrees 3j, 3j+1, 3j+2; torsion is its torsion in
    the chosen cohomology bases.  phi realizes the induced isomorphism
    Det(H^*A) (x) Det(H^*C) -> Det(H^*B): on coordinates (a, c) relative to the
    A/C bases it returns a DetLineElement with coordinate a*c*torsion relative
    to the B basis.  This normalization makes phi the plain transport along
    the induced cohomology isomorphisms when C (or A) vanishes, and more
    generally whenever the connecting maps vanish.
    """

    les: GradedComplex
    torsion: complex
    coh_a: Cohomology
    coh_b: Cohomology
    coh_c: Cohomology

    def phi(self, a: DetLineElement, c: DetLineElement) -> DetLineElement:
        if a.basis_tag != self.coh_a.tag or c.basis_tag != self.coh_c.tag:
            raise StructuralError("phi arguments carry unexpected basis tags")
        coord = a.coordinate * c.coordinate * self.torsion
        return DetLineElement(coord, self.coh_b.tag, self.coh_b.grading())


def les_of_ses(ses: ShortExactSequenceData,
               coh_a: Cohomology | None = None,
               coh_b: Cohomology | None = None,
               coh_c: Cohomology | None = None) -> LesResult:
    """Long exact cohomology sequence and the induced determinant-line map Phi."""
    ses.validate()
    coh_a = coh_a or cohomology(ses.a, tag="H(A)")
    coh_b = coh_b or cohomology(ses.b, tag="H(B)")
    coh_c = coh_c or cohomology(ses.c, tag="H(C)")
    n = len(ses.b.dims)

    dims = []
    for j in range(n):
        dims.extend([coh_a.dims[j], coh_b.dims[j], coh_c.dims[j]])
    maps: list[np.ndarray] = []
    for j in range(n):
        # H^j(A) -> H^j(B) induced by iota
        va = ses.iota[j] @ coh_a.representatives[j] if coh_a.dims[j] else \
            np.zeros((ses.b.dims[j], 0), complex)
        maps.append(_class_coordinates(ses.b, coh_b, j, va))
        # H^j(B) -> H^j(C) induced by pi
        vb = ses.pi[j] @ coh_b.representatives[j] if coh_b.dims[j] else \
            np.zeros((ses.c.dims[j], 0), complex)
        maps.append(_class_coordinates(ses.c, coh_c, j, vb))
        # connecting map H^j(C) -> H^{j+1}(A)
        if j + 1 < n:
            if coh_c.dims[j]:
                lift = sla.pinv(ses.pi[j]) @ coh_c.representatives[j]
                dbl = ses.b.d(j) @ lift
                apre = sla.pinv(ses.iota[j + 1]) @ dbl
                back = ses.iota[j + 1] @ apre
                if sla.norm(back - dbl) > 1e-8 * max(1.0, sla.norm(dbl)):
                    raise DegeneracyError(
                        f"connecting map leaves the image of iota at degree {j}"
                    )
                maps.append(_class_coordinates(ses.a, coh_a, j + 1, apre))
            else:
                maps.append(np.zeros((coh_a.dims[j + 1], 0), dtype=np.complex128))
    les = GradedComplex(tuple(dims), maps)
    if not verify_complex(les, 1e-8):
        raise DegeneracyError("long exact sequence does not compose to zero")
    tau = torsion_acyclic(les).coordinate
    return LesResult(les, tau, coh_a, coh_b, coh_c)
