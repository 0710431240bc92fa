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

Each GradedComplex factors its differentials once.  Its differentials are
private read-only copies, proved finite once by as_cmatrix, and a memo that
lives and dies with the complex holds the composition defect, at most one
full SVD d_j = U S V^H per degree with the rank cut of its singular values,
and at most one LU certificate (below).  Everything else is a slice of an
SVD: for r = rank d_j, ker d_j is V[:, r:], im d_j is U[:, :r] and the row
space is V[:, :r].  complex_scale, verify_complex, cohomology,
canonical_iso, torsion_acyclic and the long exact sequence read that memo,
so no differential is factored or cut twice.  Slicing is safe: a slice
spans the same subspace as a thin SVD's vectors and differs from them only
by rounding, and torsion does not depend on the complement chosen.  The
SVDs, least-squares solves and norms are linalg's kernels (one LAPACK
routine call each, with a cached workspace); a differential reaches the SVD
routine with no second finiteness pass, and every other matrix a kernel gets
is checked once.

A two-term complex 0 -> C^j -d-> C^{j+1} -> 0 with d square needs no SVD
when d is safely invertible: it is acyclic and its torsion is
det(d)^{(-1)^j} (Milnor 1966; Turaev 2001, section 2).  _certified_det
takes det d from one LU and the inverse from the same LU, and keeps them only
when 2 ||d^-1||_F max(||d||_F, S) RANK_RTOL RANK_WARN_BAND < 1, S the
inherited scale.  Since sigma_min(d) >= 1 / ||d^-1||_F and sigma_max(d) <=
||d||_F, the SVD would then put every singular value above RANK_WARN_BAND
times its cut: full rank, no warning.  The factor 2 covers the rounding of
the computed inverse.  The bound is one-sided: an input it declines takes
the SVD path unchanged.

Every complex has one reference scale, complex_scale: its largest singular
value, or its parent's if it was restricted or sliced from another
(GradedComplex._derive; a submatrix of d, or U^H d V with U, V orthonormal,
has 2-norm at most ||d||).  Every rank is cut at RANK_RTOL times the larger
of the matrix's largest singular value and that scale, and the dd check reads
the inherited one, so the ranks behind cohomology, canonical_iso and the
class coordinates agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .linalg import (
    RANK_RTOL,
    RANK_WARN_BAND,
    DegeneracyError,
    StructuralError,
    _factor,
    _rank,
    as_cmatrix,
    complement_in_kernel,
    lstsq,
    norm,
    rank_svd,
)

TOL_COMPLEX = 1e-10


class NotAcyclicError(DegeneracyError):
    """The operation requires an acyclic complex."""


@dataclass
class GradedComplex:
    """Cochain complex of coordinate spaces; differentials[j]: C^j -> C^{j+1}.

    The differentials are held as a tuple of read-only arrays that the
    complex owns (a caller's complex128 array is copied, never frozen), so
    the factorisation memo cannot go stale.
    """

    dims: tuple[int, ...]
    differentials: tuple[np.ndarray, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in self.dims):
            raise StructuralError("negative dimension")
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise StructuralError(
                f"{len(self.dims)} degrees need {len(self.dims) - 1} differentials, "
                f"got {len(self.differentials)}"
            )
        self.differentials = tuple(
            _owned(as_cmatrix(d, rows=self.dims[j + 1], cols=self.dims[j]), d)
            for j, d in enumerate(self.differentials)
        )

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

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def composition_defect(self) -> float:
        """max_j ||d_{j+1} d_j|| / (1 + max(||d_{j+1}|| ||d_j||, S^2)), computed once; S
        is the scale inherited from a parent (_derive), 0 for a fresh complex."""
        def compute():
            # a float product, not **: a scale above 1e154 squares to inf
            scale = self._memo.get("derived_scale", 0.0)
            sq, worst = scale * scale, 0.0
            for a, b in zip(self.differentials[1:], self.differentials):
                if a.size and b.size:
                    den = 1.0 + max(norm(a) * norm(b), sq)
                    worst = max(worst, norm(a @ b) / den)
            return worst
        return self._cached("defect", compute)

    def _factored(self, j: int):
        """The full SVD (u, s, vh) of d_j, memoised per degree and read-only."""
        def compute():
            out = _factor(self.d(j))
            for a in out:
                a.flags.writeable = False
            return out
        return self._cached(("svd", j), compute)

    def _svd(self, j: int):
        """(u, vh, RankResult) of d_j from its memoised SVD, cut at this complex's
        scale; the RankResult is memoised beside the SVD."""
        u, s, vh = self._factored(j)
        return u, vh, self._cached(("rank", j), lambda: _rank(s, complex_scale(self)))

    def _image(self, a: np.ndarray) -> np.ndarray:
        """Orthonormal basis of im a, a map made from this complex's data, cut at its scale."""
        u, s, _ = _factor(as_cmatrix(a))
        return u[:, :_rank(s, complex_scale(self)).rank]

    def _derive(self, dims, differentials) -> "GradedComplex":
        """A complex restricted or sliced from this one: it keeps this complex's scale."""
        out = GradedComplex(dims, differentials)
        out._memo["derived_scale"] = complex_scale(self)
        return out

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


def _owned(m: np.ndarray, given) -> np.ndarray:
    """m made read-only, after a copy in m's own memory layout when m is (a view
    of) the caller's array."""
    if m is given or m.base is not None:
        m = m.copy(order="K")
    m.flags.writeable = False
    return m


def verify_complex(c: GradedComplex, tol: float = TOL_COMPLEX) -> bool:
    """True iff all compositions d_{j+1} d_j vanish within the relative tolerance."""
    return c.composition_defect() <= tol


def random_isos(rng: np.random.Generator, dims, scale: float = 0.4) -> list[np.ndarray]:
    """g_j = 1 + scale (X + iY) for each dimension, X and Y standard normal."""
    return [np.eye(n, dtype=complex)
            + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for n in dims]


def conjugate(c: GradedComplex, g) -> GradedComplex:
    """The complex g_{j+1} d_j g_j^-1 for isomorphisms g_j of c's degrees."""
    return GradedComplex(c.dims, [g[j + 1] @ c.d(j) @ sla.inv(g[j])
                                  for j in range(len(c.dims) - 1)])


def acyclic_ranks(dims) -> list[int] | None:
    """The ranks r_j = dims_j - r_{j-1} of an acyclic complex with these dimensions,
    or None when one is negative, exceeds dims_{j+1}, or the last is not 0."""
    ranks, prev = [], 0
    for j, n in enumerate(dims):
        rk = n - prev
        if rk < 0 or (j + 1 < len(dims) and rk > dims[j + 1]):
            return None
        ranks.append(rk)
        prev = rk
    return ranks if ranks[-1] == 0 else None


def standard_complex(rng: np.random.Generator, dims, ranks=None):
    """(complex, ranks): d_j of rank ranks[j] (drawn at random when ranks is None)
    in standard position, with nonzero entries 1 + U(0.2, 1)."""
    if ranks is None:
        ranks, prev = [], 0
        for j in range(len(dims)):
            hi = min(dims[j] - prev, dims[j + 1] if j + 1 < len(dims) else 0)
            ranks.append(int(rng.integers(0, hi + 1)) if hi > 0 else 0)
            prev = ranks[-1]
    diffs = []
    for j in range(len(dims) - 1):
        d = np.zeros((dims[j + 1], dims[j]), dtype=np.complex128)
        for i in range(ranks[j]):
            d[i, dims[j] - ranks[j] + i] = 1.0 + rng.uniform(0.2, 1.0)
        diffs.append(d)
    return GradedComplex(tuple(dims), diffs), ranks


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

    def grading(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, d) for j, d in enumerate(self.dims))


def complex_scale(c: GradedComplex) -> float:
    """The reference scale of c: its parent's when c was derived (GradedComplex._derive),
    else the largest singular value over its differentials, the largest memoised s[0]."""
    if "derived_scale" in c._memo:
        return c._memo["derived_scale"]
    s = [c._factored(j)[1] for j in range(len(c.differentials))]
    return float(max((v[0] for v in s if v.size), default=0.0))


def _require_complex(c: GradedComplex) -> None:
    """Raise StructuralError unless verify_complex(c), naming defect, threshold and scale."""
    if not verify_complex(c):
        raise StructuralError(
            f"not a complex: composition defect {c.composition_defect():.1e} "
            f"> {TOL_COMPLEX:.0e} (scale {complex_scale(c):.1e})")


def _certified_det(c: GradedComplex):
    """(j, det d_j) when d_j is the one nonzero differential, square and certified
    full rank with no warning by its LU; else None.  Memoised per complex.

    The certificate is 2 ||d^-1||_F max(||d||_F, inherited scale) RANK_RTOL
    RANK_WARN_BAND < 1 with d^-1 from the same LU (an rcond estimate only
    bounds ||d^-1|| from below, so it cannot certify).  A zero pivot, a zero or
    non-finite determinant and every other shape decline.
    """
    def compute():
        nonzero = [j for j, k in enumerate(c.dims) if k]
        if len(nonzero) != 2 or nonzero[1] != nonzero[0] + 1 or \
                c.dims[nonzero[0]] != c.dims[nonzero[1]]:
            return None
        j = nonzero[0]
        d = c.d(j)
        # LAPACK directly: info > 0 reports an exact zero pivot without a warning
        lu, piv, info = lapack.zgetrf(d)
        if info:
            return None
        det = complex(np.prod(np.diagonal(lu)))
        if np.count_nonzero(piv != np.arange(len(piv))) % 2:
            det = -det
        if det == 0 or not np.isfinite(det):
            return None
        inv, info = lapack.zgetri(lu, piv)
        scale = max(np.linalg.norm(d), c._memo.get("derived_scale", 0.0))
        if info or not 2.0 * np.linalg.norm(inv) * scale * RANK_RTOL * RANK_WARN_BAND < 1.0:
            return None
        return j, det
    return c._cached("lu", compute)


def _certified_coordinate(c: GradedComplex, coordinate: complex):
    """coordinate * det(d_j)^{(-1)^j}, the splitting assembly of a certified
    two-term complex (_certified_det), or None."""
    cert = _certified_det(c)
    if cert is None:
        return None
    j, det = cert
    return coordinate * det ** (1 if j % 2 == 0 else -1)


def cohomology(c: GradedComplex, tag: str = "auto") -> Cohomology:
    """dim H^j and explicit representatives spanning a complement of im d_{j-1} in ker d_j.

    Per degree, ker d_j and im d_{j-1} are slices of the memoised full SVDs of
    d_j and d_{j-1}, their ranks cut at the complex's scale so that
    numerically-zero differentials do not contribute rank; each SVD is computed
    on first use only, and canonical_iso and torsion_acyclic reuse it.  A
    two-term complex with a certified square d (_certified_det) is acyclic
    with no warning, which this returns without an SVD.
    """
    _require_complex(c)
    if _certified_det(c) is not None:
        return Cohomology((0,) * len(c.dims),
                          [np.zeros((k, 0), dtype=np.complex128) for k in c.dims], [], tag)
    dims, reps, warns = [], [], []
    for j in range(len(c.dims)):
        _, vh, rk_out = c._svd(j)
        u, _, rk_in = c._svd(j - 1)
        if rk_out.ill_conditioned or rk_in.ill_conditioned:
            warns.append(f"ill-conditioned rank decision at degree {j}")
        hdim = c.dims[j] - rk_out.rank - rk_in.rank
        if hdim < 0:
            raise DegeneracyError(f"negative cohomology dimension at degree {j}")
        ker = vh[rk_out.rank:, :].conj().T
        img = u[:, :rk_in.rank]
        comp, ill = complement_in_kernel(ker, img)
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


def torsion_acyclic(c: GradedComplex, complements="auto") -> DetLineElement:
    """Torsion of an acyclic complex: the image of the standard-basis element of
    Det(C^*) under the canonical identification with Det(H^*) = C.

    The coordinate is prod_j det([d V_{j-1} | V_j])^{(-1)^{j+1}}, independent of
    the complement choice V_j.  "auto" picks V_j = the row space of d_j (the
    orthogonal complement of ker d_j); the assembly is canonical_iso's, or
    det(d_j)^{(-1)^j} from the LU of a certified two-term complex.
    """
    coh = cohomology(c)
    if any(coh.dims):
        raise NotAcyclicError(f"complex is not acyclic: dim H = {coh.dims}")
    grading = tuple((j, 0) for j in range(len(c.dims)))
    if complements == "auto":
        coord = _certified_coordinate(c, 1.0 + 0.0j)
        if coord is not None:
            return DetLineElement(coord, "scalar", grading)
        v, _ = _row_spaces(c)
    elif len(complements) != len(c.dims):
        raise StructuralError("need one complement block per degree")
    else:
        v = [as_cmatrix(b, rows=c.dims[j]) if np.size(b) else
             np.zeros((c.dims[j], 0), complex) for j, b in enumerate(complements)]
    coord = _assemble(c, coh.representatives, v, 1.0 + 0.0j)
    return DetLineElement(coord, "scalar", grading)


def _row_spaces(c: GradedComplex) -> tuple[list[np.ndarray], list[int]]:
    """Per degree, the row space of d_j (orthonormal columns) and rank d_j."""
    v, ranks = [], []
    for j in range(len(c.dims)):
        _, vh, rk = c._svd(j)
        v.append(vh[:rk.rank, :].conj().T)
        ranks.append(rk.rank)
    return v, ranks


def canonical_iso(c: GradedComplex, coh: Cohomology | None = None,
                  coordinate: complex = 1.0) -> DetLineElement:
    """Push coordinate * (standard-basis element of Det C^*) to Det(H^*).

    Splitting construction: C^j = d V_{j-1} (+) H_j (+) V_j with H_j the given
    cohomology representatives and V_j the row space of d_j; the coordinate
    picks up prod_j det([d V_{j-1} | H_j | V_j])^{(-1)^{j+1}}.  The memoised
    full SVD of each d_j gives V_j and rank d_j, and the ranks fix the dims
    coh must have.  Those SVDs and the composition defect come from the
    complex's memo, so after cohomology(c) this decomposes nothing.  On
    acyclic input this equals torsion_acyclic, whose assembly it shares, and
    a certified two-term complex (_certified_det) takes the LU determinant.
    """
    _require_complex(c)
    if coh is None or coh.dims == (0,) * len(c.dims):
        coord = _certified_coordinate(c, complex(coordinate))
        if coord is not None:
            coh = coh if coh is not None else cohomology(c)
            return DetLineElement(coord, coh.tag, coh.grading())
    v, ranks = _row_spaces(c)
    if coh is None:
        coh = cohomology(c)
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
    """0 -> A -i-> B -p-> C -> 0 of cochain complexes, maps given per degree.

    Validated when it is made: the constructor raises unless it is exact.
    """

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
        self.validate()

    def validate(self) -> None:
        """Exactness: chain maps, pi o iota = 0, rank iota_j + rank pi_j = dim B_j."""
        tol = 1e-9
        for j in range(len(self.b.dims) - 1):
            r1 = self.iota[j + 1] @ self.a.d(j) - self.b.d(j) @ self.iota[j]
            r2 = self.pi[j + 1] @ self.b.d(j) - self.c.d(j) @ self.pi[j]
            if (r1.size and norm(r1) > tol) or (r2.size and norm(r2) > tol):
                raise StructuralError(f"iota/pi are not chain maps at degree {j}")
        for j in range(len(self.b.dims)):
            comp = self.pi[j] @ self.iota[j]
            if comp.size and norm(comp) > tol:
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
    standard bases this is the wedge-concatenated element, sign +1.  The
    sequence was validated when it was made.
    """
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


def cone(f: list[np.ndarray], src: GradedComplex, tgt: GradedComplex) -> GradedComplex:
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
        r = f[j + 1] @ src.d(j) - tgt.d(j) @ f[j]
        scale = 1.0 + max(norm(f[j]), 1.0) * max(norm(src.d(j)), norm(tgt.d(j)), 1.0)
        if r.size and norm(r) / scale > TOL_COMPLEX:
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
            blk[ms:, :ls] = f[j]
        if mt and lt:
            blk[ms:, ls:] = -tgt.d(j - 1)
        diffs.append(blk)
    out = GradedComplex(dims, diffs)
    if not verify_complex(out):
        raise StructuralError("cone differential does not square to zero")
    return out


def _class_coordinates(c: GradedComplex, coh: Cohomology, j: int,
                       vectors: np.ndarray) -> np.ndarray:
    """Coordinates of cocycles (columns) in the degree-j cohomology basis; im d_{j-1}
    is cut at the floor cohomology uses."""
    if coh.dims[j] == 0 or vectors.shape[1] == 0:
        return np.zeros((coh.dims[j], vectors.shape[1]), dtype=np.complex128)
    u, _, rk = c._svd(j - 1)
    img = u[:, :rk.rank]
    basis = np.hstack([coh.representatives[j], img]) if img.shape[1] else coh.representatives[j]
    sol = lstsq(basis, vectors)
    recon = basis @ sol
    if norm(recon - vectors) > 1e-8 * max(1.0, norm(vectors)):
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
    """Long exact cohomology sequence and the induced determinant-line map Phi
    of a sequence, which was validated when it was made."""
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
                if norm(back - dbl) > 1e-8 * max(1.0, norm(dbl)):
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
