"""Complex linear algebra kernel: tolerant ranks, subspace bases, spectral projectors.

Everything here works on plain complex128 numpy arrays.  Rank decisions use
singular-value thresholding with a relative tolerance and report a warning
band.  A matrix is factored once, by one full SVD (``_factor``): its kernel,
image and row space are slices of it, and its rank is cut at RANK_RTOL times
the larger of its largest singular value and the scale of the complex it
comes from (``_rank``, chain.complex_scale).  The one exception is the
square differential of a two-term complex: chain._certified_det takes its
determinant from one LU and skips the SVD only when the LU's own inverse
bounds every singular value above RANK_WARN_BAND times that cut, so the
decision is the one the SVD would make, with no warning.  The spectral
splitting of a (possibly non-normal) matrix comes from its complex Schur
form, never from raw eigenvectors.  The form is made once; each cut reorders
it (``_reorder``) and solves one triangular Sylvester equation, which gives
orthonormal bases of both invariant subspaces and the rejected eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

RANK_RTOL = 1e-8          # relative singular-value threshold
RANK_WARN_BAND = 10.0     # singular values within 10x of the cut are suspicious
AGMON_ANGLE_TOL = 1e-6    # minimum angular distance of spectrum to a branch ray


class StructuralError(ValueError):
    """Shape/tag/schema violations: the input is malformed, not degenerate."""


class DegeneracyError(ArithmeticError):
    """Numerically degenerate input: singular change of basis, bad rank, ..."""


class SpectralGapError(DegeneracyError):
    """A spectral cut parameter sits too close to an eigenvalue."""


class AgmonError(DegeneracyError):
    """An eigenvalue sits on (or too close to) the chosen branch ray."""


def as_cmatrix(a, rows=None, cols=None) -> np.ndarray:
    """Coerce to a finite 2-D complex array, optionally checking its shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise StructuralError(f"expected a matrix, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise StructuralError("matrix has non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise StructuralError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise StructuralError(f"expected {cols} columns, got {m.shape[1]}")
    return m


@dataclass
class RankResult:
    rank: int
    threshold: float
    singular_values: np.ndarray
    ill_conditioned: bool


def _rank(s: np.ndarray, floor: float) -> RankResult:
    """Threshold the singular values s (descending) at RANK_RTOL * max(s[0], floor)."""
    smax = s[0] if len(s) else 0.0
    if max(smax, floor) == 0.0:
        return RankResult(0, 0.0, s, False)
    thr = RANK_RTOL * max(smax, floor)
    rank = int(np.sum(s > thr))
    near = np.sum((s > thr / RANK_WARN_BAND) & (s <= thr * RANK_WARN_BAND))
    return RankResult(rank, thr, s, bool(near))


def rank_svd(a: np.ndarray) -> RankResult:
    """Rank of a matrix that belongs to no complex: its singular values above RANK_RTOL *
    sigma_max; ill-conditioned when one lies within RANK_WARN_BAND of that cut."""
    a = as_cmatrix(a)
    if a.size == 0:
        return RankResult(0, 0.0, np.zeros(0), False)
    return _rank(sla.svdvals(a), 0.0)


def _factor(a: np.ndarray):
    """The full SVD a = u diag(s) vh as (u, s, vh), with u and vh square.

    For rank r, ker a = vh[r:]^H, im a = u[:, :r] and the row space is
    vh[:r]^H.  An empty or all-zero matrix skips LAPACK: s is zero and u, vh
    are identities, so the kernel is the whole source space.
    """
    a = as_cmatrix(a)
    m, n = a.shape
    if a.size == 0 or not np.any(a):
        return (np.eye(m, dtype=np.complex128), np.zeros(min(m, n)),
                np.eye(n, dtype=np.complex128))
    return sla.svd(a)


def complement_in_kernel(ker: np.ndarray, img: np.ndarray) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the orthogonal complement of span(img) inside span(ker).

    Both inputs are orthonormal column bases; span(img) is assumed (close to)
    contained in span(ker).  Returns (basis, ill_conditioned_flag).
    """
    if ker.shape[1] == 0:
        return ker, False
    proj = ker - img @ (img.conj().T @ ker) if img.shape[1] else ker
    # the Frobenius norm bounds every singular value: at or below 1e-9 none
    # reaches the 1e-8 warning floor, and the SVD would keep no column
    if np.linalg.norm(proj) <= 1e-9:
        return np.zeros((ker.shape[0], 0), dtype=np.complex128), False
    u, s, _ = _factor(proj)
    # singular values of the projected frame are ~1 on the complement, ~0 on img
    ill = bool(np.any((s > 1e-8) & (s <= 0.5)))
    return u[:, :int(np.sum(s > 0.5))], ill


def h_adjoint(a: np.ndarray, h_src: np.ndarray, h_tgt: np.ndarray) -> np.ndarray:
    """Adjoint of a: (V,h_src) -> (W,h_tgt) with respect to the inner products.

    <a x, y>_tgt = <x, a^* y>_src gives a^* = h_src^{-1} a^H h_tgt.
    """
    return sla.solve(h_src, a.conj().T @ h_tgt, assume_a="pos")


def _reorder(t: np.ndarray, z: np.ndarray, select):
    """(t, z, k): the complex Schur form (t, z) with the k eigenvalues select() picks leading.

    zgees sorts its unsorted form by this same ztrsen call, so the bits are
    those of sla.schur(a, output="complex", sort=select).
    """
    flags = np.array([bool(select(complex(w))) for w in np.diagonal(t)], dtype=np.int32)
    k = int(flags.sum())
    if 0 < k < t.shape[0]:
        t, z, _, _, _, _, info = lapack.ztrsen(flags, t, z, job="N")
        if info:
            raise DegeneracyError("Schur reordering failed: eigenvalues too close to swap")
    return t, z, k


def spectral_projector(t: np.ndarray, z: np.ndarray, select):
    """Spectral splitting of a = Z T Z^H, (t, z) its complex Schur form, at select().

    The form is reordered so that the k eigenvalues select() picks lead, and
    T11 X - X T22 = -T12 is solved (ztrsyl), so defective matrices are fine.
    Returns (small, big, big_eigs): small = Z[:, :k] is an orthonormal basis
    of the selected invariant subspace, big one of the complementary one (a
    reduced QR of Z[:, :k] X + Z[:, k:], on which a acts as T22) and big_eigs
    = diag(T22).  The projector [small 0] [small big]^{-1} is not formed.
    """
    t, z, k = _reorder(t, z, select)
    big_eigs = np.diagonal(t)[k:].copy()
    if k == 0 or k == t.shape[0]:
        return z[:, :k], z[:, k:], big_eigs
    x, scale, _ = lapack.ztrsyl(t[:k, :k], t[k:, k:], -t[:k, k:], isgn=-1)
    big, _ = np.linalg.qr(z[:, :k] @ (x / scale) + z[:, k:], mode="reduced")
    return z[:, :k], big, big_eigs


def check_agmon(eigs: np.ndarray, theta: float) -> None:
    """Raise AgmonError if a nonzero eigenvalue lies within AGMON_ANGLE_TOL of the ray arg=theta."""
    eigs = np.asarray(eigs, dtype=np.complex128).ravel()
    nz = eigs[np.abs(eigs) > 0]
    bad = nz[np.abs(np.angle(nz * np.exp(-1j * theta))) < AGMON_ANGLE_TOL]
    if bad.size:
        raise AgmonError(f"eigenvalue {bad[0]} within {AGMON_ANGLE_TOL} rad of the ray arg={theta}")


def log_branch(w: complex, theta: float) -> complex:
    """log_theta(w): branch of the logarithm with arg(w) in (theta, theta + 2*pi)."""
    if w == 0:
        raise DegeneracyError("log of zero")
    ang = np.angle(w)
    while ang <= theta:
        ang += 2 * np.pi
    while ang > theta + 2 * np.pi:
        ang -= 2 * np.pi
    return complex(np.log(abs(w)), ang)


@dataclass
class BlockSpace:
    """A graded coordinate space: per-degree dimensions with offsets into one big vector."""

    dims: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        offs, acc = [], 0
        for d in self.dims:
            offs.append(acc)
            acc += d
        self.offsets = tuple(offs)
        self.total = acc

    def slice(self, j: int) -> slice:
        return slice(self.offsets[j], self.offsets[j] + self.dims[j])

    def embed(self, j: int, block: np.ndarray) -> np.ndarray:
        """Embed degree-j column vectors into the total space."""
        out = np.zeros((self.total, block.shape[1]), dtype=np.complex128)
        out[self.slice(j), :] = block
        return out
