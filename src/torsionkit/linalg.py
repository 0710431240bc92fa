"""Complex linear algebra kernel: tolerant ranks, subspace bases, spectral projectors.

Everything here works on plain complex128 numpy arrays.  Rank decisions use
singular-value thresholding with a relative tolerance and report a warning
band.  Each subspace basis and its rank come from one SVD (``_svd``): the
rank is cut from that decomposition's own singular values.  Spectral
projectors of (possibly non-normal) matrices are computed from an ordered
complex Schur form, never from raw eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

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


def _rank(s: np.ndarray, rtol: float, floor: float) -> RankResult:
    """Threshold the singular values s (descending) at rtol * max(s[0], floor)."""
    smax = s[0] if len(s) else 0.0
    if max(smax, floor) == 0.0:
        return RankResult(0, 0.0, s, False)
    thr = rtol * max(smax, floor)
    rank = int(np.sum(s > thr))
    near = np.sum((s > thr / RANK_WARN_BAND) & (s <= thr * RANK_WARN_BAND))
    return RankResult(rank, thr, s, bool(near))


def rank_svd(a: np.ndarray, rtol: float = RANK_RTOL, floor: float = 0.0) -> RankResult:
    """Rank by singular-value thresholding at rtol * max(sigma_max, floor).

    floor injects an absolute scale (e.g. the largest singular value across a
    whole complex) so that numerically-zero matrices are not promoted to full
    rank by their own roundoff.  Marks the result ill-conditioned when any
    singular value falls within RANK_WARN_BAND of the threshold.
    """
    a = as_cmatrix(a)
    if a.size == 0:
        return RankResult(0, 0.0, np.zeros(0), False)
    return _rank(sla.svdvals(a), rtol, floor)


def _svd(a: np.ndarray, rtol: float, floor: float, full_matrices: bool):
    """One SVD of a: (u, vh, RankResult), the rank cut from that SVD's singular values.

    Every subspace basis and its rank come from this one decomposition.  An
    empty or all-zero matrix skips LAPACK: its rank is 0 and u, vh are
    identities, so the kernel is the whole source space.
    """
    a = as_cmatrix(a)
    m, n = a.shape
    if a.size == 0 or not np.any(a):
        return (np.eye(m, dtype=np.complex128), np.eye(n, dtype=np.complex128),
                _rank(np.zeros(min(m, n)), rtol, floor))
    u, s, vh = sla.svd(a, full_matrices=full_matrices)
    return u, vh, _rank(s, rtol, floor)


def col_space(a: np.ndarray, rtol: float = RANK_RTOL, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of a."""
    u, _, rk = _svd(a, rtol, floor, full_matrices=False)
    return u[:, :rk.rank]


def null_space(a: np.ndarray, rtol: float = RANK_RTOL, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a."""
    _, vh, rk = _svd(a, rtol, floor, full_matrices=True)
    return vh[rk.rank:, :].conj().T


def row_space(a: np.ndarray, rtol: float = RANK_RTOL, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the row space = orthogonal complement of ker(a)."""
    _, vh, rk = _svd(a, rtol, floor, full_matrices=False)
    return vh[:rk.rank, :].conj().T


def complement_in_kernel(ker: np.ndarray, img: np.ndarray,
                         rtol: float = RANK_RTOL) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the orthogonal complement of span(img) inside span(ker).

    Both inputs are orthonormal column bases; span(img) is assumed (close to)
    contained in span(ker).  Returns (basis, ill_conditioned_flag).
    """
    if ker.shape[1] == 0:
        return ker, False
    proj = ker - img @ (img.conj().T @ ker) if img.shape[1] else ker
    u, s, _ = sla.svd(proj, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return np.zeros((ker.shape[0], 0), dtype=np.complex128), False
    # singular values of the projected frame are ~1 on the complement, ~0 on img
    keep = s > 0.5
    ill = bool(np.any((s > 1e-8) & (s <= 0.5)))
    return u[:, keep], ill


def h_adjoint(a: np.ndarray, h_src: np.ndarray, h_tgt: np.ndarray) -> np.ndarray:
    """Adjoint of a: (V,h_src) -> (W,h_tgt) with respect to the inner products.

    <a x, y>_tgt = <x, a^* y>_src gives a^* = h_src^{-1} a^H h_tgt.
    """
    return sla.solve(h_src, a.conj().T @ h_tgt, assume_a="pos")


def spectral_projector(a: np.ndarray, select, gap_tol: float = 0.0) -> tuple[np.ndarray, int]:
    """Spectral projector of a square matrix onto eigenvalues chosen by select().

    Uses a sorted complex Schur form plus a Sylvester solve, so it is correct
    for defective (non-diagonalizable) matrices.  select maps an eigenvalue to
    bool.  Returns (projector, rank).  gap_tol > 0 additionally rejects inputs
    whose eigenvalues straddle the selection boundary ambiguously (the caller
    encodes that check in select and pre-validates; here it is a safety net
    against empty separation).
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0
    t, z, sdim = sla.schur(a, output="complex", sort=select)
    sdim = int(sdim)
    if sdim == 0:
        return np.zeros((n, n), dtype=np.complex128), 0
    if sdim == n:
        return np.eye(n, dtype=np.complex128), n
    t11 = t[:sdim, :sdim]
    t12 = t[:sdim, sdim:]
    t22 = t[sdim:, sdim:]
    # block-diagonalize: t11 @ x - x @ t22 = -t12
    x = sla.solve_sylvester(t11, -t22, -t12)
    p_schur = np.zeros((n, n), dtype=np.complex128)
    p_schur[:sdim, :sdim] = np.eye(sdim)
    p_schur[:sdim, sdim:] = -x
    p = z @ p_schur @ z.conj().T
    return p, sdim


def invariant_subspace(a: np.ndarray, select) -> tuple[np.ndarray, int]:
    """Orthonormal basis (columns) of the invariant subspace for selected eigenvalues."""
    a = as_cmatrix(a)
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0
    _, z, sdim = sla.schur(a, output="complex", sort=select)
    sdim = int(sdim)
    return z[:, :sdim], sdim


def check_agmon(eigs: np.ndarray, theta: float, tol: float = AGMON_ANGLE_TOL) -> None:
    """Raise AgmonError if any eigenvalue lies within tol (radians) of the ray arg=theta."""
    eigs = np.asarray(eigs, dtype=np.complex128).ravel()
    nz = eigs[np.abs(eigs) > 0]
    if nz.size == 0:
        return
    d = np.angle(nz * np.exp(-1j * theta))
    if np.any(np.abs(d) < tol):
        bad = nz[np.abs(d) < tol]
        raise AgmonError(f"eigenvalue {bad[0]} within {tol} rad of the ray arg={theta}")


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


def det_branch(eigs: np.ndarray, theta: float) -> complex:
    """exp(sum of branch logs): the theta-branch determinant of the nonzero spectrum."""
    return complex(np.exp(sum(log_branch(w, theta) for w in np.ravel(eigs))))


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
