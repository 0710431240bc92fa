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

This module is where the chain, chirality, cw and holomorphy layers reach
LAPACK for SVDs, least squares, eigenvalues, Cholesky and norms.  Each
kernel (``svd``, ``lstsq``, ``eigvals``, ``eigvalsh``,
``positive_definite``, ``norm``) is one call of the f2py routine that
scipy.linalg would reach (zgesdd, zgelsd, zgeev, zheevr, zpotrf), with the
same arguments, so the bits are scipy's.  The workspace sizes come from the
routine's own query (scipy's ``_compute_lwork``), made once per routine and
shape and kept in an LRU cache (``_lwork``).  Finiteness is checked once per
matrix.  ``as_cmatrix`` makes one ``np.isfinite`` pass; ``_factor`` (on a
complex's differentials, which as_cmatrix made, or on projections of
orthonormal frames) and ``rank_svd`` (which calls as_cmatrix) reach the SVD
routine (``_gesdd``) with no second pass.  Every other kernel argument gets
one pass (``_finite``) and raises ValueError, as scipy's check_finite does.
``norm`` is numpy's Frobenius norm, which scipy.linalg.norm returns for a
matrix; it scans the entries only when the norm itself is not finite,
because a finite sum of squares has finite terms.  ``positive_definite``
reads a non-finite pivot as a failed factorisation.  A nonzero LAPACK info
raises as scipy does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs, lapack

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
    if not np.isfinite(m).all():
        raise StructuralError("matrix has non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise StructuralError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise StructuralError(f"expected {cols} columns, got {m.shape[1]}")
    return m


_C = np.zeros((1, 1), dtype=np.complex128)
# name -> (routine, workspace query): what scipy.linalg picks for complex128
_ROUTINES = {
    "gesdd": get_lapack_funcs(("gesdd", "gesdd_lwork"), (_C,), ilp64="preferred"),
    "gelsd": get_lapack_funcs(("gelsd", "gelsd_lwork"), (_C, _C)),
    "geev": get_lapack_funcs(("geev", "geev_lwork"), (_C,)),
    "heevr": get_lapack_funcs(("heevr", "heevr_lwork"), (_C,)),
}


@lru_cache(maxsize=512)
def _lwork(name: str, *args):
    """The workspace sizes the LAPACK query of routine name gives for args (its
    shape), rounded as scipy.linalg rounds them; queried once per routine and shape."""
    return lapack._compute_lwork(_ROUTINES[name][1], *args)


def _finite(a) -> np.ndarray:
    """a as a complex128 matrix, after one pass proving every entry finite."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _gesdd(a: np.ndarray, compute_uv: int):
    """zgesdd on a finite complex128 matrix with full u and vh: (u, s, vh), or s
    alone when compute_uv is 0, as scipy.linalg.svd returns them."""
    m, n = a.shape
    if a.size == 0:
        s = np.zeros(0)
        return (np.eye(m, dtype=np.complex128), s, np.eye(n, dtype=np.complex128)) \
            if compute_uv else s
    u, s, vh, info = _ROUTINES["gesdd"][0](a, compute_uv=compute_uv, full_matrices=1,
                                          lwork=_lwork("gesdd", m, n, compute_uv, 1))
    if info > 0:
        raise LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return (u, s, vh) if compute_uv else s


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full SVD (u, s, vh) of a finite matrix: scipy.linalg.svd(a), bit for bit."""
    return _gesdd(_finite(a), 1)


def lstsq(a, b) -> np.ndarray:
    """The minimum-norm least-squares solution x of a x = b (b a matrix):
    scipy.linalg.lstsq(a, b)[0] with its default zgelsd and rcond eps, bit for bit."""
    a, b = _finite(a), _finite(b)
    (m, n), nrhs = a.shape, b.shape[1]
    if b.shape[0] != m:
        raise ValueError(f"a has {m} rows, b has {b.shape[0]}")
    if m == 0 or n == 0:
        return np.zeros((n, nrhs), dtype=np.complex128)
    if m < n:  # zgelsd writes the n-row solution into b
        b = np.vstack([b, np.zeros((n - m, nrhs), dtype=np.complex128)])
    cond = np.finfo(np.complex128).eps
    lwork, rwork, iwork = _lwork("gelsd", m, n, nrhs, cond)
    x, _, _, info = _ROUTINES["gelsd"][0](a, b, lwork, rwork, iwork, cond, False, False)
    if info > 0:
        raise LinAlgError("SVD did not converge in Linear Least Squares")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gelsd")
    return x[:n]


def eigvals(a) -> np.ndarray:
    """The eigenvalues of a finite square matrix: scipy.linalg.eigvals(a) (zgeev), bit for bit."""
    a = _finite(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("expected square matrix")
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    w, _, _, info = _ROUTINES["geev"][0](a, compute_vl=0, compute_vr=0,
                                        lwork=_lwork("geev", n, 0, 0))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal eig algorithm (geev)")
    if info > 0:
        raise LinAlgError(f"eig algorithm (geev) did not converge (only eigenvalues "
                          f"with order >= {info} have converged)")
    return w


def eigvalsh(a) -> np.ndarray:
    """The eigenvalues of a finite Hermitian matrix (lower triangle read):
    scipy.linalg.eigvalsh(a) (zheevr), bit for bit."""
    a = _finite(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("expected square matrix")
    if n == 0:
        return np.zeros(0)
    lwork, lrwork, liwork = _lwork("heevr", n, 1)
    w, _, _, _, info = _ROUTINES["heevr"][0](a, compute_v=0, lower=1, lwork=lwork,
                                            lrwork=lrwork, liwork=liwork)
    if info:
        raise LinAlgError(f"eigvalsh (heevr) failed with info={info}")
    return w


def positive_definite(h: np.ndarray) -> bool:
    """Whether the Hermitian matrix h (upper triangle read) is positive definite:
    its Cholesky factorisation (zpotrf) completes.  h is as_cmatrix's output; a
    non-finite pivot stops the factorisation, so such an h reads False."""
    _, info = lapack.zpotrf(h, clean=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal potrf")
    return info == 0


def norm(a) -> float:
    """The Frobenius norm of a finite matrix: scipy.linalg.norm(a), bit for bit.

    Only a non-finite norm costs a second pass, which tells overflow (returned
    as inf) from a non-finite entry (ValueError, as scipy's check_finite).
    """
    out = np.linalg.norm(a)
    if not np.isfinite(out) and not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return out


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
    return _rank(_gesdd(as_cmatrix(a), 0), 0.0)


def _factor(a: np.ndarray):
    """The full SVD a = u diag(s) vh as (u, s, vh), with u and vh square.

    a is a finite complex128 matrix: as_cmatrix's output, or a projection of
    orthonormal frames, so no second finiteness pass is made.  For rank r,
    ker a = vh[r:]^H, im a = u[:, :r] and the row space is vh[:r]^H.  An
    empty or all-zero matrix skips LAPACK: s is zero and u, vh are
    identities, so the kernel is the whole source space.
    """
    m, n = a.shape
    if a.size == 0 or not np.any(a):
        return (np.eye(m, dtype=np.complex128), np.zeros(min(m, n)),
                np.eye(n, dtype=np.complex128))
    return _gesdd(a, 1)


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
