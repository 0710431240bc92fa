"""Temporal gauge fixing on a collar patch [-eps, eps] x [0, 1].

A GaugeField stores matrix-valued connection components omega_0 (normal, dx)
and omega_1 (tangential, dy) sampled on a uniform grid, optionally with one
exact callable ``exact(x, y) -> (omega0, omega1)``.  The callable takes float
arrays that broadcast to a common shape S and returns two (*S, n, n) stacks;
without it, values between samples come from not-a-knot cubic splines.
solve_gauge_ode integrates d gamma / dx = -omega_0 gamma with classical
RK4 on all y-lines at once (x = 0 outward in both directions),
gauge_transform applies gamma^{-1} omega gamma + gamma^{-1} d gamma with
4th-order finite differences, and the residual functions quantify the
temporal-gauge condition (vanishing normal component, x-independent
tangential component), flatness, and loop monodromies, whose factors are
evaluated and exponentiated as one (F, n, n) stack and multiplied pairwise,
later factor on the left, in ceil(log2 F) stacked products.

Every fixed linear map of the samples is a matrix built once per grid and
kept in a bounded cache: the spline weights at the RK4 stage abscissas
(_stage_weights, per grid size and steps), at the monodromy midpoints
(_midpoint_weights, per grid size and substeps) and the banded
difference matrix (_deriv_matrix, per grid size and spacing): 4th-order
central rows and 6th-order one-sided rows at the two samples next to
each edge.
Each is applied as one real product on the real view of the samples
(_apply).

Each small-matrix kernel has two paths: one for rank 2, which every gauge
pipeline runs, and one for every other rank.  ``_mm`` computes the four
entries of a rank-2 product on strided views, where numpy's matmul would
make one BLAS call per slice; other ranks use matmul.  ``_expm`` is a
scaling-and-squaring kernel that treats a whole (..., n, n) stack at once,
scales each slice by its own 2^-s and squares it s times.  At rank 2 it is
the Cayley-Hamilton closed form
e^mu (cosh sqrt(q) I + sinh sqrt(q) / sqrt(q) (X - mu I)), mu = tr X / 2,
q = -det(X - mu I): a few whole-stack operations and no LAPACK call.  At
other ranks it picks each slice's Pade degree from its 1-norm (Higham 2005)
and makes one batched solve per degree.  pure_gauge_field's callable needs
exp(-f A2) A1 exp(f A2); at rank 2 _conjugator writes it in closed form from
the same c, s, with no exponential of a matrix, and at other ranks it
multiplies _expm(-f A2) A1 _expm(f A2).  Inverses and determinants of rank-2
stacks are written out too (_inv, _det).

solve_gauge_ode advances both directions from x = 0 together over a
(2 n_y, n, n) stack: it evaluates the field at each direction's stage
abscissas, by the exact callable in blocks of whole steps (about
_STAGE_BLOCK points per call) or by one product with the stage weights.
The ODE is linear, so every RK4 substep is one propagator matrix; all of
them are built as one stack, folded pairwise per grid interval and turned
into gamma by a prefix product over the intervals, in ceil(log2) rounds of
stacked products.  gamma is rejected where a slice is nearly singular
relative to the size of its rows (_hadamard_ratio below DET_FLOOR).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import StructuralError

# floor on |det gamma| / prod ||row|| (_hadamard_ratio), 1 for orthogonal rows
DET_FLOOR = 1e-8
# field points per stage evaluation in solve_gauge_ode: bounds the temporaries
# of the exact callable while keeping its calls few
_STAGE_BLOCK = 1000
# spline and difference maps kept per module: one per (grid size, steps or
# substeps), or per (grid size, spacing) for _deriv_matrix
_MAPS_CACHED = 16
# first-derivative stencils: the 4th-order central one times 12 over offsets
# -2..2, and per stencil size (divisor, one-sided rows) at edge offsets 0 and 1
# (mirrored with the opposite sign at the other end): over the first seven
# samples, 6th order (Fornberg 1988), or over the first five, 4th order, on
# grids of 5 or 6 samples.  The boundary row of the 5-point stencil has 6
# times the central error constant, which set the temporal residual.
_CENTRAL_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_EDGE_WEIGHTS = {
    5: (12.0, {0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]),
               1: np.array([-3.0, -10.0, 18.0, -6.0, 1.0])}),
    7: (60.0, {0: np.array([-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0]),
               1: np.array([-10.0, -77.0, 150.0, -100.0, 50.0, -15.0, 2.0])}),
}

# Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26 (2005): the largest
# 1-norm at which the degree-m Pade approximant has backward error below the
# double-precision unit roundoff, and the approximant's coefficients.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


# Rank 2: the 1-norm above which _expm scales a slice by 2^-s before the
# Cayley-Hamilton closed form.  Largest error max|E - exp(A)| / max|exp(A)|
# against 50-digit mpmath, 400 draws in each of six classes (complex, real,
# triangular with a 30x off-diagonal entry, similarity transforms of Jordan
# blocks and of near-Jordan blocks, near-rotations), 1-norms log-uniform in
# each column's range; the last row is the Pade path of ranks >= 3:
#   theta2        1e-8..1    1..6       6..100
#   1             4.4e-16    2.6e-15    2.5e-13
#   2             4.4e-16    1.4e-15    1.5e-13
#   4             4.4e-16    1.2e-15    1.4e-13
#   8             4.4e-16    7.3e-16    1.6e-13
#   16            4.4e-16    7.3e-16    1.7e-13
#   none          4.4e-16    7.3e-16    1.0e-13
#   Pade          4.5e-16    8.6e-15    1.7e-13
# 4 is the smallest theta2 whose errors are within rounding of the best in
# every column, and at or below the Pade path's.  No scaling at all would let
# cosh sqrt(q) overflow once |Re sqrt(q)| > 710 even where exp(A) is finite;
# after scaling, |mu| <= 4 and |sqrt(q)| <= 8.
_THETA2 = 4.0
# below |q| = _Q_SERIES, c(q) and s(q) come from 5 Taylor terms; the first
# term left out is below 3e-17 relative
_Q_SERIES = 1e-2
_C_SERIES = tuple(1.0 / math.factorial(2 * k) for k in range(5))
_S_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(5))


def _spline_matrix(n: int, points: np.ndarray) -> np.ndarray:
    """Weights W, points.shape + (n,), of the not-a-knot cubic spline through n samples.

    The samples sit at the indices 0, ..., n - 1 and points are given in
    index units.  Such a spline is linear in its data, so W @ v is
    scipy.interpolate.CubicSpline(arange(n), v)(points) up to rounding; on a
    uniform grid it is also invariant under x -> x0 + h t, so W depends on
    the grid only through n.  scipy.interpolate is imported here: it pulls in
    scipy.optimize and scipy.special, which every process that never
    interpolates, such as the CLI's other commands, does without.
    """
    from scipy.interpolate import CubicSpline
    w = CubicSpline(np.arange(n, dtype=float), np.eye(n))(points)
    w.flags.writeable = False  # kept in a cache
    return w


@functools.lru_cache(maxsize=_MAPS_CACHED)
def _stage_weights(n: int, steps: int) -> np.ndarray:
    """Spline weights at solve_gauge_ode's stage abscissas, (2 steps i0 + 1, 2, n).

    Row j is the offset j / (2 steps) from the centre i0 = (n - 1) / 2,
    column 0 outward to +eps and column 1 to -eps: start, midpoint and end
    stages of every RK4 substep, a substep's end being the next one's start.
    """
    i0 = (n - 1) // 2
    offsets = np.arange(2 * steps * i0 + 1) / (2 * steps)
    return _spline_matrix(n, np.stack([i0 + offsets, i0 - offsets], axis=1))


@functools.lru_cache(maxsize=_MAPS_CACHED)
def _midpoint_weights(n: int, substeps: int) -> np.ndarray:
    """Spline weights at monodromy's midpoints, (n - 1, substeps, n).

    Row (i, k) is the point i + (k + 1/2) / substeps of the grid interval
    [i, i + 1]; a segment walked from i + 1 to i takes the same rows in
    reverse order.
    """
    points = np.arange(n - 1)[:, None] + (np.arange(substeps) + 0.5) / substeps
    return _spline_matrix(n, points)


@functools.lru_cache(maxsize=_MAPS_CACHED)
def _deriv_matrix(n: int, h: float) -> np.ndarray:
    """The banded (n, n) matrix of _deriv4 on n samples h apart."""
    if n < 5:
        raise StructuralError("need at least 5 samples for 4th-order differences")
    d = np.zeros((n, n))
    for i in range(2, n - 2):
        d[i, i - 2:i + 3] = _CENTRAL_WEIGHTS / (12 * h)
    div, rows = _EDGE_WEIGHTS[7 if n >= 7 else 5]
    for off, w in rows.items():
        d[off, :len(w)] = w / (div * h)
        d[n - 1 - off, n - len(w):] = -w[::-1] / (div * h)
    d.flags.writeable = False  # kept in a cache
    return d


def _apply(w: np.ndarray, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Contract w's last axis with values' axis, the result's axis taking w's rows.

    w is (m, k), or (*lead, m, k) with lead = values.shape[:axis] for one map
    per leading index.  values is contracted through its real view (for a
    real array, the array itself), so each product is a real GEMM.
    """
    values = np.ascontiguousarray(values)
    tail = values.shape[axis + 1:]
    flat = values.reshape(*values.shape[:axis + 1], math.prod(tail))
    out = (w @ flat.view(flat.real.dtype)).view(flat.dtype)
    return out.reshape(*out.shape[:-1], *tail)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on (broadcastable) stacks of small matrices.

    numpy's matmul makes one BLAS call per slice of a stack, so rank 2 writes
    each of the four entries as a[..., i, 0] b[..., 0, k] + a[..., i, 1]
    b[..., 1, k] on strided views instead: the operations of the broadcast
    form sum_j a[..., :, j, None] b[..., None, j, :], in its order and with
    its bits.  numpy multiplies complex numbers with a fused multiply-add in
    its vector loops but not in a one-element loop, so a single slice takes
    the broadcast form itself.  Other ranks go to matmul.
    """
    if a.shape[-1] != 2:
        return a @ b
    shape = np.broadcast_shapes(a.shape, b.shape)
    if math.prod(shape[:-2]) == 1:
        return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]
    out = np.empty(shape, np.result_type(a, b))
    for i in range(2):
        for k in range(2):
            entry = out[..., i, k]
            np.multiply(a[..., i, 0], b[..., 0, k], out=entry)
            entry += a[..., i, 1] * b[..., 1, k]
    return out


def _pade_uv(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even parts U, V of the degree-m Pade numerator at a stack a."""
    b = _PADE[m]
    eye = np.eye(a.shape[-1])
    a2 = _mm(a, a)
    if m == 13:
        a4 = _mm(a2, a2)
        a6 = _mm(a4, a2)
        u = _mm(a, _mm(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
                + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = _mm(a6, b[12] * a6 + b[10] * a4 + b[8] * a2) \
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        return u, v
    # powers a^0, a^2, ..., a^(m-1); U = a sum b_{2k+1} a^2k, V = sum b_2k a^2k
    powers = [eye, a2]
    while len(powers) < (m + 1) // 2:
        powers.append(_mm(powers[-1], a2))
    u = _mm(a, sum(b[2 * k + 1] * p for k, p in enumerate(powers)))
    v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return u, v


def _cosh_sinhc(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c(q) = cosh sqrt(q) and s(q) = sinh sqrt(q) / sqrt(q), slice by slice.

    Both are entire functions of q, so no branch of sqrt(q) is chosen: below
    |q| = _Q_SERIES they come from their Taylor series (q = 0 included), above
    it from cosh and sinh of the principal root, or for real q < 0 from cos
    and sin of sqrt(-q), so that real q gives real c and s.
    """
    c = np.full_like(q, _C_SERIES[-1])
    s = np.full_like(q, _S_SERIES[-1])
    for ck, sk in zip(_C_SERIES[-2::-1], _S_SERIES[-2::-1]):
        c = c * q + ck
        s = s * q + sk
    if np.iscomplexobj(q):
        branches = ((np.abs(q) >= _Q_SERIES, 1, np.cosh, np.sinh),)
    else:
        branches = ((q >= _Q_SERIES, 1, np.cosh, np.sinh),
                    (q <= -_Q_SERIES, -1, np.cos, np.sin))
    for mask, sign, even, odd in branches:
        r = np.sqrt(sign * q[mask])
        c[mask] = even(r)
        s[mask] = odd(r) / r
    return c, s


def _expm(a):
    """exp of every slice of an (..., n, n) stack, by batched scaling and squaring.

    Each slice whose 1-norm exceeds theta (_THETA2 at rank 2, theta_13
    otherwise) is scaled by its own 2^-s first and squared s times after, in
    stacked products (_mm).  Rank 2 uses the Cayley-Hamilton closed form
    (Moler & Van Loan, SIAM Rev. 45 (2003)): with mu = tr X / 2, N = X - mu I
    and q = -det N, N^2 = q I, so exp(X) = e^mu (c(q) I + s(q) N) with c, s
    from _cosh_sinhc.  Other ranks give each slice the lowest Pade degree m
    in {3, 5, 7, 9, 13} whose theta_m bounds its 1-norm, so the scaled slices
    are the degree-13 ones with s > 0, and make one batched solve per degree.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    n = a.shape[-1]
    if n <= 1 or a.size == 0:
        return np.exp(a)
    flat = np.ascontiguousarray(a.reshape(-1, n, n))
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    norms[~np.isfinite(norms)] = 0.0  # non-finite slices stay non-finite
    theta = _THETA2 if n == 2 else _THETA[13]
    big = norms > theta
    s = np.zeros(norms.shape, dtype=int)
    s[big] = np.ceil(np.log2(norms[big] / theta)).astype(int)
    # scaled part by part: a complex times a real passes through complex
    # multiplication, where 0 * inf makes nan of a non-finite entry's other
    # part and x * a - 0 * b can flip the sign of a zero
    scale = np.ldexp(1.0, -s).astype(flat.real.dtype)[:, None, None]
    b = (flat.view(flat.real.dtype) * scale).view(flat.dtype)
    if n == 2:
        mu = (b[:, 0, 0] + b[:, 1, 1]) / 2
        d = (b[:, 0, 0] - b[:, 1, 1]) / 2  # N = [[d, b01], [b10, -d]]
        c, sh = _cosh_sinhc(d * d + b[:, 0, 1] * b[:, 1, 0])
        e = np.exp(mu)
        es = e * sh
        out = np.empty_like(b)
        out[:, 0, 0] = e * (c + sh * d)
        out[:, 1, 1] = e * (c - sh * d)
        out[:, 0, 1] = es * b[:, 0, 1]
        out[:, 1, 0] = es * b[:, 1, 0]
    else:
        degree = np.full(norms.shape, 13)
        for m in (9, 7, 5, 3):
            degree[norms <= _THETA[m]] = m
        out = np.empty_like(b)
        for m in _PADE:
            idx = np.flatnonzero(degree == m)
            if idx.size:
                u, v = _pade_uv(b[idx], m)
                out[idx] = np.linalg.solve(v - u, v + u)
    for k in range(1, int(s.max()) + 1):
        idx = np.flatnonzero(s >= k)
        sq = out[idx]
        out[idx] = _mm(sq, sq)
    return out.reshape(a.shape)


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of an (..., n, n) stack; rank 2 by a00 a11 - a01 a10."""
    if a.shape[-1] != 2:
        return np.linalg.det(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _inv(a: np.ndarray) -> np.ndarray:
    """Inverses of an (..., n, n) stack; rank 2 by the adjugate over the determinant."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    adj = np.empty_like(a)
    adj[..., 0, 0], adj[..., 1, 1] = a[..., 1, 1], a[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -a[..., 0, 1], -a[..., 1, 0]
    return adj / _det(a)[..., None, None]


@dataclass
class GaugeField:
    """Connection one-form samples on the collar grid; exact callable optional."""

    xs: np.ndarray
    ys: np.ndarray
    omega0: np.ndarray  # (n_x, n_y, n, n)
    omega1: np.ndarray  # (n_x, n_y, n, n)
    # exact(x, y) -> (omega0, omega1), each (*S, n, n) for x, y broadcast to S
    exact: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        for name, g in (("x", self.xs), ("y", self.ys)):
            if g.ndim != 1 or g.size < 5:
                raise StructuralError(f"{name} grid needs at least 5 samples")
            steps = np.diff(g)
            if np.max(np.abs(steps - steps[0])) > 1e-10 * max(1.0, abs(steps[0])):
                raise StructuralError(f"{name} grid is not uniform")
        self.omega0 = np.asarray(self.omega0, dtype=np.complex128)
        self.omega1 = np.asarray(self.omega1, dtype=np.complex128)
        n_x, n_y = self.xs.size, self.ys.size
        for nm, arr in (("omega0", self.omega0), ("omega1", self.omega1)):
            if arr.shape[:2] != (n_x, n_y) or arr.shape[2] != arr.shape[3]:
                raise StructuralError(f"{nm} must have shape (n_x, n_y, n, n)")
            if not np.all(np.isfinite(arr)):
                raise StructuralError(f"{nm} has non-finite entries")
        mid = (n_x - 1) // 2
        if n_x % 2 == 0 or abs(self.xs[mid]) > 1e-12 * max(1.0, self.xs[-1]) \
                or abs(self.xs[0] + self.xs[-1]) > 1e-12 * max(1.0, self.xs[-1]):
            raise StructuralError("x grid must be symmetric with a sample at x = 0")

    @property
    def rank(self) -> int:
        return self.omega0.shape[2]

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dy(self) -> float:
        return float(self.ys[1] - self.ys[0])


@dataclass
class GaugeTransformation:
    """Grid of invertible matrices with gamma(0, y) = I."""

    xs: np.ndarray
    ys: np.ndarray
    gamma: np.ndarray  # (n_x, n_y, n, n)

    def __post_init__(self):
        i0 = (self.xs.size - 1) // 2
        n = self.gamma.shape[2]
        fail = np.max(np.abs(self.gamma[i0] - np.eye(n)))
        if fail > 1e-12:
            raise StructuralError("gamma(0, y) must be the identity")
        ratio = _hadamard_ratio(self.gamma)
        worst = np.unravel_index(np.argmin(np.where(np.isnan(ratio), -1.0, ratio)), ratio.shape)
        if not ratio[worst] >= DET_FLOOR:  # nan fails too
            raise StructuralError(
                f"gamma degenerates on the grid: at (ix, iy) = {tuple(map(int, worst))}, "
                f"|det gamma| / prod ||row|| = {ratio[worst]:.3e} < {DET_FLOOR:.0e}")


def _hadamard_ratio(g: np.ndarray) -> np.ndarray:
    """|det g| / prod_i ||row_i|| for every slice of an (..., n, n) stack.

    By Hadamard's inequality it lies in [0, 1], and it does not change when a
    row is scaled, so it judges degeneracy apart from the size of g.  The rows
    are normalised before the determinant, so it neither overflows nor
    underflows; a zero row gives nan.  Rank 2 goes entry by entry.
    """
    if g.shape[-1] == 2:
        rows = np.hypot(np.abs(g[..., :, 0]), np.abs(g[..., :, 1]))
    else:
        rows = np.linalg.norm(g, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.abs(_det(g / rows[..., None]))


def solve_gauge_ode(field: GaugeField, steps: int = 4) -> GaugeTransformation:
    """Integrate d gamma/dx = -omega_0 gamma, gamma(0, y) = I, on all y-lines.

    steps substeps of classical RK4 per grid interval; global error O(h^4).
    Both directions, x = 0 outward to +eps and to -eps, advance together as
    one (2 n_y, n, n) stack: the first n_y slices step by +h, the others by
    -h, with h, h/2 and h/6 broadcast per slice.  Each substep takes the
    field at x, x + h/2 and x + h (the two midpoint stages share one, and a
    step's endpoint is the next step's start).  With the exact callable,
    each direction lists these abscissas with the sweep's own arithmetic
    (x += h) and the callable evaluates both lists at once, in blocks of
    whole steps of about _STAGE_BLOCK points per call, on (abscissas, ys).
    Without it, one product of the cached stage weights (_stage_weights)
    with the samples gives the cubic spline in x through them at every
    stage of both directions.

    The ODE is linear, so one RK4 substep is one matrix, g -> P g with
        K_2 = A_mid + (h/2) A_mid A_start,  K_3 = A_mid + (h/2) A_mid K_2,
        K_4 = A_end + h A_end K_3,  P = I + (h/6) (A_start + 2 K_2 + 2 K_3 + K_4).
    All substeps' P are built as one stack in three stacked products; each
    grid interval's steps propagators are multiplied pairwise, later on the
    left (_ordered_product), and gamma at the i0 grid points of each side is
    the inclusive prefix product of the interval propagators
    (_prefix_products): 3 + ceil(log2 steps) + ceil(log2 i0) stacked products
    in all, with no loop over substeps.
    """
    if steps < 1:
        raise StructuralError("steps must be >= 1")
    n_x, n_y = field.xs.size, field.ys.size
    n = field.rank
    i0 = (n_x - 1) // 2
    n_steps = steps * i0
    if field.exact is not None:
        columns = []  # stage abscissas, one column per direction
        for direction in (+1, -1):
            x = field.xs[i0]
            h = direction * field.dx / steps
            column = [x]
            for _ in range(n_steps):
                column += [x + h / 2, x + h]
                x += h
            columns.append(column)
        abscissas = np.array(columns).T  # (2 n_steps + 1, 2)
        # abscissa rows per call, whole steps; the first call also takes the start
        block = 2 * max(1, _STAGE_BLOCK // (4 * n_y))
        bounds = [0, *range(1 + block, abscissas.shape[0], block), abscissas.shape[0]]
        stages = np.concatenate([np.asarray(field.exact(abscissas[lo:hi, :, None], field.ys)[0],
                                            dtype=np.complex128)
                                 for lo, hi in zip(bounds, bounds[1:])])
    else:
        stages = _apply(_stage_weights(n_x, steps).reshape(-1, n_x), field.omega0)
    stages = -stages.reshape(-1, 2 * n_y, n, n)
    h = np.repeat([field.dx / steps, -field.dx / steps], n_y)[:, None, None]
    # one propagator per substep: k_i = K_i g with K_1 = A_start, so
    # g_next = (I + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4)) g
    a_start, a_mid, a_end = stages[:-1:2], stages[1::2], stages[2::2]
    k2 = a_mid + h / 2 * _mm(a_mid, a_start)
    k3 = a_mid + h / 2 * _mm(a_mid, k2)
    k4 = a_end + h * _mm(a_end, k3)
    props = np.eye(n) + h / 6 * (a_start + 2 * k2 + 2 * k3 + k4)
    # (substep, interval, line, n, n): one propagator per grid interval, then
    # gamma at each grid point as the product over the intervals before it
    per_interval = _ordered_product(props.reshape(i0, steps, 2 * n_y, n, n).swapaxes(0, 1))
    outward = _prefix_products(per_interval)
    gam = np.empty((n_x, n_y, n, n), dtype=np.complex128)
    gam[i0] = np.eye(n)
    gam[i0 + 1:], gam[i0 - 1::-1] = outward[:, :n_y], outward[:, n_y:]
    return GaugeTransformation(field.xs, field.ys, gam)


def _deriv4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative along axis (central inside, 6th-order one-sided at edges).

    One product with the cached banded matrix _deriv_matrix(n, h).
    """
    return _apply(_deriv_matrix(values.shape[axis], float(h)), values, axis)


def gauge_transform(field: GaugeField, gt: GaugeTransformation) -> GaugeField:
    """omega_gamma = gamma^{-1} omega gamma + gamma^{-1} d gamma, componentwise."""
    if field.xs.shape != gt.xs.shape or field.ys.shape != gt.ys.shape or \
            np.max(np.abs(field.xs - gt.xs)) > 1e-12 or \
            np.max(np.abs(field.ys - gt.ys)) > 1e-12:
        raise StructuralError("field and transformation grids do not match")
    g = gt.gamma
    gi = _inv(g)
    dgx = _deriv4(g, field.dx, axis=0)
    dgy = _deriv4(g, field.dy, axis=1)
    om0 = _mm(_mm(gi, field.omega0), g) + _mm(gi, dgx)
    om1 = _mm(_mm(gi, field.omega1), g) + _mm(gi, dgy)
    return GaugeField(field.xs, field.ys, om0, om1)


def curvature_residual(field: GaugeField) -> float:
    """max over the grid of || d_x omega_1 - d_y omega_0 + [omega_0, omega_1] ||."""
    dx_o1 = _deriv4(field.omega1, field.dx, axis=0)
    dy_o0 = _deriv4(field.omega0, field.dy, axis=1)
    comm = _mm(field.omega0, field.omega1) - _mm(field.omega1, field.omega0)
    f = dx_o1 - dy_o0 + comm
    return float(np.max(np.linalg.norm(f, axis=(2, 3))))


def temporal_residual(field: GaugeField) -> tuple[float, float]:
    """(max ||omega_0||, max ||d_x omega_1||): both vanish in temporal gauge."""
    n0 = float(np.max(np.linalg.norm(field.omega0, axis=(2, 3))))
    d1 = _deriv4(field.omega1, field.dx, axis=0)
    n1 = float(np.max(np.linalg.norm(d1, axis=(2, 3))))
    return n0, n1


def monodromy(field: GaugeField, path, substeps: int = 16) -> np.ndarray:
    """Path-ordered product of exp(-omega . delta) along a closed grid path.

    path is a sequence of (ix, iy) grid indices; consecutive points must be
    grid neighbors and the path must be closed.  Each grid segment is split
    into substeps midpoint-rule factors.  Field values at all midpoints come
    from one call of the exact callable when present, else from cubic
    splines through the samples: along x at the grid row of a horizontal
    segment, along y at the grid column of a vertical one.  Each segment
    takes its substeps rows of the cached midpoint weights
    (_midpoint_weights) and contracts them with its row or column of
    samples, all segments of one direction in one batched product.  All
    factors are exponentiated as one stack and multiplied in path order by
    _ordered_product: pairwise rounds of stacked products, later factor on
    the left, ceil(log2 F) rounds for F factors.
    """
    if substeps < 1:
        raise StructuralError("substeps must be >= 1")
    pts = np.array(list(path), dtype=int).reshape(-1, 2)
    n_x, n_y = field.xs.size, field.ys.size
    off = np.flatnonzero((pts < 0).any(axis=1) | (pts >= (n_x, n_y)).any(axis=1))
    if off.size:
        raise StructuralError(f"path point {tuple(int(i) for i in pts[off[0]])} is off "
                              f"the {n_x} x {n_y} grid")
    if tuple(pts[0]) != tuple(pts[-1]):
        raise StructuralError("monodromy needs a closed path")
    if np.any(np.abs(np.diff(pts, axis=0)).sum(axis=1) != 1):
        raise StructuralError("path must move between grid neighbors")
    n = field.rank
    (ix0, iy0), (ix1, iy1) = pts[:-1].T, pts[1:].T
    x0, y0 = field.xs[ix0, None], field.ys[iy0, None]
    dx = (field.xs[ix1, None] - x0) / substeps
    dy = (field.ys[iy1, None] - y0) / substeps
    k = np.arange(substeps)
    # midpoints: one row per segment, one column per factor
    xm, ym = x0 + (k + 0.5) * dx, y0 + (k + 0.5) * dy
    if field.exact is not None:
        o0, o1 = (np.asarray(o, dtype=np.complex128) for o in field.exact(xm, ym))
    else:
        # a horizontal segment lies on grid row iy0 and a vertical one on grid
        # column ix0; each takes its weight rows, the interval's rows in
        # reverse when walked downward, and contracts them with that line
        hor, ver = np.flatnonzero(iy0 == iy1), np.flatnonzero(iy0 != iy1)
        o0, o1 = (np.empty(xm.shape + (n, n), dtype=np.complex128) for _ in range(2))
        # (segments, start, end, the line each lies on, the axis of omega it indexes)
        for seg, start, end, line, across in ((hor, ix0, ix1, iy0, 1), (ver, iy0, iy1, ix0, 0)):
            w = _midpoint_weights(field.omega0.shape[1 - across], substeps)
            w = w[np.minimum(start, end)[seg]]
            down = end[seg] < start[seg]
            w[down] = w[down, ::-1]
            for om, vals in ((field.omega0, o0), (field.omega1, o1)):
                vals[seg] = _apply(w, np.moveaxis(om, across, 0)[line[seg]], axis=1)
    factors = _expm(-(o0 * dx[..., None, None] + o1 * dy[..., None, None]))
    return _ordered_product(factors.reshape(-1, n, n))


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """f_{F-1} ... f_1 f_0 over the leading axis of an (F, ..., n, n) stack.

    Each round multiplies neighbours pairwise, the later factor on the left;
    an odd last factor is carried to the next round: ceil(log2 F) stacked
    products in all.  No factors give I.
    """
    if factors.shape[0] == 0:
        return np.eye(factors.shape[-1], dtype=factors.dtype)
    while factors.shape[0] > 1:
        even = factors.shape[0] // 2 * 2
        pairs = _mm(factors[1:even:2], factors[0:even:2])
        factors = np.concatenate([pairs, factors[even:]])
    return factors[0]


def _prefix_products(factors: np.ndarray) -> np.ndarray:
    """p_t = f_t ... f_1 f_0 for every t over the leading axis of an (F, ..., n, n) stack.

    Round k multiplies each p_t, t >= 2^k, by p_{t - 2^k} on the right (a
    Hillis-Steele scan): ceil(log2 F) stacked products in all.
    """
    shift = 1
    while shift < factors.shape[0]:
        factors = np.concatenate([factors[:shift], _mm(factors[shift:], factors[:-shift])])
        shift *= 2
    return factors


def rectangle_path(field: GaugeField, ix0: int, iy0: int, ix1: int, iy1: int):
    """Closed axis-aligned rectangle through grid corners, based at (ix0, iy0)."""
    if not (ix0 < ix1 and iy0 < iy1):
        raise StructuralError("need ix0 < ix1 and iy0 < iy1")
    n_x, n_y = field.xs.size, field.ys.size
    if ix0 < 0 or iy0 < 0 or ix1 >= n_x or iy1 >= n_y:
        raise StructuralError(f"rectangle ({ix0}, {iy0}) - ({ix1}, {iy1}) is off the "
                              f"{n_x} x {n_y} grid")
    path = []
    path += [(ix, iy0) for ix in range(ix0, ix1 + 1)]
    path += [(ix1, iy) for iy in range(iy0 + 1, iy1 + 1)]
    path += [(ix, iy1) for ix in range(ix1 - 1, ix0 - 1, -1)]
    path += [(ix0, iy) for iy in range(iy1 - 1, iy0 - 1, -1)]
    return path


def _conjugator(a1: np.ndarray, a2: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """f -> exp(-f A2) A1 exp(f A2) on a real array f of shape S, as (*S, n, n).

    At rank 2, with mu = tr A2 / 2, N = A2 - mu I and q0 = -det N, N^2 = q0 I
    gives exp(f N) = c I + s f N with c, s = _cosh_sinhc(f^2 q0).  The
    factors e^{+-mu f} cancel, so
        exp(-f A2) A1 exp(f A2) = c^2 A1 + c s f [A1, N] - (s f)^2 N A1 N:
    three scalar fields times 2 x 2 matrices formed once, one _cosh_sinhc
    call and no _expm.  Other ranks compute _expm(-f A2) A1 _expm(f A2).
    """
    if a1.shape[-1] != 2:
        def conjugate(f):
            x = f[..., None, None] * a2
            return _mm(_mm(_expm(-x), a1), _expm(x))
        return conjugate
    nil = a2 - (a2[0, 0] + a2[1, 1]) / 2 * np.eye(2)
    q0 = -_det(nil)
    # A1, [A1, N], N A1 N as the rows of one (3, 4) matrix
    basis = np.stack([a1, a1 @ nil - nil @ a1, nil @ a1 @ nil]).reshape(3, 4)

    def conjugate(f):
        shape, f = f.shape, f.ravel()  # _cosh_sinhc indexes its argument, so no 0-d array
        c, s = _cosh_sinhc(f * f * q0)
        sf = s * f
        return (np.stack([c * c, c * sf, -(sf * sf)], axis=-1) @ basis).reshape(shape + (2, 2))
    return conjugate


def pure_gauge_field(rng: np.random.Generator, n: int = 2, n_x: int = 65,
                     n_y: int = 65, eps: float = 0.5,
                     strength: float = 0.4) -> GaugeField:
    """Exactly flat field omega = g^{-1} dg for g = exp(f1 A1) exp(f2 A2).

    f1, f2 are random real quadratic polynomials in (x, y) and A1, A2 random
    matrices; the derivative has the closed form
        omega = (df1) E2^{-1} A1 E2 + (df2) A2,   E2 = exp(f2 A2),
    so the samples and the exact callable are exact and the curvature
    vanishes identically.  The callable evaluates whole (x, y) arrays; at
    rank 2, E2^{-1} A1 E2 is _conjugator's closed form, one _cosh_sinhc call
    per callable call.  The samples are one call on the meshgrid.
    Coefficient ranges keep the 4th-order finite-difference floor of the
    65 x 65 default grid safely below 1e-7.
    """
    a1 = strength * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    a2 = strength * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    c1 = rng.uniform(-0.6, 0.6, size=6)
    c2 = rng.uniform(-0.6, 0.6, size=6)
    conjugate = _conjugator(a1, a2)

    def poly(c, x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x + c[5] * y * y

    def dpoly(c, x, y):
        return (c[1] + c[3] * y + 2 * c[4] * x, c[2] + c[3] * x + 2 * c[5] * y)

    def omega(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        conj_a1 = conjugate(poly(c2, x, y))
        d1x, d1y = (d[..., None, None] for d in dpoly(c1, x, y))
        d2x, d2y = (d[..., None, None] for d in dpoly(c2, x, y))
        return d1x * conj_a1 + d2x * a2, d1y * conj_a1 + d2y * a2

    xs = np.linspace(-eps, eps, n_x)
    ys = np.linspace(0.0, 1.0, n_y)
    om0, om1 = omega(*np.meshgrid(xs, ys, indexing="ij"))
    return GaugeField(xs, ys, om0, om1, exact=omega)
