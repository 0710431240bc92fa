"""Temporal gauge fixing on a collar patch [-eps, eps] x [0, 1].

A GaugeField stores matrix-valued connection components omega_0 (normal, dx)
and omega_1 (tangential, dy) sampled on a uniform grid, optionally with one
exact callable ``exact(x, y) -> (omega0, omega1)``.  The callable takes float
arrays that broadcast to a common shape S and returns two (*S, n, n) stacks;
without it, values between samples come from cubic splines built once per
call.  solve_gauge_ode integrates d gamma / dx = -omega_0 gamma with classical
RK4 on all y-lines at once (x = 0 outward in both directions),
gauge_transform applies gamma^{-1} omega gamma + gamma^{-1} d gamma with
4th-order finite differences, and the residual functions quantify the
temporal-gauge condition (vanishing normal component, x-independent
tangential component), flatness, and loop monodromies, whose factors are
evaluated and exponentiated as one (F, n, n) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.interpolate import CubicSpline

from .linalg import StructuralError

DET_FLOOR = 1e-8


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
        dets = np.linalg.det(self.gamma.reshape(-1, n, n))
        if np.min(np.abs(dets)) < DET_FLOOR:
            raise StructuralError("gamma degenerates on the grid")


def solve_gauge_ode(field: GaugeField, steps: int = 4) -> GaugeTransformation:
    """Integrate d gamma/dx = -omega_0 gamma, gamma(0, y) = I, on all y-lines.

    steps substeps of classical RK4 per grid interval; global error O(h^4).
    gamma is an (n_y, n, n) stack advanced by batched matrix products.  Stage
    values come from the exact callable when present, otherwise from one
    cubic spline in x through the samples; each distinct abscissa is
    evaluated once (the two midpoint stages share one, and a step's endpoint
    is the next step's start).
    """
    if steps < 1:
        raise StructuralError("steps must be >= 1")
    n_x, n_y = field.xs.size, field.ys.size
    n = field.rank
    i0 = (n_x - 1) // 2
    if field.exact is not None:
        def a(x):
            return -np.asarray(field.exact(x, field.ys)[0], dtype=np.complex128)
    else:
        spline0 = CubicSpline(field.xs, field.omega0, axis=0)

        def a(x):
            return -spline0(x)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (n_y, n, n))
    gam = np.zeros((n_x, n_y, n, n), dtype=np.complex128)
    gam[i0] = eye
    for direction in (+1, -1):
        g = eye
        x = field.xs[i0]
        last = n_x - 1 if direction > 0 else 0
        h = direction * field.dx / steps
        a_start = a(x)
        for idx in range(i0 + direction, last + direction, direction):
            for _ in range(steps):
                a_mid, a_end = a(x + h / 2), a(x + h)
                k1 = a_start @ g
                k2 = a_mid @ (g + h / 2 * k1)
                k3 = a_mid @ (g + h / 2 * k2)
                k4 = a_end @ (g + h * k3)
                g = g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                x += h
                a_start = a_end
            gam[idx] = g
    return GaugeTransformation(field.xs, field.ys, gam)


_EDGE_WEIGHTS = {
    0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    1: np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
}


def _deriv4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative along axis (central inside, one-sided at edges)."""
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    if n < 5:
        raise StructuralError("need at least 5 samples for 4th-order differences")
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
    head, tail = v[:5], v[::-1][:5]
    for off, w in _EDGE_WEIGHTS.items():
        out[off] = np.tensordot(w, head, axes=(0, 0)) / h
        out[n - 1 - off] = -np.tensordot(w, tail, axes=(0, 0)) / h
    return np.moveaxis(out, 0, axis)


def gauge_transform(field: GaugeField, gt: GaugeTransformation) -> GaugeField:
    """omega_gamma = gamma^{-1} omega gamma + gamma^{-1} d gamma, componentwise."""
    if field.xs.shape != gt.xs.shape or field.ys.shape != gt.ys.shape or \
            np.max(np.abs(field.xs - gt.xs)) > 1e-12 or \
            np.max(np.abs(field.ys - gt.ys)) > 1e-12:
        raise StructuralError("field and transformation grids do not match")
    g = gt.gamma
    gi = np.linalg.inv(g)
    dgx = _deriv4(g, field.dx, axis=0)
    dgy = _deriv4(g, field.dy, axis=1)
    om0 = gi @ field.omega0 @ g + gi @ dgx
    om1 = gi @ field.omega1 @ g + gi @ dgy
    return GaugeField(field.xs, field.ys, om0, om1)


def curvature_residual(field: GaugeField) -> float:
    """max over the grid of || d_x omega_1 - d_y omega_0 + [omega_0, omega_1] ||."""
    dx_o1 = _deriv4(field.omega1, field.dx, axis=0)
    dy_o0 = _deriv4(field.omega0, field.dy, axis=1)
    comm = field.omega0 @ field.omega1 - field.omega1 @ field.omega0
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
    segment, along y at the grid column of a vertical one.  All factors are
    exponentiated as one stack, then multiplied in path order.
    """
    pts = np.array(list(path), dtype=int).reshape(-1, 2)
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
        # a horizontal segment lies on grid row iy0, a vertical one on grid
        # column ix0; splines go only through the rows and columns used, which
        # keeps their temporaries small
        hor, ver = np.flatnonzero(iy0 == iy1), np.flatnonzero(iy0 != iy1)
        rows, row_of = np.unique(iy0[hor], return_inverse=True)
        cols, col_of = np.unique(ix0[ver], return_inverse=True)
        o0, o1 = (np.empty(xm.shape + (n, n), dtype=np.complex128) for _ in range(2))
        for om, vals in ((field.omega0, o0), (field.omega1, o1)):
            along_x = CubicSpline(field.xs, om[:, rows], axis=0)(xm[hor])  # (H, S, rows, n, n)
            vals[hor] = along_x[np.arange(hor.size)[:, None], k, row_of[:, None]]
            along_y = CubicSpline(field.ys, om[cols], axis=1)(ym[ver])  # (cols, V, S, n, n)
            vals[ver] = along_y[col_of[:, None], np.arange(ver.size)[:, None], k]
    factors = sla.expm(-(o0 * dx[..., None, None] + o1 * dy[..., None, None]))
    out = np.eye(n, dtype=np.complex128)
    for f in factors.reshape(-1, n, n):
        out = f @ out
    return out


def rectangle_path(field: GaugeField, ix0: int, iy0: int, ix1: int, iy1: int):
    """Closed axis-aligned rectangle through grid corners, based at (ix0, iy0)."""
    if not (ix0 < ix1 and iy0 < iy1):
        raise StructuralError("need ix0 < ix1 and iy0 < iy1")
    path = []
    path += [(ix, iy0) for ix in range(ix0, ix1 + 1)]
    path += [(ix1, iy) for iy in range(iy0 + 1, iy1 + 1)]
    path += [(ix, iy1) for ix in range(ix1 - 1, ix0 - 1, -1)]
    path += [(ix0, iy) for iy in range(iy1 - 1, iy0 - 1, -1)]
    return path


def pure_gauge_field(rng: np.random.Generator, n: int = 2, n_x: int = 65,
                     n_y: int = 65, eps: float = 0.5,
                     strength: float = 0.4) -> GaugeField:
    """Exactly flat field omega = g^{-1} dg for g = exp(f1 A1) exp(f2 A2).

    f1, f2 are random real quadratic polynomials in (x, y) and A1, A2 random
    matrices; the derivative has the closed form
        omega = (df1) E2^{-1} A1 E2 + (df2) A2,   E2 = exp(f2 A2),
    so the samples and the exact callable are exact and the curvature
    vanishes identically.  The callable evaluates whole (x, y) arrays with one
    batched expm per factor; the samples are one call on the meshgrid.
    Coefficient ranges keep the 4th-order finite-difference floor of the
    65 x 65 default grid safely below 1e-7.
    """
    a1 = strength * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    a2 = strength * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    c1 = rng.uniform(-0.6, 0.6, size=6)
    c2 = rng.uniform(-0.6, 0.6, size=6)

    def poly(c, x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x + c[5] * y * y

    def dpoly(c, x, y):
        return (c[1] + c[3] * y + 2 * c[4] * x, c[2] + c[3] * x + 2 * c[5] * y)

    def omega(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        f2v = poly(c2, x, y)[..., None, None]
        e2 = sla.expm(f2v * a2)
        e2i = sla.expm(-f2v * a2)
        d1x, d1y = (d[..., None, None] for d in dpoly(c1, x, y))
        d2x, d2y = (d[..., None, None] for d in dpoly(c2, x, y))
        conj_a1 = e2i @ a1 @ e2
        return d1x * conj_a1 + d2x * a2, d1y * conj_a1 + d2y * a2

    xs = np.linspace(-eps, eps, n_x)
    ys = np.linspace(0.0, 1.0, n_y)
    om0, om1 = omega(*np.meshgrid(xs, ys, indexing="ij"))
    return GaugeField(xs, ys, om0, om1, exact=omega)
