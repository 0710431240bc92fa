import numpy as np
import pytest
import scipy.linalg as sla
from scipy.interpolate import CubicSpline

from torsionkit import gauge
from torsionkit.gauge import (GaugeField, GaugeTransformation, curvature_residual,
                              gauge_transform, monodromy, pure_gauge_field,
                              rectangle_path, solve_gauge_ode, temporal_residual,
                              _deriv4)
from torsionkit.linalg import StructuralError

from oracles import (gauge_ode_commuting_oracle, gauge_ode_per_line_oracle,
                     monodromy_per_factor_oracle)


def constant_field(a, n_x=201, n_y=5, eps=0.5):
    xs = np.linspace(-eps, eps, n_x)
    ys = np.linspace(0.0, 1.0, n_y)
    om0 = np.tile(a, (n_x, n_y, 1, 1))
    om1 = np.zeros_like(om0)

    def exact(x, y):
        shape = np.broadcast(x, y).shape + a.shape
        return np.broadcast_to(a, shape), np.zeros(shape)

    return GaugeField(xs, ys, om0, om1, exact=exact)


def test_deriv4_accuracy_and_order():
    for n in (33, 65):
        xs = np.linspace(0.0, 1.0, n)
        d = _deriv4(np.sin(3 * xs), xs[1] - xs[0], 0)
        err = np.max(np.abs(d - 3 * np.cos(3 * xs)))
        if n == 33:
            e33 = err
        else:
            assert e33 / err > 12.0  # 4th order in the step


def test_grid_validation():
    xs = np.linspace(-0.5, 0.5, 11)
    ys = np.linspace(0, 1, 5)
    om = np.zeros((11, 5, 2, 2), complex)
    GaugeField(xs, ys, om, om)
    with pytest.raises(StructuralError):
        GaugeField(xs[1:], ys, om[1:], om[1:])  # asymmetric grid


def test_solve_gauge_ode_constant_matrix():
    rng = np.random.default_rng(0)
    a = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    a /= max(1.0, sla.norm(a))
    fld = constant_field(a)
    gt = solve_gauge_ode(fld, steps=1)
    err = max(np.linalg.norm(gt.gamma[ix, 0] - sla.expm(-fld.xs[ix] * a))
              for ix in range(fld.xs.size))
    assert err < 1e-10


def test_solve_gauge_ode_zero_field_identity():
    fld = constant_field(np.zeros((2, 2), complex))
    gt = solve_gauge_ode(fld)
    assert max(np.linalg.norm(gt.gamma[ix, 0] - np.eye(2))
               for ix in range(fld.xs.size)) < 1e-14


def test_solve_gauge_ode_commuting_family_vs_quadrature():
    rng = np.random.default_rng(1)
    a = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))

    def f(x):
        return 0.7 + 0.4 * np.sin(2.0 * x)

    n_x = 81
    xs = np.linspace(-0.5, 0.5, n_x)
    ys = np.linspace(0, 1, 5)
    om0 = np.array([[f(x) * a for _ in ys] for x in xs])

    def exact(x, y):
        x, y = np.broadcast_arrays(x, y)
        w0 = f(x)[..., None, None] * a
        return w0, np.zeros_like(w0)

    fld = GaugeField(xs, ys, om0, np.zeros_like(om0), exact=exact)
    gt = solve_gauge_ode(fld, steps=4)
    for ix in (0, 20, 60, n_x - 1):
        want = gauge_ode_commuting_oracle(f, a, xs[ix])
        assert np.linalg.norm(gt.gamma[ix, 0] - want) < 1e-8


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(2)
    a = 0.9 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
    fld = constant_field(a, n_x=17)
    errs = []
    for steps in (1, 2, 4):
        gt = solve_gauge_ode(fld, steps=steps)
        errs.append(max(np.linalg.norm(gt.gamma[ix, 0] - sla.expm(-fld.xs[ix] * a))
                        for ix in range(17)))
    assert errs[0] / errs[1] >= 14.0
    assert errs[1] / errs[2] >= 14.0


def test_gauge_transform_identity_leaves_field():
    rng = np.random.default_rng(3)
    fld = pure_gauge_field(rng, n=2, n_x=33, n_y=33)
    n = fld.rank
    gam = np.tile(np.eye(n, dtype=complex), (fld.xs.size, fld.ys.size, 1, 1))
    gt = GaugeTransformation(fld.xs, fld.ys, gam)
    out = gauge_transform(fld, gt)
    assert np.max(np.abs(out.omega0 - fld.omega0)) < 1e-12
    assert np.max(np.abs(out.omega1 - fld.omega1)) < 1e-12


def test_gauge_transform_group_law():
    rng = np.random.default_rng(4)
    fld = pure_gauge_field(rng, n=2, n_x=97, n_y=65, strength=0.4)
    gt = solve_gauge_ode(fld, steps=4)
    out = gauge_transform(fld, gt)
    gam_inv = np.linalg.inv(gt.gamma)
    back = gauge_transform(out, GaugeTransformation(fld.xs, fld.ys, gam_inv))
    assert np.max(np.abs(back.omega0 - fld.omega0)) < 1e-8
    assert np.max(np.abs(back.omega1 - fld.omega1)) < 1e-8


def test_curvature_residual_zero_field():
    fld = constant_field(np.zeros((2, 2), complex), n_x=17)
    assert curvature_residual(fld) == 0.0


def test_curvature_pullback_field():
    # omega0 = 0 and omega1 = omega1(y): no curvature on the patch
    xs = np.linspace(-0.5, 0.5, 17)
    ys = np.linspace(0, 1, 9)
    a = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    om1 = np.array([[np.sin(y) * a for y in ys] for _ in xs])
    fld = GaugeField(xs, ys, np.zeros_like(om1), om1)
    assert curvature_residual(fld) < 1e-3  # finite-difference floor on coarse grid


def test_curvature_commutator_scale():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    b = np.array([[0.0, 0.0], [1.0, 0.0]], complex)
    xs = np.linspace(-0.5, 0.5, 33)
    ys = np.linspace(0, 1, 33)
    om0 = np.array([[x * a for _ in ys] for x in xs])
    om1 = np.array([[y * b for y in ys] for _ in xs])
    fld = GaugeField(xs, ys, om0, om1)
    # F = [x a, y b] has norm ~ |x y| ||[a,b]||; the derivative terms vanish
    r = curvature_residual(fld)
    want = 0.5 * sla.norm(a @ b - b @ a)  # max |x y| = 0.5 over the patch
    assert abs(r - want) < 1e-8


def test_temporal_residual_product_connection():
    xs = np.linspace(-0.5, 0.5, 17)
    ys = np.linspace(0, 1, 9)
    a = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    om1 = np.array([[np.cos(y) * a for y in ys] for _ in xs])
    fld = GaugeField(xs, ys, np.zeros_like(om1), om1)
    t0, t1 = temporal_residual(fld)
    assert t0 == 0.0
    assert t1 < 1e-12


def test_pipeline_temporal_gauge_seeded():
    rng = np.random.default_rng(5)
    for _ in range(3):
        fld = pure_gauge_field(rng, n=2, n_x=65, n_y=65)
        c0 = curvature_residual(fld)
        gt = solve_gauge_ode(fld, steps=4)
        out = gauge_transform(fld, gt)
        t0, t1 = temporal_residual(out)
        assert t0 < 1e-6 and t1 < 1e-6
        assert abs(curvature_residual(out) - c0) < 1e-6


def test_monodromy_zero_field_identity():
    fld = constant_field(np.zeros((2, 2), complex), n_x=17, n_y=9)
    path = rectangle_path(fld, 2, 2, 10, 6)
    m = monodromy(fld, path, substeps=2)
    assert np.linalg.norm(m - np.eye(2)) < 1e-14


def test_monodromy_abelian_line_integral():
    # rank 1: monodromy = exp(-contour integral), computed here in closed form
    xs = np.linspace(-0.5, 0.5, 33)
    ys = np.linspace(0, 1, 33)

    def exact(x, y):
        x, y = np.broadcast_arrays(x, y)
        w0 = y[..., None, None].astype(complex)  # omega = y dx
        return w0, np.zeros_like(w0)

    fld = GaugeField(xs, ys, *exact(*np.meshgrid(xs, ys, indexing="ij")), exact=exact)
    path = rectangle_path(fld, 4, 4, 24, 28)
    m = monodromy(fld, path, substeps=8)
    # contour integral of y dx over the rectangle = -area (counterclockwise)
    x0, x1 = xs[4], xs[24]
    y0, y1 = ys[4], ys[28]
    area = (x1 - x0) * (y1 - y0)
    want = np.exp(area)
    assert abs(m[0, 0] - want) < 1e-7


def test_monodromy_covariance_base_on_zero_line():
    rng = np.random.default_rng(6)
    fld = pure_gauge_field(rng, n=2, n_x=65, n_y=65)
    gt = solve_gauge_ode(fld, steps=4)
    out = gauge_transform(fld, gt)
    i0 = (fld.xs.size - 1) // 2
    path = rectangle_path(fld, i0, 8, i0 + 16, 40)
    ev = lambda m: np.sort_complex(np.linalg.eigvals(m))
    d = np.max(np.abs(ev(monodromy(fld, path, 12)) - ev(monodromy(out, path, 12))))
    assert d < 1e-6


def test_monodromy_open_path_rejected():
    fld = constant_field(np.zeros((2, 2), complex), n_x=17, n_y=9)
    with pytest.raises(StructuralError):
        monodromy(fld, [(0, 0), (1, 0)], substeps=1)


def _counted(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_gauge_work_is_batched(monkeypatch):
    fld = pure_gauge_field(np.random.default_rng(8), n=2, n_x=33, n_y=33)
    samples = GaugeField(fld.xs, fld.ys, fld.omega0, fld.omega1)
    steps = 4
    exact = _counted(monkeypatch, fld, "exact")
    solve_gauge_ode(fld, steps=steps)
    assert len(exact) <= 4 * steps * (fld.xs.size - 1)
    splines = _counted(monkeypatch, gauge, "CubicSpline")
    solve_gauge_ode(samples, steps=steps)
    assert len(splines) <= 1
    splines.clear()
    expms = _counted(monkeypatch, gauge.sla, "expm")
    monodromy(samples, rectangle_path(samples, 16, 4, 24, 20), substeps=12)
    assert len(splines) <= 4
    assert len(expms) == 1


def test_solve_gauge_ode_matches_per_line_rk4():
    fld = pure_gauge_field(np.random.default_rng(9), n=2, n_x=17, n_y=9)
    samples = GaugeField(fld.xs, fld.ys, fld.omega0, fld.omega1)
    spline = CubicSpline(fld.xs, fld.omega0, axis=0)
    for field, on_line in ((fld, lambda x, iy: fld.exact(x, fld.ys[iy])[0]),
                           (samples, lambda x, iy: spline(x)[iy])):
        want = gauge_ode_per_line_oracle(on_line, fld.xs, fld.ys, steps=3)
        assert np.max(np.abs(solve_gauge_ode(field, steps=3).gamma - want)) < 1e-14


def test_monodromy_matches_per_factor_product():
    fld = pure_gauge_field(np.random.default_rng(10), n=2, n_x=17, n_y=9)
    samples = GaugeField(fld.xs, fld.ys, fld.omega0, fld.omega1)
    s0, s1 = (CubicSpline(fld.xs, om, axis=0) for om in (fld.omega0, fld.omega1))

    def spline_at(x, y):
        # cubic in x on every row, then cubic in y through those values
        return (CubicSpline(fld.ys, s0(x), axis=0)(y), CubicSpline(fld.ys, s1(x), axis=0)(y))

    # the second rectangle runs along the last grid row and column
    for path in (rectangle_path(fld, 8, 2, 12, 6), rectangle_path(fld, 10, 3, 16, 8)):
        for field, omega_at in ((fld, fld.exact), (samples, spline_at)):
            want = monodromy_per_factor_oracle(omega_at, fld.xs, fld.ys, path, 3)
            assert np.max(np.abs(monodromy(field, path, substeps=3) - want)) < 1e-14
