import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes
from scipy.interpolate import CubicSpline

from torsionkit import gauge
from torsionkit.gauge import (GaugeField, GaugeTransformation, curvature_residual,
                              gauge_transform, monodromy, pure_gauge_field,
                              rectangle_path, solve_gauge_ode, temporal_residual,
                              _apply, _conjugator, _deriv4, _deriv_matrix, _expm,
                              _midpoint_weights, _mm, _ordered_product, _stage_weights)
from torsionkit.linalg import StructuralError
from torsionkit.selftest import constant_field

from oracles import (deriv4_stencil_oracle, gauge_ode_commuting_oracle,
                     gauge_ode_per_line_oracle, monodromy_per_factor_oracle)


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
    path = rectangle_path(samples, 16, 4, 24, 20)
    scipy_expms = _counted(monkeypatch, sla, "expm")
    expms = _counted(monkeypatch, gauge, "_expm")
    cosh_sinhc = _counted(monkeypatch, gauge, "_cosh_sinhc")
    exact = _counted(monkeypatch, fld, "exact")
    solve_gauge_ode(fld, steps=4)
    assert 0 < len(exact) <= 12
    # the rank-2 callable is closed form: one c(q), s(q) per call, no exponential
    assert len(cosh_sinhc) == len(exact) and not expms
    exact.clear()
    cosh_sinhc.clear()
    monodromy(fld, path, substeps=12)
    assert len(exact) == 1 and len(expms) == 1 and len(cosh_sinhc) == 2
    # one spline map per grid size and steps or substeps, built on first use
    gauge._stage_weights.cache_clear()
    gauge._midpoint_weights.cache_clear()
    builds = _counted(monkeypatch, gauge, "_spline_matrix")
    expms.clear()
    for _ in range(2):
        solve_gauge_ode(samples, steps=4)
        monodromy(samples, path, substeps=12)
    assert len(builds) == 2  # the stage map and the midpoint map; n_x = n_y
    assert len(expms) == 2
    assert not scipy_expms


def _expm_misses(a):
    """Slices of a whose _expm misses the pinned bound against a reference.

    Bound per slice: 1e-13 * max(1, ||A||_1) * max|e^A|.  The reference is
    scipy on the complex cast: on some real 2 x 2 inputs scipy's real path
    errs by ~1e-13 against a 50-digit mpmath reference while its complex path
    (and _expm) stays at ~1e-15.  scipy can miss too, on near-defective input,
    so a finite slice that misses it is decided against _mp_expm instead.
    """
    got, want = _expm(a), sla.expm(np.asarray(a, dtype=complex))
    assert got.shape == a.shape and np.isrealobj(got) == np.isrealobj(a)
    flat = a.reshape(-1, *a.shape[-2:])
    got, want = got.reshape(flat.shape), want.reshape(flat.shape)
    norm = np.maximum(1.0, np.abs(flat).sum(axis=1).max(axis=1, initial=0.0))

    def misses(i, ref):
        bound = 1e-13 * norm[i] * np.abs(ref).max(initial=0.0)
        return not np.abs(got[i] - ref).max(initial=0.0) <= bound  # nan is a miss

    return np.array([i for i in range(len(flat)) if misses(i, want[i])
                     and (not np.isfinite(flat[i]).all() or misses(i, _mp_expm(flat[i])))],
                    dtype=int)


@st.composite
def _stacks(draw):
    """(count, n, n) stacks, n <= 6 and count <= 4, entries in [-1, 1] scaled by 10^[-6, 2]."""
    n, count = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    a = draw(arrays(float, (count, n, n), elements=unit))
    if draw(st.booleans()):
        a = a + 1j * draw(arrays(float, (count, n, n), elements=unit))
    return 10.0 ** draw(st.floats(-6.0, 2.0)) * a


@settings(max_examples=150, deadline=None)
@given(a=_stacks())
# near-defective: scipy's (1, 2) entry is 10.0000008274, _expm's and 50 digits' 10.00000000005
@example(a=10.0 * np.array([[[1.0, 0, 0, 0], [0, 1e-12, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]))
def test_expm_matches_scipy_on_random_stacks(a):
    assert _expm_misses(a).size == 0


def test_expm_fixed_cases():
    rng = np.random.default_rng(12)
    tri = np.triu(rng.standard_normal((4, 4)))
    tri *= 100.0 / np.abs(tri).sum(axis=0).max()  # ||A||_1 = 100
    # one slice per Pade degree 3, 5, 7, 9, 13, then degree 13 with s = 1, 3, 6
    mixed = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mixed /= np.abs(mixed).sum(axis=0).max()
    norms = [0.01, 0.2, 0.9, 2.0, 5.0, 10.0, 40.0, 300.0]
    # rank 2 with s = 0, 2 and 5
    mixed2 = np.array([c * mixed[:2, :2] for c in (0.5, 12.0, 90.0)])
    mixed3 = np.array([c * mixed for c in norms])
    # [[0, 1e3], [0, -1600]]: finite exp, but cosh sqrt(q) = cosh 800 overflows unscaled
    for a in (np.zeros((3, 3)), np.diag([-30.0, 0.5, 20.0]), tri,
              np.array([[0.0, 1e3], [0.0, 0.0]]), np.array([[0.0, 1e3], [0.0, -1600.0]]),
              np.zeros((0, 3, 3)), mixed3, -mixed3, mixed2, -mixed2):
        assert _expm_misses(a).size == 0
    assert np.array_equal(_expm(np.zeros((2, 2))), np.eye(2))


def test_solve_gauge_ode_matches_per_line_rk4():
    # i0 = 4 and 8 intervals per side are powers of two, 5 and 6 are not
    for n_x in (9, 11, 13, 17):
        fld = pure_gauge_field(np.random.default_rng(9), n=2, n_x=n_x, n_y=9)
        samples = GaugeField(fld.xs, fld.ys, fld.omega0, fld.omega1)
        spline = CubicSpline(fld.xs, fld.omega0, axis=0)
        for steps in (1, 2, 3, 4):
            for field, on_line in ((fld, lambda x, iy: fld.exact(x, fld.ys[iy])[0]),
                                   (samples, lambda x, iy: spline(x)[iy])):
                want = gauge_ode_per_line_oracle(on_line, fld.xs, fld.ys, steps=steps)
                assert np.max(np.abs(solve_gauge_ode(field, steps=steps).gamma - want)) < 1e-14


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


def test_monodromy_rejects_nonpositive_substeps():
    fld = constant_field(np.zeros((2, 2), complex), n_x=17, n_y=9)
    path = rectangle_path(fld, 2, 2, 10, 6)
    for substeps in (0, -2):
        with pytest.raises(StructuralError, match="substeps must be >= 1"):
            monodromy(fld, path, substeps=substeps)


# nonzero entries at least 1e-150 in modulus: products stay clear of underflow,
# where the relative bound below does not apply
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-150, 1.0), st.floats(-1.0, -1e-150))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), count=st.integers(1, 5), complex_=st.booleans(),
       shape=st.sampled_from(["stack-stack", "matrix-stack", "stack-matrix"]),
       data=st.data())
def test_mm_matches_matmul_within_rounding(n, count, complex_, shape, data):
    # both sides compute each entry as an n-term dot product; in complex
    # arithmetic each errs by at most sqrt(2) gamma_{n+2} (|a| |b|) entrywise
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.6)
    def draw(dims):
        x = data.draw(arrays(float, dims, elements=_ENTRY))
        return x + 1j * data.draw(arrays(float, dims, elements=_ENTRY)) if complex_ else x

    a = draw((n, n) if shape == "matrix-stack" else (count, n, n))
    b = draw((n, n) if shape == "stack-matrix" else (count, n, n))
    got, want = _mm(a, b), a @ b
    assert got.shape == want.shape and got.dtype == want.dtype
    k = (n + 2) * np.finfo(float).eps
    bound = 2 * np.sqrt(2) * k / (1 - k) * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(got - want) <= bound)
    if n != 2:
        assert np.array_equal(got, want)


def test_ordered_product_matches_a_factor_loop():
    rng = np.random.default_rng(14)
    for count in (1, 2, 7, 12):
        factors = _expm(0.3 * (rng.standard_normal((count, 2, 2))
                               + 1j * rng.standard_normal((count, 2, 2))))
        want = np.eye(2)
        for f in factors:
            want = f @ want
        assert np.max(np.abs(_ordered_product(factors) - want)) < 1e-14
    assert np.array_equal(_ordered_product(np.zeros((0, 2, 2), complex)), np.eye(2))


def test_monodromy_pairwise_product_matches_per_factor_oracle():
    # a there-and-back path has two segments: F = 2 substeps.  F = 2 and 6
    # carry an odd factor (6 -> 3 -> 2 -> 1); F = 8 pairs every round
    fld = pure_gauge_field(np.random.default_rng(15), n=2, n_x=17, n_y=9)
    path = [(8, 3), (9, 3), (8, 3)]
    for substeps in (1, 3, 4):
        want = monodromy_per_factor_oracle(fld.exact, fld.xs, fld.ys, path, substeps)
        assert np.max(np.abs(monodromy(fld, path, substeps=substeps) - want)) < 1e-14


def test_exact_callable_exponentiates_each_point_once(monkeypatch):
    fld = pure_gauge_field(np.random.default_rng(16), n=2, n_x=17, n_y=9)
    slices = _counted(monkeypatch, gauge, "_cosh_sinhc")
    x, y = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(0.0, 1.0, 13))
    fld.exact(x, y)
    # one c(q), s(q) per point gives both exp(+-f2 A2) of the conjugation
    assert sum(q.size for q, in slices) == x.size


def _uncounted(fn, elsewhere):
    """Wrap fn so that _mm calls made inside it are not counted."""
    def wrapper(*args, **kwargs):
        elsewhere.append(1)
        try:
            return fn(*args, **kwargs)
        finally:
            elsewhere.pop()
    return wrapper


def _count_products(monkeypatch, fld):
    """Shapes of the stacked products made outside the field and the exponentials."""
    products, elsewhere = [], []
    mm = gauge._mm

    def counted_mm(a, b):
        if not elsewhere:
            products.append(a.shape)
        return mm(a, b)

    monkeypatch.setattr(gauge, "_mm", counted_mm)
    monkeypatch.setattr(gauge, "_expm", _uncounted(gauge._expm, elsewhere))
    if fld.exact is not None:
        monkeypatch.setattr(fld, "exact", _uncounted(fld.exact, elsewhere))
    return products


def test_monodromy_multiplies_in_log_rounds(monkeypatch):
    fld = pure_gauge_field(np.random.default_rng(17), n=2, n_x=33, n_y=33)
    path = rectangle_path(fld, 16, 4, 24, 20)
    substeps = 12
    n_factors = (len(path) - 1) * substeps
    products = _count_products(monkeypatch, fld)
    monodromy(fld, path, substeps=substeps)
    assert 0 < len(products) <= int(np.ceil(np.log2(n_factors)))
    assert products[0][0] == n_factors // 2


def test_solve_gauge_ode_products_in_log_rounds(monkeypatch):
    # 3 stacked products build every substep's propagator, ceil(log2 steps)
    # fold each grid interval, ceil(log2 i0) scan the intervals; a loop over
    # substeps would make 4 per substep
    for n_x, steps in ((17, 1), (17, 4), (33, 3), (13, 4)):
        fld = pure_gauge_field(np.random.default_rng(n_x + steps), n=2, n_x=n_x, n_y=9)
        i0 = (n_x - 1) // 2
        for field in (fld, GaugeField(fld.xs, fld.ys, fld.omega0, fld.omega1)):
            with monkeypatch.context() as m:
                products = _count_products(m, field)
                solve_gauge_ode(field, steps=steps)
            bound = 3 + int(np.ceil(np.log2(steps))) + int(np.ceil(np.log2(i0)))
            assert 3 <= len(products) <= bound
            assert products[0][0] == steps * i0  # the first product takes every substep


def _mp_expm(x):
    """exp of one n x n matrix at 50 significant digits, rounded to complex."""
    with mpmath.workdps(50):
        m = mpmath.expm(mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in x]))
        return np.array([[complex(m[i, j]) for j in range(len(x))] for i in range(len(x))])


_SWITCH = np.sqrt(gauge._Q_SERIES)


def _rank2_case(kind, complex_, data):
    """One 2 x 2 matrix of the given kind; q = -det(X - tr X / 2) is named per kind."""
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    phase = data.draw(st.floats(0.0, 2 * np.pi)) if complex_ else 0.0  # of the switch cases' d
    mu = data.draw(unit) + (1j * data.draw(unit) if complex_ else 0.0)
    if kind == "random":
        x = data.draw(arrays(float, (2, 2), elements=unit))
        if complex_:
            x = x + 1j * data.draw(arrays(float, (2, 2), elements=unit))
        return x
    if kind == "scalar":  # q = 0
        return mu * np.eye(2)
    if kind == "jordan":  # q = 0, nilpotent part
        return np.array([[mu, data.draw(st.floats(0.5, 1.0))], [0.0, mu]])
    if kind in ("above", "below"):  # |q| = _Q_SERIES (1 +- 2e-9), either side of the switch
        d = _SWITCH * (1.0 + (1e-9 if kind == "above" else -1e-9))
        if complex_:
            return mu * np.eye(2) + np.diag([d, -d]) * np.exp(1j * phase)
        if data.draw(st.booleans()):  # real rotation part, q < 0
            return mu * np.eye(2) + np.array([[0.0, d], [-d, 0.0]])
        return mu * np.eye(2) + np.diag([d, -d])
    if kind == "rotation":  # q = -t^2 < 0 for real input
        t = data.draw(st.floats(0.1, 1.0))
        return np.array([[mu, t], [-t, mu]])
    # non-normal: triangular, off-diagonal entry up to 1e3 times the diagonal
    lam = data.draw(arrays(float, 2, elements=unit))
    if complex_:
        lam = lam + 1j * data.draw(arrays(float, 2, elements=unit))
    return np.array([[lam[0], data.draw(st.floats(1.0, 1e3))], [0.0, lam[1]]])


@settings(max_examples=250, deadline=None)
@given(kind=st.sampled_from(["random", "scalar", "jordan", "above", "below", "rotation",
                             "nonnormal"]),
       complex_=st.booleans(), log_norm=st.floats(-8.0, 2.0), data=st.data())
def test_rank2_expm_matches_50_digit_mpmath(kind, complex_, log_norm, data):
    x = _rank2_case(kind, complex_, data)
    norm = np.abs(x).sum(axis=0).max()
    assume(norm > 0)
    if kind not in ("above", "below"):  # those keep their q at the switch
        x = x * (10.0 ** log_norm / norm)
        norm = np.abs(x).sum(axis=0).max()
    got, want = _expm(x), _mp_expm(x)
    assert np.isrealobj(got) == np.isrealobj(x)
    bound = 1e-14 * max(1.0, norm) * np.abs(want).max()
    assert np.abs(got - want).max() <= bound


def test_rank2_expm_real_input_and_nonfinite_slices():
    rng = np.random.default_rng(18)
    for a in (rng.standard_normal((7, 2, 2)),
              rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2))):
        a[:, 0, 1] *= 10.0  # some slices scaled and squared
        bad = [1, 3, 4]
        a[1, 0, 1], a[3, 1, 1], a[4, 0, 0] = np.nan, np.inf, -np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            got = _expm(a)
        good = [0, 2, 5, 6]
        assert got.dtype == a.dtype
        assert not np.isfinite(got[bad]).all(axis=(1, 2)).any()
        # the finite slices come out as they do without the others
        assert np.array_equal(got[good], _expm(a[good]))
        assert _expm_misses(a[good]).size == 0


def test_rank2_inverse_and_determinant():
    rng = np.random.default_rng(19)
    g = _expm(rng.standard_normal((5, 7, 2, 2)) + 1j * rng.standard_normal((5, 7, 2, 2)))
    assert np.max(np.abs(gauge._det(g) - np.linalg.det(g))) < 1e-13 * np.abs(g).max() ** 2
    assert np.max(np.abs(_mm(gauge._inv(g), g) - np.eye(2))) < 1e-13
    g3 = _expm(rng.standard_normal((4, 3, 3)))
    assert np.array_equal(gauge._inv(g3), np.linalg.inv(g3))
    assert np.array_equal(gauge._det(g3), np.linalg.det(g3))


def test_monodromy_rejects_off_grid_points():
    fld = constant_field(np.zeros((2, 2), complex), n_x=17, n_y=9)
    with pytest.raises(StructuralError, match=r"\(-1, 0\) is off the 17 x 9 grid"):
        monodromy(fld, [(0, 0), (-1, 0), (0, 0)], 4)
    with pytest.raises(StructuralError, match=r"\(17, 2\) is off the 17 x 9 grid"):
        monodromy(fld, [(16, 2), (17, 2), (16, 2)], 4)
    with pytest.raises(StructuralError, match=r"\(3, 9\) is off"):
        monodromy(fld, [(3, 8), (3, 9), (3, 8)], 4)


def test_rectangle_path_rejects_off_grid_corners():
    fld = constant_field(np.zeros((2, 2), complex), n_x=17, n_y=9)
    for corners in ((-1, 0, 4, 4), (0, -2, 4, 4), (10, 2, 17, 4), (10, 2, 16, 9)):
        with pytest.raises(StructuralError, match="off the 17 x 9 grid"):
            rectangle_path(fld, *corners)
    assert rectangle_path(fld, 0, 0, 16, 8)[-1] == (0, 0)


@settings(max_examples=200, deadline=None)
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       complex_=st.sampled_from([(False, False), (False, True), (True, False), (True, True)]),
       data=st.data())
def test_rank2_mm_is_bitwise_the_broadcast_formula(shapes, complex_, data):
    def draw(batch, cplx):
        elements = st.floats(allow_nan=False, allow_infinity=False)
        x = data.draw(arrays(float, batch + (2, 2), elements=elements))
        return x + 1j * data.draw(arrays(float, batch + (2, 2), elements=elements)) if cplx else x

    a, b = (draw(shape, cplx) for shape, cplx in zip(shapes.input_shapes, complex_))
    with np.errstate(over="ignore", invalid="ignore"):
        want = a[..., :, 0, None] * b[..., None, 0, :]
        want += a[..., :, 1, None] * b[..., None, 1, :]
        got = _mm(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _mp_conjugate(a1, a2, f):
    """exp(-f A2) A1 exp(f A2) at 50 significant digits, and both exponentials, rounded."""
    def rounded(m):
        return np.array([[complex(m[i, j]) for j in range(2)] for i in range(2)])

    with mpmath.workdps(50):
        m1, m2 = (mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in x])
                  for x in (a1, a2))
        e, ei = mpmath.expm(mpmath.mpf(f) * m2), mpmath.expm(-mpmath.mpf(f) * m2)
        return rounded(ei * m1 * e), rounded(e), rounded(ei)


def test_rank2_conjugator_matches_the_expm_product_and_50_digits():
    # per point, against the 50-digit value: 1e-13 max(1, ||f A2||_1) times
    # ||E^-1||_1 ||A1||_1 ||E||_1, E = exp(f A2); the product form of _expm
    # meets the same bound, so the two forms agree within twice it
    def norm1(m):
        return np.abs(m).sum(axis=0).max()

    for seed in range(3):
        for strength in (0.4, 1.0, 2.0, 4.0):
            rng = np.random.default_rng(seed)
            # as pure_gauge_field draws them; |f2| <= 2.55 on its collar
            a1, a2 = (strength * (rng.standard_normal((2, 2))
                                  + 1j * rng.standard_normal((2, 2))) / 2 for _ in range(2))
            nil = a2 - np.trace(a2) / 2 * np.eye(2)
            switch = np.sqrt(gauge._Q_SERIES / abs(np.linalg.det(nil)))  # |f^2 q0| at the switch
            f = np.concatenate([np.linspace(-3.0, 3.0, 13), [1e-9, -1e-3],
                                switch * np.array([1 - 1e-9, 1 + 1e-9])])
            got = _conjugator(a1, a2)(f)
            x = f[:, None, None] * a2
            product = _mm(_mm(_expm(-x), a1), _expm(x))
            for i, fi in enumerate(f):
                want, e_mp, ei_mp = _mp_conjugate(a1, a2, fi)
                bound = 1e-13 * max(1.0, norm1(fi * a2)) * norm1(ei_mp) * norm1(a1) * norm1(e_mp)
                assert np.abs(got[i] - want).max() <= bound
                assert np.abs(got[i] - product[i]).max() <= 2 * bound


def test_conjugator_keeps_the_product_form_off_rank_2():
    rng = np.random.default_rng(22)
    a1, a2 = (0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 3
              for _ in range(2))
    f = np.linspace(-2.5, 2.5, 7).reshape(7, 1)
    x = f[..., None, None] * a2
    assert np.array_equal(_conjugator(a1, a2)(f), _mm(_mm(_expm(-x), a1), _expm(x)))


def test_spline_maps_match_cubic_spline():
    # bound fixed before the runs: 1e-14 max|v| at every point
    rng = np.random.default_rng(20)
    for n in (5, 9, 17, 33):
        xs = np.linspace(-0.5, 0.5, n)
        dx, i0 = xs[1] - xs[0], (n - 1) // 2
        v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        spline, bound = CubicSpline(xs, v, axis=0), 1e-14 * np.abs(v).max()
        for steps in (1, 3, 4):
            offsets = np.arange(2 * steps * i0 + 1) * (dx / (2 * steps))
            want = spline(np.stack([xs[i0] + offsets, xs[i0] - offsets], axis=1))
            assert np.abs(_apply(_stage_weights(n, steps), v) - want).max() <= bound
        for substeps in (1, 3, 12):
            want = spline(xs[:-1, None] + (np.arange(substeps) + 0.5) * (dx / substeps))
            assert np.abs(_apply(_midpoint_weights(n, substeps), v) - want).max() <= bound


def test_deriv4_matrix_matches_the_stencils():
    # bound fixed before the runs: 2 gamma_8 (largest row sum of |weights| / 12)
    # max|v| / h, the two sides each erring by at most gamma_8 times it
    k = 8 * np.finfo(float).eps
    rng = np.random.default_rng(21)
    for n, h in ((5, 0.25), (6, 0.1), (17, 1 / 16), (33, 1 / 32), (65, 1 / 64)):
        for shape, axis in (((n,), 0), ((n, 4, 2, 2), 0), ((3, n, 2, 2), 1)):
            v = rng.standard_normal(shape)
            if len(shape) > 1:
                v = v + 1j * rng.standard_normal(shape)
            bound = 2 * k / (1 - k) * (128 / 12) * np.abs(v).max() / h
            got, want = _deriv4(v, h, axis), deriv4_stencil_oracle(v, h, axis)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.abs(got - want).max() <= bound
    assert _deriv_matrix(17, 1 / 16) is _deriv_matrix(17, 1 / 16)
    with pytest.raises(StructuralError, match="at least 5 samples"):
        _deriv4(np.zeros(4), 0.1, 0)


def test_scaled_identity_gamma_is_not_degenerate():
    # omega0 = c I: gamma = e^{-c x} I is perfectly conditioned although
    # |det gamma| falls to e^{-c} at x = 0.5.  RK4 advances it by the
    # amplification R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 per substep,
    # z = -c h with h = +-dx / steps
    steps, n_x = 4, 17
    i0 = (n_x - 1) // 2
    for c in (20.0, 40.0):
        fld = constant_field(c * np.eye(2, dtype=complex), n_x=n_x, n_y=9)
        gam = solve_gauge_ode(fld, steps=steps).gamma
        for ix in range(n_x):
            z = -c * np.sign(ix - i0) * fld.dx / steps
            want = (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) ** (steps * abs(ix - i0))
            assert np.abs(gam[ix] - want * np.eye(2)).max() <= 1e-12 * want


def test_degenerate_gamma_names_slice_ratio_and_floor():
    xs, ys = np.linspace(-0.5, 0.5, 5), np.linspace(0.0, 1.0, 5)
    gam = np.tile(np.eye(2, dtype=complex), (5, 5, 1, 1))
    gam[4, 3] = 1e-200 * np.eye(2)  # tiny but orthogonal rows: not degenerate
    GaugeTransformation(xs, ys, gam)
    gam[3, 1] = [[1.0, 1.0], [1.0, 1.0 + 1e-10]]  # |det| / (|r0| |r1|) = 1e-10 / 2
    with pytest.raises(StructuralError, match=r"gamma degenerates on the grid: at \(ix, iy\) = "
                                              r"\(3, 1\), \|det gamma\| / prod \|\|row\|\| = "
                                              r"5\.000e-11 < 1e-08"):
        GaugeTransformation(xs, ys, gam)
    gam[0, 4] = 0.0  # a zero row has no ratio: nan is reported first
    with pytest.raises(StructuralError, match=r"at \(ix, iy\) = \(0, 4\), .* = nan < 1e-08"):
        GaugeTransformation(xs, ys, gam)
