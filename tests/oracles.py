"""Independent brute-force oracles used by the tests.

These deliberately avoid the library code paths: random complements with
direct linear solves instead of SVD frames, Laplacian determinant products for
the torsion modulus, explicit per-degree determinants for fusion, contour
integration for spectral projectors, and truncated Euler products for the
circle determinant.
"""

from __future__ import annotations

import numpy as np


def milnor_torsion_bruteforce(dims, diffs, rng: np.random.Generator) -> complex:
    """Torsion of an acyclic complex straight from the definition.

    Picks random complements V_j of ker d_j = im d_{j-1}, assembles the bases
    [d V_{j-1} | V_j] and multiplies dets with exponents (-1)^{j+1}.
    Retries on badly conditioned random choices.
    """
    m = len(dims) - 1
    ranks = []
    prev = 0
    for j in range(m + 1):
        ranks.append(dims[j] - prev)
        prev = ranks[-1]
    assert ranks[-1] == 0 or dims[-1] == ranks[-1] - 0  # acyclic bookkeeping
    for _ in range(20):
        vs = [rng.standard_normal((dims[j], ranks[j]))
              + 1j * rng.standard_normal((dims[j], ranks[j])) for j in range(m + 1)]
        coord = 1.0 + 0.0j
        ok = True
        for j in range(m + 1):
            cols = []
            if j > 0 and ranks[j - 1]:
                cols.append(diffs[j - 1] @ vs[j - 1])
            if ranks[j]:
                cols.append(vs[j])
            t = np.hstack(cols) if cols else np.zeros((dims[j], 0), complex)
            if t.shape[0] != t.shape[1]:
                return complex("nan")
            det = np.linalg.det(t) if t.size else 1.0 + 0.0j
            if abs(det) < 1e-8:
                ok = False
                break
            coord *= det ** (-1 if j % 2 == 0 else 1)
        if ok:
            return coord
    raise RuntimeError("could not find a well-conditioned complement")


def torsion_modulus_via_laplacians(dims, diffs) -> float:
    """|torsion| of an acyclic complex from combinatorial Laplacian determinants.

    |tau|^2 = prod_j det(Delta_j)^{(-1)^{j+1} j} with
    Delta_j = d_j^* d_j + d_{j-1} d_{j-1}^* (standard inner products); this is
    a complement-free second route to the modulus.
    """
    m = len(dims) - 1
    total = 1.0
    for j in range(m + 1):
        dj = diffs[j] if j < m else np.zeros((0, dims[j]))
        dp = diffs[j - 1] if j > 0 else np.zeros((dims[j], 0))
        lap = np.zeros((dims[j], dims[j]), complex)
        if dj.size:
            lap += dj.conj().T @ dj
        if dp.size:
            lap += dp @ dp.conj().T
        det = np.linalg.det(lap).real if lap.size else 1.0
        total *= det ** ((1 if j % 2 else -1) * j)
    return float(np.sqrt(abs(total)))


def fusion_bruteforce(ses, rng: np.random.Generator) -> complex:
    """Per-degree determinant of [iota | lift] with lifts built by direct solve."""
    coord = 1.0 + 0.0j
    for j in range(len(ses.b.dims)):
        k = ses.b.dims[j]
        if k == 0:
            continue
        na, nc = ses.a.dims[j], ses.c.dims[j]
        cols = []
        if na:
            cols.append(ses.iota[j])
        if nc:
            # a lift: solve pi x = e_i with a random particular solution
            lift = np.linalg.lstsq(ses.pi[j], np.eye(nc), rcond=None)[0]
            # shift by a random kernel element to show lift-independence
            if na:
                lift = lift + ses.iota[j] @ (
                    rng.standard_normal((na, nc)) + 1j * rng.standard_normal((na, nc)))
            cols.append(lift)
        t = np.hstack(cols)
        coord *= np.linalg.det(t) ** (1 if j % 2 == 0 else -1)
    return coord


def contour_projector(a: np.ndarray, radius: float, n_nodes: int = 2048) -> np.ndarray:
    """Spectral projector by trapezoidal contour integration of the resolvent."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for k in range(n_nodes):
        phi = 2 * np.pi * k / n_nodes
        x = radius * np.exp(1j * phi)
        out += np.linalg.solve(x * np.eye(n) - a, np.eye(n)) * x
    return out / n_nodes


def circle_det_euler_product(theta: float, n_terms: int = 4000) -> float:
    """4 sin^2(theta/2) via the truncated Euler product with Richardson steps.

    sin(pi a) = pi a prod_{n>=1} (1 - a^2/n^2), a = theta / (2 pi); partial
    products converge like C/N, so two Richardson extrapolations in N give
    ~1/N^3 accuracy.
    """
    a = theta / (2 * np.pi)

    def partial(n):
        ns = np.arange(1, n + 1, dtype=float)
        prod = np.prod(1.0 - (a / ns) ** 2)
        val = np.pi * a * prod
        return 4.0 * val * val

    p1, p2, p4 = partial(n_terms), partial(2 * n_terms), partial(4 * n_terms)
    r1 = 2 * p2 - p1
    r2 = 2 * p4 - p2
    return float((4 * r2 - r1) / 3.0)


def gauge_ode_commuting_oracle(f_scalar, a_matrix, x: float, n_quad: int = 20000):
    """gamma(x) = exp(-A int_0^x f) for omega_0 = f(x) A (commuting family)."""
    import scipy.linalg as sla
    ts = np.linspace(0.0, x, n_quad)
    vals = np.array([f_scalar(t) for t in ts])
    integral = np.trapezoid(vals, ts)
    return sla.expm(-integral * a_matrix)


def gauge_ode_per_line_oracle(omega0_on_line, xs, ys, steps: int) -> np.ndarray:
    """gamma(x, y) by scalar RK4 along each y-line separately, x = 0 outward.

    omega0_on_line(x, iy) gives the (n, n) normal component on line iy at x;
    four evaluations per step, one matrix at a time.
    """
    n_x, i0 = xs.size, (xs.size - 1) // 2
    n = np.asarray(omega0_on_line(xs[i0], 0)).shape[0]
    gam = np.zeros((n_x, ys.size, n, n), dtype=np.complex128)
    for iy in range(ys.size):
        def a(x):
            return -np.asarray(omega0_on_line(x, iy), dtype=np.complex128)

        gam[i0, iy] = np.eye(n)
        for direction in (+1, -1):
            g = np.eye(n, dtype=np.complex128)
            x = xs[i0]
            h = direction * float(xs[1] - xs[0]) / steps
            last = n_x - 1 if direction > 0 else 0
            for idx in range(i0 + direction, last + direction, direction):
                for _ in range(steps):
                    k1 = a(x) @ g
                    k2 = a(x + h / 2) @ (g + h / 2 * k1)
                    k3 = a(x + h / 2) @ (g + h / 2 * k2)
                    k4 = a(x + h) @ (g + h * k3)
                    g = g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                    x += h
                gam[idx, iy] = g
    return gam


def monodromy_per_factor_oracle(omega_at, xs, ys, path, substeps: int) -> np.ndarray:
    """Ordered product of exp(-(omega0 dx + omega1 dy)), one midpoint factor at a time.

    omega_at(x, y) gives the pair of (n, n) components at one point.
    """
    import scipy.linalg as sla
    out = None
    for (ix0, iy0), (ix1, iy1) in zip(path, path[1:]):
        dx = (xs[ix1] - xs[ix0]) / substeps
        dy = (ys[iy1] - ys[iy0]) / substeps
        for k in range(substeps):
            o0, o1 = omega_at(xs[ix0] + (k + 0.5) * dx, ys[iy0] + (k + 0.5) * dy)
            f = sla.expm(-(o0 * dx + o1 * dy))
            out = f if out is None else f @ out
    return out
