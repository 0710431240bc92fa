"""Gauge-fixing a flat connection into temporal gauge on a collar patch.

Starting from an exactly flat pure-gauge field omega = g^{-1} dg, we solve
d gamma/dx = -omega_0 gamma on all y-lines at once (RK4) and apply the
transformation law.  Afterwards the normal component vanishes and the
tangential component is x-independent, up to the discretization floor;
flatness and the loop monodromy conjugacy class are preserved.
"""

import numpy as np

from torsionkit import (curvature_residual, gauge_transform, monodromy,
                        pure_gauge_field, solve_gauge_ode, temporal_residual)
from torsionkit.gauge import rectangle_path

rng = np.random.default_rng(7)
field = pure_gauge_field(rng, n=2, n_x=65, n_y=65, eps=0.5)

t0, t1 = temporal_residual(field)
print(f"before: ||omega_0|| = {t0:.3f}, max ||d_x omega_1|| = {t1:.3f}, "
      f"curvature = {curvature_residual(field):.2e}")

gt = solve_gauge_ode(field, steps=4)
fixed = gauge_transform(field, gt)
t0, t1 = temporal_residual(fixed)
print(f"after : ||omega_0|| = {t0:.2e}, max ||d_x omega_1|| = {t1:.2e}, "
      f"curvature = {curvature_residual(fixed):.2e}")

i0 = (field.xs.size - 1) // 2
path = rectangle_path(field, i0, 8, i0 + 16, 40)
ev = lambda m: np.sort_complex(np.linalg.eigvals(m))
before = ev(monodromy(field, path, substeps=12))
after = ev(monodromy(fixed, path, substeps=12))
print("\nloop monodromy eigenvalues (base on the x = 0 line, gamma = 1 there):")
print("  before:", np.round(before, 8))
print("  after :", np.round(after, 8))
print("  max deviation:", np.max(np.abs(before - after)))
