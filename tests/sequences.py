"""Short exact sequences of cochain complexes that the chain and acceptance tests fuse."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from torsionkit.chain import GradedComplex, ShortExactSequenceData
from torsionkit.selftest import conjugate, coordinate_ses, random_isos


def split_ses(rng: np.random.Generator, degs: int = 2) -> ShortExactSequenceData:
    """0 -> A -> A (+) C -> C -> 0 for random A, C of length degs."""
    dims_a = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    dims_c = tuple(int(rng.integers(1, 3)) for _ in range(degs))
    da = [0.4 * (rng.standard_normal((dims_a[j + 1], dims_a[j]))
                 + 1j * rng.standard_normal((dims_a[j + 1], dims_a[j])))
          for j in range(degs - 1)]
    dc = [0.4 * (rng.standard_normal((dims_c[j + 1], dims_c[j]))
                 + 1j * rng.standard_normal((dims_c[j + 1], dims_c[j])))
          for j in range(degs - 1)]
    a = GradedComplex(dims_a, da)
    c = GradedComplex(dims_c, dc)
    return coordinate_ses(a, a.direct_sum(c), c)


def conjugated_ses(rng: np.random.Generator, ses) -> ShortExactSequenceData:
    """ses with B, iota and pi moved by random_isos of B (scale 0.3): a non-split sequence."""
    g = random_isos(rng, ses.b.dims, 0.3)
    return ShortExactSequenceData(ses.a, conjugate(ses.b, g), ses.c,
                                  [gj @ i for gj, i in zip(g, ses.iota)],
                                  [p @ sla.inv(gj) for gj, p in zip(g, ses.pi)])
