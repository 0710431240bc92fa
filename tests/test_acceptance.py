"""Acceptance suite: every selftest criterion at its pinned seed, plus the
checks that compare against the brute-force oracles of oracles.py.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Thresholds and budgets are pinned in torsionkit.selftest.
"""

import math
import time

import numpy as np
import pytest

from torsionkit.chain import DetLineElement, cone, fusion, les_of_ses, torsion_acyclic
from torsionkit.selftest import CRITERIA, random_acyclic_complex, run_criterion

from oracles import circle_det_euler_product, fusion_bruteforce, \
    milnor_torsion_bruteforce
from sequences import conjugated_ses, split_ses

# seeds other than 3 (the CLI selftest test's seed) that a criterion is measured at
SEEDS = {"rho_cut_invariance": 2026, "holomorphy_certification": 7,
         "sigma_sign_relation": 11, "projection_derivative_structure": 4,
         "temporal_gauge_pipeline": 77, "torsion_complement_independence": 11}


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result, seconds = run_criterion(criterion, SEEDS.get(criterion.name, 3))
    budget = criterion.budget_s
    report(criterion.name, result["pass"] and (budget is None or seconds < budget),
           f"{result['value']} against {result['threshold']}, {result['detail']}, "
           f"{seconds:.2f}s" + (f" (budget {budget}s)" if budget else ""))


def test_criterion_2_circle_zeta_determinants():
    # criterion 2's Euler-product half: an independent spectral-product oracle
    # (truncated Euler product, Richardson); the 1 s budget covers both halves
    zeta = next(c for c in CRITERIA if c.name == "circle_zeta_determinants")
    result, seconds = run_criterion(zeta, 3)
    t0 = time.perf_counter()
    o_pi = circle_det_euler_product(math.pi)
    o_23 = circle_det_euler_product(2 * math.pi / 3)
    elapsed = seconds + time.perf_counter() - t0
    report("criterion-2 circle zeta determinant",
           result["pass"] and abs(o_pi - 4.0) < 1e-6 and abs(o_23 - 3.0) < 1e-6
           and elapsed < zeta.budget_s,
           f"{result['detail']}, oracle {o_pi:.8f}/{o_23:.8f}, {elapsed:.2f}s")


def test_criterion_11_bruteforce_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst_t = worst_f = worst_c = worst_l = 0.0
    for case in range(100):
        # torsion_acyclic vs independent Milnor evaluation
        c, _ = random_acyclic_complex(rng, max_len=3, max_dim=4)
        t = torsion_acyclic(c).coordinate
        bf = milnor_torsion_bruteforce(c.dims, [c.d(j) for j in range(len(c.dims) - 1)],
                                       rng)
        worst_t = max(worst_t, abs(t - bf) / abs(t))

        # fusion vs independent per-degree determinants
        ses = split_ses(rng)
        ses2 = conjugated_ses(rng, ses)
        one_a = DetLineElement(1.0, "std", tuple(enumerate(ses.a.dims)))
        one_c = DetLineElement(1.0, "std", tuple(enumerate(ses.c.dims)))
        f_lib = fusion(one_a, one_c, ses2).coordinate
        f_bf = fusion_bruteforce(ses2, rng)
        worst_f = max(worst_f, abs(f_lib - f_bf) / abs(f_bf))

        # cone torsion of the zero map vs bruteforce on the assembled block complex
        c1, _ = random_acyclic_complex(rng, max_len=2, max_dim=3)
        c2, _ = random_acyclic_complex(rng, max_len=2, max_dim=3)
        f0 = [np.zeros(((c2.dims[j] if j < len(c2.dims) else 0), c1.dims[j]), complex)
              for j in range(len(c1.dims))]
        cn = cone(f0, c1, c2)
        t_lib = torsion_acyclic(cn).coordinate
        t_bf = milnor_torsion_bruteforce(cn.dims,
                                         [cn.d(j) for j in range(len(cn.dims) - 1)],
                                         rng)
        worst_c = max(worst_c, abs(t_lib - t_bf) / abs(t_lib))

        # les_of_ses torsion vs bruteforce torsion of the assembled LES complex
        les = les_of_ses(ses2)
        if any(d > 0 for d in les.les.dims):
            l_bf = milnor_torsion_bruteforce(
                les.les.dims, [les.les.d(j) for j in range(len(les.les.dims) - 1)],
                rng)
            worst_l = max(worst_l, abs(les.torsion - l_bf) / abs(les.torsion))
    ok = max(worst_t, worst_f, worst_c, worst_l) < 1e-9
    report("criterion-11 brute-force oracle equivalence", ok,
           f"100 cases: torsion {worst_t:.2e}, fusion {worst_f:.2e}, "
           f"cone {worst_c:.2e}, les {worst_l:.2e}")
