"""Failure census: every draw of the first-design generators, none filtered.

    python3 perfbench/census.py --seed 11 --draws 200

The timed workloads hold only inputs on which every op passes its oracle, so
that a run's throughput and latency are not mixed with error paths.  The
program does fail on other legitimate inputs, and this script keeps those
failures in view: it runs the draws the benchmark first used, keeps every one
(no filtering, no re-seeding), checks each with the same oracle as the timed
workloads and prints the failures by exit code and first error line.

* refined: ``chirality.random_chirality_complex(rng, m, max_dim)`` with m in
  {1, 3} and max_dim in {4, 16, 32}, in turn;
* holo: a 2-cell circle on the rank-2 curve c0 + z c1 with
  c0 = 2 + 0.3 G, whose eigenvalues come near 1, where sigma vanishes.

Run from the repository root.  The last stdout line is one JSON object:
family -> {"draws", "failed", "causes"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFINED_SHAPES = [(m, max_dim) for max_dim in (4, 16, 32) for m in (1, 3)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--draws", type=int, default=200, help="draws per family")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath("src"))
    import workloads as wl
    from run import SCRATCH, attempt, cause_key
    from torsionkit import chirality

    workdir = os.path.join(SCRATCH, f"census-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    result = {}
    try:
        ops = []
        for i in range(args.draws):
            m, max_dim = REFINED_SHAPES[i % len(REFINED_SHAPES)]
            x = chirality.random_chirality_complex(rng, m, max_dim)
            doc = wl._chirality_doc(x.complex.dims, x.complex.differentials,
                                    x.gamma, x.h)
            path, _ = wl._write(workdir, f"{i}-chirality.json", doc)
            ops.append(wl.Op("refined", ["refined", path], {}))
        result["refined"] = tally(wl, attempt, cause_key, ops)
        ops = []
        cw, _ = wl._write(workdir, "holo-cw.json", wl._cw_doc(*wl._circle_cells(2), ["t"]))
        for i in range(args.draws):
            c0 = 2.0 * np.eye(2) + 0.3 * wl._gaussian(rng, 2)
            c1 = 0.25 * wl._gaussian(rng, 2)
            doc = {"kind": "curve", "rank": 2, "radius": 0.25, "relations": [],
                   "generators": {"t": [wl._matrix(c0), wl._matrix(c1)]}}
            curve, _ = wl._write(workdir, f"{i}-curve.json", doc)
            ops.append(wl.Op("holo", ["holo", cw, curve], {}))
        result["holo"] = tally(wl, attempt, cause_key, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for family, r in result.items():
        print(f"{family}: {r['failed']} of {r['draws']} draws failed")
        for cause, n in sorted(r["causes"].items(), key=lambda kv: -kv[1]):
            print(f"  {n:5d}  {cause}")
    print(json.dumps(result, sort_keys=True))
    return 0


def tally(wl, attempt, cause_key, ops) -> dict:
    causes = Counter()
    for op in ops:
        _, cause, _ = attempt(wl, op)
        if cause is not None:
            causes[cause_key(cause)] += 1
    return {"draws": len(ops), "failed": sum(causes.values()), "causes": dict(causes)}


if __name__ == "__main__":
    sys.exit(main())
