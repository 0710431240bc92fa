"""Oracle census: every benchmark op's output bytes, verdict and margin, one JSON line each.

    python3 tools/oracle_census.py --workload gauge-collar --seeds 1-60 --out new.jsonl
    python3 tools/oracle_census.py --compare base.jsonl new.jsonl

Run from the root of the checkout to be measured: the program is imported
from its ``src/`` and the ops and oracles from its ``perfbench/workloads.py``,
which this script only reads.  For each seed it builds the workload's
warm-up ops and timed deck (``workloads.build_deck``), runs every op once
through ``workloads.run_op`` and checks it with ``workloads.check``, at one
BLAS thread.  Each op gives one line: exit code, sha256 of the report and of
stderr, the verdict and its margins as fractions of the oracle's tolerance:
for gauge ops the temporal residual and the monodromy eigenvalue gap, for
refined ops the Det_gr reconstruction deviation and rho's spread across cuts,
for circle ops the det' Laplacian and eta deviations from their closed forms,
for torsion ops sigma / sigma_1's distance from +-1, for glue ops the sigma
relation ratios' distance from their common sign, and for holo ops the two
Cauchy-Riemann residuals.

--compare lists every op whose bytes, verdict or margin moved between two
such files and prints, per side, the failures and the worst margin; it exits
1 when an op is missing from one side or its verdict moved, else 0.  A
change meant to be bit-identical should list no op; one that moves results
by rounding should move bytes and margins only.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'1-60' or '1,4,7-9' -> sorted seed list."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gauge_bytes(out: dict) -> bytes:
    """Canonical bytes of a gauge pipeline output: float hex of every residual, raw monodromies."""
    import numpy as np
    parts = [float(v).hex().encode() for key in ("temporal", "curvature") for v in out[key]]
    parts += [np.ascontiguousarray(m, dtype=np.complex128).tobytes() for m in out["monodromy"]]
    return b"\0".join(parts)


def gauge_margins(wl, op, out: dict) -> dict:
    """Temporal residual and monodromy eigenvalue gap over the oracle's tolerance."""
    import numpy as np
    tol = wl.GAUGE_TOL * ((wl.GAUGE_REF_GRID - 1) / (op.expect["grid"] - 1)) ** 4
    ev = [np.sort_complex(np.linalg.eigvals(m)) for m in out["monodromy"]]
    return {"temporal": max(out["temporal"]) / tol,
            "monodromy": float(np.max(np.abs(ev[0] - ev[1]))) / tol}


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def refined_margins(output: str) -> dict:
    """Det_gr vs exp(xi - i pi xi' - i pi eta) over 1e-10, rho's spread across cuts over 1e-8."""
    import numpy as np
    res = json.loads(output)["results"]
    det = _complex(res["graded_determinant"])
    ref = complex(np.exp(_complex(res["xi"]) - 1j * np.pi * _complex(res["xi_prime"])
                         - 1j * np.pi * _complex(res["eta"])))
    return {"det_gr": abs(det - ref) / abs(ref) / 1e-10,
            "rho_cuts": res["max_relative_deviation"] / 1e-8}


def circle_margins(expect: dict, output: str) -> dict:
    """det' vs 4 sin^2(pi a) relative and eta vs 1 - 2a, each over 1e-10."""
    import numpy as np
    res = json.loads(output)["results"]
    a = expect["a"]
    ref = 4 * np.sin(np.pi * a) ** 2
    return {"det_laplacian": abs(_complex(res["det_laplacian"]) - ref) / abs(ref) / 1e-10,
            "eta": abs(_complex(res["eta"]) - (1 - 2 * a)) / 1e-10}


def torsion_margins(expect: dict, output: str) -> dict:
    """min |sigma / sigma_1 -+ 1| over 1e-9."""
    ratio = _complex(json.loads(output)["results"]["sigma"]) / expect["sigma_1"]
    return {"sigma": min(abs(ratio - 1), abs(ratio + 1)) / 1e-9}


def glue_margins(expect: dict, output: str) -> dict:
    """max |ratio - sign| over the sigma relation ratios, sign that of the first, over 1e-9."""
    ratios = [_complex(v) for v in json.loads(output)["results"]["sigma_relation_ratios"]]
    sign = 1.0 if ratios[0].real > 0 else -1.0
    return {"sigma_relation": max(abs(r - sign) for r in ratios) / 1e-9}


def holo_margins(expect: dict, output: str) -> dict:
    """The sigma and section-ratio Cauchy-Riemann residuals over 1e-6."""
    res = json.loads(output)["results"]
    return {"sigma_cr": res["sigma"]["residual"] / 1e-6,
            "section_ratio_cr": res["section_ratio"]["residual"] / 1e-6}


# the margins of a CLI op from its expectation and its report, per op kind
_MARGINS = {"refined": lambda expect, output: refined_margins(output),
            "circle": circle_margins, "torsion": torsion_margins,
            "glue": glue_margins, "holo": holo_margins}


def census_op(wl, op) -> dict:
    """Run and check one op; an op that raises is recorded with its error, not skipped."""
    try:
        code, output, err = wl.run_op(op)
    except Exception as e:  # recorded as the op's outcome
        return {"exit": "raised", "report_sha256": None,
                "stderr_sha256": _sha(f"{type(e).__name__}: {e}".encode()),
                "verdict": f"raised {type(e).__name__}: {e}", "margins": {}}
    if op.kind == "gauge":
        report, margins = gauge_bytes(output), gauge_margins(wl, op, output)
    else:
        report = output.encode()
        margins = _MARGINS[op.kind](op.expect, output) if output.strip() else {}
    if code != 0:
        verdict = f"exit {code}: {wl.error_line(output, err)}"
    else:
        miss = wl.check(op, output)
        verdict = "ok" if miss is None else f"oracle: {miss[0]}"
    return {"exit": code, "report_sha256": _sha(report),
            "stderr_sha256": _sha(err.encode()), "verdict": verdict, "margins": margins}


def run_census(workload: str, seeds: list[int], out_path: str) -> int:
    if not os.path.isdir(os.path.join("src", "torsionkit")):
        print("oracle_census: run from the repository root (src/torsionkit not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
    import workloads as wl
    failed = total = 0
    with open(out_path, "w") as f:
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix="oracle-census-")
            try:
                warm, deck = wl.build_deck(workload, seed, workdir)
                for phase, ops in (("warm", warm), ("deck", deck)):
                    for index, op in enumerate(ops):
                        line = {"workload": workload, "seed": seed, "phase": phase,
                                "index": index, "kind": op.kind, **census_op(wl, op)}
                        f.write(json.dumps(line, sort_keys=True) + "\n")
                        total += 1
                        failed += line["verdict"] != "ok"
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": workload, "seeds": [seeds[0], seeds[-1]], "ops": total,
                      "failed": failed}))
    return 0


def _load(path: str) -> dict:
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return {(r["workload"], r["seed"], r["phase"], r["index"]): r for r in rows}


def _worst(rows: dict):
    """(largest margin, its op key and name) over all recorded margins, or None."""
    cands = [(v, key, name) for key, r in rows.items() for name, v in r["margins"].items()]
    return max(cands) if cands else None


def compare(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    status = 0
    moved_ops, shift = 0, 0.0
    shift_at = None
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None:
            print(f"{key}: only in {path_a if rb is None else path_b}")
            status = 1
            continue
        moved = [f for f in ("exit", "report_sha256", "stderr_sha256") if ra[f] != rb[f]]
        if ra["verdict"] != rb["verdict"]:
            moved.append(f"verdict {ra['verdict']!r} -> {rb['verdict']!r}")
            status = 1
        for name in sorted(ra["margins"].keys() | rb["margins"].keys()):
            ma, mb = ra["margins"].get(name), rb["margins"].get(name)
            if ma != mb:
                moved.append(f"{name} {ma!r} -> {mb!r}")
                if ma is not None and mb is not None and abs(mb - ma) >= shift:
                    shift, shift_at = abs(mb - ma), (key, name)
        if moved:
            moved_ops += 1
            print(f"{key} {ra['kind']}: " + "; ".join(moved))
    for label, path, rows in (("A", path_a, a), ("B", path_b, b)):
        failed = sum(r["verdict"] != "ok" for r in rows.values())
        worst = _worst(rows)
        text = (f"worst margin {worst[0]:.9g} of tolerance ({worst[2]}, op {worst[1]})"
                if worst else "no margins recorded")
        print(f"{label} {path}: {len(rows)} ops, {failed} failed, {text}")
    print(f"ops moved: {moved_ops}; largest margin shift {shift:.3g} of tolerance"
          + (f" ({shift_at[1]}, op {shift_at[0]})" if shift_at else ""))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="gauge-collar")
    p.add_argument("--seeds", default="1-60", help="e.g. 1-60 or 1,4,7-9")
    p.add_argument("--out", help="JSONL file to write, one line per op")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two census files instead of running one")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        p.error("--out is required unless --compare is given")
    return run_census(args.workload, parse_seeds(args.seeds), args.out)


if __name__ == "__main__":
    sys.exit(main())
