"""Command-line front end: deterministic JSON reports over the library pipelines.

Commands: torsion, refined, glue, holo, circle, gauge, selftest, validate.
Exit codes: 0 success, 2 input/schema error, 3 numerical-domain error,
4 invariant failure.  All numeric output carries 15 significant digits;
reports are byte-identical for fixed inputs, flags, and seed at a fixed BLAS
thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import selftest as selftest_mod
from .chain import cohomology, les_of_ses
from .chirality import admissible_lambdas, eta_xi_finite, graded_determinant, \
    odd_signature, rho
from .cw import (boundary_complex, build_cochain, build_relative,
                 check_sigma_relation, sigma, sigma_boundary, sigma_relative,
                 transmission_split, trivial_representation, validate_representation)
from .gauge import curvature_residual, gauge_transform, solve_gauge_ode, \
    temporal_residual
from .holomorphy import ComplexFamily, SectionModel, cr_order, doubled_cochain, \
    section_ratio_residual
from .linalg import AgmonError, DegeneracyError, SpectralGapError, StructuralError
from .schemas import (SchemaError, encode_complex, encode_real, load_document,
                      parse_any)
from .spectral import (CircleModel, ZetaEvaluator, eta_circle, gluing_check_lesch,
                       graded_det_circle, k_squared_holomorphy, rat_circle,
                       zeta_det_laplacian_circle, circle_zero_modes)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


def _encode(value):
    if isinstance(value, complex):
        return encode_complex(value)
    if isinstance(value, float):
        return encode_real(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return encode_real(float(value))
    if isinstance(value, (np.complexfloating,)):
        return encode_complex(complex(value))
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def emit_report(args, command: str, digests: dict, results: dict,
                tolerances: dict, flags: dict) -> None:
    report = {
        "command": command,
        "inputs": digests,
        "results": _encode(results),
        "tolerances": _encode(tolerances),
        "flags": _encode(flags),
        "seed": getattr(args, "seed", None),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as f:
            f.write(text + "\n")


def _load(path: str, kind: str):
    doc, digest = load_document(path)
    if doc["kind"] != kind:
        raise SchemaError(f"{path}: expected kind {kind!r}, got {doc['kind']!r}")
    return parse_any(doc), digest


def cmd_torsion(args) -> int:
    k, dk = _load(args.cw, "cw")
    rep, dr = _load(args.representation, "representation")
    res = validate_representation(rep, k)
    s = sigma(k, rep)
    s2 = sigma_relative(k, rep)
    tau = s.tensor(s2)
    results = {
        "relation_residual": res,
        "sigma": s.coordinate,
        "sigma_relative": s2.coordinate,
        "tau": tau.coordinate,
        "dims": list(build_cochain(k, rep).dims),
        "relative_dims": list(build_relative(k, rep).dims),
    }
    if k.boundary_subcomplex:
        results["sigma_boundary"] = sigma_boundary(k, rep).coordinate
        results["boundary_dims"] = list(boundary_complex(k, rep).dims)
    emit_report(args, "torsion", {"cw": dk, "representation": dr}, results,
                {"tol_rep": 1e-10}, {"pass": res <= 1e-10})
    return EXIT_OK if res <= 1e-10 else EXIT_INVARIANT


def cmd_refined(args) -> int:
    x, dx = _load(args.chirality, "chirality")
    x.validate()
    s = odd_signature(x)
    coh = cohomology(x.complex, tag="H(X)")
    lams = admissible_lambdas(s, 3)
    thetas = (args.theta, args.theta / 2.0 - 1.1)
    sweep = []
    vals = []
    for lam in lams:
        for th in thetas:
            try:
                r = rho(x, lam, th, coh_full=coh, s=s)
            except (SpectralGapError, AgmonError) as e:
                sweep.append({"lambda": lam, "theta": th, "skipped": str(e)})
                continue
            sweep.append({"lambda": lam, "theta": th, "rho": r.coordinate})
            vals.append(r.coordinate)
    if not vals:
        raise DegeneracyError("no admissible (lambda, theta) pair found")
    dev = max(abs(v - vals[0]) / abs(vals[0]) for v in vals)
    ex = eta_xi_finite(s, args.theta, lams[0])
    results = {
        "rho": vals[0],
        "sweep": sweep,
        "max_relative_deviation": dev,
        "eta": ex.eta,
        "xi": ex.xi,
        "xi_hat": ex.xi_hat,
        "xi_prime": ex.xi_prime,
        "graded_determinant": graded_determinant(s, lams[0], args.theta),
    }
    emit_report(args, "refined", {"chirality": dx}, results,
                {"invariance_tol": 1e-8}, {"pass": dev < 1e-8})
    return EXIT_OK if dev < 1e-8 else EXIT_INVARIANT


def cmd_glue(args) -> int:
    k, dk = _load(args.cw, "cw")
    digests = {"cw": dk}
    reps = []
    for i, path in enumerate(args.representations):
        rep, dr = _load(path, "representation")
        digests[f"representation{i}"] = dr
        reps.append(rep)
    if not reps:
        reps = [trivial_representation(n, k.generators) for n in (1, 2)]
    sign, ratios = check_sigma_relation(k, reps)
    results = {"sigma_relation_sign": sign,
               "sigma_relation_ratios": list(ratios)}
    ok = True
    if args.split:
        n_cells = set(args.split.split(","))
        ses1, ses2 = transmission_split(k, n_cells, reps[0])
        for tag, ses in (("first", ses1), ("second", ses2)):
            ses.validate()
            les = les_of_ses(ses)
            results[f"transmission_{tag}"] = {
                "a_dims": list(ses.a.dims),
                "b_dims": list(ses.b.dims),
                "c_dims": list(ses.c.dims),
                "les_torsion": les.torsion,
            }
    emit_report(args, "glue", digests, results, {"ratio_tol": 1e-8}, {"pass": ok})
    return EXIT_OK


def cmd_holo(args) -> int:
    k, dk = _load(args.cw, "cw")
    curve, dc = _load(args.curve, "curve")
    curve.validate()
    h = args.h
    z0 = 0.0 + 0.0j

    def sigma_along(z):
        return sigma(k, curve.at(z)).coordinate

    r1, r2, order = cr_order(sigma_along, z0, h)
    results = {"sigma": {"residual": r1, "residual_half": r2, "order": order}}

    def sigma_anti(z):
        return sigma(k, curve.at(np.conj(z))).coordinate

    results["sigma_antiholomorphic_control"] = cr_order(sigma_anti, 0.05 + 0.03j, h)[0]

    # cone-based section ratio with the zero model (f = 1/tau)
    rep0 = curve.at(0.0)
    cd0 = doubled_cochain(k, rep0)
    from .chain import GradedComplex
    from .chirality import ChiralityComplex
    zero = ChiralityComplex(
        GradedComplex((0,) * len(cd0.dims),
                      [np.zeros((0, 0), complex)] * (len(cd0.dims) - 1)),
        [np.zeros((0, 0), complex)] * len(cd0.dims),
        [np.zeros((0, 0), complex)] * len(cd0.dims))
    model = SectionModel(
        ComplexFamily(lambda z: zero),
        lambda z: [np.zeros((d, 0), complex) for d in cd0.dims])
    f1, f2, f_order = section_ratio_residual(k, model, curve, z0, h)
    results["section_ratio"] = {"residual": f1, "residual_half": f2, "order": f_order}
    ok = r1 < args.tol and f1 < args.tol
    emit_report(args, "holo", {"cw": dk, "curve": dc}, results,
                {"cr_tol": args.tol, "h": h}, {"pass": ok})
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_circle(args) -> int:
    if args.input:
        m, dm = _load(args.input, "circle")
        digests = {"circle": dm}
    else:
        lam = args.r * complex(math.cos(args.theta), math.sin(args.theta))
        m = CircleModel(args.L, lam)
        digests = {}
    zeta = ZetaEvaluator(cutoff=args.cutoff)
    results = {
        "holonomy": complex(m.holonomy),
        "L": m.circumference,
        "det_laplacian": zeta_det_laplacian_circle(m, zeta),
        "zero_modes": circle_zero_modes(m),
        "eta": eta_circle(m, zeta),
    }
    if m.acyclic:
        results["graded_determinant"] = graded_det_circle(m, args.theta_agmon, zeta)
        results["rho_an"] = rat_circle(m, args.theta_agmon, zeta)
    results["lesch_residual"] = gluing_check_lesch(args.l1, args.l2, zeta)
    results["k_squared_residual"] = k_squared_holomorphy(
        lambda z: 2j + z, 0.0, args.h, zeta)
    ok = results["lesch_residual"] < 1e-6 and results["k_squared_residual"] < 1e-7
    emit_report(args, "circle", digests, results,
                {"lesch_tol": 1e-6, "k2_tol": 1e-7}, {"pass": ok})
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_gauge(args) -> int:
    fld, df = _load(args.field, "gauge-field")
    gt = solve_gauge_ode(fld, steps=args.steps)
    out = gauge_transform(fld, gt)
    t0, t1 = temporal_residual(out)
    curv_before = curvature_residual(fld)
    curv_after = curvature_residual(out)
    ok = t0 < args.tol and t1 < args.tol
    results = {
        "temporal_normal": t0,
        "temporal_tangential_xderiv": t1,
        "curvature_before": curv_before,
        "curvature_after": curv_after,
    }
    emit_report(args, "gauge", {"gauge-field": df}, results,
                {"temporal_tol": args.tol}, {"pass": ok})
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_selftest(args) -> int:
    results = selftest_mod.run_all(args.seed, args.level)
    flat = {}
    n_fail = 0
    for mod, items in results.items():
        for name, ok, detail in items:
            flat[f"{mod}.{name}"] = {"pass": bool(ok), "detail": detail}
            if not ok:
                n_fail += 1
    emit_report(args, "selftest", {}, flat, {},
                {"pass": n_fail == 0, "failures": n_fail})
    return EXIT_OK if n_fail == 0 else EXIT_INVARIANT


def cmd_validate(args) -> int:
    diagnostics = []
    for path in args.files:
        try:
            doc, digest = load_document(path)
            obj = parse_any(doc)
        except SchemaError as e:
            diagnostics.append({"file": path, "error": str(e)})
            continue
        except (StructuralError, DegeneracyError) as e:
            diagnostics.append({"file": path, "error": str(e)})
            continue
        if doc["kind"] == "cw":
            rep = trivial_representation(1, obj.generators)
            try:
                build_cochain(obj, rep)
            except StructuralError as e:
                diagnostics.append({"file": path, "error": f"dd != 0: {e}"})
        if doc["kind"] == "representation":
            pass  # invertibility already checked by the constructor
    report = {"diagnostics": diagnostics}
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if not diagnostics else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torsionkit",
                                description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1, help="seed for randomized suites")
    p.add_argument("--tol", type=float, default=1e-6, help="pass/fail tolerance")
    p.add_argument("--json-out", type=str, default=None, help="also write the report here")
    p.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    p.add_argument("--cutoff", type=int, default=40, help="Euler-Maclaurin cutoff")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("torsion", help="sigma / tau of a CW complex and representation")
    s.add_argument("cw")
    s.add_argument("representation")
    s.set_defaults(fn=cmd_torsion)

    s = sub.add_parser("refined", help="refined torsion with lambda/theta sweep")
    s.add_argument("chirality")
    s.add_argument("--theta", type=float, default=-0.9)
    s.set_defaults(fn=cmd_refined)

    s = sub.add_parser("glue", help="sigma relation and transmission checks")
    s.add_argument("cw")
    s.add_argument("representations", nargs="*")
    s.add_argument("--split", type=str, default=None,
                   help="comma-separated cell ids of the separating subcomplex")
    s.set_defaults(fn=cmd_glue)

    s = sub.add_parser("holo", help="Cauchy-Riemann residual tables along a curve")
    s.add_argument("cw")
    s.add_argument("curve")
    s.set_defaults(fn=cmd_holo)

    s = sub.add_parser("circle", help="zeta determinants, eta, gluing residuals")
    s.add_argument("--input", type=str, default=None, help="circle JSON document")
    s.add_argument("--theta", type=float, default=math.pi)
    s.add_argument("--r", type=float, default=1.0)
    s.add_argument("--L", type=float, default=2 * math.pi)
    s.add_argument("--theta-agmon", type=float, default=-0.9)
    s.add_argument("--l1", type=float, default=1.0)
    s.add_argument("--l2", type=float, default=1.0)
    s.set_defaults(fn=cmd_circle)

    s = sub.add_parser("gauge", help="temporal gauge pipeline residuals")
    s.add_argument("field")
    s.add_argument("--steps", type=int, default=4)
    s.set_defaults(fn=cmd_gauge)

    s = sub.add_parser("selftest", help="run the invariant suites")
    s.add_argument("--level", choices=("quick", "full"), default="quick")
    s.set_defaults(fn=cmd_selftest)

    s = sub.add_parser("validate", help="schema and pre-flight checks only")
    s.add_argument("files", nargs="+")
    s.set_defaults(fn=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, FileNotFoundError) as e:
        print(json.dumps({"error": str(e), "exit": EXIT_INPUT}), file=sys.stderr)
        return EXIT_INPUT
    except (StructuralError,) as e:
        print(json.dumps({"error": str(e), "exit": EXIT_INPUT}), file=sys.stderr)
        return EXIT_INPUT
    except (DegeneracyError, SpectralGapError, AgmonError) as e:
        print(json.dumps({"error": str(e), "exit": EXIT_NUMERICAL}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
