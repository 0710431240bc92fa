import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

import torsionkit.cw as cw_module
from torsionkit import chirality, cli, holomorphy, spectral
from torsionkit import selftest as selftest_mod
from torsionkit.chain import GradedComplex, ShortExactSequenceData, canonical_iso
from torsionkit.chirality import ChiralityComplex, random_chirality_complex
from torsionkit.cli import main
from torsionkit.linalg import SpectralGapError, StructuralError
from torsionkit.schemas import encode_complex, encode_real

from test_chain import count_lapack

CIRCLE_CW = {
    "kind": "cw",
    "generators": ["t"],
    "cells": [
        {"id": "v", "dim": 0, "boundary": []},
        {"id": "e", "dim": 1, "boundary": [["v", 1, "t"], ["v", -1, ""]]},
    ],
}
REP2 = {"kind": "representation", "rank": 1, "generators": {"t": [[[2.0, 0.0]]]}}
CURVE = {"kind": "curve", "rank": 1, "radius": 0.25,
         "generators": {"t": [[[[2.0, 0.0]]], [[[1.0, 0.0]]]]}}
CURVE_THROUGH_ONE = {"kind": "curve", "rank": 1, "radius": 0.25,
                     "generators": {"t": [[[[1.0, 0.0]]]]}}
GAUGE = {"kind": "gauge-field",
         "generator": {"type": "pure-gauge", "seed": 7, "rank": 2,
                       "nx": 65, "ny": 65, "eps": 0.5}}


def circle_doc(n, flagged=()):
    """n-vertex circle, the last edge carrying t; the `flagged` cells form K'."""
    cells = [{"id": f"v{i}", "dim": 0, "boundary": []} for i in range(n)]
    cells += [{"id": f"e{i}", "dim": 1,
               "boundary": [[f"v{(i + 1) % n}", 1, "t" if i == n - 1 else ""],
                            [f"v{i}", -1, ""]]} for i in range(n)]
    for c in cells:
        c["in_boundary"] = c["id"] in flagged
    return {"kind": "cw", "generators": ["t"], "cells": cells}


def rep_doc(matrices):
    rank = len(next(iter(matrices.values())))
    return {"kind": "representation", "rank": rank, "generators": {
        g: [[[complex(v).real, complex(v).imag] for v in row] for row in np.asarray(m).tolist()]
        for g, m in matrices.items()}}


def counted(monkeypatch, owners, name):
    """Wrap name on every owner by one wrapper; each call appends to the returned list."""
    calls, original = [], getattr(owners[0], name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapper)
    return calls


# the directory torsionkit is imported from, for tests that start a fresh interpreter
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture(scope="module", autouse=True)
def fresh_selftest():
    """`torsionkit --seed 3 selftest` in a fresh interpreter with another hash
    seed, started before this module's first test so that it runs alongside
    them; the determinism test reads its stdout."""
    proc = subprocess.Popen([sys.executable, "-m", "torsionkit.cli", "--seed", "3", "selftest"],
                            env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="12345"),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    yield proc
    proc.kill()
    proc.communicate()


def test_torsion_command_circle(tmp_path, capsys):
    cw = write(tmp_path, "cw.json", CIRCLE_CW)
    rep = write(tmp_path, "rep.json", REP2)
    code = main(["torsion", cw, rep])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["sigma"] == [1.0, 0.0]
    assert out["flags"]["pass"] is True


def test_torsion_report_deterministic(tmp_path, capsys):
    cw = write(tmp_path, "cw.json", CIRCLE_CW)
    rep = write(tmp_path, "rep.json", REP2)
    main(["torsion", cw, rep])
    first = capsys.readouterr().out
    main(["torsion", cw, rep])
    second = capsys.readouterr().out
    assert first == second


def test_torsion_command_factors_each_differential_once(tmp_path, monkeypatch):
    # 32-cell circle, rank 4, K' empty: d_0 is 128 x 128.  The full and the
    # relative complex are one object, and its square d_0 is certified
    # invertible by one LU, so neither cohomology nor canonical_iso takes an SVD.
    n = 32
    hol = 3.0 * np.eye(4) + 0.5 * np.random.default_rng(4).standard_normal((4, 4))
    cw = write(tmp_path, "cw.json", circle_doc(n))
    rep = write(tmp_path, "rep.json", rep_doc({"t": hol}))
    seen = count_lapack(monkeypatch)
    getrf, lus = lapack.zgetrf, []

    def counting_getrf(a, *args, **kwargs):
        lus.append(a)
        return getrf(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "zgetrf", counting_getrf)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["torsion", cw, rep]) == 0
    res = json.loads(out.getvalue())["results"]
    assert res["dims"] == res["relative_dims"] == [4 * n, 4 * n]
    assert res["sigma"] == res["sigma_relative"]
    sigma_1 = np.linalg.det(hol - np.eye(4))
    assert abs(abs(complex(*res["sigma"]) / sigma_1) - 1.0) < 1e-9
    assert len(seen["svd"]) == 0 and seen["numpy_svd"] == 0
    assert [a.shape for a in lus] == [(4 * n, 4 * n)]


def test_torsion_slices_the_relative_and_boundary_complexes(tmp_path, monkeypatch):
    # C(K) is built once; C(K, K') and C(K') are cut out of it
    rng = np.random.default_rng(5)
    hol = 2.0 * np.eye(2) + 0.5 * rng.standard_normal((2, 2))
    cw = write(tmp_path, "cw.json", circle_doc(6, flagged={"v0", "v3"}))
    rep = write(tmp_path, "rep.json", rep_doc({"t": hol}))
    builds = counted(monkeypatch, [cw_module, cli, holomorphy], "build_cochain")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["torsion", cw, rep]) == 0
    res = json.loads(out.getvalue())["results"]
    assert (res["dims"], res["relative_dims"], res["boundary_dims"]) == \
        ([12, 12], [8, 12], [4, 0])
    assert len(builds) == 1


def test_glue_builds_once_per_sequence_and_validates_each_once(tmp_path, monkeypatch):
    # the glue op of the benchmark's cli-mix deck: 8-cell circle, rank 4, two
    # representations, split at the two flagged vertices
    rng = np.random.default_rng(6)
    cw = write(tmp_path, "cw.json", circle_doc(8, flagged={"v0", "v3"}))
    reps = [write(tmp_path, f"rep{i}.json", rep_doc({"t": 2.0 * np.eye(4) + 0.5 * (
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))})) for i in range(2)]
    builds = counted(monkeypatch, [cw_module, cli, holomorphy], "build_cochain")
    validations = counted(monkeypatch, [ShortExactSequenceData], "validate")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["glue", cw, *reps, "--split", "v0,v3"]) == 0
    res = json.loads(out.getvalue())["results"]
    assert res["transmission_first"]["b_dims"] == [32, 32]
    # one C(K) per relative sequence and one for both transmission sequences;
    # each of the four sequences is validated when it is made
    assert len(builds) <= 3
    assert len(validations) == 4


def test_torsion_rejects_a_relation_violation_before_any_report(tmp_path, capsys):
    torus = {"kind": "cw", "generators": ["t", "s"], "relations": ["t s t^-1 s^-1"],
             "cells": [{"id": "v", "dim": 0, "boundary": []},
                       {"id": "a", "dim": 1, "boundary": [["v", 1, "t"], ["v", -1, ""]]},
                       {"id": "b", "dim": 1, "boundary": [["v", 1, "s"], ["v", -1, ""]]},
                       {"id": "f", "dim": 2, "boundary": [["a", 1, ""], ["b", 1, "t"],
                                                         ["a", -1, "s"], ["b", -1, ""]]}]}
    rep = rep_doc({"t": [[1.0, 1.0], [0.0, 1.0]], "s": [[1.0, 0.0], [1.0, 1.0]]})
    code = main(["torsion", write(tmp_path, "torus.json", torus),
                 write(tmp_path, "rep.json", rep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "representation violates a relation beyond tol_rep", "exit": 2}


def overflowing_relation_inputs(tmp_path):
    """One-cell circle with relation t^3 and rho(t) = 1e200: t^3 overflows."""
    cw = write(tmp_path, "cw.json", {**CIRCLE_CW, "relations": ["t^3"]})
    rep = write(tmp_path, "rep.json", rep_doc({"t": [[1e200]]}))
    curve = write(tmp_path, "curve.json", {**CURVE, "relations": ["t^3"],
                                           "generators": {"t": [[[[1e200, 0.0]]],
                                                                [[[1.0, 0.0]]]]}})
    return cw, rep, curve


def test_torsion_rejects_an_overflowing_relation(tmp_path, capsys):
    cw, rep, _ = overflowing_relation_inputs(tmp_path)
    assert main(["torsion", cw, rep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "relation 't^3' evaluates to a non-finite matrix; "
                 "its residual must be <= tol_rep 1e-10", "exit": 2}


def test_holo_rejects_an_overflowing_relation(tmp_path, capsys):
    cw, _, curve = overflowing_relation_inputs(tmp_path)
    assert main(["holo", cw, curve]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "relation 't^3' evaluates to a non-finite matrix; "
                 "its residual must be <= 1e-10 at z = 0.0", "exit": 2}


def test_parser_is_built_once(tmp_path, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        good = write(tmp_path, "good.json", CIRCLE_CW)
        for _ in range(2):
            assert main(["validate", good]) == 0
        assert len(built) == 1
        capsys.readouterr()
        # --help and usage errors still exit through argparse, every time
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                main(["--help"])
            assert e.value.code == 0
            assert "usage: torsionkit" in capsys.readouterr().out
            with pytest.raises(SystemExit) as e:
                main(["nonsense"])
            assert e.value.code == 2
            assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    finally:
        cli._parser.cache_clear()


def test_circle_command_values(tmp_path, capsys):
    code = main(["circle", "--theta", "3.14159265358979312", "--L", "6.283185307179586"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    det = out["results"]["det_laplacian"]
    assert abs(det[0] - 4.0) < 1e-8 and abs(det[1]) < 1e-10
    assert out["results"]["lesch_residual"] < 1e-6


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_circle_rejects_a_cutoff_below_one(capsys, cutoff):
    assert main(["--cutoff", cutoff, "circle", "--theta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"cutoff must be >= 1, got {cutoff}",
                                        "exit": 2}


def test_circle_command_evaluates_each_hurwitz_point_once(monkeypatch, capsys):
    # an acyclic circle op asks for d/ds zeta_H(0, .) 9 times at 3 points:
    # a and 1 - a (det', xi twice) and 1 (the gluing check's circle and intervals)
    kernel_calls, ds_calls = [], []
    kernel, hurwitz_ds = spectral._hurwitz_pair, spectral.ZetaEvaluator.hurwitz_ds

    def counted_kernel(cutoff, order, s, a):
        kernel_calls.append((s, a))
        return kernel(cutoff, order, s, a)

    def counted_ds(self, s, a):
        ds_calls.append((complex(s), complex(a)))
        return hurwitz_ds(self, s, a)

    monkeypatch.setattr(spectral, "_hurwitz_pair", counted_kernel)
    monkeypatch.setattr(spectral.ZetaEvaluator, "hurwitz_ds", counted_ds)
    assert main(["circle", "--theta", "1.0", "--r", "1.5"]) == 0
    capsys.readouterr()
    points = set(ds_calls)
    assert len(ds_calls) == 9 and len(points) == 3 and (0j, 1 + 0j) in points
    assert sum(key in points for key in kernel_calls) == 3
    assert len(kernel_calls) == len(set(kernel_calls))


def test_python_m_torsionkit_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-m", "torsionkit", "--help"], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.startswith("usage: torsionkit")
    assert "circle" in out.stdout and out.stderr == ""


def test_holo_command(tmp_path, capsys):
    cw = write(tmp_path, "cw.json", CIRCLE_CW)
    curve = write(tmp_path, "curve.json", CURVE)
    code = main(["holo", cw, curve])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["sigma"]["residual"] < 1e-6
    assert out["results"]["section_ratio"]["residual"] < 1e-6
    assert out["results"]["sigma_antiholomorphic_control"] > 1e-2


def test_gauge_command(tmp_path, capsys):
    field = write(tmp_path, "gauge.json", GAUGE)
    code = main(["gauge", field])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["temporal_normal"] < 1e-6
    assert out["results"]["temporal_tangential_xderiv"] < 1e-6


def test_glue_command(tmp_path, capsys):
    cw = write(tmp_path, "cw2.json", {
        "kind": "cw",
        "generators": ["t"],
        "cells": [
            {"id": "v1", "dim": 0, "boundary": []},
            {"id": "v2", "dim": 0, "boundary": []},
            {"id": "e1", "dim": 1, "boundary": [["v2", 1, ""], ["v1", -1, ""]]},
            {"id": "e2", "dim": 1, "boundary": [["v1", 1, "t"], ["v2", -1, ""]]},
        ],
    })
    code = main(["glue", cw, "--split", "v1,v2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["sigma_relation_sign"] in (1, -1)
    assert "transmission_first" in out["results"]


def test_validate_ok_and_bad(tmp_path, capsys):
    good = write(tmp_path, "good.json", CIRCLE_CW)
    assert main(["validate", good]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostics"] == []
    bad = write(tmp_path, "bad.json", {"kind": "nonsense"})
    assert main(["validate", bad]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostics"]


def test_schema_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["torsion", str(p), str(p)]) == 2


def test_numerical_error_exit_code(tmp_path):
    cw = write(tmp_path, "cw.json", CIRCLE_CW)
    curve = write(tmp_path, "curve1.json", CURVE_THROUGH_ONE)
    # lambda = 1 makes the doubled complex non-acyclic: numerical-domain error
    assert main(["holo", cw, curve]) == 3


def test_json_out_flag(tmp_path, capsys):
    cw = write(tmp_path, "cw.json", CIRCLE_CW)
    rep = write(tmp_path, "rep.json", REP2)
    out_path = tmp_path / "report.json"
    main(["--json-out", str(out_path), "torsion", cw, rep])
    printed = capsys.readouterr().out
    assert out_path.read_text().strip() == printed.strip()


def test_refined_command(tmp_path, capsys):
    chi = write(tmp_path, "chi.json", {
        "kind": "chirality", "dims": [2, 2],
        "differentials": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]],
        "gamma": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                  [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    })
    code = main(["refined", chi])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["results"]["rho"][0] - 1.5) < 1e-10
    assert out["results"]["max_relative_deviation"] < 1e-8
    assert len(out["results"]["sweep"]) >= 4


def test_refined_command_zero_differential(tmp_path, capsys):
    # spec(B^2) = {0}: every positive cut is admissible, rho = 1 / gamma_0
    g0 = 2.0 + 0.5j
    gi = 1.0 / g0
    chi = write(tmp_path, "chi.json", {
        "kind": "chirality", "dims": [1, 1], "differentials": [[[[0.0, 0.0]]]],
        "gamma": [[[[g0.real, g0.imag]]], [[[gi.real, gi.imag]]]],
        "h": [[[[1.0, 0.0]]], [[[abs(gi) ** 2, 0.0]]]],
    })
    code = main(["refined", chi])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["max_relative_deviation"] == 0.0
    assert len(out["results"]["sweep"]) == 6
    assert abs(complex(*out["results"]["rho"]) - gi) < 1e-12


def chirality_doc(x):
    def enc(a):
        return [[[v.real, v.imag] for v in row] for row in np.asarray(a).tolist()]
    return {"kind": "chirality", "dims": list(x.complex.dims),
            "differentials": [enc(x.complex.d(j)) for j in range(x.m)],
            "gamma": [enc(g) for g in x.gamma], "h": [enc(h) for h in x.h]}


def test_refined_command_takes_two_schur_forms_per_block_and_cut(tmp_path, monkeypatch):
    # one Schur form per nonempty B^2 block serves all three cuts (the test
    # keeps its older name), and no Sylvester solve factors T11 or T22 again
    calls = []
    for name in ("schur", "solve_sylvester"):
        monkeypatch.setattr(sla, name, lambda *a, _n=name, _f=getattr(sla, name), **kw:
                            calls.append(_n) or _f(*a, **kw))
    for m in (1, 3):
        x = random_chirality_complex(np.random.default_rng(1), m, 4)
        chi = write(tmp_path, f"chi{m}.json", chirality_doc(x))
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["refined", chi]) == 0
        assert calls == ["schur"] * sum(1 for d in x.complex.dims if d)


def test_refined_command_repeats_byte_identically(tmp_path):
    # memoised cuts live on the command's own data, so nothing leaks across calls
    x = random_chirality_complex(np.random.default_rng(2), 3, 4)
    chi = write(tmp_path, "chi.json", chirality_doc(x))
    outs = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["refined", chi]) == 0
        outs.append(out.getvalue().encode())
    assert outs[0] == outs[1]


def test_refined_command_builds_the_small_side_once_per_cut(tmp_path, monkeypatch):
    # three cuts with nonempty small and big parts, two angles each: the
    # second angle at a cut reuses the small complex, its cohomology, its
    # refined torsion element and the push to Det H^*(X)
    x = random_chirality_complex(np.random.default_rng(5), 3, 4)
    chi = write(tmp_path, "chi.json", chirality_doc(x))
    calls = {name: [] for name in ("SmallComplex", "cohomology", "refined_torsion_element",
                                   "_push_to_full")}
    for name in calls:
        monkeypatch.setattr(chirality, name, lambda *a, _n=name, _f=getattr(chirality, name),
                            **kw: calls[_n].append(kw.get("tag")) or _f(*a, **kw))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["refined", chi]) == 0
    sweep = json.loads(out.getvalue())["results"]["sweep"]
    assert len(sweep) == 6 and all("rho" in entry for entry in sweep)
    assert calls == {"SmallComplex": [None] * 3, "cohomology": ["H(small)"] * 3,
                     "refined_torsion_element": [None] * 3, "_push_to_full": [None] * 3}


def test_refined_command_on_a_rescaled_complex(tmp_path, capsys):
    # D x 100: D restricted to the small part at a cut is roundoff of D's
    # size, and the dd check judges it at D's scale, not at its own
    x = random_chirality_complex(np.random.default_rng(4), 3, 4)
    x = dataclasses.replace(x, complex=GradedComplex(
        x.complex.dims, [100.0 * d for d in x.complex.differentials]))
    chi = write(tmp_path, "chi.json", chirality_doc(x))
    assert main(["refined", chi]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["max_relative_deviation"] < 1e-8


def identity_chirality(d):
    """dims (2, 2) with differential d and gamma = h = I."""
    eye = np.eye(2, dtype=complex)
    return ChiralityComplex(GradedComplex((2, 2), [np.asarray(d, complex)]), [eye, eye],
                            [eye, eye])


@pytest.mark.parametrize("c", [1e154, 1e155, 1e160])
def test_refined_on_a_nilpotent_differential_of_huge_scale(tmp_path, capsys, c):
    # B^2 = D^2 = 0 is a legitimate input; each small complex inherits the
    # scale c, whose square overflows a float from c = 1e155 on
    chi = write(tmp_path, "chi.json", chirality_doc(identity_chirality([[0.0, c], [0.0, 0.0]])))
    with np.errstate(over="ignore"):  # the Frobenius norms of D's images overflow to inf
        assert main(["refined", chi]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"]["pass"] is True and out["results"]["max_relative_deviation"] == 0.0


def test_refined_names_an_overflowing_b_squared(tmp_path, capsys):
    chi = write(tmp_path, "chi.json", chirality_doc(identity_chirality(1e160 * np.ones((2, 2)))))
    assert main(["refined", chi]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "B^2 has non-finite entries: (Gamma D + D Gamma)^2 overflows",
                   "exit": 3}


def test_cli_import_leaves_scipy_interpolate_unloaded():
    code = "import sys, torsionkit.cli; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def selftest_seed3():
    """(exit code, stdout, stderr) of `torsionkit --seed 3 selftest` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--seed", "3", "selftest"])
    return code, out.getvalue(), err.getvalue()


def test_selftest_quick(selftest_seed3):
    code, out, err = selftest_seed3
    report = json.loads(out)
    assert code == 0
    assert report["flags"] == {"pass": True, "failures": 0}
    names = [c.name for c in selftest_mod.CRITERIA]
    assert sorted(report["results"]) == sorted(names)
    assert report["tolerances"] == {n: r["threshold"] for n, r in report["results"].items()}
    for r in report["results"].values():
        assert r["pass"] and r["value"].keys() == r["threshold"].keys()
    # one timing line per criterion on stderr, in registry order
    assert [json.loads(line)["criterion"] for line in err.splitlines()] == names


def test_selftest_report_is_deterministic(selftest_seed3, fresh_selftest):
    out = fresh_selftest.communicate(timeout=300)[0]
    assert (fresh_selftest.returncode, out) == (0, selftest_seed3[1].encode())


@pytest.mark.parametrize("error", [StructuralError, SpectralGapError])
def test_selftest_records_a_raising_criterion_as_failed(monkeypatch, capsys, error):
    def raises(seed):
        raise error("sigma relation sign varies with the representation")

    by_name = {c.name: c for c in selftest_mod.CRITERIA}
    failing = dataclasses.replace(by_name["sigma_sign_relation"], measure=raises)
    monkeypatch.setattr(selftest_mod, "CRITERIA", [failing, by_name["eta_values"]])
    assert main(["selftest"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] == {"pass": False, "failures": 1}
    assert report["results"]["sigma_sign_relation"] == {
        "pass": False, "value": None, "threshold": {"max_dev": ["<", 1e-8]},
        "detail": "sigma relation sign varies with the representation"}
    assert report["results"]["eta_values"]["pass"]
    # anything broader than a structural or degeneracy error propagates
    with pytest.raises(ValueError):
        selftest_mod.run_criterion(
            dataclasses.replace(failing, measure=lambda seed: float("x")), 3)


def test_bad_representation_matrix_schema(tmp_path):
    bad = write(tmp_path, "rep.json",
                {"kind": "representation", "rank": 1, "generators": {"t": [[0.0]]}})
    cw = write(tmp_path, "cw.json", CIRCLE_CW)
    assert main(["torsion", cw, bad]) == 2


def test_negative_zero_encodes_as_zero():
    # the assembly leaves this exactly real coordinate as (2-0j)
    iso = canonical_iso(GradedComplex((1, 1), [[[-2]]]), coordinate=-1.0)
    assert json.dumps(encode_complex(iso.coordinate)) == "[2.0, 0.0]"
    assert json.dumps(encode_real(-0.0)) == "0.0"
