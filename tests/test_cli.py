import json

from torsionkit.chain import GradedComplex, canonical_iso
from torsionkit.cli import main
from torsionkit.schemas import encode_complex, encode_real

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


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


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


def test_circle_command_values(tmp_path, capsys):
    code = main(["circle", "--theta", "3.14159265358979312", "--L", "6.283185307179586"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    det = out["results"]["det_laplacian"]
    assert abs(det[0] - 4.0) < 1e-8 and abs(det[1]) < 1e-10
    assert out["results"]["lesch_residual"] < 1e-6


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


def test_selftest_quick(capsys):
    code = main(["--seed", "3", "selftest", "--level", "quick"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["flags"]["failures"] == 0


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
