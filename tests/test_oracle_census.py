"""tools/oracle_census.py: seed parsing, the margins of every op kind and the
comparison of two census files; and a benchmark op that the census once showed failing."""

import cmath
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "oracle_census.py"


@pytest.fixture(scope="module")
def census():
    # the tool pins the BLAS thread variables when it is imported; keep them as they were
    saved = dict(os.environ)
    try:
        spec = importlib.util.spec_from_file_location("oracle_census", _TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module


def _row(seed, index, verdict="ok", temporal=0.25, monodromy=0.01, report="aa"):
    return {"workload": "gauge-collar", "seed": seed, "phase": "deck", "index": index,
            "kind": "gauge", "exit": 0, "report_sha256": report, "stderr_sha256": "e3",
            "verdict": verdict, "margins": {"temporal": temporal, "monodromy": monodromy}}


def _write(path, rows):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return str(path)


BASE = [_row(1, 0), _row(1, 1, temporal=0.84), _row(2, 0, monodromy=0.5)]


def test_parse_seeds(census):
    assert census.parse_seeds("1,4,7-9") == [1, 4, 7, 8, 9]
    assert census.parse_seeds("5") == [5]
    assert census.parse_seeds("3-4,1-3") == [1, 2, 3, 4]


def test_identical_files_compare_clean(census, tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", BASE)
    b = _write(tmp_path / "b.jsonl", BASE)
    assert census.compare(a, b) == 0
    out = capsys.readouterr().out
    assert f"A {a}: 3 ops, 0 failed, worst margin 0.84 of tolerance " \
           "(temporal, op ('gauge-collar', 1, 'deck', 1))" in out
    assert "ops moved: 0; largest margin shift 0 of tolerance" in out


def test_margin_shift_is_reported_without_failing(census, tmp_path, capsys):
    moved = [BASE[0], _row(1, 1, temporal=0.8400021, report="bb"), _row(2, 0, monodromy=0.5001)]
    a = _write(tmp_path / "a.jsonl", BASE)
    b = _write(tmp_path / "b.jsonl", moved)
    assert census.compare(a, b) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "ops moved: 2; largest margin shift 0.0001 of tolerance " \
           "(monodromy, op ('gauge-collar', 2, 'deck', 0))" in lines
    assert any(line.startswith("('gauge-collar', 1, 'deck', 1) gauge: report_sha256; "
                               "temporal 0.84 -> 0.8400021") for line in lines)
    assert f"B {b}: 3 ops, 0 failed, worst margin 0.8400021 of tolerance " \
           "(temporal, op ('gauge-collar', 1, 'deck', 1))" in lines


def test_moved_verdict_fails(census, tmp_path, capsys):
    failed = [BASE[0], _row(1, 1, verdict="oracle: temporal residual", temporal=1.17), BASE[2]]
    a = _write(tmp_path / "a.jsonl", BASE)
    b = _write(tmp_path / "b.jsonl", failed)
    assert census.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "verdict 'ok' -> 'oracle: temporal residual'" in out
    assert f"B {b}: 3 ops, 1 failed, worst margin 1.17 of tolerance" in out
    assert "largest margin shift 0.33 of tolerance" in out


def test_refined_margins_are_fractions_of_the_oracle_tolerances(census):
    eta, xi, xi_prime = 0.5, 0.3 - 0.1j, -1.5
    exact = cmath.exp(xi - 1j * cmath.pi * xi_prime - 1j * cmath.pi * eta)
    det = exact * (1 + 2e-11)
    report = {"results": {"graded_determinant": [det.real, det.imag], "eta": eta,
                          "xi": [xi.real, xi.imag], "xi_prime": xi_prime,
                          "max_relative_deviation": 4e-9}}
    margins = census.refined_margins(json.dumps(report))
    assert margins.keys() == {"det_gr", "rho_cuts"}
    assert abs(margins["det_gr"] - 0.2) < 1e-4 and abs(margins["rho_cuts"] - 0.4) < 1e-12


def test_refined_margin_shift_is_reported(census, tmp_path, capsys):
    def refined(det_gr, report):
        return {**_row(302, 256, report=report), "workload": "cli-mix", "kind": "refined",
                "margins": {"det_gr": det_gr, "rho_cuts": 0.0027}}
    a = _write(tmp_path / "a.jsonl", [refined(0.41, "aa")])
    b = _write(tmp_path / "b.jsonl", [refined(0.14, "bb")])
    assert census.compare(a, b) == 0
    out = capsys.readouterr().out
    assert "ops moved: 1; largest margin shift 0.27 of tolerance " \
           "(det_gr, op ('cli-mix', 302, 'deck', 256))" in out
    assert f"B {b}: 1 ops, 0 failed, worst margin 0.14 of tolerance (det_gr" in out


def test_circle_margins_are_fractions_of_the_oracle_tolerance(census):
    a = 0.2 - 0.05j
    det = 4 * cmath.sin(cmath.pi * a) ** 2 * (1 - 3e-11)
    eta = 1 - 2 * a + 5e-11j
    report = {"results": {"det_laplacian": [det.real, det.imag], "eta": [eta.real, eta.imag]}}
    margins = census.circle_margins({"a": a}, json.dumps(report))
    assert margins.keys() == {"det_laplacian", "eta"}
    assert abs(margins["det_laplacian"] - 0.3) < 1e-4 and abs(margins["eta"] - 0.5) < 1e-4


def test_circle_margin_shift_is_reported(census, tmp_path, capsys):
    def circle(det, report):
        return {**_row(3, 7, report=report), "workload": "cli-mix", "kind": "circle",
                "margins": {"det_laplacian": det, "eta": 0.0011}}
    a = _write(tmp_path / "a.jsonl", [circle(0.006, "aa")])
    b = _write(tmp_path / "b.jsonl", [circle(0.0027, "bb")])
    assert census.compare(a, b) == 0
    out = capsys.readouterr().out
    assert "('cli-mix', 3, 'deck', 7) circle: report_sha256; det_laplacian 0.006 -> 0.0027" in out
    assert "ops moved: 1; largest margin shift 0.0033 of tolerance " \
           "(det_laplacian, op ('cli-mix', 3, 'deck', 7))" in out


def test_torsion_glue_and_holo_margins_are_fractions_of_the_oracle_tolerances(census):
    sigma_1 = 2.0 - 1.0j
    sigma = -sigma_1 * (1 + 3e-10)
    margins = census.torsion_margins(
        {"sigma_1": sigma_1}, json.dumps({"results": {"sigma": [sigma.real, sigma.imag]}}))
    assert margins.keys() == {"sigma"} and abs(margins["sigma"] - 0.3) < 1e-4
    ratios = [[-1.0, 0.0], [-1.0 + 3e-10, 4e-10]]
    margins = census.glue_margins({}, json.dumps({"results": {"sigma_relation_ratios": ratios}}))
    assert margins.keys() == {"sigma_relation"} and abs(margins["sigma_relation"] - 0.5) < 1e-4
    report = {"results": {"sigma": {"residual": 2e-7}, "section_ratio": {"residual": 5e-8}}}
    margins = census.holo_margins({}, json.dumps(report))
    assert margins.keys() == {"sigma_cr", "section_ratio_cr"}
    assert abs(margins["sigma_cr"] - 0.2) < 1e-12
    assert abs(margins["section_ratio_cr"] - 0.05) < 1e-12


def test_torsion_margin_shift_is_reported(census, tmp_path, capsys):
    def torsion(sigma, report):
        return {**_row(11, 4, report=report), "workload": "cli-mix", "kind": "torsion",
                "margins": {"sigma": sigma}}
    a = _write(tmp_path / "a.jsonl", [torsion(1.4e-6, "aa")])
    b = _write(tmp_path / "b.jsonl", [torsion(2.0e-6, "bb")])
    assert census.compare(a, b) == 0
    out = capsys.readouterr().out
    assert "('cli-mix', 11, 'deck', 4) torsion: report_sha256; sigma 1.4e-06 -> 2e-06" in out
    assert "ops moved: 1; largest margin shift 6e-07 of tolerance " \
           "(sigma, op ('cli-mix', 11, 'deck', 4))" in out


def test_cli_mix_seed_302_refined_op_passes_its_oracle(tmp_path, monkeypatch):
    # deck op 256 missed the Det_gr vs exp(xi - i pi xi' - i pi eta) oracle,
    # 7.2e-10 against 1e-10, while the big bases of B^2 came from a second
    # Schur form instead of the small part's one
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    _, deck = workloads.build_deck("cli-mix", 302, str(tmp_path))
    op = deck[256]
    code, output, err = workloads.run_op(op)
    assert (op.kind, code, err) == ("refined", 0, "")
    assert workloads.check(op, output) is None


def test_missing_op_fails(census, tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", BASE)
    b = _write(tmp_path / "b.jsonl", BASE[:2])
    assert census.compare(a, b) == 1
    assert f"('gauge-collar', 2, 'deck', 0): only in {a}" in capsys.readouterr().out
