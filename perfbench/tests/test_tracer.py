"""Tests of the benchmark's tracer.  Run: python3 -m pytest perfbench/tests -q"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times, union_length  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [Span("a", 0.0, 10.0, -1, 0, False),
             Span("b", 1.0, 4.0, 0, 0, False),
             Span("c", 2.0, 3.0, 1, 0, False),
             Span("d", 5.0, 9.0, 0, 0, True),
             Span("e", 6.0, 7.0, 3, 0, False)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_union_length_merges_and_clips():
    assert union_length([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert union_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert union_length([], 0.0, 1.0) == 0.0


def _bindings():
    """Every (owner, attribute) -> value across torsionkit modules and layer classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "torsionkit" or name.startswith("torsionkit.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for span, (owner, attr, fn) in tracer.layer_targets().items():
        if isinstance(owner, type):
            out[(owner, attr)] = vars(owner)[attr]
    return out


def test_wrapper_patches_every_bound_name_and_restores():
    targets = tracer.layer_targets()
    originals = {id(fn): fn for _, _, fn in targets.values()}
    before = _bindings()
    bound = [key for key, value in before.items() if originals.get(id(value)) is value]
    with Tracer():
        during = _bindings()
        for key in bound:
            assert during[key] is not before[key]
            assert during[key].__wrapped__ is before[key], key
        import torsionkit
        from torsionkit import chirality, cli, spectral
        assert cli.rho.__wrapped__ is chirality.rho.__wrapped__
        assert chirality.spectral_projector.__wrapped__ is targets[
            "linalg.spectral_projector"][2]
        assert torsionkit.rho is chirality.rho
        assert spectral.ZetaEvaluator.hurwitz.__wrapped__ is targets[
            "spectral.ZetaEvaluator.hurwitz"][2]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # names bound in more than one module are among those patched
    assert ("torsionkit.cli", "rho") in bound
    assert ("torsionkit.chirality", "spectral_projector") in bound


def _report(argv) -> bytes:
    from torsionkit import cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue().encode()


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    warm, deck = workloads.build_deck("cli-mix", 3, str(tmp_path))
    refined = next(op for op in deck if op.kind == "refined")
    glue = next(op for op in deck if op.kind == "glue")
    circle = ["--cutoff", "40", "circle", "--theta", "2.0", "--r", "0.8"]
    for argv in (refined.argv, glue.argv, circle):
        plain = _report(argv)
        with Tracer() as t:
            traced = _report(argv)
        assert traced == plain
        assert any(s.name == "cli.emit_report" for s in t.finished())
        json.loads(plain)


def test_layer_metrics_match_the_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    emitted = set(layer_metrics([], 1, {})) | {"trace_overhead"}
    assert emitted == names


def test_layer_metrics_count_calls_errors_and_ratios():
    spans = [Span("chirality.rho", 0.0, 4.0, -1, 0, False),
             Span("chirality.spectral_split", 0.5, 1.5, 0, 0, False),
             Span("linalg.spectral_projector", 0.6, 1.0, 1, 0, False),
             Span("chirality.rho", 5.0, 6.0, -1, 1, True),
             Span("gauge.solve_gauge_ode", 7.0, 9.0, -1, 1, False)]
    m = layer_metrics(spans, 2, {"stages": 4, "bytes_in": 10})
    assert m["chirality.calls"] == 1.5
    assert m["chirality.errors"] == 0.5
    assert np.isclose(m["chirality.self_s"], (3.0 + 1.0 + 0.6) / 2)
    assert np.isclose(m["linalg.spectral_projector.self_s"], 0.2)
    assert m["chirality.spectral_split_per_rho"] == 0.5
    assert m["chirality.rho_ok_ratio"] == 0.5
    assert m["gauge.ode_us_per_stage"] == 0.5e6
    assert m["schemas.bytes_in"] == 5.0
