"""The benchmark's two workloads: seeded input decks, one op each, and oracles.

A deck is a list of ops made from the workload seed during set-up; CLI inputs
are written there as JSON documents.  The deck is a repetition of one fixed
round of op shapes, so any whole number of rounds has the same mix; the seed
draws the contents.  Each op is checked by an oracle that does not read the
program's own pass flags.

Library calls go through module attributes (``cli.main``, ``gauge.monodromy``)
so that the tracer's rebinding of those names sees them.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from torsionkit import cli, gauge

NAMES = ("cli-mix", "gauge-collar")


@dataclass
class Op:
    """One unit of work a user waits for."""

    kind: str                     # refined, torsion, glue, circle, holo, gauge
    argv: list[str] | None        # CLI arguments; None for the gauge library op
    expect: dict                  # what the oracle needs
    work: dict = field(default_factory=dict)  # per-op work counts for the trace


# ---------------------------------------------------------------- documents

def _matrix(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write(workdir: str, name: str, doc: dict) -> tuple[str, int]:
    path = os.path.join(workdir, name)
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w") as f:
        f.write(text)
    return path, len(text)


def _chirality_doc(dims, differentials, gamma, h) -> dict:
    return {"kind": "chirality", "dims": list(dims),
            "differentials": [_matrix(d) for d in differentials],
            "gamma": [_matrix(g) for g in gamma], "h": [_matrix(x) for x in h]}


def _bounded(rng, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Haar unitary times a diagonal in [lo, hi]: condition number at most hi / lo."""
    q, r = np.linalg.qr(_gaussian(rng, n))
    q = q * (np.diagonal(r) / abs(np.diagonal(r)))
    return q * rng.uniform(lo, hi, size=n)


def chirality_complex(rng, m: int, half: tuple[int, ...], ranks: tuple[int, ...]):
    """Chirality complex with dims half + reversed(half) and the given ranks of D.

    It is built as ``chirality.random_chirality_complex`` builds its draws
    (diagonal standard differentials conjugated per degree, gamma_{m-k} the
    inverse of gamma_k, h_{m-k} pulled back through gamma_k), but every
    conjugating matrix, gamma and h has condition number at most 4 and the
    shape is fixed: the seed draws the entries, never the dimensions.
    """
    r = (m + 1) // 2
    dims = tuple(half) + tuple(half[::-1])
    g = [_bounded(rng, n) for n in dims]
    diffs = []
    for j in range(m):
        d = np.zeros((dims[j + 1], dims[j]), dtype=np.complex128)
        for i in range(ranks[j]):
            d[i, dims[j] - ranks[j] + i] = 1.0 + rng.uniform(0.2, 1.0)
        diffs.append(g[j + 1] @ d @ np.linalg.inv(g[j]))
    gamma, h = [None] * (m + 1), [None] * (m + 1)
    for k in range(r):
        gamma[k] = _bounded(rng, dims[k])
        gamma[m - k] = np.linalg.inv(gamma[k])
        a = _bounded(rng, dims[k], 0.7, 1.4)
        h[k] = a.conj().T @ a
        h[m - k] = gamma[m - k].conj().T @ h[k] @ gamma[m - k]
    return dims, diffs, gamma, h


def _cw_doc(cells, boundary, generators, relations=(), flagged=()) -> dict:
    return {"kind": "cw", "generators": list(generators), "relations": list(relations),
            "cells": [{"id": cid, "dim": dim,
                       "boundary": [list(t) for t in boundary.get(cid, [])],
                       "in_boundary": cid in flagged} for cid, dim in cells]}


def _circle_cells(n_cells: int):
    """Circle subdivided into n_cells vertices and edges; the last edge carries t."""
    cells = [(f"v{i}", 0) for i in range(n_cells)] + [(f"e{i}", 1) for i in range(n_cells)]
    boundary = {f"e{i}": [[f"v{(i + 1) % n_cells}", 1, "t" if i == n_cells - 1 else ""],
                          [f"v{i}", -1, ""]] for i in range(n_cells)}
    return cells, boundary


TORUS_CELLS = [("v", 0), ("a", 1), ("b", 1), ("f", 2)]
TORUS_BOUNDARY = {"a": [["v", 1, "t"], ["v", -1, ""]],
                  "b": [["v", 1, "s"], ["v", -1, ""]],
                  "f": [["a", 1, ""], ["b", 1, "t"], ["a", -1, "s"], ["b", -1, ""]]}


def _rep_doc(matrices: dict) -> dict:
    rank = next(iter(matrices.values())).shape[0]
    return {"kind": "representation", "rank": rank,
            "generators": {g: _matrix(m) for g, m in matrices.items()}}


def _gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _holonomy(rng, rank: int) -> np.ndarray:
    """Random rank x rank holonomy at a log-uniform scale in [1e-2, 1e2]."""
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    return scale * (np.eye(rank) + 0.5 * _gaussian(rng, rank) / math.sqrt(rank))


# ---------------------------------------------------------------- decks

# Each round lists op shapes; the seed draws the contents of every shape.
# refined: (m, half of the dims, ranks of D), ~40 ms to ~0.25 s on one core.
REFINED_SHAPES = [(1, (6,), (3,)), (1, (16,), (8,)), (3, (8, 12), (4, 4, 4)),
                  (3, (16, 16), (8, 8, 8)), (1, (32,), (12,))]
# cw: (shape, cells, rank).  The cochain dimension N * rank sets an op's cost,
# from ~10 ms at 8 to ~0.35 s at 128.
CW_SHAPES = [("circle", 1, 8), ("circle", 4, 2), ("circle", 32, 1), ("torus", 1, 8),
             ("glue", 8, 4), ("circle", 8, 8), ("circle", 16, 4), ("circle", 16, 8),
             ("circle", 32, 4)]
# circle: ~15 ms each; holo ~50 ms.  Three of each per round give the
# spectral and holomorphy layers a visible share of a round's time.
CIRCLE_SHAPES = ["circle-40", "circle-80", "holo"] * 3
# 23 ops: with an odd round the median op falls inside one
# class (~45 ms) instead of between two, and the two 128-dimensional cw shapes
# give a run more than ten ops of its costliest class, so the tail percentile
# stays inside one class from run to run.
CLI_ROUND = ([("refined", s) for s in REFINED_SHAPES] + [("cw", s) for s in CW_SHAPES]
             + [("circle", s) for s in CIRCLE_SHAPES])
HOLO_CELLS, HOLO_RANK, HOLO_SHIFT = 2, 2, 3.0
GAUGE_GRID = 33
GAUGE_REF_GRID = 65      # grid at which the criterion-9 threshold is pinned
GAUGE_TOL = 1e-6
GAUGE_STEPS = 4
GAUGE_SUBSTEPS = 12
# two callable fields to one rebuilt from samples: with an odd round the median
# op falls inside one path's class instead of between the two
GAUGE_ROUND = ["callable", "samples", "callable"]
# rounds of distinct inputs in a deck; a run cycles through the deck.  The
# cli-mix pool stays small because writing its JSON inputs is set-up time.
ROUNDS = {"cli-mix": 12, "gauge-collar": 12}
# one untimed warm-up op per op kind
WARM_UP = {"cli-mix": [("refined", REFINED_SHAPES[0]), ("cw", CW_SHAPES[0]),
                       ("cw", CW_SHAPES[4]), ("circle", "circle-40"), ("circle", "holo")],
           "gauge-collar": GAUGE_ROUND[:2]}
SHAPES = {"cli-mix": CLI_ROUND, "gauge-collar": GAUGE_ROUND}


def round_length(name: str) -> int:
    return len(SHAPES[name])


def build_deck(name: str, seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    """Return (warm-up ops, timed deck) for a workload; writes CLI inputs to workdir."""
    make = {"cli-mix": _cli_ops, "gauge-collar": _gauge_ops}[name]
    warm = make(np.random.default_rng([seed, 1]), workdir, "warm", WARM_UP[name])
    deck = make(np.random.default_rng([seed, 0]), workdir, "op", SHAPES[name] * ROUNDS[name])
    return warm, deck


def _cli_ops(rng, workdir, tag, shapes):
    make = {"refined": _refined_ops, "cw": _cw_ops, "circle": _circle_ops}
    ops = []
    for i, (family, shape) in enumerate(shapes):
        ops += make[family](rng, workdir, f"{tag}{i}-", [shape])
    return ops


def _refined_ops(rng, workdir, tag, shapes):
    ops = []
    for i, (m, half, ranks) in enumerate(shapes):
        doc = _chirality_doc(*chirality_complex(rng, m, half, ranks))
        path, size = _write(workdir, f"{tag}{i}-chirality.json", doc)
        ops.append(Op("refined", ["refined", path], {}, {"bytes_in": size}))
    return ops


def _cw_ops(rng, workdir, tag, shapes):
    ops = []
    for i, (shape, n_cells, rank) in enumerate(shapes):
        if shape == "circle":
            a = _holonomy(rng, rank)
            cw, s1 = _write(workdir, f"{tag}{i}-cw.json",
                            _cw_doc(*_circle_cells(n_cells), ["t"]))
            rep, s2 = _write(workdir, f"{tag}{i}-rep.json", _rep_doc({"t": a}))
            # sigma of the one-cell circle is det(rho(t) - 1); subdivision keeps it up to sign
            sigma_1 = complex(np.linalg.det(a - np.eye(rank)))
            ops.append(Op("torsion", ["torsion", cw, rep], {"sigma_1": sigma_1},
                          {"bytes_in": s1 + s2}))
        elif shape == "torus":
            lam, mu = (np.diag(np.diagonal(_holonomy(rng, rank))) for _ in range(2))
            cw, s1 = _write(workdir, f"{tag}{i}-cw.json",
                            _cw_doc(TORUS_CELLS, TORUS_BOUNDARY, ["t", "s"],
                                    ["t s t^-1 s^-1"]))
            rep, s2 = _write(workdir, f"{tag}{i}-rep.json", _rep_doc({"t": lam, "s": mu}))
            # Reidemeister torsion of the torus is 1 for every acyclic character
            ops.append(Op("torsion", ["torsion", cw, rep], {"sigma_1": 1.0},
                          {"bytes_in": s1 + s2}))
        else:
            cut = int(rng.integers(1, n_cells))
            cells, boundary = _circle_cells(n_cells)
            flagged = {"v0", f"v{cut}"}
            cw, size = _write(workdir, f"{tag}{i}-cw.json",
                              _cw_doc(cells, boundary, ["t"], flagged=flagged))
            reps = []
            for j in range(2):
                rep, s = _write(workdir, f"{tag}{i}-rep{j}.json",
                                _rep_doc({"t": _holonomy(rng, rank)}))
                reps.append(rep)
                size += s
            ops.append(Op("glue", ["glue", cw, *reps, "--split", ",".join(sorted(flagged))],
                          {}, {"bytes_in": size}))
    return ops


def _circle_ops(rng, workdir, tag, shapes):
    ops = []
    for i, shape in enumerate(shapes):
        if shape == "holo":
            # eigenvalues of rho(t) stay ~1 away from 1, where sigma vanishes
            c0 = HOLO_SHIFT * np.eye(HOLO_RANK) + 0.3 * _gaussian(rng, HOLO_RANK)
            c1 = 0.25 * _gaussian(rng, HOLO_RANK)
            cw, s1 = _write(workdir, f"{tag}{i}-cw.json",
                            _cw_doc(*_circle_cells(HOLO_CELLS), ["t"]))
            doc = {"kind": "curve", "rank": HOLO_RANK, "radius": 0.25, "relations": [],
                   "generators": {"t": [_matrix(c0), _matrix(c1)]}}
            curve, s2 = _write(workdir, f"{tag}{i}-curve.json", doc)
            ops.append(Op("holo", ["holo", cw, curve], {}, {"bytes_in": s1 + s2}))
            continue
        theta = float(rng.uniform(0.3, 2 * math.pi - 0.3))
        r = float(10.0 ** rng.uniform(-0.3, 0.3))
        length = float(rng.uniform(0.5, 10.0))
        l1, l2 = (float(v) for v in rng.uniform(0.3, 3.0, size=2))
        argv = ["--cutoff", shape.split("-")[1], "circle", "--theta", repr(theta),
                "--r", repr(r), "--L", repr(length), "--l1", repr(l1), "--l2", repr(l2)]
        ops.append(Op("circle", argv, {"a": (theta - 1j * math.log(r)) / (2 * math.pi)}))
    return ops


def _gauge_ops(rng, workdir, tag, shapes):
    grid = 9 if tag == "warm" else GAUGE_GRID   # a small warm-up field pays the same imports
    # criterion 9's rectangle (i0, 8, i0 + 16, 40) on 65 x 65, scaled to the grid
    i0, q = (grid - 1) // 2, (grid - 1) // 8
    rect = (i0, q, i0 + 2 * q, 5 * q)
    segments = 2 * ((rect[2] - rect[0]) + (rect[3] - rect[1]))
    ops = []
    for mode in shapes:
        ops.append(Op("gauge", None,
                      {"seed": int(rng.integers(2**31)), "grid": grid, "mode": mode,
                       "rect": rect},
                      {"stages": 4 * GAUGE_STEPS * (grid - 1) * grid,
                       "factors": 2 * segments * GAUGE_SUBSTEPS}))
    return ops


# ---------------------------------------------------------------- running

def run_op(op: Op):
    """Run one op; return (exit code, output, stderr text).  Errors propagate."""
    if op.argv is None:
        return 0, _gauge_pipeline(op.expect), ""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue(), err.getvalue()


def _gauge_pipeline(p: dict) -> dict:
    """Criterion-9 pipeline: flat field, temporal gauge, residuals, monodromies."""
    n = p["grid"]
    fld = gauge.pure_gauge_field(np.random.default_rng(p["seed"]), n=2, n_x=n, n_y=n,
                                 eps=0.5)
    if p["mode"] == "samples":
        fld = gauge.GaugeField(fld.xs, fld.ys, fld.omega0, fld.omega1)
    gt = gauge.solve_gauge_ode(fld, steps=GAUGE_STEPS)
    out = gauge.gauge_transform(fld, gt)
    path = gauge.rectangle_path(fld, *p["rect"])
    return {"temporal": gauge.temporal_residual(out),
            "curvature": (gauge.curvature_residual(fld), gauge.curvature_residual(out)),
            "monodromy": (gauge.monodromy(fld, path, GAUGE_SUBSTEPS),
                          gauge.monodromy(out, path, GAUGE_SUBSTEPS))}


# residual -> tolerance pairs a report flags when a command exits 4
INVARIANTS = {"refined": [("max_relative_deviation", "invariance_tol")],
              "torsion": [("relation_residual", "tol_rep")],
              "circle": [("lesch_residual", "lesch_tol"), ("k_squared_residual", "k2_tol")],
              "holo": [("sigma.residual", "cr_tol"), ("section_ratio.residual", "cr_tol")]}


def error_line(stdout: str, stderr: str) -> str:
    """First line of the error a failed CLI op reported."""
    text = stderr.strip()
    if not text and stdout.strip():
        report = json.loads(stdout)
        over = []
        for path, tol in INVARIANTS.get(report["command"], []):
            value = report["results"]
            for key in path.split("."):
                value = value[key]
            if not value < report["tolerances"][tol]:
                over.append(f"{path} >= {tol}")
        return f"{report['command']} invariant failure: {', '.join(over) or 'flags.pass false'}"
    try:
        text = str(json.loads(text)["error"])
    except (ValueError, KeyError, TypeError):
        pass
    return text.splitlines()[0] if text else "(no message)"


# ---------------------------------------------------------------- oracles

# A miss beyond GROSS times an oracle's tolerance is a wrong answer, not lost
# precision: it makes the run's `correct` false.  Smaller misses are failures.
GROSS = 1e4


def _c(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _miss(dev: float, tol: float, what: str):
    """None when dev is within tol, else (reason, wrong answer?)."""
    if dev <= tol:
        return None
    return f"{what} beyond {tol:.0e}: deviation {dev:.3g}", not dev <= GROSS * tol


def check(op: Op, output):
    """None when the output passes the op's oracle, else (reason, wrong answer?)."""
    if op.kind == "gauge":
        return _check_gauge(op.expect, output)
    res = json.loads(output)["results"]
    return {"refined": _check_refined, "torsion": _check_torsion, "glue": _check_glue,
            "circle": _check_circle, "holo": _check_holo}[op.kind](op.expect, res)


def _check_refined(expect, res):
    det = _c(res["graded_determinant"])
    ref = complex(np.exp(_c(res["xi"]) - 1j * np.pi * _c(res["xi_prime"])
                         - 1j * np.pi * _c(res["eta"])))
    return (_miss(abs(det - ref) / abs(ref), 1e-10,
                  "graded_determinant vs exp(xi - i pi xi' - i pi eta)")
            or _miss(res["max_relative_deviation"], 1e-8, "rho across cuts"))


def _check_torsion(expect, res):
    ratio = _c(res["sigma"]) / expect["sigma_1"]
    return _miss(min(abs(ratio - 1), abs(ratio + 1)), 1e-9, "sigma / sigma_1 vs +-1")


def _check_glue(expect, res):
    ratios = [_c(v) for v in res["sigma_relation_ratios"]]
    sign = 1.0 if ratios[0].real > 0 else -1.0
    found = _miss(max(abs(r - sign) for r in ratios), 1e-9, "sigma relation ratios vs one sign")
    if found:
        return found
    for tag in ("first", "second"):
        t = _c(res[f"transmission_{tag}"]["les_torsion"])
        if not (math.isfinite(abs(t)) and t != 0):
            return f"transmission_{tag} torsion is {t}", True
    return None


def _check_circle(expect, res):
    a = expect["a"]
    ref = 4 * np.sin(np.pi * a) ** 2
    return (_miss(abs(_c(res["det_laplacian"]) - ref) / abs(ref), 1e-10,
                  "det' Laplacian vs 4 sin^2(pi a)")
            or _miss(abs(_c(res["eta"]) - (1 - 2 * a)), 1e-10, "eta vs 1 - 2a"))


def _check_holo(expect, res):
    # holomorphic data: centred CR residual O(h^2); anti-holomorphic control O(1)
    control = res["sigma_antiholomorphic_control"]
    if not control > 1e-3:
        return f"anti-holomorphic control {control:.3g} does not fire", True
    return (_miss(res["sigma"]["residual"], 1e-6, "sigma CR residual")
            or _miss(res["section_ratio"]["residual"], 1e-6, "section ratio CR residual"))


def _check_gauge(expect, out):
    # criterion 9 pins 1e-6 on the 65 x 65 grid; the 4th-order error scales as h^4
    tol = GAUGE_TOL * ((GAUGE_REF_GRID - 1) / (expect["grid"] - 1)) ** 4
    ev = [np.sort_complex(np.linalg.eigvals(m)) for m in out["monodromy"]]
    return (_miss(max(out["temporal"]), tol, "temporal residual")
            or _miss(float(np.max(np.abs(ev[0] - ev[1]))), tol, "monodromy eigenvalues"))
