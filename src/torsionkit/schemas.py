"""JSON input documents for the command-line front end.

Complex numbers are [re, im] pairs, matrices row-major nested arrays; every
document carries a "kind" tag.  See docs/formats.md for the full schemas.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .cw import CWData, Representation
from .gauge import GaugeField, pure_gauge_field
from .holomorphy import RepresentationCurve
from .chirality import ChiralityComplex
from .chain import GradedComplex
from .spectral import CircleModel, IntervalModel


class SchemaError(ValueError):
    """Input document violates a schema."""


KINDS = ("cw", "representation", "curve", "chirality", "circle", "interval",
         "gauge-field")


def load_document(path: str) -> tuple[dict, str]:
    """Parse a JSON document and return it with its content digest."""
    with open(path, "rb") as f:
        raw = f.read()
    digest = hashlib.sha256(raw).hexdigest()[:16]
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError(f"{path}: not valid JSON ({e})")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"{path}: document must be an object with a 'kind' tag")
    if doc["kind"] not in KINDS:
        raise SchemaError(f"{path}: unknown kind {doc['kind']!r}")
    return doc, digest


def parse_complex(v: Any, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(u, (int, float)) for u in v):
        return complex(v[0], v[1])
    raise SchemaError(f"{where}: expected a number or [re, im] pair, got {v!r}")


def parse_matrix(v: Any, where: str) -> np.ndarray:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise SchemaError(f"{where}: expected a nested array")
    rows = [[parse_complex(x, where) for x in r] for r in v]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(f"{where}: ragged matrix")
    return np.array(rows, dtype=np.complex128)


# 15 significant digits; + 0.0 turns -0.0 into 0.0, so a zero prints one way
def encode_complex(z: complex) -> list[float]:
    return [float(f"{z.real:.15g}") + 0.0, float(f"{z.imag:.15g}") + 0.0]


def encode_real(x: float) -> float:
    return float(f"{float(x):.15g}") + 0.0


def parse_cw(doc: dict) -> CWData:
    if doc.get("kind") != "cw":
        raise SchemaError("expected kind 'cw'")
    try:
        cells = [(str(c["id"]), int(c["dim"])) for c in doc["cells"]]
        boundary = {}
        in_boundary = set()
        for c in doc["cells"]:
            terms = []
            for t in c.get("boundary", []):
                face, inc, word = t
                terms.append((str(face), int(inc), str(word)))
            boundary[str(c["id"])] = terms
            if c.get("in_boundary", False):
                in_boundary.add(str(c["id"]))
        return CWData(cells, boundary, [str(g) for g in doc.get("generators", [])],
                      [str(r) for r in doc.get("relations", [])],
                      frozenset(in_boundary))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"cw document malformed: {e}")


def parse_representation(doc: dict) -> Representation:
    if doc.get("kind") != "representation":
        raise SchemaError("expected kind 'representation'")
    try:
        rank = int(doc["rank"])
        mats = {str(g): parse_matrix(m, f"generator {g}")
                for g, m in doc.get("generators", {}).items()}
        return Representation(rank, mats)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"representation document malformed: {e}")


def parse_curve(doc: dict) -> RepresentationCurve:
    if doc.get("kind") != "curve":
        raise SchemaError("expected kind 'curve'")
    try:
        rank = int(doc["rank"])
        coeffs = {str(g): [parse_matrix(c, f"curve {g}[{i}]") for i, c in enumerate(cs)]
                  for g, cs in doc.get("generators", {}).items()}
        return RepresentationCurve(rank, coeffs, float(doc.get("radius", 1.0)),
                                   [str(r) for r in doc.get("relations", [])])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"curve document malformed: {e}")


def parse_chirality(doc: dict) -> ChiralityComplex:
    if doc.get("kind") != "chirality":
        raise SchemaError("expected kind 'chirality'")
    try:
        dims = tuple(int(d) for d in doc["dims"])
        diffs = [parse_matrix(m, f"differential {j}")
                 for j, m in enumerate(doc["differentials"])]
        gammas = [parse_matrix(m, f"gamma {k}") for k, m in enumerate(doc["gamma"])]
        if "h" in doc:
            hs = [parse_matrix(m, f"h {k}") for k, m in enumerate(doc["h"])]
        else:
            hs = [np.eye(d, dtype=np.complex128) for d in dims]
        return ChiralityComplex(GradedComplex(dims, diffs), gammas, hs)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"chirality document malformed: {e}")


def parse_circle(doc: dict) -> CircleModel:
    if doc.get("kind") != "circle":
        raise SchemaError("expected kind 'circle'")
    el = float(doc.get("L", 1.0))
    if "holonomy" in doc:
        lam = parse_complex(doc["holonomy"], "holonomy")
    else:
        theta = float(doc.get("theta", 3.141592653589793))
        r = float(doc.get("r", 1.0))
        lam = r * complex(np.cos(theta), np.sin(theta))
    return CircleModel(el, lam)


def parse_interval(doc: dict) -> IntervalModel:
    if doc.get("kind") != "interval":
        raise SchemaError("expected kind 'interval'")
    return IntervalModel(float(doc.get("L", 1.0)), str(doc.get("bc", "relative")))


def parse_gauge_field(doc: dict) -> GaugeField:
    if doc.get("kind") != "gauge-field":
        raise SchemaError("expected kind 'gauge-field'")
    gen = doc.get("generator")
    if gen is not None:
        if gen.get("type") != "pure-gauge":
            raise SchemaError(f"unknown gauge-field generator {gen.get('type')!r}")
        rng = np.random.default_rng(int(gen.get("seed", 0)))
        return pure_gauge_field(rng, n=int(gen.get("rank", 2)),
                                n_x=int(gen.get("nx", 65)), n_y=int(gen.get("ny", 65)),
                                eps=float(gen.get("eps", 0.5)),
                                strength=float(gen.get("strength", 0.5)))
    try:
        eps = float(doc["eps"])
        nx, ny = int(doc["nx"]), int(doc["ny"])
        xs = np.linspace(-eps, eps, nx)
        ys = np.linspace(0.0, 1.0, ny)
        om0 = np.array([[parse_matrix(doc["omega0"][i][j], f"omega0[{i}][{j}]")
                         for j in range(ny)] for i in range(nx)])
        om1 = np.array([[parse_matrix(doc["omega1"][i][j], f"omega1[{i}][{j}]")
                         for j in range(ny)] for i in range(nx)])
        return GaugeField(xs, ys, om0, om1)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SchemaError(f"gauge-field document malformed: {e}")


PARSERS = {
    "cw": parse_cw,
    "representation": parse_representation,
    "curve": parse_curve,
    "chirality": parse_chirality,
    "circle": parse_circle,
    "interval": parse_interval,
    "gauge-field": parse_gauge_field,
}


def parse_any(doc: dict):
    return PARSERS[doc["kind"]](doc)
