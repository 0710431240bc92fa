"""CW complexes with group-word boundary data and twisted cochain complexes.

Cells carry, per boundary face, an integer incidence and a group word: the
word records which deck transformation relates the chosen lifts, so the data
fixes an Euler structure.  A Representation assigns invertible matrices to the
generators; the twisted coboundary block from a j-cell e into a (j+1)-cell f is

    sum over boundary terms (e, incidence, w) of f:   incidence * rho(w).

Cell order within each dimension is the input order and is part of the data
(it fixes the cohomological orientation); all determinant-line coordinates
refer to it.

build_cochain runs the relation check once per build of C(K, rho).  The
relative, boundary and transmission complexes are slices of C(K, rho) at their
cells' coordinates, each checked to square to zero; a slice holds the terms a
cell loop over its cells sums, in the same order, so it equals that loop's
result bit for bit.  A slice keeps the scale of C(K, rho) for its rank cuts
and its dd check (chain.GradedComplex._derive).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .chain import (
    Cohomology,
    DetLineElement,
    GradedComplex,
    ShortExactSequenceData,
    canonical_iso,
    cohomology,
    fusion,
    verify_complex,
)
from .linalg import StructuralError, as_cmatrix, norm

TOL_REP = 1e-10
# how far check_sigma_relation's ratios may lie from +-1
SIGMA_RATIO_TOL = 1e-8


@dataclass
class CWData:
    """CW complex: cells (id, dim), boundaries with incidences and lift words."""

    cells: list[tuple[str, int]]
    boundary: dict[str, list[tuple[str, int, str]]]
    generators: list[str]
    relations: list[str] = field(default_factory=list)
    boundary_subcomplex: frozenset[str] = frozenset()

    def __post_init__(self):
        self.boundary_subcomplex = frozenset(self.boundary_subcomplex)
        ids = [cid for cid, _ in self.cells]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate cell ids")
        self._dim = {cid: d for cid, d in self.cells}
        for cid, terms in self.boundary.items():
            if cid not in self._dim:
                raise StructuralError(f"boundary given for unknown cell {cid!r}")
            for face, _, _ in terms:
                if face not in self._dim:
                    raise StructuralError(f"unknown face {face!r} in boundary of {cid!r}")
                if self._dim[face] != self._dim[cid] - 1:
                    raise StructuralError(
                        f"face {face!r} of {cid!r} has dimension "
                        f"{self._dim[face]}, expected {self._dim[cid] - 1}"
                    )
        for cid in self.boundary_subcomplex:
            if cid not in self._dim:
                raise StructuralError(f"subcomplex lists unknown cell {cid!r}")
            for face, inc, _ in self.boundary.get(cid, []):
                if inc != 0 and face not in self.boundary_subcomplex:
                    raise StructuralError(
                        f"subcomplex is not closed: {cid!r} has face {face!r} outside it"
                    )

    @property
    def interior(self) -> set[str]:
        """The cells outside the flagged boundary subcomplex K'."""
        return {cid for cid, _ in self.cells if cid not in self.boundary_subcomplex}

    @property
    def top_dim(self) -> int:
        return max((d for _, d in self.cells), default=0)

    def cells_of_dim(self, j: int) -> list[str]:
        return [cid for cid, d in self.cells if d == j]

    def restrict(self, keep: set[str]) -> "CWData":
        """Subcomplex on the given cells (must be boundary-closed)."""
        cells = [(cid, d) for cid, d in self.cells if cid in keep]
        boundary = {cid: [t for t in self.boundary.get(cid, [])]
                    for cid, _ in cells}
        for cid, terms in boundary.items():
            for face, inc, _ in terms:
                if inc != 0 and face not in keep:
                    raise StructuralError(f"cell set is not a subcomplex at {cid!r}")
        sub = CWData(cells, boundary, list(self.generators), list(self.relations),
                     frozenset(k for k in self.boundary_subcomplex if k in keep))
        return sub

    def change_lift(self, cell_id: str, gen: str) -> "CWData":
        """Replace the lift of cell_id by gen * (old lift); rewrites words coherently."""
        if cell_id not in self._dim:
            raise StructuralError(f"unknown cell {cell_id!r}")
        boundary = {}
        for cid, terms in self.boundary.items():
            new_terms = []
            for face, inc, w in terms:
                if face == cell_id:
                    w = _word_concat(w, gen)
                if cid == cell_id:
                    w = _word_concat(_word_invert_token(gen), w)
                new_terms.append((face, inc, w))
            boundary[cid] = new_terms
        return CWData(list(self.cells), boundary, list(self.generators),
                      list(self.relations), self.boundary_subcomplex)


def _word_tokens(word: str) -> list[tuple[str, int]]:
    """Parse 'a b^-1 c^2' into [(gen, power), ...]; '' is the identity."""
    out = []
    for tok in word.split():
        if "^" in tok:
            g, p = tok.split("^", 1)
            out.append((g, int(p)))
        else:
            out.append((tok, 1))
    return out


def _word_concat(left: str, right: str) -> str:
    return " ".join(t for t in (left.strip(), right.strip()) if t)


def _word_invert_token(gen: str) -> str:
    return f"{gen}^-1"


@dataclass
class Representation:
    """Matrices for the generators; a point of the representation variety."""

    rank: int
    matrices: dict[str, np.ndarray]

    def __post_init__(self):
        self.matrices = {g: as_cmatrix(m, rows=self.rank, cols=self.rank)
                         for g, m in self.matrices.items()}
        for g, m in self.matrices.items():
            if abs(sla.det(m)) < 1e-300:
                raise StructuralError(f"generator {g!r} maps to a singular matrix")

    def evaluate(self, word: str) -> np.ndarray:
        out = np.eye(self.rank, dtype=np.complex128)
        for g, p in _word_tokens(word):
            if g not in self.matrices:
                raise StructuralError(f"unknown generator {g!r} in word {word!r}")
            m = self.matrices[g]
            step = m if p > 0 else sla.inv(m)
            for _ in range(abs(p)):
                out = out @ step
        return out

    def relation_residual(self, word: str, threshold: str) -> float:
        """||rho(word) - I||; a word whose value overflows raises, naming the threshold."""
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            value = self.evaluate(word)
        if not np.all(np.isfinite(value)):
            raise StructuralError(f"relation {word!r} evaluates to a non-finite matrix; "
                                  f"its residual must be <= {threshold}")
        return float(norm(value - np.eye(self.rank)))


def trivial_representation(rank: int, generators) -> Representation:
    eye = np.eye(rank, dtype=np.complex128)
    return Representation(rank, {g: eye.copy() for g in generators})


def validate_representation(rho: Representation, k: CWData) -> float:
    """Max relation residual ||rho(w) - I||; unknown generators raise."""
    used = {g for terms in k.boundary.values() for _, _, w in terms
            for g, _ in _word_tokens(w)}
    missing = used - set(rho.matrices)
    if missing:
        raise StructuralError(f"representation lacks generators {sorted(missing)}")
    res = 0.0
    for w in k.relations:
        res = max(res, rho.relation_residual(w, f"tol_rep {TOL_REP:.0e}"))
    return res


def build_cochain(k: CWData, rho: Representation) -> GradedComplex:
    """Twisted cochain complex C(K, rho); every other cellular complex is a slice of it."""
    if validate_representation(rho, k) > TOL_REP:
        raise StructuralError("representation violates a relation beyond tol_rep")
    n = rho.rank
    layers = [k.cells_of_dim(j) for j in range(k.top_dim + 1)]
    index = [{cid: i for i, cid in enumerate(layer)} for layer in layers]
    dims = tuple(n * len(layer) for layer in layers)
    diffs = []
    for j in range(k.top_dim):
        d = np.zeros((dims[j + 1], dims[j]), dtype=np.complex128)
        for f in layers[j + 1]:
            fi = index[j + 1][f]
            for face, inc, w in k.boundary.get(f, []):
                if inc == 0:
                    continue
                ei = index[j][face]
                d[fi * n:(fi + 1) * n, ei * n:(ei + 1) * n] += inc * rho.evaluate(w)
        diffs.append(d)
    return _checked(GradedComplex(dims, diffs))


def _checked(c: GradedComplex) -> GradedComplex:
    if not verify_complex(c):
        raise StructuralError(
            "twisted boundary does not square to zero: bad incidences or lift words"
        )
    return c


def _slots(k: CWData, n: int, cells) -> list[np.ndarray]:
    """Per degree, the coordinates of `cells` in C(K) of rank n, in cell order."""
    out = []
    for j in range(k.top_dim + 1):
        pos = [i for i, cid in enumerate(k.cells_of_dim(j)) if cid in cells]
        out.append((n * np.array(pos, dtype=np.intp)[:, None] + np.arange(n)).ravel())
    return out


def cochain_slice(k: CWData, rho: Representation, full: GradedComplex,
                  cells) -> GradedComplex:
    """The complex on the coordinates of `cells` in full = C(K, rho): C(K, L) when
    the other cells form a subcomplex L, C(L) when `cells` do."""
    slots = _slots(k, rho.rank, cells)
    diffs = [full.d(j)[np.ix_(slots[j + 1], slots[j])] for j in range(len(slots) - 1)]
    return _checked(full._derive(tuple(len(s) for s in slots), diffs))


def build_relative(k: CWData, rho: Representation) -> GradedComplex:
    """Quotient complex C(K, K') on the cells outside the flagged boundary subcomplex."""
    return cochain_slice(k, rho, build_cochain(k, rho), k.interior)


def boundary_complex(k: CWData, rho: Representation) -> GradedComplex:
    """Twisted cochain complex of the flagged boundary subcomplex K'."""
    return cochain_slice(k, rho, build_cochain(k, rho), k.boundary_subcomplex)


def sigma(k: CWData, rho: Representation, coh: Cohomology | None = None) -> DetLineElement:
    """Torsion element of Det H^*(K, rho): canonical_iso of the standard basis element."""
    c = build_cochain(k, rho)
    return canonical_iso(c, coh if coh is not None else cohomology(c, tag="H(K)"))


def sigma_boundary(k: CWData, rho: Representation,
                   coh: Cohomology | None = None) -> DetLineElement:
    c = boundary_complex(k, rho)
    return canonical_iso(c, coh if coh is not None else cohomology(c, tag="H(K')"))


def sigma_relative(k: CWData, rho: Representation,
                   coh: Cohomology | None = None) -> DetLineElement:
    c = build_relative(k, rho)
    return canonical_iso(c, coh if coh is not None else cohomology(c, tag="H(K,K')"))


def tau_section(k: CWData, rho: Representation) -> DetLineElement:
    """tau = sigma (x) sigma_relative: a nowhere vanishing determinant-line element."""
    return sigma(k, rho).tensor(sigma_relative(k, rho))


def _sequence(k: CWData, rho: Representation, full: GradedComplex,
              a_cells, c_cells) -> ShortExactSequenceData:
    """0 -> A -> C(K) -> C -> 0 with A, C the slices of full on a_cells, c_cells,
    iota and pi the coordinate inclusion and projection."""
    a, c = cochain_slice(k, rho, full, a_cells), cochain_slice(k, rho, full, c_cells)
    eye = [np.eye(d, dtype=np.complex128) for d in full.dims]
    # iota is the transpose of the projection onto A, copied to C order
    iotas = [e[s].T.copy() for e, s in zip(eye, _slots(k, rho.rank, a_cells))]
    pis = [e[s] for e, s in zip(eye, _slots(k, rho.rank, c_cells))]
    return ShortExactSequenceData(a, full, c, iotas, pis)


def relative_ses(k: CWData, rho: Representation) -> ShortExactSequenceData:
    """0 -> C(K,K') -> C(K) -> C(K') -> 0 realized by coordinate inclusion/projection."""
    return _sequence(k, rho, build_cochain(k, rho), k.interior, k.boundary_subcomplex)


def check_sigma_relation(k: CWData, rho_list):
    """Evaluate nu(sigma' (x) sigma'') / sigma for every representation.

    nu is the fusion of the standard chain elements pushed through the
    canonical isomorphism of C(K); the ratio must be +-1 to SIGMA_RATIO_TOL
    and carry the same sign for every representation.  Returns (sign, ratios).
    """
    sign = None
    ratios = []
    for rho in rho_list:
        ses = relative_ses(k, rho)
        full = ses.b
        coh = cohomology(full, tag="H(K)")
        one_rel = DetLineElement(1.0, "std", tuple((j, d) for j, d in enumerate(ses.a.dims)))
        one_sub = DetLineElement(1.0, "std", tuple((j, d) for j, d in enumerate(ses.c.dims)))
        fused = fusion(one_rel, one_sub, ses)
        nu = canonical_iso(full, coh, coordinate=fused.coordinate)
        sig = canonical_iso(full, coh)
        r = nu.ratio(sig)
        ratios.append(r)
        if abs(abs(r) - 1.0) > SIGMA_RATIO_TOL:
            raise StructuralError(f"sigma relation ratio {r} is not of unit size")
        s = 1 if abs(r - 1) < abs(r + 1) else -1
        if abs(r - s) > SIGMA_RATIO_TOL:
            raise StructuralError(
                f"sigma relation ratio {r} is not +-1 within {SIGMA_RATIO_TOL:.0e}")
        if sign is None:
            sign = s
        elif sign != s:
            raise StructuralError("sigma relation sign varies with the representation")
    return sign, ratios


def transmission_split(k: CWData, n_cells, rho: Representation | None = None,
                       ) -> tuple[ShortExactSequenceData, ShortExactSequenceData]:
    """Short exact sequences of the splitting of k along the subcomplex N.

    K minus N must fall into exactly two pieces K_1^o, K_2^o with no boundary
    terms crossing between them; the transmission complex (pairs agreeing on N)
    is C(K) on interior-1 + N + interior-2 coordinates.  Returns the sequences
    0 -> C(K_i, N) -> C(K) -> C(K_{3-i}) -> 0 for i = 1, 2, twisted by rho
    (trivial rank 1 when omitted).
    """
    n_cells = set(n_cells)
    if rho is None:
        rho = trivial_representation(1, k.generators)
    k.restrict(n_cells)  # raises if N is not a subcomplex
    rest = [cid for cid, _ in k.cells if cid not in n_cells]
    if not rest:
        raise StructuralError("N must be a proper subcomplex")
    # undirected adjacency among non-N cells through boundary terms
    adj = {cid: set() for cid in rest}
    for cid, terms in k.boundary.items():
        if cid in n_cells:
            continue
        for face, inc, _ in terms:
            if inc != 0 and face not in n_cells:
                adj[cid].add(face)
                adj[face].add(cid)
    comps = []
    seen = set()
    for cid in rest:
        if cid in seen:
            continue
        stack, comp = [cid], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(comp)
    if len(comps) != 2:
        raise StructuralError(
            f"N does not separate K into two pieces (found {len(comps)} components)"
        )
    int1, int2 = comps
    full = build_cochain(k, rho)
    return (_transmission_ses(k, rho, full, int1, int2, n_cells),
            _transmission_ses(k, rho, full, int2, int1, n_cells))


def transmission_ses_for(k: CWData, int_a: set, int_c: set, n_cells: set,
                         rho: Representation) -> ShortExactSequenceData:
    """The transmission sequence for an explicit representation."""
    return _transmission_ses(k, rho, build_cochain(k, rho), int_a, int_c, n_cells)


def _transmission_ses(k: CWData, rho: Representation, full: GradedComplex, int_a: set,
                      int_c: set, n_cells: set) -> ShortExactSequenceData:
    """0 -> C(K_a, N) -> C(K) -> C(K_c) -> 0 with K_a = int_a + N, K_c = int_c + N."""
    # K_a and K_c must be subcomplexes of K, and N a subcomplex of K_a
    replace(k.restrict(int_a | n_cells), boundary_subcomplex=n_cells)
    k.restrict(int_c | n_cells)
    return _sequence(k, rho, full, int_a, int_c | n_cells)
