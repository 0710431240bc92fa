import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from oracles import cochain_by_cells, coordinate_maps
from torsionkit.chain import cohomology, les_of_ses, verify_complex
from torsionkit.cw import (CWData, Representation, boundary_complex, build_cochain,
                           build_relative, check_sigma_relation, relative_ses,
                           sigma, sigma_relative, tau_section,
                           transmission_ses_for, transmission_split,
                           trivial_representation, validate_representation)
from torsionkit.holomorphy import doubled_cochain
from torsionkit.linalg import StructuralError
from torsionkit.selftest import (circle_cw, disc_cw, interval_cw, split_circle_cw,
                                 torus_cw)


def rank1(lam):
    return Representation(1, {"t": np.array([[lam]], dtype=complex)})


def test_validate_representation_values():
    assert validate_representation(trivial_representation(2, ["t"]), circle_cw()) == 0.0
    assert validate_representation(rank1(2.0), circle_cw()) == 0.0
    torus = torus_cw()
    noncomm = Representation(2, {"t": np.array([[1.0, 1.0], [0.0, 1.0]], complex),
                                 "s": np.array([[1.0, 0.0], [1.0, 1.0]], complex)})
    assert validate_representation(noncomm, torus) > 0.0


def test_validate_rejects_unknown_generator():
    k = CWData(cells=[("v", 0), ("e", 1)],
               boundary={"e": [("v", 1, "q"), ("v", -1, "")]}, generators=["t"])
    with pytest.raises(StructuralError):
        validate_representation(rank1(2.0), k)


def test_build_cochain_circle_differential():
    c = build_cochain(circle_cw(), rank1(2.0))
    assert c.dims == (1, 1)
    assert abs(c.differentials[0][0, 0] - 1.0) < 1e-15  # lambda - 1
    lam = 0.3 - 0.7j
    c2 = build_cochain(circle_cw(), rank1(lam))
    assert abs(c2.differentials[0][0, 0] - (lam - 1.0)) < 1e-15


def test_build_cochain_trivial_rep_integer_incidences():
    k = split_circle_cw()
    c = build_cochain(k, trivial_representation(3, ["t"]))
    d = c.differentials[0]
    want = np.kron(np.array([[-1, 1], [1, -1]], dtype=complex), np.eye(3))
    assert sla.norm(d - want) < 1e-14


def test_build_cochain_interval_cohomology():
    c = build_cochain(interval_cw(), trivial_representation(2, []))
    coh = cohomology(c)
    assert coh.dims == (2, 0)


def test_build_relative_interval():
    c = build_relative(interval_cw(), trivial_representation(2, []))
    assert c.dims == (0, 2)
    assert cohomology(c).dims == (0, 2)


def test_build_relative_empty_subcomplex_equals_full():
    k = circle_cw()
    rep = rank1(2.0)
    full = build_cochain(k, rep)
    rel = build_relative(k, rep)
    assert full.dims == rel.dims
    assert all(sla.norm(a - b) < 1e-14
               for a, b in zip(full.differentials, rel.differentials))


def test_relative_circle_one_vertex_subcomplex():
    k = CWData(cells=[("v1", 0), ("v2", 0), ("e1", 1), ("e2", 1)],
               boundary={"e1": [("v2", 1, ""), ("v1", -1, "")],
                         "e2": [("v1", 1, "t"), ("v2", -1, "")]},
               generators=["t"], boundary_subcomplex={"v1"})
    rel = build_relative(k, rank1(2.0))
    assert rel.dims == (1, 2)
    # one-vertex circle rel its vertex: dims (0, n)
    k1 = CWData(cells=[("v", 0), ("e", 1)],
                boundary={"e": [("v", 1, "t"), ("v", -1, "")]},
                generators=["t"], boundary_subcomplex={"v"})
    for n in (1, 3):
        rep = Representation(n, {"t": 2.0 * np.eye(n, dtype=complex)})
        assert build_relative(k1, rep).dims == (0, n)


def test_sigma_circle_values():
    # acyclic at lambda=2: sigma = (lambda - 1) = 1 under the documented convention
    s = sigma(circle_cw(), rank1(2.0))
    assert abs(s.coordinate - 1.0) < 1e-12
    lam = 3.0 - 1.0j
    s2 = sigma(circle_cw(), rank1(lam))
    assert abs(s2.coordinate - (lam - 1.0)) < 1e-12


def test_sigma_trivial_rank1_circle():
    s = sigma(circle_cw(), rank1(1.0))
    assert abs(abs(s.coordinate) - 1.0) < 1e-12


def test_sigma_relative_equals_sigma_when_no_boundary():
    k = circle_cw()
    rep = rank1(2.0)
    assert abs(sigma(k, rep).coordinate - sigma_relative(k, rep).coordinate) < 1e-12


def test_tau_section_product_and_nonzero():
    k = interval_cw()
    rep = trivial_representation(1, [])
    t = tau_section(k, rep)
    s = sigma(k, rep)
    s2 = sigma_relative(k, rep)
    assert abs(t.coordinate - s.coordinate * s2.coordinate) < 1e-12
    assert t.coordinate != 0


def test_sigma_lift_covariance_interval():
    # non-acyclic case: compare against the cohomology bases transported
    # through the slot-scaling isomorphism induced by the lift change
    k = CWData(cells=[("v1", 0), ("v2", 0), ("e", 1)],
               boundary={"e": [("v2", 1, "t"), ("v1", -1, "")]},
               generators=["t"])
    rep = Representation(2, {"t": np.array([[2.0, 0.5], [0.0, 0.5]], complex)})
    det_t = sla.det(rep.matrices["t"])
    c_old = build_cochain(k, rep)
    coh_old = cohomology(c_old, tag="H")
    base = sigma(k, rep, coh_old).coordinate
    k_new = k.change_lift("v1", "t")
    c_new = build_cochain(k_new, rep)
    s_block = sla.block_diag(rep.matrices["t"], np.eye(2))
    assert sla.norm(c_new.differentials[0] - c_old.differentials[0] @ s_block) < 1e-12
    from torsionkit.chain import Cohomology
    reps_new = [sla.inv(s_block) @ coh_old.representatives[0],
                coh_old.representatives[1]]
    coh_new = Cohomology(coh_old.dims, reps_new, [], tag="H")
    vert = sigma(k_new, rep, coh_new).coordinate
    assert abs(vert / base - det_t) < 1e-10


def test_check_sigma_relation_interval_and_random():
    sign, ratios = check_sigma_relation(
        interval_cw(), [trivial_representation(n, []) for n in (1, 2, 3)])
    assert sign in (1, -1)
    assert all(abs(r - sign) < 1e-10 for r in ratios)


def test_check_sigma_relation_no_boundary_is_plus_one():
    sign, ratios = check_sigma_relation(circle_cw(), [rank1(2.0), rank1(1.5)])
    assert sign == 1
    assert all(abs(r - 1.0) < 1e-10 for r in ratios)


def test_check_sigma_relation_sign_constant_random_rank2():
    rng = np.random.default_rng(6)
    reps = []
    while len(reps) < 10:
        m = np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                               + 1j * rng.standard_normal((2, 2)))
        reps.append(Representation(2, {"t": m}))
    sign, _ = check_sigma_relation(split_circle_cw(), reps)
    assert sign in (1, -1)


def test_bad_lift_data_raises():
    k = CWData(cells=[("v", 0), ("a", 1), ("f", 2)],
               boundary={"a": [("v", 1, "t"), ("v", -1, "")],
                         "f": [("a", 1, "")]},
               generators=["t"])
    # the disc relation t = 1 is missing, so a generic rep breaks dd = 0
    with pytest.raises(StructuralError):
        build_cochain(k, rank1(2.0))


def test_transmission_split_circle_dims():
    k = split_circle_cw()
    rep = rank1(2.0)
    ses1, ses2 = transmission_split(k, {"v1", "v2"}, rep)
    for ses in (ses1, ses2):
        ses.validate()
        assert ses.b.dims == build_cochain(k, rep).dims
        assert ses.a.dims == (0, 1)
        assert ses.c.dims == (2, 1)


def test_transmission_split_needs_separation():
    # N = one vertex leaves the complement connected through the other vertex
    k = split_circle_cw()
    with pytest.raises(StructuralError):
        transmission_split(k, {"v1"})


def test_transmission_disconnected_direct_sum():
    k = CWData(cells=[("p", 0), ("q", 0), ("e", 1), ("f", 1)],
               boundary={"e": [("p", 1, ""), ("p", -1, "")],
                         "f": [("q", 1, ""), ("q", -1, "")]},
               generators=[])
    ses1, ses2 = transmission_split(k, set())
    ses1.validate()
    ses2.validate()
    assert ses1.a.dims[0] + ses1.c.dims[0] == 2


def test_relative_ses_les_runs():
    k = interval_cw()
    rep = trivial_representation(1, [])
    ses = relative_ses(k, rep)
    ses.validate()
    les = les_of_ses(ses)
    assert verify_complex(les.les, 1e-8)
    assert les.torsion != 0


def test_boundary_subcomplex_closure_enforced():
    with pytest.raises(StructuralError):
        CWData(cells=[("v", 0), ("e", 1)],
               boundary={"e": [("v", 1, "t"), ("v", -1, "")]},
               generators=["t"], boundary_subcomplex={"e"})


def assert_same_bits(c, ref):
    assert c.dims == ref.dims
    for d, r in zip(c.differentials, ref.differentials, strict=True):
        assert d.shape == r.shape
        assert d.flags.c_contiguous and r.flags.c_contiguous
        assert d.tobytes() == r.tobytes()


def assert_slices_match_cell_loop(k, rho, n_cells=None):
    """Every complex the library slices out of C(K, rho) against the cell loop.

    With n_cells, also both sides of the transmission sequences of the
    splitting along N = n_cells, and their inclusion/projection maps.
    """
    interior = {cid for cid, _ in k.cells if cid not in k.boundary_subcomplex}
    ref_full = cochain_by_cells(k, rho)
    ref_rel = cochain_by_cells(k, rho, interior)
    assert_same_bits(build_cochain(k, rho), ref_full)
    assert_same_bits(build_relative(k, rho), ref_rel)
    assert_same_bits(boundary_complex(k, rho), cochain_by_cells(k, rho, k.boundary_subcomplex))
    assert_same_bits(doubled_cochain(k, rho), ref_rel.direct_sum(ref_full))
    if n_cells is None:
        return
    # transmission_split names first the piece holding the first cell outside N
    rest = {cid for cid, _ in k.cells if cid not in n_cells}
    first = _component(k, rest, next(cid for cid, _ in k.cells if cid in rest))
    pieces = [first, rest - first]
    split = transmission_split(k, n_cells, rho)
    for ses, (int_a, int_c) in zip(split, (pieces, pieces[::-1]), strict=True):
        for seq in (ses, transmission_ses_for(k, int_a, int_c, n_cells, rho)):
            assert_same_bits(seq.b, ref_full)
            assert_same_bits(seq.a, cochain_by_cells(k, rho, int_a))
            assert_same_bits(seq.c, cochain_by_cells(k, rho, int_c | n_cells))
            iotas, pis = coordinate_maps(k, rho.rank, int_a, int_c | n_cells)
            for got, want in zip(seq.iota + seq.pi, iotas + pis, strict=True):
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


def _component(k, rest, start) -> set:
    """The cells of rest joined to start by boundary terms inside rest."""
    adj = {cid: set() for cid in rest}
    for f, terms in k.boundary.items():
        for face, inc, _ in terms:
            if inc and f in rest and face in rest:
                adj[f].add(face)
                adj[face].add(f)
    seen, stack = set(), [start]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(adj[x])
    return seen


def test_slices_match_cell_loop_on_fixtures():
    rng = np.random.default_rng(6)
    for n in (1, 3):
        assert_slices_match_cell_loop(interval_cw(), trivial_representation(n, []))
        assert_slices_match_cell_loop(disc_cw(), trivial_representation(n, []),
                                      {"v1", "v2", "c"})
    for _ in range(3):
        t = np.eye(2) + 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert_slices_match_cell_loop(split_circle_cw(), Representation(2, {"t": t}),
                                      {"v1", "v2"})
    lam, mu = (np.diag(rng.uniform(0.5, 2.0, 3) * np.exp(1j * rng.uniform(0, 6.28, 3)))
               for _ in range(2))
    assert_slices_match_cell_loop(torus_cw(), Representation(3, {"t": lam, "s": mu}))


def circle_with_cut(n_cells, cut_a, cut_b):
    """n_cells-vertex circle, the last edge carrying t, with K' = {v_cut_a, v_cut_b}."""
    cells = [(f"v{i}", 0) for i in range(n_cells)] + [(f"e{i}", 1) for i in range(n_cells)]
    boundary = {f"e{i}": [(f"v{(i + 1) % n_cells}", 1, "t" if i == n_cells - 1 else ""),
                          (f"v{i}", -1, "")] for i in range(n_cells)}
    return CWData(cells, boundary, ["t"], boundary_subcomplex={f"v{cut_a}", f"v{cut_b}"})


@settings(max_examples=60, deadline=None)
@given(n_cells=st.integers(2, 16), data=st.data(), rank=st.integers(1, 4),
       log_scale=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_slices_match_cell_loop_on_cut_circles(n_cells, data, rank, log_scale, seed):
    cut_a, cut_b = data.draw(st.lists(st.integers(0, n_cells - 1), min_size=2, max_size=2,
                                      unique=True))
    k = circle_with_cut(n_cells, cut_a, cut_b)
    g = np.random.default_rng(seed).standard_normal((2, rank, rank))
    hol = 10.0 ** log_scale * (np.eye(rank) + 0.5 * (g[0] + 1j * g[1]) / np.sqrt(rank))
    assert_slices_match_cell_loop(k, Representation(rank, {"t": hol}), k.boundary_subcomplex)
