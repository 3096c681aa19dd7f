import math

import numpy as np
import pytest

from graphfree import epitl, falg, noncross as ncx
from graphfree.graphs import GraphError, Path, delta_max, enumerate_paths, vertex_path
from graphfree.gralg import GradedElement


def identity_epi(n: int) -> epitl.EpiMorphism:
    return epitl.EpiMorphism(n, n, ())


def act_direct(f: epitl.EpiMorphism, x: GradedElement) -> GradedElement:
    """Oracle action straight from the diagram.

    Each cap contributes a reversal delta and a mu-ratio; the surviving
    through edges concatenate in increasing order (the finish vertex
    alone when nothing passes through).
    """
    g = x.graph
    if not x.is_zero() and x.degree() != f.source:
        raise GraphError("degree mismatch")
    pairs, through = f.cap_pairs()
    out: dict[Path, float] = {}
    for p, c in x.terms.items():
        coeff = c
        for a, b in pairs:
            if p.edges[a - 1] != g.erev[p.edges[b - 1]]:
                break
            coeff *= g.mu(p.vertices[a]) / g.mu(p.vertices[b])
        else:
            if through:
                verts = (p.vertices[through[0] - 1],) + tuple(p.vertices[t] for t in through)
                q = Path(verts, tuple(p.edges[t - 1] for t in through))
            else:
                q = vertex_path(p.finish)
            out[q] = out.get(q, 0.0) + coeff
    return GradedElement(g, out)


def test_canonical_form_validation():
    epitl.EpiMorphism(4, 0, (1, 3))
    with pytest.raises(ValueError):
        epitl.EpiMorphism(4, 0, (2, 3))  # first cap slot bound is 1
    with pytest.raises(ValueError):
        epitl.EpiMorphism(4, 0, (1,))
    with pytest.raises(ValueError):
        epitl.EpiMorphism(3, 0, ())


def test_enumerate_hom_examples():
    assert [f.caps for f in epitl.enumerate_hom(4, 0)] == [(1, 2), (1, 3)]
    assert [f.caps for f in epitl.enumerate_hom(4, 0) if f.is_nonnested()] == [(1, 3)]
    assert [f.caps for f in epitl.enumerate_hom(3, 1)] == [(1,), (2,)]
    for n in range(1, 7):
        assert len(epitl.enumerate_hom(2 * n, 0)) == ncx.catalan(n)


def test_cap_pairs_resolution():
    nested = epitl.EpiMorphism(4, 0, (1, 2))
    assert nested.cap_pairs() == (((1, 4), (2, 3)), ())
    assert not nested.is_nonnested()
    side = epitl.EpiMorphism(4, 0, (1, 3))
    assert side.cap_pairs() == (((1, 2), (3, 4)), ())
    assert side.is_nonnested()
    mixed = epitl.EpiMorphism(5, 1, (2, 3))
    pairs, through = mixed.cap_pairs()
    assert pairs == ((2, 5), (3, 4)) and through == (1,)


def test_compose_examples():
    s21, s43, s42 = (epitl.cap_generator(2, 1), epitl.cap_generator(4, 3),
                     epitl.cap_generator(4, 2))
    assert epitl.compose(s21, s43).caps == (1, 3)
    assert epitl.compose(s21, s42).caps == (1, 2)
    f = epitl.EpiMorphism(6, 2, (1, 4))
    assert epitl.compose(identity_epi(2), f) == f
    assert epitl.compose(f, identity_epi(6)) == f


def test_compose_matches_rewriting_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        ks = [k for k in range(0, n // 2 + 1) if (n - 2 * k) >= 0]
        m = n - 2 * int(rng.integers(0, len(ks)))
        homs = epitl.enumerate_hom(n, m)
        f = homs[int(rng.integers(0, len(homs)))]
        p = n + 2 * int(rng.integers(1, 3))
        homs2 = epitl.enumerate_hom(p, n)
        g = homs2[int(rng.integers(0, len(homs2)))]
        assert epitl.compose(f, g) == epitl.compose_by_rewriting(f, g)


def test_tl_roundtrip():
    for n in range(1, 6):
        for t in ncx.enumerate_tl(2 * n):
            assert epitl.to_tl(epitl.from_tl(t)) == t


def test_act_simple_cap(a2):
    loop = a2.path_from_vertices(["v0", "v1", "v0"])
    out = epitl.act(epitl.cap_generator(2, 1), GradedElement.basis(a2, loop))
    [(p, c)] = list(out.terms.items())
    assert p.length == 0 and p.start == 0
    assert c == pytest.approx(a2.mu(1) / a2.mu(0))


def test_act_mismatched_reversal_is_zero(dbl):
    e0, e1 = dbl.out_edges(0)
    p = dbl.path(0, (e0, dbl.erev[e1]))
    assert epitl.act(epitl.cap_generator(2, 1),
                     GradedElement.basis(dbl, p)).is_zero()


def test_act_degree_mismatch(a2):
    x = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1"]))
    with pytest.raises(GraphError):
        epitl.act(epitl.cap_generator(4, 1), x)


def test_act_equals_direct_form(battery):
    for g in battery.values():
        for n in (2, 3, 4):
            for m in range(n % 2, n + 1, 2):
                for f in epitl.enumerate_hom(n, m):
                    for p in enumerate_paths(g, None, n, None):
                        b = GradedElement.basis(g, p)
                        assert epitl.act(f, b).norm_inf_diff(
                            act_direct(f, b)) < 1e-12


def test_act_functorial(a3, rng):
    for _ in range(50):
        n = int(rng.integers(4, 8))
        mid = n - 2 * int(rng.integers(1, (n - 1) // 2 + 1))
        homs_g = epitl.enumerate_hom(n, mid)
        g = homs_g[int(rng.integers(0, len(homs_g)))]
        m = mid - 2 * int(rng.integers(0, mid // 2 + 1))
        homs_f = epitl.enumerate_hom(mid, m)
        f = homs_f[int(rng.integers(0, len(homs_f)))]
        for p in enumerate_paths(a3, None, n, None):
            b = GradedElement.basis(a3, p)
            lhs = epitl.act(epitl.compose(f, g), b)
            rhs = epitl.act(f, epitl.act(g, b))
            assert lhs.norm_inf_diff(rhs) < 1e-12


def test_exchange_relation_operators(battery):
    # the exchange relation holds as operators on every path space
    for name in ("a2", "a3", "k1_2", "dbl"):
        g = battery[name]
        for n in range(4, 9):
            paths = enumerate_paths(g, None, n, None)
            for pp in range(1, n - 2):
                for qq in range(1, pp + 1):
                    lhs = epitl.compose(epitl.cap_generator(n - 2, pp),
                                        epitl.cap_generator(n, qq))
                    rhs = epitl.compose(epitl.cap_generator(n - 2, qq),
                                        epitl.cap_generator(n, pp + 2))
                    for p in paths:
                        b = GradedElement.basis(g, p)
                        assert epitl.act(lhs, b).norm_inf_diff(
                            epitl.act(rhs, b)) < 1e-12


def test_full_capping_closed_form_telescopes(a3):
    # fully nested capping of a consistent length-4 loop
    f = epitl.EpiMorphism(4, 0, (1, 2))
    for p in enumerate_paths(a3, None, 4, None):
        b = GradedElement.basis(a3, p)
        out = epitl.act(f, b)
        consistent = (p.edges[1] == a3.erev[p.edges[2]]
                      and p.edges[0] == a3.erev[p.edges[3]])
        if consistent:
            [(q, c)] = list(out.terms.items())
            assert q.start == p.finish
            assert c == pytest.approx(a3.mu(p.vertices[2]) / a3.mu(p.vertices[4]))
        else:
            assert out.is_zero()


def _closed_form_deviation(f: epitl.EpiMorphism, g, p: Path) -> float:
    """How far a full capping's action on one basis path is from its closed form."""
    closed = {vertex_path(p.finish): epitl.closed_cap_value(g, epitl.to_tl(f), p)}
    return epitl.act(f, GradedElement.basis(g, p)).norm_inf_diff(GradedElement(g, closed))


def test_paper_capping_relation_on_a3(a3):
    rel = ncx.nc(10, [(1, 10), (2, 7), (3, 6), (4, 5), (8, 9)])
    f = epitl.from_tl(rel)
    for p in enumerate_paths(a3, None, 10, None):
        assert _closed_form_deviation(f, a3, p) <= 1e-12


def test_diffexp_exhaustive_degree6(a3):
    for f in epitl.enumerate_hom(6, 0):
        for p in enumerate_paths(a3, None, 6, None):
            assert _closed_form_deviation(f, a3, p) <= 1e-12


def test_cap_adjoint_and_norm(battery):
    for g in battery.values():
        bound = math.sqrt(delta_max(g))
        for n in (2, 3, 4):
            for i in range(1, n):
                mat = epitl.hom_matrix(g, epitl.cap_generator(n, i))
                adj = epitl.cap_adjoint_matrix(g, n, i)
                assert np.max(np.abs(mat.T - adj)) < 1e-12 if mat.size else True
                assert falg.operator_norm(mat) <= bound + 1e-9


@pytest.mark.parametrize("n, i", [(n, i) for n in (0, 1, 2, 3) for i in range(n + 1)])
def test_cup_is_cap_adjoint_at_every_slot(battery, n, i):
    # the cup at vertex v_i of length-n paths is the transpose of the cap
    # joining edges i+1, i+2 of length-(n+2) paths, so its norm is bounded
    # by sqrt(delta_max) as well
    for g in battery.values():
        rows = enumerate_paths(g, None, n + 2, None)
        cols = enumerate_paths(g, None, n, None)
        row_index = {p: k for k, p in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)))
        for j, p in enumerate(cols):
            for q, c in epitl.cup(GradedElement.basis(g, p), i).terms.items():
                assert q.start == p.start and q.finish == p.finish
                mat[row_index[q], j] = c
        cap = epitl.hom_matrix(g, epitl.cap_generator(n + 2, i + 1))
        assert np.max(np.abs(cap.T - mat)) < 1e-12
        assert falg.operator_norm(mat) <= math.sqrt(delta_max(g)) + 1e-9


def test_cup_slot_out_of_range(a3):
    x = GradedElement.basis(a3, a3.path_from_vertices(["v0", "v1", "v0"]))
    for i in (-1, 3):
        with pytest.raises(GraphError):
            epitl.cup(x, i)
