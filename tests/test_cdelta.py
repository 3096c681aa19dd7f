import math

import numpy as np
import pytest

from graphfree import cdelta as cd, falg
from graphfree.gralg import GradedElement, bullet_mul, e_vertex
from graphfree.graphs import (GraphError, delta_v, enumerate_paths,
                              two_vertex_graph)


def identity_tpq(n: int) -> cd.TPQMorphism:
    through = (1, n) if n else None
    return cd.TPQMorphism(n, n, through, through)


def loop_basis(g, v, n):
    return enumerate_paths(g, v, 2 * n, v)


def rand_loops(g, v, n, rng):
    basis = loop_basis(g, v, n)
    return GradedElement(g, {p: float(rng.uniform(-1, 1)) for p in basis})


def test_interval_validation():
    cd.TPQMorphism(5, 8, (4, 5), (3, 4))
    with pytest.raises(ValueError):
        cd.TPQMorphism(5, 8, (4, 5), (3, 5))
    with pytest.raises(ValueError):
        cd.TPQMorphism(2, 2, (1, 3), (1, 3))


def test_compose_paper_figure():
    # the canonical word of the figure morphism recomposes exactly
    t = cd.TPQMorphism(5, 8, (4, 5), (3, 4))
    word = cd.generator_word(t)
    power, back = cd.compose_word(word)
    assert power == 0 and back == t
    # the order bijection of the figure shifts by one
    assert t.p[0] - t.q[0] == 1


def test_compose_annihilation_and_exchange():
    for n in range(4):
        power, m = cd.tpq_compose(cd.a_minus(n + 1), cd.c_minus(n))
        assert power == 1 and m == identity_tpq(n)
        power, m = cd.tpq_compose(cd.a_plus(n + 1), cd.c_plus(n))
        assert power == 1 and m == identity_tpq(n)
        assert cd.tpq_compose(cd.c_minus(n + 1), cd.c_plus(n)) == \
            cd.tpq_compose(cd.c_plus(n + 1), cd.c_minus(n))


def test_generator_word_roundtrip(rng):
    for _ in range(100):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        size = int(rng.integers(0, min(n, m) + 1))
        if size == 0:
            t = cd.TPQMorphism(n, m, None, None)
        else:
            plo = int(rng.integers(1, m - size + 2))
            qlo = int(rng.integers(1, n - size + 2))
            t = cd.TPQMorphism(n, m, (plo, plo + size - 1), (qlo, qlo + size - 1))
        word = cd.generator_word(t)
        if not word:  # identities have empty words
            assert t == identity_tpq(t.source)
            continue
        power, back = cd.compose_word(word)
        assert power == 0 and back == t


def test_weight_functional_values():
    assert cd.weight_functional(cd.c_minus(3), 2.0) == pytest.approx(math.sqrt(2))
    assert cd.weight_functional(identity_tpq(4), 2.0) == pytest.approx(1.0)


def test_weight_functional_multiplicative(rng):
    delta = 1.7
    makers = [cd.a_minus, cd.a_plus, cd.c_minus, cd.c_plus]
    for _ in range(100):
        n = int(rng.integers(0, 5))
        word, cur = [], n
        for _ in range(int(rng.integers(1, 6))):
            opts = [cd.c_minus, cd.c_plus] if cur == 0 else makers
            mk = opts[int(rng.integers(0, len(opts)))]
            word.append((mk, cur))
            cur += 1 if mk in (cd.c_minus, cd.c_plus) else -1
        power, comp = None, None
        w_total = 1.0
        for mk, lvl in word:
            mor = mk(lvl)
            w_total *= cd.weight_functional(mor, delta)
            if comp is None:
                power, comp = 0, mor
            else:
                p2, comp = cd.tpq_compose(mor, comp)
                power += p2
        assert w_total == pytest.approx(
            delta ** power * cd.weight_functional(comp, delta))


def test_c_element_examples(a2, a3):
    c = cd.c_element(a2, "v0")
    loop = a2.path_from_vertices(["v0", "v1", "v0"])
    assert c.coeff(loop) == pytest.approx(a2.mu(1) / a2.mu(0))
    # one cap annihilates the doubled edge to delta(v) e_v
    dv = delta_v(a2, "v0")
    out = cd.gen_act(a2, "v0", "A-", c)
    assert out.norm_inf_diff(dv * e_vertex(a2, "v0")) < 1e-12


def test_c2n_top_term_and_norm(a3, rng):
    v = "v1"
    dv = delta_v(a3, v)
    for n in range(1, 5):
        c2n = cd.c_2n(a3, v, n)
        assert sum(c * c for c in c2n.terms.values()) == pytest.approx(dv ** n)
    # c_{2n} is the top-degree term of the n-th sharp power of c
    c = cd.c_element(a3, v)
    power = c
    for n in (2, 3):
        power = falg.sharp_mul(power, c)
        assert power.component(2 * n).norm_inf_diff(cd.c_2n(a3, v, n)) < 1e-10


def test_d_element_single_edge(a2):
    d = cd.d_element(a2, "v0")
    loop = a2.path_from_vertices(["v0", "v1", "v0", "v1", "v0"])
    assert list(d.terms) == [loop]
    assert d.coeff(loop) == pytest.approx(1.0)  # mu(v)/mu(v)


def test_adjointness_of_cap_and_cup(a3):
    v = "v1"
    for n in (0, 1, 2):
        rows = loop_basis(a3, a3.index(v), n + 1)
        cols = loop_basis(a3, a3.index(v), n)
        for kind_c, kind_a in (("C-", "A-"), ("C+", "A+")):
            mc = np.zeros((len(rows), len(cols)))
            ma = np.zeros((len(cols), len(rows)))
            ri = {p: i for i, p in enumerate(rows)}
            ci = {p: i for i, p in enumerate(cols)}
            for j, p in enumerate(cols):
                img = cd.gen_act(a3, v, kind_c, GradedElement.basis(a3, p))
                for q, cval in img.terms.items():
                    mc[ri[q], j] = cval
            for j, p in enumerate(rows):
                img = cd.gen_act(a3, v, kind_a, GradedElement.basis(a3, p))
                for q, cval in img.terms.items():
                    ma[ci[q], j] = cval
            assert np.max(np.abs(mc - ma.T)) < 1e-12


def test_commutator_top_terms(a3, rng):
    v = "v1"
    c = cd.c_element(a3, v)
    for n in (1, 2):
        x = rand_loops(a3, a3.index(v), n, rng)
        top_left = falg.sharp_mul(c, x).component(2 * n + 2)
        top_right = falg.sharp_mul(x, c).component(2 * n + 2)
        assert top_left.norm_inf_diff(cd.gen_act(a3, v, "C-", x)) < 1e-12
        assert top_right.norm_inf_diff(cd.gen_act(a3, v, "C+", x)) < 1e-12


def test_commutant_inversion(a3, dbl, rng):
    for g in (a3, dbl):
        for vi in range(g.n_vertices):
            dv = delta_v(g, vi)
            for n in (1, 2, 3):
                basis = loop_basis(g, vi, n)
                if not basis:
                    continue
                c2n = cd.c_2n(g, vi, n)
                x = rand_loops(g, vi, n, rng)
                ip = sum(x.coeff(p) * c2n.coeff(p) for p in basis)
                nrm = sum(c * c for c in c2n.terms.values())
                x = x - (ip / nrm) * c2n
                z = cd.gen_act(g, vi, "C-", x) - cd.gen_act(g, vi, "C+", x)
                rec = GradedElement(g)
                for t in range(1, n + 1):
                    mor = cd.TPQMorphism(n + 1, n, (1, n + 1 - t), (t + 1, n + 1))
                    rec = rec + (dv ** -t) * cd.tpq_act(g, vi, mor, z)
                assert rec.norm_inf_diff(x) < 1e-9


def test_zv_truncation_kills_edges():
    g = two_vertex_graph(2, 0.8, 0.2)
    dv = delta_v(g, "v")
    assert dv == pytest.approx(0.5)
    for m in (1, 2, 3, 4):
        xm = cd.zv_truncation(g, "v", m)
        for p in enumerate_paths(g, "v", 1, None):
            xi = GradedElement.basis(g, p)
            lhs = falg.sharp_mul(xm, xi)
            rhs = ((-1.0) ** m) * bullet_mul(cd.c_2n(g, "v", m), xi)
            assert lhs.norm_inf_diff(rhs) < 1e-10


def test_zv_block_structure(rng):
    g = two_vertex_graph(2, 0.8, 0.2)
    for m in (1, 2, 3):
        xm = cd.zv_truncation(g, "v", m)
        for j in range(3):
            for p in loop_basis(g, 0, j):
                x = GradedElement.basis(g, p)
                full = falg.sharp_mul(xm, x)
                for i in range(4):
                    blk = cd.xm_block(g, "v", m, i, j, x)
                    assert full.component(2 * i).norm_inf_diff(blk) < 1e-10


def test_zv_truncated_norm_bound():
    g = two_vertex_graph(2, 0.8, 0.2)
    dv = delta_v(g, "v")
    bound = 1 + 2 * sum(dv ** (t / 2) for t in range(1, 400))
    for m in (1, 2, 3):
        xm = cd.zv_truncation(g, "v", m)
        for degree in (8, 10):
            mat, _ = falg.truncated_left_mult(xm, degree)
            assert falg.operator_norm(mat) <= bound + 1e-9


def test_center_report_cases():
    with pytest.raises(GraphError):
        cd.center_report(two_vertex_graph(1, 2 / 3, 1 / 3), "v")  # one edge
    g = two_vertex_graph(2, 2 / 3, 1 / 3)
    assert cd.center_report(g, "w").center_dim == 1   # delta(w) = 4
    assert cd.center_report(g, "v").center_dim == 1   # delta(v) = 1
    g2 = two_vertex_graph(2, 0.8, 0.2)
    rep = cd.center_report(g2, "v")
    assert rep.center_dim == 2
    assert rep.atom_trace == pytest.approx(0.4)
    # zv_truncation still works on the one-edge graph
    cd.zv_truncation(two_vertex_graph(1, 2 / 3, 1 / 3), "v", 3)


def test_graph_atoms_pf_empty(a3, battery):
    assert cd.graph_atoms(a3) == []
    g = two_vertex_graph(2, 0.8, 0.2)
    assert cd.graph_atoms(g) == [("v", pytest.approx(0.4))]


def test_commutator_with_d_nonvanishing(a3, dbl):
    # finite shadow of the two-element commutant argument: on graphs with
    # at least two edges the top component of [d, c_{2k}] never vanishes,
    # which is what forces the alternating coefficient recurrence
    for g in (a3, dbl):
        for vi in range(g.n_vertices):
            d = cd.d_element(g, vi)
            for k in (1, 2):
                c2k = cd.c_2n(g, vi, k)
                comm = falg.sharp_mul(d, c2k) - falg.sharp_mul(c2k, d)
                top = comm.component(2 * k + 4)
                assert not top.is_zero()
    # on the one-edge graph the commutator collapses: the dichotomy needs
    # at least two edges
    a2 = two_vertex_graph(1, 0.5, 0.5)
    d = cd.d_element(a2, "v")
    c2 = cd.c_2n(a2, "v", 1)
    comm = falg.sharp_mul(d, c2) - falg.sharp_mul(c2, d)
    assert comm.component(6).is_zero()


def test_tpq_act_respects_composition(a3, rng):
    v = "v1"
    vi = a3.index(v)
    dv = delta_v(a3, v)
    for _ in range(40):
        n = int(rng.integers(0, 3))
        mid = int(rng.integers(0, 3))
        out = int(rng.integers(0, 3))
        g_mor = _rand_tpq(n, mid, rng)
        f_mor = _rand_tpq(mid, out, rng)
        power, comp = cd.tpq_compose(f_mor, g_mor)
        x = rand_loops(a3, vi, n, rng)
        lhs = cd.tpq_act(a3, v, f_mor, cd.tpq_act(a3, v, g_mor, x))
        rhs = (dv ** power) * cd.tpq_act(a3, v, comp, x)
        assert lhs.norm_inf_diff(rhs) < 1e-9


def _rand_tpq(n, m, rng):
    size = int(rng.integers(0, min(n, m) + 1))
    if size == 0:
        return cd.TPQMorphism(n, m, None, None)
    plo = int(rng.integers(1, m - size + 2))
    qlo = int(rng.integers(1, n - size + 2))
    return cd.TPQMorphism(n, m, (plo, plo + size - 1), (qlo, qlo + size - 1))
