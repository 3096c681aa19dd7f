import math

import numpy as np
import pytest

from graphfree import factors as fc
from graphfree.graphs import (EVEN, ODD, GraphError, build_graph, line_graph,
                              star_graph, two_vertex_graph)


def lz(weight: float = 1.0) -> fc.AlgDesc:
    return fc.lf(1.0, weight)


def atom_plus_lf(atom: float, t: float, **kw) -> fc.AlgDesc:
    return fc.AlgDesc((atom,), ((t, 1.0 - atom),), **kw)


def test_fdim_values():
    assert fc.fdim(fc.lf(3.0)) == pytest.approx(3.0)
    assert fc.fdim(fc.AlgDesc((0.5, 0.5))) == pytest.approx(0.5)
    n = 4
    d = fc.AlgDesc((1 - 1 / math.sqrt(n),), ((1.0, 1 / math.sqrt(n)),))
    assert fc.fdim(d) == pytest.approx(2 / math.sqrt(n) - 1 / n)


def test_desc_validation():
    with pytest.raises(ValueError):
        fc.AlgDesc((0.5,), ((0.9, 0.5),))  # parameter below 1
    with pytest.raises(ValueError):
        fc.AlgDesc((0.5,), ())             # mass below 1
    with pytest.raises(ValueError):
        fc.AlgDesc((-0.5, 1.5), ())


def test_free_product_diffuse():
    assert fc.free_product(lz(), lz()).pretty() == "LF(2)"
    got = fc.free_product(fc.lf(1.5), fc.lf(2.5))
    assert got.diffuse[0][0] == pytest.approx(4.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_free_product_star_family(n):
    base = fc.AlgDesc((1 - 1 / math.sqrt(n),), ((1.0, 1 / math.sqrt(n)),))
    prod = fc.free_product_many([base] * n)
    assert not prod.atoms
    assert prod.diffuse[0][0] == pytest.approx(2 * math.sqrt(n) - 1, abs=1e-9)


def test_free_product_atoms_and_flag():
    p = fc.free_product(fc.AlgDesc((0.8, 0.2)), fc.AlgDesc((0.8, 0.2)))
    assert p.atoms == pytest.approx((0.6,))
    assert p.diffuse[0][1] == pytest.approx(0.4)
    assert p.hyperfinite_possible
    q = fc.free_product(lz(), fc.AlgDesc((0.8, 0.2)))
    assert not q.hyperfinite_possible


def test_free_product_degenerate_inputs():
    with pytest.raises(GraphError):
        fc.free_product(fc.AlgDesc((1.0,)), fc.AlgDesc((1.0,)))
    with pytest.raises(GraphError):
        fc.free_product(fc.AlgDesc((), ((1.5, 0.5), (2.0, 0.5))), lz())
    # the trivial algebra is a unit for the free product
    d = atom_plus_lf(0.3, 1.7)
    got = fc.free_product(fc.AlgDesc((1.0,)), d)
    assert got.atoms == pytest.approx(d.atoms)
    assert got.diffuse[0] == pytest.approx(d.diffuse[0])


def test_compress_values():
    assert fc.compress_factor(3.0, 1.0) == pytest.approx(3.0)
    assert fc.compress_factor(3.0, 0.5) == pytest.approx(9.0)
    q, a, b = 2, 0.5, 0.5
    whole = 1 + 2 * q * a * b - a * a - b * b
    assert fc.compress_factor(whole, b) == pytest.approx(2 * q * a / b - (a / b) ** 2)
    # compressing by the full projection returns the same parameter
    assert fc.compress_factor(fc.compress_factor(2.3, 1.0), 1.0) == pytest.approx(2.3)


def test_prop_line_three_regimes():
    assert fc.prop_line(2, 0.5, 0.5).pretty() == "LF(3)"
    assert fc.prop_line(1, 0.5, 0.5).pretty() == "LZ"
    got = fc.prop_line(1, 1 / 3, 2 / 3)
    assert got.atoms == pytest.approx((0.5,))
    assert got.diffuse[0] == pytest.approx((1.0, 0.5))
    # first regime: heavy even side saturates at q^2
    got = fc.prop_line(2, 0.9, 0.1)
    assert got.pretty() == "LF(4)"
    # even corner swaps the weights
    odd = fc.prop_line(3, 0.2, 0.8, side="odd")
    even = fc.prop_line(3, 0.8, 0.2, side="even")
    assert odd == even


def test_prop_line_regime_grid():
    for q in (1, 2, 3):
        for alpha in np.linspace(0.05, 0.95, 19):
            beta = 1 - alpha
            d = fc.prop_line(q, float(alpha), float(beta))
            ratio = alpha / beta
            if ratio > q:
                assert d.diffuse[0][0] == pytest.approx(q * q)
            elif ratio >= 1 / q:
                assert d.diffuse[0][0] == pytest.approx(
                    2 * q * ratio - ratio ** 2)
            else:
                assert d.atoms[0] == pytest.approx(1 - ratio * q)
                assert d.diffuse[0][0] == pytest.approx(2 - 1 / q ** 2)


def test_omega_factor():
    d = fc.omega_factor(2, 0.5, 0.5)
    assert d.diffuse[0][0] == pytest.approx(1.5)
    assert fc.omega_factor(1, 0.25, 0.75) is None
    assert fc.omega_factor(3, 5 / 6, 1 / 6) is None


def test_omega_consistent_with_corners():
    # compressing the whole parameter by either vertex projection gives
    # the corresponding corner classification
    for q, alpha in ((2, 0.5), (2, 0.45), (3, 0.6)):
        beta = 1 - alpha
        d = fc.omega_factor(q, alpha, beta)
        if d is None:
            continue
        whole = d.diffuse[0][0]
        odd = fc.prop_line(q, alpha, beta, side="odd")
        even = fc.prop_line(q, alpha, beta, side="even")
        assert fc.compress_factor(whole, beta) == pytest.approx(
            odd.diffuse[0][0], abs=1e-9)
        assert fc.compress_factor(whole, alpha) == pytest.approx(
            even.diffuse[0][0], abs=1e-9)


def test_star_m1_examples():
    assert fc.star_m1([1, 1], [0.25, 0.25], 0.5).pretty() == "LF(1.5)"
    got = fc.star_m1([1, 1], [0.1, 0.1], 0.8)
    assert got.atoms == pytest.approx((0.75,))
    assert got.diffuse[0] == pytest.approx((1.5, 0.25))
    # k = 1 reduces to the two-vertex corner
    for q in (1, 2, 3):
        for a in (0.2, 0.5, 0.7):
            lhs = fc.star_m1([q], [a], 1 - a)
            rhs = fc.prop_line(q, a, 1 - a)
            assert lhs.atoms == pytest.approx(rhs.atoms)
            assert [t for t, _ in lhs.diffuse] == pytest.approx(
                [t for t, _ in rhs.diffuse])
            assert [w for _, w in lhs.diffuse] == pytest.approx(
                [w for _, w in rhs.diffuse])


def test_star_m1_pipeline_agreement(rng):
    for _ in range(200):
        k = int(rng.integers(1, 4))
        qs = [int(rng.integers(1, 4)) for _ in range(k)]
        raw = rng.uniform(0.05, 1.0, size=k + 1)
        raw = raw / raw.sum()
        weights, b = [float(x) for x in raw[:k]], float(raw[k])
        closed = fc.star_m1(qs, weights, b)
        piped = fc.star_m1_pipeline(qs, weights, b)
        assert len(closed.atoms) == len(piped.atoms)
        for x, y in zip(sorted(closed.atoms), sorted(piped.atoms)):
            assert x == pytest.approx(y, abs=1e-9)
        for (t1, g1), (t2, g2) in zip(closed.diffuse, piped.diffuse):
            assert t1 == pytest.approx(t2, abs=1e-9)
            assert g1 == pytest.approx(g2, abs=1e-9)


def test_report_star_graph():
    rep = fc.m_gamma_report(star_graph(4))
    assert not rep.atoms
    [(s, w)] = rep.diffuse
    # hub corner LF(2 sqrt 4 - 1) = LF(3) compressed by mu2(hub) = 1/3
    assert s == pytest.approx(1 + 2 * (1 / 3) ** 2, abs=1e-9)
    assert w == pytest.approx(1.0)


def test_report_star_matches_case_formula():
    # the hub corner must be LF(2 sqrt(n) - 1) for every star
    for n in (2, 3, 4, 5):
        g = star_graph(n)
        hub = g.index("c")
        leaves = [g.mu2[v] for v in range(g.n_vertices) if v != hub]
        corner = fc.star_m1([1] * n, leaves, g.mu2[hub])
        assert corner.diffuse[0][0] == pytest.approx(
            2 * math.sqrt(n) - 1, abs=1e-9)
        if n == 4:
            assert corner.pretty() == "LF(3)"


def test_component_parameter_matches_two_vertex_rule(rng):
    # non-PF weights in the factor regime 1/q <= alpha/beta <= q
    for _ in range(200):
        q = int(rng.integers(2, 5))
        g = two_vertex_graph(q, q ** rng.uniform(-1.0, 1.0), 1.0)
        whole = fc.omega_factor(q, *g.mu2)
        assert fc.component_parameter(g, [0, 1]) == pytest.approx(
            whole.diffuse[0][0], abs=1e-12)


def test_component_parameter_matches_hub_corner(rng):
    # non-PF single-hub graphs with delta(v) >= 1 everywhere: spoke i has
    # mass q_i u_i times the hub's, so its delta is 1/u_i
    done = 0
    while done < 200:
        k = int(rng.integers(1, 4))
        qs = [int(x) for x in rng.integers(1, 4, size=k)]
        us = [float(x) for x in rng.uniform(0.1, 1.0, size=k)]
        if sum(q * q * u for q, u in zip(qs, us)) < 1.0:  # delta(hub) < 1
            continue
        g = build_graph([("c", ODD, 1.0)]
                        + [(f"l{i}", EVEN, q * u) for i, (q, u) in enumerate(zip(qs, us))],
                        [("c", f"l{i}", q) for i, q in enumerate(qs)])
        b = g.mu2[0]
        corner = fc.star_m1(qs, g.mu2[1:], b)
        assert not corner.atoms
        [(r, _)] = corner.diffuse
        assert fc.component_parameter(g, range(g.n_vertices)) == pytest.approx(
            1 + (r - 1) * b * b, abs=1e-12)
        done += 1


def test_report_a2_and_isolated():
    rep = fc.m_gamma_report(line_graph(2))
    assert "M2(LZ)" in rep.verdict
    g = build_graph(
        [("v1", EVEN, 0.3), ("w", ODD, 0.4), ("v2", EVEN, 0.2),
         ("u", EVEN, 0.1)],
        [("v1", "w", 1), ("w", "v2", 1)])
    rep = fc.m_gamma_report(g)
    assert ("u", pytest.approx(0.1)) in rep.atoms
    assert any("direct-sum" in n for n in rep.notes)


def test_report_two_vertex_atoms():
    rep = fc.m_gamma_report(two_vertex_graph(2, 0.8, 0.2))
    assert dict(rep.atoms)["v"] == pytest.approx(0.4)
    rep2 = fc.m_gamma_report(two_vertex_graph(2, 0.5, 0.5))
    assert not rep2.atoms
    assert "LF(1.5)" in rep2.verdict


def test_report_serialization_shape():
    rep = fc.m_gamma_report(star_graph(3))
    d = rep.as_dict()
    assert set(d) == {"atoms", "diffuse", "verdict", "notes"}
    assert isinstance(d["diffuse"][0], list)
