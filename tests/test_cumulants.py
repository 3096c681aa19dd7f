import itertools

import pytest

from graphfree import cumulants as cm, epitl, falg, noncross as ncx
from graphfree.gralg import GradedElement, tau
from graphfree.graphs import two_vertex_graph


def composable_tuples(gens, k):
    for tup in itertools.product(gens, repeat=k):
        ok = all(a.finish == b.start for a, b in zip(tup, tup[1:]))
        if ok:
            yield tup


def test_moment_single_generator(a2):
    loop = a2.path_from_vertices(["v0", "v1", "v0"])
    val = cm.moment_phi(a2, [loop])
    assert set(val) == {0}
    assert val[0] == pytest.approx(a2.mu(1) / a2.mu(0))


def test_moment_mismatch_vanishes(a3):
    p = a3.path_from_vertices(["v0", "v1", "v2"])
    assert cm.moment_phi(a3, [p, p]) == {}


def test_moment_consistent_with_trace(fork, rng):
    # contracting the moment against mu2 must reproduce the trace
    gens = cm.even_generators(fork)
    for k in (1, 2, 3):
        for tup in itertools.islice(composable_tuples(gens, k), 60):
            comp = tup[0]
            for p in tup[1:]:
                comp = comp.concat(p)
            x = GradedElement.basis(fork, comp)
            val = cm.moment_phi(fork, tup)
            lhs = sum(c * fork.mu2[v] for v, c in val.items())
            assert abs(lhs - tau(x)) < 1e-10


def test_moment_matches_filtered_image(fork, a3):
    # an independent route: the degree-zero part of phi of the concatenation
    for g in (fork, a3):
        gens = cm.even_generators(g)
        for k in (1, 2, 3):
            for tup in composable_tuples(gens, k):
                comp = tup[0]
                for p in tup[1:]:
                    comp = comp.concat(p)
                low = falg.phi(GradedElement.basis(g, comp)).component(0)
                want = {p.start: c for p, c in low.terms.items()}
                assert cm.b_diff_norm(cm.moment_phi(g, tup), want) < 1e-12


def test_kappa_mobius_applies_no_cap_diagram(fork, monkeypatch):
    # moments come from the trace recursion, never from enumerating cappings
    def refuse(*args, **kwargs):
        raise AssertionError("cap diagram route used")

    monkeypatch.setattr(epitl, "act", refuse)
    monkeypatch.setattr(epitl, "enumerate_hom", refuse)
    gens = cm.even_generators(fork)
    for tup in itertools.islice(composable_tuples(gens, 5), 30):
        dev = cm.b_diff_norm(cm.kappa_mobius(fork, tup), cm.kappa_starry(fork, tup))
        assert dev < 1e-9


def test_multiplicative_extension_top_and_bottom(fork):
    gens = cm.even_generators(fork)
    tup = next(iter(composable_tuples(gens, 3)))
    top = cm.moment_pi(fork, ncx.nc_one(3), tup)
    assert cm.b_diff_norm(top, cm.moment_phi(fork, tup)) == 0
    # the singleton partition nests first moments
    bottom = cm.moment_pi(fork, ncx.nc_zero(3), tup)
    expect = 1.0
    for p in tup:
        val = cm.moment_phi(fork, [p])
        expect *= val.get(p.start, 0.0)
    got = bottom.get(tup[0].start, 0.0)
    assert got == pytest.approx(expect)


def test_extension_order_independent(fork):
    gens = cm.even_generators(fork)
    pis = [ncx.nc(4, [(1, 4), (2, 3)]), ncx.nc(4, [(1, 2), (3, 4)]),
           ncx.nc(4, [(1,), (2, 3), (4,)])]
    for tup in itertools.islice(composable_tuples(gens, 4), 40):
        for pi in pis:
            a = cm.moment_pi(fork, pi, tup, pick="first")
            b = cm.moment_pi(fork, pi, tup, pick="last")
            assert cm.b_diff_norm(a, b) < 1e-12


def test_kappa_one_and_two(a3):
    loop = a3.path_from_vertices(["v0", "v1", "v0"])
    k1 = cm.kappa_starry(a3, [loop])
    assert k1[0] == pytest.approx(a3.mu(1) / a3.mu(0))
    assert cm.b_diff_norm(k1, cm.kappa_mobius(a3, [loop])) < 1e-12
    out = a3.path_from_vertices(["v0", "v1", "v2"])
    back = a3.path_from_vertices(["v2", "v1", "v0"])
    k2 = cm.kappa_starry(a3, [out, back])
    assert k2[0] == pytest.approx(a3.mu(2) / a3.mu(0))
    assert cm.b_diff_norm(k2, cm.kappa_mobius(a3, [out, back])) < 1e-12


def test_kappa_mixed_hubs_vanish(fork):
    # distinct middle vertices never compose to a starry loop
    v = fork.index("v")
    via_w1 = [p for p in cm.even_generators(fork)
              if p.start == v and p.finish == v and p.vertices[1] == fork.index("w1")]
    via_w2 = [p for p in cm.even_generators(fork)
              if p.start == v and p.finish == v and p.vertices[1] == fork.index("w2")]
    tup = [via_w1[0], via_w2[0]]
    assert cm.kappa_starry(fork, tup) == {}
    assert cm.b_diff_norm(cm.kappa_mobius(fork, tup), {}) < 1e-12


def test_kappa_routes_agree(fork):
    gens = cm.even_generators(fork)
    for k in (1, 2, 3, 4):
        for tup in itertools.islice(composable_tuples(gens, k), 150):
            dev = cm.b_diff_norm(cm.kappa_mobius(fork, tup),
                                 cm.kappa_starry(fork, tup))
            assert dev < 1e-9


def test_kappa_bimodule_support(fork):
    gens = cm.even_generators(fork)
    for tup in itertools.islice(composable_tuples(gens, 3), 80):
        val = cm.kappa_mobius(fork, tup)
        for v, c in val.items():
            assert v == tup[0].start
            assert tup[0].start == tup[-1].finish


def test_doubled_diagram_formula(fork):
    gens = cm.even_generators(fork)
    for pi in ncx.enumerate_nc(3):
        for tup in itertools.islice(composable_tuples(gens, 3), 60):
            lhs = cm.spi_value(fork, pi, tup)
            rhs = cm.doubled_action(fork, pi, tup)
            assert cm.b_diff_norm(lhs, rhs) < 1e-12


def test_starry_tuple_extension_matches_diagram(fork):
    # the multiplicative extension of the closed form equals the
    # doubled-diagram action partition by partition
    gens = cm.even_generators(fork)
    for pi in ncx.enumerate_nc(3):
        for tup in itertools.islice(composable_tuples(gens, 3), 40):
            lhs = cm.multiplicative_extension(
                lambda ps: cm.kappa_starry(fork, ps), fork, pi, tup)
            rhs = cm.doubled_action(fork, pi, tup)
            assert cm.b_diff_norm(lhs, rhs) < 1e-12


def test_freeness_vacuous_on_single_hub(a3):
    rep = cm.freeness_certificate(a3, max_order=3)
    assert rep.passed and rep.n_tuples == 0


def test_freeness_two_hub_graph(fork, rng):
    rep = cm.freeness_certificate(fork, max_order=4, tol=1e-10, rng=rng)
    assert rep.passed
    assert rep.n_tuples > 0
    assert rep.stp_checks > 0
    assert any("order" in n for n in rep.notes)


def test_matrix_moments_catalan():
    g = two_vertex_graph(1, 0.5, 0.5)
    got = cm.omega_matrix_moments(g, 5)
    assert got == pytest.approx([ncx.catalan(k) for k in range(1, 6)], abs=1e-10)


@pytest.mark.parametrize("q,alpha", [(1, 0.5), (2, 0.5), (2, 0.4), (3, 0.6)])
def test_matrix_moments_rate(q, alpha):
    g = two_vertex_graph(q, alpha, 1 - alpha)
    rate = alpha / ((1 - alpha) * q)
    got = cm.omega_matrix_moments(g, 5)
    want = [cm.nc_rate_moment(rate, k) for k in range(1, 6)]
    assert got == pytest.approx(want, abs=1e-8)
