import itertools
import math
import random

import numpy as np
import pytest

from graphfree import cumulants as cm, epitl, falg, gralg, noncross as ncx
from graphfree.gralg import GradedElement, bullet_mul, tau
from graphfree.graphs import (GraphError, Path, iter_paths, named_graph, pf_weighting,
                              two_vertex_graph)


def composable_tuples(gens, k):
    for tup in itertools.product(gens, repeat=k):
        ok = all(a.finish == b.start for a, b in zip(tup, tup[1:]))
        if ok:
            yield tup


def _mixed_tuples(graph, k):
    """Composable generator k-tuples with two or more hubs, in the certificate's order."""
    for tup in composable_tuples(cm.even_generators(graph), k):
        if len({p.vertices[1] for p in tup}) > 1:
            yield tup


def _sum_extensions_by_plans(kernel, paths, weighted):
    """Mobius inversion partition by partition: the oracle for the plan trie.

    Sums :func:`cumulants.multiplicative_extension` over NC(n), in NC(n)
    order, with mu(pi, 1_n) from ``noncross.mobius_nc``.
    ``cumulants._sum_extensions`` walks one trie of the extraction plans
    instead.
    """
    n = len(paths)
    one = ncx.nc_one(n)
    out: cm.BElement = {}
    for pi in ncx.enumerate_nc(n):
        coeff = float(ncx.mobius_nc(pi, one))
        for v, c in cm.multiplicative_extension(kernel, pi, paths).items():
            out[v] = out.get(v, 0.0) + (coeff * c if weighted else c)
    return {v: c for v, c in out.items() if c != 0}


def _trie_plans(n):
    """The trie of ``cumulants._mobius_row(n)`` read back as one plan per pi.

    Returns {rank of pi in NC(n): ((steps, outer), mu)}.
    """
    root, nodes = cm._mobius_row(n)
    rank, mu, outer = root
    plans = {rank: (((), outer), mu)}
    prefix = []
    for depth, block, left, end, rank, mu, outer in nodes:
        del prefix[depth:]
        prefix.append((block, left))
        plans[rank] = ((tuple(prefix), outer), mu)
    return plans


def _seeded_loops(graph, k, count, rng):
    """Up to ``count`` random composable k-tuples of generators that close."""
    gens = cm.even_generators(graph)
    out = []
    for _ in range(50 * count):
        tup = [gens[int(rng.integers(len(gens)))]]
        while len(tup) < k:
            pool = [p for p in gens if p.start == tup[-1].finish]
            tup.append(pool[int(rng.integers(len(pool)))])
        if tup[-1].finish == tup[0].start:
            out.append(tuple(tup))
            if len(out) == count:
                break
    return out


def _assert_rel_close(got, want, rel=1e-12):
    assert set(got) == set(want)
    for v, c in want.items():
        assert abs(got[v] - c) <= rel * abs(c)


@pytest.fixture(scope="module")
def pf_graphs():
    return [pf_weighting(named_graph(name))[0] for name in ("fork", "a4")]


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


def test_kappa_of_moments_equals_recursive_inversion(pf_graphs):
    rng = np.random.default_rng(8)
    for g in pf_graphs:
        kernel = lambda ps, g=g: cm.moment_phi(g, ps)
        for n in range(1, 7):
            one = ncx.nc_one(n)
            for tup in _seeded_loops(g, n, 3, rng):
                want: cm.BElement = {}
                for pi in ncx.enumerate_nc(n):
                    mu = ncx.mobius_nc(pi, one)
                    for v, c in cm.multiplicative_extension(kernel, pi, tup).items():
                        want[v] = want.get(v, 0.0) + mu * c
                want = {v: c for v, c in want.items() if c != 0}
                _assert_rel_close(cm.kappa_of_moments(kernel, tup), want)


def test_kappa_mobius_evaluates_each_block_once(fork, monkeypatch):
    # an order-7 tuple of loops at v has 2^7 - 1 distinct blocks; the
    # recursive route made 1,716 moment calls and 1,287 partitions on it
    v = fork.index("v")
    loops = [p for p in cm.even_generators(fork) if p.start == p.finish == v]
    tup = tuple(loops[i % len(loops)] for i in range(7))
    cm._mobius_row(7)
    real = cm._loop_moment
    calls = []

    def counting(graph, paths):
        calls.append(tuple(paths))
        return real(graph, paths)

    monkeypatch.setattr(cm, "_loop_moment", counting)
    got = cm.kappa_mobius(fork, tup)
    assert 0 < len(calls) <= 2 ** 7 - 1
    assert cm.b_diff_norm(got, cm.kappa_starry(fork, tup)) < 1e-9

    def refuse(*args, **kwargs):
        raise AssertionError("partition rebuilt during evaluation")

    monkeypatch.setattr(ncx, "nc", refuse)
    assert cm.kappa_mobius(fork, tup) == got


def test_plan_trie_holds_every_extraction_plan():
    for n in range(1, 11):
        plans = _trie_plans(n)
        one = ncx.nc_one(n)
        pis = ncx.enumerate_nc(n)
        assert sorted(plans) == list(range(len(pis)))
        for rank, pi in enumerate(pis):
            (steps, outer), mu = plans[rank]
            assert sorted([outer, *(block for block, _ in steps)]) == \
                [tuple(x - 1 for x in b) for b in pi.blocks]
            assert mu == ncx.mobius_nc(pi, one)


def test_plan_trie_builds_without_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("partition object or rank scan used")

    # mu is carried down the trie, with no Kreweras pass per partition
    for name in ("nc", "kreweras", "mobius_nc", "_kreweras_cycles"):
        monkeypatch.setattr(ncx, name, refuse)
    monkeypatch.setattr(ncx.NCPartition, "__post_init__", refuse)
    cm._mobius_row.cache_clear()
    for n in range(1, 11):
        root, nodes = cm._mobius_row(n)
        assert len(nodes) + 1 == ncx.catalan(n)


def test_plan_trie_equals_plan_by_plan_sum(pf_graphs):
    rng = np.random.default_rng(9)
    for g in pf_graphs:
        values: dict[tuple, cm.BElement] = {}

        def dense(ps, g=g):
            key = tuple(ps)
            if key not in values:
                values[key] = {v: float(rng.uniform(-1, 1))
                               for v in g.vertices_of_parity(0)}
            return values[key]

        def sparse(ps, g=g):
            # empty on some blocks, and an exact 0.0 at some vertices of the rest
            key = ("sparse", tuple(ps))
            if key not in values:
                values[key] = {} if rng.uniform() < 0.3 else {
                    v: 0.0 if rng.uniform() < 0.4 else float(rng.uniform(-1, 1))
                    for v in g.vertices_of_parity(0)}
            return values[key]

        moment = lambda ps, g=g: cm.moment_phi(g, ps)
        starry = lambda ps, g=g: cm.kappa_starry(g, ps)
        for n in range(1, 10):
            tuples = _seeded_loops(g, n, 3 if n < 8 else 2 if n < 9 else 1, rng)
            assert tuples
            for tup in tuples:
                assert cm.kappa_mobius(g, tup) == _sum_extensions_by_plans(
                    moment, tup, weighted=True)
                assert cm.kappa_from_kernel(starry, tup) == _sum_extensions_by_plans(
                    starry, tup, weighted=False)
                for kernel in (dense, sparse):
                    for weighted in (True, False):
                        assert cm._sum_extensions(kernel, tup, weighted) == \
                            _sum_extensions_by_plans(kernel, tup, weighted)


def test_plan_trie_sees_the_oracles_blocks(pf_graphs):
    rng = np.random.default_rng(10)
    for g in pf_graphs:
        for n in range(1, 9):
            for tup in _seeded_loops(g, n, 2, rng):
                # one object per position, so a call names its block
                tup = tuple(Path(p.vertices, p.edges) for p in tup)
                where = {id(p): k for k, p in enumerate(tup)}
                seen = {"trie": [], "oracle": []}

                def kernel(ps, g=g, route="trie"):
                    seen[route].append(tuple(where[id(p)] for p in ps))
                    return cm.moment_phi(g, ps)

                cm._sum_extensions(kernel, tup, True)
                _sum_extensions_by_plans(
                    lambda ps: kernel(ps, route="oracle"), tup, True)
                assert set(seen["trie"]) == set(seen["oracle"])
                assert len(seen["trie"]) == len(set(seen["trie"])) <= 2 ** n - 1


def test_mobius_inversion_needs_an_argument(fork):
    with pytest.raises(GraphError):
        cm.kappa_mobius(fork, ())


def test_extraction_plan_rejects_missing_interval_block():
    with pytest.raises(GraphError):
        cm.multiplicative_extension(dict, ncx.NCPartition(0, ()), ())


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
                lambda ps: cm.kappa_starry(fork, ps), pi, tup)
            rhs = cm.doubled_action(fork, pi, tup)
            assert cm.b_diff_norm(lhs, rhs) < 1e-12


def test_freeness_vacuous_on_single_hub(a3):
    rep = cm.freeness_certificate(a3, max_order=3)
    assert rep.passed and rep.n_tuples == 0


def test_freeness_with_one_hub_walks_no_path(monkeypatch):
    # 40 parallel edges: 2,560,000 paths of length 4, none of them mixed
    def refuse(*args):
        raise AssertionError("walked a path")

    monkeypatch.setattr(cm, "iter_paths", refuse)
    g = two_vertex_graph(40, 0.5, 0.5)
    assert cm.hubs(g) == g.vertices_of_parity(1)
    rep = cm.freeness_certificate(g, max_order=2, rng=random.Random(0))
    assert rep.passed and rep.n_tuples == 0 and rep.stp_checks == 20


def test_freeness_passes_at_its_tol(fork, monkeypatch):
    # a deviation equal to tol passes, as in every other check; NaN fails
    for value, tol, passed in ((0.0, 0.0, True), (1e-10, 1e-10, True),
                               (2e-10, 1e-10, False), (math.nan, 1e-10, False)):
        monkeypatch.setattr(cm, "b_norm", lambda val, value=value: value)
        assert cm.freeness_certificate(fork, max_order=2, tol=tol).passed is passed


def test_freeness_two_hub_graph(fork, py_rng):
    rep = cm.freeness_certificate(fork, max_order=4, tol=1e-10, rng=py_rng)
    assert rep.passed
    assert rep.n_tuples > 0
    assert rep.stp_checks > 0
    assert any("order" in n for n in rep.notes)


def test_freeness_failing_certificate_names_its_tuple(fork, monkeypatch):
    # a nonzero mixed cumulant on one tuple fails the certificate, and the
    # witness names that tuple, path by path
    real = cm.kappa_mobius
    target = next(_mixed_tuples(fork, 3))

    def mutant(graph, tup):
        out = dict(real(graph, tup))
        if tup == target:
            out[tup[0].start] = out.get(tup[0].start, 0.0) + 1e-3
        return out

    monkeypatch.setattr(cm, "kappa_mobius", mutant)
    rep = cm.freeness_certificate(fork, max_order=3)
    assert not rep.passed and rep.max_mixed_cumulant >= 1e-3
    assert rep.witness == " ; ".join(
        "->".join(fork.ids[v] for v in p.vertices) for p in target)


def test_freeness_certificate_fails_on_a_nan_cumulant(fork, monkeypatch):
    # a NaN moment makes NaN cumulants; `val > worst` alone never took one
    real = cm._loop_moment
    monkeypatch.setattr(cm, "_loop_moment", lambda graph, paths: {
        v: float("nan") for v in real(graph, paths)})
    rep = cm.freeness_certificate(fork, max_order=3)
    assert rep.n_tuples == 21
    assert math.isnan(rep.max_mixed_cumulant) and not rep.passed
    # the witness is the first NaN tuple, as verify's runner stops at the first
    first = next(_mixed_tuples(fork, 2))
    assert rep.witness == " ; ".join(
        "->".join(fork.ids[v] for v in p.vertices) for p in first)


@pytest.mark.parametrize("name", ["fork", "a4", "a3", "k1_3"])
def test_certificate_runs_every_mixed_tuple_in_order(monkeypatch, name):
    # the tuples cut from the paths are the composable generator tuples
    # with two or more hubs, in the order of the product of the generators
    g = named_graph(name)
    seen = []
    monkeypatch.setattr(cm, "kappa_mobius", lambda graph, tup: seen.append(tup) or {})
    rep = cm.freeness_certificate(g, max_order=5)
    want = [tup for k in range(2, 6) for tup in _mixed_tuples(g, k)]
    assert seen == want and rep.n_tuples == len(want)


def test_draw_tuple_walks_the_generators(fork):
    gens = cm.even_generators(fork)
    by_start = {v: [p for p in gens if p.start == v] for v in fork.vertices_of_parity(0)}
    rng = random.Random(5)
    for k in (1, 2, 3, 4):
        tup = cm.draw_tuple(gens, by_start, k, rng)
        assert len(tup) == k and all(a.finish == b.start for a, b in zip(tup, tup[1:]))
    # a walk with nowhere to go dead-ends; with no generators nothing is drawn
    assert cm.draw_tuple(gens, {}, 2, rng) is None
    state = rng.getstate()
    assert cm.draw_tuple([], by_start, 1, rng) is None
    assert rng.getstate() == state


def test_freeness_certificate_order_six(fork):
    rep = cm.freeness_certificate(fork, max_order=6)
    assert rep.passed and rep.n_tuples == 726


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


def _matrix_moments_by_powers(graph, kmax):
    """The oracle: the q x q matrix powers built as path elements and traced.

    Entry (i, j) is the loop f_i r_j at the odd vertex w, the powers come
    from bullet_mul, and the k-th moment is the trace of the diagonal over
    q mu2(w), divided by the k-th power of the jump q mu(w)/mu(v).
    """
    v, w = graph.vertices_of_parity(0)[0], graph.vertices_of_parity(1)[0]
    forward = graph.out_edges(w)
    q = len(forward)
    entries = {(i, j): GradedElement.basis(graph, Path((w, v, w), (ei, graph.erev[ej])))
               for i, ei in enumerate(forward) for j, ej in enumerate(forward)}
    jump = q * graph.mu(w) / graph.mu(v)
    power, out = entries, []
    for k in range(1, kmax + 1):
        if k > 1:
            new = {}
            for i in range(q):
                for j in range(q):
                    acc = GradedElement(graph)
                    for t in range(q):
                        acc = acc + bullet_mul(power[i, t], entries[t, j])
                    new[i, j] = acc
            power = new
        m_k = sum(tau(power[i, i]) for i in range(q)) / (q * graph.mu2[w])
        out.append(m_k / jump ** k)
    return out


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_matrix_moments_match_the_explicit_powers(q):
    for alpha in (0.2, 0.5, 0.7):
        g = two_vertex_graph(q, alpha, 1 - alpha)
        got = cm.omega_matrix_moments(g, 6)
        want = _matrix_moments_by_powers(two_vertex_graph(q, alpha, 1 - alpha), 6)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("q,kmax,rows", [(1, 6, 11), (2, 5, 122), (3, 5, 723)])
def test_matrix_moments_push_one_row_per_suffix(monkeypatch, q, kmax, rows):
    # exact work counter: one face row per distinct proper suffix of the
    # order-kmax loops (the order-kmax corners are read without a row),
    # where tracing every loop on its own builds 2k rows per loop of order k
    g = two_vertex_graph(q, 0.3, 0.7)
    forward = g.out_edges(g.vertices_of_parity(1)[0])
    suffixes = set()
    for word in itertools.product(range(q), repeat=kmax):
        edges = tuple(x for a, b in zip(word, word[1:] + word[:1])
                      for x in (forward[a], g.erev[forward[b]]))
        suffixes.update(edges[i:] for i in range(1, 2 * kmax))
    pushed = []
    real = gralg.FaceStack.push

    def counting(self, *edges):
        pushed.extend(edges)
        real(self, *edges)

    monkeypatch.setattr(gralg.FaceStack, "push", counting)
    cm.omega_matrix_moments(g, kmax)
    assert len(pushed) == len(suffixes) == cm.matrix_moment_rows(g, kmax) == rows
    assert rows < sum(2 * k * q ** k for k in range(1, kmax + 1))


def test_nc_rate_moment_counts_the_partitions():
    # the Narayana closed form against the enumeration of NC(k)
    for k in range(11):
        for rate in (0.3, 1.0, 2.5):
            want = sum(rate ** pi.num_blocks for pi in ncx.enumerate_nc(k))
            assert cm.nc_rate_moment(rate, k) == pytest.approx(want, rel=1e-12)


def test_loop_moment_builds_no_composite(monkeypatch):
    # the trace memo is keyed by the edge tuple, so the moment kernel joins
    # the generators' edges, concatenates no path, and builds at most one
    # path per memo miss
    g, _ = pf_weighting(named_graph("fork"))

    def refuse(*args):
        raise AssertionError("path concatenated")

    builds, inside, keys = [], [], []
    real_new, real_moment, real_tau = Path.__new__, cm._loop_moment, cm.tau_loop

    def counting_new(cls, vertices, edges):
        if inside:
            builds.append(edges)
        return real_new(cls, vertices, edges)

    def moment(graph, paths):
        inside.append(True)
        try:
            return real_moment(graph, paths)
        finally:
            inside.pop()

    monkeypatch.setattr(Path, "concat", refuse)
    monkeypatch.setattr(Path, "__new__", counting_new)
    monkeypatch.setattr(cm, "_loop_moment", moment)
    monkeypatch.setattr(cm, "tau_loop", lambda graph, edges: keys.append(type(edges))
                        or real_tau(graph, edges))
    gralg.tau_loop.cache_clear()
    rep = cm.freeness_certificate(g, max_order=5)
    info = gralg.tau_loop.cache_info()
    assert rep.passed and 0 < info.currsize < gralg.TAU_MEMO_MAX
    assert len(builds) <= info.misses
    assert set(keys) == {tuple}


def test_mobius_row_memo_holds_every_order_the_budget_admits():
    # the cumulants command admits the n-tuples whose NC(n) fits the
    # budget; the plan-trie memo keeps a row for each of those n
    admitted = [n for n in range(1, 40) if ncx.catalan(n) <= cm.CUMULANTS_MAX_PARTITIONS]
    assert admitted == list(range(1, 12))
    assert cm._mobius_row.cache_info().maxsize >= len(admitted)


def test_freeness_extensions_count_the_certificate_tuples(fork, monkeypatch):
    # the count reads A^(2k); the certificate walks the paths it counts and
    # computes no adjacency power
    evens = fork.vertices_of_parity(0)
    tuples = [sum(1 for v in evens for _ in iter_paths(fork, v, 2 * k)) for k in range(2, 6)]
    assert list(cm.freeness_extensions(fork, 5)) == [
        (k, sum(t * ncx.catalan(j) for j, t in zip(range(2, k + 1), tuples)))
        for k in range(2, 6)]
    assert list(cm.freeness_extensions(named_graph("a3"), 10 ** 8)) == []  # one hub
    monkeypatch.setattr(cm, "adjacency_powers", None)
    assert cm.freeness_certificate(fork, max_order=3).passed
