import pytest

from graphfree import epitl, noncross as ncx, towers as tw
from graphfree.gralg import GradedElement, bullet_mul, tau
from graphfree.graphs import GraphError, delta_v, enumerate_paths, line_graph


def loops(g, v, n):
    return enumerate_paths(g, v, n, v)


def test_matrix_units(a3_star):
    g = a3_star
    paths = enumerate_paths(g, g.star, 2, None)
    xi, eta = paths[0], paths[1] if len(paths) > 1 else paths[0]
    if xi.finish != eta.finish:
        eta = xi
    p1 = tw.TowerElement.basis(g, tw.PathPair(xi, eta))
    p2 = tw.TowerElement.basis(g, tw.PathPair(eta, xi))
    prod = tw.mult(p1, p2)
    assert prod.coeff(tw.PathPair(xi, xi)) == 1.0
    # mismatched middle legs annihilate
    if xi != eta:
        assert tw.mult(p1, p1).is_zero() or xi == eta
    assert tw.star_t(p1).coeff(tw.PathPair(eta, xi)) == 1.0


def test_pair_validation(a3_star):
    g = a3_star
    p2 = enumerate_paths(g, g.star, 2, None)
    p4 = enumerate_paths(g, g.star, 4, None)
    with pytest.raises(GraphError):
        tw.PathPair(p2[0], p4[0])


def test_trace_values_a3(a3_star):
    g = a3_star
    delta = delta_v(g, g.star)
    # at level 1 the only finish vertex is the middle one; trace is 1
    ident1 = tw.identity_element(g, 1)
    assert tw.trace_t(ident1) == pytest.approx(1.0)
    # minimal projection traces
    for n in range(4):
        for p in enumerate_paths(g, g.star, n, None):
            got = tw.trace_t(tw.TowerElement.basis(g, tw.PathPair(p, p)))
            assert got == pytest.approx(
                delta ** -n * g.mu2[p.finish] / g.mu2[g.star], abs=1e-9)


def test_matrix_unit_completeness(a3_star, a4_star):
    for g in (a3_star, a4_star):
        for n in range(4):
            by_finish = {}
            for p in enumerate_paths(g, g.star, n, None):
                by_finish.setdefault(p.finish, []).append(p)
            want = sum(len(ps) ** 2 for ps in by_finish.values())
            assert len(tw.pair_basis(g, n)) == want


def test_include_cond_exp_markov(a3_star, rng):
    g = a3_star
    delta = delta_v(g, g.star)
    for n in (1, 2, 3):
        basis = tw.pair_basis(g, n)
        x = tw.TowerElement(g, n, {p: float(rng.uniform(-1, 1)) for p in basis})
        inc = tw.include(x)
        assert tw.cond_exp(inc).norm_inf_diff(x) < 1e-12
        assert abs(tw.trace_t(inc) - tw.trace_t(x)) < 1e-12
        # inclusion is a homomorphism
        y = tw.TowerElement(g, n, {p: float(rng.uniform(-1, 1)) for p in basis})
        assert tw.include(tw.mult(x, y)).norm_inf_diff(
            tw.mult(tw.include(x), tw.include(y))) < 1e-12
        if n + 1 >= 2:
            e = tw.jones_projection(g, n + 1)
            assert abs(tw.trace_t(tw.mult(inc, e))
                       - delta ** -2 * tw.trace_t(x)) < 1e-12


def test_cond_exp_is_bimodule_projection(a3_star, rng):
    g = a3_star
    n = 2
    basis_n = tw.pair_basis(g, n)
    basis_up = tw.pair_basis(g, n + 1)
    a = tw.TowerElement(g, n, {p: float(rng.uniform(-1, 1)) for p in basis_n})
    x = tw.TowerElement(g, n + 1, {p: float(rng.uniform(-1, 1)) for p in basis_up})
    lhs = tw.cond_exp(tw.mult(tw.include(a), x))
    rhs = tw.mult(a, tw.cond_exp(x))
    assert lhs.norm_inf_diff(rhs) < 1e-12


def test_jones_relations(a3_star, a4_star):
    for g in (a3_star, a4_star):
        delta = delta_v(g, g.star)
        for n in (2, 3, 4):
            e = tw.jones_projection(g, n)
            assert tw.mult(e, e).norm_inf_diff(e) < 1e-9
            assert tw.star_t(e).norm_inf_diff(e) < 1e-12
        for i in (2, 3):
            ei = tw._jones_tower(g, 4, i)
            ej = tw._jones_tower(g, 4, i + 1)
            assert tw.mult(tw.mult(ei, ej), ei).norm_inf_diff(
                (delta ** -2) * ei) < 1e-9
            assert tw.mult(tw.mult(ej, ei), ej).norm_inf_diff(
                (delta ** -2) * ej) < 1e-9


def test_jones_needs_modulus(a3_star):
    g = line_graph(2, star_first=True)  # delta = 1
    with pytest.raises(GraphError):
        tw.jones_projection(g, 2)


def test_ztl_examples(a3_star):
    g = a3_star
    delta = delta_v(g, g.star)
    ident = ncx.nc(4, [(1, 4), (2, 3)])
    assert tw.ztl(g, ident).norm_inf_diff(tw.identity_element(g, 2)) < 1e-12
    cupcap = ncx.nc(4, [(1, 2), (3, 4)])
    assert tw.ztl(g, cupcap).norm_inf_diff(
        delta * tw.jones_projection(g, 2)) < 1e-12


def _closure_loops(t: ncx.NCPartition) -> int:
    # close the diagram by joining i with 2n+1-i and count loops
    two_n = t.n
    partner = {}
    for a, b in t.blocks:
        partner[a], partner[b] = b, a
    seen, count = set(), 0
    for start in range(1, two_n + 1):
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            y = partner[x]          # travel the pairing
            seen.add(y)
            x = two_n + 1 - y       # travel the closure
    return count


def test_ztl_trace_counts_loops(a3_star, a4_star):
    for g in (a3_star, a4_star):
        delta = delta_v(g, g.star)
        for n in (1, 2, 3, 4):
            for t in ncx.enumerate_tl(2 * n):
                got = tw.trace_t(tw.ztl(g, t))
                want = delta ** (_closure_loops(t) - n)
                assert got == pytest.approx(want, abs=1e-9)


def test_gr0_formula_instance(a3_star):
    g = a3_star
    loop = g.path_from_vertices(["v0", "v1", "v0"])
    x = tw.theta(g, GradedElement.basis(g, loop))
    prod = tw.gr0_mul(x, x)
    concat = loop.concat(loop)
    pair = tw.loop_to_pair(g, concat)
    # theta coefficients are mu0/mu1 each; the product coefficient on the
    # concatenated loop is mu(w)^2/mu(v0)^2
    want = (g.mu(0) / g.mu(1)) ** 2 * (g.mu(1) ** 2 / g.mu(0) ** 2)
    assert prod.coeff(pair) == pytest.approx(want)


def test_gr0_unit_action(a3_star, rng):
    g = a3_star
    unit0 = tw.theta(g, GradedElement.basis(g, g.path(g.star)))
    for n in (0, 1, 2):
        for p in loops(g, g.star, 2 * n):
            x = tw.theta(g, GradedElement.basis(g, p))
            assert tw.gr0_mul(x, unit0).norm_inf_diff(x) < 1e-12
            assert tw.gr0_mul(unit0, x).norm_inf_diff(x) < 1e-12


def test_gr0_two_routes_random(a3_star, a4_star, rng):
    for g in (a3_star, a4_star):
        pools = {n: loops(g, g.star, 2 * n) for n in (1, 2, 3)}
        count = 0
        while count < 50:
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, m + 1))
            if not pools[m] or not pools[n]:
                continue
            count += 1
            p = pools[m][int(rng.integers(0, len(pools[m])))]
            q = pools[n][int(rng.integers(0, len(pools[n])))]
            x = tw.theta(g, GradedElement.basis(g, p))
            y = tw.theta(g, GradedElement.basis(g, q))
            assert tw.gr0_mul(x, y).norm_inf_diff(
                tw.gr0_mul_tangle(x, y)) < 1e-9


def test_theta_multiplicative_and_tracial(a3_star, a4_star):
    for g in (a3_star, a4_star):
        all_loops = []
        for n in (0, 2, 4):
            all_loops += loops(g, g.star, n)
        for p in all_loops:
            xp = GradedElement.basis(g, p)
            assert abs(tau(xp) / g.mu2[g.star]
                       - tw.gr0_trace(tw.theta(g, xp))) < 1e-8
            for q in all_loops:
                xq = GradedElement.basis(g, q)
                lhs = tw.theta(g, bullet_mul(xp, xq))
                rhs = tw.gr0_mul(tw.theta(g, xp), tw.theta(g, xq))
                assert lhs.norm_inf_diff(rhs) < 1e-8


def test_theta_star_preserving(a3_star):
    g = a3_star
    from graphfree.gralg import star as gstar
    for p in loops(g, g.star, 4):
        x = GradedElement.basis(g, p, 1.25)
        assert tw.theta(g, gstar(x)).norm_inf_diff(
            tw.star_t(tw.theta(g, x))) < 1e-12


def test_annular_equivariance_all_cases(a3_star, a4_star):
    for g in (a3_star, a4_star):
        for n in (1, 2, 3):
            for i in range(1, 2 * n):
                for p in loops(g, g.star, 2 * n):
                    x = GradedElement.basis(g, p)
                    lhs = tw.theta(g, epitl.act(epitl.cap_generator(2 * n, i), x))
                    rhs = tw.annular_cap(g, n, i, tw.theta(g, x))
                    assert lhs.norm_inf_diff(rhs) < 1e-8


def test_q_projection_least_path(a3_star):
    g = a3_star
    qp, nu = tw.q_projection(g, "v1")
    assert nu.edges == (min(nu.edges),)
    assert tw.mult(qp, qp).norm_inf_diff(qp) < 1e-12


def test_theta1_multiplicative_and_tracial(a3_star, a4_star):
    for g in (a3_star, a4_star):
        hub = next(v for v in range(g.n_vertices)
                   if v != g.star and enumerate_paths(g, g.star, 1, v))
        qp, _ = tw.q_projection(g, hub)
        tau_q = tw.gr1_trace_raw(qp)
        pool = []
        for n in (0, 2, 4):
            pool += loops(g, hub, n)
        for p in pool:
            xp = GradedElement.basis(g, p)
            tp = tw.theta1(g, hub, xp)
            assert abs(tau(xp) / g.mu2[hub]
                       - tw.gr1_trace_raw(tp) / tau_q) < 1e-8
            for q in pool:
                if p.length + q.length > 6:
                    continue
                xq = GradedElement.basis(g, q)
                lhs = tw.theta1(g, hub, bullet_mul(xp, xq))
                rhs = tw.gr1_mul(tw.theta1(g, hub, xp), tw.theta1(g, hub, xq))
                assert lhs.norm_inf_diff(rhs) < 1e-8


def test_gr1_mul_matches_coefficient(a3_star):
    g = a3_star
    hub = 1
    p = loops(g, hub, 2)[0]
    x = tw.theta1(g, hub, GradedElement.basis(g, p))
    prod = tw.gr1_mul(x, x)
    assert not prod.is_zero()
    assert prod.level == x.level * 2 - 1
