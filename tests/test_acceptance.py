"""Acceptance suite: the library's exit criteria at their stated tolerances.

Each criterion prints one line with its outcome.  The graph battery is
the two-, three- and four-vertex line graphs, the two- and three-leaf
stars and the double-edge multigraph, all with their equilibrium
weightings.
"""

import itertools
import math
import random
import time

import numpy as np

from graphfree import (cdelta, cumulants, epitl, factors, falg,
                       noncross as ncx, towers)
from graphfree.gralg import GradedElement, bullet_mul, star, tau
from graphfree.graphs import (delta_v, enumerate_paths, line_graph,
                              named_graph, two_vertex_graph)
from graphfree.verification import random_element, standard_graphs


def _report(name, dev, tol, elapsed=None):
    status = "PASS" if dev <= tol else "FAIL"
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} {name}: max deviation {dev:.3g} (tol {tol:g}){extra}")
    return dev <= tol


def test_criterion_1_isomorphism_suite():
    t0 = time.perf_counter()
    dev = 0.0
    for g in standard_graphs().values():
        for n in range(7):
            for p in enumerate_paths(g, None, n, None):
                b = GradedElement.basis(g, p)
                dev = max(dev, falg.psi(falg.phi(b)).norm_inf_diff(b))
                dev = max(dev, falg.phi(falg.psi(b)).norm_inf_diff(b))
    elapsed = time.perf_counter() - t0
    assert _report("criterion 1 (graded/filtered isomorphism, degree <= 6)",
                   dev, 1e-9, elapsed)
    assert elapsed < 60.0, f"isomorphism suite took {elapsed:.1f}s"


def test_criterion_2_trace_equality():
    dev = 0.0
    rng = random.Random(2)
    for g in standard_graphs().values():
        for n in range(0, 7, 2):
            for p in enumerate_paths(g, None, n, None):
                if p.start != p.finish:
                    continue
                b = GradedElement.basis(g, p)
                dev = max(dev, abs(tau(b) - falg.t_functional(falg.phi(b))))
        for _ in range(100):
            x, y = random_element(g, rng), random_element(g, rng)
            dev = max(dev, abs(tau(bullet_mul(x, y)) - tau(bullet_mul(y, x))))
    assert _report("criterion 2 (trace equality and traciality)", dev, 1e-9)


def test_criterion_3_positivity():
    dev = 0.0
    for g in standard_graphs().values():
        basis = falg.truncated_basis(g, 6)
        for i, p in enumerate(basis):
            bp = GradedElement.basis(g, p)
            for q in basis[i:]:
                val = falg.inner(bp, GradedElement.basis(g, q))
                want = g.mu(p.start) * g.mu(p.finish) if p == q else 0.0
                dev = max(dev, abs(val - want))
    assert _report("criterion 3 (diagonal Gram matrices, degree <= 6)",
                   dev, 1e-9)


def test_criterion_4_combinatorics():
    dev = 0
    for n in range(9):
        c = ncx.catalan(n)
        dev = max(dev, abs(len(ncx.enumerate_nc(n)) - c))
        dev = max(dev, abs(len(ncx.enumerate_tl(2 * n)) - c))
    for n in range(1, 7):
        for t in ncx.enumerate_tl(2 * n):
            ok1, _ = ncx.kreweras_class_structure(t)
            ok2, _ = ncx.epsilon_identity_check(t)
            dev = max(dev, 0 if (ok1 and ok2) else 1)
    assert _report("criterion 4 (Catalan counts and pairing identities)",
                   dev, 0)


def test_criterion_5_local_category_suite():
    rng = np.random.default_rng(5)
    graphs = standard_graphs()
    dev = 0.0
    # the eight generator relations as operators, sources up to [3]
    for g in graphs.values():
        for v in range(g.n_vertices):
            dv = delta_v(g, v)
            for n in range(0, 2):
                cases = [
                    (n, ["C-", "A-"], None, dv),
                    (n, ["C+", "A+"], None, dv),
                    (n + 2, ["A+", "A-"], ["A-", "A+"], None),
                    (n + 1, ["C+", "A-"], ["A-", "C+"], None),
                    (n + 1, ["C-", "A+"], ["A+", "C-"], None),
                    (n, ["C+", "C-"], ["C-", "C+"], None),
                ]
                for src, left, right, scalar in cases:
                    if src > 3:
                        continue
                    for p in enumerate_paths(g, v, 2 * src, v):
                        x = GradedElement.basis(g, p)
                        lhs = x
                        for kind in left:
                            lhs = cdelta.gen_act(g, v, kind, lhs)
                        if right is not None:
                            rhs = x
                            for kind in right:
                                rhs = cdelta.gen_act(g, v, kind, rhs)
                        else:
                            rhs = scalar * x
                        dev = max(dev, lhs.norm_inf_diff(rhs))
    # weight multiplicativity on 100 random composable pairs
    delta = 1.73
    makers = [cdelta.a_minus, cdelta.a_plus, cdelta.c_minus, cdelta.c_plus]
    for _ in range(100):
        n = int(rng.integers(0, 5))
        mk1 = makers[int(rng.integers(2, 4))] if n == 0 else \
            makers[int(rng.integers(0, 4))]
        f1 = mk1(n)
        mid = f1.target
        mk2 = makers[int(rng.integers(2, 4))] if mid == 0 else \
            makers[int(rng.integers(0, 4))]
        f2 = mk2(mid)
        power, comp = cdelta.tpq_compose(f2, f1)
        lhs = (cdelta.weight_functional(f1, delta)
               * cdelta.weight_functional(f2, delta))
        rhs = delta ** power * cdelta.weight_functional(comp, delta)
        dev = max(dev, abs(lhs - rhs))
    # commutant inversion on random orthogonal elements
    for name in ("a3", "dbl"):
        g = graphs[name]
        for vi in range(g.n_vertices):
            dv = delta_v(g, vi)
            for n in (1, 2, 3):
                basis = enumerate_paths(g, vi, 2 * n, vi)
                if not basis:
                    continue
                c2n = cdelta.c_2n(g, vi, n)
                x = GradedElement(g, {p: float(rng.uniform(-1, 1))
                                      for p in basis})
                ip = sum(x.coeff(p) * c2n.coeff(p) for p in basis)
                nrm = sum(c * c for c in c2n.terms.values())
                x = x - (ip / nrm) * c2n
                z = cdelta.gen_act(g, vi, "C-", x) - cdelta.gen_act(g, vi, "C+", x)
                rec = GradedElement(g)
                for t in range(1, n + 1):
                    mor = cdelta.TPQMorphism(n + 1, n, (1, n + 1 - t),
                                             (t + 1, n + 1))
                    rec = rec + (dv ** -t) * cdelta.tpq_act(g, vi, mor, z)
                dev = max(dev, rec.norm_inf_diff(x))
    assert _report("criterion 5 (local diagram category suite)", dev, 1e-9)


def test_criterion_6_factor_parameters():
    rng = np.random.default_rng(6)
    dev = 0.0
    # three-regime grid
    for q in (1, 2, 3):
        for alpha in np.linspace(0.05, 0.95, 19):
            beta = 1 - alpha
            d = factors.prop_line(q, float(alpha), float(beta))
            ratio = alpha / beta
            if ratio > q:
                dev = max(dev, abs(d.diffuse[0][0] - q * q))
            elif ratio >= 1 / q:
                dev = max(dev, abs(d.diffuse[0][0] - (2 * q * ratio - ratio ** 2)))
            else:
                dev = max(dev, abs(d.atoms[0] - (1 - ratio * q)),
                          abs(d.diffuse[0][0] - (2 - 1 / q ** 2)))
    # two-vertex factor value
    d = factors.omega_factor(2, 0.5, 0.5)
    dev = max(dev, abs(d.diffuse[0][0] - 1.5))
    # single-hub closed form vs pipeline, 200 random draws
    for _ in range(200):
        k = int(rng.integers(1, 4))
        qs = [int(rng.integers(1, 4)) for _ in range(k)]
        raw = rng.uniform(0.05, 1.0, size=k + 1)
        raw = raw / raw.sum()
        weights, b = [float(x) for x in raw[:k]], float(raw[k])
        closed = factors.star_m1(qs, weights, b)
        piped = factors.star_m1_pipeline(qs, weights, b)
        if len(closed.atoms) != len(piped.atoms):
            dev = max(dev, 1.0)
            continue
        for x, y in zip(sorted(closed.atoms), sorted(piped.atoms)):
            dev = max(dev, abs(x - y))
        for (t1, g1), (t2, g2) in zip(closed.diffuse, piped.diffuse):
            dev = max(dev, abs(t1 - t2), abs(g1 - g2))
    # star free products
    for n in (2, 3, 4):
        base = factors.AlgDesc((1 - 1 / math.sqrt(n),),
                               ((1.0, 1 / math.sqrt(n)),))
        prod = factors.free_product_many([base] * n)
        dev = max(dev, abs(prod.diffuse[0][0] - (2 * math.sqrt(n) - 1)))
        dev = max(dev, float(bool(prod.atoms)))
    # structure-theorem atom traces
    g = two_vertex_graph(2, 0.8, 0.2)
    got = dict(cdelta.graph_atoms(g))
    dev = max(dev, abs(got["v"] - (1 - delta_v(g, "v")) * 0.8))
    rep = cdelta.center_report(g, "v")
    dev = max(dev, abs(rep.atom_trace - 0.4))
    assert _report("criterion 6 (factor parameter calculus)", dev, 1e-9)


def test_criterion_7_free_poisson_moments():
    dev = 0.0
    for q, alpha in ((1, 0.5), (2, 0.5), (2, 0.4), (3, 0.6)):
        g = two_vertex_graph(q, alpha, 1 - alpha)
        rate = alpha / ((1 - alpha) * q)
        got = cumulants.omega_matrix_moments(g, 5)
        want = [cumulants.nc_rate_moment(rate, k) for k in range(1, 6)]
        dev = max(dev, max(abs(x - y) for x, y in zip(got, want)))
    got = cumulants.omega_matrix_moments(two_vertex_graph(1, 0.5, 0.5), 5)
    dev = max(dev, max(abs(x - ncx.catalan(k + 1)) for k, x in enumerate(got)))
    assert _report("criterion 7 (free Poisson matrix moments, k <= 5)",
                   dev, 1e-8)


def test_criterion_8_freeness_certificate():
    fork = named_graph("fork")
    rep = cumulants.freeness_certificate(fork, max_order=5, tol=1e-10, rng=random.Random(8))
    dev = rep.max_mixed_cumulant
    # closed-form route equals Mobius inversion through order 4
    gens = cumulants.even_generators(fork)
    count = 0
    for k in (1, 2, 3, 4):
        for tup in itertools.product(gens, repeat=k):
            if any(a.finish != b.start for a, b in zip(tup, tup[1:])):
                continue
            count += 1
            dev2 = cumulants.b_diff_norm(cumulants.kappa_mobius(fork, tup),
                                         cumulants.kappa_starry(fork, tup))
            dev = max(dev, dev2)
    assert rep.n_tuples > 0 and count > 0
    assert _report("criterion 8 (mixed cumulants vanish, routes agree)",
                   dev, 1e-10)


def test_criterion_9_path_model_suite():
    t0 = time.perf_counter()
    dev = 0.0
    for g in (line_graph(3, star_first=True), line_graph(4, star_first=True)):
        delta = delta_v(g, g.star)
        # Jones projections and their exchange relation, levels <= 4
        for n in (2, 3, 4):
            e = towers.jones_projection(g, n)
            dev = max(dev, towers.mult(e, e).norm_inf_diff(e))
        for i in (2, 3):
            ei = towers._jones_tower(g, 4, i)
            ej = towers._jones_tower(g, 4, i + 1)
            dev = max(dev, towers.mult(towers.mult(ei, ej), ei).norm_inf_diff(
                (delta ** -2) * ei))
            dev = max(dev, towers.mult(towers.mult(ej, ei), ej).norm_inf_diff(
                (delta ** -2) * ej))
        # minimal projection traces
        for n in range(5):
            for p in enumerate_paths(g, g.star, n, None):
                got = towers.trace_t(
                    towers.TowerElement.basis(g, towers.PathPair(p, p)))
                want = delta ** -n * g.mu2[p.finish] / g.mu2[g.star]
                dev = max(dev, abs(got - want))
        # loop isomorphism: multiplicative and trace preserving, length <= 4
        pool = []
        for n in (0, 2, 4):
            pool += enumerate_paths(g, g.star, n, g.star)
        for p in pool:
            xp = GradedElement.basis(g, p)
            dev = max(dev, abs(tau(xp) / g.mu2[g.star]
                               - towers.gr0_trace(towers.theta(g, xp))))
            for q in pool:
                xq = GradedElement.basis(g, q)
                lhs = towers.theta(g, bullet_mul(xp, xq))
                rhs = towers.gr0_mul(towers.theta(g, xp), towers.theta(g, xq))
                dev = max(dev, lhs.norm_inf_diff(rhs))
        # shifted loop isomorphism at the depth-one vertex
        hub = next(v for v in range(g.n_vertices)
                   if v != g.star and enumerate_paths(g, g.star, 1, v))
        qp, _ = towers.q_projection(g, hub)
        tau_q = towers.gr1_trace_raw(qp)
        pool1 = []
        for n in (0, 2, 4):
            pool1 += enumerate_paths(g, hub, n, hub)
        for p in pool1:
            xp = GradedElement.basis(g, p)
            tp = towers.theta1(g, hub, xp)
            dev = max(dev, abs(tau(xp) / g.mu2[hub]
                               - towers.gr1_trace_raw(tp) / tau_q))
            for q in pool1:
                if p.length + q.length > 4:
                    continue
                xq = GradedElement.basis(g, q)
                lhs = towers.theta1(g, hub, bullet_mul(xp, xq))
                rhs = towers.gr1_mul(towers.theta1(g, hub, xp),
                                     towers.theta1(g, hub, xq))
                dev = max(dev, lhs.norm_inf_diff(rhs))
        # annular equivariance with the independent projection route
        for n in (1, 2, 3):
            for i in range(1, 2 * n):
                for p in enumerate_paths(g, g.star, 2 * n, g.star):
                    x = GradedElement.basis(g, p)
                    lhs = towers.theta(
                        g, epitl.act(epitl.cap_generator(2 * n, i), x))
                    rhs = towers.annular_cap(g, n, i, towers.theta(g, x))
                    dev = max(dev, lhs.norm_inf_diff(rhs))
    elapsed = time.perf_counter() - t0
    assert _report("criterion 9 (path-model tower suite)", dev, 1e-8, elapsed)
    assert elapsed < 300.0, f"tower suite took {elapsed:.1f}s"
