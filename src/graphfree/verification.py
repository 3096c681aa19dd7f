"""Consolidated property suites behind the command-line verifier.

Each check is a generator that yields every deviation it measures: the
gap between two routes to one value, an excess over a bound, or 0/1 for
an exact identity.  One runner judges them all (:meth:`_Runner.check`):
a check passes when every deviation is at most its tolerance, fails at
the first NaN, and reports its largest deviation as the witness, with
its timing.  The checks mirror the library's contracts: combinatorial
counts, the graded/filtered isomorphism, trace equality and positivity,
diagram-category relations, cumulant route agreement, the freeness
certificate, factor parameters, and the tower suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import cdelta, cumulants, epitl, factors, falg, gralg, noncross, towers
from .graphs import (EVEN, ODD, Graph, build_graph, delta_max, delta_v,
                     enumerate_paths, line_graph, named_graph, two_vertex_graph,
                     vertex_path)
from .gralg import GradedElement, bullet_mul, star, tau


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    witness: str
    elapsed: float
    suite: str

    def as_dict(self):
        return {"check": self.check_id, "passed": self.passed,
                "witness": self.witness, "elapsed": round(self.elapsed, 6)}


@dataclass
class VerificationReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.results)

    @property
    def ok(self) -> bool:
        return bool(self.results) and self.n_passed == len(self.results)

    def suite_totals(self) -> list[dict]:
        """Per suite, in run order: its name, check count and summed elapsed."""
        totals: dict[str, dict] = {}
        for r in self.results:
            t = totals.setdefault(r.suite, {"suite": r.suite, "checks": 0, "elapsed": 0.0})
            t["checks"] += 1
            t["elapsed"] += r.elapsed
        return list(totals.values())

    def as_dict(self):
        return {"suite": self.suite,
                "passed": self.n_passed,
                "failed": len(self.results) - self.n_passed,
                "ok": self.ok,
                "suites": [dict(t, elapsed=round(t["elapsed"], 6))
                           for t in self.suite_totals()],
                "checks": [r.as_dict() for r in self.results]}


@dataclass
class _Runner:
    """What every suite reads, and the one judge of the checks it runs."""

    report: VerificationReport
    graphs: dict[str, Graph]
    max_degree: int
    tol: float
    seed: int
    fast: bool
    suite: str = ""

    def check(self, check_id: str, fn, tol: float):
        """Run the check fn() and record whether its deviations stay within tol.

        The deviations are consumed as fn() yields them.  The witness gives
        the largest (0 when there are none); the first NaN stops the check
        and fails it as ``max deviation nan``, and an exception fails it as
        ``error: {type}: {message}``.
        """
        t0 = time.perf_counter()
        try:
            dev = 0
            for x in fn():
                if x != x:  # NaN: it compares false with everything
                    dev = x
                    break
                if x > dev:
                    dev = x
            passed = bool(dev <= tol)  # numpy deviations give numpy.bool_
            witness = f"max deviation {dev:.3g} (tol {tol:.1g})"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            passed, witness = False, f"error: {type(exc).__name__}: {exc}"
        self.report.results.append(
            CheckResult(check_id, passed, witness, time.perf_counter() - t0, self.suite))


def standard_graphs() -> dict[str, Graph]:
    """The six-graph battery used by the acceptance criteria."""
    return {
        "a2": named_graph("a2"),
        "a3": named_graph("a3"),
        "a4": named_graph("a4"),
        "k1_2": named_graph("k1_2"),
        "k1_3": named_graph("k1_3"),
        "dbl": named_graph("dbl"),
    }


def random_element(graph: Graph, rng: random.Random, max_len=3, n_terms=3) -> GradedElement:
    """n_terms seeded draws of a path of length at most max_len, each with
    a coefficient uniform on [-1, 1]; a path drawn twice sums its two."""
    pool = _path_pool(graph, max_len)
    terms: dict = {}
    for _ in range(n_terms):
        p = rng.choice(pool)
        terms[p] = terms.get(p, 0.0) + rng.uniform(-1, 1)
    return GradedElement(graph, terms)


# verify draws from seven (graph, max_len) pools; the tests from a few more
@functools.lru_cache(maxsize=32)
def _path_pool(graph: Graph, max_len: int) -> tuple:
    return tuple(p for n in range(max_len + 1) for p in enumerate_paths(graph, None, n, None))


# ---------------------------------------------------------------------------
# suites: each takes the runner and hands it its checks, in report order


def _suite_combinatorics(run: _Runner):
    nmax = 5 if run.fast else 6

    def counts():
        for n in range(nmax + 1):
            c = noncross.catalan(n)
            yield abs(len(noncross.enumerate_nc(n)) - c)
            yield abs(len(noncross.enumerate_tl(2 * n)) - c)
    run.check("catalan-counts", counts, 0)

    def kreweras_agree():
        for n in range(1, nmax + 1):
            for p in noncross.enumerate_nc(n):
                k1, k2 = noncross.kreweras(p), noncross.kreweras_oracle(p)
                yield 0 if k1 == k2 else 1
                yield abs(p.num_blocks + k1.num_blocks - (n + 1))
    run.check("kreweras-oracle-and-rank", kreweras_agree, 0)

    def class_structure():
        for n in range(1, nmax + 1):
            for t in noncross.enumerate_tl(2 * n):
                ok1, _ = noncross.kreweras_class_structure(t)
                ok2, _ = noncross.epsilon_identity_check(t)
                yield 0 if (ok1 and ok2) else 1
    run.check("kreweras-class-and-sign-identities", class_structure, 0)

    def doubling():
        for n in range(1, nmax + 1):
            images = {noncross.double_bijection(p).blocks
                      for p in noncross.enumerate_nc(n)}
            yield abs(len(images) - noncross.catalan(n))
    run.check("doubling-bijection", doubling, 0)

    # mu(0_n, 1_n) against its closed form reaches only one Kreweras class;
    # the defining identity sum_sigma mu(sigma, 1_n) = [n = 1] reaches all
    def mobius():
        for n in range(1, nmax + 1):
            one = noncross.nc_one(n)
            got = noncross.mobius_nc(noncross.nc_zero(n), one)
            want = (-1) ** (n - 1) * noncross.catalan(n - 1)
            total = sum(noncross.mobius_nc(s, one) for s in noncross.enumerate_nc(n))
            yield abs(got - want)
            yield abs(total - (n == 1))
    run.check("mobius-zero-to-one", mobius, 0)


def _suite_isomorphism(run: _Runner):
    # psi(phi(b)) and phi(psi(b)) on every basis path b, composed from two
    # memos of the whole basis (falg.basis_transforms): an image's terms
    # start where b does and are no longer, so sum_q c_q psi[q] reads only
    # the memo.  phi and psi are still filled separately, so the round
    # trip compares two maps.  In process on a 2-core x86-64 host the six
    # round trips take 0.3-0.5 s at degree 10 and 1.9 s at degree 12, where
    # transforming path by path took 3.3-4.2 and 22-28 s.
    for name, g in run.graphs.items():
        def roundtrip(g=g):
            estart = g.estart
            phis = falg.basis_transforms(g, run.max_degree, inverse=False)
            psis = falg.basis_transforms(g, run.max_degree, inverse=True)
            for there, back in ((phis, psis), (psis, phis)):
                for b, image in there.items():
                    edges, v = ((), b) if isinstance(b, int) else (b, estart[b[0]])
                    out: dict = {}
                    get = out.get
                    for q, c in image.items():
                        for r, d in back[q or v].items():
                            out[r] = get(r, 0.0) + c * d
                    out[edges] = get(edges, 0.0) - 1.0  # the round trip minus b
                    yield gralg.max_abs(out.values())
        run.check(f"phi-psi-identity[{name}]", roundtrip, run.tol)

    name, g = next(iter(run.graphs.items()))

    def star_compat(g=g):
        rng = random.Random(7)
        for _ in range(20):
            x = random_element(g, rng)
            yield falg.phi(star(x)).norm_inf_diff(star(falg.phi(x)))
    run.check(f"phi-star-compatible[{name}]", star_compat, run.tol)

    def multiplicative(g=g):
        rng = random.Random(11)
        for _ in range(20):
            x, y = random_element(g, rng, 2), random_element(g, rng, 2)
            lhs = falg.phi(bullet_mul(x, y))
            rhs = falg.sharp_mul(falg.phi(x), falg.phi(y))
            yield lhs.norm_inf_diff(rhs)
    run.check(f"phi-multiplicative[{name}]", multiplicative, run.tol)


def _suite_trace(run: _Runner):
    for name, g in run.graphs.items():
        def equality(g=g):
            for n in range(0, run.max_degree + 1, 2):
                for p in enumerate_paths(g, None, n, None):
                    b = GradedElement.basis(g, p)
                    yield abs(tau(b) - falg.t_functional(falg.phi(b)))
        run.check(f"tau-equals-t-phi[{name}]", equality, run.tol)

        def traciality(g=g):
            rng = random.Random(run.seed)
            for _ in range(100):
                x, y = random_element(g, rng), random_element(g, rng)
                yield abs(tau(bullet_mul(x, y)) - tau(bullet_mul(y, x)))
        run.check(f"traciality[{name}]", traciality, run.tol)


def _suite_gram(run: _Runner):
    graphs = {k: run.graphs[k] for k in ("a2", "a3")} if run.fast else run.graphs
    for name, g in graphs.items():
        def gram(g=g):
            for p, q, val in falg.gram_blocks(g, run.max_degree):
                want = g.mu(p.start) * g.mu(p.finish) if p == q else 0.0
                yield abs(val - want)
        run.check(f"gram-diagonal[{name}]", gram, run.tol)


def _suite_epitl(run: _Runner):
    nmax = 6 if run.fast else 8  # path lengths, whatever the degree
    small = {k: run.graphs[k] for k in ("a2", "a3", "k1_2", "dbl") if k in run.graphs}
    for name, g in small.items():
        def exchange(g=g):
            # E_p E_q = E_q E_{p+2} for q <= p, as whole maps on the length-n
            # basis.  A single cap sends a path to one path or none, so cap i
            # of [m] is stored per length-m path as the rank of its image in
            # the length-(m-2) list (-1 for none) and a coefficient, one table
            # per length from one act per (cap, path): on dbl 6,152 act calls.
            paths = [enumerate_paths(g, None, m, None) for m in range(nmax + 1)]
            caps = {}
            for m in range(2, nmax + 1):
                index = {q: k for k, q in enumerate(paths[m - 2])}
                for i in range(1, m):
                    cap = epitl.cap_generator(m, i)
                    rank, coef = np.full(len(paths[m]), -1), np.zeros(len(paths[m]))
                    for k, p in enumerate(paths[m]):
                        image = epitl.act(cap, GradedElement.basis(g, p)).terms
                        if len(image) > 1:
                            raise ValueError(f"cap {i} of [{m}] sends {p} to {len(image)} paths")
                        for q, c in image.items():
                            rank[k], coef[k] = index[q], c
                    caps[m, i] = rank, coef

            def both(n, a, b):  # cap a of [n], then cap b of [n-2]
                (r1, c1), (r2, c2) = caps[n, a], caps[n - 2, b]
                r = np.where(r1 < 0, -1, r2[r1])
                return r, np.where(r < 0, 0.0, c1 * c2[r1])

            for n in range(4, nmax + 1):
                for p_ in range(1, n - 2):
                    for q_ in range(1, p_ + 1):
                        (rl, cl), (rr, cr) = both(n, q_, p_), both(n, p_ + 2, q_)
                        yield np.max(np.where(rl == rr, np.abs(cl - cr),
                                              np.maximum(np.abs(cl), np.abs(cr))))
        run.check(f"exchange-relation[{name}]", exchange, run.tol)

    g = run.graphs["a3"]

    def compose_consistency():
        rng = random.Random(run.seed + 1)
        for _ in range(60):
            n = rng.randrange(2, 7)
            m = n - 2 * rng.randrange(1, n // 2 + 1)
            f = rng.choice(epitl.enumerate_hom(n, m))
            p2 = n + 2 * rng.randrange(1, 3)
            g2 = rng.choice(epitl.enumerate_hom(p2, n))
            a = epitl.compose(f, g2)
            b = epitl.compose_by_rewriting(f, g2)
            yield 0 if a == b else 1
    run.check("compose-vs-rewriting", compose_consistency, 0)

    def functoriality():
        rng = random.Random(run.seed + 2)
        for _ in range(20):
            n = rng.randrange(4, 7)
            mid = n - 2
            f = epitl.enumerate_hom(mid, mid - 2)[0]
            g2 = rng.choice(epitl.enumerate_hom(n, mid))
            fg = epitl.compose(f, g2)
            for p in enumerate_paths(g, None, n, None):
                b = GradedElement.basis(g, p)
                lhs = epitl.act(fg, b)
                rhs = epitl.act(f, epitl.act(g2, b))
                yield lhs.norm_inf_diff(rhs)
    run.check("action-functorial", functoriality, run.tol)

    def adjoint():
        for n in (2, 3, 4):
            for i in range(1, n):
                mat = epitl.hom_matrix(g, epitl.cap_generator(n, i))
                rhs = epitl.cap_adjoint_matrix(g, n, i)
                yield float(np.max(np.abs(mat.T - rhs))) if mat.size else 0.0
                bound = math.sqrt(delta_max(g))
                nrm = falg.operator_norm(mat)
                yield nrm - bound - run.tol  # the excess over the bound
                yield float(np.sqrt((mat * mat).sum(0)).max(initial=0.0)) - nrm  # |M e_j| <= |M|
    run.check("cap-adjoint-and-norm", adjoint, run.tol)

    def closed_form():
        for f in epitl.enumerate_hom(6, 0):
            t = epitl.to_tl(f)
            for p in enumerate_paths(g, None, 6, None):
                closed = {vertex_path(p.finish): epitl.closed_cap_value(g, t, p)}
                yield epitl.act(f, GradedElement.basis(g, p)).norm_inf_diff(
                    GradedElement(g, closed))
    run.check("full-capping-closed-form", closed_form, run.tol)


def _suite_cdelta(run: _Runner):
    def relations():
        # each relation acts on loops of length 2*source; words are listed
        # in application order (first entry applied first).  Each side is one
        # product of two generator matrices on all the loops at v of one
        # length, each matrix built from cdelta.gen_act on first use
        for g in run.graphs.values():
            for v in range(g.n_vertices):
                dv = delta_v(g, v)

                @functools.lru_cache(maxsize=24)  # 4 kinds at the lengths 0, 2, ..., 10
                def gen(kind, length):  # one generator on the loops at v of one length
                    return epitl.path_matrix(g, length, length + (2 if kind[0] == "C" else -2),
                                             lambda y: cdelta.gen_act(g, v, kind, y), at=v)

                def word(first, then, length):
                    return gen(then, length + (2 if first[0] == "C" else -2)) @ gen(first, length)

                for n in range(0, 3):
                    cases = [
                        (n, ["C-", "A-"], None, dv),         # cup then cap, left
                        (n, ["C+", "A+"], None, dv),         # cup then cap, right
                        (n + 2, ["A+", "A-"], ["A-", "A+"], None),
                        (n + 1, ["C+", "A-"], ["A-", "C+"], None),
                        (n + 1, ["C-", "A+"], ["A+", "C-"], None),
                        (n, ["C+", "C-"], ["C-", "C+"], None),
                    ]
                    for src, left, right, scalar in cases:
                        lhs = word(*left, 2 * src)
                        rhs = scalar * np.eye(len(lhs)) if right is None else word(*right, 2 * src)
                        yield np.max(np.abs(lhs - rhs))
    run.check("generator-relations", relations, run.tol)

    def small_relations():
        for g in run.graphs.values():
            for v in range(g.n_vertices):
                for p in enumerate_paths(g, v, 2, v):
                    x = GradedElement.basis(g, p)
                    yield cdelta.gen_act(g, v, "A-", x).norm_inf_diff(
                        cdelta.gen_act(g, v, "A+", x))
                x0 = gralg.e_vertex(g, v)
                yield cdelta.gen_act(g, v, "C-", x0).norm_inf_diff(
                    cdelta.gen_act(g, v, "C+", x0))
    run.check("degenerate-relations", small_relations, run.tol)

    def all_plus():
        # mixed-sign cap and cup chains normalize to all-plus chains
        for k in (1, 2):
            for ell in (0, 1, 2):
                caps = ([("A+", t) for t in range(k + ell, k, -1)]
                        + [("A-", t) for t in range(k, 0, -1)])
                caps_plus = [("A+", t) for t in range(k + ell, 0, -1)]
                yield 0 if cdelta.compose_word(caps) == cdelta.compose_word(caps_plus) else 1
                cups = ([("C-", t) for t in range(0, k)]
                        + [("C+", t) for t in range(k, k + ell)])
                cups_plus = [("C+", t) for t in range(0, k + ell)]
                yield 0 if cdelta.compose_word(cups) == cdelta.compose_word(cups_plus) else 1
    run.check("cap-normalization-identity", all_plus, 0)

    def weights():
        rng = random.Random(run.seed + 3)
        delta = 1.37  # generic positive parameter
        for _ in range(100):
            n = rng.randrange(0, 5)
            word = []
            cur = n
            for _ in range(rng.randrange(1, 6)):
                kind = rng.choice(["C-", "C+"] if cur == 0 else ["A-", "A+", "C-", "C+"])
                word.append((kind, cur))
                cur += 1 if kind.startswith("C") else -1
            power, comp = cdelta.compose_word(word)
            w_word = 1.0
            for kind, lvl in word:
                w_word *= cdelta.weight_functional(cdelta.GENERATORS[kind](lvl), delta)
            w_comp = delta ** power * cdelta.weight_functional(comp, delta)
            yield abs(w_word - w_comp)
    run.check("weight-multiplicativity", weights, run.tol)

    def norm_estimate():
        rng = random.Random(run.seed + 4)
        g = run.graphs["a3"]
        v = 1
        dv = delta_v(g, v)
        for n in (1, 2):
            basis = enumerate_paths(g, v, 2 * n, v)
            for m in range(0, 3):
                for t in _tpq_sample(n, m, rng, 4):
                    x = GradedElement(g, {p: rng.uniform(-1, 1) for p in basis})
                    y = cdelta.tpq_act(g, v, t, x)
                    nx = math.sqrt(sum(c * c for c in x.terms.values()))
                    ny = math.sqrt(sum(c * c for c in y.terms.values()))
                    bound = cdelta.weight_functional(t, dv) * nx
                    yield ny - bound - run.tol  # the excess over the bound
    run.check("weight-norm-estimate", norm_estimate, run.tol)

    def ccomm_inversion():
        rng = random.Random(run.seed + 5)
        for gname in ("a3", "dbl"):
            g = run.graphs[gname]
            for v in range(g.n_vertices):
                dv = delta_v(g, v)
                for n in (1, 2, 3):
                    basis = enumerate_paths(g, v, 2 * n, v)
                    if not basis:
                        continue
                    c2n = cdelta.c_2n(g, v, n)
                    x = GradedElement(g, {p: rng.uniform(-1, 1) for p in basis})
                    ip = sum(x.coeff(p) * c2n.coeff(p) for p in basis)
                    nrm = sum(c * c for c in c2n.terms.values())
                    x = x - (ip / nrm) * c2n
                    z = cdelta.gen_act(g, v, "C-", x) - cdelta.gen_act(g, v, "C+", x)
                    rec = GradedElement(g)
                    for t in range(1, n + 1):
                        mor = cdelta.TPQMorphism(n + 1, n, (1, n + 1 - t), (t + 1, n + 1))
                        rec = rec + (dv ** -t) * cdelta.tpq_act(g, v, mor, z)
                    yield rec.norm_inf_diff(x)
    run.check("commutant-inversion", ccomm_inversion, run.tol)

    def xm_structure():
        g = two_vertex_graph(2, 0.8, 0.2)
        v = 0
        dv = delta_v(g, v)  # 0.5 < 1
        for m in (1, 2, 3):
            xm = cdelta.zv_truncation(g, v, m)
            for p in enumerate_paths(g, v, 1, None):
                xi = GradedElement.basis(g, p)
                lhs = falg.sharp_mul(xm, xi)
                rhs = ((-1.0) ** m) * bullet_mul(cdelta.c_2n(g, v, m), xi)
                yield lhs.norm_inf_diff(rhs)
            for j in range(3):
                for p in enumerate_paths(g, v, 2 * j, v):
                    x = GradedElement.basis(g, p)
                    full = falg.sharp_mul(xm, x)
                    for i in range(3):
                        blk = cdelta.xm_block(g, v, m, i, j, x)
                        yield full.component(2 * i).norm_inf_diff(blk)
            mat, _ = falg.truncated_left_mult(xm, 8)
            bound = 1 + 2 * sum(dv ** (t / 2) for t in range(1, 200))
            nrm = falg.operator_norm(mat)
            yield nrm - bound  # the excess over the bound
            cols = np.bincount(mat.cols, weights=mat.vals ** 2)
            yield float(np.sqrt(cols.max(initial=0.0))) - nrm  # |M e_j| <= |M|
    run.check("alternating-truncation-structure", xm_structure, run.tol)

    def centers():
        g = two_vertex_graph(2, 0.8, 0.2)
        rep = cdelta.center_report(g, "v")
        yield 0 if rep.center_dim == 2 else 1
        yield abs(rep.atom_trace - 0.5 * 0.8)
        rep2 = cdelta.center_report(g, "w")
        yield 0 if rep2.center_dim == 1 else 1
        g3 = two_vertex_graph(2, 2 / 3, 1 / 3)
        rep3 = cdelta.center_report(g3, "v")  # delta(v) = 1: single
        yield 0 if rep3.center_dim == 1 else 1
    run.check("center-reports", centers, run.tol)


def _suite_cumulants(run: _Runner):
    a3f = named_graph("fork")  # two hubs through one even vertex

    def two_routes():
        for k in (1, 2, 3, 4):
            for tup in _composable_tuples(a3f, k, limit=120, seed=run.seed):
                yield cumulants.b_diff_norm(cumulants.kappa_mobius(a3f, tup),
                                            cumulants.kappa_starry(a3f, tup))
    run.check("cumulant-closed-form", two_routes, run.tol)

    def moment_consistency():
        for k in (1, 2, 3, 4):
            for tup in _composable_tuples(a3f, k, limit=60, seed=run.seed + 1):
                lhs = cumulants.moment_phi(a3f, tup)
                rhs = cumulants.kappa_from_kernel(
                    lambda ps: cumulants.kappa_starry(a3f, ps), tup)
                yield cumulants.b_diff_norm(lhs, rhs)
    run.check("moment-cumulant-recovery", moment_consistency, run.tol)

    def mobius_roundtrip():
        rng = random.Random(run.seed + 2)
        values: dict[tuple, cumulants.BElement] = {}

        def kernel(paths):
            key = tuple(paths)
            if key not in values:
                comp = cumulants._compose_all(paths)
                if comp is None or comp.start != comp.finish:
                    values[key] = {}
                else:
                    values[key] = {comp.start: rng.uniform(-1, 1)}
            return values[key]

        def kappa_kernel(paths):
            return cumulants.kappa_of_moments(kernel, paths)

        for k in (1, 2, 3, 4):
            for tup in _composable_tuples(a3f, k, limit=40, seed=run.seed + 3):
                recovered = cumulants.kappa_from_kernel(kappa_kernel, tup)
                yield cumulants.b_diff_norm(recovered, kernel(tup))
    run.check("mobius-inversion-roundtrip", mobius_roundtrip, run.tol)

    # both partitions hold several interval blocks, so "first" and "last"
    # extract them in different orders
    def extension_order():
        pis = (noncross.nc_zero(4), noncross.nc(4, [(1,), (2, 3), (4,)]))
        for tup in _composable_tuples(a3f, 4, limit=40, seed=run.seed + 4):
            for p in pis:
                a = cumulants.moment_pi(a3f, p, tup, pick="first")
                b = cumulants.moment_pi(a3f, p, tup, pick="last")
                yield cumulants.b_diff_norm(a, b)
    run.check("extension-order-independence", extension_order, run.tol)

    def bimodule():
        for tup in _composable_tuples(a3f, 3, limit=60, seed=run.seed + 5):
            val = cumulants.kappa_mobius(a3f, tup)
            u, x = tup[0].start, tup[-1].finish
            for v, c in val.items():
                if v != u or (u != x and c != 0):
                    yield abs(c) if v != u else 1.0
    run.check("bimodule-support", bimodule, run.tol)

    def certificate():
        rep = cumulants.freeness_certificate(a3f, max_order=4, tol=1e-10,
                                             rng=random.Random(run.seed + 6))
        # the margin: the larger of the two deviations the certificate
        # judges, NaN when either is.  The certificate passes when both are
        # at most its tol, as the runner does, so the two verdicts agree
        yield gralg.max_abs((rep.max_mixed_cumulant, rep.stp_max_dev))
    run.check("freeness-certificate", certificate, 1e-10)


def _composable_tuples(graph, k, limit, seed):
    """The first ``limit`` of ``10 * limit`` seeded draws that do not dead-end."""
    rng = random.Random(seed)
    gens = cumulants.even_generators(graph)
    by_start = {v: enumerate_paths(graph, v, 2) for v in graph.vertices_of_parity(EVEN)}
    draws = (cumulants.draw_tuple(gens, by_start, k, rng) for _ in range(10 * limit))
    return list(itertools.islice(filter(None, draws), limit))


def _tpq_sample(n, m, rng, count):
    out = []
    for _ in range(count):
        size = rng.randrange(0, min(n, m) + 1)
        if size == 0:
            out.append(cdelta.TPQMorphism(n, m, None, None))
        else:
            plo = rng.randrange(1, m - size + 2)
            qlo = rng.randrange(1, n - size + 2)
            out.append(cdelta.TPQMorphism(
                n, m, (plo, plo + size - 1), (qlo, qlo + size - 1)))
    return out


def _suite_factor(run: _Runner):
    def paper_values():
        d = factors.prop_line(2, 0.5, 0.5)
        yield abs(d.diffuse[0][0] - 3.0)
        yield len(d.atoms)
        d = factors.prop_line(1, 0.5, 0.5)
        yield abs(d.diffuse[0][0] - 1.0)
        d = factors.prop_line(1, 1 / 3, 2 / 3)
        yield abs(d.atoms[0] - 0.5)
        yield abs(d.diffuse[0][0] - 1.0)
        d = factors.omega_factor(2, 0.5, 0.5)
        yield abs(d.diffuse[0][0] - 1.5)
        yield 0.0 if factors.omega_factor(1, 0.4, 0.6) is None else 1.0
        for n in (2, 3, 4):
            base = factors.AlgDesc((1 - 1 / math.sqrt(n),),
                                   ((1.0, 1 / math.sqrt(n)),))
            prod = factors.free_product_many([base] * n)
            yield abs(prod.diffuse[0][0] - (2 * math.sqrt(n) - 1))
            yield float(bool(prod.atoms))
    run.check("paper-parameter-values", paper_values, run.tol)

    def pipeline():
        rng = random.Random(run.seed)
        for _ in range(200):
            k = rng.randrange(1, 4)
            qs = [rng.randrange(1, 4) for _ in range(k)]
            raw = [rng.uniform(0.05, 1.0) for _ in range(k + 1)]
            total = sum(raw)
            *weights, b = (r / total for r in raw)
            closed = factors.star_m1(qs, weights, b)
            piped = factors.star_m1_pipeline(qs, weights, b)
            yield _desc_diff(closed, piped)
    run.check("single-hub-pipeline-agreement", pipeline, 1e-9)

    def component_routes():
        # The free-dimension formula off the PF weighting, with delta(v) >= 1
        # everywhere, against the two-vertex rule and the atom-free hub corner.
        rng = random.Random(run.seed)
        for _ in range(20):
            q = rng.randrange(2, 5)
            g = two_vertex_graph(q, q ** rng.uniform(-1.0, 1.0), 1.0)
            whole = factors.omega_factor(q, *g.mu2).diffuse[0][0]
            yield abs(factors.component_parameter(g, [0, 1]) - whole)
        for _ in range(20):
            qu = []  # spoke i: q_i edges and q_i u_i times the hub mass, delta 1/u_i
            while sum(q * q * u for q, u in qu) < 1.0:  # delta(hub) >= 1
                k = rng.randrange(1, 4)
                qu = [(rng.randrange(1, 4), rng.uniform(0.1, 1.0)) for _ in range(k)]
            g = build_graph([("c", ODD, 1.0)]
                            + [(f"l{i}", EVEN, q * u) for i, (q, u) in enumerate(qu)],
                            [("c", f"l{i}", q) for i, (q, _) in enumerate(qu)])
            corner = factors.star_m1([q for q, _ in qu], g.mu2[1:], g.mu2[0])
            s = factors.component_parameter(g, range(g.n_vertices))
            yield float(bool(corner.atoms))
            yield abs(factors.compress_factor(s, g.mu2[0]) - corner.diffuse[0][0])
    run.check("component-parameter-routes", component_routes, 1e-12)

    def atoms():
        g = two_vertex_graph(2, 0.8, 0.2)
        rep = factors.m_gamma_report(g)
        yield abs(dict(rep.atoms).get("v", 0.0) - 0.4)
        got = {vid: tr for vid, tr in cdelta.graph_atoms(g)}
        yield abs(got.get("v", 0.0) - 0.4)
        yield float("w" in got)
    run.check("structure-atoms", atoms, run.tol)

    def compress():
        for q, a in ((2, 0.5), (3, 0.3)):
            b = 1 - a
            whole = 1 + 2 * q * a * b - a * a - b * b
            yield abs(factors.compress_factor(whole, b) - (2 * q * a / b - (a / b) ** 2))
            yield abs(factors.compress_factor(whole, a) - (2 * q * b / a - (b / a) ** 2))
        yield abs(factors.compress_factor(3.0, 1.0) - 3.0)
        yield abs(factors.compress_factor(3.0, 0.5) - 9.0)
    run.check("corner-compression", compress, run.tol)


def _desc_diff(a: factors.AlgDesc, b: factors.AlgDesc) -> float:
    """The largest gap between matched atoms and diffuse summands (NaN if
    any gap is NaN), or 1.0 when the shapes differ."""
    if len(a.atoms) != len(b.atoms) or len(a.diffuse) != len(b.diffuse):
        return 1.0
    pairs = list(zip(sorted(a.atoms), sorted(b.atoms)))
    for (t1, g1), (t2, g2) in zip(sorted(a.diffuse), sorted(b.diffuse)):
        pairs += [(t1, t2), (g1, g2)]
    return gralg.max_abs([x - y for x, y in pairs])


def _suite_moments(run: _Runner):
    def poisson():
        for q, a in ((1, 0.5), (2, 0.5), (2, 0.4), (3, 0.6)):
            g = two_vertex_graph(q, a, 1 - a)
            rate = a / ((1 - a) * q)
            got = cumulants.omega_matrix_moments(g, 5)
            want = [cumulants.nc_rate_moment(rate, k) for k in range(1, 6)]
            yield from (abs(x - y) for x, y in zip(got, want))
        g = two_vertex_graph(1, 0.5, 0.5)
        got = cumulants.omega_matrix_moments(g, 5)
        yield from (abs(x - noncross.catalan(k + 1)) for k, x in enumerate(got))
    run.check("matrix-moments-free-poisson", poisson, 1e-8)


def _suite_planar(run: _Runner):
    tol, seed = 1e-8, run.seed  # the tower checks keep their own tolerance
    towers_graphs = {"a3": line_graph(3, star_first=True),
                     "a4": line_graph(4, star_first=True)}
    for name, g in towers_graphs.items():
        star_v = g.star
        delta = delta_v(g, star_v)

        def jones(g=g, delta=delta):
            for n in (2, 3, 4):
                e = towers.jones_projection(g, n)
                yield towers.mult(e, e).norm_inf_diff(e)
                yield towers.star_t(e).norm_inf_diff(e)
            for i in (2, 3):
                ei = towers._jones_tower(g, 4, i)
                ej = towers._jones_tower(g, 4, i + 1)
                lhs = towers.mult(towers.mult(ei, ej), ei)
                yield lhs.norm_inf_diff((delta ** -2) * ei)
                lhs = towers.mult(towers.mult(ej, ei), ej)
                yield lhs.norm_inf_diff((delta ** -2) * ej)
        run.check(f"jones-projections[{name}]", jones, tol)

        def markov(g=g, delta=delta):
            rng = random.Random(seed)
            for n in (2, 3):
                basis = towers.pair_basis(g, n)
                x = towers.TowerElement(g, n, {p: rng.uniform(-1, 1) for p in basis[:8]})
                yield towers.cond_exp(towers.include(x)).norm_inf_diff(x)
                yield abs(towers.trace_t(towers.include(x)) - towers.trace_t(x))
                e = towers.jones_projection(g, n + 1)
                yield abs(towers.trace_t(towers.mult(towers.include(x), e))
                          - delta ** -2 * towers.trace_t(x))
        run.check(f"markov-tower[{name}]", markov, tol)

        def traces(g=g):
            for n in range(0, 4):
                for p in enumerate_paths(g, g.star, n, None):
                    pair = towers.PathPair(p, p)
                    got = towers.trace_t(towers.TowerElement.basis(g, pair))
                    want = (delta_v(g, g.star) ** -n
                            * g.mu2[p.finish] / g.mu2[g.star])
                    yield abs(got - want)
        run.check(f"minimal-projection-traces[{name}]", traces, tol)

        def loop_iso(g=g):
            return _loop_isomorphism(g, g.star, (0, 2, 4), functools.partial(towers.theta, g),
                                     towers.gr0_trace, towers.gr0_mul)
        run.check(f"loop-isomorphism[{name}]", loop_iso, tol)

        def two_routes(g=g):
            star_v = g.star
            rng = random.Random(seed + 8)
            pools = {n: enumerate_paths(g, star_v, 2 * n, star_v) for n in (1, 2, 3)}
            for _ in range(50):
                m = rng.randrange(1, 4)
                n = rng.randrange(1, m + 1)
                if not pools[m] or not pools[n]:
                    continue
                p, q = rng.choice(pools[m]), rng.choice(pools[n])
                x = towers.theta(g, GradedElement.basis(g, p))
                y = towers.theta(g, GradedElement.basis(g, q))
                yield towers.gr0_mul(x, y).norm_inf_diff(towers.gr0_mul_tangle(x, y))
        run.check(f"loop-product-two-routes[{name}]", two_routes, tol)

        def equivariance(g=g):
            star_v = g.star
            for n in (1, 2, 3):
                for i in range(1, 2 * n):
                    for p in enumerate_paths(g, star_v, 2 * n, star_v):
                        x = GradedElement.basis(g, p)
                        lhs = towers.theta(
                            g, epitl.act(epitl.cap_generator(2 * n, i), x))
                        rhs = towers.annular_cap(g, n, i, towers.theta(g, x))
                        yield lhs.norm_inf_diff(rhs)
        run.check(f"annular-equivariance[{name}]", equivariance, tol)

        def pairing_elements(g=g, delta=delta):
            t = noncross.nc(4, [(1, 2), (3, 4)])
            yield towers.ztl(g, t).norm_inf_diff(delta * towers.jones_projection(g, 2))
            ident = noncross.nc(4, [(1, 4), (2, 3)])
            yield towers.ztl(g, ident).norm_inf_diff(towers.identity_element(g, 2))
        run.check(f"pairing-elements[{name}]", pairing_elements, tol)

        def shifted(g=g):
            hub = next((v for v in range(g.n_vertices)
                        if v != g.star and enumerate_paths(g, g.star, 1, v)), None)
            tau_q = towers.gr1_trace_raw(towers.q_projection(g, hub)[0])
            yield from _loop_isomorphism(g, hub, (0, 2), functools.partial(towers.theta1, g, hub),
                                         lambda t: towers.gr1_trace_raw(t) / tau_q, towers.gr1_mul)
        run.check(f"shifted-loop-isomorphism[{name}]", shifted, tol)


def _loop_isomorphism(g, base, lengths, theta, trace, mul):
    """Yield how far theta, on the loops at base of the given lengths, is
    from carrying tau / mu2(base) to ``trace`` and the product to ``mul``."""
    loops = [p for n in lengths for p in enumerate_paths(g, base, n, base)]
    for p in loops:
        xp = GradedElement.basis(g, p)
        yield abs(tau(xp) / g.mu2[base] - trace(theta(xp)))
        for q in loops:
            xq = GradedElement.basis(g, q)
            yield theta(bullet_mul(xp, xq)).norm_inf_diff(mul(theta(xp), theta(xq)))


_SUITES = {"combinatorics": _suite_combinatorics, "isomorphism": _suite_isomorphism,
           "trace": _suite_trace, "gram": _suite_gram, "epitl": _suite_epitl,
           "cdelta": _suite_cdelta, "cumulants": _suite_cumulants,
           "factor": _suite_factor, "moments": _suite_moments, "planar": _suite_planar}
SUITES = tuple(_SUITES)


def run_verification(suite: str = "all", max_degree: int = 6,
                     tol: float = 1e-9, seed: int = 0,
                     fast: bool = False) -> VerificationReport:
    """Run one named suite (or all of them) and report the outcomes.

    ``fast`` caps the degree at 4 for every suite; the suites that cap
    more under it say so themselves.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES} or 'all'")
    run = _Runner(VerificationReport(suite), standard_graphs(),
                  min(max_degree, 4) if fast else max_degree, tol, seed, fast)
    for name in SUITES if suite == "all" else (suite,):
        run.suite = name
        _SUITES[name](run)
    return run.report
