import numpy as np
import pytest

from graphfree import cdelta, epitl, falg, gralg
from graphfree.gralg import GradedElement, bullet_mul, e_vertex, star, tau, unit
from graphfree.graphs import (Path, adjacency_powers, delta_max, enumerate_paths,
                              named_graph, two_vertex_graph)
from graphfree.verification import random_element, standard_graphs


def braced(graph, path):
    """The unit-normalized path mu(s)^{-1/2} mu(f)^{-1/2} [path]."""
    scale = (graph.mu(path.start) * graph.mu(path.finish)) ** -0.5
    return GradedElement.basis(graph, path, scale)


def _gen_apply(graph, i, path):
    """The oracle single-cap generator at position i on a basis path.

    Returns (coefficient, shorter path) or None when the Kronecker delta
    kills the term.
    """
    if path.edges[i - 1] != graph.erev[path.edges[i]]:
        return None
    coeff = graph.mu(path.vertices[i]) / graph.mu(path.vertices[i + 1])
    return coeff, path.drop_edge_pair(i)


def _chain_sharp_mul(x, y):
    """The oracle # product: cap generators applied one by one at the
    junction of each concatenation, k = 1, 2, ... until one kills it."""
    g = x.graph
    out = {}
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            cur = p.concat(q)
            if cur is None:
                continue
            m, n = p.length, q.length
            coeff = a * b
            out[cur] = out.get(cur, 0.0) + coeff
            for k in range(1, min(m, n) + 1):
                hit = _gen_apply(g, m - k + 1, cur)
                if hit is None:
                    break
                c, cur = hit
                coeff *= c
                out[cur] = out.get(cur, 0.0) + coeff
    return GradedElement(g, out)


def test_sharp_matches_chain_oracle_all_short_pairs():
    for g in standard_graphs().values():
        paths = [p for n in range(5) for p in enumerate_paths(g, None, n, None)]
        for p in paths:
            bp = GradedElement.basis(g, p)
            for q in paths:
                bq = GradedElement.basis(g, q)
                got = falg.sharp_mul(bp, bq).terms
                want = _chain_sharp_mul(bp, bq).terms
                assert got.keys() == want.keys()
                for t, c in want.items():
                    assert abs(got[t] - c) <= 1e-12 * abs(c)


def test_inner_matches_chain_state(rng):
    for g in standard_graphs().values():
        hits = 0
        for _ in range(50):
            x = random_element(g, rng, max_len=4, n_terms=4)
            # y shares some of x's paths (rescaled) and adds random ones, so
            # the pairs mix matched, mismatched-length and mismatched-endpoint
            # terms
            shared = list(x.terms)[:int(rng.integers(0, len(x.terms) + 1))]
            y = random_element(g, rng, max_len=4, n_terms=3) + GradedElement(
                g, {p: float(rng.uniform(-1, 1)) for p in shared})
            want = falg.t_functional(_chain_sharp_mul(star(y), x))
            assert abs(falg.inner(x, y) - want) <= 1e-12 * max(1.0, abs(want))
            hits += want != 0
        assert hits >= 10


def _count_paths(monkeypatch):
    """Count every Path construction, by any route, from here on."""
    built = []
    new = Path.__new__

    def counting(cls, vertices, edges):
        built.append(1)
        return new(cls, vertices, edges)

    monkeypatch.setattr(Path, "__new__", counting)
    return built


def test_kernels_build_paths_linearly(monkeypatch, a2):
    # deterministic work counters: inner builds no path, # builds one per
    # output term, and a morphism's action one per surviving input path
    loops = {n: GradedElement.basis(a2, enumerate_paths(a2, 0, n, 0)[0])
             for n in (4, 6, 8, 12)}
    built = _count_paths(monkeypatch)
    assert falg.inner(loops[12], loops[12]) == pytest.approx(a2.mu2[0])
    assert not built
    for m, n in ((4, 8), (8, 6), (12, 12)):
        # on a2 every junction contracts fully, so all min(m, n)+1 terms occur
        built.clear()
        out = falg.sharp_mul(loops[m], loops[n])
        assert len(built) == len(out.terms) == min(m, n) + 1
    for k in (1, 3, 6):
        f = epitl.EpiMorphism(12, 12 - 2 * k, tuple(range(1, 2 * k, 2)))
        built.clear()
        assert not epitl.act(f, loops[12]).is_zero()
        assert len(built) <= 1


def test_transforms_build_one_path_per_term(monkeypatch, a2):
    # phi and psi build one Path per output term; a path that never
    # backtracks caps nowhere, so it maps to itself and builds one Path
    loops = [GradedElement.basis(a2, enumerate_paths(a2, 0, n, 0)[0]) for n in (4, 8, 12)]
    dbl = named_graph("dbl")
    straight = next(p for p in enumerate_paths(dbl, None, 6, None)
                    if all(f != dbl.erev[e] for e, f in zip(p.edges, p.edges[1:])))
    b = GradedElement.basis(dbl, straight)
    built = _count_paths(monkeypatch)
    for fn in (falg.phi, falg.psi):
        for x in loops:
            built.clear()
            out = fn(x)
            assert len(built) == len(out.terms) > 1
        built.clear()
        assert fn(b).terms == {straight: 1.0}
        assert len(built) == 1


def test_sharp_loop_square(a2):
    loop = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1", "v0"]))
    out = falg.sharp_mul(loop, loop)
    l4 = a2.path_from_vertices(["v0", "v1", "v0", "v1", "v0"])
    assert out.coeff(l4) == pytest.approx(1.0)
    assert out.coeff(a2.path_from_vertices(["v0", "v1", "v0"])) == \
        pytest.approx(a2.mu(0) / a2.mu(1))
    assert out.coeff(a2.path(0)) == pytest.approx(1.0)
    assert len(out.terms) == 3


def test_sharp_edge_pair(a2):
    vw = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1"]))
    wv = GradedElement.basis(a2, a2.path_from_vertices(["v1", "v0"]))
    out = falg.sharp_mul(vw, wv)
    assert out.coeff(a2.path_from_vertices(["v0", "v1", "v0"])) == pytest.approx(1.0)
    assert out.coeff(a2.path(0)) == pytest.approx(a2.mu(1) / a2.mu(0))


def test_sharp_unital_and_idempotent_action(a3):
    x = GradedElement.basis(a3, a3.path_from_vertices(["v0", "v1", "v2"]))
    assert falg.sharp_mul(e_vertex(a3, "v0"), x).norm_inf_diff(x) == 0
    assert falg.sharp_mul(unit(a3), x).norm_inf_diff(x) == 0
    assert falg.sharp_mul(e_vertex(a3, "v2"), x).is_zero()


def test_sharp_associative(battery, rng):
    for g in battery.values():
        for _ in range(12):
            x = random_element(g, rng, max_len=3, n_terms=2)
            y = random_element(g, rng, max_len=3, n_terms=2)
            z = random_element(g, rng, max_len=3, n_terms=2)
            lhs = falg.sharp_mul(falg.sharp_mul(x, y), z)
            rhs = falg.sharp_mul(x, falg.sharp_mul(y, z))
            assert lhs.norm_inf_diff(rhs) < 1e-10


def test_sharp_star_antimultiplicative(a3, rng):
    for _ in range(25):
        x, y = random_element(a3, rng), random_element(a3, rng)
        lhs = star(falg.sharp_mul(x, y))
        rhs = falg.sharp_mul(star(y), star(x))
        assert lhs.norm_inf_diff(rhs) < 1e-12


def test_state_and_inner(a2):
    assert falg.t_functional(unit(a2)) == pytest.approx(1.0)
    loop = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1", "v0"]))
    assert falg.t_functional(loop) == 0.0
    assert falg.inner(loop, loop) == pytest.approx(0.5)
    other = GradedElement.basis(a2, a2.path_from_vertices(["v1", "v0", "v1"]))
    assert falg.inner(loop, other) == 0.0


def test_state_tracial(battery, rng):
    for g in battery.values():
        for _ in range(25):
            x, y = random_element(g, rng), random_element(g, rng)
            lhs = falg.t_functional(falg.sharp_mul(x, y))
            rhs = falg.t_functional(falg.sharp_mul(y, x))
            assert abs(lhs - rhs) < 1e-10


def test_braced_orthonormal(a3):
    basis = falg.truncated_basis(a3, 3)
    for i, p in enumerate(basis):
        bp = braced(a3, p)
        for j, q in enumerate(basis):
            val = falg.inner(bp, braced(a3, q))
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_phi_on_degree_two(a2):
    loop = a2.path_from_vertices(["v0", "v1", "v0"])
    x = GradedElement.basis(a2, loop)
    out = falg.phi(x)
    assert out.coeff(loop) == pytest.approx(1.0)
    assert out.coeff(a2.path(0)) == pytest.approx(a2.mu(1) / a2.mu(0))
    back = falg.psi(x)
    assert back.coeff(loop) == pytest.approx(1.0)
    assert back.coeff(a2.path(0)) == pytest.approx(-a2.mu(1) / a2.mu(0))
    assert falg.psi(out).norm_inf_diff(x) < 1e-12


def test_phi_fixes_degree_zero(a3):
    ev = e_vertex(a3, "v1")
    assert falg.phi(ev).norm_inf_diff(ev) == 0
    assert falg.psi(ev).norm_inf_diff(ev) == 0


def test_phi_psi_mutually_inverse(battery):
    for g in battery.values():
        for n in range(6):
            for p in enumerate_paths(g, None, n, None):
                b = GradedElement.basis(g, p)
                assert falg.psi(falg.phi(b)).norm_inf_diff(b) < 1e-10
                assert falg.phi(falg.psi(b)).norm_inf_diff(b) < 1e-10


def test_phi_multiplicative_and_star(battery, rng):
    for g in battery.values():
        for _ in range(10):
            x = random_element(g, rng, max_len=2, n_terms=2)
            y = random_element(g, rng, max_len=3, n_terms=2)
            lhs = falg.phi(bullet_mul(x, y))
            rhs = falg.sharp_mul(falg.phi(x), falg.phi(y))
            assert lhs.norm_inf_diff(rhs) < 1e-10
            assert falg.phi(star(x)).norm_inf_diff(star(falg.phi(x))) < 1e-12


def test_transforms_strictly_lower_degrees(a3):
    for n in (2, 4):
        for p in enumerate_paths(a3, None, n, None):
            b = GradedElement.basis(a3, p)
            for out in (falg.phi(b) - b, falg.psi(b) - b):
                assert all(d < n for d in out.degrees())


def test_trace_transport(battery):
    for g in battery.values():
        for n in (0, 2, 4, 6):
            for p in enumerate_paths(g, None, n, None):
                b = GradedElement.basis(g, p)
                assert abs(tau(b) - falg.t_functional(falg.phi(b))) < 1e-10


def _diagram_sum(g, p, inverse):
    """The oracle: phi (or psi) of one path as a sum over epi-TL diagrams.

    phi sums every diagram of Hom([n],[m]) for m = n, n-2, ...; psi sums
    the non-nested ones with sign (-1)^(number of caps).
    """
    n = p.length
    b = GradedElement.basis(g, p)
    out: dict = {}
    for m in range(n % 2, n + 1, 2):
        sign = (-1.0) ** ((n - m) // 2) if inverse else 1.0
        for f in epitl.enumerate_hom(n, m):
            if inverse and not f.is_nonnested():
                continue
            for q, c in epitl.act(f, b).terms.items():
                out[q] = out.get(q, 0.0) + sign * c
    return GradedElement(g, out)


def test_transforms_match_diagram_sum():
    graphs = dict(standard_graphs(), fork=named_graph("fork"))
    for g in graphs.values():
        for n in range(9):
            for p in enumerate_paths(g, None, n, None):
                b = GradedElement.basis(g, p)
                for fn, inverse in ((falg.phi, False), (falg.psi, True)):
                    got, want = fn(b).terms, _diagram_sum(g, p, inverse).terms
                    assert got.keys() == want.keys()
                    for q, c in want.items():
                        assert abs(got[q] - c) <= 1e-12 * abs(c)


def test_transforms_enumerate_no_diagram(monkeypatch):
    # phi and psi run the gap recursion, never the diagram enumeration,
    # and leave the graph's cache as they found it
    def refuse(*args, **kwargs):
        raise AssertionError("cap diagram route used")

    monkeypatch.setattr(epitl, "act", refuse)
    monkeypatch.setattr(epitl, "enumerate_hom", refuse)
    for name in ("a3", "k1_3", "dbl"):
        g = named_graph(name)
        paths = enumerate_paths(g, None, 6, None)
        cached = dict(g._cache)
        for p in paths:
            b = GradedElement.basis(g, p)
            assert falg.psi(falg.phi(b)).norm_inf_diff(b) < 1e-10
        assert g._cache == cached


def test_trace_transport_long_loops(a3, rng):
    loops = [p for v in range(a3.n_vertices) for p in enumerate_paths(a3, v, 18, v)]
    for k in rng.choice(len(loops), size=40, replace=False):
        b = GradedElement.basis(a3, loops[k])
        want = tau(b)
        assert abs(falg.t_functional(falg.phi(b)) - want) <= 1e-12 * want


def _row_work(graph, path, rows):
    """Cells a row pass filled, and the multiply-adds it made.

    Row i adds row m+1 once per partner m: a key of row i+1 whose next
    edge e[m] reverses e[i].
    """
    n, e, erev = path.length, path.edges, graph.erev
    cells = sum(len(row) for row in rows)
    adds = sum(len(rows[m + 1]) for i in range(n) for m in rows[i + 1]
               if m < n and e[m] == erev[e[i]])
    return cells, adds


@pytest.mark.parametrize("row_pass", [lambda g, p: gralg._face_rows(g, p),
                                      lambda g, p: falg._gap_rows(g, p, False)],
                         ids=["tau", "phi"])
def test_row_passes_grow_cubically(a2, row_pass):
    # deterministic work counters on the a2 alternating loops, where every
    # interval of even length caps: the cells fill one parity of the table
    # and the multiply-adds stay below n^3/16 (they tend to n^3/24), where
    # the pairing sum would grow like Catalan(n/2)
    for n in (20, 40, 80):
        loop = a2.path_from_vertices(["v0", "v1"] * (n // 2) + ["v0"])
        cells, adds = _row_work(a2, loop, row_pass(a2, loop))
        assert cells <= (n + 2) ** 2 // 4
        assert adds <= n ** 3 / 16


def test_t_phi_path_reads_the_corner(battery):
    # t(phi(p)) without the through-edge pass, on every path to length 8,
    # open ones included; the loops also match the pairing route
    for g in battery.values():
        for n in range(9):
            for p in enumerate_paths(g, None, n, None):
                got = falg.t_phi_path(g, p)
                assert got == falg.t_functional(falg.phi(GradedElement.basis(g, p)))
                assert got == pytest.approx(gralg.tau_path(g, p), rel=1e-12, abs=1e-15)


def test_truncated_left_mult_bounds(a2):
    edge = a2.path_from_vertices(["v0", "v1"])
    a = braced(a2, edge)
    mat, basis = falg.truncated_left_mult(a, 6)
    bound = falg.left_mult_norm_bound(a2, edge)
    assert falg.operator_norm(mat) <= bound + 1e-9
    assert bound == pytest.approx(
        3 * max(1.0, delta_max(a2) ** 0.5) / a2.mu(1))


def test_truncated_left_mult_projection_and_symmetry(a3, rng):
    ev = e_vertex(a3, "v1")
    mat, _ = falg.truncated_left_mult(ev, 4)
    assert falg.operator_norm(mat) == pytest.approx(1.0)
    x = random_element(a3, rng, max_len=2, n_terms=3)
    sym = 0.5 * (x + star(x))
    m2, _ = falg.truncated_left_mult(sym, 3)
    # self-adjoint elements give symmetric truncations on matched degrees;
    # compare against the adjoint of the truncation of the adjoint element
    m3, _ = falg.truncated_left_mult(star(sym), 3)
    assert np.max(np.abs(m2.toarray() - m3.toarray().T)) < 1e-9


def _left_mult_by_columns(a, max_degree):
    """The oracle truncation: one # product per basis column, rescaled."""
    g = a.graph
    basis = falg.truncated_basis(g, max_degree)
    index = {p: i for i, p in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for j, p in enumerate(basis):
        scale_p = (g.mu(p.start) * g.mu(p.finish)) ** 0.5
        for q, c in falg.sharp_mul(a, GradedElement.basis(g, p)).terms.items():
            i = index.get(q)
            if i is not None:
                mat[i, j] = c * (g.mu(q.start) * g.mu(q.finish)) ** 0.5 / scale_p
    return mat


def _assert_matches_columns(a, max_degree):
    got, basis = falg.truncated_left_mult(a, max_degree)
    want = _left_mult_by_columns(a, max_degree)
    n = len(basis)
    assert got.shape == want.shape == (n, n)
    assert len(set(zip(got.rows.tolist(), got.cols.tolist()))) == got.vals.size
    assert np.all(got.vals != 0)
    assert np.all(np.abs(got.toarray() - want) <= 1e-15 * np.abs(want))


def test_truncated_left_mult_matches_column_oracle(rng):
    g = two_vertex_graph(2, 0.8, 0.2)
    for m in (1, 2, 3):
        xm = cdelta.zv_truncation(g, "v", m)
        for d in range(9):
            _assert_matches_columns(xm, d)
    longer = 0
    for g in standard_graphs().values():
        for v in range(g.n_vertices):
            _assert_matches_columns(e_vertex(g, v), 4)
        for d in range(2, 6):
            for _ in range(3):
                x = random_element(g, rng, max_len=d + 2, n_terms=5)
                longer += any(p.length > d for p in x.terms)
                _assert_matches_columns(x, d)
    assert longer >= 20


def test_truncated_left_mult_builds_no_path_per_entry(monkeypatch):
    # deterministic work counter: at most 2 paths per (term, k, s)
    # contribution, counted here from powers of A.  The only paths built
    # are the basis, on the first call on a graph, and no product is
    # formed per column
    def refuse(*args, **kwargs):
        raise AssertionError("per-column product used")

    monkeypatch.setattr(falg, "sharp_mul", refuse)
    built = _count_paths(monkeypatch)
    for d in (8, 10):
        g = two_vertex_graph(2, 0.8, 0.2)
        powers = [np.array(p) for _, p in zip(range(d + 1), adjacency_powers(g))]
        xs = [cdelta.zv_truncation(g, "v", m) for m in (1, 2, 3)]
        for xm in xs:
            contributions = 0
            for pv, pe in xm.terms:
                n = len(pe)
                for k in range(min(n, d) + 1):
                    room = d - max(k, n - k)
                    contributions += sum(int(powers[s][pv[n - k]].sum())
                                         for s in range(room + 1))
            built.clear()
            mat, basis = falg.truncated_left_mult(xm, d)
            assert len(basis) == sum(p.sum() for p in powers)
            assert len(built) == (len(basis) if xm is xs[0] else 0)
            assert len(built) <= 2 * contributions
            assert 0 < mat.vals.size <= contributions < len(basis) * len(xm.terms)


def test_norm_bound_all_unit_paths(battery):
    for g in battery.values():
        for m in (1, 2, 3):
            for p in enumerate_paths(g, None, m, None)[:6]:
                a = braced(g, p)
                mat, _ = falg.truncated_left_mult(a, 5)
                assert falg.operator_norm(mat) <= \
                    falg.left_mult_norm_bound(g, p) + 1e-9


def _norm_cases(rng):
    for _ in range(40):
        r, c = rng.integers(1, 30, size=2)
        density = rng.uniform(0.01, 0.3)
        yield rng.standard_normal((r, c)) * (rng.random((r, c)) < density)
    for _ in range(10):
        sizes = rng.integers(1, 8, size=(rng.integers(2, 7), 2))
        mat = np.zeros(tuple(sizes.sum(axis=0)))
        r0 = c0 = 0
        for r, c in sizes:
            mat[r0:r0 + r, c0:c0 + c] = rng.standard_normal((r, c))
            r0, c0 = r0 + r, c0 + c
        yield mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]
    yield rng.standard_normal((25, 17))
    yield np.zeros((6, 9))
    yield np.zeros((0, 0))
    yield rng.standard_normal((1, 12)) * (rng.random((1, 12)) < 0.5)
    # scattered like a truncation matrix: mostly single-entry components
    big = np.zeros((1000, 1000))
    big[rng.integers(0, 1000, 500), rng.integers(0, 1000, 500)] = rng.standard_normal(500)
    yield big


def test_operator_norm_matches_dense_svd(rng):
    for mat in _norm_cases(rng):
        want = float(np.linalg.norm(mat, 2)) if mat.size else 0.0
        rows, cols = np.nonzero(mat)
        sparse = falg.SparseMatrix(rows, cols, mat[rows, cols], mat.shape)
        assert np.array_equal(sparse.toarray(), mat)
        for given in (mat, sparse):
            assert abs(falg.operator_norm(given) - want) <= 1e-12 * want
    empty = np.array([], dtype=np.intp)
    for shape in ((0, 0), (0, 5), (4, 0), (6, 9)):
        assert falg.operator_norm(falg.SparseMatrix(empty, empty, np.array([]), shape)) == 0.0


def test_gram_blocks_match_all_pairs_loop():
    for name in ("a3", "k1_2", "dbl"):
        g = named_graph(name)
        got = {(p, q): val for p, q, val in falg.gram_blocks(g, 4)}
        basis = falg.truncated_basis(g, 4)
        for i, p in enumerate(basis):
            bp = GradedElement.basis(g, p)
            for q in basis[i:]:
                val = falg.inner(bp, GradedElement.basis(g, q))
                if (p.length, p.start, p.finish) == (q.length, q.start, q.finish):
                    assert got.pop((p, q)) == val
                else:
                    assert val == 0.0
        assert not got


def test_gram_pair_counts_match_blocks():
    for g in standard_graphs().values():
        for d, count in zip(range(7), falg.gram_pair_counts(g)):
            blocks = {}
            for p in falg.truncated_basis(g, d):
                key = (p.length, p.start, p.finish)
                blocks[key] = blocks.get(key, 0) + 1
            assert count == sum(c * (c + 1) // 2 for c in blocks.values())
