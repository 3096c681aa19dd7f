import itertools
import math

import pytest

from graphfree import gralg
from graphfree import noncross as ncx
from graphfree.gralg import (GradedElement, bullet_mul, e_vertex, star, tau, tau_pairing,
                             tau_path, unit)
from graphfree.graphs import (GraphError, enumerate_paths, named_graph, two_vertex_graph,
                              vertex_path)
from graphfree.verification import random_element, standard_graphs


def test_bullet_examples(a2):
    vw = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1"]))
    wv = GradedElement.basis(a2, a2.path_from_vertices(["v1", "v0"]))
    loop = bullet_mul(vw, wv)
    assert list(loop.terms) == [a2.path_from_vertices(["v0", "v1", "v0"])]
    assert bullet_mul(vw, vw).is_zero()
    l2 = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1", "v0"]))
    assert bullet_mul(e_vertex(a2, "v0"), l2).norm_inf_diff(l2) == 0


def test_unit_and_idempotents(a2):
    one = unit(a2)
    x = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1"]), 2.5)
    assert bullet_mul(one, x).norm_inf_diff(x) == 0
    assert bullet_mul(x, one).norm_inf_diff(x) == 0
    ev = e_vertex(a2, "v0")
    assert bullet_mul(ev, ev).norm_inf_diff(ev) == 0


def test_star_involution_and_antimultiplicativity(a3, py_rng):
    for _ in range(30):
        x = random_element(a3, py_rng)
        y = random_element(a3, py_rng)
        assert star(star(x)).norm_inf_diff(x) < 1e-12
        lhs = star(bullet_mul(x, y))
        rhs = bullet_mul(star(y), star(x))
        assert lhs.norm_inf_diff(rhs) < 1e-12


def test_star_scales_conjugate(a2):
    p = a2.path_from_vertices(["v0", "v1"])
    out = star(GradedElement.basis(a2, p, 2.0))
    assert out.coeff(p.reversed_in(a2)) == 2.0


def test_tau_values_a2(a2):
    l2 = GradedElement.basis(a2, a2.path_from_vertices(["v0", "v1", "v0"]))
    assert tau(l2) == pytest.approx(0.5)
    l4 = GradedElement.basis(
        a2, a2.path_from_vertices(["v0", "v1", "v0", "v1", "v0"]))
    assert tau(l4) == pytest.approx(1.0)
    assert tau(e_vertex(a2, "v1")) == pytest.approx(0.5)
    assert tau(unit(a2)) == pytest.approx(1.0)


def test_tau_odd_degree_vanishes(a3):
    for p in enumerate_paths(a3, None, 3, None):
        assert tau(GradedElement.basis(a3, p)) == 0.0


def test_tau_single_pairing_terms(a2):
    loop = a2.path_from_vertices(["v0", "v1", "v0", "v1", "v0"])
    t1 = ncx.nc(4, [(1, 2), (3, 4)])
    t2 = ncx.nc(4, [(1, 4), (2, 3)])
    assert tau_pairing(a2, t1, loop) == pytest.approx(a2.mu2[1])
    assert tau_pairing(a2, t2, loop) == pytest.approx(a2.mu2[0])


def test_tau_traciality(battery, py_rng):
    for g in battery.values():
        for _ in range(40):
            x, y = random_element(g, py_rng), random_element(g, py_rng)
            assert abs(tau(bullet_mul(x, y)) - tau(bullet_mul(y, x))) < 1e-9


def _pairing_sum(g, p):
    if p.length % 2:
        return 0.0
    return sum(tau_pairing(g, t, p) for t in ncx.enumerate_tl(p.length))


def _paths(g, lengths, loops_only=False):
    for n in lengths:
        for v in range(g.n_vertices):
            yield from enumerate_paths(g, v, n, v if loops_only else None)


def test_tau_recursion_matches_pairing_sum():
    # (graph, lengths, loops only); sizes keep the oracle's Catalan sum cheap.
    cases = [(g, range(11), False) for g in standard_graphs().values()]
    cases += [(two_vertex_graph(2, 0.3, 0.7), range(11), False),
              (two_vertex_graph(3, 0.3, 0.7), range(9), False),
              (named_graph("a3"), [12], True)]
    for g, lengths, loops_only in cases:
        for p in _paths(g, lengths, loops_only):
            assert tau_path(g, p) == pytest.approx(_pairing_sum(g, p), rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [9, 20])
def test_tau_alternating_loop_is_half_catalan(a2, m):
    # every pairing of the a2 loop weighs 1/2; length 40 is far past any
    # pairing enumeration
    loop = a2.path_from_vertices(["v0", "v1"] * m + ["v0"])
    got = tau(GradedElement.basis(a2, loop))
    assert got == pytest.approx(ncx.catalan(m) / 2, rel=1e-12)


def _dense_face_sum(graph, path):
    """The oracle: F(0,n) from the full (n+1)^2 table of the face recursion.

    F(i,i) = 1, F(i,j) = 0 when v_i != v_j, and otherwise
    F(i,j) = mu^2(v_{i+1}) * sum_k F(i+1,k-1) * F(k,j) over the partners
    e_k = rev(e_{i+1}), k = i+2, i+4, ..., j.
    """
    n, v, e = path.length, path.vertices, path.edges
    mu2, erev = graph.mu2, graph.erev
    f = [[0.0] * (n + 1) for _ in range(n + 1)]
    f[n][n] = 1.0
    for i in range(n - 1, -1, -1):
        f[i][i] = 1.0
        back = erev[e[i]]
        partners = [k for k in range(i + 2, n + 1, 2) if e[k - 1] == back]
        for j in range(i + 2, n + 1, 2):
            if v[j] == v[i]:
                f[i][j] = mu2[v[i + 1]] * sum(f[i + 1][k - 1] * f[k][j]
                                              for k in partners if k <= j)
    return f[0][n]


def _matrix_moment_loops(q, kmax):
    """The loops of every closed word of orders 1..kmax on the q-edge graph.

    With f_i the edges out of the odd vertex and r_i their reverses, the
    closed word i_0 i_1 ... i_k = i_0 gives f_{i_0} r_{i_1} f_{i_1} ... r_{i_k}.
    """
    g = two_vertex_graph(q, 0.3, 0.7)
    forward = g.out_edges(g.vertices_of_parity(1)[0])
    loops = []
    for k in range(1, kmax + 1):
        for word in itertools.product(range(q), repeat=k):
            edges = [x for a, b in zip(word, word[1:] + word[:1])
                     for x in (forward[a], g.erev[forward[b]])]
            loops.append(g.path(g.estart[edges[0]], edges))
    return g, loops


def _pushed(graph, path):
    """The face stack with every edge of the path pushed, the last edge first."""
    faces = gralg.FaceStack(graph)
    faces.push(*reversed(path.edges))
    return faces


def test_face_sum_matches_dense_table():
    # the corner entry of the full stack's top row, and the corner read for
    # the first edge without its row (the route tau takes)
    cases = [(g, list(_paths(g, range(2, 13, 2), True)))
             for g in map(named_graph, ("a2", "a3", "k1_3", "dbl"))]
    cases += [_matrix_moment_loops(q, 6) for q in (2, 3)]
    for g, paths in cases:
        assert paths
        for p in paths:
            want = _dense_face_sum(g, p)
            assert _pushed(g, p).rows[-1].get(0, 0.0) == pytest.approx(want, rel=1e-12, abs=0)
            rest = _pushed(g, p.segment(1, p.length))
            assert rest.corner_with(p.edges[0]) == pytest.approx(want, rel=1e-12, abs=0)


def test_face_rows_fill_only_the_pairable_cells():
    # a q=3 matrix-moment loop pairs only where its edges reverse, so its
    # rows hold fewer than the (n+1)^2 cells of the dense table
    g, paths = _matrix_moment_loops(3, 6)
    p = max(paths, key=lambda p: (p.length, len(set(p.edges))))
    assert p.length == 12 and len(set(p.edges)) == 6
    cells = sum(map(len, _pushed(g, p).rows))
    assert cells < (p.length + 1) ** 2 // 4


def test_tau_memo_is_bounded():
    # dbl has 10,922 loops of length <= 12, more than the memo holds; the
    # least recently used are forgotten, and traced again they give the
    # same value
    g = named_graph("dbl")
    loops = list(_paths(g, range(2, 13, 2), True))
    assert len(loops) > gralg.TAU_MEMO_MAX
    gralg.tau_loop.cache_clear()
    first = [tau_path(g, p) for p in loops]
    assert gralg.tau_loop.cache_info().currsize == gralg.TAU_MEMO_MAX
    assert [tau_path(g, p) for p in loops[:10]] == first[:10]
    info = gralg.tau_loop.cache_info()
    assert info.currsize == gralg.TAU_MEMO_MAX
    assert info.misses == len(loops) + 10


def _plain_tau_loop(graph, edges):
    """The trace of a loop by one FaceStack walk that pushes every edge but the first."""
    faces = gralg.FaceStack(graph)
    faces.push(*edges[:0:-1])
    denom = math.prod(map(graph.mu, map(graph.efinish.__getitem__, edges)))
    return graph.mu2[graph.estart[edges[0]]] * faces.corner_with(edges[0]) / denom


def test_tau_loop_matches_a_plain_face_stack_walk(battery, rng):
    # tau_loop's traces equal one walk's per loop, bit for bit, with its
    # value memo filled by the loops before (some evicted, on dbl) or
    # emptied before every call; loops past 16 edges too: the a2
    # alternating loop of length 40 and random k1_4 loops of length 48
    loops = [(g, p.edges) for g in battery.values() for p in _paths(g, range(2, 13, 2), True)]
    a2, k1_4 = battery["a2"], named_graph("k1_4")
    loops.append((a2, a2.path_from_vertices(["v0", "v1"] * 20 + ["v0"]).edges))
    for _ in range(2):
        names = [v for k in rng.integers(4, size=24) for v in ("c", f"l{k}")]
        loops.append((k1_4, k1_4.path_from_vertices(names + ["c"]).edges))
    assert len(loops) > gralg.TAU_MEMO_MAX
    for clear in (False, True):
        gralg.tau_loop.cache_clear()
        for g, edges in loops:
            if clear:
                gralg.tau_loop.cache_clear()
            assert gralg.tau_loop(g, edges) == _plain_tau_loop(g, edges)
        info = gralg.tau_loop.cache_info()
        assert info.currsize <= gralg.TAU_MEMO_MAX
        assert clear or info.misses > gralg.TAU_MEMO_MAX


def e_parity(graph, parity: int) -> GradedElement:
    """The sum of the vertex paths of one parity."""
    return GradedElement(graph, {vertex_path(v): 1.0
                                 for v in graph.vertices_of_parity(parity)})


def _corner_vertices(graph, side) -> set[int]:
    if side == "even":
        return set(graph.vertices_of_parity(0))
    if side == "odd":
        return set(graph.vertices_of_parity(1))
    return {graph.index(side)}


def corner(x: GradedElement, side) -> GradedElement:
    """Compression e.x.e onto paths starting and ending in the given side.

    ``side`` is a vertex id, or "even"/"odd" for the parity corners.
    """
    keep = _corner_vertices(x.graph, side)
    return GradedElement(x.graph, {p: c for p, c in x.terms.items()
                                   if p.start in keep and p.finish in keep})


def corner_trace(x: GradedElement, side) -> float:
    """Trace of the corner, rescaled to be 1 on the corner unit."""
    return tau(corner(x, side)) / tau(corner(unit(x.graph), side))


def test_corner_examples(a2):
    vw = a2.path_from_vertices(["v0", "v1"])
    loop = a2.path_from_vertices(["v0", "v1", "v0"])
    x = GradedElement.basis(a2, vw) + GradedElement.basis(a2, loop)
    got = corner(x, "v0")
    assert list(got.terms) == [loop]
    assert corner_trace(e_vertex(a2, "v0"), "v0") == pytest.approx(1.0)
    assert corner(unit(a2), "even").norm_inf_diff(e_parity(a2, 0)) == 0


def test_matrix_view_partition(a3, py_rng):
    x = random_element(a3, py_rng, max_len=3, n_terms=6)
    total = GradedElement(a3)
    for v in range(a3.n_vertices):
        for w in range(a3.n_vertices):
            piece = GradedElement(
                a3, {p: c for p, c in x.terms.items()
                     if p.start == v and p.finish == w})
            total = total + piece
    assert total.norm_inf_diff(x) == 0


def test_graph_mismatch_rejected(a2, a3):
    with pytest.raises(GraphError):
        bullet_mul(unit(a2), unit(a3))
