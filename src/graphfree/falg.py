"""The filtered picture of the path algebra.

Same underlying space as the graded picture, but the product of two
paths contracts k pairs of edges at the junction for every feasible k
(a chain of cap generators applied to the concatenation).  The state t
reads off degree zero; it induces the inner product in which rescaled
paths are orthonormal.  The transforms phi (sum over all cap diagrams)
and psi (signed sum over non-nested ones) are mutually inverse
*-isomorphisms between the two pictures carrying tau to t.  Both act on each
path by a recursion over its capped gaps, not by enumerating diagrams: one
backward pass over the path keeps, per position, only the intervals that cap
off completely (a sparse row of gap weights) and the sums over through edges.
"""

from __future__ import annotations

import numpy as np

from .graphs import (Graph, Path, adjacency_powers, delta_max, enumerate_paths,
                     vertex_path)
from .gralg import GradedElement


def sharp_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """The filtered product.

    For paths p, q of lengths m and n, the degree m+n-2k component is the
    chain of k cap generators at the junction applied to the
    concatenation: it survives while the last k edges of p reverse the
    first k of q, and then is p minus its last k edges followed by q minus
    its first k, weighing mu(q_0)/mu(q_k) (the generators' mu-ratios
    telescope).  Endpoint mismatches vanish with the concatenation.
    """
    x._same_graph(y)
    g = x.graph
    mu, erev = g.mu, g.erev
    out: dict[Path, float] = {}
    for (pv, pe), a in x.terms.items():
        m = len(pe)
        for (qv, qe), b in y.terms.items():
            if pv[m] != qv[0]:
                continue
            ab = a * b * mu(qv[0])
            for k in range(min(m, len(qe)) + 1):
                if k and pe[m - k] != erev[qe[k - 1]]:
                    break
                t = Path(pv[:m - k + 1] + qv[k + 1:], pe[:m - k] + qe[k:])
                out[t] = out.get(t, 0.0) + ab / mu(qv[k])
    return GradedElement(g, out)


def t_functional(x: GradedElement) -> float:
    """The filtered state: weight of degree zero, mu^2 per vertex."""
    return sum(c * x.graph.mu2[p.start]
               for p, c in x.terms.items() if p.length == 0)


def inner(x: GradedElement, y: GradedElement) -> float:
    """<x, y> = t(y* # x); paths are orthogonal with norm^2 mu(s)mu(f).

    Only the full contraction of q* # p reaches degree zero, and it
    survives exactly when q = p, where it weighs mu(s)mu(f).
    """
    x._same_graph(y)
    mu, ys = x.graph.mu, y.terms
    return sum(a * ys[p].conjugate() * mu(p.start) * mu(p.finish)
               for p, a in x.terms.items() if p in ys)


def braced(graph: Graph, path: Path) -> GradedElement:
    """The unit-normalized path mu(s)^{-1/2} mu(f)^{-1/2} [path]."""
    scale = (graph.mu(path.start) * graph.mu(path.finish)) ** -0.5
    return GradedElement.basis(graph, path, scale)


# ---------------------------------------------------------------------------
# the graded <-> filtered transforms


def _transform(x: GradedElement, inverse: bool) -> GradedElement:
    """phi (or psi) of x, path by path, by a recursion over capped gaps.

    On a path v_0 e_1 v_1 ... e_n v_n, W(i,j) weighs the cappings of
    e_{i+1}..e_j: W(i,i) = 1, and e_{i+1} caps with some e_k = rev(e_{i+1})
    around the capped gap e_{i+2}..e_{k-1}, weighing c_i = mu(v_{i+1})/mu(v_i)
    as a single-cap generator does: W(i,j) = c_i sum_k W(i+1,k-1) W(k,j).
    psi nests no caps (k = i+2 only) and weighs each cap -c_i.  Row i is
    the dict {j: W(i,j)} of its nonzero entries, filled from the partners k
    with W(i+1,k-1) != 0, so the work follows the cappable intervals, not
    (n+1)^2 cells.  No through strand sits inside a cap, so a diagram maps
    the path to its through edges e_{t_1}..e_{t_m} with weight
    W(0,t_1-1) W(t_1,t_2-1) ... W(t_m,n); tails[i] sums these over the
    through edges of e_{i+1}..e_n.  One backward pass fills row i and then
    tails[i] from it and the tails[j+1] already filled.
    """
    g = x.graph
    erev, estart, efinish = g.erev, g.estart, g.efinish
    out: dict[Path, float] = {}
    for p, a in x.terms.items():
        n, v, e = p.length, p.vertices, p.edges
        rows: list[dict[int, float]] = [{}] * (n + 1)
        tails: list[dict[tuple[int, ...], float]] = [{}] * (n + 1)
        for i in range(n, -1, -1):
            row = {i: 1.0}
            if i < n:
                back = erev[e[i]]
                for m, w in ((i + 1, -1.0),) if inverse else rows[i + 1].items():
                    if m < n and e[m] == back:
                        w *= g.mu(v[i + 1]) / g.mu(v[i])
                        for j, c in rows[m + 1].items():
                            row[j] = row.get(j, 0.0) + w * c
            rows[i] = row
            acc = {(): row[n]} if n in row else {}
            for j, w in row.items():
                if j < n:
                    ej = e[j]
                    for rest, c in tails[j + 1].items():
                        key = (ej,) + rest
                        acc[key] = acc.get(key, 0.0) + w * c
            tails[i] = acc
        for edges, c in tails[0].items():
            q = (Path((estart[edges[0]],) + tuple(map(efinish.__getitem__, edges)), edges)
                 if edges else vertex_path(p.finish))
            out[q] = out.get(q, 0.0) + a * c
    return GradedElement(g, out)


def phi(x: GradedElement) -> GradedElement:
    """Graded-to-filtered isomorphism: sum of all cap diagrams per degree."""
    return _transform(x, inverse=False)


def psi(x: GradedElement) -> GradedElement:
    """Filtered-to-graded inverse: signed sum of non-nested cap diagrams."""
    return _transform(x, inverse=True)


# ---------------------------------------------------------------------------
# truncated left multiplication and the norm bound


def truncated_basis(graph: Graph, max_degree: int) -> list[Path]:
    basis: list[Path] = []
    for n in range(max_degree + 1):
        basis.extend(enumerate_paths(graph, None, n, None))
    return basis


def gram_blocks(graph: Graph, max_degree: int):
    """The Gram entries of truncated_basis that can be nonzero.

    Yields (p, q, inner(p, q)) for every pair with q at or after p in
    basis order and the same (length, start, finish); every other entry
    is zero.  t reads degree zero only, and q* # p has a degree-zero part
    only when the lengths agree (# of lengths m != n has none), q starts
    where p does (else the concatenation vanishes) and finishes where p
    does (else no full contraction ends in a vertex path).
    """
    blocks: dict[tuple[int, int, int], list[Path]] = {}
    for p in truncated_basis(graph, max_degree):
        blocks.setdefault((p.length, p.start, p.finish), []).append(p)
    for paths in blocks.values():
        elems = [GradedElement.basis(graph, p) for p in paths]
        for i, p in enumerate(paths):
            for q, bq in zip(paths[i:], elems[i:]):
                yield p, q, inner(elems[i], bq)


def gram_pair_counts(graph: Graph):
    """Yield the number of pairs gram_blocks(graph, d) yields, for d = 0, 1, ...

    Counted without enumerating paths: a block of c paths has c(c+1)/2
    pairs, and the paths of length n from s to f number c = (A^n)[s, f].
    The totals never end, so stop when done.
    """
    total = 0
    for power in adjacency_powers(graph):
        total += sum(c * (c + 1) // 2 for c in power.flat)
        yield total


def truncated_left_mult(a: GradedElement, max_degree: int):
    """Matrix of sharp-multiplication by a on paths of degree <= max_degree.

    Expressed in the orthonormal rescaled-path basis; components pushed
    past the cap are compressed away, which can only shrink singular
    values.  Returns (matrix, basis).
    """
    g = a.graph
    basis = truncated_basis(g, max_degree)
    index = {p: i for i, p in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for j, p in enumerate(basis):
        scale_p = (g.mu(p.start) * g.mu(p.finish)) ** 0.5
        img = sharp_mul(a, GradedElement.basis(g, p))
        for q, c in img.terms.items():
            i = index.get(q)
            if i is not None:
                scale_q = (g.mu(q.start) * g.mu(q.finish)) ** 0.5
                mat[i, j] = c * scale_q / scale_p
    return mat, basis


def left_mult_norm_bound(graph: Graph, path: Path) -> float:
    """Explicit bound (2m+1) max(1, delta^(m/2)) / mu(f) for a unit path."""
    m = path.length
    d = delta_max(graph)
    return (2 * m + 1) * max(1.0, d ** (m / 2)) / graph.mu(path.finish)


def _components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Component label of each of n nodes joined by the edges a[k]-b[k].

    Each round hooks every root to the smallest root across its edges and
    then jumps pointers to the roots.  A component that is not merged in
    one round is merged in the next, so O(log n) rounds of numpy passes
    over the edges suffice.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        lo, hi = np.minimum(la, lb), np.maximum(la, lb)
        apart = lo != hi
        if not apart.any():
            return label
        np.minimum.at(label, hi[apart], lo[apart])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm, taken block by block over the nonzero pattern.

    Rows and columns split into the connected components of the bipartite
    graph of nonzero entries.  Permuted by components the matrix is a
    direct sum, whose norm is the largest norm of its blocks.  Only the
    components holding a nonzero are visited; one holding a single entry
    has norm |entry|, and an all-zero matrix has norm 0.
    """
    n_rows, n_cols = mat.shape
    rows, cols = np.nonzero(mat)
    if not rows.size:
        return 0.0
    label = _components(rows, n_rows + cols, n_rows + n_cols)[rows]
    order = np.argsort(label, kind="stable")
    best = 0.0
    for k in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
        if k.size == 1:
            best = max(best, float(abs(mat[rows[k[0]], cols[k[0]]])))
        else:
            block = mat[np.ix_(np.unique(rows[k]), np.unique(cols[k]))]
            best = max(best, float(np.linalg.norm(block, 2)))
    return best
