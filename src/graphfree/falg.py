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
off completely (a sparse row of gap weights), and a second one the sums over
through edges.  t(phi(path)) needs only the first pass: it is one corner of
the rows.
"""

from __future__ import annotations

from typing import NamedTuple

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
    x._check(y)
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
    x._check(y)
    mu, ys = x.graph.mu, y.terms
    return sum(a * ys[p].conjugate() * mu(p.start) * mu(p.finish)
               for p, a in x.terms.items() if p in ys)


# ---------------------------------------------------------------------------
# the graded <-> filtered transforms


def _gap_rows(graph: Graph, path: Path, inverse: bool) -> list[dict[int, float]]:
    """The gap weights W of a path, row i the dict {j: W(i,j)} of its nonzeros.

    On a path v_0 e_1 v_1 ... e_n v_n, W(i,j) weighs the cappings of
    e_{i+1}..e_j: W(i,i) = 1, and e_{i+1} caps with some e_k = rev(e_{i+1})
    around the capped gap e_{i+2}..e_{k-1}, weighing c_i = mu(v_{i+1})/mu(v_i)
    as a single-cap generator does: W(i,j) = c_i sum_k W(i+1,k-1) W(k,j).
    psi nests no caps (k = i+2 only) and weighs each cap -c_i.  Row i is
    filled from the partners k with W(i+1,k-1) != 0, so the work follows the
    cappable intervals, not (n+1)^2 cells.
    """
    n, v, e = path.length, path.vertices, path.edges
    mu, erev = graph.mu, graph.erev
    rows: list[dict[int, float]] = [{}] * (n + 1)
    for i in range(n, -1, -1):
        row = {i: 1.0}
        if i < n:
            back, cap = erev[e[i]], mu(v[i + 1]) / mu(v[i])
            for m, w in ((i + 1, -1.0),) if inverse else rows[i + 1].items():
                if m < n and e[m] == back:
                    w *= cap
                    for j, c in rows[m + 1].items():
                        row[j] = row.get(j, 0.0) + w * c
        rows[i] = row
    return rows


def _transform(x: GradedElement, inverse: bool) -> GradedElement:
    """phi (or psi) of x, path by path, from the gap rows of :func:`_gap_rows`.

    No through strand sits inside a cap, so a diagram maps the path to its
    through edges e_{t_1}..e_{t_m} with weight
    W(0,t_1-1) W(t_1,t_2-1) ... W(t_m,n); tails[i] sums these over the
    through edges of e_{i+1}..e_n.  One backward pass fills tails[i] from
    row i and the tails[j+1] already filled.
    """
    g = x.graph
    estart, efinish = g.estart, g.efinish
    out: dict[Path, float] = {}
    for p, a in x.terms.items():
        n, e = p.length, p.edges
        rows = _gap_rows(g, p, inverse)
        tails: list[dict[tuple[int, ...], float]] = [{}] * (n + 1)
        for i in range(n, -1, -1):
            row = rows[i]
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


def t_phi_path(graph: Graph, path: Path) -> float:
    """t(phi(path)): the all-capped corner W(0,n) of the gap rows, times mu^2(v_0).

    Degree zero of phi(path) is the single vertex path at v_n, weighing
    W(0,n); that entry is nonzero only on a loop, where v_n = v_0.  The
    through-edge sums of phi are never built.
    """
    return _gap_rows(graph, path, False)[0].get(path.length, 0.0) * graph.mu2[path.start]


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


class SparseMatrix(NamedTuple):
    """A matrix of the given shape by its nonzero triplets.

    Entry (rows[k], cols[k]) is vals[k]; each position appears once and
    every other entry is zero.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def truncated_left_mult(a: GradedElement, max_degree: int):
    """Matrix of sharp-multiplication by a on paths of degree <= max_degree.

    Expressed in the orthonormal rescaled-path basis; components pushed
    past the cap are compressed away, which can only shrink singular
    values.  Returns (SparseMatrix, basis).

    Only the nonzeros are visited.  A term q = (v, e) of a, of length m,
    contracts k edges exactly with the columns p = rev(e[m-k:]) s, for s
    a path from v[m-k]; the image row is v[:m-k] s, weighing
    c mu(v[m])/mu(v[m-k]) as in `sharp_mul`.  Both lengths stay within
    the cap while |s| <= max_degree - max(k, m-k), so a term longer than
    the cap still acts through its deep contractions.  Each entry is
    rescaled once its contributions are summed, by sqrt(mu(v[0])/mu(v[m]))
    (row and column share the finish); entries that cancel exactly are
    dropped.
    """
    g = a.graph
    mu, erev = g.mu, g.erev
    basis = truncated_basis(g, max_degree)
    # Paths are (vertices, edges) tuples: plain tuples look them up
    index = {p: i for i, p in enumerate(basis)}
    by_start: dict[tuple[int, int], list[Path]] = {}
    for p in basis:
        by_start.setdefault((p.start, p.length), []).append(p)
    acc: dict[tuple[int, int], float] = {}
    for (pv, pe), c in a.terms.items():
        m = len(pe)
        for k in range(min(m, max_degree) + 1):
            room = max_degree - max(k, m - k)
            head_v, head_e = pv[:m - k + 1], pe[:m - k]
            back_v = pv[m - k:][::-1]
            back_e = tuple(erev[e] for e in reversed(pe[m - k:]))
            w = c * mu(pv[m]) / mu(pv[m - k])
            for length in range(room + 1):
                for sv, se in by_start.get((pv[m - k], length), ()):
                    key = (index[(head_v + sv[1:], head_e + se)],
                           index[(back_v + sv[1:], back_e + se)])
                    acc[key] = acc.get(key, 0.0) + w
    scale = [(mu(p.start) * mu(p.finish)) ** 0.5 for p in basis]
    kept = [(i, j, val) for (i, j), w in acc.items() if (val := w * scale[i] / scale[j])]
    rows, cols, vals = zip(*kept) if kept else ((), (), ())
    n = len(basis)
    return SparseMatrix(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                        np.array(vals, dtype=float), (n, n)), basis


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


def operator_norm(mat) -> float:
    """Spectral norm of a SparseMatrix (or a dense array), block by block.

    Rows and columns split into the connected components of the bipartite
    graph of nonzero entries.  Permuted by components the matrix is a
    direct sum, whose norm is the largest norm of its blocks.  Only the
    triplets are visited: the single-entry components are read at once as
    the largest |entry| among them, each other block is filled from its
    triplets, and a matrix without nonzeros has norm 0.
    """
    if not isinstance(mat, SparseMatrix):
        rows, cols = np.nonzero(mat)
        mat = SparseMatrix(rows, cols, mat[rows, cols], mat.shape)
    (n_rows, n_cols), rows, cols, vals = mat.shape, mat.rows, mat.cols, mat.vals
    if not vals.size:
        return 0.0
    label = _components(rows, n_rows + cols, n_rows + n_cols)[rows]
    multi = np.bincount(label)[label] > 1
    best = float(np.abs(vals[~multi]).max(initial=0.0))
    order = np.flatnonzero(multi)
    order = order[np.argsort(label[order], kind="stable")]
    for part in np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if order.size else ():
        r, ri = np.unique(rows[part], return_inverse=True)
        c, ci = np.unique(cols[part], return_inverse=True)
        block = np.zeros((r.size, c.size))
        block[ri, ci] = vals[part]
        best = max(best, float(np.linalg.norm(block, 2)))
    return best
