"""The filtered picture of the path algebra.

Same underlying space as the graded picture, but the product of two
paths contracts k pairs of edges at the junction for every feasible k
(a chain of cap generators applied to the concatenation).  The state t
reads off degree zero; it induces the inner product in which rescaled
paths are orthonormal.  The transforms phi (sum over all cap diagrams) and
psi (signed sum over non-nested ones) are mutually inverse *-isomorphisms
between the two pictures carrying tau to t.  Neither enumerates diagrams:
phi fixes edges, so phi(e r) = e # phi(r), where e # q contracts at most one
edge, and psi inverts that one-edge rule (:func:`_phi_step` and
:func:`_psi_step`, the steps both a single path's suffixes and
:func:`basis_transforms` take).  A path's transform is one step from
that of its suffix: suffixes of at most SUFFIX_MEMO_LEN edges are
transformed in a memo bounded by TAU_MEMO_MAX entries and shared by
every path, so a family of paths steps each distinct suffix once, and
a longer path steps the edges in front of them itself.  The transforms
of the whole basis to degree D fill one memo length by length, each
path one step from its suffix's entry, and the isomorphism suite's
round trips compose two such memos: 0.3-0.5 s at degree 10 and 1.9 s
at 12 (in process, 2-core x86-64 host), where transforming path by path
took 3.3-4.2 and 22-28 s.
t(phi(path)) is the all-capped corner of a sparse table of gap weights,
read without building phi; its rows are kept per suffix
(:class:`GapStack`), so a family of loops walked through its suffix tree
builds each distinct suffix's row once.
Left multiplication truncated at a degree is a :class:`SparseMatrix`
indexed by path rank, built without a path per entry; its norm is the
square root of the top Ritz value of a Lanczos iteration on M^T M whose
products run over the triplets, so no dense block is ever filled.
"""

from __future__ import annotations

import functools
import random
from itertools import islice
from typing import NamedTuple

import numpy as np

from .graphs import Graph, Path, adjacency_powers, delta_max, enumerate_paths
from .gralg import SUFFIX_MEMO_LEN, TAU_MEMO_MAX, GradedElement


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


class GapStack:
    """The gap weights of a path's suffixes, pushed one edge in front at a time.

    Laid out as :class:`~graphfree.gralg.FaceStack` lays out the face rows:
    key r of the row of a suffix of length l holds W(s_1..s_{l-r}), the
    weight of the cappings of that stretch, with s_1 the edge pushed last.
    Its entry r = l is 1, and s_1 caps with some s_k = rev(s_1) around the
    capped gap s_2..s_{k-1}, weighing c = mu(after s_1)/mu(before s_1) as a
    single-cap generator does.  The recurrence is written apart from the
    face rows, so that ``trace`` compares two independent routes.
    """

    __slots__ = ("_mu", "_erev", "_estart", "_efinish", "edges", "rows")

    def __init__(self, graph: Graph):
        self._mu, self._erev = graph.mu, graph.erev
        self._estart, self._efinish = graph.estart, graph.efinish
        self.edges: list = [None]  # edges[l] was pushed at level l
        self.rows: list[dict[int, float]] = [{0: 1.0}]

    def push(self, *pushed: int):
        """Push the edges one by one in front of the suffix; the last becomes its first edge."""
        edges, rows, mu, erev = self.edges, self.rows, self._mu, self._erev
        estart, efinish = self._estart, self._efinish
        for e in pushed:
            back, cap = erev[e], mu(efinish[e]) / mu(estart[e])
            row = {len(rows): 1.0}
            for r, w in rows[-1].items():
                if r and edges[r] == back:
                    w *= cap
                    for j, c in rows[r - 1].items():
                        row[j] = row.get(j, 0.0) + w * c
            edges.append(e)
            rows.append(row)

    def pop(self):
        self.edges.pop()
        self.rows.pop()

    def corner_with(self, e: int) -> float:
        """W of e in front of the suffix, its entry r = 0, from the partners alone.

        e is not pushed: a walk reads a loop's weight where it closes
        without building the row of the loop itself.
        """
        edges, rows, mu = self.edges, self.rows, self._mu
        back, cap = self._erev[e], mu(self._efinish[e]) / mu(self._estart[e])
        total = 0.0
        for r, w in rows[-1].items():
            if r and edges[r] == back:
                total += w * cap * rows[r - 1].get(0, 0.0)
        return total


def _phi_step(e: int, back: int, cap: float, prev: dict) -> dict:
    """phi(e r) = e # phi(r), from prev = phi(r): the one-edge rule.

    Each term q of prev gains e in front, and one starting with
    back = rev(e) also contracts to q[1:] times cap = mu(after e)/mu(before e).
    """
    acc = {(e,) + q: c for q, c in prev.items()}
    for q, c in prev.items():
        if q and q[0] == back:
            acc[q[1:]] = acc.get(q[1:], 0.0) + cap * c
    return acc


def _psi_step(e: int, cap: float, prev: dict, older) -> dict:
    """psi(e r) = e psi(r) - cap psi(r[1:]), from prev = psi(r): the rule inverted.

    older is psi(r[1:]) when r starts with rev(e); otherwise it is None,
    and psi(e r) = e psi(r).
    """
    acc = {(e,) + q: c for q, c in prev.items()}
    if older is not None:
        for q, c in older.items():
            acc[q] = acc.get(q, 0.0) - cap * c
    return acc


def _path_transform(graph: Graph, edges: tuple[int, ...], inverse: bool) -> dict:
    """phi (or psi) of the path along these edges, as {through edges: coeff}.

    The transform of the suffix after edges[:cut] (the last
    SUFFIX_MEMO_LEN edges, or all but the first of a shorter path) comes
    from the memo, and each edge in front of it takes one
    :func:`_phi_step` (or :func:`_psi_step`), with cap
    c = mu(after e)/mu(before e).  No entry is stored for the whole path.
    """
    if not edges:
        return {(): 1.0}
    mu, erev, estart, efinish = graph.mu, graph.erev, graph.estart, graph.efinish
    n = len(edges)
    cut = max(n - SUFFIX_MEMO_LEN, 1)
    prev = _suffix_transform(graph, edges[cut:], inverse)
    older = _suffix_transform(graph, edges[cut + 1:], inverse) if inverse else None
    for i in range(cut - 1, -1, -1):
        e = edges[i]
        cap = mu(efinish[e]) / mu(estart[e])
        if not inverse:
            acc = _phi_step(e, erev[e], cap, prev)
        else:
            acc = _psi_step(e, cap, prev, older if i + 1 < n and edges[i + 1] == erev[e] else None)
        older, prev = prev, acc
    return prev


@functools.lru_cache(maxsize=TAU_MEMO_MAX)
def _suffix_transform(graph: Graph, suffix: tuple[int, ...], inverse: bool) -> dict:
    """:func:`_path_transform` of a suffix of at most SUFFIX_MEMO_LEN edges, memoized.

    Its recursion reads the entries of suffix[1:] (and, for psi,
    suffix[2:]), so each distinct suffix takes one step while it stays in
    the memo.  Callers must not change the dict.
    """
    return _path_transform(graph, suffix, inverse)


def basis_transforms(graph: Graph, max_degree: int, inverse: bool) -> dict:
    """phi (or psi) of every path of length <= max_degree, filled length by length.

    Keyed by the path's edge tuple, or by its vertex at length 0; each
    value is {through edges: coeff} as :func:`_path_transform` returns
    it, every output starting where its path starts.  The path e r
    is one step (:func:`_phi_step`, :func:`_psi_step`) from r's entry, one
    length shorter, and psi also reads r[1:]'s, two shorter, when r
    starts with rev(e).  So each distinct suffix is transformed once, not
    once per path that ends with it.
    """
    mu, erev, estart, efinish = graph.mu, graph.erev, graph.estart, graph.efinish
    into = [[erev[e] for e in graph.out_edges(u)] for u in range(graph.n_vertices)]
    memo: dict = {v: {(): 1.0} for v in range(graph.n_vertices)}
    level = [(v, ()) for v in range(graph.n_vertices)]  # (start, edges) of one length
    for _ in range(max_degree):
        longer = []
        for v, r in level:
            prev = memo[r or v]
            for e in into[v]:
                u, back = estart[e], erev[e]
                cap, path = mu(efinish[e]) / mu(u), (e,) + r
                if not inverse:
                    memo[path] = _phi_step(e, back, cap, prev)
                else:
                    memo[path] = _psi_step(e, cap, prev,
                                           memo[r[1:] or u] if r and r[0] == back else None)
                longer.append((u, path))
        level = longer
    return memo


def _transform(x: GradedElement, inverse: bool) -> GradedElement:
    """phi (or psi) of x, path by path; a transform keeps both ends, so outputs start at v_0."""
    g = x.graph
    efinish = g.efinish
    out: dict[Path, float] = {}
    for p, a in x.terms.items():
        for edges, c in _path_transform(g, p.edges, inverse).items():
            q = Path((p.start, *map(efinish.__getitem__, edges)), edges)
            out[q] = out.get(q, 0.0) + a * c
    return GradedElement(g, out)


def t_phi_path(graph: Graph, path: Path) -> float:
    """t(phi(path)) without building phi: mu^2(v_0) times the all-capped corner W(0,n).

    A walk with a single branch: the edges are pushed onto a
    :class:`GapStack` from the last, and the first edge's corner is read
    without its row.
    """
    if not path.length:
        return graph.mu2[path.start]
    gaps = GapStack(graph)
    gaps.push(*path.edges[:0:-1])
    return gaps.corner_with(path.edges[0]) * graph.mu2[path.start]


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
    values.  Returns (SparseMatrix, basis), the triplets sorted by row
    and then column.

    Only the nonzeros are visited, and no path is built beyond the basis.
    A term q = (v, e) of a, of length m, contracts k edges exactly with
    the columns p = rev(e[m-k:]) s, for s a path from v[m-k]; the image
    row is v[:m-k] s, weighing c mu(v[m])/mu(v[m-k]) as in `sharp_mul`.
    Both lengths stay within the cap while |s| <= max_degree - max(k, m-k),
    so a term longer than the cap still acts through its deep
    contractions.  Basis indices are path ranks: with N_r(u) the number of
    paths of length r from u, the path from u along e_1..e_n sits at the
    first index of its (n, u) plus, for each e_i, N_{n-i} summed over the
    out-edges of e_i's start that come before e_i.  So the paths s of one
    length fill consecutive rows and consecutive columns.  Contributions
    to an entry are summed in the order above, and each entry is then
    rescaled by sqrt(mu(v[0])/mu(v[m])) (row and column share the
    finish); entries that cancel exactly are dropped.
    """
    g = a.graph
    mu, erev, efinish = g.mu, g.erev, g.efinish
    basis = truncated_basis(g, max_degree)
    n = len(basis)
    count = np.array([p.sum(axis=1) for p in islice(adjacency_powers(g), max_degree + 1)],
                     dtype=np.int64)  # count[r, u] = N_r(u)
    first = (np.cumsum(count) - count.ravel()).reshape(count.shape)
    before = np.zeros((max_degree + 1, len(efinish)), dtype=np.int64)
    for u in range(g.n_vertices):
        out = g.out_edges(u)
        before[:, out[1:]] = np.cumsum(count[:, [efinish[e] for e in out[:-1]]], axis=1)

    def firsts(start, edges, lengths):
        """The ranks of the paths start-edges-s, for s the first path of each length."""
        steps = len(edges) + lengths[:, None] - np.arange(1, len(edges) + 1)
        return first[len(edges) + lengths, start] + before[steps, list(edges)].sum(axis=1)

    rows, cols, wts = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for (pv, pe), c in a.terms.items():
        m = len(pe)
        for k in range(min(m, max_degree) + 1):
            lengths = np.arange(max_degree - max(k, m - k) + 1)
            band = count[lengths, pv[m - k]]
            step = np.arange(band.sum()) - np.repeat(np.cumsum(band) - band, band)
            rows.append(np.repeat(firsts(pv[0], pe[:m - k], lengths), band) + step)
            cols.append(np.repeat(firsts(pv[m], [erev[e] for e in reversed(pe[m - k:])],
                                         lengths), band) + step)
            wts.append(np.full(step.size, c * mu(pv[m]) / mu(pv[m - k])))
    keys, where = np.unique(np.concatenate(rows) * n + np.concatenate(cols), return_inverse=True)
    i, j = keys // n, keys % n
    scale = np.array([(mu(p.start) * mu(p.finish)) ** 0.5 for p in basis])
    w = np.bincount(where, weights=np.concatenate(wts), minlength=keys.size)
    vals = w * scale[i] / scale[j]
    kept = vals != 0
    return SparseMatrix(i[kept], j[kept], vals[kept], (n, n)), basis


def left_mult_norm_bound(graph: Graph, path: Path) -> float:
    """Explicit bound (2m+1) max(1, delta^(m/2)) / mu(f) for a unit path."""
    m = path.length
    d = delta_max(graph)
    return (2 * m + 1) * max(1.0, d ** (m / 2)) / graph.mu(path.finish)


# operator_norm stops once the top Ritz pair's residual bound is at most
# RITZ_TOL times its Ritz value: an eigenvalue of M^T M then lies within
# 64 eps of that value, relatively, and its square root within about 32 eps
# of the norm returned.
RITZ_TOL = 64 * np.finfo(float).eps


def operator_norm(mat) -> float:
    """Spectral norm of a SparseMatrix (or a dense array) by Lanczos on M^T M.

    Zero columns add no singular value and are dropped.  Each step takes
    M^T M q as two `np.bincount` passes over the triplets and
    orthogonalises the result against every earlier Lanczos vector (twice,
    so orthogonality holds to rounding).  The start vector is uniform on
    [-1/2, 1/2) per column, read as 53-bit fractions off the bytes of
    ``random.Random(0)`` in one vectorised step, so the result repeats and
    ``numpy.random`` is never loaded.  The square root of the top Ritz
    value is returned, a lower bound on the norm.  The loop stops when the
    residual bound beta_k |s_k| of the top Ritz pair falls to RITZ_TOL
    times its value (a breakdown, beta_k ~ 0, meets that too, since
    |s_k| <= 1), or once there are as many steps as nonzero columns,
    where the Krylov space is the whole space and the Ritz values are
    exact.  A matrix without nonzeros has norm 0.
    """
    if not isinstance(mat, SparseMatrix):
        rows, cols = np.nonzero(mat)
        mat = SparseMatrix(rows, cols, mat[rows, cols], mat.shape)
    if not mat.vals.size:
        return 0.0
    rows, vals = mat.rows, mat.vals
    cols = np.unique(mat.cols, return_inverse=True)[1]  # the nonzero columns, numbered
    n_cols = cols.max() + 1
    bits = np.frombuffer(random.Random(0).randbytes(8 * int(n_cols)), np.uint64)
    q = (bits >> np.uint64(11)) * 2.0 ** -53 - 0.5
    q /= np.linalg.norm(q)
    basis, alphas, betas = np.empty((8, n_cols)), [], []  # rows double when full
    basis[0] = q
    while True:
        w = np.bincount(rows, weights=vals * q[cols])
        w = np.bincount(cols, weights=vals * w[rows])
        alphas.append(q @ w)
        done = basis[:len(alphas)]
        for _ in range(2):
            w -= done.T @ (done @ w)
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if len(alphas) == n_cols or beta * abs(s[-1, -1]) <= RITZ_TOL * theta[-1]:
            return float(np.sqrt(max(theta[-1], 0.0)))
        betas.append(beta)
        q = w / beta
        if len(alphas) == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[len(alphas)] = q
