"""The graded path *-probability space of a graph.

Elements are finite linear combinations of paths (mixed degrees are
allowed so the filtered picture can reuse the container).  Their
arithmetic lives in :class:`SparseElement`, which the path-pair
combinations of the towers share.  The product
is concatenation, the involution reverses paths, and the trace sums
Temperley-Lieb pairings weighted by Kreweras-complement mu-factors.

Each Kreweras class of a pairing that matches edges as mutual reversals
carries a single vertex, so a pairing weighs
prod_i mu(v_i)^-1 * prod_classes mu^2(v_class), with v_i the vertex
after edge i.  Splitting a pairing at the partner of its first edge
(first-return decomposition) turns the Catalan-sized sum into an
O(n^3) interval recursion, so :func:`tau` has no length cap.  Its row
for e_{i+1}..e_n depends on that suffix alone, so :class:`FaceStack`
keeps the rows as a stack that grows by one edge in front.  :func:`tau`
pushes each loop onto one fresh stack and remembers the loop's value in
a memo bounded by TAU_MEMO_MAX entries; a caller that walks a family's
suffix tree on one stack builds each distinct suffix's row once.
:func:`tau_pairing` keeps the single-diagram term as the oracle.
"""

from __future__ import annotations

import functools
import math

from .graphs import Graph, GraphError, Path, vertex_path
from . import noncross


def max_abs(values) -> float:
    """max |x| over values, 0.0 when there are none; NaN when any x is NaN,
    whatever the order (``max`` alone keeps a NaN only when it comes first)."""
    mags = list(map(abs, values))
    return math.nan if math.isnan(sum(mags)) else max(mags, default=0.0)


def max_abs_diff(a: dict, b: dict) -> float:
    """max |a[k] - b[k]| over both key sets, a missing key reading 0."""
    return max_abs([a.get(k, 0.0) - b.get(k, 0.0) for k in a.keys() | b.keys()])


class SparseElement:
    """Finite scalar combination of basis keys over a fixed graph.

    Zero coefficients are dropped on construction, and every operation
    builds its result once.  Subclasses say how to build a result like
    themselves (:meth:`_build`) and which operands combine with them
    (:meth:`_check`).
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Graph, terms=None):
        self.graph = graph
        terms = terms or {}
        # dict() copies the stored key hashes; the comprehension rehashes
        # every key, so it runs only when there is a zero to drop
        self.terms = ({k: c for k, c in terms.items() if c != 0} if 0 in terms.values()
                      else dict(terms))

    def _build(self, terms: dict):
        return type(self)(self.graph, terms)

    def _check(self, other):
        if other.graph is not self.graph:
            raise GraphError("elements live on different graphs")

    @classmethod
    def basis(cls, graph: Graph, key, coeff=1.0):
        return cls(graph, {key: coeff})

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return self._build(terms)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        return self._build({k: scalar * c for k, c in self.terms.items()})

    def coeff(self, key) -> float:
        return self.terms.get(key, 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def norm_inf_diff(self, other) -> float:
        # a zero element is zero on every level, so only two nonzero
        # elements have to combine
        if self.terms and other.terms:
            self._check(other)
        return max_abs_diff(self.terms, other.terms)


class GradedElement(SparseElement):
    """Finite scalar combination of paths of a fixed graph.

    Mixed degrees are allowed.  The graded concatenation product is
    :func:`bullet_mul` and the involution :func:`star`.
    """

    __slots__ = ()

    def degrees(self) -> list[int]:
        return sorted({p.length for p in self.terms})

    def component(self, n: int) -> "GradedElement":
        return GradedElement(self.graph,
                             {p: c for p, c in self.terms.items() if p.length == n})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].vertices, t[0].edges)):
            names = "->".join(self.graph.ids[v] for v in p.vertices)
            bits.append(f"{c:+.6g}*[{names}]")
        return " ".join(bits)


# ---------------------------------------------------------------------------
# structure maps


def unit(graph: Graph) -> GradedElement:
    """The multiplicative identity: the sum of all length-0 paths."""
    return GradedElement(graph, {vertex_path(v): 1.0 for v in range(graph.n_vertices)})


def e_vertex(graph: Graph, v) -> GradedElement:
    return GradedElement.basis(graph, vertex_path(graph.index(v)))


def bullet_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """Concatenation product; terms with mismatched endpoints drop out."""
    x._check(y)
    out: dict[Path, float] = {}
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            pq = p.concat(q)
            if pq is not None:
                out[pq] = out.get(pq, 0.0) + a * b
    return GradedElement(x.graph, out)


def star(x: GradedElement) -> GradedElement:
    """The involution: conjugate coefficients on reversed paths."""
    g = x.graph
    return GradedElement(g, {p.reversed_in(g): c.conjugate() if isinstance(c, complex) else c
                             for p, c in x.terms.items()})


# ---------------------------------------------------------------------------
# the trace


def tau_pairing(graph: Graph, t: noncross.NCPartition, path: Path) -> float:
    """Single Temperley-Lieb term of the trace.

    The pairing matches edge slots as mutual reversals; each class of
    its Kreweras complement contributes mu(vertex)^(2-|class|), where
    position i of the complement carries the vertex after edge i.
    """
    n = path.length
    if t.n != n:
        raise GraphError("pairing size does not match path length")
    if n == 0:
        return graph.mu2[path.start]  # the empty pairing has one face, at v_0
    for a, b in t.blocks:
        if path.edges[a - 1] != graph.erev[path.edges[b - 1]]:
            return 0.0
    out = 1.0
    for c in noncross.kreweras(t).blocks:
        out *= graph.mu(path.vertices[c[0]]) ** (2 - len(c))
    return out


class FaceStack:
    """The face rows of a path's suffixes, pushed one edge in front at a time.

    With s_1 s_2 ... the suffix, s_1 the edge pushed last, the row of the
    suffix of length l is the dict {r: F} of its nonzeros, where F sums the
    pairings of s_1..s_{l-r} (r counts the edges left after them) by their
    products of face weights mu^2.  Its entry r = l is 1, the empty
    stretch; s_1 pairs with some s_k = rev(s_1), closing the face at the
    vertex after s_1, so F = mu^2 * F(s_2..s_{k-1}) * F(s_{k+1}..s_{l-r}).
    The row below holds F(s_2..s_{k-1}) at r' = l-k+1, where s_k is the
    edge pushed at level r', and the row at level r'-1 holds the rest at
    r.  So a row depends only on its suffix, is filled only from the
    partners whose inner stretch pairs off (not (l+1)^2 cells), and a
    walk that pushes and pops builds one row per distinct suffix.  Every
    weight is positive, so no entry cancels; the corner r = 0 pairs the
    whole suffix.  With face_scale s every face weighs mu^2 / s, so each F
    of a stretch of 2m edges reads F / s^m, with no power of s formed.
    """

    __slots__ = ("_mu2", "_erev", "_efinish", "edges", "rows")

    def __init__(self, graph: Graph, face_scale: float = 1.0):
        self._mu2 = graph.mu2 if face_scale == 1.0 else [m / face_scale for m in graph.mu2]
        self._erev, self._efinish = graph.erev, graph.efinish
        self.edges: list = [None]  # edges[l] was pushed at level l
        self.rows: list[dict[int, float]] = [{0: 1.0}]

    def push(self, *pushed: int):
        """Push the edges one by one in front of the suffix; the last becomes its first edge."""
        edges, rows = self.edges, self.rows
        erev, mu2, efinish = self._erev, self._mu2, self._efinish
        for e in pushed:
            back, face = erev[e], mu2[efinish[e]]
            row = {len(rows): 1.0}
            for r, w in rows[-1].items():
                if r and edges[r] == back:
                    w *= face
                    for j, c in rows[r - 1].items():
                        row[j] = row.get(j, 0.0) + w * c
            edges.append(e)
            rows.append(row)

    def pop(self):
        self.edges.pop()
        self.rows.pop()

    def corner_with(self, e: int) -> float:
        """F of e in front of the suffix, its entry r = 0, from the partners alone.

        e is not pushed: a walk reads a loop's trace where it closes
        without building the row of the loop itself.
        """
        edges, rows, back = self.edges, self.rows, self._erev[e]
        total = 0.0
        for r, w in rows[-1].items():
            if r and edges[r] == back:
                total += w * rows[r - 1].get(0, 0.0)
        return self._mu2[self._efinish[e]] * total


# Loops held, of all graphs together.  One pass of verify --suite all at
# degree 6 traces 446 distinct loops, one of any perfbench workload <= 1,122.
# The transforms of suffixes (falg) are held to the same bound.
TAU_MEMO_MAX = 4096


def tau_path(graph: Graph, path: Path) -> float:
    """Trace of one path: mu^2(v_0) * F(0,n) / prod_{i=1..n} mu(v_i).

    Open and odd-length paths give 0.
    """
    if path.length == 0:
        return graph.mu2[path.start]
    if path.length % 2 or path.start != path.finish:
        return 0.0
    return tau_loop(graph, path.edges)


@functools.lru_cache(maxsize=TAU_MEMO_MAX)
def tau_loop(graph: Graph, edges: tuple[int, ...]) -> float:
    """Trace of the loop with these edges (at least one), memoized by the edge tuple.

    The other edges are pushed onto one fresh :class:`FaceStack`, the
    last first, and the first edge's corner is read over their rows
    without building its own.
    """
    faces = FaceStack(graph)
    faces.push(*edges[:0:-1])
    denom = math.prod(map(graph.mu, map(graph.efinish.__getitem__, edges)))
    return graph.mu2[graph.estart[edges[0]]] * faces.corner_with(edges[0]) / denom


def tau(x: GradedElement) -> float:
    """The normalized trace: TL-pairing sum on each path, linearly extended.

    Vanishes in odd degrees; tau(unit) = 1.
    """
    return sum(c * tau_path(x.graph, p) for p, c in x.terms.items())
